"""Record the ep and mpf estimates that later runs are checked against.

Usage: ``python3 perfbench/record_reference.py``

Runs every job of every workload once, at the default seed, through the
CLI entry point of the checked-out sources and writes the ep and mpf
estimates per time to ``reference_values.json``.  Run it only on a commit
whose results are trusted; the committed file was recorded on the commit
that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import reference
import workloads
from run import DEFAULT_SEED, RECORDED, SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    from trotterprof.cli import run_command

    recorded: dict = {"seed": DEFAULT_SEED, "jobs": {}}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in workloads.WORKLOADS:
            for label, doc, _ in workloads.jobs(workload, DEFAULT_SEED):
                config, out = Path(tmp, "job.json"), Path(tmp, "job.csv")
                config.write_text(json.dumps(doc))
                if run_command(["run", "--config", str(config), "--out", str(out)]) != 0:
                    print(f"error: {label} failed", file=sys.stderr)
                    return 1
                rows = reference.read_rows(out.read_text())
                recorded["jobs"][label] = {
                    method: [r[3] for r in rows if r[0] == method] for method in ("ep", "mpf")
                }
                print(f"recorded {label}", flush=True)
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
