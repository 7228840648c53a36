"""trotterprof benchmark: cold-process CLI runs in a closed loop.

Usage::

    python3 perfbench/run.py --workload presets --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each round starts a fresh Python process (``child.py``) that imports
trotterprof, parses the round's config documents and runs one ``run`` job per
document through ``trotterprof.cli.run_command``; the next round starts when
the previous one has returned.  Rounds repeat until the next one would end
past ``--seconds``.  Every job's CSV is checked against references that do
not use trotterprof (``reference.py``); a job that exits non-zero, raises or
fails the check counts as failed.

With ``--trace 0`` the last line is a JSON object with the medians over the
rounds of the end-to-end metrics.  With ``--trace 1`` untraced and traced
rounds alternate; the last line holds the per-layer metrics (medians over the
traced rounds) and ``trace.overhead_s``, the traced minus the untraced median
``wall_s``.  Metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORDED = HERE / "reference_values.json"

#: Seed of the recorded ep/mpf reference values (the presets ignore the seed).
DEFAULT_SEED = 1
#: A round that takes longer than this is killed and counts as failed.
ROUND_TIMEOUT_S = 120
#: Per-layer metrics derived from counts rather than timed.
COMPUTED = (
    "simulator.apply_circuit.gates",
    "simulator.apply_circuit.gates_per_s",
    "simulator.circuit_unitary.gflop",
    "pauli.dense_word.cache_mb",
)


class Job:
    """One ``run`` job: its document, output path and expected values."""

    def __init__(self, index: int, label: str, doc: dict, ref_doc: dict, workdir: Path, recorded):
        self.label = label
        self.config = workdir / f"job{index}.json"
        self.out = workdir / f"job{index}.csv"
        self.config.write_text(json.dumps(doc, indent=1))
        self.oracle = reference.Oracle(ref_doc)
        self.expected = self.oracle.expected()
        self.recorded = recorded


def prepare(workload: str, seed: int, workdir: Path) -> list[Job]:
    recorded = json.loads(RECORDED.read_text())
    use_recorded = workload == "presets" or seed == recorded["seed"]
    return [
        Job(i, label, doc, ref_doc, workdir, recorded["jobs"][label] if use_recorded else None)
        for i, (label, doc, ref_doc) in enumerate(workloads.jobs(workload, seed))
    ]


def run_round(jobs: list[Job], workdir: Path, index: int, trace: bool, trace_out: Path) -> dict:
    """Run one fresh process over all jobs and check every output."""
    for job in jobs:
        job.out.unlink(missing_ok=True)
    spec_path = workdir / f"round{index}.spec.json"
    result_path = workdir / f"round{index}.result.json"
    spec = {
        "src": str(SRC),
        "jobs": [{"config": str(j.config), "out": str(j.out)} for j in jobs],
        "trace": trace,
        "trace_out": str(trace_out),
        "n_qubits": jobs[0].oracle.n,
    }
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
        crashed = None if proc.returncode == 0 else proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        crashed = f"round exceeded {ROUND_TIMEOUT_S} s"
    duration = time.monotonic() - spawned
    if crashed is not None:
        return {"trace": trace, "duration": duration, "failed": len(jobs), "problems": [crashed]}

    result = json.loads(result_path.read_text())
    problems, errors = [], {"ep": [], "mpf": []}
    rows = {"ep": 0, "mpf": 0}
    failed = 0
    for job, ran in zip(jobs, result["jobs"]):
        if ran["code"] != 0:
            failed += 1
            problems.append(f"{job.label}: exit {ran['code']} {ran['error'] or ''}")
            continue
        text = job.out.read_text()
        found = reference.check_table(text, job.oracle, job.expected, job.recorded)
        if found:
            failed += 1
            problems.extend(f"{job.label}: {p}" for p in found)
            continue
        for method, _, _, _, _, abs_error in reference.read_rows(text):
            if method in errors:
                errors[method].append(abs_error)
                rows[method] += 1
    out = {
        "trace": trace,
        "duration": duration,
        "failed": failed,
        "problems": problems,
        "env": result["env"],
        "bases": {job.label: ran["bases"] for job, ran in zip(jobs, result["jobs"])},
        "wall_s": result["jobs"][-1]["end"] - result["jobs"][0]["start"],
        "setup_s": result["ready"] - spawned,
        "peak_rss_mb": result["peak_rss_mib"],
        "ep_err_max": max(errors["ep"], default=math.nan),
        "mpf_err_max": max(errors["mpf"], default=math.nan),
    }
    if trace:
        layers = result["layers"]
        out["layers"] = layers
        out["patched"] = result["patched"]
        # Self-check of the tracer: every ep row is one fit, every mpf row one estimate.
        for name, method in (("profiling.fit_profile.calls", "ep"), ("mpf.mpf_estimate.calls", "mpf")):
            if failed == 0 and layers[name] != rows[method]:
                out["failed"] = len(jobs)
                problems.append(f"trace self-check: {name} = {layers[name]}, {rows[method]} {method} rows")
    return out


def median(values: list[float]) -> float | None:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        jobs = prepare(workload, seed, workdir)
        rounds: list[dict] = []
        begin = time.monotonic()
        while True:
            traced = trace and len(rounds) % 2 == 1
            r = run_round(jobs, workdir, len(rounds), traced, WORK / f"trace-{workload}.json")
            rounds.append(r)
            print(
                f"round {len(rounds)}{' traced' if r['trace'] else ''}: "
                + ", ".join(f"{k} {r[k]:.4g}" for k in ("wall_s", "setup_s", "peak_rss_mb") if k in r)
                + f", {len(jobs)} jobs, {r['failed']} failed",
                flush=True,
            )
            for problem in r["problems"][:20]:
                print(f"  {problem}", flush=True)
            both_kinds = not trace or len(rounds) >= 2
            if both_kinds and time.monotonic() - begin + r["duration"] > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["trace"] and "wall_s" in r]
    traced = [r for r in rounds if r["trace"] and "wall_s" in r]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = {
            name: median([r["layers"][name] for r in traced])
            for name in wanted
            if name != "trace.overhead_s"
        }
        walls = median([r["wall_s"] for r in traced]), median([r["wall_s"] for r in plain])
        values["trace.overhead_s"] = None if None in walls else walls[0] - walls[1]
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = {name: median([r[name] for r in plain]) for name in wanted}

    for name in wanted:
        print(f"{name} {values[name]} {units[name]}")
    print(f"failed_ratio {failed / attempted} ratio ({failed} of {attempted} jobs failed)")
    done = [r for r in rounds if "env" in r]
    if done:
        print("env " + json.dumps(done[-1]["env"]))
        print("bases " + json.dumps(done[-1]["bases"]))
    if trace:
        print("computed, not measured: " + ", ".join(COMPUTED))
        if traced:
            print("patched " + json.dumps(traced[-1]["patched"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps a running round.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "trotterprof" / "__init__.py").is_file():
        print(f"error: no trotterprof sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        if len(names) > 1:
            print(f"== {name}", flush=True)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
