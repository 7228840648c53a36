"""One benchmark round in a fresh process, as a CLI user would run it.

Usage: ``python3 perfbench/child.py SPEC.json RESULT.json``

The spec names the source directory, the config documents and output paths
of the jobs, and whether to trace.  The process imports trotterprof, parses
every config document (the end of set-up), then calls
``trotterprof.cli.run_command`` once per job, each job starting when the
previous one returns.  Timings use ``time.monotonic`` so that the parent can
measure set-up from the moment it started this process.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics, rebind

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_record() -> dict:
    """The BLAS library numpy loaded and the thread count it reports."""
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                record.update(library=os.path.basename(path), threads=getter())
                return record
    return record


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import trotterprof
    import trotterprof.cli
    from trotterprof.config import parse_document

    if not Path(trotterprof.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported trotterprof from {trotterprof.__file__}, not {src}")
    for job in spec["jobs"]:
        parse_document(Path(job["config"]).read_text())
    ready = time.monotonic()

    # The calibrated basis is a property of the inputs, recorded so that a
    # seed which changes the amount of work shows up; one call per ep curve.
    bases: list = []
    resolve_basis = trotterprof.profiling.resolve_basis

    def recording_resolve_basis(config):
        basis = resolve_basis(config)
        record = {"orders": list(basis.orders), "antisymmetric": basis.include_antisymmetric}
        if record not in bases:
            bases.append(record)
        return basis

    rebind("resolve_basis", resolve_basis, recording_resolve_basis)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    jobs = []
    for job in spec["jobs"]:
        argv = ["run", "--config", job["config"], "--out", job["out"]]
        bases.clear()
        start = time.monotonic()
        try:
            code, error = trotterprof.cli.run_command(argv), None
        except Exception:
            code, error = None, traceback.format_exc()
        end = time.monotonic()
        jobs.append({"code": code, "error": error, "start": start, "end": end, "bases": list(bases)})

    import numpy as np
    from trotterprof.experiments import worker_count

    result = {
        "ready": ready,
        "jobs": jobs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_record(),
            "TROTTERPROF_THREADS": os.environ.get("TROTTERPROF_THREADS"),
            "worker_count": worker_count(),
        },
    }
    if tracer is not None:
        from trotterprof.pauli import dense_word

        result["layers"] = layer_metrics(
            tracer,
            workers=worker_count(),
            dense_cache_entries=dense_word.cache_info().currsize,
            n_qubits=spec["n_qubits"],
        )
        result["patched"] = tracer.patched
        Path(spec["trace_out"]).write_text(json.dumps({"spans": tracer.span_records()}))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
