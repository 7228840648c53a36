"""Outside-in tracing of trotterprof's public functions.

Each traced function is replaced by a timing wrapper in every trotterprof
module namespace that binds it: ``from .simulator import apply_circuit``
copies the binding, so patching only the defining module would miss the
calls made through the copies.  Calls become spans (name, thread, start,
end, parent) kept in memory; the hot leaf ``pauli.apply_pauli_word`` is only
counted and timed, per thread, and its time is charged to the enclosing
span as child time.  No file of the program is changed.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from time import perf_counter

#: ``module: functions`` wrapped as spans.
SPANNED = {
    "cli": ("run_command",),
    "config": ("parse_document",),
    "experiments": ("run_error_curve",),
    "profiling": (
        "calibrate_basis",
        "extract_error_operators",
        "resolve_basis",
        "averaged_expectation",
        "composite_circuit",
        "fit_profile",
        "mitigated_estimate",
    ),
    "mpf": ("mpf_estimate", "mpf_weights"),
    "formulas": ("compile_circuit", "invert_circuit"),
    "simulator": ("apply_circuit", "circuit_unitary", "exact_evolve", "expectation"),
    "pauli": ("to_dense",),
    "report": ("write_csv",),
}
LEAF = ("pauli", "apply_pauli_word")
PACKAGE = "trotterprof"


def rebind(name: str, original, replacement) -> list[str]:
    """Point every trotterprof namespace that binds ``original`` at ``replacement``."""
    spaces = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, replacement)
            spaces.append(mod_name)
    return spaces


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.patched: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "leaf_calls": 0, "leaf_s": 0.0}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def seen(self, key: str, item) -> None:
        with self._lock:
            self.distinct.setdefault(key, set()).add(item)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after):
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            label = name
            if name == "experiments.run_error_curve":
                method = args[1] if len(args) > 1 else kwargs.get("method")
                label = f"{name}.{method}"
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    (frame[0], parent, label, threading.current_thread().name, start, end, frame[1])
                )
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            state = self._state()
            state["leaf_calls"] += 1
            state["leaf_s"] += elapsed
            if state["stack"]:
                state["stack"][-1][1] += elapsed
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, module: str, name: str, make) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
        self.patched[f"{module}.{name}"] = rebind(name, original, make(original))

    def install(self) -> None:
        """Wrap every listed function in every namespace that binds it."""
        for module, names in SPANNED.items():
            for name in names:
                full = f"{module}.{name}"
                self._replace_everywhere(
                    module,
                    name,
                    lambda fn, full=full: self._span_wrapper(full, fn, _AFTER.get(full)),
                )
        self._replace_everywhere(*LEAF, self._leaf_wrapper)

    # -- aggregation --------------------------------------------------------

    def leaf_totals(self) -> tuple[int, float]:
        with self._lock:
            return (
                sum(s["leaf_calls"] for s in self._threads),
                sum(s["leaf_s"] for s in self._threads),
            )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        totals: dict[str, dict[str, float]] = {}
        for _, _, label, _, start, end, child in self.spans:
            entry = totals.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return totals

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "thread": th, "start": s, "end": e}
            for i, p, n, th, s, e, _ in self.spans
        ]


# -- per-call extras, measured from arguments and results ---------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _after_compile(tracer: Tracer, args, kwargs, circuit) -> None:
    tracer.count("formulas.compile_circuit.gates", len(circuit.gates))
    tracer.seen("formulas.compile_circuit", hash(tuple(g.word for g in circuit.gates)))


def _after_apply(tracer: Tracer, args, kwargs, state) -> None:
    tracer.count("simulator.apply_circuit.gates", len(_arg(args, kwargs, 1, "c").gates))


def _after_unitary(tracer: Tracer, args, kwargs, matrix) -> None:
    gates = len(_arg(args, kwargs, 0, "c").gates)
    tracer.count("simulator.circuit_unitary.flop", gates * 8 * matrix.shape[0] ** 3)


def _after_evolve(tracer: Tracer, args, kwargs, state) -> None:
    key = (
        hash(_arg(args, kwargs, 0, "h")),
        float(_arg(args, kwargs, 1, "t")),
        _arg(args, kwargs, 2, "state").amplitudes.tobytes(),
    )
    tracer.seen("simulator.exact_evolve", key)


def _after_fit(tracer: Tracer, args, kwargs, fit) -> None:
    tracer.maximum("profiling.fit_profile.cond_max", fit.condition_number)


def _after_write(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("report.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


_AFTER = {
    "formulas.compile_circuit": _after_compile,
    "simulator.apply_circuit": _after_apply,
    "simulator.circuit_unitary": _after_unitary,
    "simulator.exact_evolve": _after_evolve,
    "profiling.fit_profile": _after_fit,
    "report.write_csv": _after_write,
}

#: ``(span name, aggregates)`` reported straight from the spans.
_SPAN_METRICS = (
    ("cli.run_command", ("s",)),
    ("config.parse_document", ("s",)),
    ("experiments.run_error_curve.trotter", ("s",)),
    ("experiments.run_error_curve.ep", ("s",)),
    ("experiments.run_error_curve.mpf", ("s",)),
    ("profiling.calibrate_basis", ("calls", "s")),
    ("profiling.extract_error_operators", ("calls", "s")),
    ("profiling.resolve_basis", ("calls",)),
    ("profiling.averaged_expectation", ("calls", "s")),
    ("profiling.composite_circuit", ("calls", "s")),
    ("profiling.fit_profile", ("calls", "s")),
    ("profiling.mitigated_estimate", ("calls",)),
    ("mpf.mpf_estimate", ("calls", "s")),
    ("mpf.mpf_weights", ("s",)),
    ("formulas.compile_circuit", ("calls", "s")),
    ("formulas.invert_circuit", ("calls", "s")),
    ("simulator.apply_circuit", ("calls", "self_s")),
    ("simulator.circuit_unitary", ("calls", "s")),
    ("simulator.exact_evolve", ("calls", "s")),
    ("simulator.expectation", ("calls", "s")),
    ("pauli.to_dense", ("calls", "s")),
    ("report.write_csv", ("s",)),
)


def layer_metrics(
    tracer: Tracer, workers: int, dense_cache_entries: int, n_qubits: int
) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    ``gates_per_s``, ``gflop`` and ``cache_mb`` are computed from counts
    (gates x 8 dim^3 for a dense product; cached words x 4^n x 16 B), not
    measured.  Times of calls made on pool threads add up across threads.
    """
    totals = tracer.layer_totals()
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for name, keys in _SPAN_METRICS:
        for key in keys:
            metrics[f"{name}.{key}"] = totals.get(name, {}).get(key, 0)
    leaf_calls, leaf_s = tracer.leaf_totals()

    def ratio(name: str) -> float:
        calls = totals.get(name, {}).get("calls", 0)
        return len(tracer.distinct.get(name, ())) / calls if calls else 0.0

    apply_gates = counters.get("simulator.apply_circuit.gates", 0)
    apply_s = totals.get("simulator.apply_circuit", {}).get("s", 0.0)
    metrics.update(
        {
            "experiments.worker_count": workers,
            "profiling.fit_profile.cond_max": counters.get("profiling.fit_profile.cond_max", 0.0),
            "formulas.compile_circuit.gates": counters.get("formulas.compile_circuit.gates", 0),
            "formulas.compile_circuit.distinct_ratio": ratio("formulas.compile_circuit"),
            "simulator.apply_circuit.gates": apply_gates,
            "simulator.apply_circuit.gates_per_s": apply_gates / apply_s if apply_s else 0.0,
            "simulator.circuit_unitary.gflop": counters.get("simulator.circuit_unitary.flop", 0) / 1e9,
            "simulator.exact_evolve.distinct_ratio": ratio("simulator.exact_evolve"),
            "pauli.apply_pauli_word.calls": leaf_calls,
            "pauli.apply_pauli_word.s": leaf_s,
            "pauli.dense_word.cache_mb": dense_cache_entries * 4**n_qubits * 16 / 2**20,
            "report.write_csv.bytes": counters.get("report.write_csv.bytes", 0),
        }
    )
    return metrics
