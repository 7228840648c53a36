"""Output check that does not trust the code under test.

Everything here is rebuilt from the config documents with numpy and scipy
alone: Pauli words from 2x2 matrices, the exact column from scipy's
``expm_multiply`` (the action of the matrix exponential of the Hamiltonian
the benchmark builds itself; a dense ``scipy.linalg.expm`` costs about a
second per time at 10 qubits), the trotter column from a product of per-term
``scipy.linalg.expm`` factors that follows the built-in step tables,
and the mpf column from Richardson weights solved over the rationals.  The
ep column has no independent oracle cheap enough to run on every seed; its
rows are compared with values recorded from the reference commit for the
default seed (``reference_values.json``) and, on every seed, against a sanity
bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

CSV_HEADER = "method,t,a_or_steps,estimate,exact,abs_error"
METHODS = ("trotter", "ep", "mpf")

#: Agreement required of the exact and trotter columns without noise.
ORACLE_TOL = 1e-9
#: Agreement required of ep and mpf rows with the recorded default-seed values.
RECORDED_TOL = 1e-9
#: Width, in standard deviations, of the band allowed for synthetic noise.
NOISE_SIGMAS = 8.0

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_RUTH3 = (7 / 24, 2 / 3, 3 / 4, -2 / 3, -1 / 24, 1.0)
_SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_ALPHA = {"lie1": 2, "strang2": 3, "ruth3": 4, "suzuki4": 5}
_SYMMETRIC = {"lie1": False, "strang2": True, "ruth3": False, "suzuki4": True}


def _dense(word: str) -> np.ndarray:
    return reduce(np.kron, (_PAULI[c] for c in word))


def _operator(terms: list[dict]) -> np.ndarray:
    return sum(t["coeff"] * _dense(t["pauli"]) for t in terms)


def _state(doc: dict) -> np.ndarray:
    spec = doc["initial_state"]
    if "factors" in spec:
        vec = reduce(
            np.kron,
            (np.array([complex(*c0), complex(*c1)]) for c0, c1 in spec["factors"]),
        )
    else:
        vec = np.array([complex(*z) for z in spec["amplitudes"]])
    return vec / np.linalg.norm(vec)


def doc_times(doc: dict) -> list[float]:
    spec = doc["times"]
    if "values" in spec:
        return [float(t) for t in spec["values"]]
    space = np.geomspace if spec["scale"] == "log" else np.linspace
    return [float(t) for t in space(spec["start"], spec["stop"], spec["points"])]


def _strang(k: int, scale: float) -> list[tuple[int, float]]:
    half = [(i, 0.5 * scale) for i in range(k - 1)]
    return half + [(k - 1, scale)] + half[::-1]


def step_table(name: str, k: int) -> list[tuple[int, float]]:
    """``(fragment, coefficient)`` steps of a built-in formula over k fragments."""
    if name == "lie1":
        return [(i, 1.0) for i in range(k)]
    if name == "strang2":
        return _strang(k, 1.0)
    if name == "ruth3":
        return [(i % 2, c) for i, c in enumerate(_RUTH3)]
    if name == "suzuki4":
        p = _SUZUKI_P
        return [s for c in (p, p, 1 - 4 * p, p, p) for s in _strang(k, c)]
    raise ValueError(f"no reference step table for {name!r}")


def mpf_weights(counts: list[int], alpha: int, symmetric: bool) -> list[float]:
    """Richardson weights: sum to one and cancel ``1/s**(k-1)`` for the first orders."""
    stride = 2 if symmetric else 1
    rows = [[Fraction(1)] * len(counts)]
    rows += [
        [Fraction(1, s ** (alpha + stride * j - 1)) for s in counts]
        for j in range(len(counts) - 1)
    ]
    rhs = [Fraction(1)] + [Fraction(0)] * (len(counts) - 1)
    m = [row + [b] for row, b in zip(rows, rhs)]
    size = len(m)
    for col in range(size):
        pivot = next(r for r in range(col, size) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [float(row[-1]) for row in m]


class Oracle:
    """Dense reference for one config document."""

    def __init__(self, doc: dict):
        system = doc["system"]
        self.n = system["num_qubits"]
        terms = system["hamiltonian"]
        self.fragments = [[terms[i] for i in group] for group in doc["partition"]]
        self.h = scipy.sparse.csr_matrix(_operator(terms))
        self.obs = _operator(doc["observable"])
        self.psi = _state(doc)
        self.formula = doc["formula"]
        self.steps = step_table(self.formula, len(self.fragments))
        self.times = doc_times(doc)
        self.trotter_steps = doc.get("profiling", {}).get("trotter_steps", 1)
        mpf = doc.get("mpf", {})
        self.mpf_counts = list(mpf.get("step_counts", [1, 2]))
        self.mpf_weights = mpf_weights(
            self.mpf_counts, _ALPHA[self.formula], mpf.get("symmetric", _SYMMETRIC[self.formula])
        )
        self.sigma = doc.get("noise", {}).get("sigma", 0.0)
        self._factors: dict[tuple[str, float], tuple[list[int], np.ndarray]] = {}

    def _value(self, vec: np.ndarray) -> float:
        return float(np.real(np.vdot(vec, self.obs @ vec)))

    def exact(self, t: float) -> float:
        return self._value(scipy.sparse.linalg.expm_multiply(-1j * t * self.h, self.psi))

    def _factor(self, word: str, angle: float) -> tuple[list[int], np.ndarray]:
        key = (word, angle)
        if key not in self._factors:
            support = [i for i, c in enumerate(word) if c != "I"]
            local = _dense("".join(word[i] for i in support))
            self._factors[key] = (support, scipy.linalg.expm(-1j * angle * local))
        return self._factors[key]

    def trotter(self, t: float, steps: int) -> float:
        """``<O>`` after ``steps`` repetitions of the step table at ``t/steps``."""
        dt = t / steps
        psi = self.psi.reshape((2,) * self.n)
        for _ in range(steps):
            for fragment, coeff in self.steps:
                for term in self.fragments[fragment]:
                    support, u = self._factor(term["pauli"], coeff * dt * term["coeff"])
                    k = len(support)
                    moved = np.moveaxis(psi, support, range(k))
                    shape = moved.shape
                    moved = (u @ moved.reshape(1 << k, -1)).reshape(shape)
                    psi = np.moveaxis(moved, range(k), support)
        return self._value(psi.reshape(-1))

    def mpf(self, t: float) -> float:
        return sum(w * self.trotter(t, s) for w, s in zip(self.mpf_weights, self.mpf_counts))

    def expected(self) -> dict:
        """Reference exact/trotter/mpf values per time, computed once per document."""
        return {
            "times": self.times,
            "exact": [self.exact(t) for t in self.times],
            "trotter": [self.trotter(t, self.trotter_steps) for t in self.times],
            "mpf": [self.mpf(t) for t in self.times],
        }

    def noise_band(self, method: str) -> float:
        """Deviation the configured Gaussian noise can plausibly cause in a row."""
        if method == "mpf":
            scale = math.sqrt(sum(w * w for w in self.mpf_weights))
        else:
            scale = 1.0
        return NOISE_SIGMAS * self.sigma * scale


def read_rows(text: str) -> list[tuple[str, float, float, float, float, float]]:
    """Parse the six-column CSV; raise ValueError on any layout problem."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header is not {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"row has {len(parts)} columns: {ln!r}")
        rows.append((parts[0], *(float(x) for x in parts[1:])))
    return rows


def check_table(
    text: str,
    oracle: Oracle,
    expected: dict,
    recorded: dict | None,
) -> list[str]:
    """Every way the CSV of one ``run`` job disagrees with the references."""
    try:
        rows = read_rows(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    times = expected["times"]
    if len(rows) != len(METHODS) * len(times):
        problems.append(f"{len(rows)} rows, expected {len(METHODS) * len(times)}")
    by_method: dict[str, list] = {m: [] for m in METHODS}
    for row in rows:
        if row[0] not in by_method:
            problems.append(f"unexpected method {row[0]!r}")
            continue
        by_method[row[0]].append(row)
    labels = {"trotter": oracle.trotter_steps, "ep": oracle.trotter_steps, "mpf": max(oracle.mpf_counts)}
    trotter_err = max(
        (abs(r[3] - x) for r, x in zip(by_method["trotter"], expected["exact"])), default=0.0
    )
    for method, got in by_method.items():
        if len(got) != len(times):
            problems.append(f"{method}: {len(got)} rows, expected {len(times)}")
            continue
        band = oracle.noise_band(method)
        for i, (_, t, label, estimate, exact, abs_error) in enumerate(got):
            where = f"{method} t={t:.6g}"
            if not math.isclose(t, times[i], rel_tol=1e-12):
                problems.append(f"{where}: time differs from {times[i]!r}")
            if label != labels[method]:
                problems.append(f"{where}: a_or_steps {label} != {labels[method]}")
            if abs(exact - expected["exact"][i]) > ORACLE_TOL:
                problems.append(f"{where}: exact {exact!r} != expm {expected['exact'][i]!r}")
            if abs(abs_error - abs(estimate - exact)) > 1e-12:
                problems.append(f"{where}: abs_error is not |estimate - exact|")
            if method in ("trotter", "mpf"):
                want = expected[method][i]
                if abs(estimate - want) > ORACLE_TOL + band:
                    problems.append(f"{where}: estimate {estimate!r} != reference {want!r}")
            elif not abs(estimate - expected["exact"][i]) <= max(trotter_err, 1e-6):
                problems.append(f"{where}: ep error exceeds the largest trotter error")
            if recorded is not None and method in recorded:
                want = recorded[method][i]
                if abs(estimate - want) > RECORDED_TOL:
                    problems.append(f"{where}: estimate {estimate!r} != recorded {want!r}")
    return problems
