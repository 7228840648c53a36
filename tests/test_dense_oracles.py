"""Random small systems against dense oracles built on scipy's ``expm``.

Each example draws a 2-5 qubit system of real Pauli terms grouped into 2-4
mutually commuting fragments, a product formula the partition allows (a
built-in one, or a random palindromic or asymmetric table), a product state
and an observable, and writes them as one config document.  An asymmetric
formula's four probe variants run as two branch sets per sweep call; the
engine runs in chunks of 1-3 rows on 1-2 threads.  Every column that
``run`` reports is then checked against dense matrices that share no code
with the engine (a built-in formula's table is read from
``formulas.builtin_steps``): the exact column against ``expm(-iHt)``, the trotter and
mpf columns against products of per-term ``expm``, and the ep intercept
against ``fit_profile`` on dense probe values averaged over all four probe
variants, under the document's pinned basis or, in about half the examples,
the basis that ``run`` calibrates (``resolve_basis``).  One fixed 7-qubit
example (``SEVEN_QUBITS``) runs the engine where a chunk cuts numpy's ufunc
buffer to one row (``simulator.ROW_BUFFER_AMPLITUDES``).
"""

from __future__ import annotations

import json
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trotterprof import ProfileSample, fit_profile, mpf_weights, parse_config, simulator
from trotterprof.errors import FormulaError
from trotterprof.experiments import run_error_curve
from trotterprof.formulas import FORMULA_NAMES, builtin_steps
from trotterprof.profiling import resolve_basis, sweep_grid

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}

#: Agreement of every column with its oracle; the largest gap seen in 400
#: examples was 9.3e-15 (the ep fits' condition numbers reached 1.1e4, under
#: a calibrated basis of four orders and their antisymmetric columns).
TOLERANCE = 1e-10

#: Examples per run: about 4 s on 2 vCPUs.
EXAMPLES = 30


def dense(word: str) -> np.ndarray:
    """The Pauli word as a matrix; its first letter acts on the leftmost factor."""
    return reduce(np.kron, (_PAULI[letter] for letter in word))


def commute(u: str, v: str) -> bool:
    return sum(a != "I" and b != "I" and a != b for a, b in zip(u, v)) % 2 == 0


def formula_steps(formula, k: int) -> tuple:
    if isinstance(formula, str):
        return builtin_steps(formula, k)
    return tuple(map(tuple, formula["steps"]))


@st.composite
def palindromes(draw, k: int) -> dict:
    """A symmetric table over ``k`` fragments whose coefficients sum to 1 per fragment."""
    order = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k))
    order += [i for i in range(k) if i not in order]
    weights = [draw(st.floats(0.2, 1.0)) for _ in order]
    totals = {i: sum(w for j, w in zip(order, weights) if j == i) for i in range(k)}
    half = [[i, 0.5 * w / totals[i]] for i, w in zip(order, weights)]
    return {"steps": half + half[::-1]}


@st.composite
def asymmetric_tables(draw, k: int) -> dict:
    """A table over ``k`` fragments whose coefficients sum to 1 per fragment,
    other than its reverse."""
    order = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k))
    order += [i for i in range(k) if i not in order]
    weights = [draw(st.floats(0.2, 1.0)) for _ in order]
    totals = {i: sum(w for j, w in zip(order, weights) if j == i) for i in range(k)}
    steps = [[i, w / totals[i]] for i, w in zip(order, weights)]
    assume(steps != steps[::-1])
    return {"steps": steps}


@st.composite
def documents(draw) -> dict:
    n = draw(st.integers(2, 5))
    word = st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})
    coeff = st.floats(-1.0, 1.0).filter(lambda c: abs(c) >= 0.05)
    fragments: list[list[str]] = []
    for w in draw(st.lists(word, min_size=2, max_size=8, unique=True)):
        home = next((f for f in fragments if all(commute(w, v) for v in f)), None)
        if home is not None:
            home.append(w)
        elif len(fragments) < 4:
            fragments.append([w])
    assume(len(fragments) >= 2)
    k = len(fragments)
    terms = [{"pauli": w, "coeff": draw(coeff)} for f in fragments for w in f]
    sizes = np.cumsum([0] + [len(f) for f in fragments])
    builtins = []
    for name in FORMULA_NAMES:
        try:
            builtin_steps(name, k)
            builtins.append(name)
        except FormulaError:
            continue
    formula = draw(st.sampled_from(builtins) | palindromes(k) | asymmetric_tables(k))
    pair = st.tuples(coeff, coeff)
    times = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2, unique=True)))
    profiling = {"trotter_steps": draw(st.integers(1, 2))}
    if draw(st.booleans()):  # a pinned basis; else run calibrates one
        profiling["n_extra_orders"] = draw(st.integers(0, 1))
        profiling["include_antisymmetric"] = draw(st.booleans())
    return {
        "system": {"num_qubits": n, "hamiltonian": terms},
        "partition": [list(range(lo, hi)) for lo, hi in zip(sizes, sizes[1:])],
        "formula": formula,
        "initial_state": {"factors": [draw(st.tuples(pair, pair)) for _ in range(n)]},
        "observable": [
            {"pauli": w, "coeff": draw(coeff)}
            for w in draw(st.lists(word, min_size=1, max_size=3, unique=True))
        ],
        "times": {"values": times},
        "profiling": profiling,
        "mpf": {"step_counts": draw(st.sampled_from([[1, 2], [1, 2, 3], [2, 3]]))},
    }


class DenseSystem:
    """The document's system as dense matrices, built from its JSON alone."""

    def __init__(self, doc: dict):
        terms = doc["system"]["hamiltonian"]
        self.h = sum(t["coeff"] * dense(t["pauli"]) for t in terms)
        self.fragments = [
            [(terms[i]["coeff"], dense(terms[i]["pauli"])) for i in indices]
            for indices in doc["partition"]
        ]
        self.steps = formula_steps(doc["formula"], len(self.fragments))
        self.observable = sum(t["coeff"] * dense(t["pauli"]) for t in doc["observable"])
        factors = doc["initial_state"]["factors"]
        psi = reduce(np.kron, [np.array([complex(*c0), complex(*c1)]) for c0, c1 in factors])
        self.psi = psi / np.linalg.norm(psi)

    def value(self, u: np.ndarray) -> float:
        phi = u @ self.psi
        return float(np.vdot(phi, self.observable @ phi).real)

    def exact(self, t: float) -> float:
        return self.value(scipy.linalg.expm(-1j * t * self.h))

    def step(self, x: float) -> np.ndarray:
        """One formula step ``V(x)``: a per-term ``expm`` for every rotation, in order."""
        gates = [
            scipy.linalg.expm(-1j * c * x * weight * word)
            for index, c in self.steps
            for weight, word in self.fragments[index]
        ]
        return reduce(lambda u, gate: gate @ u, gates)

    def trotter(self, x: float, count: int) -> np.ndarray:
        return np.linalg.matrix_power(self.step(x / count), count)


def probe_values(system: DenseSystem, a: float, t: float, steps: int) -> float:
    """The mean over probe variants 1-4 of ``segment(at) segment((1-a)t)``,
    each segment forward, ``V(x)``, or inverted, ``V(-x)^dagger``."""
    segments = {}
    for x in (a * t, (1.0 - a) * t):
        segments[x] = (system.trotter(x, steps), system.trotter(-x, steps).conj().T)
    first, second = segments[(1.0 - a) * t], segments[a * t]
    return float(np.mean([system.value(late @ early) for early in first for late in second]))


#: Two fragments of 7-qubit words, a diagonal pair and a pair that flips
#: bits, under an asymmetric table: about 1 s, most of it in ``expm``.
SEVEN_QUBITS = {
    "system": {
        "num_qubits": 7,
        "hamiltonian": [
            {"pauli": "ZZIIIIZ", "coeff": 0.9},
            {"pauli": "IIZZZII", "coeff": -0.7},
            {"pauli": "XIXIXIX", "coeff": 0.6},
            {"pauli": "IYIYIYI", "coeff": -0.45},
        ],
    },
    "partition": [[0, 1], [2, 3]],
    "formula": {"steps": [[0, 0.3], [1, 0.6], [0, 0.7], [1, 0.4]]},
    "initial_state": {"factors": [[[0.8, 0.1], [0.3, -0.5]]] * 7},
    "observable": [{"pauli": "ZIIIIIY", "coeff": 0.7}, {"pauli": "IIIXXII", "coeff": -0.4}],
    "times": {"values": [0.6]},
    "profiling": {"trotter_steps": 2, "n_extra_orders": 1, "include_antisymmetric": True},
    "mpf": {"step_counts": [1, 2, 3]},
}


@settings(max_examples=EXAMPLES, deadline=None)
@given(doc=documents(), chunk=st.integers(1, 3), workers=st.integers(1, 2))
@example(doc=SEVEN_QUBITS, chunk=3, workers=2)
def test_every_column_agrees_with_dense_oracles(doc, chunk, workers):
    cfg = parse_config(json.dumps(doc))
    system = DenseSystem(doc)
    assert cfg.formula.steps == system.steps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "BATCH_AMPLITUDES", chunk << cfg.partition.n)
        patch.setattr(simulator, "WORKERS", workers)
        curves = {method: run_error_curve(cfg, method) for method in ("trotter", "mpf", "ep")}
    weights = mpf_weights(cfg.mpf_step_counts, cfg.formula.alpha, cfg.formula.symmetric)
    basis = resolve_basis(cfg)
    grid = sweep_grid(cfg, basis)
    for j, t in enumerate(cfg.times):
        trotter = system.value(system.trotter(t, cfg.trotter_steps))
        mpf = sum(
            w * system.value(system.trotter(t, count))
            for w, count in zip(weights.weights, weights.step_counts)
        )
        samples = [ProfileSample(a, probe_values(system, a, t, cfg.trotter_steps)) for a in grid]
        ep = fit_profile(samples, basis, cfg.formula.alpha).y_star
        assert curves["trotter"].points[j].exact == pytest.approx(system.exact(t), abs=TOLERANCE)
        assert curves["trotter"].points[j].estimate == pytest.approx(trotter, abs=TOLERANCE)
        assert curves["mpf"].points[j].estimate == pytest.approx(mpf, abs=TOLERANCE)
        assert curves["ep"].points[j].estimate == pytest.approx(ep, abs=TOLERANCE)
