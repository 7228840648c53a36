"""Product formulas: splitting tables, circuit compilation, and order checks.

A formula is an ordered table of ``(fragment_index, coefficient)`` steps.
Compilation expands each step into Pauli rotations for every term of the
addressed fragment, in the fragment's stored term order, and the resulting
gate list is applied left to right.  The single-step circuit at ``t/N`` is
repeated ``N`` times to form the usual iterated circuit.  A
``SampleTemplate`` holds the same Pauli words with the time left open, for
the batched sample engine; ``compile_circuit`` stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, FormulaError
from .pauli import (
    HERMITIAN_TOL,
    OperatorSum,
    PauliTerm,
    mutually_commuting,
)
from .simulator import (
    Circuit,
    PauliRotation,
    circuit_unitary,
    exact_unitary,
)

FORMULA_NAMES = ("lie1", "strang2", "ruth3", "suzuki4")

#: Ruth's third-order coefficient table, alternating fragments A, B, A, B, ...
RUTH_COEFFICIENTS = (7.0 / 24.0, 2.0 / 3.0, 3.0 / 4.0, -2.0 / 3.0, -1.0 / 24.0, 1.0)

#: Recursion constant for the fourth-order Suzuki construction.
SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


@dataclass(frozen=True)
class Fragment:
    """A commuting bundle of Hamiltonian terms, exponentiable gate by gate."""

    terms: OperatorSum

    def __post_init__(self) -> None:
        if not mutually_commuting(self.terms.terms):
            raise FormulaError("fragment terms must mutually commute")
        if not self.terms.hermitian:
            raise FormulaError("fragment terms must carry real coefficients")

    @property
    def n(self) -> int:
        return self.terms.n


@dataclass(frozen=True)
class PartitionedHamiltonian:
    """An ordered fragment list whose term union is the full Hamiltonian."""

    fragments: tuple[Fragment, ...]
    n: int

    def __post_init__(self) -> None:
        if not self.fragments:
            raise FormulaError("a partition needs at least one fragment")
        for f in self.fragments:
            if f.n != self.n:
                raise FormulaError("fragments act on different qubit counts")

    @property
    def hamiltonian(self) -> OperatorSum:
        total = OperatorSum.zero(self.n)
        for f in self.fragments:
            total = total + f.terms
        return total

    def scale(self) -> float:
        """One-norm of the full Hamiltonian, used to normalize time windows."""
        return self.hamiltonian.one_norm()


#: Largest first error order a table may have: up to Suzuki's S10 (alpha 11),
#: vanished orders measure at most 9e-15 and first failing ones at least
#: 2.6e-7, decades from ``ORDER_TOLERANCE``; S12's fell to 2.5e-11.
MAX_ALPHA = 11

#: An order vanishes when ``||P_j - E_j|| / ||E_j||`` stays at or below this.
ORDER_TOLERANCE = 1e-10


def _exp_product(x: np.ndarray, degree: int) -> np.ndarray:
    """Taylor coefficients to ``degree`` in t of ``prod_k exp(t x_k)``, a product of matrices."""
    if len(x) > 4096:  # blocks bound the working memory
        factors = np.stack([_exp_product(x[s : s + 4096], degree) for s in range(0, len(x), 4096)])
    else:
        factors = np.empty((len(x), degree + 1) + x.shape[1:])
        factors[:, 0] = np.eye(x.shape[-1])
        for j in range(1, degree + 1):
            factors[:, j] = factors[:, j - 1] @ x / j
    while len(factors) > 1:
        left, right, rest = factors[0:-1:2], factors[1::2], factors[len(factors) & ~1 :]
        paired = np.zeros_like(left)
        for i in range(degree + 1):
            paired[:, i:] += left[:, i, None] @ right[:, : degree + 1 - i]
        factors = np.concatenate([paired, rest])
    return factors[0]


@lru_cache(maxsize=16)
def first_error_order(steps: tuple[tuple[int, float], ...]) -> int:
    """Lowest power of t at which ``prod_k exp(c_k t A_{i_k})`` leaves ``exp(t sum_i A_i)``.

    Series to degree D (3, 6, then ``MAX_ALPHA``, while all orders vanish) on
    seeded random ``d x d`` generators, ``d = D // 2 + 1``, which satisfy no
    identity of degree D (Amitsur-Levitzki).  One fragment is exact: alpha 2.
    """
    merged = [(i, sum(c for _, c in group)) for i, group in groupby(steps, lambda step: step[0])]
    if len(merged) == 1:
        return 2
    for degree in (3, 6, MAX_ALPHA):
        d = degree // 2 + 1
        gens = np.random.default_rng(0).standard_normal((max(i for i, _ in merged) + 1, d, d))
        leaves = np.array([c for _, c in merged])[:, None, None] * gens[[i for i, _ in merged]]
        exact = _exp_product(gens.sum(axis=0)[None], degree)
        gap = np.linalg.norm(_exp_product(leaves, degree) - exact, axis=(1, 2))
        scale = ORDER_TOLERANCE * np.linalg.norm(exact, axis=(1, 2))
        # orders 0 and 1 hold by the coefficient sums; rounding there reads as alpha 2
        failing = np.flatnonzero(~(gap <= scale)[2:])
        if failing.size:
            return 2 + int(failing[0])
    raise FormulaError(f"every order through {MAX_ALPHA} vanishes: the table's"
                       f" first error order is beyond MAX_ALPHA = {MAX_ALPHA}")


@dataclass(frozen=True)
class ProductFormula:
    """Splitting table with its first error order, derived by ``first_error_order``.

    ``alpha`` is the lowest power of t at which the compiled circuit deviates
    from the exact evolution; the conventional accuracy order is ``alpha - 1``.
    """

    steps: tuple[tuple[int, float], ...]
    alpha: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise FormulaError("a formula needs at least one step")
        sums: dict[int, float] = {}
        for index, coeff in self.steps:
            if index < 0:
                raise FormulaError(f"negative fragment index {index}")
            sums[index] = sums.get(index, 0.0) + coeff
        for index in range(self.fragment_count):
            if index not in sums:
                raise FormulaError(f"fragment {index} gets no step")
            if not abs(sums[index] - 1.0) <= 1e-12:
                raise FormulaError(
                    f"fragment {index} coefficients sum to {sums[index]!r}, expected 1"
                )
        object.__setattr__(self, "alpha", first_error_order(self.steps))

    @property
    def fragment_count(self) -> int:
        return max(index for index, _ in self.steps) + 1

    @property
    def symmetric(self) -> bool:
        """Whether the table equals its reverse exactly, so ``V(-t)^dagger = V(t)``.

        A table symmetric only once adjacent steps on one fragment merge reads
        as asymmetric: that costs work (four probe variants), never accuracy.
        """
        return self.steps == self.steps[::-1]


def _strang_steps(k: int, scale: float) -> list[tuple[int, float]]:
    half = [(i, 0.5 * scale) for i in range(k - 1)]
    return half + [(k - 1, scale)] + half[::-1]


def builtin_steps(name: str, k: int) -> tuple[tuple[int, float], ...]:
    """The step table of a built-in formula over ``k`` fragments (``builtin_formula``)."""
    if name in ("strang2", "suzuki4") and k < 2:
        raise FormulaError(f"{name} needs at least two fragments")
    if name == "lie1":
        return tuple((i, 1.0) for i in range(k))
    if name == "strang2":
        return tuple(_strang_steps(k, 1.0))
    if name == "ruth3":
        if k != 2:
            raise FormulaError("ruth3 alternates exactly two fragments")
        return tuple((i % 2, c) for i, c in enumerate(RUTH_COEFFICIENTS))
    if name == "suzuki4":
        scales = (SUZUKI_P, SUZUKI_P, 1.0 - 4.0 * SUZUKI_P, SUZUKI_P, SUZUKI_P)
        return tuple(step for c in scales for step in _strang_steps(k, c))
    raise FormulaError(f"unknown formula {name!r}; choose from {FORMULA_NAMES}")


def builtin_formula(name: str, partition: PartitionedHamiltonian) -> ProductFormula:
    """Construct one of the built-in splitting tables for a given partition.

    ``lie1`` is first order (alpha 2), ``strang2`` the symmetric second-order
    splitting (alpha 3), ``ruth3`` the third-order table over exactly two
    fragments (alpha 4), and ``suzuki4`` the fourth-order recursion
    ``S4(t) = S2(pt) S2(pt) S2((1-4p)t) S2(pt) S2(pt)`` (alpha 5); each
    table's alpha is derived, not passed.
    """
    return ProductFormula(builtin_steps(name, len(partition.fragments)))


def step_terms(
    f: ProductFormula, partition: PartitionedHamiltonian
) -> list[tuple[float, PauliTerm]]:
    """``(step coefficient, term)`` of every rotation of one step ``V(t/N)``, in order.

    Each step rotates every term of its fragment once, in the fragment's
    stored term order; ``compile_circuit`` and ``sample_template``, and so
    every engine batch and the plans ``cost`` prints, follow this one sequence.
    """
    if f.fragment_count > len(partition.fragments):
        raise FormulaError(
            f"formula addresses fragment {f.fragment_count - 1}, "
            f"partition has {len(partition.fragments)}"
        )
    gates = []
    for index, coeff in f.steps:
        for term in partition.fragments[index].terms:
            if abs(term.coeff.imag) > HERMITIAN_TOL:
                raise FormulaError("fragment coefficients must be real")
            if set(term.word) <= {"I"}:
                raise DegenerateInputError("rotation word must touch at least one qubit")
            gates.append((coeff, term))
    return gates


def compile_circuit(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    t: float,
    trotter_steps: int = 1,
) -> Circuit:
    """Compile the iterated circuit ``(V(t/N))^N`` into a flat gate list."""
    if trotter_steps < 1:
        raise FormulaError("trotter_steps must be at least 1")
    dt = t / trotter_steps
    single = tuple(
        PauliRotation(term.word, coeff * dt * term.coeff.real)
        for coeff, term in step_terms(f, partition)
    )
    return Circuit(single * trotter_steps, partition.n)


@dataclass(frozen=True, eq=False)
class SampleTemplate:
    """The gate sequence of ``compile_circuit`` for one step count, time left open.

    Gate k of the single step ``V(x/N)`` rotates the word ``words[k]`` by
    ``(coeffs[k] * (x / N)) * weights[k]``, the product order
    ``compile_circuit`` uses, so templated and compiled angles agree bit for
    bit.
    """

    words: tuple[str, ...]
    coeffs: np.ndarray
    weights: np.ndarray
    trotter_steps: int

    def forward(self, x: Sequence[float]) -> tuple[list[str], np.ndarray]:
        """Words and per-row angles of ``compile_circuit(..., x[b], N)``."""
        dt = np.asarray(x, dtype=float)[:, None] / self.trotter_steps
        single = (self.coeffs * dt) * self.weights
        return list(self.words) * self.trotter_steps, np.tile(single, self.trotter_steps)

    def inverted(self, x: Sequence[float]) -> tuple[list[str], np.ndarray]:
        """Words and angles of ``invert_circuit(compile_circuit(..., -x[b], N))``.

        Negating the time negates every angle and the inversion negates it
        back, exactly, so this is the forward circuit in reverse gate order.
        """
        words, angles = self.forward(x)
        return words[::-1], angles[:, ::-1]


@lru_cache(maxsize=64)
def sample_template(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    trotter_steps: int = 1,
) -> SampleTemplate:
    """Compile the template once; validates what ``compile_circuit`` validates."""
    if trotter_steps < 1:
        raise FormulaError("trotter_steps must be at least 1")
    gates = step_terms(f, partition)
    return SampleTemplate(
        words=tuple(term.word for _, term in gates),
        coeffs=np.array([coeff for coeff, _ in gates], dtype=float),
        weights=np.array([term.coeff.real for _, term in gates], dtype=float),
        trotter_steps=trotter_steps,
    )


def invert_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and negate every angle; gate count unchanged."""
    return Circuit(
        tuple(PauliRotation(g.word, -g.angle) for g in reversed(c.gates)), c.n
    )


def empirical_order(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    probe: Sequence[float],
) -> float:
    """Log-log slope of the max-entry deviation between V(t) and exp(-iHt).

    Probe times must be small enough that the deviation stays below 0.1 but
    above the double-precision floor.
    """
    if len(probe) < 4:
        raise DegenerateInputError("need at least 4 probe times")
    h = partition.hamiltonian
    deviations = []
    for t in probe:
        v = circuit_unitary(compile_circuit(f, partition, t))
        u = exact_unitary(h, t)
        deviations.append(float(np.max(np.abs(v - u))))
    deviations = np.asarray(deviations)
    if np.any(deviations < 1e-14):
        raise DegenerateInputError("deviation underflows 1e-14; slope undefined")
    if np.any(deviations >= 0.1):
        raise DegenerateInputError("probe too coarse; deviation reached 0.1")
    slope, _ = np.polyfit(np.log(np.asarray(probe, dtype=float)), np.log(deviations), 1)
    return float(slope)
