"""Dense statevector simulation for small registers.

States are plain complex amplitude vectors; gates are Pauli-word rotations
``exp(-i * angle * P)`` applied via ``cos(a)|psi> - i sin(a) P|psi>``.
``apply_circuit`` runs one circuit gate by gate and is the reference;
``sample_expectations`` runs many circuits that share one word sequence as
a ``(B, 2^n)`` state stack, one vectorised update per gate.  The exact
evolution ``exp(-iHt)`` comes from a cached Hermitian eigendecomposition
and serves as the ground-truth oracle, so measured deviations contain only
algorithmic error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, sin
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    HermiticityError,
    ResourceLimitError,
)
from .pauli import (
    DENSE_CAP,
    OperatorSum,
    _word_tables,
    apply_pauli_word,
    dense_word,
    to_dense,
)

NORM_TOL = 1e-10

#: A batched evolution advances at most this many amplitudes at once, which
#: bounds the memory of one gate update whatever the batch and register size.
BATCH_AMPLITUDES = 1 << 18

#: ``(perm, phase)`` of a Pauli word, as built by ``pauli._word_tables``.
WordTables = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector over ``2**n`` basis states."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise DimensionMismatchError(
                f"amplitude shape {amps.shape} does not match n={self.n}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise DegenerateInputError(f"state norm {norm!r} is not 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, raw: Sequence[complex]) -> StateVector:
        """Build a state from unnormalized amplitudes (length must be 2**n).

        Idempotent: already-normalized input is kept bit for bit, so states
        survive serialization round trips unchanged.
        """
        amps = np.asarray(raw, dtype=complex)
        n = int(np.log2(amps.shape[0]))
        if (1 << n) != amps.shape[0]:
            raise DimensionMismatchError("amplitude count is not a power of two")
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        if abs(norm - 1.0) > 1e-12:
            amps = amps / norm
        return cls(amps, n)


@dataclass(frozen=True)
class PauliRotation:
    """The gate ``exp(-i * angle * P)`` for a non-identity Pauli word P."""

    word: str
    angle: float

    def __post_init__(self) -> None:
        if set(self.word) <= {"I"}:
            raise DegenerateInputError("rotation word must touch at least one qubit")
        object.__setattr__(self, "angle", float(self.angle))

    @property
    def n(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; the leftmost (first) gate acts first on the state."""

    gates: tuple[PauliRotation, ...]
    n: int

    def __post_init__(self) -> None:
        for g in self.gates:
            if g.n != self.n:
                raise DimensionMismatchError(
                    f"gate on {g.n} qubits in a circuit of {self.n}"
                )

    def __len__(self) -> int:
        return len(self.gates)


def init_product_state(factors: Sequence[tuple[complex, complex]]) -> StateVector:
    """Kronecker product of per-qubit ``(c0, c1)`` pairs, normalized at the end."""
    if not factors:
        raise DegenerateInputError("need at least one qubit factor")
    amps = np.array([1.0 + 0.0j])
    for k, (c0, c1) in enumerate(factors):
        pair = np.array([c0, c1], dtype=complex)
        if np.all(pair == 0):
            raise DegenerateInputError(f"factor for qubit {k + 1} is zero")
        amps = np.kron(amps, pair)
    norm = np.linalg.norm(amps)
    return StateVector(amps / norm, len(factors))


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    """Apply gates left to right in list order."""
    if c.n != state.n:
        raise DimensionMismatchError("circuit and state qubit counts differ")
    amps = state.amplitudes
    for g in c.gates:
        amps = cos(g.angle) * amps - 1.0j * sin(g.angle) * apply_pauli_word(g.word, amps)
    return StateVector(amps, state.n)


def evolve_batch(
    state: StateVector,
    tables: Sequence[WordTables],
    angles: np.ndarray,
) -> np.ndarray:
    """Evolve one copy of ``state`` per row of ``angles``; returns the ``(B, 2^n)`` stack.

    Row b runs the gates ``exp(-i * angles[b, k] * P_k)`` for k = 0, 1, ...,
    where ``tables[k]`` holds the word tables of ``P_k``.  Each update is the
    one ``apply_circuit`` makes, so a row equals the looped circuit bit for bit.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(tables):
        raise DimensionMismatchError(
            f"angle array of shape {angles.shape} does not match {len(tables)} gates"
        )
    if any(perm.shape[0] != (1 << state.n) for perm, _ in tables):
        raise DimensionMismatchError("gate and state qubit counts differ")
    cos = np.cos(angles).T[:, :, None]
    sin = 1.0j * np.sin(angles).T[:, :, None]
    amps = np.tile(state.amplitudes, (angles.shape[0], 1))
    for k, (perm, phase) in enumerate(tables):
        amps = cos[k] * amps - sin[k] * np.take(amps * phase, perm, axis=1)
    norms = np.linalg.norm(amps, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise DegenerateInputError("batched evolution lost normalization")
    return amps


def expectation_rows(amps: np.ndarray, obs: OperatorSum) -> np.ndarray:
    """Exact ``<psi_b|O|psi_b>`` for every row of a ``(B, 2^n)`` state stack.

    Each row takes one ``np.vdot`` per term, summed in term order, so a row
    gives the same bits whichever stack it sits in.
    """
    if not obs.hermitian:
        raise HermiticityError("expectation requires a Hermitian observable")
    if amps.shape[1] != (1 << obs.n):
        raise DimensionMismatchError("observable and state qubit counts differ")
    values = np.zeros(amps.shape[0], dtype=complex)
    for term in obs.terms:
        perm, phase = _word_tables(term.word)
        moved = np.take(amps * phase, perm, axis=1)
        values += term.coeff * np.array([np.vdot(a, m) for a, m in zip(amps, moved)])
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    if worst >= 1e-10:
        raise HermiticityError(f"expectation has imaginary residue {worst!r}")
    return values.real


def sample_expectations(
    state: StateVector,
    tables: Sequence[WordTables],
    angles: np.ndarray,
    obs: OperatorSum,
) -> np.ndarray:
    """``expectation(apply_circuit(state, circuit_b), obs)`` for every row b of ``angles``.

    The batched sample engine: all circuits share the word sequence
    ``tables`` and differ only in their angles.  Rows are evolved in chunks of
    at most ``BATCH_AMPLITUDES`` amplitudes.
    """
    angles = np.asarray(angles, dtype=float)
    rows = max(1, BATCH_AMPLITUDES >> state.n)
    values = np.empty(angles.shape[0])
    for start in range(0, angles.shape[0], rows):
        chunk = angles[start : start + rows]
        values[start : start + rows] = expectation_rows(evolve_batch(state, tables, chunk), obs)
    return values


@lru_cache(maxsize=64)
def _eigh(h: OperatorSum) -> tuple[np.ndarray, np.ndarray]:
    dense = to_dense(h).matrix
    w, v = np.linalg.eigh(dense)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def exact_evolve(h: OperatorSum, t: float, state: StateVector) -> StateVector:
    """Ground truth ``exp(-iHt)|state>`` via Hermitian eigendecomposition."""
    if not h.hermitian:
        raise HermiticityError("exact evolution requires a Hermitian Hamiltonian")
    if h.n != state.n:
        raise DimensionMismatchError("Hamiltonian and state qubit counts differ")
    w, v = _eigh(h)
    rotated = v @ (np.exp(-1.0j * w * t) * (v.conj().T @ state.amplitudes))
    return StateVector(rotated, state.n)


def exact_unitary(h: OperatorSum, t: float) -> np.ndarray:
    """Dense ``exp(-iHt)`` from the cached eigendecomposition."""
    if not h.hermitian:
        raise HermiticityError("exact evolution requires a Hermitian Hamiltonian")
    w, v = _eigh(h)
    return (v * np.exp(-1.0j * w * t)) @ v.conj().T


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense matrix of a circuit (first gate is the rightmost matrix factor)."""
    if c.n > DENSE_CAP:
        raise ResourceLimitError(
            f"dense circuit of {c.n} qubits exceeds cap {DENSE_CAP}"
        )
    dim = 1 << c.n
    mat = np.eye(dim, dtype=complex)
    ident = np.eye(dim, dtype=complex)
    for g in c.gates:
        gate = cos(g.angle) * ident - 1.0j * sin(g.angle) * dense_word(g.word)
        mat = gate @ mat
    return mat


def expectation(state: StateVector, obs: OperatorSum) -> float:
    """Exact ``<psi|O|psi>`` for a Hermitian observable."""
    return float(expectation_rows(state.amplitudes[None, :], obs)[0])


@dataclass
class GaussianJitter:
    """Optional additive Gaussian perturbation of measured expectation values.

    Exists solely to exercise fit robustness; ``sigma=0`` leaves values exact.
    """

    sigma: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def perturb(self, value: float) -> float:
        if self.sigma == 0.0:
            return value
        return value + self.rng.normal(0.0, self.sigma)
