"""Dense statevector simulation for small registers.

States are plain complex amplitude vectors; gates are Pauli-word rotations
``exp(-i * angle * P)`` applied via ``cos(a)|psi> - i sin(a) P|psi>``.
``apply_circuit`` runs one circuit gate by gate and is the reference;
``sample_expectations`` runs many circuits that share one word sequence as
a ``(B, 2^n)`` state stack, one in-place vectorised update per gate.  The
exact evolution ``exp(-iHt)|psi>`` is matrix-free: ``exact_states`` applies
``H`` from its word tables inside a stepped Taylor series, so measured
deviations contain only algorithmic error.  ``exact_unitary`` and
``circuit_unitary`` build dense matrices and are oracles for tests and
error-operator extraction only.  ``GaussianJitter`` perturbs a whole batch
of measured values with one call.
"""

from __future__ import annotations

import math
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

#: The exact propagator's Taylor series stops once the norms of two
#: consecutive terms sum below this (states have unit norm), or after this
#: many terms.
TAYLOR_TOL = 2.0**-53
TAYLOR_MAX_TERMS = 40

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

    The stack and two scratch stacks are allocated once and every gate
    writes into them, in the operand order of ``apply_circuit``.
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
    scaled, moved = np.empty_like(amps), np.empty_like(amps)
    for k, (perm, phase) in enumerate(tables):
        np.multiply(amps, phase, out=scaled)
        # mode="clip" lets take write straight into ``moved``; "raise" buffers.
        scaled.take(perm, axis=1, out=moved, mode="clip")
        np.multiply(sin[k], moved, out=moved)
        np.multiply(cos[k], amps, out=amps)
        np.subtract(amps, moved, out=amps)
    norms = np.linalg.norm(amps, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise DegenerateInputError("batched evolution lost normalization")
    return amps


def expectation_rows(amps: np.ndarray, obs: OperatorSum) -> np.ndarray:
    """Exact ``<psi_b|O|psi_b>`` for every row of a ``(B, 2^n)`` state stack.

    Each row takes one ``np.vdot`` per term, summed in term order, so a row
    gives the same bits whichever stack it sits in.  All terms share two
    scratch stacks.
    """
    if not obs.hermitian:
        raise HermiticityError("expectation requires a Hermitian observable")
    if amps.shape[1] != (1 << obs.n):
        raise DimensionMismatchError("observable and state qubit counts differ")
    values = np.zeros(amps.shape[0], dtype=complex)
    scaled, moved = np.empty_like(amps, dtype=complex), np.empty_like(amps, dtype=complex)
    for term in obs.terms:
        perm, phase = _word_tables(term.word)
        np.multiply(amps, phase, out=scaled)
        scaled.take(perm, axis=1, out=moved, mode="clip")
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
def _hamiltonian_tables(h: OperatorSum) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``H`` as ``sum_f (D_f psi)[perm_f]``: one diagonal per distinct flip mask.

    A term ``c P`` acts as ``(c * phase * psi)[perm]``; terms whose words
    flip the same bits share ``perm`` and add into one diagonal, so a chain
    of ZZ bonds and X fields needs one diagonal plus one gather per site.
    Each entry is ``(perm_f, D_f[perm_f])``, the diagonal pre-gathered.
    """
    merged: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for term in h.terms:
        perm, phase = _word_tables(term.word)
        flip = int(perm[0])
        diagonal = term.coeff * phase
        if flip in merged:
            diagonal = merged[flip][1] + diagonal
        merged[flip] = (perm, diagonal)
    tables = []
    for perm, diagonal in merged.values():
        gathered = diagonal[perm]
        gathered.setflags(write=False)
        tables.append((perm, gathered))
    return tuple(tables)


def _apply_hamiltonian(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
    v: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write ``H v`` into ``out`` from the flip-mask tables of ``H``."""
    out.fill(0.0)
    for perm, diag in tables:
        v.take(perm, out=scratch, mode="clip")
        np.multiply(scratch, diag, out=scratch)
        np.add(out, scratch, out=out)


def _taylor_step(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
    v: np.ndarray,
    dt: float,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """``v <- exp(-iH dt) v`` in place, for ``||H||_1 * |dt| <= 1``.

    Sums Taylor terms until two in a row have norms summing below
    ``TAYLOR_TOL``, relative to the unit norm of the state.
    """
    term, nxt, scratch = buffers
    term[:] = v
    previous = math.inf
    for k in range(1, TAYLOR_MAX_TERMS + 1):
        _apply_hamiltonian(tables, term, nxt, scratch)
        np.multiply(nxt, -1.0j * dt / k, out=term)
        v += term
        size = math.sqrt(np.vdot(term, term).real)
        if size + previous <= TAYLOR_TOL:
            return
        previous = size


def exact_states(
    h: OperatorSum, times: Sequence[float], state: StateVector
) -> np.ndarray:
    """Ground truth ``exp(-iH t_j)|state>`` for every time, as a ``(T, 2^n)`` stack.

    Matrix-free: the propagator steps from one time to the next (from 0 to
    the first) with the truncated Taylor series of ``exp(-iH dt)`` applied to
    the state (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), in
    sub-steps with ``||H||_1 * |dt| <= 1``.  Times may be zero, negative or
    in any order; an increasing list costs least.
    """
    if not h.hermitian:
        raise HermiticityError("exact evolution requires a Hermitian Hamiltonian")
    if h.n != state.n:
        raise DimensionMismatchError("Hamiltonian and state qubit counts differ")
    if not all(math.isfinite(t) for t in times):
        raise DegenerateInputError("evolution times must be finite")
    tables = _hamiltonian_tables(h)
    norm = h.one_norm()
    v = state.amplitudes.copy()
    buffers = (np.empty_like(v), np.empty_like(v), np.empty_like(v))
    out = np.empty((len(times), v.shape[0]), dtype=complex)
    now = 0.0
    for j, t in enumerate(times):
        span = norm * abs(t - now)
        if not math.isfinite(span):
            raise DegenerateInputError(
                f"evolution time {t!r} overflows: ||H||_1 * |dt| is not finite"
            )
        substeps = math.ceil(span)
        for _ in range(substeps):
            _taylor_step(tables, v, (t - now) / substeps, buffers)
        now = float(t)
        out[j] = v
    return out


def exact_evolve(h: OperatorSum, t: float, state: StateVector) -> StateVector:
    """Ground truth ``exp(-iHt)|state>``: ``exact_states`` at the single time ``t``."""
    return StateVector(exact_states(h, (t,), state)[0], state.n)


@lru_cache(maxsize=64)
def _eigh(h: OperatorSum) -> tuple[np.ndarray, np.ndarray]:
    dense = to_dense(h).matrix
    w, v = np.linalg.eigh(dense)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def exact_unitary(h: OperatorSum, t: float) -> np.ndarray:
    """Dense ``exp(-iHt)`` from a cached Hermitian eigendecomposition (test oracle)."""
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
    One ``perturb`` call on a batch draws what perturbing its entries one by
    one, in C order, would draw.
    """

    sigma: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def perturb(self, values: np.ndarray) -> np.ndarray:
        """``values`` plus one draw per entry, in C order."""
        if self.sigma == 0.0:
            return values
        return values + self.rng.normal(0.0, self.sigma, np.shape(values))
