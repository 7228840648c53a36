"""Dense statevector simulation for small registers.

States are plain complex amplitude vectors; gates are Pauli-word rotations
``exp(-i * angle * P)`` applied via ``cos(a)|psi> - i sin(a) P|psi>``.
``apply_circuit`` runs one circuit gate by gate and is the reference;
``sample_branches`` is the batched engine and the one way a batch is
evolved.  It runs batches of circuits, each batch sharing one sequence of
Pauli words, as ``(B, 2^n)`` state stacks.  It first folds each gate into an
earlier gate on the same word when every gate between them commutes with it
(the angles add), then makes one in-place vectorised update per remaining
gate that flips bits, from the word's ``pauli`` tables and masks, looked up
once per distinct word (a word of X letters needs no phase).  Each run of
consecutive diagonal words is one update: every row gathers a table of the
run's phase products, built from the gates' cosines and sines.  The folded
angles and the products round differently from the reference's gate-by-gate
updates, so the engine agrees with it within 1e-12, not bit for bit; a row's
bits still do not depend on its batch.  Batches whose circuits open with
the same gates share a trunk: it is evolved once per chunk of rows, then
each batch's branch from a copy, with each batch's own bits; a batch of its
own is a branch set of one.  One call takes a stage's branch sets, in
groups whose angles fit ``MAX_ANGLES``, and runs a group's chunks of every
set longest first, on one thread per CPU (``WORKERS``) when they hold more
than one chunk of amplitudes, with the same bits as on one.  One kernel
(``_apply_operator``) applies ``H`` and every observable from one
pre-gathered diagonal per flip mask, the diagonal group without a gather;
``expectation_rows`` sums each row of
``conj(psi) * O psi`` on its own, and the matrix-free ``exact_states``
expands ``exp(-iHt)`` in Chebyshev polynomials of ``H / ||H||_1``, one
recursion per window of times (a far time is a window of its own, over the
whole gap), so measured deviations are only algorithmic.  ``exact_unitary``
and ``circuit_unitary`` build dense matrices and are oracles for tests and
error-operator extraction only.
``GaussianJitter`` perturbs a whole batch of measured values with one call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, sin
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
    masks_commute,
    to_dense,
    word_masks,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

NORM_TOL = 1e-10

#: A batched evolution advances at most this many amplitudes at once, which
#: bounds the memory of one gate update whatever the batch and register size.
#: Chosen by measurement: a chunk's three ``(rows, 2^n)`` complex stacks take
#: 1.5 MiB at 2^15 and stay in a 2 MiB per-core L2 cache, while at 2^18 a
#: 180-row 10-qubit sweep spills out of it; on a 2-vCPU Xeon the 10-qubit
#: curves ran fastest at 2^14 to 2^15, and slowest at 2^18.
BATCH_AMPLITUDES = 1 << 15

#: Largest angle array a document may make a run build: 2^24 float64 angles
#: (128 MiB).  ``config`` bounds every count that sizes a batch so that no
#: batch holds more (``config._angle_limit``); the largest batch of the
#: 10-qubit ``suzuki4`` benchmark chain, 180 rows x 560 gates, is 1/166 of it.
#: ``sample_branches`` pulls a call's branch sets in groups whose angles
#: together fit it.
MAX_ANGLES = 2**24

#: The exact propagator expands ``exp(-iH dt)`` in Chebyshev polynomials of
#: ``H / ||H||_1`` over windows of at most this span ``||H||_1 * |dt|``.
#: Spans of 4, 10, 25, 40 and 160 take 27, 39, 64, 86 and 254 terms, so a
#: longer window takes fewer terms per unit of span, but each time then adds
#: more terms into its row.  Chosen by measurement on TFIM chains: with 20
#: times, a 10-qubit evolution to a span of 247 took 65, 50, 36, 35 and 29 ms
#: at windows of 10, 20, 40, 80 and 160, and with 200 times 67, 61, 54, 73
#: and 68 ms; at 14 qubits and a span of 35, 122, 116, 90, 89 and 89 ms.
CHEBYSHEV_WINDOW = 40.0

#: A time's expansion keeps every coefficient ``|c_k|`` from this size up.
CHEBYSHEV_TOL = 1e-18

#: An exact evolution refuses to take more Chebyshev terms than this, in
#: total over its windows; each term is one application of ``H``.  A term
#: costs about 20 us at 4 qubits, so the limit is under a minute there;
#: more than that is an input mistake.
MAX_CHEBYSHEV_TERMS = 2 * 10**6

#: The exact propagator adds a term into at most this many amplitudes of
#: its rows at once (and at least one row), which bounds its scratch.  Chosen
#: by measurement: a run's exact column took 2.0 ms on ``tfim-ruth3`` and
#: 3.5 ms on ``chain8-calibrated`` adding one row at a time, 0.93 and 1.5 ms
#: at 2^12, and no less at 2^16.
ACCUMULATE_AMPLITUDES = 1 << 12

#: Fold plans kept at once, one per word sequence; a run has one sequence
#: per probe variant and per step count, and one trunk per branch set.
FOLD_PLANS = 64

#: The threads that evolve an engine call's row chunks at once: one per CPU the
#: process may use.  numpy releases the GIL in the kernel's gathers and
#: products, and a chunk's rows are the same bits on any thread.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: ``(perm, diagonal)`` of one flip mask of an operator sum (``_operator_tables``).
OperatorTables = tuple[np.ndarray | None, np.ndarray]

#: One engine batch: its word sequence, and one row of angles per circuit.
Batch = tuple[list[str], np.ndarray]

#: Batches that run together (``sample_branches``) as ``(seam, batches)``:
#: their circuits share their first ``seam`` gates, angles included.
BranchSet = tuple[int, list[Batch]]


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
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DegenerateInputError(f"state norm {norm!r} is not 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, raw: Sequence[complex]) -> StateVector:
        """Build a state from unnormalized amplitudes (length must be 2**n).

        The amplitudes are first scaled by a power of two (``_unit_scaled``),
        so their norm can neither overflow nor underflow.  Idempotent:
        already-normalized input is kept bit for bit, so states survive
        serialization round trips unchanged.
        """
        amps = np.array(raw, dtype=complex)
        n = int(np.log2(amps.shape[0]))
        if (1 << n) != amps.shape[0]:
            raise DimensionMismatchError("amplitude count is not a power of two")
        scaled, exponent = _unit_scaled(amps)
        norm = np.linalg.norm(scaled)
        if norm == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        with np.errstate(over="ignore"):  # an input norm past the float range
            if abs(np.ldexp(norm, exponent) - 1.0) > 1e-12:
                amps = scaled / norm
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


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Contiguous complex ``values`` times ``2**-e``, and ``e``: the power of two
    that brings their largest real or imaginary part into [0.5, 1), exactly."""
    parts = values.view(float)
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    return np.ldexp(parts, -exponent).view(complex), exponent


def init_product_state(factors: Sequence[tuple[complex, complex]]) -> StateVector:
    """Kronecker product of per-qubit ``(c0, c1)`` pairs, normalized at the end.

    Each pair is first scaled by the power of two that brings its largest real
    or imaginary part into [0.5, 1), so no pair's size can overflow or
    underflow the product's norm.  The scaling is exact: where the unscaled
    norm is in the float range, the state is the same bits.
    """
    if not factors:
        raise DegenerateInputError("need at least one qubit factor")
    amps = np.array([1.0 + 0.0j])
    for k, (c0, c1) in enumerate(factors):
        pair = np.array([c0, c1], dtype=complex)
        if np.all(pair == 0):
            raise DegenerateInputError(f"factor for qubit {k + 1} is zero")
        amps = np.kron(amps, _unit_scaled(pair)[0])
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


def _checked_masks(
    words: Sequence[str], angles: np.ndarray, n: int
) -> dict[str, tuple[int, int]]:
    """``word_masks`` of each distinct word, after checking the gates.

    Every word must act on ``n`` qubits, and ``angles`` needs one column per word.
    """
    if angles.ndim != 2 or angles.shape[1] != len(words):
        raise DimensionMismatchError(
            f"angle array of shape {angles.shape} does not match {len(words)} gates"
        )
    masks: dict[str, tuple[int, int]] = {}
    for word in words:
        if word not in masks:
            if len(word) != n:
                raise DimensionMismatchError(f"word {word!r} does not act on {n} qubits")
            masks[word] = word_masks(word)
    return masks


def _rotations(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos(a)`` and ``i sin(a)`` of a ``(B, K)`` angle array, one ``(B, 1)`` column per gate."""
    return np.cos(angles).T[:, :, None], 1.0j * np.sin(angles).T[:, :, None]


def _evolve_steps(
    amps: np.ndarray,
    words: Sequence[str],
    rotations: tuple[np.ndarray, np.ndarray],
    steps: Sequence[tuple[int, int, np.ndarray | None]],
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """Advance the stack ``amps`` in place through ``steps``, a slice of ``_step_plan(words)``.

    ``rotations`` holds ``_rotations`` of the gates' angles, a column per
    word of ``words``.  A non-diagonal word makes the update of
    ``apply_circuit``, in its operand order; a word of X letters skips the
    all-ones phase.  A run of diagonal words multiplies each row by one
    gathered table of phase products (``_run_table``), built in the front of
    a scratch stack.
    """
    cos, sin = rotations
    scaled, moved = scratch
    for start, stop, index in steps:
        if index is not None:
            table = _run_table(cos[start:stop], sin[start:stop], scaled)
            # mode="clip" lets take write straight into ``moved``; "raise" buffers.
            table.take(index, axis=1, out=moved, mode="clip")
            np.multiply(amps, moved, out=amps)
            continue
        perm, phase = _word_tables(words[start])
        if word_masks(words[start])[1]:
            np.multiply(amps, phase, out=scaled)
            scaled.take(perm, axis=1, out=moved, mode="clip")
        else:
            amps.take(perm, axis=1, out=moved, mode="clip")
        np.multiply(sin[start], moved, out=moved)
        np.multiply(cos[start], amps, out=amps)
        np.subtract(amps, moved, out=amps)


def _check_norms(amps: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """Refuse a stack whose rows lost their norm; the squared norms go through ``scratch``."""
    scaled, moved = scratch
    np.multiply(np.conjugate(amps, out=scaled), amps, out=moved)
    norms = np.sqrt(moved.real.sum(axis=1))
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise DegenerateInputError("batched evolution lost normalization")


def _run_table(cos: np.ndarray, sin: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Each row's ``2^m`` phase products for a run of m diagonal words.

    ``cos`` and ``sin`` hold the run's ``cos(a)`` and ``i sin(a)`` columns,
    shaped ``(m, B, 1)``.  Entry ``k`` of row b is the product over j of
    ``cos - i sin`` of word j where bit j of ``k`` is 0 and ``cos + i sin``
    where it is 1: the word's eigenvalue is ``+1`` or ``-1``.  The table is
    built by doubling, one word at a time, in the front of ``scratch``.
    """
    m, rows = cos.shape[0], scratch.shape[0]
    minus, plus = cos - sin, cos + sin
    table = scratch.reshape(-1)[: rows << m].reshape(rows, 1 << m)
    table[:, :1] = minus[0]
    table[:, 1:2] = plus[0]
    for j in range(1, m):
        half = table[:, : 1 << j]
        np.multiply(half, plus[j], out=table[:, 1 << j : 2 << j])
        np.multiply(half, minus[j], out=half)
    return table


@lru_cache(maxsize=FOLD_PLANS)
def _step_plan(words: tuple[str, ...]) -> tuple[tuple[int, int, np.ndarray | None], ...]:
    """The kernel steps of a word sequence, as ``(start, stop, index)``.

    A word that flips bits is a step of its own (``index`` None).  A run of
    consecutive diagonal words (X mask 0) is one step of at most ``n`` words,
    so its ``2^m`` table fits in a row of a scratch stack; ``index`` is the
    run's ``_run_index``.
    """
    n = len(words[0]) if words else 0
    diagonal = {word: word_masks(word)[0] == 0 for word in set(words)}
    steps: list[tuple[int, int, np.ndarray | None]] = []
    start = 0
    while start < len(words):
        stop = start + 1
        if not diagonal[words[start]]:
            steps.append((start, stop, None))
        else:
            while stop < min(len(words), start + n) and diagonal[words[stop]]:
                stop += 1
            steps.append((start, stop, _run_index(words[start:stop])))
        start = stop
    return tuple(steps)


@lru_cache(maxsize=FOLD_PLANS)
def _run_index(run: tuple[str, ...]) -> np.ndarray:
    """Where each basis state reads its phase in a diagonal run's table.

    Bit j of ``index[x]`` is set when word j has eigenvalue ``-1`` on ``x``,
    the sign of its ``_word_tables`` phase.
    """
    index = np.zeros(1 << len(run[0]), dtype=np.intp)
    for j, word in enumerate(run):
        index |= (_word_tables(word)[1].real < 0).astype(np.intp) << j
    index.setflags(write=False)
    return index


@lru_cache(maxsize=FOLD_PLANS)
def _fold_plan(words: tuple[str, ...]) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Which gates of a word sequence stay after folding, and whose angles each sums.

    Gate k joins the latest earlier kept gate on its word when every kept
    gate between them commutes with it: ``exp(-i a P)`` then moves next to
    that gate, and ``exp(-i a P) exp(-i b P) = exp(-i (a + b) P)``.  Returns
    the first gate of each kept group, the gate indices grouped in kept order
    (ascending within a group), and where each group starts in that list.
    """
    distinct = {word: i for i, word in enumerate(dict.fromkeys(words))}
    masks = [word_masks(word) for word in distinct]
    commute = [[masks_commute(a, b) for b in masks] for a in masks]
    kept: list[int] = []
    groups: list[list[int]] = []
    for k, word in enumerate(words):
        own, target = distinct[word], None
        for j in range(len(kept) - 1, -1, -1):
            if kept[j] == own:
                target = j
                break
            if not commute[kept[j]][own]:
                break
        if target is None:
            kept.append(own)
            groups.append([k])
        else:
            groups[target].append(k)
    columns = np.array([k for group in groups for k in group], dtype=np.intp)
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]], dtype=np.intp)
    columns.setflags(write=False)
    starts.setflags(write=False)
    return tuple(group[0] for group in groups), columns, starts


def _folded_words(words: tuple[str, ...]) -> tuple[str, ...]:
    """The words of a sequence that stay after folding (``_fold_plan``)."""
    return tuple(words[k] for k in _fold_plan(words)[0])


def _folded_angles(
    plan: tuple[tuple[int, ...], np.ndarray, np.ndarray], angles: np.ndarray
) -> np.ndarray:
    """The folded angles of a sequence whose ``_fold_plan`` is ``plan``, row by row."""
    keep, columns, starts = plan
    if len(keep) == angles.shape[1]:
        return angles
    return np.add.reduceat(angles[:, columns], starts, axis=1)


def expectation_rows(amps: np.ndarray, obs: OperatorSum) -> np.ndarray:
    """Exact ``<psi_b|O|psi_b>`` for every row of a ``(B, 2^n)`` state stack.

    ``O`` acts on the whole stack through the flip-mask tables that the
    exact propagator uses for ``H`` (``_operator_tables``); a row's value is
    then ``(conj(psi_b) * O psi_b).sum()``, a reduction along that row
    alone, so a row gives the same bits whichever stack it sits in.
    """
    if not obs.hermitian:
        raise HermiticityError("expectation requires a Hermitian observable")
    if amps.shape[1] != (1 << obs.n):
        raise DimensionMismatchError("observable and state qubit counts differ")
    applied, scratch = np.empty_like(amps, dtype=complex), np.empty_like(amps, dtype=complex)
    _apply_operator(_operator_tables(obs), amps, applied, scratch)
    values = np.multiply(np.conjugate(amps, out=scratch), applied, out=applied).sum(axis=1)
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    if worst >= 1e-10:
        raise HermiticityError(f"expectation has imaginary residue {worst!r}")
    return values.real


def sample_branches(state: StateVector, sets: Iterable[BranchSet], obs: OperatorSum) -> np.ndarray:
    """``expectation(apply_circuit(state, circuit), obs)`` of every row of every
    batch of every branch set, a column per batch in order, evolving each
    set's trunk once.

    A batch is a word sequence and a ``(B, K)`` angle array: row b runs the
    gates ``exp(-i * angles[b, k] * P_k)`` for k = 0, 1, ..., where ``P_k``
    is the Pauli word ``words[k]``.  Every batch of the call has the same
    rows, and the batches of one set ``(seam, batches)`` share their first
    ``seam`` gates, words and angles alike.  Rows are evolved in chunks of
    at most ``BATCH_AMPLITUDES`` amplitudes, each chunk folding its own
    angles (``_fold_plan``, ``_folded_angles``).  Per chunk, the kernel
    steps that every folded sequence of a set opens with (``_trunk``) are
    evolved once; each branch then continues from a copy of that stack, and
    the last one in place, so one extra stack is alive per chunk.  Every row
    sees the same operations in the same order whatever the seam, the
    batches beside it and the sets of the call, so the values are the same
    bits; they agree with the looped circuits within 1e-12.

    Sets are pulled from ``sets`` in groups whose angle arrays together fit
    ``MAX_ANGLES`` (a set that does not fit opens the next group, so a
    larger set is a group of its own), and the groups run one after
    another.  The angles alive are one group's and those of the set pulled
    after it, which waits, built, for the next group.  A group's chunks run
    longest first, by rows times kernel steps (``engine_counts``), through
    ``_map_chunks``, the pool's one rule for the whole group; each chunk
    writes only its own rows of its own set's columns.
    """
    _operator_tables(obs)  # workers only read the caches: fill them here
    per_chunk = max(1, BATCH_AMPLITUDES >> state.n)
    columns: list[np.ndarray] = []
    rows: int | None = None

    def branches(seam, sequences, angles, values) -> Callable[[int], None]:
        """The chunk job of one set, writing its columns of ``values``."""
        cut = _trunk(sequences, seam)[0]
        plans = [_fold_plan(words) for words in sequences]
        folded = [_folded_words(words) for words in sequences]
        steps = [_step_plan(words) for words in folded]
        for word in set().union(*folded):
            _word_tables(word)

        def chunk(start: int) -> None:
            trunk = np.tile(state.amplitudes, (min(per_chunk, rows - start), 1))
            scratch = (np.empty_like(trunk), np.empty_like(trunk))
            for j, (words, plan, a) in enumerate(zip(folded, plans, angles)):
                rotations = _rotations(_folded_angles(plan, a[start : start + per_chunk]))
                if j == 0 and cut:
                    _evolve_steps(trunk, words, rotations, steps[0][:cut], scratch)
                stack = trunk if j == len(angles) - 1 else trunk.copy()
                _evolve_steps(stack, words, rotations, steps[j][cut:], scratch)
                _check_norms(stack, scratch)
                values[start : start + per_chunk, j] = expectation_rows(stack, obs)

        return chunk

    def evolve(group) -> np.ndarray:
        """One group's values: its sets' chunks, longest first."""
        values = np.empty((rows, sum(len(angles) for _, _, angles in group)))
        jobs, column = [], 0
        for seam, sequences, angles in group:
            chunk = branches(seam, sequences, angles, values[:, column : column + len(angles)])
            steps = engine_counts(sequences, seam)[1]
            for start in range(0, rows, per_chunk):
                jobs.append((min(per_chunk, rows - start) * steps, chunk, start))
            column += len(angles)
        jobs.sort(key=lambda job: -job[0])  # stable: ties keep their order
        _map_chunks([job[1:] for job in jobs], len(group) * rows << state.n)
        return values

    group: list[tuple[int, tuple[tuple[str, ...], ...], list[np.ndarray]]] = []
    size = 0
    for seam, batches in sets:
        sequences, angles = _checked_set(seam, batches, state.n)
        if rows is None:
            rows = angles[0].shape[0]
        elif angles[0].shape[0] != rows:
            raise DimensionMismatchError(
                f"branch sets of {rows} and {angles[0].shape[0]} rows in one call"
            )
        angle_count = sum(a.size for a in angles)
        if group and size + angle_count > MAX_ANGLES:
            columns.append(evolve(group))
            group, size = [], 0
        group.append((seam, sequences, angles))
        size += angle_count
    if not group:
        raise DegenerateInputError("sample_branches needs at least one branch set")
    columns.append(evolve(group))
    return columns[0] if len(columns) == 1 else np.hstack(columns)


def _checked_set(
    seam: int, batches: Sequence[Batch], n: int
) -> tuple[tuple[tuple[str, ...], ...], list[np.ndarray]]:
    """A branch set's word sequences and float angle arrays, after checking that
    its batches have words on ``n`` qubits and share their rows and first
    ``seam`` gates."""
    if not batches:
        raise DegenerateInputError("a branch set needs at least one batch")
    sequences = tuple(tuple(words) for words, _ in batches)
    angles = [np.asarray(a, dtype=float) for _, a in batches]
    for words, a in zip(sequences, angles):
        _checked_masks(words, a, n)
    first, head = sequences[0][:seam], angles[0][:, :seam]
    for words, a in zip(sequences[1:], angles[1:]):
        if a.shape[0] != head.shape[0] or words[:seam] != first or not np.array_equal(
            a[:, :seam], head
        ):
            raise DimensionMismatchError(f"batches do not share their rows and first {seam} gates")
    return sequences, angles


def _map_chunks(jobs: Sequence[tuple[Callable[[int], None], int]], amplitudes: int) -> None:
    """Run every ``chunk(start)`` of ``jobs``, in their order: on the ``WORKERS``
    threads of ``_pool`` when there are two workers, two jobs and more than
    ``BATCH_AMPLITUDES`` amplitudes to evolve, otherwise on the calling thread.

    ``Executor.map`` raises a job's exception here and cancels the jobs that
    have not started.
    """
    if WORKERS < 2 or len(jobs) < 2 or amplitudes <= BATCH_AMPLITUDES:
        for chunk, start in jobs:
            chunk(start)
    else:
        for _ in _pool(WORKERS).map(lambda job: job[0](job[1]), jobs):
            pass


@lru_cache(maxsize=None)
def _pool(workers: int) -> Executor:
    """The thread pool of ``workers`` threads, made on first use; the import
    of ``concurrent.futures`` waits for it too."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="trotterprof-chunk")


@lru_cache(maxsize=FOLD_PLANS)
def _trunk(sequences: tuple[tuple[str, ...], ...], seam: int) -> tuple[int, int]:
    """The kernel steps and folded gates that every sequence evolves alike, before ``seam``.

    The sequences share their first ``seam`` words.  A fold group
    (``_fold_plan``) is in the trunk while it ends before the seam in every
    sequence; so is every group before it, and they are the same groups in
    every sequence.  A group that takes a gate from past the seam stays in
    the branches, and so does every later one.  The trunk is the longest run
    of ``_step_plan`` steps that every folded sequence opens with, over
    those groups only: a diagonal run that one sequence extends past them
    stays in the branches too.
    """
    groups = len(sequences[0])
    for words in sequences:
        keep, columns, starts = _fold_plan(words)
        late = np.flatnonzero(np.maximum.reduceat(columns, starts) >= seam) if keep else []
        groups = min(groups, int(late[0]) if len(late) else len(keep))
    plans = [_step_plan(_folded_words(words)) for words in sequences]
    cut = 0
    for step in zip(*plans):
        if step[0][1] > groups or any(s[:2] != step[0][:2] for s in step):
            break
        cut += 1
    return cut, plans[0][cut - 1][1] if cut else 0


def engine_counts(sequences: Sequence[Sequence[str]], seam: int) -> tuple[int, int]:
    """Per row, the folded gates and kernel steps that ``sample_branches`` evolves
    for batches of these word sequences: a trunk (``_trunk``) counts once."""
    sequences = tuple(tuple(words) for words in sequences)
    steps, gates = _trunk(sequences, seam)
    folded, evolved = gates, steps
    for words in map(_folded_words, sequences):
        folded += len(words) - gates
        evolved += len(_step_plan(words)) - steps
    return folded, evolved


@lru_cache(maxsize=64)
def _operator_tables(op: OperatorSum) -> tuple[OperatorTables, ...]:
    """``O`` as ``sum_f (D_f psi)[perm_f]``: one diagonal per distinct flip mask.

    A term ``c P`` acts as ``(c * phase * psi)[perm]``; terms whose words
    flip the same bits share ``perm`` and add into one diagonal, so a chain
    of ZZ bonds and X fields needs one diagonal plus one gather per site.
    Each entry is ``(perm_f, D_f[perm_f])``, pre-gathered; ``perm_0`` is None.
    """
    merged: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for term in op.terms:
        perm, phase = _word_tables(term.word)
        flip = word_masks(term.word)[0]
        diagonal = term.coeff * phase
        merged[flip] = (perm, merged[flip][1] + diagonal if flip in merged else diagonal)
    tables = tuple((perm if f else None, diag[perm]) for f, (perm, diag) in merged.items())
    for _, diagonal in tables:
        diagonal.setflags(write=False)
    return tables


def _apply_operator(
    tables: Sequence[OperatorTables], v: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Write ``O v`` into ``out`` for a state or a ``(B, 2^n)`` stack ``v``."""
    out.fill(0.0)
    for perm, diag in tables:
        moved = v if perm is None else v.take(perm, axis=-1, out=scratch, mode="clip")
        np.multiply(moved, diag, out=scratch)
        np.add(out, scratch, out=out)


def _chebyshev_terms(spans: np.ndarray) -> np.ndarray:
    """The terms each span ``tau`` needs: the fewest K with every later ``|c_k|`` small.

    Small is below ``CHEBYSHEV_TOL``.  Uses the bound
    ``|c_k| <= 2 |J_k(tau)| <= 2 (|tau|/2)^k / k!``, which rises and then
    falls in k, so the terms above the tolerance are k = 0 .. K - 1; past
    ``e |tau| / 2 + 45`` it is below ``2 e**-45``.
    """
    half = np.abs(spans) / 2
    k = np.arange(1, int(math.e * float(half.max(initial=0.0))) + 47)
    with np.errstate(divide="ignore"):
        log_bound = np.log(half)[:, None] * k - np.cumsum(np.log(k))
    return 1 + np.count_nonzero(log_bound >= math.log(CHEBYSHEV_TOL / 2), axis=1)


def _chebyshev_coefficients(spans: np.ndarray, terms: int) -> np.ndarray:
    """``c_k(tau) = (2 - delta_k0) (-i)^k J_k(tau)`` for k < ``terms``, one column per span.

    These are the Chebyshev coefficients of ``exp(-i tau x)`` on [-1, 1].
    By Jacobi-Anger they are the discrete Fourier transform of
    ``exp(-i tau cos(theta))`` on ``2 * terms`` points, doubled past k = 0;
    the aliases of a kept coefficient sit at ``|k| > terms``, below the
    tolerance.
    """
    points = 2 * terms
    theta = (2 * math.pi / points) * np.arange(points)
    waves = np.exp(-1.0j * np.multiply.outer(spans, np.cos(theta)))
    table = np.fft.fft(waves, axis=1)[:, :terms] / points
    table[:, 1:] *= 2
    return np.ascontiguousarray(table.T)


#: One window of a chain of times: the rows it serves, their spans
#: ``||H||_1 * (t - start)`` from the window's start, and each row's term count.
Window = tuple[slice, np.ndarray, np.ndarray]


def _chain_windows(times: np.ndarray, norm: float) -> list[Window]:
    """The windows of one chain of times, ordered by distance from 0.

    A window starts at the previous window's last time (the first at 0),
    takes its next time whatever the span, then every following time whose
    span ``||H||_1 * |t - start|`` stays within ``CHEBYSHEV_WINDOW``.
    """
    windows: list[Window] = []
    start, i = 0.0, 0
    while i < len(times):
        stop = i + 1
        while stop < len(times) and norm * abs(times[stop] - start) <= CHEBYSHEV_WINDOW:
            stop += 1
        spans = norm * (times[i:stop] - start)
        windows.append((slice(i, stop), spans, _chebyshev_terms(spans)))
        start, i = float(times[stop - 1]), stop
    return windows


def _chebyshev_window(
    tables: Sequence[OperatorTables],
    norm: float,
    window: Window,
    rows: np.ndarray,
    buffers: tuple[np.ndarray, ...],
) -> None:
    """``rows[j] = sum_k c_k(tau_j) T_k(H / ||H||_1) v`` for ``v`` in ``buffers[0]``.

    Builds the window's ``(K, r)`` coefficient table, then runs
    ``T_{k+1} v = 2 (H / ||H||_1) T_k v - T_{k-1} v`` from ``T_0 v = v``
    and ``T_1 v = (H / ||H||_1) v``, adding term k into the rows whose term
    count exceeds k: a suffix of the rows, since the counts never decrease.
    The terms go through a scratch of at most ``ACCUMULATE_AMPLITUDES``
    amplitudes.  Clobbers ``buffers``.
    """
    _, spans, terms = window
    coefficients = _chebyshev_coefficients(spans, int(terms.max()))
    previous, current, applied, scratch, products = buffers
    np.multiply(coefficients[0][:, None], previous, out=rows)
    chunk = products.shape[0]
    for k in range(1, coefficients.shape[0]):
        if k == 1:
            _apply_operator(tables, previous, current, scratch)
            np.multiply(current, 1.0 / norm, out=current)
        else:
            _apply_operator(tables, current, applied, scratch)
            np.multiply(applied, 2.0 / norm, out=applied)
            np.subtract(applied, previous, out=previous)
            previous, current = current, previous
        for lo in range(int(np.searchsorted(terms, k, side="right")), len(terms), chunk):
            block = rows[lo : lo + chunk]
            term = products[: block.shape[0]]
            np.multiply(coefficients[k, lo : lo + chunk, None], current, out=term)
            np.add(block, term, out=block)


def exact_states(
    h: OperatorSum, times: Sequence[float], state: StateVector
) -> np.ndarray:
    """Ground truth ``exp(-iH t_j)|state>`` for every time, as a ``(T, 2^n)`` stack.

    Matrix-free: ``exp(-iH dt)`` is expanded in Chebyshev polynomials of
    ``H / ||H||_1`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)),
    and one three-term recursion serves every time of a window, each time
    summing its own coefficients.  The times run in sorted order as two
    chains from 0, the negative ones downwards; each window starts from the
    state at the last time of the one before, reaches its first time in one
    expansion whatever the gap, and takes the later times within
    ``CHEBYSHEV_WINDOW`` of its start.  Times may be zero, negative or in
    any order; an unordered list costs one reordering copy of the stack.  A
    call that needs more than ``MAX_CHEBYSHEV_TERMS`` terms is refused
    before any coefficient is built or ``H`` is applied.
    """
    if not h.hermitian:
        raise HermiticityError("exact evolution requires a Hermitian Hamiltonian")
    if h.n != state.n:
        raise DimensionMismatchError("Hamiltonian and state qubit counts differ")
    if not all(math.isfinite(t) for t in times):
        raise DegenerateInputError("evolution times must be finite")
    norm = h.one_norm()
    for t in times:
        if not math.isfinite(norm * abs(t)):
            raise DegenerateInputError(
                f"evolution time {float(t)!r} overflows: ||H||_1 * |dt| is not finite"
            )
    values = np.asarray(times, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    split = int(np.searchsorted(ordered, 0.0))
    reach = norm * (max(ordered[-1], 0.0) - min(ordered[0], 0.0)) if len(order) else 0.0
    # a window takes more terms than its span, so no plan within the limit reaches further
    if reach <= MAX_CHEBYSHEV_TERMS:
        plans = [
            _chain_windows(ordered[:split][::-1], norm),
            _chain_windows(ordered[split:], norm),
        ]
        terms = sum(int(counts.max()) for plan in plans for *_, counts in plan)
    if reach > MAX_CHEBYSHEV_TERMS or terms > MAX_CHEBYSHEV_TERMS:
        raise DegenerateInputError(
            f"evolution to time {float(max(times, key=abs))!r} at ||H||_1 ="
            f" {norm:.6g} needs more than {MAX_CHEBYSHEV_TERMS} Chebyshev terms"
        )
    tables = _operator_tables(h)
    dim = 1 << state.n
    out = np.empty((len(order), dim), dtype=complex)
    buffers = tuple(np.empty(dim, dtype=complex) for _ in range(4))
    products = np.empty((max(1, ACCUMULATE_AMPLITUDES >> state.n), dim), dtype=complex)
    for stack, plan in zip((out[:split][::-1], out[split:]), plans):
        start = state.amplitudes
        for window in plan:
            rows = stack[window[0]]
            buffers[0][:] = start
            _chebyshev_window(tables, norm, window, rows, (*buffers, products))
            start = rows[-1]
    if np.any(order[1:] < order[:-1]):
        return out[np.argsort(order)]
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
