"""Dense statevector simulation for small registers.

States are plain complex amplitude vectors; gates are Pauli-word rotations
``exp(-i * angle * P)`` applied via ``cos(a)|psi> - i sin(a) P|psi>``.
``apply_circuit`` runs one circuit gate by gate and is the reference;
``sample_branches`` is the batched engine and the one way a batch is
evolved.  It runs batches of circuits, each batch sharing one sequence of
Pauli words, as ``(B, 2^n)`` state stacks.  It first folds each gate into an
earlier gate on the same word when every gate between them commutes with it
(the angles add), then makes one in-place vectorised update per remaining
gate that flips bits.  Both kernels, this one and ``_apply_operator``, read
``psi[i ^ x]`` through one primitive, ``pauli._flip_product``: a mask whose
lowest bit spans at least ``VIEW_FLIP_AMPLITUDES`` amplitudes as a strided
view, any other by a gather within blocks, through one block's index (16
entries for the four lowest bits); a word with Y or Z letters multiplies by
its pre-gathered phase, cached only for words that flip bits
(16 bytes per amplitude).  Each amplitude meets the same operands in the
same order either way, so the bits are the same.  Each run of consecutive
diagonal words is one update: every row gathers a table of the run's phase
products, built from the gates' cosines and sines by one multiply per word,
alternating between the two scratch stacks.  The folded angles and the
products round differently from the reference's gate-by-gate updates, so
the engine agrees with it within 1e-12, not bit for bit; a row's bits still
do not depend on its batch.  Batches whose circuits open with the same
gates share a trunk: it is evolved once per chunk of rows, then each
batch's branch from a copy, with each batch's own bits; a batch of its own
is a branch set of one.  One call takes a stage's branch sets, in groups
whose angles fit ``MAX_ANGLES``, and runs a group's chunks of every set
longest first.  When they hold more than one chunk of amplitudes, the
calling thread runs them with helper threads that it starts for the group
and joins, one thread per CPU (``WORKERS``) in all, with the same bits as on
one.  A chunk whose rows hold at least ``ROW_BUFFER_AMPLITUDES`` amplitudes
runs with numpy's ufunc buffer cut to one row (``_row_buffer``), so numpy
does not copy the stack through its buffer to multiply it by a gate's
per-row cosines and sines; the cosines are complex, so they need no cast
either.  ``_apply_operator``
applies ``H`` and every observable from one pre-gathered diagonal per flip
mask, the diagonal group without a gather; ``expectation_rows`` sums each
row of ``conj(psi) * O psi`` on its own, and the matrix-free
``exact_states`` expands ``exp(-iHt)`` in Chebyshev polynomials of
``H / ||H||_1``, one recursion per window of times (a far time is a window
of its own, over the whole gap), so measured deviations are only
algorithmic.  ``exact_unitary`` and ``circuit_unitary`` build dense
matrices and are oracles for tests and error-operator extraction only.
``GaussianJitter`` perturbs a whole batch of measured values with one call.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, sin
from typing import Callable, Iterable, Iterator, Sequence

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
    _flip_product,
    _flip_table,
    _phase,
    _phase_table,
    apply_pauli_word,
    dense_word,
    masks_commute,
    to_dense,
    word_masks,
)

NORM_TOL = 1e-10

#: A batched evolution advances at most this many amplitudes at once, which
#: bounds the memory of one gate update whatever the batch and register size.
#: Chosen by measurement: a chunk's three ``(rows, 2^n)`` complex stacks take
#: 1.5 MiB at 2^15 and stay in a 2 MiB per-core L2 cache, while at 2^18 a
#: 180-row 10-qubit sweep spills out of it; on a 2-vCPU Xeon the 10-qubit
#: curves ran fastest at 2^14 to 2^15, and slowest at 2^18.
BATCH_AMPLITUDES = 1 << 15

#: A chunk whose rows hold at least this many amplitudes runs with numpy's
#: ufunc buffer cut to one row (``_row_buffer``).  Each gate that flips bits
#: multiplies the stack by a ``(rows, 1)`` column of ``cos`` and one of
#: ``i sin``; while a row is shorter than the buffer (8192 elements by
#: default), numpy copies every operand through it to run one long inner
#: loop, and such a multiply costs about twice a contiguous one of the same
#: size (40-60 us against 20 us on 32 x 1024, numpy 2.4, 2-vCPU Xeon).  A
#: buffer of one row lets it run one inner loop per row instead: at 32 x 1024
#: a flip step fell from 261 to 184 us.  Chosen by measurement: from 2^7
#: amplitudes up a row-sized buffer was faster, at 2^6 results were mixed,
#: and at 2^4 it was 2.3 times slower (208 to 474 us); from 2^13 up the
#: rule changes nothing.  Elementwise products and the row sums see the same
#: operands in the same order, so no bit changes.
ROW_BUFFER_AMPLITUDES = 1 << 7

#: A flip mask whose lowest bit spans at least this many amplitudes reads
#: ``psi[i ^ x]`` as a strided view (``_flip_axes``), so one multiply does the
#: gather and the product; any other mask gathers through its ``2^n`` index
#: table first.  Chosen by measurement of one X flip step under a buffer of
#: one row (numpy 2.4, 2-vCPU Xeon, best of 9 x 100 calls): the view's time
#: over the gather's, by the span of the lowest flipped bit,
#:
#:     register, rows       1-8 amps   16 amps    32 amps   64 amps and up
#:     10 qubits, 32 rows   0.98-2.3   0.90       0.84      0.70-0.77
#:     12 qubits, 8 rows    1.12       1.05-1.08  -         0.72-0.92
#:     14 qubits, 2 rows    -          1.00       -         0.66-0.87
#:
#: where a gathered 10-qubit step took 78-80 us.  Below 16 amplitudes the
#: view's inner loops are too short.  One 10-qubit X layer of 10 flips fell
#: from 785 to 663 us.  Each amplitude sees the same operands in the same
#: order, so no bit changes.
VIEW_FLIP_AMPLITUDES = 16

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

#: ``(perm, read, out, factor)`` of one flip: ``_flip_product``'s arguments after ``psi``.
FlipOperands = tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]

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


def _rotations(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos(a)`` and ``i sin(a)`` of a ``(B, K)`` angle array, one ``(B, 1)`` column per gate.

    Both are complex, 32 bytes per row and gate (40 with the folded angle).
    numpy would cast a float ``cos`` to ``c + 0j`` before each complex
    product anyway, so the bits are the same, but the cast makes it buffer
    the column on every gate.
    """
    return np.cos(angles).astype(complex).T[:, :, None], 1.0j * np.sin(angles).T[:, :, None]


@contextmanager
def _row_buffer(dim: int) -> Iterator[None]:
    """Run the block with numpy's ufunc buffer at most ``dim`` elements, one
    row of amplitudes, when ``dim >= ROW_BUFFER_AMPLITUDES``; the caller's size
    is restored after, also when the block raises.

    ``np.errstate`` scopes the size only from numpy 2.0, and numpy 1.24 is
    supported, so the old size is set back here by hand.  From numpy 2.0 the
    size is a context variable, and each thread of an engine call sets and
    restores it in its own copy of the caller's context (``_map_chunks``).
    """
    saved = np.getbufsize()
    if ROW_BUFFER_AMPLITUDES <= dim < saved:
        np.setbufsize(dim)
    try:
        yield
    finally:
        np.setbufsize(saved)


def _evolve_steps(
    amps: np.ndarray,
    words: Sequence[str],
    rotations: tuple[np.ndarray, np.ndarray],
    steps: Sequence[tuple[int, int, np.ndarray | None]],
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """Advance the stack ``amps`` in place through ``steps``, a slice of ``_step_plan(words)``.

    ``rotations`` holds ``_rotations`` of the gates' angles, a column per word
    of ``words``.  A non-diagonal word makes the update of ``apply_circuit``:
    ``_flip_product`` writes the flipped amplitudes times the ``i sin``
    column, or times the phase of a word with Y or Z letters and then the
    column, through ``_flip_operands`` built once per word and call.  A run
    of diagonal words multiplies each row by one gathered table of phase
    products (``_run_table``), built in the fronts of the scratch stacks.
    """
    cos, sin = rotations
    moved = scratch[1]
    flips: dict[str, tuple[bool, FlipOperands]] = {}
    for start, stop, index in steps:
        if index is not None:
            table = _run_table(cos[start:stop], sin[start:stop], scratch)
            # mode="clip" lets take write straight into ``moved``; "raise" buffers.
            table.take(index, axis=1, out=moved, mode="clip")
            np.multiply(amps, moved, out=amps)
            continue
        word = words[start]
        if word not in flips:
            flip, signs = word_masks(word)
            factor = _phase_table(word) if signs else sin
            flips[word] = bool(signs), _flip_operands(flip, amps, moved, factor)
        phased, (perm, read, target, factor) = flips[word]
        _flip_product(amps, perm, read, target, factor if phased else factor[start])
        if phased:
            np.multiply(sin[start], moved, out=moved)
        np.multiply(cos[start], amps, out=amps)
        np.subtract(amps, moved, out=amps)


def _flip_operands(
    flip: int, source: np.ndarray, out: np.ndarray, factor: np.ndarray
) -> FlipOperands:
    """``(perm, read, out, factor)``: the arguments of ``_flip_product(source, ...)``
    that write ``source[..., i ^ flip]`` times ``factor`` into ``out``.

    ``factor`` holds one value, one per row or one per amplitude in its last
    axis.  A mask whose lowest bit spans at least ``VIEW_FLIP_AMPLITUDES``
    amplitudes reads the strided view ``source[..., i ^ flip]``
    (``_flip_axes``); any other gathers into ``out`` by its ``_flip_table``
    within blocks of ``VIEW_FLIP_AMPLITUDES`` amplitudes, or of the smallest
    power of two above the mask, or of the whole row; ``out`` and ``factor``
    are reshaped to the view's axes or the blocks.  Mask 0 reads ``source``.
    A view has at most ``n + 2`` axes with the rows and a step's gates, 22
    under ``MAX_QUBITS``, within numpy 1.24's 32.  Each amplitude meets the
    same operands either way, in the same order, amplitude first: complex
    products do not commute bit for bit (86,500 of 262,144 random products
    differed, ``_flip_product``).
    """
    if not flip:
        return None, source, out, factor
    dim, lead = source.shape[-1], source.shape[:-1]
    if flip & -flip >= VIEW_FLIP_AMPLITUDES:
        shape, index = _flip_axes(flip, dim.bit_length() - 1)
        perm, read = None, source.reshape(lead + shape)[(..., *index)]
    else:
        block = min(dim, max(VIEW_FLIP_AMPLITUDES, 1 << flip.bit_length()))
        shape, perm = (dim // block, block), _flip_table(flip, block)
        read = out.reshape(lead + shape)
    spread = shape if factor.shape[-1] > 1 else (1,) * len(shape)
    return perm, read, out.reshape(lead + shape), factor.reshape(factor.shape[:-1] + spread)


@lru_cache(maxsize=1024)
def _flip_axes(flip: int, n: int) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """The axes of a row of ``2^n`` amplitudes that read ``psi[i ^ flip]`` as a view.

    Each run of consecutive bits that ``flip`` sets, or clears, is one axis,
    highest first, so there are at most ``n``.  Within a run of j set bits
    ``i ^ (2^j - 1) = 2^j - 1 - i``, so that axis is read reversed.  Returns
    the axis sizes and one slice per axis.
    """
    shape: list[int] = []
    index: list[slice] = []
    top = n
    while top:
        bit = flip >> (top - 1) & 1
        low = top - 1
        while low and (flip >> (low - 1) & 1) == bit:
            low -= 1
        shape.append(1 << (top - low))
        index.append(slice(None, None, -1) if bit else slice(None))
        top = low
    return tuple(shape), tuple(index)


def _check_norms(amps: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """Refuse a stack whose rows lost their norm; the squared norms go through ``scratch``."""
    scaled, moved = scratch
    np.multiply(np.conjugate(amps, out=scaled), amps, out=moved)
    norms = np.sqrt(moved.real.sum(axis=1))
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise DegenerateInputError("batched evolution lost normalization")


def _run_table(
    cos: np.ndarray, sin: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Each row's ``2^m`` phase products for a run of m diagonal words.

    ``cos`` and ``sin`` hold the run's ``cos(a)`` and ``i sin(a)`` columns,
    shaped ``(m, B, 1)``.  Entry ``k`` of row b is the product over j of
    ``cos - i sin`` of word j where bit j of ``k`` is 0 and ``cos + i sin``
    where it is 1: the word's eigenvalue is ``+1`` or ``-1``.  The table is
    built by doubling, one multiply per word, ``half[:, None, :]`` times both
    factors of the word.  Each doubling writes into the front of the other
    scratch stack, so no output overlaps its input; the full table lands in
    ``scratch[0]``.
    """
    m, rows = cos.shape[:2]
    factors = np.empty((m, rows, 2, 1), dtype=complex)
    np.subtract(cos, sin, out=factors[:, :, 0])
    np.add(cos, sin, out=factors[:, :, 1])
    fronts = [stack.reshape(-1) for stack in scratch]
    table = fronts[(m - 1) % 2][: rows << 1].reshape(rows, 2)
    table[...] = factors[0, :, :, 0]
    for j in range(1, m):
        doubled = fronts[(m - 1 - j) % 2][: rows << (j + 1)].reshape(rows, 2, 1 << j)
        np.multiply(table[:, None, :], factors[j], out=doubled)
        table = doubled.reshape(rows, 2 << j)
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
    the sign of its ``_phase``.
    """
    index = np.zeros(1 << len(run[0]), dtype=np.intp)
    for j, word in enumerate(run):
        index |= (_phase(word).real < 0).astype(np.intp) << j
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


def expectation_rows(
    amps: np.ndarray, obs: OperatorSum, scratch: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Exact ``<psi_b|O|psi_b>`` for every row of a ``(B, 2^n)`` state stack.

    ``O`` acts on the whole stack through the flip-mask tables that the
    exact propagator uses for ``H`` (``_operator_tables``); a row's value is
    then ``(conj(psi_b) * O psi_b).sum()``, a reduction along that row
    alone, so a row gives the same bits whichever stack it sits in.  The
    work goes through two complex stacks shaped like ``amps``: ``scratch``,
    or two new ones.
    """
    if not obs.hermitian:
        raise HermiticityError("expectation requires a Hermitian observable")
    if amps.shape[1] != (1 << obs.n):
        raise DimensionMismatchError("observable and state qubit counts differ")
    applied, scratch = scratch or (np.empty_like(amps, complex), np.empty_like(amps, complex))
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
    the last one in place.  A chunk runs in four stacks of its thread (the
    trunk, a branch copy and two scratch stacks), made at the thread's first
    chunk and kept for the call, so chunks touch no fresh pages.  Every row
    sees the same operations in the same order whatever the seam, the
    batches beside it and the sets of the call, so the values are the same
    bits; they agree with the looped circuits within 1e-12.

    Sets are pulled from ``sets`` in groups whose angle arrays together fit
    ``MAX_ANGLES`` (a set that does not fit opens the next group, so a
    larger set is a group of its own), and the groups run one after
    another.  The angles alive are one group's and those of the set pulled
    after it, which waits, built, for the next group.  A group's chunks run
    longest first, by rows times kernel steps (``engine_counts``), through
    ``_map_chunks``, one rule for the whole group; each chunk
    writes only its own rows of its own set's columns, under ``_row_buffer``
    of one row.
    """
    # the 2^n tables are built here, before the workers read them; a block
    # index that two workers both build first is a few bytes, built twice
    _operator_tables(obs)
    per_chunk = max(1, BATCH_AMPLITUDES >> state.n)
    columns: list[np.ndarray] = []
    rows: int | None = None

    held = threading.local()

    def stacks(count: int) -> list[np.ndarray]:
        """The first ``count`` rows of this thread's four chunk stacks."""
        if not hasattr(held, "stacks"):
            held.stacks = np.empty((4, min(per_chunk, rows), 1 << state.n), dtype=complex)
        return list(held.stacks[:, :count])

    def branches(seam, sequences, angles, values) -> Callable[[int], None]:
        """The chunk job of one set, writing its columns of ``values``."""
        cut = _trunk(sequences, seam)[0]
        plans = [_fold_plan(words) for words in sequences]
        folded = [_folded_words(words) for words in sequences]
        steps = [_step_plan(words) for words in folded]
        for word in set().union(*folded):
            flip, signs = word_masks(word)
            if flip and signs:
                _phase_table(word)

        def chunk(start: int) -> None:
            trunk, branch, scaled, moved = stacks(min(per_chunk, rows - start))
            trunk[...] = state.amplitudes
            scratch = scaled, moved
            with _row_buffer(trunk.shape[1]):
                for j, (words, plan, a) in enumerate(zip(folded, plans, angles)):
                    rotations = _rotations(_folded_angles(plan, a[start : start + per_chunk]))
                    if j == 0 and cut:
                        _evolve_steps(trunk, words, rotations, steps[0][:cut], scratch)
                    stack = trunk
                    if j < len(angles) - 1:
                        stack = branch
                        np.copyto(branch, trunk)
                    _evolve_steps(stack, words, rotations, steps[j][cut:], scratch)
                    _check_norms(stack, scratch)
                    values[start : start + per_chunk, j] = expectation_rows(stack, obs, scratch)

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
    its batches share their rows and first ``seam`` gates.  One pass checks each
    batch in word order: one angle column per word, and each distinct word on
    ``n`` qubits with valid letters (``word_masks``)."""
    if not batches:
        raise DegenerateInputError("a branch set needs at least one batch")
    sequences = tuple(tuple(words) for words, _ in batches)
    angles = [np.asarray(a, dtype=float) for _, a in batches]
    for words, a in zip(sequences, angles):
        if a.ndim != 2 or a.shape[1] != len(words):
            raise DimensionMismatchError(
                f"angle array of shape {a.shape} does not match {len(words)} gates"
            )
        for word in dict.fromkeys(words):
            if len(word) != n:
                raise DimensionMismatchError(f"word {word!r} does not act on {n} qubits")
            word_masks(word)
    first, head = sequences[0][:seam], angles[0][:, :seam]
    for words, a in zip(sequences[1:], angles[1:]):
        if a.shape[0] != head.shape[0] or words[:seam] != first or not np.array_equal(
            a[:, :seam], head
        ):
            raise DimensionMismatchError(f"batches do not share their rows and first {seam} gates")
    return sequences, angles


def _map_chunks(jobs: Sequence[tuple[Callable[[int], None], int]], amplitudes: int) -> None:
    """Run every ``chunk(start)`` of ``jobs``, in their order: on the calling
    thread, helped by ``min(WORKERS, len(jobs)) - 1`` threads started for this
    call, when there are two workers, two jobs and more than
    ``BATCH_AMPLITUDES`` amplitudes to evolve, otherwise on the calling thread
    alone.

    Each thread pulls the next job under one lock and runs it in its own copy
    of the caller's context, taken before any job starts, since two threads
    cannot enter one context at once: from numpy 2.0 a job sees the caller's
    error state and ufunc buffer size, and what it sets stays in its copy.
    The first exception, a chunk's or an interrupt of the caller, stops the
    pulls; every helper finishes its chunk and is joined, and then the
    exception is raised here, so no helper outlives the call.
    """
    if WORKERS < 2 or len(jobs) < 2 or amplitudes <= BATCH_AMPLITUDES:
        for chunk, start in jobs:
            chunk(start)
        return
    pending, lock, failures = iter(jobs), threading.Lock(), []

    def work(context: contextvars.Context) -> None:
        while True:
            with lock:
                job = None if failures else next(pending, None)
            if job is None:
                return
            try:
                context.run(*job)
            except BaseException as error:
                failures.append(error)

    contexts = [contextvars.copy_context() for _ in range(min(WORKERS, len(jobs)))]
    finished, helpers = threading.Semaphore(0), []

    def helper(context: contextvars.Context) -> None:
        work(context)
        finished.release()

    try:
        for context in contexts[1:]:
            thread = threading.Thread(target=helper, args=(context,), name="trotterprof-chunk")
            thread.start()
            helpers.append(thread)
        work(contexts[0])
    except BaseException as error:  # a helper that could not start, or an interrupt
        failures.append(error)
    # each helper's own signal first: a join that an interrupt cuts short may
    # take a running thread for stopped (Python 3.11), so joins only wait for exits
    for wait in [finished.acquire] * len(helpers) + [thread.join for thread in helpers]:
        while True:
            try:
                wait()
                break
            except BaseException as error:  # an interrupt while waiting
                failures.append(error)
    if failures:
        del failures[1:]
        raise failures.pop()  # the list the helpers' frames hold lets it go


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
def _operator_tables(op: OperatorSum) -> tuple[tuple[int, np.ndarray], ...]:
    """``O`` as ``(O psi)[i] = sum_f D_f[i] psi[i ^ f]``: one diagonal per distinct flip mask.

    A term ``c P`` adds ``c * g`` into the diagonal of its X mask, with ``g``
    its ``_phase``, or the one value ``c`` for a word of X letters, which has
    none; a diagonal stays one value while only such words share its mask.
    So a chain of ZZ bonds and X fields needs one ``2^n`` diagonal (16 bytes
    per amplitude) plus one value per site.  ``_apply_operator`` reads
    ``psi[i ^ f]`` through ``_flip_operands``.
    """
    merged: dict[int, np.ndarray] = {}
    for term in op.terms:
        flip, signs = word_masks(term.word)
        diag = term.coeff * _phase(term.word) if signs else np.array([term.coeff])
        merged[flip] = merged[flip] + diag if flip in merged else diag
    for diag in merged.values():
        diag.setflags(write=False)
    return tuple(merged.items())


def _apply_operator(
    tables: Sequence[tuple[int, np.ndarray]],
    v: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    flips: dict[tuple[int, int], tuple[np.ndarray, FlipOperands]] | None = None,
) -> None:
    """Write ``O v`` into ``out`` for a state or a ``(B, 2^n)`` stack ``v``.

    Each flip mask writes ``v[..., i ^ f]`` times its diagonal into
    ``scratch`` (``_flip_product``), which then adds into ``out``.  Calls
    that share ``tables`` and ``scratch`` may share ``flips``, which keeps
    each mask's operands per ``v``, and ``v`` alive so that its id is not reused.
    """
    flips = {} if flips is None else flips
    out.fill(0.0)
    for flip, diag in tables:
        key = id(v), flip
        if key not in flips:
            flips[key] = v, _flip_operands(flip, v, scratch, diag)
        _flip_product(v, *flips[key][1])
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
    tables: Sequence[tuple[int, np.ndarray]],
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
    flips: dict[tuple[int, int], tuple[np.ndarray, FlipOperands]] = {}
    for k in range(1, coefficients.shape[0]):
        if k == 1:
            _apply_operator(tables, previous, current, scratch, flips)
            np.multiply(current, 1.0 / norm, out=current)
        else:
            _apply_operator(tables, current, applied, scratch, flips)
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
