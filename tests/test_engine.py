"""The batched sample engine against the looped reference circuits.

Every sample kind (composite probes, plain Trotter circuits, multi-product
constituents) runs through ``sample_branches``, the engine's one evolve
path; a batch of its own is a branch set of one (``alone``).  The reference
is ``expectation(apply_circuit(psi, circuit), obs)``, perturbed by the
jitter when there is one, on the circuit compiled gate by gate.  The
in-place kernel is checked bit for bit against an allocating copy of it,
run on the folded sequence that the engine evolves (``folded``).
"""

from __future__ import annotations

import ast
import functools
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    BasisSpec,
    Circuit,
    CompositeSpec,
    DimensionMismatchError,
    Fragment,
    GaussianJitter,
    PartitionedHamiltonian,
    PauliRotation,
    ProductFormula,
    ProfilingConfig,
    SingularFitError,
    apply_circuit,
    compile_circuit,
    composite_circuit,
    composite_expectations,
    exact_evolve,
    exact_states,
    exact_values,
    expectation,
    mitigated_estimate,
    mitigated_estimates,
    mpf_estimate,
    mpf_values,
    mpf_weights,
    preset_config,
    read_csv,
    run_error_curve,
    sample_branches,
)
import trotterprof
from trotterprof import mpf, pauli, profiling, simulator
from trotterprof.cli import run_command
from trotterprof.config import MAX_QUBITS, PRESETS, parse_config
from trotterprof.errors import DegenerateInputError
from trotterprof.experiments import _per_time_jitters, worker_count
from trotterprof.mpf import constituent_sets
from trotterprof.pauli import OperatorSum, PauliTerm, _flip_table, _phase_table, word_masks
from trotterprof.profiling import sweep_sets
from trotterprof.simulator import engine_counts

from conftest import chunk_threads, random_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)

TOL = 1e-12

CONFIGS = {name: preset_config(name) for name in PRESETS}

presets = st.sampled_from(sorted(CONFIGS))
split = st.floats(-0.5, 1.5, allow_nan=False)
times = st.floats(0.0, 1.0, exclude_min=True, allow_nan=False)
steps = st.integers(1, 3)


def measured(cfg, circuit, jitter):
    value = expectation(apply_circuit(cfg.initial_state, circuit), cfg.observable)
    return value if jitter is None else jitter.perturb(value)


def looped_composite(cfg, variant, a, t, n, jitter=None):
    circuit = composite_circuit(CompositeSpec(variant, a, t, n), cfg.formula, cfg.partition)
    return measured(cfg, circuit, jitter)


def looped_trotter(cfg, t, n, jitter=None):
    return measured(cfg, compile_circuit(cfg.formula, cfg.partition, t, n), jitter)


def alone(state, words, angles, obs):
    """The engine's values for one batch, run as a branch set of its own."""
    return sample_branches(state, [(0, [(words, angles)])], obs)[:, 0]


def folded(words, angles):
    """The word sequence and angles that the engine evolves for a batch."""
    words = tuple(words)
    plan = simulator._fold_plan(words)
    return list(plan[0]), simulator._folded_angles(plan, angles)


def looped_values(state, words, angles, obs):
    """``expectation(apply_circuit(state, circuit_b), obs)`` for each row b of ``angles``."""
    n = state.n
    return [
        expectation(
            apply_circuit(state, Circuit(tuple(map(PauliRotation, words, row)), n)), obs
        )
        for row in angles
    ]


def test_engine_rows_equal_apply_circuit(rng):
    words = ["XZY", "ZZI", "IYX", "XXX", "ZIZ"]
    angles = rng.uniform(-2.0, 2.0, size=(6, len(words)))
    psi = random_state(rng, 3)
    # a one-qubit observable of every letter on every qubit
    for word in ("XII", "YII", "ZII", "IXI", "IYI", "IZI", "IIX", "IIY", "IIZ"):
        obs = OperatorSum.from_terms([PauliTerm(word)])
        looped = looped_values(psi, words, angles, obs)
        np.testing.assert_allclose(alone(psi, words, angles, obs), looped, rtol=0, atol=TOL)


def eigenvalue_bits(word):
    """1 where the diagonal ``word`` has eigenvalue -1, from its Z letters."""
    n = len(word)
    x = np.arange(1 << n)
    bits = np.zeros_like(x)
    for pos, letter in enumerate(word):
        if letter == "Z":
            bits ^= (x >> (n - 1 - pos)) & 1
    return bits


def word_tables(word):
    """``(perm, phase)`` with ``word |x> = phase[x] |x ^ flip>``: the old phase
    is the pre-gathered ``_phase_table`` read at ``perm``, which is its own
    inverse, and all ones for a word of X letters."""
    n = len(word)
    flip, signs = word_masks(word)
    perm = np.arange(1 << n) ^ flip
    return perm, _phase_table(word)[perm] if signs else np.ones(1 << n, dtype=complex)


def complex_parts(real, imag):
    """A complex array written part by part, so each part keeps its bits."""
    values = np.empty(np.broadcast_shapes(np.shape(real), np.shape(imag)), dtype=complex)
    values.real, values.imag = real, imag
    return values


def allocating_evolve(state, words, angles):
    """The kernel's steps with a fresh stack per operation.

    A word that flips bits is ``psi - (i tan a) P psi``, one expression per
    gate, and defers its cosine.  A run of at most n consecutive diagonal
    words multiplies by its table of phase products, doubled one word at a
    time and read at each state's eigenvalue bits.  The product of the
    deferred cosines, multiplied in gate order, folds back into the first
    factors of the next run, into the stack after every ``DEFERRED_FLIPS``-th
    flip since the last fold point, and into the stack at the end.
    """
    n = state.n
    cos, sin = np.cos(angles).T[:, :, None], np.sin(angles).T[:, :, None]
    amps = np.tile(state.amplitudes, (angles.shape[0], 1))
    deferred = []
    k = 0
    while k < len(words):
        run = list(itertools.takewhile(lambda w: set(w) <= {"I", "Z"}, words[k : k + n]))
        if not run:
            perm, phase = word_tables(words[k])
            tan = complex_parts(0.0, sin[k] / cos[k])
            amps = amps - tan * np.take(amps * phase, perm, axis=1)
            deferred.append(cos[k])
            k += 1
            if len(deferred) == simulator.DEFERRED_FLIPS:
                amps = amps * complex_parts(functools.reduce(np.multiply, deferred), 0.0)
                deferred = []
            continue
        scale = functools.reduce(np.multiply, deferred) if deferred else 1.0
        deferred = []
        table = np.concatenate(
            [complex_parts(cos[k] * scale, -sin[k] * scale), complex_parts(cos[k] * scale, sin[k] * scale)],
            axis=1,
        )
        index = eigenvalue_bits(run[0])
        for j, word in enumerate(run[1:], start=1):
            minus, plus = complex_parts(cos[k + j], -sin[k + j]), complex_parts(cos[k + j], sin[k + j])
            table = np.concatenate([table * minus, table * plus], axis=1)
            index = index + (eigenvalue_bits(word) << j)
        amps = amps * table[:, index]
        k += len(run)
    if deferred:
        amps = amps * complex_parts(functools.reduce(np.multiply, deferred), 0.0)
    return amps


def kernel_rotations(words, angles):
    """The kernel steps of a word sequence, and the ``_rotations`` of its angles."""
    steps, columns = simulator._step_plan(tuple(words))
    return steps, simulator._rotations(angles, columns)


def allocating_rows(amps, obs):
    """``O`` as one merged diagonal per flip mask, a fresh stack per operation."""
    merged = {}
    for term in obs.terms:
        perm, phase = word_tables(term.word)
        flip = int(perm[0])
        diagonal = term.coeff * phase
        merged[flip] = (perm, merged[flip][1] + diagonal if flip in merged else diagonal)
    applied = np.zeros_like(amps)
    for perm, diagonal in merged.values():
        applied = applied + amps[:, perm] * diagonal[perm]
    return (amps.conj() * applied).sum(axis=1).real


@st.composite
def gate_sequences(draw):
    n = draw(st.integers(1, 6))
    words = draw(
        st.lists(
            st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"}),
            min_size=1,
            max_size=10,
        )
    )
    rows = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, words, rows, np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(gate_sequences())
def test_in_place_kernel_is_bit_identical_to_the_allocating_one(case):
    n, words, rows, rng = case
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words])
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(alone(psi, words, angles, obs), expected)


@st.composite
def row_buffer_cases(draw):
    """7-12 qubits, where a chunk runs with a ufunc buffer of one row: words
    that flip bits beside runs of diagonal ones, rows in two chunks."""
    n = draw(st.integers(7, 12))
    word = st.text("IXYZ", min_size=n, max_size=n) | st.text("IZ", min_size=n, max_size=n)
    words = draw(st.lists(word.filter(lambda w: set(w) != {"I"}), min_size=1, max_size=10))
    chunk = draw(st.integers(1, 2))
    rows = chunk + draw(st.integers(1, chunk))
    workers = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, words, rows, chunk, workers, np.random.default_rng(seed)


@settings(max_examples=20, deadline=None)
@given(row_buffer_cases())
def test_a_row_sized_ufunc_buffer_keeps_the_bits(case):
    n, words, rows, chunk, workers, rng = case
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words])
    evolve, sizes = simulator._evolve_steps, set()

    def recording(*args):
        sizes.add(np.getbufsize())
        evolve(*args)

    values = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "BATCH_AMPLITUDES", chunk << n)
        patch.setattr(simulator, "WORKERS", workers)
        patch.setattr(simulator, "_evolve_steps", recording)
        values["row"] = alone(psi, words, angles, obs)
        assert sizes == {1 << n}
        patch.setattr(simulator, "ROW_BUFFER_AMPLITUDES", 1 << 20)
        sizes.clear()
        values["default"] = alone(psi, words, angles, obs)
        assert sizes == {np.getbufsize()}
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(values["row"], expected)
    assert np.array_equal(values["row"], values["default"])


def test_the_ufunc_buffer_size_never_leaks(monkeypatch):
    # 8 qubits: every chunk cuts the buffer to one row of 256 amplitudes
    n, rows = 8, 6
    rng = np.random.default_rng(9)
    psi = random_state(rng, n)
    words = ["XZIIYIIZ", "ZZIIIIII", "IIIIIIZZ", "IXIIIIXI"]
    angles = rng.uniform(-3.0, 3.0, (rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm("ZIIIIIIZ"), PauliTerm("IIXXIIII", 0.5)])
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 2 << n)
    check, sizes = simulator._check_norms, []

    def recording(amps, scratch):
        sizes.append(np.getbufsize())
        check(amps, scratch)

    def losing(amps, scratch):
        amps *= 2.0
        check(amps, scratch)

    saved = np.setbufsize(4096)
    try:
        for workers in (1, 2):
            monkeypatch.setattr(simulator, "WORKERS", workers)
            monkeypatch.setattr(simulator, "_check_norms", recording)
            sizes.clear()
            alone(psi, words, angles, obs)
            assert sizes == [1 << n] * 3
            assert np.getbufsize() == 4096
            assert chunk_threads() == []
            monkeypatch.setattr(simulator, "_check_norms", losing)
            with pytest.raises(DegenerateInputError, match="lost normalization"):
                alone(psi, words, angles, obs)
            assert np.getbufsize() == 4096
            # the helpers that ran beside the failing chunk are joined too
            assert chunk_threads() == []
    finally:
        np.setbufsize(saved)


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1.x keeps this state per thread"
)
def test_chunk_jobs_on_the_pool_see_the_callers_numpy_state(monkeypatch):
    # 4 qubits keep the caller's buffer size in every chunk (no row buffer);
    # six chunks of one row make the call run on the pool
    n, rows = 4, 6
    rng = np.random.default_rng(10)
    psi = random_state(rng, n)
    words = ["XZIY", "ZZII", "IXXI"]
    angles = rng.uniform(-3.0, 3.0, (rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm("ZIIZ"), PauliTerm("IXXI", 0.5)])
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 1 << n)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    check, seen = simulator._check_norms, []

    def recording(amps, scratch):
        seen.append((threading.current_thread().name, np.geterr()["over"], np.getbufsize()))
        check(amps, scratch)

    monkeypatch.setattr(simulator, "_check_norms", recording)
    expected = looped_values(psi, words, angles, obs)
    saved, errors = np.getbufsize(), np.geterr()
    try:
        with np.errstate(over="raise"):
            np.setbufsize(4096)
            values = alone(psi, words, angles, obs)
    finally:
        np.setbufsize(saved)
    np.testing.assert_allclose(values, expected, atol=TOL, rtol=0)
    assert len(seen) == rows
    assert any(name.startswith("trotterprof-chunk") for name, _, _ in seen)
    assert {(over, size) for _, over, size in seen} == {("raise", 4096)}
    assert np.geterr() == errors and np.getbufsize() == saved


@pytest.mark.parametrize("n", range(1, 11))
def test_gather_free_words_are_bit_identical_to_the_allocating_kernel(n):
    # a diagonal word is a run of one, gathered from its two-entry table,
    # and an X word skips the phase
    rng = np.random.default_rng(n)
    words = []
    for pos in range(n):
        words += [("I" * pos + letter).ljust(n, "I") for letter in ("X", "Z")]
    if n > 1:
        words += ["ZZ".ljust(n, "I"), "XX".ljust(n, "I"), "XX".rjust(n, "I")]
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(3, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words])
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(alone(psi, words, angles, obs), expected)


#: The double whose cosine is smallest in magnitude, 4.69e-19.
FLATTEST_COSINE = 6381956970095103 * 2.0**797

#: Flips alone, with and without phases, 240 of them after folding.
FLIPS_ONLY = ["XIY", "YXI", "IYX", "XXX"] * 60


@pytest.mark.parametrize(
    "words", [FLIPS_ONLY, FLIPS_ONLY[:101] + ["ZZI", "IZZ"] + FLIPS_ONLY[101:]], ids=["flips", "run"]
)
@pytest.mark.parametrize(
    "cycle",
    [[np.pi / 2 - 1e-9], [FLATTEST_COSINE], [1e300], [FLATTEST_COSINE, np.pi / 2 - 1e-9, 1e300, 0.3]],
    ids=["near-pi/2", "flattest", "1e300", "mixed"],
)
def test_deferred_cosines_stay_in_the_float_range(words, cycle):
    # without a diagonal run only the scaling after every DEFERRED_FLIPS-th
    # flip bounds a row's product of deferred cosines; at the flattest cosine
    # 17 of them would underflow it and overflow the rows (a RuntimeWarning,
    # which the test configuration turns into a failure)
    n, rows = 3, 4
    assert len(folded(words, np.zeros((1, len(words))))[0]) == len(words)
    angles = np.array([[cycle[(k + r) % len(cycle)] for k in range(len(words))] for r in range(rows)])
    rng = np.random.default_rng(13)
    psi = random_state(rng, n)
    obs = OperatorSum.from_terms([PauliTerm("XYZ"), PauliTerm("ZZI", 0.5), PauliTerm("IXI", -0.7)])
    values = alone(psi, words, angles, obs)
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, looped_values(psi, words, angles, obs), rtol=0, atol=TOL)
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(values, expected)


class CountedStack(np.ndarray):
    """A stack that records each ufunc and ``take`` that reads or writes it."""

    calls: list[str] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountedStack.calls.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, CountedStack) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)

    def take(self, *args, **kwargs):
        CountedStack.calls.append("take")
        return super().take(*args, **kwargs)


@pytest.mark.parametrize(
    "word, passes",
    [
        ("XIIIIIIIII", ["multiply", "subtract"]),  # a view
        ("IIIIIIIIIX", ["take", "multiply", "subtract"]),  # a gather
        ("YIIIIIIIIZ", ["multiply", "multiply", "subtract"]),  # a view with phases
    ],
)
def test_a_flip_step_passes_over_the_stack_two_times_or_three_with_a_gather(word, passes):
    # the cosine waits in the row's deferred product: one multiply reads the
    # flipped amplitudes, one subtract updates the stack, and the 16th flip
    # since the last fold point scales the stack by the product once more
    n, rows = 10, 4
    rng = np.random.default_rng(14)
    psi = random_state(rng, n)
    words = [word] * simulator.DEFERRED_FLIPS
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    steps, rotations = kernel_rotations(words, angles)
    stacks = np.empty((3, rows, 1 << n), dtype=complex).view(CountedStack)
    amps, *scratch = stacks
    amps[...] = psi.amplitudes
    CountedStack.calls = []
    simulator._evolve_steps(amps, words, rotations, steps[:1], scratch)
    assert CountedStack.calls == passes
    CountedStack.calls = []
    simulator._evolve_steps(amps, words, rotations, steps[1:], scratch)
    assert CountedStack.calls == passes * len(steps[1:]) + ["multiply"]


@st.composite
def diagonal_run_sequences(draw):
    """Runs of Z-only words, some longer than n, between words that flip bits."""
    n = draw(st.integers(1, 5))
    diagonal = ["".join(w) for w in itertools.product("IZ", repeat=n) if "Z" in w]
    run = st.lists(st.sampled_from(diagonal), min_size=1, max_size=2 * n + 1)
    if n <= 4:
        run = run | st.permutations(diagonal)  # all 2^n - 1 of them, split at n
    flipping = st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) & set("XY"))
    segments = draw(st.lists(run | st.lists(flipping, min_size=1, max_size=2), max_size=5))
    rows = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, [w for segment in segments for w in segment], rows, np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(diagonal_run_sequences())
def test_diagonal_runs_match_the_looped_circuits_row_by_row(case):
    n, words, rows, rng = case
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    words_and_y = [*dict.fromkeys(words), "Y" * n]  # a sequence may hold no word
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words_and_y])
    values = alone(psi, words, angles, obs)
    looped = looped_values(psi, words, angles, obs)
    np.testing.assert_allclose(values, looped, rtol=0, atol=TOL)
    for b, value in enumerate(values):
        assert alone(psi, words, angles[b : b + 1], obs)[0] == value


def test_a_diagonal_run_builds_its_table_in_a_scratch_stack():
    # 10 qubits and 32 rows: one chunk of the benchmark chain, whose nine ZZ
    # bonds are one run between the X fields
    n, rows = 10, 32
    bonds = [("I" * b + "ZZ").ljust(n, "I") for b in range(n - 1)]
    fields = [("I" * q + "X").ljust(n, "I") for q in range(n)]
    words = fields + bonds + fields
    rng = np.random.default_rng(3)
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    # no word folds here: the X fields anticommute with the bonds between them
    assert folded(words, angles)[0] == words
    steps, rotations = kernel_rotations(words, angles)
    assert sum(i is not None for _, _, i, _ in steps) == 1
    amps = np.tile(psi.amplitudes, (rows, 1))
    scratch = (np.empty_like(amps), np.empty_like(amps))
    simulator._evolve_steps(amps, words, rotations, steps, scratch)  # fills the caches
    table = 16 * rows << len(bonds)
    # numpy's ufunc buffers (8192 elements each by default) would hide a table
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        simulator._evolve_steps(amps, words, rotations, steps, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    # the stacks are the caller's: room for the run's factor columns and the
    # flip views, not for an eighth of a table of its own
    assert peak < table // 8


def test_a_run_table_makes_no_ufunc_temporaries():
    # nine ZZ bonds on 32 rows after one X field: ``_rotations`` holds their
    # cos -+ i sin factors, the first bond's times the field's cosine, and
    # every doubling writes into the other scratch stack's front
    n, rows, m = 10, 32, 9
    rng = np.random.default_rng(4)
    words = ["X".ljust(n, "I")] + [("I" * b + "ZZ").ljust(n, "I") for b in range(m)]
    angles = rng.uniform(-3.0, 3.0, size=(rows, m + 1))
    steps, rotations = kernel_rotations(words, angles)
    assert [stop - start for start, stop, _, _ in steps] == [1, m]
    factors = rotations[1:]
    assert factors.shape == (m, rows, 2, 1)
    cos, sin = np.cos(angles[:, 1:]).T[:, :, None], np.sin(angles[:, 1:]).T[:, :, None]
    first = np.cos(angles[:, :1])
    assert np.array_equal(bits(factors[0, :, 0]), bits(complex_parts(cos[0] * first, -sin[0] * first)))
    assert np.array_equal(bits(factors[1:, :, 1]), bits(complex_parts(cos[1:], sin[1:])))
    scratch = (np.empty((rows, 1 << n), complex), np.empty((rows, 1 << n), complex))
    simulator._run_table(factors, scratch)
    # numpy's ufunc buffers (8192 elements each by default) would hide a table
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        table = simulator._run_table(factors, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    assert peak < 4096
    assert np.shares_memory(table, scratch[0])
    minus, plus = factors[:, :, 0], factors[:, :, 1]
    expected = np.concatenate([minus[0], plus[0]], axis=1)
    for j in range(1, m):
        expected = np.concatenate([expected * minus[j], expected * plus[j]], axis=1)
    assert np.array_equal(bits(table), bits(expected))


def bits(values):
    """The IEEE bit patterns of a complex array, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(values).view(np.int64)


def flip_outputs(psi, words, angles, obs, threshold):
    """The kernels' outputs with ``VIEW_FLIP_AMPLITUDES`` at ``threshold``:
    the stack evolved by ``_evolve_steps`` under a buffer of one row, ``O``
    applied to that stack and to its first row alone, the engine's values
    and the exact column at two times."""
    n, rows = psi.n, angles.shape[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "VIEW_FLIP_AMPLITUDES", threshold)
        amps = np.tile(psi.amplitudes, (rows, 1))
        scratch = (np.empty_like(amps), np.empty_like(amps))
        steps, rotations = kernel_rotations(words, angles)
        with simulator._row_buffer(1 << n):
            simulator._evolve_steps(amps, words, rotations, steps, scratch)
        tables = simulator._operator_tables(obs)
        applied, row = np.empty_like(amps), np.empty_like(amps[0])
        simulator._apply_operator(tables, amps, applied, scratch[0])
        simulator._apply_operator(tables, amps[0], row, scratch[1][0])
        values = alone(psi, words, angles, obs)
        exact = exact_states(obs, (0.3, -0.7), psi)
    return amps, applied, row, values, exact


def assert_same_bits(first, second):
    for a, b in zip(first, second):
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        assert np.array_equal(bits(a), bits(b))


#: 10-qubit words by the bits they flip; position p owns bit 9 - p, so a
#: flip reads as a view when its lowest bit is bit 4 or above.  The 12-qubit
#: words gather within a block of 16 amplitudes (bits 1-2), of 32 (bits 3
#: and 4) or of the whole row (bits 0 and 11), each mask by an X word and a
#: word with phases, so the observable merges an X word's one value into a
#: full diagonal, after it and before it
MASK_CLASSES = {
    "one high bit": ["XIIIIIIIII", "IIIIIXIIII", "IXIIIIIIII"],
    "a run of high bits": ["XXXXIIIIII", "IIXXXXIIII", "XXXXXXIIII"],
    "high and low bits": ["XIIIIIIIIX", "XIXIXIXIXI", "IXXIIIIXXI"],
    "Y and Z phases": ["YZIIXIIIII", "ZIYYIIIIIZ", "IIYIIIZZII", "ZZIIIIIIII", "YIIIIYIIII"],
    "12-qubit blocks": ["ZIIIIIIIIXYI", "IIIIIIIIIXXI", "IIIIIIIXXIII", "IIIIIIIYXZII"]
    + ["XIIIIIIIIIIX", "YIIIIIIIIIIX"],
}


@pytest.mark.parametrize("masks", sorted(MASK_CLASSES))
def test_flip_views_give_the_bits_of_the_gather(masks):
    # 32 rows, one chunk of the 10-qubit benchmark chain: every flip as a
    # view, the default split, and every flip gathered within the whole row,
    # all with the bits of the allocating kernel and full diagonals
    n, rows = len(MASK_CLASSES[masks][0]), 32
    rng = np.random.default_rng(len(masks))
    words = MASK_CLASSES[masks] * 2
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in MASK_CLASSES[masks]])
    gathered = flip_outputs(psi, words, angles, obs, 1 << n)
    assert_same_bits(flip_outputs(psi, words, angles, obs, 1), gathered)
    split = simulator.VIEW_FLIP_AMPLITUDES
    assert_same_bits(flip_outputs(psi, words, angles, obs, split), gathered)
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(bits(gathered[3].astype(complex)), bits(expected.astype(complex)))


@settings(max_examples=40, deadline=None)
@given(gate_sequences().filter(lambda case: case[0] >= 2))
def test_small_registers_read_every_flip_as_a_view_with_the_same_bits(case):
    # the threshold cut to one amplitude sends every mask of 2-6 qubits
    # through the view path; it must match the allocating kernel bit for bit
    n, words, rows, rng = case
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words])
    viewed = flip_outputs(psi, words, angles, obs, 1)
    assert_same_bits(viewed, flip_outputs(psi, words, angles, obs, 1 << n))
    expected = allocating_rows(allocating_evolve(psi, *folded(words, angles)), obs)
    assert np.array_equal(bits(viewed[3].astype(complex)), bits(expected.astype(complex)))


def test_a_high_bit_flip_step_builds_no_index_table(monkeypatch):
    # X words whose lowest flipped bit spans 16 amplitudes or more read their
    # amplitudes as views: neither the step nor the engine builds their
    # indices, a word of X letters has no phase, and the ZZ observable's
    # diagonal is built through ``_phase``, outside the cache of phases
    n, rows = 12, 2
    words = ["XIIIIIIIIIII", "IIIIIIIXIIII", "IXXXIIIIIIII", "XIIXIIIXIIII"]
    rng = np.random.default_rng(5)
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    looked_up = []

    def recording(table):
        def lookup(*key):
            looked_up.append(key)
            return table(*key)

        return lookup

    monkeypatch.setattr(simulator, "_flip_table", recording(_flip_table))
    monkeypatch.setattr(simulator, "_phase_table", recording(_phase_table))
    obs = OperatorSum.from_terms([PauliTerm("ZIIIIIIIIIIZ")])
    values = alone(psi, words, angles, obs)
    assert looked_up == []
    np.testing.assert_allclose(values, looped_values(psi, words, angles, obs), rtol=0, atol=TOL)
    amps = np.tile(psi.amplitudes, (rows, 1))
    scratch = (np.empty_like(amps), np.empty_like(amps))
    steps, rotations = kernel_rotations(words, angles)
    old = np.setbufsize(16)  # numpy's ufunc buffers would hide a table
    tracemalloc.start()
    try:
        simulator._evolve_steps(amps, words, rotations, steps, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    assert peak < 8 << n  # less than one 2^n intp table
    assert looked_up == []


def test_a_run_caches_only_the_tables_its_kernels_read(tmp_path, monkeypatch):
    # the 10-qubit benchmark chain rebuilt at 12 qubits, with 3 times: the
    # caches keep a 16-entry index only for the 4 masks that gather (the X
    # fields on the 4 lowest bits), no phase (no flipping word has Y or Z
    # letters), and per operator one 2^n diagonal for the ZZ bonds and one
    # value per X field; with the one diagonal run's index, the cached tables
    # take 40 bytes per amplitude (the README's count)
    n = 12
    doc = workloads.tfim_chain_document(n, "suzuki4", 1, stop=2.0)
    doc["profiling"] = {"trotter_steps": 2, "n_extra_orders": 3}
    doc["mpf"] = {"step_counts": [1, 2, 4, 8]}
    doc["times"]["points"] = 3
    config = tmp_path / "chain12.json"
    config.write_text(json.dumps(doc))
    owners = {"_flip_table": pauli, "_phase_table": pauli}
    owners.update({"_operator_tables": simulator, "_run_index": simulator})
    built = {name: {} for name in owners}

    def fresh(name):
        build = getattr(owners[name], name).__wrapped__

        @functools.lru_cache(maxsize=None)
        def table(*key):
            built[name][key] = build(*key)
            return built[name][key]

        return table

    for name, owner in owners.items():
        table = fresh(name)
        for module in {owner, simulator}:
            monkeypatch.setattr(module, name, table)
    simulator._set_plan.cache_clear()  # plans hold run indices built before
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out.csv")]
    tracemalloc.start(4)
    try:
        assert run_command(argv) == 0
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    flips, phases = built["_flip_table"], built["_phase_table"]
    assert set(flips) == {(1 << bit, 16) for bit in range(4)}
    assert phases == {}
    operators = built["_operator_tables"]
    assert len(operators) == 2  # H and the observable
    for tables in operators.values():
        sizes = dict((flip, diag.size) for flip, diag in tables)
        assert sizes == {0: 1 << n, **{1 << bit: 1 for bit in range(n)}}
    runs = built["_run_index"]
    assert len(runs) == 1 and all(index.size == 1 << n for index in runs.values())
    cached = [*flips.values(), *runs.values()]
    cached += [diag for tables in operators.values() for _, diag in tables]
    assert sum(table.nbytes for table in cached) >> n == 40
    # what stays allocated from a frame in pauli: a few KiB of masks and terms
    ours = [tracemalloc.Filter(True, pauli.__file__, all_frames=True)]
    held = sum(stat.size for stat in snapshot.filter_traces(ours).statistics("filename"))
    assert held < 64 << 10


def test_flip_views_keep_within_numpys_axis_limit():
    # one axis per run of flipped or kept bits: alternating bits at 20 qubits
    # make 20 axes, a run of flipped bits one reversed axis
    shape, index = simulator._flip_axes(int("10" * 10, 2), 20)
    assert shape == (2,) * 20
    assert [s.step for s in index] == [-1, None] * 10
    keep, flip = slice(None), slice(None, None, -1)
    assert simulator._flip_axes(0b11110000, 12) == ((16, 16, 16), (keep, flip, keep))
    assert simulator._flip_axes(1 << 11, 12) == ((2, 2048), (flip, keep))
    # the worst mask that reads as a view at 20 qubits, over zero-stride
    # stand-ins that hold no 2^20 amplitudes: rows, the gates' sin columns
    row = np.broadcast_to(np.zeros((), complex), (4, 1 << 20))
    sin = np.zeros((7, 4, 1), complex)
    mask = int("01" * 8, 2) << 4  # bits 18, 16, ..., 4
    perm, read, target, factor = simulator._flip_operands(mask, row, row, sin)
    assert perm is None
    assert read.shape == target.shape == (4,) + (2,) * 16 + (16,)
    assert factor.shape == (7, 4) + (1,) * 17
    assert factor.ndim == 19
    # at most n + 2 axes (rows, gates and one per bit): numpy 1.24 holds 32
    assert MAX_QUBITS + 2 <= 32


@st.composite
def repeating_sequences(draw):
    """Sequences over a few words, so words recur with other words between."""
    n = draw(st.integers(1, 6))
    word = st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})
    pool = draw(st.lists(word, min_size=1, max_size=4))
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, words, rows, np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(repeating_sequences())
def test_folded_sequences_match_the_looped_circuits(case):
    n, words, rows, rng = case
    psi = random_state(rng, n)
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in set(words)])
    batched = alone(psi, words, angles, obs)
    np.testing.assert_allclose(batched, looped_values(psi, words, angles, obs), rtol=0, atol=TOL)


@pytest.mark.parametrize(
    "words, kept",
    [
        (["X", "Z", "X"], ["X", "Z", "X"]),  # Z anticommutes with X
        (["XXI", "IYY", "XXI"], ["XXI", "IYY", "XXI"]),  # one clash: anticommute
        (["ZZI", "IZZ", "ZZI"], ["ZZI", "IZZ"]),
        (["XX", "YY", "XX"], ["XX", "YY"]),  # two clashes: commute
    ],
)
def test_a_word_folds_only_past_commuting_gates(words, kept):
    angles = np.array([[0.1, 0.2, 0.4], [0.3, -0.5, 0.7]])
    folded_words, folded_angles = folded(words, angles)
    assert folded_words == kept
    if len(kept) == 2:
        assert np.array_equal(folded_angles, [[0.1 + 0.4, 0.2], [0.3 + 0.7, -0.5]])
    else:
        assert np.array_equal(folded_angles, angles)


def engine_calls(words):
    psi = random_state(np.random.default_rng(0), 2)
    angles = np.full((2, len(words)), 0.3)
    obs = OperatorSum.from_terms([PauliTerm("ZZ")])
    return {
        "alone": lambda: alone(psi, words, angles, obs),
        "sample_branches": lambda: sample_branches(psi, [(1, [(words, angles)] * 2)], obs),
    }


@pytest.mark.parametrize("engine", ["alone", "sample_branches"])
@pytest.mark.parametrize(
    "words, error, message",
    [
        (["XZ", "QZ"], ValueError, "invalid Pauli letters"),
        (["XZ", "ZZZ"], DimensionMismatchError, "'ZZZ' does not act on 2 qubits"),
    ],
    ids=["letter", "length"],
)
def test_the_engine_checks_its_words(engine, words, error, message):
    with pytest.raises(error, match=message):
        engine_calls(words)[engine]()


@st.composite
def branching_cases(draw):
    """A random table over a Z, an X and a one-word fragment, its four probe
    variants in any order, and rows in chunks of ``chunk`` with a ragged last
    one, run on ``workers`` threads."""
    n = draw(st.integers(2, 5))

    def words(letters: str, most: int):
        word = st.text(letters, min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})
        return st.lists(word, min_size=1, max_size=most, unique=True)

    fragments = [draw(words("IZ", 3)), draw(words("IX", 3)), draw(words("IXYZ", 1))]
    raw = draw(st.lists(st.tuples(st.integers(0, 2), st.floats(0.1, 1.0)), max_size=6))
    raw += [(k, 0.5) for k in draw(st.permutations(range(3)))]
    sums = {k: sum(c for i, c in raw if i == k) for k in range(3)}
    formula = ProductFormula(tuple((k, c / sums[k]) for k, c in raw))
    chunk = draw(st.integers(2, 5))
    rows = chunk * draw(st.integers(1, 3)) + draw(st.integers(1, chunk - 1))
    variants = tuple(draw(st.permutations((1, 2, 3, 4))))
    workers = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return n, fragments, formula, draw(steps), variants, chunk, rows, workers, rng


@settings(max_examples=100, deadline=None)
@given(branching_cases())
def test_shared_trunks_give_the_bits_of_each_batch_alone(case):
    n, fragments, formula, depth, variants, chunk, rows, workers, rng = case
    partition = PartitionedHamiltonian(
        tuple(
            Fragment(OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words]))
            for words in fragments
        ),
        n,
    )
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in sum(fragments, [])])
    cfg = ProfilingConfig(formula, partition, obs, random_state(rng, n), trotter_steps=depth)
    a, t = rng.uniform(-0.5, 1.5, rows), rng.uniform(0.05, 1.5, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "BATCH_AMPLITUDES", chunk << n)
        patch.setattr(simulator, "WORKERS", workers)
        # threads switch often, so a chunk that wrote another's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shared = composite_expectations(a, t, variants, cfg)
        finally:
            sys.setswitchinterval(interval)
        patch.setattr(simulator, "WORKERS", 1)
        sets = list(sweep_sets(a, t, cfg, variants))
        each = [
            alone(cfg.initial_state, words, angles, obs)
            for _, batches in sets
            for words, angles in batches
        ]
    assert np.array_equal(shared, np.column_stack(each))
    # consecutive variants that open with the same segment share it
    pairs = sum(1 for v, w in zip(variants, variants[1:]) if (v > 2) == (w > 2))
    assert len(sets) == 4 - pairs


@st.composite
def branch_calls(draw):
    """Several branch sets over one register and one set of rows: each set a
    trunk of ``seam`` random words and one to three branches past it, any of
    which may end at the seam, rows in chunks of ``chunk`` with a ragged last
    one, groups of at most ``budget`` angles, run on ``workers`` threads."""
    n = draw(st.integers(1, 4))
    word = st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})
    shapes = []
    for _ in range(draw(st.integers(1, 5))):
        trunk = draw(st.lists(word, max_size=4))
        branches = draw(st.lists(st.lists(word, max_size=5), min_size=1, max_size=3))
        shapes.append((trunk, branches))
    chunk = draw(st.integers(1, 4))
    rows = chunk * draw(st.integers(0, 3)) + draw(st.integers(1, chunk))
    budget = draw(st.integers(1, 300))
    workers = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for trunk, branches in shapes:
        head = rng.uniform(-3.0, 3.0, (rows, len(trunk)))
        batches = [
            (trunk + words, np.hstack([head, rng.uniform(-3.0, 3.0, (rows, len(words)))]))
            for words in branches
        ]
        sets.append((len(trunk), batches))
    # a term that stays when no word is drawn
    words = {"Z" * n} | {w for _, batches in sets for sequence, _ in batches for w in sequence}
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in sorted(words)])
    return random_state(rng, n), sets, obs, chunk, budget, workers


@settings(max_examples=100, deadline=None)
@given(branch_calls())
def test_a_call_of_many_sets_gives_the_bits_of_each_batch_alone(case):
    psi, sets, obs, chunk, budget, workers = case
    each = [alone(psi, words, angles, obs) for _, batches in sets for words, angles in batches]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "BATCH_AMPLITUDES", chunk << psi.n)
        patch.setattr(simulator, "MAX_ANGLES", budget)
        patch.setattr(simulator, "WORKERS", workers)
        # threads switch often, so a chunk that wrote another's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            values = sample_branches(psi, iter(sets), obs)
        finally:
            sys.setswitchinterval(interval)
    assert np.array_equal(values, np.column_stack(each))


def test_a_call_holds_one_group_of_angles_and_the_next_set(monkeypatch):
    # sets of 2 rows of alternating X and Z words, which fold nothing, so a
    # kernel loop's folded length names its set; groups of at most 100 angles
    monkeypatch.setattr(simulator, "MAX_ANGLES", 100)
    monkeypatch.setattr(simulator, "WORKERS", 1)
    lengths = [20, 21, 15, 75, 10, 11, 12, 13, 14, 45]
    sizes = [2 * length for length in lengths]
    groups, group = [], []
    for i, size in enumerate(sizes):
        if group and sum(sizes[j] for j in group) + size > 100:
            groups.append(group)
            group = []
        group.append(i)
    groups.append(group)
    assert groups == [[0, 1], [2], [3], [4, 5, 6, 7], [8], [9]]
    psi = random_state(np.random.default_rng(9), 2)
    obs = OperatorSum.from_terms([PauliTerm("ZZ"), PauliTerm("XI")])
    alive = weakref.WeakValueDictionary()

    def sets():
        rng = np.random.default_rng(10)
        for i, length in enumerate(lengths):
            angles = rng.uniform(-3.0, 3.0, (2, length))
            alive[i] = angles
            yield 0, [((["XI", "ZI"] * length)[:length], angles)]

    seen = []
    evolve = simulator._evolve_steps

    def recording(amps, words, *args):
        seen.append((lengths.index(len(words)), sorted(alive)))
        return evolve(amps, words, *args)

    monkeypatch.setattr(simulator, "_evolve_steps", recording)
    sample_branches(psi, sets(), obs)
    for running, held in seen:
        (k,) = [k for k, group in enumerate(groups) if running in group]
        # the running group, and the set that opens the next one: pulled to
        # learn that it does not fit, it waits with its angles built
        assert held == groups[k] + (groups[k + 1][:1] if k + 1 < len(groups) else [])
        assert sum(sizes[i] for i in groups[k]) <= 100 or len(groups[k]) == 1
    assert sorted({running for running, _ in seen}) == list(range(len(lengths)))


def test_branches_must_share_their_rows_and_trunk():
    psi = random_state(np.random.default_rng(1), 2)
    words = ["XZ", "ZZ", "YX"]
    angles = np.full((3, 3), 0.3)
    obs = OperatorSum.from_terms([PauliTerm("ZZ")])
    other = angles.copy()
    other[1, 1] = 0.4
    for batches in (
        [(words, angles), (words, angles[:2])],
        [(words, angles), (["XZ", "XX", "YX"], angles)],
        [(words, angles), (words, other)],
    ):
        with pytest.raises(DimensionMismatchError, match="first 2 gates"):
            sample_branches(psi, [(2, batches)], obs)
    # past the seam the branches may differ
    values = sample_branches(psi, [(1, [(words, angles), (words, other)])], obs)
    assert np.array_equal(values[:, 1], alone(psi, words, other, obs))


def test_a_diagonal_run_past_the_trunk_stays_in_the_branches():
    # ZI ends the shared gates; the first branch runs it with IZ as one
    # diagonal step, the second alone, so only XI is evolved once
    psi = random_state(np.random.default_rng(2), 2)
    shared = ["XI", "ZI"]
    sequences = (shared + ["IZ", "XX"], shared + ["YY", "IZ"])
    rng = np.random.default_rng(3)
    head = rng.uniform(-3.0, 3.0, size=(5, 2))
    batches = [(words, np.hstack([head, rng.uniform(-3.0, 3.0, size=(5, 2))])) for words in sequences]
    obs = OperatorSum.from_terms([PauliTerm("ZZ"), PauliTerm("XY", 0.5)])
    each = [alone(psi, words, angles, obs) for words, angles in batches]
    assert np.array_equal(sample_branches(psi, [(2, batches)], obs), np.column_stack(each))
    assert simulator._set_plan(tuple(map(tuple, sequences)), 2).trunk == (1, 1)
    assert engine_counts(sequences, 2) == (1 + 3 + 3, 1 + 2 + 3)


def test_a_batch_that_ends_at_its_seam_keeps_its_last_step_out_of_the_trunk():
    # the first batch ends at the seam, so its last step scales its rows by
    # the cosines they deferred, where the second batch's IXII does not: the
    # trunk stops before it, and the set evolves one more folded gate and one
    # more kernel step per row than a trunk of both would (8 and 6).  No
    # command builds such a set: every probe and constituent batch of a set
    # runs past its seam
    psi = random_state(np.random.default_rng(7), 4)
    words = ["XIII", "IXII", "IIXI", "IIIX", "ZZII", "IZZI", "IIZZ", "YIII"]
    sequences = (words[:2], words)
    rng = np.random.default_rng(8)
    head = rng.uniform(-3.0, 3.0, size=(5, 2))
    batches = [(words[:2], head), (words, np.hstack([head, rng.uniform(-3.0, 3.0, size=(5, 6))]))]
    obs = OperatorSum.from_terms([PauliTerm("ZZZZ"), PauliTerm("XYXY", 0.5)])
    each = [alone(psi, words, angles, obs) for words, angles in batches]
    assert np.array_equal(sample_branches(psi, [(2, batches)], obs), np.column_stack(each))
    assert simulator._set_plan(tuple(map(tuple, sequences)), 2).trunk == (1, 1)
    # per row: the trunk's XIII, the first batch's IXII and the second's
    # seven gates past XIII, as four flips and one diagonal run of three
    assert engine_counts(sequences, 2) == (1 + 1 + 7, 1 + 1 + 5)


def test_a_lone_batch_gives_the_same_bits_at_any_seam(monkeypatch):
    # suzuki4 is symmetric, so its sweep is one batch, variant 1, whose
    # seam ends the forward((1-a)t) segment: the trunk is evolved in place,
    # then the rest of the sequence, in chunks of 4 rows on 2 threads
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 4 << 4)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    cfg = CONFIGS["tfim-suzuki4"]
    rng = np.random.default_rng(6)
    ((seam, [batch]),) = sweep_sets(rng.uniform(-0.5, 1.5, 10), rng.uniform(0.05, 1.5, 10), cfg)
    assert seam > 0
    words = batch[0]
    psi, obs = cfg.initial_state, cfg.observable
    values = {}
    for cut in (seam, 0):
        runs = evolved_sequences(
            lambda: values.setdefault(cut, sample_branches(psi, [(cut, [batch])], obs))
        )
        assert len(runs) == 3 * (2 if cut else 1)
    assert np.array_equal(values[seam], values[0])
    assert engine_counts([words], seam) == engine_counts([words], 0)


def test_a_lost_norm_in_one_chunk_fails_in_the_caller(tmp_path, monkeypatch, capsys):
    # the second chunk checked loses its norm, on the calling thread or on a worker
    check = simulator._check_norms
    calls = itertools.count()

    def losing(amps, scratch):
        if next(calls) == 1:
            amps *= 2.0
        check(amps, scratch)

    monkeypatch.setattr(simulator, "_check_norms", losing)
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 4 << 2)
    psi = random_state(np.random.default_rng(4), 2)
    words, angles = ["XZ", "ZZ", "YX"], np.full((10, 3), 0.3)
    obs = OperatorSum.from_terms([PauliTerm("ZZ")])
    argv = ["run", "--preset", "tfim-ruth3", "--out", str(tmp_path / "out.csv")]
    codes = []
    for workers in (1, 2):
        monkeypatch.setattr(simulator, "WORKERS", workers)
        calls = itertools.count()
        with pytest.raises(DegenerateInputError, match="lost normalization"):
            alone(psi, words, angles, obs)
        calls = itertools.count()
        codes.append(run_command(argv))
        assert "batched evolution lost normalization" in capsys.readouterr().err
    assert codes == [1, 1]

    # the second of four constituent sets loses its norm, in a call whose
    # sets are groups of their own: the later groups never start
    monkeypatch.setattr(simulator, "_check_norms", check)
    doc = {"preset": "tfim-ruth3", "mpf": {"step_counts": [1, 2, 3, 4]}}
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    cfg = parse_config(config.read_text())
    lengths = [
        len(simulator._fold_plan(tuple(batches[0][0]))[0])
        for _, batches in constituent_sets((), cfg.mpf_step_counts, cfg)
    ]
    evolve, engine, evolved = simulator._evolve_steps, simulator.sample_branches, []

    def losing_second(amps, words, *args):
        evolved.append(len(words))
        evolve(amps, words, *args)
        if len(words) == lengths[1]:
            amps *= 2.0

    def set_per_group(state, sets, obs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "MAX_ANGLES", 1)
            return engine(state, sets, obs)

    monkeypatch.setattr(simulator, "_evolve_steps", losing_second)
    monkeypatch.setattr(mpf, "sample_branches", set_per_group)
    argv = ["run", "--config", str(config), "--method", "mpf", "--out", str(tmp_path / "mpf.csv")]
    for workers in (1, 2):
        monkeypatch.setattr(simulator, "WORKERS", workers)
        evolved.clear()
        assert run_command(argv) == 1
        assert "batched evolution lost normalization" in capsys.readouterr().err
        assert set(evolved) == set(lengths[:2])


def test_calls_of_one_chunk_of_amplitudes_start_no_thread(tmp_path, monkeypatch):
    # every engine call of a preset run holds at most BATCH_AMPLITUDES
    # amplitudes over all its sets, so it stays on the calling thread
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(simulator, "WORKERS", 2)
    monkeypatch.setattr(simulator.threading.Thread, "start", refuse)
    out = str(tmp_path / "out.csv")
    assert run_command(["run", "--preset", "tfim-ruth3", "--out", out]) == 0
    # in chunks of 4 rows the same run starts helpers
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 4 << 4)
    with pytest.raises(AssertionError, match="a thread was started"):
        run_command(["run", "--preset", "tfim-ruth3", "--out", out])


def test_a_call_of_sets_past_one_chunk_of_amplitudes_starts_helper_threads(monkeypatch):
    # each set is one chunk of 8 rows; two of them pass the gate together
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 8 << 2)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    started, start = [], threading.Thread.start

    def starting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(simulator.threading.Thread, "start", starting)
    rng = np.random.default_rng(7)
    psi = random_state(rng, 2)
    obs = OperatorSum.from_terms([PauliTerm("ZZ"), PauliTerm("XY", 0.5)])
    sets = [(0, [(["XZ", "ZZ", "YX"], rng.uniform(-3.0, 3.0, (8, 3)))]) for _ in range(2)]
    each = [alone(psi, *batches[0], obs) for _, batches in sets]
    assert started == []
    assert np.array_equal(sample_branches(psi, sets, obs), np.column_stack(each))
    # two workers: the calling thread and one helper, joined before the return
    assert started == ["trotterprof-chunk"]
    assert chunk_threads() == []
    # one worker runs the same call on the calling thread
    monkeypatch.setattr(simulator, "WORKERS", 1)
    assert np.array_equal(sample_branches(psi, sets, obs), np.column_stack(each))
    assert started == ["trotterprof-chunk"]


def xxz_chain_document(n: int) -> dict:
    """An open XXZ chain on ``n`` qubits, ruth3, with a ``YY`` observable term."""

    def site(q: int, body: str) -> str:
        return ("I" * q + body).ljust(n, "I")

    bonds = list(range(0, n - 1, 2)) + list(range(1, n - 1, 2))
    terms = [
        {"pauli": site(b, p + p), "coeff": 1.0 - 0.3 * (p == "Z")} for b in bonds for p in "XYZ"
    ]
    even = 3 * len(range(0, n - 1, 2))
    observable = [{"pauli": site(q, "Z"), "coeff": 0.5 - 0.1 * q} for q in range(n)]
    return {
        "system": {"num_qubits": n, "hamiltonian": terms},
        "partition": [list(range(even)), list(range(even, len(terms)))],
        "formula": "ruth3",
        "initial_state": {"factors": [[[1.0, 0.1 * q], [0.5, -0.2]] for q in range(n)]},
        "observable": observable + [{"pauli": site(n - 2, "YY"), "coeff": 0.3}],
        "times": {"values": [0.5, 1.0]},
    }


def test_plans_and_phase_tables_are_built_on_the_calling_thread(tmp_path, monkeypatch):
    # a cold run of an 8-qubit XXZ chain in chunks of 1 row on two threads:
    # each YY bond flips bits and has Y letters, so it needs a phase table;
    # the calling thread builds each set's plan as it pulls the set, and the
    # set's phase tables before any chunk starts, so no helper misses in
    # either cache, and no two threads build one table at once
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 1 << 8)
    monkeypatch.setattr(simulator, "WORKERS", 2)
    built, ran, helped = [], set(), threading.Event()

    def fresh(name, build):
        @functools.lru_cache(maxsize=None)
        def cached(*key):
            built.append((name, threading.current_thread().name))
            return build(*key)

        return cached

    plan = fresh("_set_plan", simulator._set_plan.__wrapped__)
    phase = fresh("_phase_table", _phase_table.__wrapped__)
    monkeypatch.setattr(simulator, "_set_plan", plan)
    for module in (pauli, simulator):
        monkeypatch.setattr(module, "_phase_table", phase)
    evolve = simulator._evolve_steps

    def recording(*args):
        name = threading.current_thread().name
        ran.add(name)
        if name == "MainThread" and chunk_threads():
            helped.wait(timeout=10)  # a helper evolves first, into any cold cache
        evolve(*args)
        if name == "trotterprof-chunk":
            helped.set()

    monkeypatch.setattr(simulator, "_evolve_steps", recording)
    config = tmp_path / "xxz8.json"
    config.write_text(json.dumps(xxz_chain_document(8)))
    assert run_command(["run", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert ran == {"MainThread", "trotterprof-chunk"}
    assert {name for name, _ in built} == {"_set_plan", "_phase_table"}
    assert {thread for _, thread in built} == {"MainThread"}


def test_a_failing_chunk_stops_the_pulls_and_every_helper_is_joined(monkeypatch):
    # six jobs on two threads; the helper's job raises while the caller's
    # waits for the helper to end, so exactly two jobs run
    monkeypatch.setattr(simulator, "WORKERS", 2)
    ran, busy = [], threading.Event()

    def chunk(start):
        ran.append(start)
        if threading.current_thread().name == "trotterprof-chunk":
            busy.wait(5.0)
            raise ValueError("helper chunk")
        busy.set()
        for helper in chunk_threads():
            helper.join(5.0)

    with pytest.raises(ValueError, match="helper chunk"):
        simulator._map_chunks([(chunk, start) for start in range(6)], 1 << 20)
    assert len(ran) == 2 and chunk_threads() == []
    # the caller's chunk raises: the helper finishes its own chunk first
    raised, finished = threading.Event(), threading.Event()

    def failing(start):
        if threading.current_thread().name == "trotterprof-chunk":
            raised.wait(5.0)
            time.sleep(0.05)
            finished.set()
        else:
            raised.set()
            raise ValueError("caller chunk")

    with pytest.raises(ValueError, match="caller chunk"):
        simulator._map_chunks([(failing, 0), (failing, 1)], 1 << 20)
    assert finished.is_set() and chunk_threads() == []


def test_every_job_runs_once_on_more_threads_than_cpus(monkeypatch):
    # eight threads pull 400 jobs under a switch interval of a microsecond
    monkeypatch.setattr(simulator, "WORKERS", 8)
    ran = []

    def chunk(start):
        ran.append((start, threading.current_thread().name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        simulator._map_chunks([(chunk, start) for start in range(400)], 1 << 20)
        assert time.perf_counter() - started < 30.0
    finally:
        sys.setswitchinterval(interval)
    assert sorted(start for start, _ in ran) == list(range(400))
    assert {name for _, name in ran} <= {"MainThread", "trotterprof-chunk"}
    assert chunk_threads() == []


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_an_interrupt_of_the_caller_joins_every_helper_first(monkeypatch):
    # the helper interrupts the caller, which waits for it in join, and then
    # finishes its chunk; the interrupt reaches the caller only after that
    monkeypatch.setattr(simulator, "WORKERS", 2)
    busy, finished = threading.Event(), threading.Event()

    def chunk(start):
        if threading.current_thread().name != "trotterprof-chunk":
            busy.wait(5.0)
            return
        busy.set()
        time.sleep(0.05)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.05)
        finished.set()

    saved = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            simulator._map_chunks([(chunk, 0), (chunk, 1)], 1 << 20)
    finally:
        signal.signal(signal.SIGINT, saved)
    assert finished.is_set() and chunk_threads() == []


def test_the_sets_of_a_call_must_share_their_rows():
    psi = random_state(np.random.default_rng(8), 2)
    obs = OperatorSum.from_terms([PauliTerm("ZZ")])
    sets = [(0, [(["XZ"], np.zeros((3, 1)))]), (0, [(["ZX"], np.zeros((2, 1)))])]
    with pytest.raises(DimensionMismatchError, match="branch sets of 3 and 2 rows"):
        sample_branches(psi, sets, obs)
    with pytest.raises(DegenerateInputError, match="at least one branch set"):
        sample_branches(psi, [], obs)
    with pytest.raises(DegenerateInputError, match="at least one batch"):
        sample_branches(psi, [(0, [])], obs)


def test_a_batch_of_no_rows_gives_no_values(monkeypatch):
    monkeypatch.setattr(simulator, "WORKERS", 2)
    psi = random_state(np.random.default_rng(5), 2)
    words, empty = ["XZ", "ZZ"], np.empty((0, 2))
    obs = OperatorSum.from_terms([PauliTerm("ZZ")])
    assert alone(psi, words, empty, obs).shape == (0,)
    assert sample_branches(psi, [(1, [(words, empty)] * 2)], obs).shape == (0, 2)


def test_a_batch_folds_one_chunk_of_angles_at_a_time(monkeypatch):
    # one worker: chunks on several threads overlap by timing
    monkeypatch.setattr(simulator, "WORKERS", 1)
    cfg = CONFIGS["tfim-suzuki4"]
    peaks = []
    for rows in (20000, 40000):
        ((_, [(words, angles)]),) = constituent_sets(np.linspace(0.1, 2.0, rows), (4,), cfg)
        tracemalloc.start()
        try:
            alone(cfg.initial_state, words, angles, cfg.observable)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the peak beyond the angles is one chunk's and the values' (160 kB more
    # here); folding the whole batch at once took 52 MiB more
    assert peaks[1] - peaks[0] < 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_the_chunks_of_a_call_reuse_their_threads_stacks(monkeypatch, workers):
    # ten rows in chunks of 3, 3, 3 and 1, on a set of two branches: every
    # chunk runs in the four stacks its thread made at its first chunk
    n, rows = 6, 10
    rng = np.random.default_rng(12)
    psi = random_state(rng, n)
    trunk = ["XIIIIZ", "IYIIII"]
    sets = []
    for tail in (["ZZIIII", "IIXXII"], ["IIIIYX"]):
        words = trunk + tail
        angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
        sets.append((words, angles))
    sets[1][1][:, :2] = sets[0][1][:, :2]
    obs = OperatorSum.from_terms([PauliTerm("ZIIIIZ"), PauliTerm("IXXIII", 0.5)])
    expected = np.column_stack([alone(psi, w, a, obs) for w, a in sets])
    monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 3 << n)
    monkeypatch.setattr(simulator, "WORKERS", workers)
    evolve, seen = simulator._evolve_steps, []

    def recording(amps, words, rotations, steps, scratch):
        seen.append((threading.current_thread().name, amps, *scratch))
        evolve(amps, words, rotations, steps, scratch)

    monkeypatch.setattr(simulator, "_evolve_steps", recording)
    values = sample_branches(psi, [(2, sets)], obs)
    assert np.array_equal(values, expected)
    slabs = {}
    for thread, *stacks in seen:
        owners = (stack if stack.base is None else stack.base for stack in stacks)
        slabs.setdefault(thread, set()).update(map(id, owners))
    assert all(len(bases) == 1 for bases in slabs.values())
    assert len(seen) == 3 * 4  # trunk and two branches per chunk


def test_one_primitive_gathers_amplitudes_by_a_flip_table():
    # the table format belongs to the engine; callers pass Pauli words, and
    # only the engine builds phases, kept or not.  The one gather by a flip
    # mask is ``pauli._flip_product``; the other take reads a diagonal run's
    # table of phase products at its ``_run_index``
    package = Path(trotterprof.__file__).parent
    users, takes, indexed = set(), set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if names & {"_flip_table", "_phase_table", "_phase"}:
            users.add(path.stem)
        for top in tree.body:
            for node in ast.walk(top):
                call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                if call and node.func.attr == "take":
                    takes.add((path.stem, top.name, ast.unparse(node.args[0])))
                if isinstance(node, ast.Subscript):
                    for part in ast.walk(node.slice):
                        if isinstance(part, ast.Name) and part.id in ("perm", "_flip_table"):
                            indexed.add((path.stem, top.name))
    assert users == {"pauli", "simulator"}
    assert takes == {("pauli", "_flip_product", "perm"), ("simulator", "_evolve_steps", "index")}
    assert indexed == set()


def test_only_sample_branches_evolves_a_batch():
    # one evolve path: no other function folds a batch's angles or runs the
    # kernel loop on it, in the engine or beside it
    package = Path(trotterprof.__file__).parent
    users = {name: set() for name in ("_evolve_steps", "_folded_angles")}
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in users:
                    users[name].add((path.stem, getattr(top, "name", None)))
    assert users == {name: {("simulator", "sample_branches")} for name in users}


def test_no_module_imports_concurrent_or_logging():
    # an engine call starts its own helper threads, so a cold run pays for
    # neither import (about 7.5 ms of a cold process)
    package = Path(trotterprof.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] in {"concurrent", "logging"} for module in modules):
                importers.add(path.stem)
    assert importers == set()


CHILD_RUN = """
import json, sys, threading
from trotterprof import simulator
from trotterprof.cli import run_command

simulator.WORKERS = 2  # the same calls on a machine of one CPU
started, start = [], threading.Thread.start

def counting(thread):
    started.append(thread.name)
    start(thread)

threading.Thread.start = counting
code = run_command(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = [name for name in ("concurrent.futures", "logging") if name in sys.modules]
print(json.dumps({"code": code, "started": started, "loaded": loaded}))
"""


def test_a_run_that_starts_helpers_imports_neither_concurrent_nor_logging(tmp_path):
    # a fresh process: the 8-qubit benchmark chain calibrates and sweeps on helpers
    doc = workloads.chain8_calibrated(1)
    doc["times"] = {"values": [0.5, 1.0]}
    config = tmp_path / "chain8.json"
    config.write_text(json.dumps(doc))
    src = Path(trotterprof.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", CHILD_RUN, str(config), str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stderr == ""
    report = json.loads(done.stdout.splitlines()[-1])  # after the lines run prints
    assert report["code"] == 0 and report["loaded"] == []
    assert report["started"] and set(report["started"]) == {"trotterprof-chunk"}


def test_only_the_row_buffer_sets_the_ufunc_buffer_size():
    # the size is numpy state of the calling thread: one place sets it and
    # restores the caller's
    package = Path(trotterprof.__file__).parent
    setters = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "setbufsize":
                    setters.add((path.stem, getattr(top, "name", None)))
    assert setters == {("simulator", "_row_buffer")}


def evolved_sequences(evaluate) -> list[tuple[tuple[str, ...], int]]:
    """The folded word sequence of each kernel loop run while ``evaluate`` runs,
    with the index of the loop's first kernel step."""
    sequences = []
    evolve = simulator._evolve_steps

    def recording(amps, words, rotations, steps, *args):
        sequences.append((tuple(words), steps[0][0] if steps else None))
        return evolve(amps, words, rotations, steps, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_evolve_steps", recording)
        evaluate()
    return sequences


def test_folding_removes_the_repeated_commuting_fragment():
    # suzuki4 is built from Strang halves, so its steps apply the ZZ fragment
    # twice in a row; the gate counts of the compiled circuits are
    # 100, 150, 560 and 140/280/560/1120.  A lone probe batch runs two kernel
    # loops, its trunk and then the rest; a batch's first loop starts at step 0
    for name, composite in (("tfim-suzuki4", 73), ("xxz-suzuki4", 96)):
        cfg = CONFIGS[name]
        loops = evolved_sequences(lambda: composite_expectations([0.3], [0.5], (1,), cfg))
        assert [len(words) for words, first in loops if first == 0] == [composite]
    chain = parse_config(json.dumps(workloads.chain10_pinned(1)))
    loops = evolved_sequences(lambda: composite_expectations([0.3], [0.5], (1,), chain))
    loops += evolved_sequences(lambda: mpf_values([0.5], (1, 2, 4, 8), chain))
    sequences = [words for words, first in loops if first == 0]
    # the constituents of counts 1, 2, 4 and 8 run in one call, longest first
    assert [len(words) for words in sequences] == [389, 769, 389, 199, 104]
    # each diagonal run is one kernel step: the chain's folded ZZ fragment is
    # a run of its nine bonds, so the composite is 200 single gates and 21 runs
    plans = [simulator._step_plan(words)[0] for words in sequences]
    assert [len(plan) for plan in plans] == [221, 441, 221, 111, 56]
    assert [stop - start for start, stop, i, _ in plans[0] if i is not None] == [9] * 21
    assert len({id(i) for plan in plans for _, _, i, _ in plan if i is not None}) == 1


def h_applications(monkeypatch, cfg) -> int:
    """Applications of ``H`` in ``exact_values(cfg.times, cfg)``, without the observable's."""
    calls = []
    apply, h = simulator._apply_operator, simulator._operator_tables(cfg.partition.hamiltonian)

    def counting(*args):
        calls.append(args[0] is h)
        return apply(*args)

    monkeypatch.setattr(simulator, "_apply_operator", counting)
    exact_values(cfg.times, cfg)
    monkeypatch.setattr(simulator, "_apply_operator", apply)
    return sum(calls)


def test_the_exact_column_applies_h_once_per_chebyshev_term(monkeypatch):
    # one window each: ||H||_1 * t_max is 4.3 (tfim), 7 (xxz), 9.7 (chain8)
    # and 24.7 (chain10); a window of K terms applies H K - 1 times
    docs = {name: CONFIGS[name] for name in PRESETS}
    docs["chain8-calibrated"] = parse_config(json.dumps(workloads.chain8_calibrated(1)))
    docs["chain10-pinned"] = parse_config(json.dumps(workloads.chain10_pinned(1)))
    counts = {name: h_applications(monkeypatch, cfg) for name, cfg in docs.items()}
    assert counts == {
        "tfim-ruth3": 26,
        "tfim-suzuki4": 26,
        "xxz-ruth3": 32,
        "xxz-suzuki4": 32,
        "chain8-calibrated": 37,
        "chain10-pinned": 62,
    }


FAR_TIMES = {
    # ||H||_1 * t is 217 (tfim-ruth3, t = 50) and 247 (the 10-qubit chain, t = 20)
    "tfim-ruth3": (CONFIGS["tfim-ruth3"], 50.0, 330),
    "chain10": (
        parse_config(json.dumps(workloads.tfim_chain_document(10, "suzuki4", 1, stop=2.0))),
        20.0,
        371,
    ),
}


@pytest.mark.parametrize("name", sorted(FAR_TIMES))
def test_a_far_time_is_one_window(monkeypatch, name):
    # one expansion over the whole gap: K - 1 applications of H for its K terms
    cfg, t, count = FAR_TIMES[name]
    h, psi = cfg.partition.hamiltonian, cfg.initial_state
    calls = []
    apply = simulator._apply_operator

    def counting(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(simulator, "_apply_operator", counting)
    row = exact_states(h, [t], psi)[0]
    assert len(calls) == count
    assert np.max(np.abs(row - simulator.exact_unitary(h, t) @ psi.amplitudes)) <= 1e-10


def test_the_exact_column_holds_no_stack_beside_its_output():
    cfg = parse_config(json.dumps(workloads.tfim_chain_document(12, "suzuki4", 1, stop=2.0)))
    h, psi, times = cfg.partition.hamiltonian, cfg.initial_state, cfg.times
    exact_states(h, times, psi)  # fills the operator's table cache
    tracemalloc.start()
    try:
        exact_states(h, times, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and at most eight states of scratch and coefficients
    assert peak <= (len(times) + 8) * 16 * (1 << 12)


def test_the_exact_values_hold_one_stack_of_states():
    # the exact column is measured in chunks of ACCUMULATE_AMPLITUDES, one
    # row at 12 qubits; measuring the whole stack at once held three stacks
    cfg = parse_config(json.dumps(workloads.tfim_chain_document(12, "suzuki4", 1, stop=2.0)))
    h, psi, times = cfg.partition.hamiltonian, cfg.initial_state, cfg.times
    whole = simulator.expectation_rows(exact_states(h, times, psi), cfg.observable)
    tracemalloc.start()
    try:
        values = exact_values(times, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, whole)
    assert peak < 1.5 * len(times) * 16 * (1 << 12)


@pytest.mark.parametrize(
    "profiling, counts",
    [({}, [1, 2]), ({"trotter_steps": 2}, [1, 2]), ({"trotter_steps": 3}, [1, 2, 3])],
)
def test_run_evolves_each_trotter_depth_once(tmp_path, monkeypatch, profiling, counts):
    # the trotter curve reads the mpf batch of its depth when the counts hold it
    depths = []
    sets = trotterprof.mpf.constituent_sets

    def recording(times, step_counts, config):
        for count, branch_set in zip(step_counts, sets(times, step_counts, config)):
            depths.append(count)
            yield branch_set

    monkeypatch.setattr(trotterprof.mpf, "constituent_sets", recording)
    config = tmp_path / "doc.json"
    config.write_text(json.dumps({"preset": "tfim-ruth3", "profiling": profiling}))
    assert run_command(["run", "--config", str(config)]) == 0
    assert sorted(depths) == counts


def test_run_at_13_qubits_uses_the_matrix_free_exact_column(tmp_path):
    # the dense exact column capped run at 12 qubits
    doc = workloads.tfim_chain_document(13, "ruth3", 1, stop=1.0)
    doc["times"] = {"values": [0.1, 0.3]}
    config, out = tmp_path / "chain13.json", tmp_path / "chain13.csv"
    config.write_text(json.dumps(doc))
    argv = ["run", "--config", str(config), "--method", "trotter", "--out", str(out)]
    assert run_command(argv) == 0
    cfg = parse_config(json.dumps(doc))
    rows = read_csv(out).rows
    assert [row.t for row in rows] == [0.1, 0.3]
    for row in rows:
        state = exact_evolve(cfg.partition.hamiltonian, row.t, cfg.initial_state)
        assert abs(row.exact - expectation(state, cfg.observable)) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    presets,
    st.integers(1, 4),
    st.lists(st.tuples(split, times), min_size=1, max_size=5),
    steps,
)
def test_composite_values_match_the_looped_circuits(name, variant, points, n):
    cfg = CONFIGS[name]
    a_values, t_values = zip(*points)
    batched = composite_expectations(
        a_values, t_values, (variant,), replace(cfg, trotter_steps=n)
    )
    assert batched.shape == (len(points), 1)
    for (a, t), value in zip(points, batched[:, 0]):
        assert abs(value - looped_composite(cfg, variant, a, t, n)) <= TOL


@settings(max_examples=20, deadline=None)
@given(presets, st.lists(times, min_size=1, max_size=6, unique=True), steps)
def test_trotter_curve_matches_the_looped_circuits(name, ts, n):
    cfg = replace(CONFIGS[name], times=tuple(sorted(ts)), trotter_steps=n)
    curve = run_error_curve(cfg, "trotter")
    for point in curve.points:
        assert abs(point.estimate - looped_trotter(cfg, point.t, n)) <= TOL


@settings(max_examples=20, deadline=None)
@given(presets, times, st.sets(st.integers(1, 4), min_size=1, max_size=3))
def test_mpf_estimate_matches_the_looped_circuits(name, t, counts):
    cfg = CONFIGS[name]
    weights = mpf_weights(sorted(counts), cfg.formula.alpha, cfg.formula.symmetric)
    batched = mpf_estimate(mpf_values([t], weights.step_counts, cfg)[0], weights)
    looped = sum(
        w * looped_trotter(cfg, t, s) for w, s in zip(weights.weights, weights.step_counts)
    )
    assert abs(batched - looped) <= TOL


@settings(max_examples=15, deadline=None)
@given(
    presets,
    st.lists(split, min_size=1, max_size=5, unique=True),
    st.lists(times, min_size=2, max_size=3, unique=True),
    steps,
    st.integers(0, 2**32 - 8),
)
def test_noisy_sweep_draws_match_the_looped_path(name, grid, ts, n, seed):
    """Each time of a batched ep curve draws from its own stream, a-major then variant."""
    # an intercept-only basis lets any grid of distinct values be fitted
    cfg = replace(CONFIGS[name], trotter_steps=n, a_grid=tuple(grid), basis=BasisSpec(()))
    sigma = 1e-3

    def jitter(j):
        return GaussianJitter(sigma, np.random.default_rng(seed + j))

    fits = mitigated_estimates(ts, cfg, jitters=[jitter(j) for j in range(len(ts))])
    variants = (1,) if cfg.formula.symmetric else (1, 2, 3, 4)
    for j, (t, fit) in enumerate(zip(ts, fits)):
        own = jitter(j)
        assert [s.a for s in fit.samples] == grid
        for a, sample in zip(grid, fit.samples):
            looped = np.mean([looped_composite(cfg, v, a, t, n, own) for v in variants])
            assert abs(sample.value - looped) <= TOL


@settings(max_examples=10, deadline=None)
@given(presets, st.integers(0, 2**32 - 1))
def test_noisy_trotter_and_mpf_draws_match_the_looped_path(name, seed):
    cfg = replace(
        CONFIGS[name], times=(0.2, 0.5, 0.9), noise_sigma=1e-3, seed=seed, trotter_steps=2
    )
    trotter = run_error_curve(cfg, "trotter")
    for point, jitter in zip(trotter.points, _per_time_jitters(cfg)):
        assert abs(point.estimate - looped_trotter(cfg, point.t, 2, jitter)) <= TOL

    weights = mpf_weights((1, 2, 3), cfg.formula.alpha, cfg.formula.symmetric)
    for t, s in ((0.2, seed), (0.7, seed + 1)):
        batched = mpf_estimate(
            mpf_values([t], weights.step_counts, cfg)[0],
            weights,
            jitter=GaussianJitter(1e-3, np.random.default_rng(s)),
        )
        jitter = GaussianJitter(1e-3, np.random.default_rng(s))
        looped = sum(
            w * looped_trotter(cfg, t, c, jitter)
            for w, c in zip(weights.weights, weights.step_counts)
        )
        assert abs(batched - looped) <= TOL


@settings(max_examples=15, deadline=None)
@given(
    presets,
    st.lists(times, min_size=1, max_size=6, unique=True),
    steps,
    st.none() | st.integers(0, 2**32 - 1),
)
def test_curves_equal_the_per_time_path(name, ts, n, seed):
    """A curve batches all its times; each time keeps the bits of its own run."""
    cfg = replace(CONFIGS[name], times=tuple(sorted(ts)), trotter_steps=n)
    if seed is not None:
        cfg = replace(cfg, noise_sigma=1e-3, seed=seed)
    ep, mpf = run_error_curve(cfg, "ep"), run_error_curve(cfg, "mpf")
    pinned = replace(cfg, basis=profiling.resolve_basis(cfg))
    for point, jitter in zip(ep.points, _per_time_jitters(cfg)):
        assert point.estimate == mitigated_estimate(point.t, pinned, jitter=jitter)[0]
    weights = mpf_weights(cfg.mpf_step_counts, cfg.formula.alpha, cfg.formula.symmetric)
    for point, jitter in zip(mpf.points, _per_time_jitters(cfg)):
        values = mpf_values([point.t], weights.step_counts, cfg)[0]
        assert point.estimate == mpf_estimate(values, weights, jitter=jitter)


def chain6_document() -> dict:
    doc = workloads.tfim_chain_document(6, "ruth3", 1, stop=1.0)
    doc["times"] = {"start": 0.1, "stop": 1.0, "points": 6, "scale": "log"}
    doc["noise"] = {"sigma": 1e-4, "seed": 5}
    return doc


@pytest.mark.parametrize(
    "doc", [{"preset": "tfim-ruth3"}, chain6_document()], ids=["preset", "chain6"]
)
def test_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, doc):
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    tables = set()
    for log2, workers in itertools.product((4, 10, 20), (1, 2, 3)):
        monkeypatch.setattr(simulator, "BATCH_AMPLITUDES", 1 << log2)
        monkeypatch.setattr(simulator, "WORKERS", workers)
        assert worker_count() == workers
        out = tmp_path / f"chunk{log2}-{workers}.csv"
        assert run_command(["run", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        tables.add("".join(ln for ln in lines if not ln.startswith("# generated")))
    assert len(tables) == 1


def test_a_short_grid_fails_before_the_batch_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was simulated before it was checked")

    monkeypatch.setattr(profiling, "composite_expectations", refuse)
    # set with replace, as a calibrated basis is: no config check has seen it
    cfg = replace(CONFIGS["tfim-ruth3"], a_grid=(0.2, 0.7), basis=BasisSpec((5, 6), True))
    with pytest.raises(SingularFitError, match="2 grid points cannot determine 5 parameters"):
        mitigated_estimates([0.3, 0.6], cfg)


def test_batched_estimators_reject_mismatched_inputs():
    cfg = replace(CONFIGS["tfim-ruth3"], basis=BasisSpec(()))
    with pytest.raises(DimensionMismatchError, match="1 jitters for 2 times"):
        mitigated_estimates([0.3, 0.6], cfg, jitters=[None])
    weights = mpf_weights((1, 2), cfg.formula.alpha, False)
    with pytest.raises(DimensionMismatchError, match="for 2 step counts"):
        mpf_estimate([0.5, 0.4, 0.3], weights)
