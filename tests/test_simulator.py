"""Statevector engine: state prep, rotations, circuits, exact evolution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    Circuit,
    DegenerateInputError,
    DimensionMismatchError,
    GaussianJitter,
    HermiticityError,
    OperatorSum,
    PauliRotation,
    PauliTerm,
    StateVector,
    apply_circuit,
    exact_evolve,
    expectation,
    init_product_state,
    invert_circuit,
    to_dense,
)
from trotterprof import simulator
from trotterprof.simulator import (
    circuit_unitary,
    exact_states,
    exact_unitary,
    expectation_rows,
)

from conftest import random_hermitian_sum, random_state


def test_init_single_qubit():
    s = init_product_state([(1, 0)])
    np.testing.assert_allclose(s.amplitudes, [1, 0])


def test_init_normalizes():
    s = init_product_state([(1, 1)])
    np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_init_benchmark_state_carries_global_half(paper_state):
    # Kron of (1,0), (1,i), (1,1), (0,1) has norm 2, so the normalized state
    # is exactly half the raw product.
    raw = np.kron(np.kron(np.kron([1, 0], [1, 1j]), [1, 1]), [0, 1])
    np.testing.assert_allclose(paper_state.amplitudes, raw / 2.0, atol=1e-15)
    assert np.linalg.norm(paper_state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_init_scales_each_factor_exactly():
    # a factor's size drops out, even one whose squares underflow or overflow
    reference = init_product_state([(3.0, 4j), (1, 1), (0.6, -0.8)])
    for tiny, huge in ((2.0**-600, 2.0**700), (1e-320, 1e300)):
        scaled = init_product_state([(3.0 * tiny, 4j * tiny), (huge, huge), (0.6, -0.8)])
        if tiny == 2.0**-600:  # powers of two: the same bits
            assert np.array_equal(scaled.amplitudes, reference.amplitudes)
        else:
            np.testing.assert_allclose(scaled.amplitudes, reference.amplitudes, atol=1e-3)
    np.testing.assert_allclose(init_product_state([(1e-320, 0)]).amplitudes, [1, 0])
    np.testing.assert_allclose(init_product_state([(1e308, 1e308)]).amplitudes, [0.5**0.5] * 2)


def test_init_rejects_zero_factor():
    with pytest.raises(DegenerateInputError):
        init_product_state([(1, 0), (0, 0)])


def rotate(state, word, angle):
    """``exp(-i * angle * P)|state>`` as a one-gate circuit."""
    return apply_circuit(state, Circuit((PauliRotation(word, angle),), state.n))


def test_rotation_pi_half_x():
    s = init_product_state([(1, 0)])
    out = rotate(s, "X", np.pi / 2)
    np.testing.assert_allclose(out.amplitudes, [0, -1j], atol=1e-15)


def test_rotation_zero_angle_is_identity(rng):
    s = random_state(rng, 3)
    out = rotate(s, "XYZ", 0.0)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


@pytest.mark.parametrize("theta", [0.1, 0.37, 1.2])
def test_rotation_z_on_plus_matches_dense_exponential(theta):
    s = init_product_state([(1, 1)])
    out = rotate(s, "Z", theta)
    x_obs = OperatorSum.from_terms([PauliTerm("X")])
    assert expectation(out, x_obs) == pytest.approx(np.cos(2 * theta), abs=1e-12)
    # independent oracle: dense matrix exponential
    gate = scipy.linalg.expm(-1j * theta * np.diag([1.0, -1.0]))
    np.testing.assert_allclose(out.amplitudes, gate @ s.amplitudes, atol=1e-12)


def test_rotation_rejects_identity_word():
    with pytest.raises(DegenerateInputError):
        PauliRotation("II", 0.3)


def test_empty_circuit_is_identity(rng):
    s = random_state(rng, 2)
    out = apply_circuit(s, Circuit((), 2))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


def test_single_gate_circuit_matches_rotation(rng):
    # independent oracle: the dense matrix exponential of the rotation
    s = random_state(rng, 2)
    word = to_dense(OperatorSum.from_terms([PauliTerm("XY")])).matrix
    np.testing.assert_allclose(
        apply_circuit(s, Circuit((PauliRotation("XY", 0.4),), 2)).amplitudes,
        scipy.linalg.expm(-0.4j * word) @ s.amplitudes,
        atol=1e-12,
    )


def test_circuit_inversion_round_trip(rng):
    for _ in range(5):
        n = 3
        gates = []
        while len(gates) < 30:
            word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            if set(word) == {"I"}:
                continue
            gates.append(PauliRotation(word, float(rng.normal())))
        c = Circuit(tuple(gates), n)
        s = random_state(rng, n)
        out = apply_circuit(apply_circuit(s, c), invert_circuit(c))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-10)


def test_norm_preserved_over_long_random_circuits(rng):
    for n in (2, 4, 6):
        gates = []
        while len(gates) < 100:
            word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            if set(word) == {"I"}:
                continue
            gates.append(PauliRotation(word, float(rng.normal())))
        s = random_state(rng, n)
        out = apply_circuit(s, Circuit(tuple(gates), n))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_exact_evolve_zero_time(rng):
    h = random_hermitian_sum(rng, 3, 4)
    s = random_state(rng, 3)
    out = exact_evolve(h, 0.0, s)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.1, 2.7])
def test_exact_evolve_single_qubit_larmor(t):
    h = OperatorSum.from_terms([PauliTerm("Z")])
    s = init_product_state([(1, 1)])
    out = exact_evolve(h, t, s)
    x_obs = OperatorSum.from_terms([PauliTerm("X")])
    assert expectation(out, x_obs) == pytest.approx(np.cos(2 * t), abs=1e-12)


def test_exact_evolve_matches_scaling_and_squaring_oracle(tfim_ruth3, paper_state):
    h = tfim_ruth3.partition.hamiltonian
    t = 0.3
    evolved = exact_evolve(h, t, paper_state)
    oracle = scipy.linalg.expm(-1j * t * to_dense(h).matrix) @ paper_state.amplitudes
    np.testing.assert_allclose(evolved.amplitudes, oracle, atol=1e-9)


def test_exact_evolve_group_property(rng):
    h = random_hermitian_sum(rng, 3, 5)
    s = random_state(rng, 3)
    once = exact_evolve(h, 0.9, s)
    split = exact_evolve(h, 0.5, exact_evolve(h, 0.4, s))
    np.testing.assert_allclose(once.amplitudes, split.amplitudes, atol=1e-10)


@st.composite
def hermitian_pauli_sums(draw):
    n = draw(st.integers(1, 8))
    terms = draw(
        st.lists(
            st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    return OperatorSum.from_terms([PauliTerm(w, c) for w, c in terms], hermitian=True)


evolution_times = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    h=hermitian_pauli_sums(),
    times=st.lists(evolution_times, min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_free_evolution_matches_the_eigh_oracle(h, times, seed):
    psi = random_state(np.random.default_rng(seed), h.n)
    stack = exact_states(h, times, psi)
    for t, row in zip(times, stack):
        oracle = exact_unitary(h, t) @ psi.amplitudes
        assert np.max(np.abs(exact_evolve(h, t, psi).amplitudes - oracle)) <= 1e-12
        assert np.max(np.abs(row - oracle)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    h=hermitian_pauli_sums(),
    times=st.lists(evolution_times, min_size=2, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_stepping_through_times_matches_single_time_calls(h, times, seed):
    psi = random_state(np.random.default_rng(seed), h.n)
    times = sorted(times)
    stack = exact_states(h, times, psi)
    for t, row in zip(times, stack):
        assert np.max(np.abs(row - exact_evolve(h, t, psi).amplitudes)) <= 1e-12


def test_a_long_evolution_still_matches_the_eigh_oracle(tfim_ruth3):
    # ||H||_1 = 13/3, so t = 50 spans 217: one window, whatever its span
    h, psi = tfim_ruth3.partition.hamiltonian, tfim_ruth3.initial_state
    oracle = exact_unitary(h, 50.0) @ psi.amplitudes
    assert np.max(np.abs(exact_evolve(h, 50.0, psi).amplitudes - oracle)) <= 1e-10


def test_too_many_chebyshev_terms_in_total_are_refused(monkeypatch):
    # ||H||_1 = 1: each window spans 7.5e5 and needs about 1.02e6 terms, under
    # the limit, but the two need about 2.04e6, although the reach of 1.5e6
    # is under it too
    def refuse(*args):
        raise AssertionError("H was applied before the guard refused")

    monkeypatch.setattr(simulator, "_apply_operator", refuse)
    h = OperatorSum.from_terms([PauliTerm("X", 1.0)])
    with pytest.raises(DegenerateInputError, match="time 1500000.0 at .* more than"):
        exact_states(h, [7.5e5, 1.5e6], init_product_state([(1, 0)]))


@pytest.mark.parametrize("times", [[3e6], [7.5e5, 1.5e6], [-7.5e5, 7.5e5]])
def test_a_refused_evolution_builds_no_coefficient_table(monkeypatch, times):
    # refused on its reach, on its total terms in one chain, and in two
    def refuse(*args):
        raise AssertionError("a coefficient table was built before the guard refused")

    monkeypatch.setattr(simulator, "_chebyshev_coefficients", refuse)
    h = OperatorSum.from_terms([PauliTerm("X", 1.0)])
    with pytest.raises(DegenerateInputError, match="more than"):
        exact_states(h, times, init_product_state([(1, 0)]))


@st.composite
def windowed_evolutions(draw):
    """A Hermitian sum on at most 6 qubits, a state, and times several windows long."""
    n = draw(st.integers(1, 6))
    word = st.text("IXYZ", min_size=n, max_size=n)
    size = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    terms = draw(st.lists(st.tuples(word, size), min_size=1, max_size=6, unique_by=lambda t: t[0]))
    h = OperatorSum.from_terms([PauliTerm(w, c) for w, c in terms], hermitian=True)
    # spans ||H||_1 * t of up to 4.5 windows, on either side of 0
    spans = draw(st.lists(st.floats(-4.5, 4.5), min_size=1, max_size=6))
    times = [u * simulator.CHEBYSHEV_WINDOW / h.one_norm() for u in spans]
    return h, times, random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@settings(max_examples=40, deadline=None)
@given(case=windowed_evolutions())
def test_evolution_across_several_windows_matches_the_eigh_oracle(case):
    h, times, psi = case
    stack = exact_states(h, times, psi)
    for t, row in zip(times, stack):
        assert np.max(np.abs(row - exact_unitary(h, t) @ psi.amplitudes)) <= 1e-12


def test_exact_evolve_requires_hermitian(rng):
    bad = OperatorSum.from_terms([PauliTerm("Z", 1j)])
    with pytest.raises(HermiticityError):
        exact_evolve(bad, 0.1, init_product_state([(1, 0)]))


def test_exact_evolve_dimension_mismatch():
    h = OperatorSum.from_terms([PauliTerm("ZZ")])
    with pytest.raises(DimensionMismatchError):
        exact_evolve(h, 0.1, init_product_state([(1, 0)]))


def test_expectation_benchmark_observable_on_all_zeros(tfim_ruth3):
    zeros = init_product_state([(1, 0)] * 4)
    assert expectation(zeros, tfim_ruth3.observable) == pytest.approx(1.0, abs=1e-12)


def test_expectation_plus_state_z_vanishes():
    plus = init_product_state([(1, 1)])
    z = OperatorSum.from_terms([PauliTerm("Z")])
    assert expectation(plus, z) == pytest.approx(0.0, abs=1e-12)


def test_expectation_matches_dense_oracle(paper_state):
    obs = OperatorSum.from_terms(
        [PauliTerm("I" * i + "Z" + "I" * (3 - i), 0.25) for i in range(4)]
    )
    dense = to_dense(obs).matrix
    amps = paper_state.amplitudes
    oracle = float(np.real(np.vdot(amps, dense @ amps)))
    assert expectation(paper_state, obs) == pytest.approx(oracle, abs=1e-12)


def test_expectation_requires_hermitian(paper_state):
    bad = OperatorSum.from_terms([PauliTerm("ZIII", 1j)])
    with pytest.raises(HermiticityError):
        expectation(paper_state, bad)


def test_expectation_is_real_on_random_states(rng):
    obs = random_hermitian_sum(rng, 3, 6)
    for _ in range(20):
        value = expectation(random_state(rng, 3), obs)
        assert isinstance(value, float)


@st.composite
def observables(draw):
    """Sums with Y letters, identity terms and same-flip groups, or the zero sum."""
    n = draw(st.integers(1, 10))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=5))
    if draw(st.booleans()):
        words.append("I" * n)
    if n > 1 and draw(st.booleans()):
        site = draw(st.integers(0, n - 2))
        words += ["I" * site + pair + "I" * (n - site - 2) for pair in ("XX", "YY", "ZZ")]
    coeffs = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    terms = [PauliTerm(w, draw(coeffs)) for w in words]
    obs = OperatorSum.from_terms(terms) if terms else OperatorSum.zero(n)
    rows = draw(st.integers(1, 129))
    return obs, rows, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(observables())
def test_expectation_rows_equal_each_row_alone_and_the_dense_oracle(case):
    obs, rows, rng = case
    raw = rng.normal(size=(rows, 1 << obs.n)) + 1j * rng.normal(size=(rows, 1 << obs.n))
    stack = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    values = expectation_rows(stack, obs)
    alone = [expectation_rows(stack[b : b + 1].copy(), obs)[0] for b in range(rows)]
    assert np.array_equal(values, alone)
    scratch = (np.empty_like(stack), np.empty_like(stack))
    assert np.array_equal(expectation_rows(stack, obs, scratch), values)
    if obs.n <= 8:
        dense = to_dense(obs).matrix
        oracle = np.einsum("bi,bi->b", stack.conj(), stack @ dense.T).real
        np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-12)


def test_expectation_rows_work_in_the_callers_scratch():
    # an engine chunk measures its rows in its own two scratch stacks
    rng = np.random.default_rng(11)
    n, rows = 10, 32
    stack = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    obs = OperatorSum.from_terms(
        [PauliTerm(("I" * q + "X").ljust(n, "I"), 0.1) for q in range(n)]
        + [PauliTerm("ZZ".ljust(n, "I"), 0.3), PauliTerm("YIIIIIIIIY", -0.2)]
    )
    scratch = (np.empty_like(stack), np.empty_like(stack))
    expected = expectation_rows(stack, obs)
    old = np.setbufsize(16)  # numpy's ufunc buffers would hide a stack
    tracemalloc.start()
    try:
        values = expectation_rows(stack, obs, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    assert np.array_equal(values, expected)
    assert peak < stack.nbytes // 8


def test_expectation_rows_keep_their_checks():
    plus = np.full((1, 2), 2**-0.5, dtype=complex)
    forged = OperatorSum((PauliTerm("X", 1j),), 1, True)
    with pytest.raises(HermiticityError, match="imaginary residue"):
        expectation_rows(plus, forged)
    flagged = OperatorSum.from_terms([PauliTerm("Z")], hermitian=False)
    with pytest.raises(HermiticityError, match="requires a Hermitian"):
        expectation_rows(plus, flagged)
    z = OperatorSum.from_terms([PauliTerm("Z")])
    with pytest.raises(DimensionMismatchError):
        expectation_rows(np.full((3, 4), 0.5, dtype=complex), z)


def test_rotation_agrees_with_exact_evolution(rng):
    # single-term Hamiltonian coeff * P with t * coeff equal to the angle
    coeff = 0.7
    h = OperatorSum.from_terms([PauliTerm("XZY", coeff)])
    s = random_state(rng, 3)
    t = 0.43
    via_gate = rotate(s, "XZY", coeff * t)
    via_exact = exact_evolve(h, t, s)
    np.testing.assert_allclose(via_gate.amplitudes, via_exact.amplitudes, atol=1e-10)


def test_circuit_unitary_matches_application(rng):
    gates = (PauliRotation("ZZ", 0.3), PauliRotation("XI", 0.2))
    c = Circuit(gates, 2)
    s = random_state(rng, 2)
    np.testing.assert_allclose(
        circuit_unitary(c) @ s.amplitudes,
        apply_circuit(s, c).amplitudes,
        atol=1e-12,
    )


def test_exact_unitary_is_unitary(rng):
    h = random_hermitian_sum(rng, 2, 4)
    u = exact_unitary(h, 0.8)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


def test_jitter_disabled_by_default(paper_state, tfim_ruth3):
    exact = expectation(paper_state, tfim_ruth3.observable)
    assert GaussianJitter().perturb(exact) == exact
    noisy = GaussianJitter(0.1, np.random.default_rng(7)).perturb(exact)
    assert noisy != exact


def test_state_vector_normalization_guard():
    with pytest.raises(DegenerateInputError):
        StateVector(np.array([1.0, 1.0], dtype=complex), 1)
    with pytest.raises(DegenerateInputError):
        StateVector.normalized(np.zeros(4))
    with pytest.raises(DegenerateInputError, match="nan"):
        StateVector(np.array([np.nan, 0.0], dtype=complex), 1)


def test_the_norm_check_refuses_a_nan_row():
    amps = np.tile(init_product_state([(1, 1), (1, 1j)]).amplitudes, (3, 1))
    scratch = (np.empty_like(amps), np.empty_like(amps))
    simulator._check_norms(amps, scratch)
    amps[1, 2] = np.nan
    with pytest.raises(DegenerateInputError, match="lost normalization"):
        simulator._check_norms(amps, scratch)
