"""Composite circuits, profile fitting, calibration, operator extraction."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    BasisSpec,
    CompositeSpec,
    DegenerateInputError,
    ExtractionError,
    Fragment,
    OperatorSum,
    PartitionedHamiltonian,
    PauliTerm,
    ProfileSample,
    ProfilingConfig,
    SingularFitError,
    apply_circuit,
    averaged_expectation,
    builtin_formula,
    commutator,
    compile_circuit,
    default_a_grid,
    exact_evolve,
    expectation,
    extract_error_operators,
    fit_profile,
    init_product_state,
    invert_circuit,
    matrix_element_m,
    mitigated_estimate,
    mitigated_estimates,
    to_dense,
)
from trotterprof import formulas, pauli, profiling, simulator
from trotterprof.cli import run_command
from trotterprof.config import PRESETS, preset_config
from trotterprof.formulas import FORMULA_NAMES
from trotterprof.profiling import composite_circuit, resolve_basis

from conftest import random_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)


# ---------------------------------------------------------------------------
# composite circuits


def test_variant_one_at_a_equal_one_is_plain_circuit(tfim_ruth3, paper_state):
    t = 0.45
    spec = CompositeSpec(1, 1.0, t)
    value = expectation(
        apply_circuit(
            paper_state, composite_circuit(spec, tfim_ruth3.formula, tfim_ruth3.partition)
        ),
        tfim_ruth3.observable,
    )
    plain = expectation(
        apply_circuit(
            paper_state, compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, t)
        ),
        tfim_ruth3.observable,
    )
    assert value == pytest.approx(plain, abs=1e-12)


def test_variant_four_at_a_equal_zero_is_inverted_negated_circuit(
    tfim_ruth3, paper_state
):
    t = 0.45
    spec = CompositeSpec(4, 0.0, t)
    value = expectation(
        apply_circuit(
            paper_state, composite_circuit(spec, tfim_ruth3.formula, tfim_ruth3.partition)
        ),
        tfim_ruth3.observable,
    )
    reference_circuit = invert_circuit(
        compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, -t)
    )
    reference = expectation(
        apply_circuit(paper_state, reference_circuit), tfim_ruth3.observable
    )
    assert value == pytest.approx(reference, abs=1e-12)


def test_variant_two_exact_substitution_is_a_independent(tfim_ruth3, paper_state):
    t = 0.6
    values = [
        averaged_expectation(
            a,
            t,
            replace(tfim_ruth3, initial_state=paper_state),
            exact_substitute=True,
        )
        for a in (-0.3, 0.0, 0.3, 0.5, 0.9, 1.4)
    ]
    assert max(values) - min(values) < 1e-10


def test_invalid_variant_rejected():
    with pytest.raises(DegenerateInputError):
        CompositeSpec(5, 0.5, 0.3)


# ---------------------------------------------------------------------------
# averaged expectation


def test_symmetric_formula_endpoints_agree(tfim_suzuki4, paper_state):
    t = 0.4
    at_one = averaged_expectation(
        1.0,
        t,
        replace(tfim_suzuki4, initial_state=paper_state),
    )
    at_zero = averaged_expectation(
        0.0,
        t,
        replace(tfim_suzuki4, initial_state=paper_state),
    )
    assert at_one == pytest.approx(at_zero, abs=1e-12)


SYMMETRIC_SETUPS = {
    (model, name): preset_config(f"{model}-suzuki4")
    for model in ("tfim", "xxz")
    for name in ("strang2", "suzuki4")
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SYMMETRIC_SETUPS)),
    st.lists(
        st.tuples(
            st.floats(-0.5, 1.5, allow_nan=False),
            st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 3),
)
def test_symmetric_formula_variants_coincide(setup, points, n):
    # V(-t)^dagger = V(t) for a symmetric splitting, so all four probe
    # variants are the same circuit and only variant 1 needs simulating
    cfg = SYMMETRIC_SETUPS[setup]
    f = builtin_formula(setup[1], cfg.partition)
    assert f.symmetric
    a_values, t_values = zip(*points)
    rows = profiling.composite_expectations(
        a_values, t_values, (1, 2, 3, 4), replace(cfg, formula=f, trotter_steps=n)
    )
    assert float(np.max(np.ptp(rows, axis=1))) <= 1e-10


def test_averaged_error_shrinks_at_the_formula_order(tfim_ruth3, paper_state):
    # the deviation from exact drops by roughly 2^5 when t halves, because
    # the variant average kills the even leading order and starts at t^5
    h = tfim_ruth3.partition.hamiltonian

    def err(t):
        exact = expectation(exact_evolve(h, t, paper_state), tfim_ruth3.observable)
        return abs(
            averaged_expectation(
                0.5,
                t,
                replace(tfim_ruth3, initial_state=paper_state),
            )
            - exact
        )

    ratio = err(0.08) / err(0.04)
    assert ratio == pytest.approx(2**5, rel=0.4)


# ---------------------------------------------------------------------------
# sweeps


def sweep(grid, t, cfg):
    """The samples a one-time curve fits, on ``grid``, with an intercept-only basis."""
    pinned = replace(cfg, a_grid=tuple(grid), basis=BasisSpec(()))
    return mitigated_estimates([t], pinned)[0].samples


def test_sweep_single_point_matches_plain_trotter(tfim_suzuki4, paper_state):
    # a = 1 pairs the full-time circuit with a zero-time partner; for a
    # symmetric splitting the lone variant is exactly the plain circuit
    t = 0.5
    samples = sweep([1.0], t, replace(tfim_suzuki4, initial_state=paper_state))
    plain = expectation(
        apply_circuit(
            paper_state, compile_circuit(tfim_suzuki4.formula, tfim_suzuki4.partition, t)
        ),
        tfim_suzuki4.observable,
    )
    assert samples[0].a == 1.0
    assert samples[0].value == pytest.approx(plain, abs=1e-12)


def test_sweep_single_point_near_plain_for_asymmetric(tfim_ruth3, paper_state):
    # with an asymmetric splitting two of the four variants run the inverted
    # negated circuit, so the a = 1 average matches the plain value only up
    # to the formula's own error order
    t = 0.1
    (sample,) = sweep([1.0], t, replace(tfim_ruth3, initial_state=paper_state))
    plain = expectation(
        apply_circuit(
            paper_state, compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, t)
        ),
        tfim_ruth3.observable,
    )
    assert sample.value == pytest.approx(plain, abs=10 * t**4)


def test_sweep_varies_with_a_on_real_circuits(tfim_ruth3, paper_state):
    samples = sweep(default_a_grid(2), 0.4, replace(tfim_ruth3, initial_state=paper_state))
    assert [s.a for s in samples] == list(default_a_grid(2))
    values = [s.value for s in samples]
    assert max(values) - min(values) > 1e-12


def test_sweep_rejects_duplicate_grid_values(tfim_ruth3, paper_state):
    with pytest.raises(DegenerateInputError):
        sweep([0.3, 0.3], 0.4, replace(tfim_ruth3, initial_state=paper_state))


def test_default_grid_is_symmetric_chebyshev():
    grid = default_a_grid(2)
    assert len(grid) == 5
    assert min(grid) > -0.5 and max(grid) < 1.5
    mirrored = sorted(1.0 - a for a in grid)
    assert list(mirrored) == pytest.approx(sorted(grid), abs=1e-12)


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_in_span_synthetic_data():
    basis = BasisSpec((4,))
    grid = default_a_grid(1) + (0.1, -0.2)
    samples = [
        ProfileSample(a, 3.0 + 0.5 * (a**4 + (1 - a) ** 4)) for a in grid
    ]
    fit = fit_profile(samples, basis, alpha=4)
    assert fit.y_star == pytest.approx(3.0, abs=1e-10)
    assert fit.coefficients[4] == pytest.approx(0.5, abs=1e-10)
    assert fit.residual_norm < 1e-10
    assert fit.condition_number >= 1.0


def test_fit_constant_data_gives_zero_slopes():
    basis = BasisSpec((4, 5), include_antisymmetric=True)
    grid = default_a_grid(2)
    samples = [ProfileSample(a, 2.5) for a in grid]
    fit = fit_profile(samples, basis, alpha=4)
    assert fit.y_star == pytest.approx(2.5, abs=1e-12)
    for value in fit.coefficients.values():
        assert value == pytest.approx(0.0, abs=1e-10)
    for value in fit.antisymmetric_coefficients.values():
        assert value == pytest.approx(0.0, abs=1e-10)


def test_fit_rejects_underdetermined_design():
    basis = BasisSpec((4, 5, 6))
    samples = [ProfileSample(0.2, 1.0), ProfileSample(0.8, 1.1)]
    with pytest.raises(SingularFitError):
        fit_profile(samples, basis, alpha=4)


def test_fit_rejects_orders_outside_window():
    with pytest.raises(ValueError):
        fit_profile(
            [ProfileSample(0.1 * k, float(k)) for k in range(8)],
            BasisSpec((3,)),
            alpha=4,
        )
    with pytest.raises(ValueError):
        fit_profile(
            [ProfileSample(0.1 * k, float(k)) for k in range(8)],
            BasisSpec((7,)),
            alpha=4,
        )


def test_fit_mitigates_benchmark_error(tfim_ruth3, paper_state):
    t = 0.3
    h = tfim_ruth3.partition.hamiltonian
    exact = expectation(exact_evolve(h, t, paper_state), tfim_ruth3.observable)
    plain = expectation(
        apply_circuit(
            paper_state, compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, t)
        ),
        tfim_ruth3.observable,
    )
    basis = BasisSpec((5, 6), include_antisymmetric=True)
    y_star, _ = mitigated_estimate(
        t, replace(tfim_ruth3, initial_state=paper_state, basis=basis)
    )
    assert abs(y_star - exact) < abs(plain - exact) / 100


def test_mitigated_estimate_exact_substitution(tfim_ruth3, paper_state):
    # with every circuit swapped for the exact evolution the profile carries
    # no algorithmic error, so the fit must return the ideal value
    t = 0.55
    basis = BasisSpec((5, 6), include_antisymmetric=True)
    samples = [
        ProfileSample(
            a,
            averaged_expectation(
                a,
                t,
                replace(tfim_ruth3, initial_state=paper_state),
                exact_substitute=True,
            ),
        )
        for a in default_a_grid(len(basis.orders))
    ]
    fit = fit_profile(samples, basis, tfim_ruth3.formula.alpha)
    h = tfim_ruth3.partition.hamiltonian
    exact = expectation(exact_evolve(h, t, paper_state), tfim_ruth3.observable)
    assert fit.y_star == pytest.approx(exact, abs=1e-10)
    assert fit.residual_norm < 1e-10


@st.composite
def commuting_systems(draw):
    """Z-only or X-only words on 1-3 qubits in two fragments, real coefficients."""
    n = draw(st.integers(1, 3))
    letter = draw(st.sampled_from("ZX"))
    words = st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=3, unique=True)
    coeffs = st.floats(0.1, 1.5).flatmap(lambda c: st.sampled_from((c, -c)))

    def fragment() -> Fragment:
        terms = []
        for mask in draw(words):
            word = "".join(letter if (mask >> q) & 1 else "I" for q in range(n))
            terms.append(PauliTerm(word, draw(coeffs)))
        return Fragment(OperatorSum.from_terms(terms))

    partition = PartitionedHamiltonian((fragment(), fragment()), n)
    obs = OperatorSum.from_terms(
        [
            PauliTerm(draw(st.text("IXYZ", min_size=n, max_size=n)), draw(coeffs))
            for _ in range(draw(st.integers(1, 3)))
        ]
    )
    psi = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return partition, obs, psi


@settings(max_examples=25, deadline=None)
@given(system=commuting_systems(), t=st.floats(0.05, 1.0))
def test_commuting_partition_estimates_are_exact(system, t):
    # every term commutes, so each product formula is the exact evolution and
    # the intercept must equal the exact value with a pinned or calibrated basis
    partition, obs, psi = system
    exact = expectation(exact_evolve(partition.hamiltonian, t, psi), obs)
    for name in FORMULA_NAMES:
        f = builtin_formula(name, partition)
        pinned = BasisSpec(tuple(range(f.alpha, 2 * f.alpha - 1)), True)
        for basis in (pinned, None):
            config = ProfilingConfig(f, partition, obs, psi, basis=basis)
            estimate, _ = mitigated_estimate(t, config)
            assert estimate == pytest.approx(exact, abs=1e-10)


# ---------------------------------------------------------------------------
# calibration


RUTH3_BASIS = BasisSpec((5, 6), include_antisymmetric=True)
SUZUKI4_BASIS = BasisSpec((5, 6, 7, 8), include_antisymmetric=True)


@pytest.fixture()
def no_reference_path(monkeypatch):
    """Make every binding of the dense oracles and looped references in the package raise."""
    oracles = (
        profiling.extract_error_operators,
        simulator._eigh,
        simulator.exact_unitary,
        simulator.circuit_unitary,
        pauli.to_dense,
        pauli.dense_word,
        # the gate-by-gate references the batched engine is tested against
        simulator.apply_circuit,
        formulas.compile_circuit,
        formulas.invert_circuit,
        profiling.composite_circuit,
        pauli.apply_pauli_word,
        simulator.exact_evolve,
        simulator.expectation,
        profiling.averaged_expectation,
    )

    def forbid(oracle):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"reached {oracle.__name__}")

        return forbidden

    for name, module in list(sys.modules.items()):
        if name != "trotterprof" and not name.startswith("trotterprof."):
            continue
        for attr, value in list(vars(module).items()):
            for oracle in oracles:
                if value is oracle:
                    monkeypatch.setattr(module, attr, forbid(oracle))


#: A 6-qubit TFIM chain for the whole-CLI check below.
CHAIN6 = workloads.tfim_chain_document(6, "ruth3", 3, stop=1.0)


@pytest.mark.parametrize("source", list(PRESETS) + ["chain6"])
def test_no_command_builds_a_dense_matrix(source, tmp_path, capsys, no_reference_path):
    if source == "chain6":
        path = tmp_path / "chain6.json"
        path.write_text(json.dumps(CHAIN6))
        where = ["--config", str(path)]
    else:
        where = ["--preset", source]
    out = str(tmp_path / "out.csv")
    for command in (
        ["run"],  # all three methods
        ["mpf"],
        ["profile", "--time", "0.4"],
        ["slope"],
        ["calibrate"],
        ["cost"],
    ):
        assert run_command(command + where + ["--out", out]) == 0, command
    capsys.readouterr()


@pytest.mark.parametrize(
    "system, formula_name, expected",
    [
        pytest.param(p, None, RUTH3_BASIS if p.endswith("ruth3") else SUZUKI4_BASIS, id=p)
        for p in PRESETS
    ]
    + [
        # the variant average annihilates lie1's even leading order and the
        # window [alpha, 2 alpha - 2] holds nothing else
        pytest.param("zx", "lie1", BasisSpec(()), id="zx-lie1"),
        pytest.param("zx", "strang2", BasisSpec((3, 4), True), id="zx-strang2"),
        pytest.param("zx", "ruth3", RUTH3_BASIS, id="zx-ruth3"),
        pytest.param("zx", "suzuki4", SUZUKI4_BASIS, id="zx-suzuki4"),
    ],
)
def test_calibration_builds_no_dense_matrix(
    system, formula_name, expected, zx_partition, no_reference_path
):
    if system == "zx":
        config = ProfilingConfig(
            builtin_formula(formula_name, zx_partition),
            zx_partition,
            OperatorSum.from_terms([PauliTerm("Z")]),
            init_product_state([(1.0, 0.3 + 0.4j)]),
        )
    else:
        config = preset_config(system)
    assert resolve_basis(config) == expected


def test_calibration_probes_exact_complementary_pairs(
    monkeypatch, tfim_ruth3, paper_state
):
    probed: list[float] = []
    averaged = profiling._averaged_expectations

    def recording(a_values, *args, **kwargs):
        probed.extend(float(a) for a in a_values)
        return averaged(a_values, *args, **kwargs)

    monkeypatch.setattr(profiling, "_averaged_expectations", recording)
    resolve_basis(
        ProfilingConfig(
            tfim_ruth3.formula,
            tfim_ruth3.partition,
            tfim_ruth3.observable,
            paper_state,
        )
    )
    distinct = sorted(set(probed))
    assert len(distinct) == 2 * len(profiling.CALIBRATION_A_PROBE) == 6
    assert all(lo + hi == 1.0 for lo, hi in zip(distinct, reversed(distinct)))


def test_calibration_excludes_annihilated_leading_order(tfim_ruth3, paper_state):
    config = ProfilingConfig(
        tfim_ruth3.formula,
        tfim_ruth3.partition,
        tfim_ruth3.observable,
        paper_state,
    )
    basis = resolve_basis(config)
    assert basis.orders == (5, 6)
    assert basis.include_antisymmetric


def test_calibration_keeps_all_orders_for_symmetric_fourth_order(
    xxz_suzuki4, paper_state
):
    config = ProfilingConfig(
        xxz_suzuki4.formula,
        xxz_suzuki4.partition,
        xxz_suzuki4.observable,
        paper_state,
    )
    basis = resolve_basis(config)
    assert set(basis.orders) <= {5, 6, 7, 8}
    assert basis.orders == (5, 6, 7, 8)


# ---------------------------------------------------------------------------
# error-operator extraction


@pytest.fixture(scope="module")
def zx_series(zx_partition):
    f = builtin_formula("lie1", zx_partition)
    return extract_error_operators(f, zx_partition, 3)


def test_extracted_second_order_matches_commutator(zx_series):
    h1 = OperatorSum.from_terms([PauliTerm("Z")])
    h2 = OperatorSum.from_terms([PauliTerm("X")])
    expected = to_dense(commutator(h1, h2).scaled(-0.5)).matrix
    np.testing.assert_allclose(
        zx_series.operator_for(2).matrix, expected, atol=1e-8
    )
    # -(1/2)[Z, X] = -iY
    np.testing.assert_allclose(
        zx_series.operator_for(2).matrix,
        np.array([[0, -1], [1, 0]], dtype=complex),
        atol=1e-8,
    )


def test_extracted_third_order_matches_bracket_expression(zx_series):
    h1 = OperatorSum.from_terms([PauliTerm("Z")])
    h2 = OperatorSum.from_terms([PauliTerm("X")])
    bracket = (
        h1 * commutator(h2, h1)
        + commutator(h2, h1 * h1)
        + commutator(h2, h1) * h2
        + commutator(h2 * h2, h1)
    )
    expected = to_dense(bracket.scaled(-1j / 6.0)).matrix
    np.testing.assert_allclose(
        zx_series.operator_for(3).matrix, expected, atol=1e-8
    )


@pytest.mark.parametrize("name", ["lie1", "strang2", "ruth3", "suzuki4"])
def test_leading_operator_is_antihermitian(zx_partition, name):
    f = builtin_formula(name, zx_partition)
    series = extract_error_operators(f, zx_partition, f.alpha)
    leading = series.operator_for(f.alpha).matrix
    assert np.linalg.norm(leading.conj().T + leading) <= 1e-8


def test_extraction_consistency_by_remainder_slope(zx_partition):
    # rebuilding V(t) from the truncated series must leave a remainder that
    # decays at least one power faster than the last kept order
    from trotterprof.simulator import circuit_unitary, exact_unitary

    f = builtin_formula("lie1", zx_partition)
    max_order = 4
    series = extract_error_operators(f, zx_partition, max_order)
    h = zx_partition.hamiltonian
    ts = np.geomspace(0.01, 0.05, 5)
    remainders = []
    for t in ts:
        v = circuit_unitary(compile_circuit(f, zx_partition, t))
        rebuilt = exact_unitary(h, t) + sum(
            series.operator_for(s).matrix * t**s for s in range(2, max_order + 1)
        )
        remainders.append(np.max(np.abs(v - rebuilt)))
    slope = np.polyfit(np.log(ts), np.log(remainders), 1)[0]
    assert slope >= max_order + 1 - 0.3


def test_extraction_validates_order_bounds(zx_partition):
    f = builtin_formula("lie1", zx_partition)
    with pytest.raises(ExtractionError):
        extract_error_operators(f, zx_partition, 1)
    with pytest.raises(ExtractionError):
        extract_error_operators(f, zx_partition, 5)  # beyond 2 * alpha


def test_series_accessor_rejects_missing_order(zx_series):
    with pytest.raises(KeyError):
        zx_series.operator_for(9)


# ---------------------------------------------------------------------------
# leading matrix element


def test_matrix_element_vanishes_for_even_order(zx_partition, zx_series):
    obs = OperatorSum.from_terms([PauliTerm("Z")])
    psi = init_product_state([(1, 0)])
    assert abs(matrix_element_m(zx_series, obs, psi, 2)) <= 1e-8


def test_matrix_element_against_dense_evaluation(zx_partition):
    f = builtin_formula("strang2", zx_partition)
    series = extract_error_operators(f, zx_partition, 3)
    obs = OperatorSum.from_terms([PauliTerm("Z")])
    psi = init_product_state([(1.0, 0.3 + 0.4j)])
    e = series.operator_for(3).matrix
    o = to_dense(obs).matrix
    bracket = (e.conj().T - e) @ o
    dense_value = float(
        np.real(np.vdot(psi.amplitudes, (bracket + bracket.conj().T) @ psi.amplitudes))
    )
    assert matrix_element_m(series, obs, psi, 3) == pytest.approx(dense_value, abs=1e-10)
    assert abs(dense_value) > 1e-3  # the probe state makes it genuinely nonzero


def test_matrix_element_cross_validates_fitted_coefficient(zx_partition):
    # the averaged profile's leading coefficient equals half the operator
    # matrix element: the four-circuit average absorbs a factor of two
    f = builtin_formula("strang2", zx_partition)
    obs = OperatorSum.from_terms([PauliTerm("Z")])
    psi = init_product_state([(1.0, 0.3 + 0.4j)])
    series = extract_error_operators(f, zx_partition, 3)
    m3 = matrix_element_m(series, obs, psi, 3)

    t = 0.02
    basis = BasisSpec((3, 4), include_antisymmetric=True)
    _, fit = mitigated_estimate(t, ProfilingConfig(f, zx_partition, obs, psi, basis=basis))
    fitted_leading = fit.coefficients[3] / t**3
    assert fitted_leading / m3 == pytest.approx(0.5, rel=0.05)
