"""Benchmark setups, error curves, slope fitting, and cost accounting."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from trotterprof import (
    CompositeSpec,
    DegenerateInputError,
    ErrorCurve,
    FormulaError,
    OperatorSum,
    PauliTerm,
    ProductFormula,
    ProfilingConfig,
    averaged_expectation,
    circuit_cost,
    compile_circuit,
    composite_circuit,
    exact_evolve,
    expectation,
    init_product_state,
    mutually_commuting,
    preset_config,
    run_error_curve,
    sign_stable_mask,
    slope_fit,
    stable_slope_fit,
    tfim_config,
    to_dense,
)
from trotterprof.config import PRESETS
from trotterprof.experiments import CurvePoint


# ---------------------------------------------------------------------------
# configurations


def test_tfim_observable_term_count(tfim_ruth3):
    assert len(tfim_ruth3.observable) == 7  # four X terms plus three ZZ bonds


def test_tfim_initial_state_normalized(tfim_ruth3):
    assert np.linalg.norm(tfim_ruth3.initial_state.amplitudes) == pytest.approx(1.0)


def test_tfim_hamiltonian_is_hermitian_and_traceless(tfim_ruth3):
    dense = to_dense(tfim_ruth3.partition.hamiltonian).matrix
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
    assert abs(np.trace(dense)) < 1e-12


def test_tfim_partition_layers(tfim_ruth3):
    zz, x = tfim_ruth3.partition.fragments
    assert [t.word for t in zz.terms] == ["ZZII", "IIZZ", "IZZI"]
    assert all(t.coeff == 1.0 for t in zz.terms)
    assert [t.word for t in x.terms] == ["XIII", "IXII", "IIXI", "IIIX"]
    assert all(t.coeff == pytest.approx(1 / 3) for t in x.terms)


def test_tfim_rejects_low_order_formula_names():
    with pytest.raises(FormulaError):
        tfim_config("lie1")


def test_xxz_bond_fragments_commute_internally(xxz_ruth3):
    for fragment in xxz_ruth3.partition.fragments:
        assert mutually_commuting(fragment.terms.terms)


def test_xxz_fragments_rebuild_hamiltonian(xxz_ruth3):
    total = xxz_ruth3.partition.hamiltonian
    expected = {}
    for site in range(3):
        for body, coeff in (("XX", 1.0), ("YY", 1.0), ("ZZ", 1 / 3)):
            word = "I" * site + body + "I" * (2 - site)
            expected[word] = coeff
    assert {w: c.real for w, c in total.as_dict().items()} == pytest.approx(expected)


def test_xxz_observable_on_all_zeros(xxz_ruth3):
    zeros = init_product_state([(1, 0)] * 4)
    assert expectation(zeros, xxz_ruth3.observable) == pytest.approx(1.0, abs=1e-12)


def test_xxz_total_magnetization_is_error_free(xxz_ruth3, paper_state):
    # every bond term commutes with the total Z, so the exact evolution and
    # every compiled circuit conserve it and its Trotter error vanishes;
    # this is why the benchmark observable carries the imbalance probe
    total_z = OperatorSum.from_terms(
        [PauliTerm("I" * i + "Z" + "I" * (3 - i), 0.25) for i in range(4)]
    )
    h = xxz_ruth3.partition.hamiltonian
    for t in (0.3, 0.9):
        exact = expectation(exact_evolve(h, t, paper_state), total_z)
        averaged = averaged_expectation(
            0.3,
            t,
            ProfilingConfig(xxz_ruth3.formula, xxz_ruth3.partition, total_z, paper_state),
        )
        assert expectation(paper_state, total_z) == pytest.approx(exact, abs=1e-12)
        assert averaged == pytest.approx(exact, abs=1e-13)


def test_config_time_validation(tfim_ruth3):
    with pytest.raises(DegenerateInputError):
        replace(tfim_ruth3, times=(0.2, 0.1))
    with pytest.raises(DegenerateInputError):
        replace(tfim_ruth3, times=(0.0, 0.1))


# ---------------------------------------------------------------------------
# error curves


def test_exact_column_is_method_independent(tfim_ruth3):
    cfg = replace(tfim_ruth3, times=tuple(np.geomspace(0.1, 0.4, 5)))
    exacts = {
        method: [p.exact for p in run_error_curve(cfg, method).points]
        for method in ("trotter", "ep", "mpf")
    }
    np.testing.assert_allclose(exacts["trotter"], exacts["ep"], atol=1e-14)
    np.testing.assert_allclose(exacts["trotter"], exacts["mpf"], atol=1e-14)


def test_trotter_error_vanishes_at_small_times(tfim_ruth3):
    cfg = replace(tfim_ruth3, times=tuple(np.geomspace(0.002, 0.05, 8)))
    errors = run_error_curve(cfg, "trotter").errors()
    assert np.all(np.diff(errors) > 0)  # monotone growth below t0
    assert errors[0] < 1e-9


def test_curves_are_deterministic(tfim_ruth3):
    cfg = replace(tfim_ruth3, times=tuple(np.geomspace(0.1, 0.3, 4)))
    first = run_error_curve(cfg, "ep")
    second = run_error_curve(cfg, "ep")
    assert first == second


def test_noise_is_seeded_and_deterministic(tfim_ruth3):
    cfg = replace(
        tfim_ruth3, times=tuple(np.geomspace(0.1, 0.3, 4)), noise_sigma=1e-4
    )
    a = run_error_curve(cfg, "trotter")
    b = run_error_curve(cfg, "trotter")
    assert a == b
    other_seed = replace(cfg, seed=999)
    c = run_error_curve(other_seed, "trotter")
    assert a != c
    clean = run_error_curve(replace(cfg, noise_sigma=0.0), "trotter")
    assert a != clean


def test_unknown_method_rejected(tfim_ruth3):
    with pytest.raises(DegenerateInputError):
        run_error_curve(tfim_ruth3, "zne")


def test_floor_flagging():
    points = (
        CurvePoint(0.1, 1.0, 1.0, 0.0),
        CurvePoint(0.2, 1.0, 0.5, 0.5),
    )
    curve = ErrorCurve("trotter", points)
    assert curve.points[0].floored and not curve.points[1].floored


def test_floored_points_are_flagged_and_left_out_of_slope_fits():
    ts = np.geomspace(0.1, 0.5, 5)
    points = [CurvePoint(t, 0.3 * t**4, 0.0, 0.3 * t**4) for t in ts]
    floored = CurvePoint(0.3, 5e-15, 0.0, 5e-15)
    assert floored.floored and not any(p.floored for p in points)
    clean = slope_fit(ErrorCurve("synthetic", tuple(points)), (0.1, 0.5))
    mixed = slope_fit(ErrorCurve("synthetic", tuple(points) + (floored,)), (0.1, 0.5))
    assert mixed == clean == pytest.approx(4.0, abs=1e-9)


# ---------------------------------------------------------------------------
# slope fitting


def test_slope_fit_recovers_pure_power_law():
    ts = np.geomspace(0.05, 0.5, 12)
    points = tuple(
        CurvePoint(t, 1.0 + 0.3 * t**7, 1.0, 0.3 * t**7) for t in ts
    )
    slope = slope_fit(ErrorCurve("synthetic", points), (0.05, 0.5))
    assert slope == pytest.approx(7.0, abs=1e-9)


def test_slope_fit_reads_leading_order_of_mixture():
    ts = np.geomspace(0.001, 0.01, 10)
    errs = 0.4 * ts**2 + 5.0 * ts**4
    points = tuple(
        CurvePoint(t, 1.0 + e, 1.0, e) for t, e in zip(ts, errs)
    )
    slope = slope_fit(ErrorCurve("synthetic", points), (0.001, 0.01))
    assert slope == pytest.approx(2.0, abs=0.1)


def test_unmitigated_benchmark_slope_matches_order(tfim_ruth3):
    cfg = replace(tfim_ruth3, times=tuple(np.geomspace(0.005, 0.03, 8)))
    curve = run_error_curve(cfg, "trotter")
    slope = stable_slope_fit(curve, (0.005, 0.03))
    assert slope == pytest.approx(4.0, abs=0.3)


def test_slope_fit_needs_enough_points():
    points = tuple(
        CurvePoint(t, 1.0, 1.0, 1e-3 * t) for t in (0.1, 0.2, 0.3)
    )
    with pytest.raises(DegenerateInputError):
        slope_fit(ErrorCurve("synthetic", points), (0.05, 0.5))


def test_sign_stable_mask_drops_crossing_brackets():
    points = (
        CurvePoint(0.1, 1.1, 1.0, 0.1),
        CurvePoint(0.2, 1.05, 1.0, 0.05),
        CurvePoint(0.3, 0.98, 1.0, 0.02),  # sign flipped between 0.2 and 0.3
        CurvePoint(0.4, 0.9, 1.0, 0.1),
    )
    mask = sign_stable_mask(ErrorCurve("synthetic", points))
    assert list(mask) == [True, False, False, True]


# ---------------------------------------------------------------------------
# circuit cost


def cost_cases():
    """``(formula, partition)`` of every preset plus hand-written lie1 and strang2 tables."""
    cases = [(cfg.formula, cfg.partition) for cfg in map(preset_config, PRESETS)]
    partition = preset_config("xxz-ruth3").partition
    cases.append((ProductFormula(((0, 1.0), (1, 1.0)), 2, False), partition))
    cases.append((ProductFormula(((0, 0.5), (1, 1.0), (0, 0.5)), 3, True), partition))
    return cases


def test_mpf_cost_total_steps(tfim_ruth3):
    report = circuit_cost(
        "mpf",
        formula=tfim_ruth3.formula,
        partition=tfim_ruth3.partition,
        step_counts=(1, 2, 3),
    )
    assert report.total_steps == 6
    assert report.circuits == 3
    # the counted gates are those of the compiled constituent circuits
    for formula, partition in cost_cases():
        for n in (1, 3):
            counts = tuple(range(1, n + 1))
            report = circuit_cost("mpf", formula=formula, partition=partition, step_counts=counts)
            compiled = [len(compile_circuit(formula, partition, 1.0, s).gates) for s in counts]
            assert report.elementary_gates == sum(compiled)


def test_ep_cost_symmetric_counting(tfim_suzuki4):
    report = circuit_cost(
        "ep",
        formula=tfim_suzuki4.formula,
        partition=tfim_suzuki4.partition,
        trotter_steps=1,
        grid_points=3,
    )
    assert report.circuits == 3  # symmetric splitting needs one variant
    assert report.depth_steps == 2
    assert report.total_steps == 6


def test_ep_cost_counts_compiled_gates(tfim_ruth3):
    report = circuit_cost(
        "ep",
        formula=tfim_ruth3.formula,
        partition=tfim_ruth3.partition,
        trotter_steps=2,
        grid_points=5,
    )
    gates_per_step = 3 * 3 + 3 * 4  # ruth table: 3 ZZ layers + 3 X layers
    assert report.circuits == 20  # four variants per grid point
    assert report.elementary_gates == 20 * 2 * 2 * gates_per_step
    # every probe variant has the gate count of its compiled composite circuit
    for formula, partition in cost_cases():
        variants = (1,) if formula.symmetric else (1, 2, 3, 4)
        for n in (1, 3):
            report = circuit_cost(
                "ep", formula=formula, partition=partition, trotter_steps=n, grid_points=5
            )
            assert report.circuits == 5 * len(variants)
            for v in variants:
                circuit = composite_circuit(CompositeSpec(v, 0.3, 1.0, n), formula, partition)
                assert report.elementary_gates == report.circuits * len(circuit.gates)


def test_cost_scaling_linear_vs_quadratic(tfim_ruth3):
    grid = 5

    def ep_gates(n):
        return circuit_cost(
            "ep",
            formula=tfim_ruth3.formula,
            partition=tfim_ruth3.partition,
            trotter_steps=n,
            grid_points=grid,
        ).elementary_gates

    def mpf_gates(n):
        return circuit_cost(
            "mpf",
            formula=tfim_ruth3.formula,
            partition=tfim_ruth3.partition,
            step_counts=tuple(range(1, n + 1)),
        ).elementary_gates

    assert ep_gates(6) == 6 * ep_gates(1)
    assert mpf_gates(6) == 21 * mpf_gates(1)


def test_cost_validates_inputs(tfim_ruth3):
    with pytest.raises(DegenerateInputError):
        circuit_cost("ep", formula=tfim_ruth3.formula, partition=tfim_ruth3.partition)
    with pytest.raises(DegenerateInputError):
        circuit_cost("mpf", formula=tfim_ruth3.formula, partition=tfim_ruth3.partition)
    with pytest.raises(DegenerateInputError):
        circuit_cost(
            "shadow", formula=tfim_ruth3.formula, partition=tfim_ruth3.partition
        )
    with pytest.raises(DegenerateInputError):
        circuit_cost(
            "ep",
            formula=tfim_ruth3.formula,
            partition=tfim_ruth3.partition,
            trotter_steps=0,
            grid_points=3,
        )
    # a table that addresses a fragment the partition lacks
    three = ProductFormula(((0, 1.0), (1, 1.0), (2, 1.0)), 2, False)
    with pytest.raises(FormulaError):
        circuit_cost("ep", formula=three, partition=tfim_ruth3.partition, grid_points=3)
    with pytest.raises(FormulaError):
        circuit_cost("mpf", formula=three, partition=tfim_ruth3.partition, step_counts=(1,))
