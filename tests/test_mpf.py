"""Extrapolation weights, estimates, and the crossover step count."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    DegenerateInputError,
    ProfilingConfig,
    SingularFitError,
    critical_n,
    expectation,
    mpf_estimate,
    mpf_values,
    mpf_weights,
    run_error_curve,
    stable_slope_fit,
)
from trotterprof.mpf import MPFWeights, _exact_weights, cancelled_orders


def test_high_orders_of_large_step_counts_do_not_overflow_the_residual_check():
    # 10**6 ** 65 is past the largest float; its reciprocal power underflows to 0
    w = mpf_weights((1, 2, 10**6), alpha=64, symmetric=True)
    assert w.cancelled_orders == (64, 66)
    assert sum(w.weights) == pytest.approx(1.0, abs=1e-12)


def test_two_point_first_order_weights():
    w = mpf_weights((1, 2), alpha=2, symmetric=False)
    assert w.weights == pytest.approx((-1.0, 2.0), abs=1e-10)
    assert w.cancelled_orders == (2,)


def test_single_count_is_plain_trotter():
    w = mpf_weights((1,), alpha=4, symmetric=False)
    assert w.weights == (1.0,)
    assert w.cancelled_orders == ()


def test_two_point_symmetric_weights():
    w = mpf_weights((1, 2), alpha=3, symmetric=True)
    w1, w2 = w.weights
    assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
    assert w1 + w2 / 4 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cancellation_residuals_vanish(n, symmetric):
    w = mpf_weights(tuple(range(1, n + 1)), alpha=4, symmetric=symmetric)
    assert sum(w.weights) == pytest.approx(1.0, abs=1e-10)
    for k in w.cancelled_orders:
        residual = sum(
            wt / s ** (k - 1) for wt, s in zip(w.weights, w.step_counts)
        )
        assert abs(residual) < 1e-8


def test_condition_number_reported_and_flagged():
    ok = mpf_weights((1, 2, 3), alpha=4, symmetric=False)
    assert ok.condition_number >= 1.0 and not ok.ill_conditioned
    harsh = mpf_weights(tuple(range(1, 9)), alpha=4, symmetric=True)
    assert harsh.condition_number > 1e10 and harsh.ill_conditioned


def test_duplicate_counts_rejected():
    with pytest.raises(SingularFitError):
        mpf_weights((2, 2), alpha=3, symmetric=False)


def test_invalid_counts_rejected():
    with pytest.raises(DegenerateInputError):
        mpf_weights((), alpha=3, symmetric=False)
    with pytest.raises(DegenerateInputError):
        mpf_weights((0, 1), alpha=3, symmetric=False)


def test_estimate_single_count_matches_plain(tfim_ruth3, paper_state):
    from trotterprof import apply_circuit, compile_circuit

    w = mpf_weights((1,), alpha=4, symmetric=False)
    t = 0.4
    config = ProfilingConfig(
        tfim_ruth3.formula, tfim_ruth3.partition, tfim_ruth3.observable, paper_state
    )
    estimate = mpf_estimate(mpf_values([t], w.step_counts, config)[0], w)
    plain = expectation(
        apply_circuit(
            paper_state, compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, t)
        ),
        tfim_ruth3.observable,
    )
    assert estimate == pytest.approx(plain, abs=1e-12)


def test_two_count_error_slope_on_benchmark(tfim_ruth3):
    cfg = replace(
        tfim_ruth3,
        times=tuple(np.geomspace(0.02, 0.15, 10)),
        mpf_step_counts=(1, 2),
    )
    curve = run_error_curve(cfg, "mpf")
    slope = stable_slope_fit(curve, (0.02, 0.15))
    assert slope == pytest.approx(5.0, abs=0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_slope_improvement_over_unmitigated(tfim_ruth3, n):
    window = (0.02, 0.15)
    times = tuple(np.geomspace(window[0], window[1], 10))
    base = replace(tfim_ruth3, times=times)
    trotter_slope = stable_slope_fit(run_error_curve(base, "trotter"), window)
    cfg = replace(base, mpf_step_counts=tuple(range(1, n + 1)))
    mpf_slope = stable_slope_fit(run_error_curve(cfg, "mpf"), window)
    assert mpf_slope - trotter_slope >= (n - 1) - 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(1, 16), min_size=1, max_size=4),
    st.integers(2, 6),
    st.booleans(),
)
def test_weights_cancel_every_listed_order(counts, alpha, symmetric):
    w = mpf_weights(sorted(counts), alpha, symmetric)
    assert len(w.cancelled_orders) == len(counts) - 1
    assert abs(sum(w.weights) - 1.0) <= 1e-10
    for k in w.cancelled_orders:
        residual = sum(c / s ** (k - 1) for c, s in zip(w.weights, w.step_counts))
        assert abs(residual) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(1, 64), min_size=1, max_size=16),
    st.integers(2, 64),  # far past formulas.MAX_ALPHA
    st.booleans(),
)
def test_closed_form_solves_every_row_exactly(counts, alpha, symmetric):
    counts = sorted(counts)
    exact = _exact_weights(counts, alpha, symmetric)
    assert sum(exact) == 1
    orders = cancelled_orders(len(counts), alpha, symmetric)
    for k in orders:
        assert sum(w / s ** (k - 1) for w, s in zip(exact, counts)) == 0
    floats = tuple(float(w) for w in exact)
    try:
        weights = mpf_weights(counts, alpha, symmetric).weights
    except DegenerateInputError:
        # the rounded weights fail the float sum or residual check
        with pytest.raises(DegenerateInputError):
            MPFWeights(tuple(counts), floats, orders)
    else:
        assert weights == floats


def test_critical_step_counts():
    assert critical_n(4, symmetric=False) == 3
    assert critical_n(5, symmetric=True) == 2
    assert critical_n(2, symmetric=False) == 1
    assert critical_n(4, symmetric=True) == Fraction(3, 2)
    with pytest.raises(DegenerateInputError):
        critical_n(1, symmetric=False)
