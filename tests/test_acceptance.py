"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything runs at desk scale (four qubits, one core).

Two measurement conventions, used consistently throughout:

* Power-law slopes are read off points away from sign flips of the signed
  error (``sign_stable_mask``); the magnitude of a signed curve dips to
  zero where it crosses, and those grid points carry no scale information.
* Curve-ordering checks forgive a point when the *upper* comparand sits
  next to such a sign flip, for the same reason — no mitigation method can
  undercut an accidental zero.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from trotterprof import (
    BasisSpec,
    CompositeSpec,
    OperatorSum,
    PauliTerm,
    ProfileSample,
    ProfilingConfig,
    apply_circuit,
    builtin_formula,
    commutator,
    compile_circuit,
    critical_n,
    default_a_grid,
    empirical_order,
    exact_evolve,
    expectation,
    extract_error_operators,
    fit_profile,
    invert_circuit,
    mitigated_estimate,
    mpf_estimate,
    mpf_values,
    mpf_weights,
    averaged_expectation,
    plan,
    preset_config,
    run_error_curve,
    sign_stable_mask,
    stable_slope_fit,
    to_dense,
)
from trotterprof.profiling import composite_circuit
from trotterprof.simulator import Circuit, PauliRotation

from conftest import random_state


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS - {message}")


@pytest.fixture(scope="module")
def benchmark_curves():
    """Error curves for every (model, formula, method) cell on the default grid."""
    curves = {}
    for model in ("tfim", "xxz"):
        for fname in ("ruth3", "suzuki4"):
            cfg = preset_config(f"{model}-{fname}")
            for method in ("trotter", "ep", "mpf"):
                curves[(model, fname, method)] = run_error_curve(cfg, method)
    return curves


def test_criterion_1_empirical_orders(tfim_ruth3):
    expected = {"lie1": 2, "strang2": 3, "ruth3": 4, "suzuki4": 5}
    probe = np.geomspace(0.01, 0.06, 6)
    measured = {}
    for name, alpha in expected.items():
        f = builtin_formula(name, tfim_ruth3.partition)
        slope = empirical_order(f, tfim_ruth3.partition, probe)
        measured[name] = slope
        assert slope == pytest.approx(alpha, abs=0.3)
    report(
        1,
        "empirical orders "
        + ", ".join(f"{k}={v:.2f}" for k, v in measured.items()),
    )


def test_criterion_2_error_operator_oracle(zx_partition):
    h1 = OperatorSum.from_terms([PauliTerm("Z")])
    h2 = OperatorSum.from_terms([PauliTerm("X")])
    series = extract_error_operators(
        builtin_formula("lie1", zx_partition), zx_partition, 3
    )

    e2_expected = to_dense(commutator(h1, h2).scaled(-0.5)).matrix
    e2_err = np.max(np.abs(series.operator_for(2).matrix - e2_expected))
    assert e2_err <= 1e-8

    bracket = (
        h1 * commutator(h2, h1)
        + commutator(h2, h1 * h1)
        + commutator(h2, h1) * h2
        + commutator(h2 * h2, h1)
    )
    e3_expected = to_dense(bracket.scaled(-1j / 6.0)).matrix
    e3_err = np.max(np.abs(series.operator_for(3).matrix - e3_expected))
    assert e3_err <= 1e-8

    defects = {}
    for name in ("lie1", "strang2", "ruth3", "suzuki4"):
        f = builtin_formula(name, zx_partition)
        lead = extract_error_operators(f, zx_partition, f.alpha).operator_for(
            f.alpha
        ).matrix
        defects[name] = float(np.linalg.norm(lead.conj().T + lead))
        assert defects[name] <= 1e-8
    report(
        2,
        f"E2 err {e2_err:.1e}, E3 err {e3_err:.1e}, worst anti-Hermiticity"
        f" defect {max(defects.values()):.1e}",
    )


def test_criterion_3_ideal_invariance(tfim_ruth3, paper_state):
    t = 0.7
    values = [
        averaged_expectation(
            a,
            t,
            ProfilingConfig(
                tfim_ruth3.formula,
                tfim_ruth3.partition,
                tfim_ruth3.observable,
                paper_state,
            ),
            exact_substitute=True,
        )
        for a in (-0.5, 0.0, 0.25, 0.5, 1.0, 1.5)
    ]
    spread = max(values) - min(values)
    assert spread < 1e-10
    report(3, f"exact-substitution spread {spread:.2e} across six a values")


def test_criterion_4_leading_profile_shape(tfim_ruth3, paper_state):
    # 7 Chebyshev nodes on [0, 1]; wider grids admit more of the next-order
    # structure and say nothing extra about the leading shape
    m = 7
    grid = [0.5 + 0.5 * np.cos(np.pi * (2 * k + 1) / (2 * m)) for k in range(m)]
    h = tfim_ruth3.partition.hamiltonian
    residuals = {}
    for t in (0.02, 0.04):
        exact = expectation(exact_evolve(h, t, paper_state), tfim_ruth3.observable)
        scaled = []
        for a in grid:
            spec = CompositeSpec(1, a, t)
            value = expectation(
                apply_circuit(
                    paper_state,
                    composite_circuit(spec, tfim_ruth3.formula, tfim_ruth3.partition),
                ),
                tfim_ruth3.observable,
            )
            scaled.append((value - exact) / t**4)
        scaled = np.asarray(scaled)
        basis = np.array([a**4 + (1 - a) ** 4 for a in grid])
        coeff = float(basis @ scaled / (basis @ basis))
        residual = float(np.linalg.norm(scaled - coeff * basis) / np.linalg.norm(scaled))
        residuals[t] = residual
        assert residual < 0.05
    report(
        4,
        "variant-1 profile matches c*(a^4+(1-a)^4): residual "
        + ", ".join(f"{r:.2%} at t={t}" for t, r in residuals.items()),
    )


def test_criterion_5_mitigation_slopes(benchmark_curves):
    expected = {"ruth3": 7.0, "suzuki4": 9.0}
    measured = {}
    for model in ("tfim", "xxz"):
        for fname, target in expected.items():
            slope = stable_slope_fit(
                benchmark_curves[(model, fname, "ep")], (0.1, 0.5)
            )
            measured[f"{model}/{fname}"] = slope
            assert slope == pytest.approx(target, abs=0.7)
    report(
        5,
        "mitigated slopes "
        + ", ".join(f"{k}={v:.2f}" for k, v in measured.items()),
    )


def test_criterion_6_ordering_and_ratio(benchmark_curves):
    # pointwise ordering, forgiving points where the upper curve sits next
    # to a sign flip of its own signed error
    for model in ("tfim", "xxz"):
        for fname in ("ruth3", "suzuki4"):
            trotter = benchmark_curves[(model, fname, "trotter")]
            ep = benchmark_curves[(model, fname, "ep")]
            mpf = benchmark_curves[(model, fname, "mpf")]
            for lower, upper in ((ep, mpf), (mpf, trotter)):
                stable = sign_stable_mask(upper)
                for i, (pl, pu) in enumerate(zip(lower.points, upper.points)):
                    if stable[i]:
                        assert pl.abs_error <= pu.abs_error, (
                            f"{model}/{fname}: {lower.method} error"
                            f" {pl.abs_error:.3e} above {upper.method}"
                            f" {pu.abs_error:.3e} at t={pl.t:.4f}"
                        )

    # mitigation gap at t = 0.2, evaluated directly at that time
    ratios = {}
    for model in ("tfim", "xxz"):
        for fname in ("ruth3", "suzuki4"):
            cfg = preset_config(f"{model}-{fname}")
            t = 0.2
            h = cfg.partition.hamiltonian
            exact = expectation(exact_evolve(h, t, cfg.initial_state), cfg.observable)
            profile_cfg = ProfilingConfig(
                cfg.formula, cfg.partition, cfg.observable, cfg.initial_state
            )
            ep_value, _ = mitigated_estimate(t, profile_cfg)
            weights = mpf_weights(cfg.mpf_step_counts, cfg.formula.alpha, cfg.formula.symmetric)
            mpf_value = mpf_estimate(
                mpf_values([t], weights.step_counts, profile_cfg)[0], weights
            )
            ratio = abs(mpf_value - exact) / abs(ep_value - exact)
            ratios[f"{model}/{fname}"] = ratio
            assert ratio >= 10.0
    report(
        6,
        "ordering holds at every stable grid point; measured mpf/ep error"
        " ratios at t=0.2: "
        + ", ".join(f"{k}={v:.0f}x" for k, v in ratios.items()),
    )


def test_criterion_7_mpf_baseline(tfim_ruth3):
    weights = mpf_weights((1, 2), alpha=2, symmetric=False)
    assert weights.weights == pytest.approx((-1.0, 2.0), abs=1e-10)

    worst = 0.0
    for symmetric in (False, True):
        for n in range(1, 7):
            w = mpf_weights(tuple(range(1, n + 1)), alpha=4, symmetric=symmetric)
            for k in w.cancelled_orders:
                residual = abs(
                    sum(wt / s ** (k - 1) for wt, s in zip(w.weights, w.step_counts))
                )
                worst = max(worst, residual)
                assert residual < 1e-8

    window = (0.02, 0.15)
    times = tuple(np.geomspace(window[0], window[1], 10))
    base = replace(tfim_ruth3, times=times)
    trotter_slope = stable_slope_fit(run_error_curve(base, "trotter"), window)
    improvements = {}
    for n in (2, 3):
        cfg = replace(base, mpf_step_counts=tuple(range(1, n + 1)))
        mpf_slope = stable_slope_fit(run_error_curve(cfg, "mpf"), window)
        improvements[n] = mpf_slope - trotter_slope
        assert mpf_slope - trotter_slope >= (n - 1) - 0.5
    report(
        7,
        f"weights exact, worst cancellation residual {worst:.1e}, slope"
        " improvements "
        + ", ".join(f"N={n}: +{v:.2f}" for n, v in improvements.items()),
    )


def test_criterion_8_critical_step_counts():
    assert critical_n(4, symmetric=False) == 3
    assert critical_n(5, symmetric=True) == 2
    report(8, "critical N: regular alpha=4 -> 3, symmetric alpha=5 -> 2")


def test_criterion_9_cost_accounting(tfim_ruth3):
    grid = (-0.5, 0.0, 0.5, 1.0, 1.5)
    gates_per_step = sum(
        len(tfim_ruth3.partition.fragments[k].terms.terms)
        for k, _ in tfim_ruth3.formula.steps
    )

    def analytic_ep(n):
        return len(grid) * 4 * 2 * n * gates_per_step

    def analytic_mpf(n):
        return gates_per_step * n * (n + 1) // 2

    # one time's gates: each stage's compiled row-gates over the run's times
    measured_ep = {}
    measured_mpf = {}
    for n in (1, 6):
        cfg = replace(
            tfim_ruth3, trotter_steps=n, a_grid=grid, mpf_step_counts=tuple(range(1, n + 1))
        )
        stages = {stage.name: stage.totals() for stage in plan(cfg, ("ep", "mpf"))}
        measured_ep[n] = stages["sweep"][2] / len(cfg.times)
        measured_mpf[n] = stages["constituents"][2] / len(cfg.times)
        assert measured_ep[n] == pytest.approx(analytic_ep(n), rel=0.10)
        assert measured_mpf[n] == pytest.approx(analytic_mpf(n), rel=0.10)

    ep_growth = measured_ep[6] / measured_ep[1]
    mpf_growth = measured_mpf[6] / measured_mpf[1]
    assert ep_growth == pytest.approx(6, rel=0.10)  # linear in N
    assert mpf_growth == pytest.approx(21, rel=0.10)  # quadratic in N
    report(
        9,
        f"gate budgets match analytic counts; growth at N=6: profiling"
        f" {ep_growth:.1f}x (linear), multi-product {mpf_growth:.1f}x"
        " (quadratic)",
    )


def test_criterion_10_infrastructure(tmp_path, rng, tfim_ruth3):
    # least-squares recovery of in-span synthetic data
    basis = BasisSpec((4, 5), include_antisymmetric=True)
    grid = default_a_grid(2)
    samples = [
        ProfileSample(
            a,
            1.5
            + 0.25 * (a**4 + (1 - a) ** 4)
            - 0.1 * (a**5 - (1 - a) ** 5),
        )
        for a in grid
    ]
    fit = fit_profile(samples, basis, alpha=4)
    assert abs(fit.y_star - 1.5) < 1e-9
    assert fit.residual_norm < 1e-9

    # circuit inversion round trip
    circuit = compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, 0.7, 2)
    state = random_state(rng, 4)
    returned = apply_circuit(apply_circuit(state, circuit), invert_circuit(circuit))
    inversion_err = float(np.max(np.abs(returned.amplitudes - state.amplitudes)))
    assert inversion_err < 1e-10

    # norm preservation over a long random circuit
    gates = []
    while len(gates) < 100:
        word = "".join(rng.choice(list("IXYZ")) for _ in range(4))
        if set(word) != {"I"}:
            gates.append(PauliRotation(word, float(rng.normal())))
    evolved = apply_circuit(state, Circuit(tuple(gates), 4))
    norm_err = abs(np.linalg.norm(evolved.amplitudes) - 1.0)
    assert norm_err < 1e-10

    # config and CSV round trips, deterministic outputs under a fixed seed
    from trotterprof import parse_config, read_csv, serialize_config, write_csv
    from trotterprof.cli import run_command
    from trotterprof.report import ResultRow, ResultTable

    text = serialize_config(tfim_ruth3)
    assert serialize_config(parse_config(text)) == text

    table = ResultTable.from_rows(
        [ResultRow("ep", 0.1, 1, 1 / 3, 0.3333, 1.2e-5)], {"seed": "7"}
    )
    path = tmp_path / "table.csv"
    write_csv(table, path, timestamp=False)
    assert read_csv(path).rows == table.rows
    write_csv(read_csv(path), tmp_path / "again.csv", timestamp=False)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    small = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2]}}
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(
        ["run", "--config", str(cfg_path), "--out", str(out1), "--method", "trotter,mpf"]
    ) == 0
    assert run_command(
        ["run", "--config", str(cfg_path), "--out", str(out2), "--method", "trotter,mpf"]
    ) == 0

    def stripped(p):
        return [
            line
            for line in p.read_text().splitlines()
            if not line.startswith("# generated:")
        ]

    assert stripped(out1) == stripped(out2)
    report(
        10,
        f"fit recovery, inversion ({inversion_err:.1e}), norm preservation"
        f" ({norm_err:.1e}), config/CSV round trips, deterministic outputs",
    )
