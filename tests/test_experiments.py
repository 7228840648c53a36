"""Benchmark setups, error curves, slope fitting, and cost accounting."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trotterprof import (
    CompositeSpec,
    ConfigError,
    DegenerateInputError,
    ErrorCurve,
    FormulaError,
    OperatorSum,
    PauliTerm,
    ProductFormula,
    ProfilingConfig,
    averaged_expectation,
    compile_circuit,
    composite_circuit,
    exact_evolve,
    expectation,
    init_product_state,
    mutually_commuting,
    plan,
    preset_config,
    run_error_curve,
    sign_stable_mask,
    slope_fit,
    stable_slope_fit,
    to_dense,
)
from trotterprof import profiling, simulator
from trotterprof.cli import run_command
from trotterprof.config import PRESETS, parse_config
from trotterprof.experiments import METHODS, CurvePoint
from trotterprof.formulas import SampleTemplate
from trotterprof.mpf import constituent_sets
from trotterprof.profiling import sweep_rows, sweep_sets
from trotterprof.simulator import engine_counts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)


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
    with pytest.raises(ConfigError):
        preset_config("tfim-lie1")


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
    assert {t.word: t.coeff.real for t in total.terms} == pytest.approx(expected)


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
# engine batches and run plans


def cost_cases():
    """``(formula, partition)`` of every preset plus hand-written lie1 and strang2 tables."""
    cases = [(cfg.formula, cfg.partition) for cfg in map(preset_config, PRESETS)]
    partition = preset_config("xxz-ruth3").partition
    cases.append((ProductFormula(((0, 1.0), (1, 1.0))), partition))
    cases.append((ProductFormula(((0, 0.5), (1, 1.0), (0, 0.5))), partition))
    return cases


def batches_of(sets) -> list:
    """The engine batches of branch sets, in run order."""
    return [batch for _, batches in sets for batch in batches]


def batch_shapes(sets) -> list[tuple[int, int]]:
    """``(words, rows)`` of each engine batch of branch sets."""
    return [(len(words), len(angles)) for words, angles in batches_of(sets)]


def test_mpf_cost_total_steps(tfim_ruth3):
    gates_per_step = 3 * 3 + 3 * 4  # ruth table: 3 ZZ layers + 3 X layers
    times = (0.2, 0.5, 1.0)
    shapes = batch_shapes(constituent_sets(times, (1, 2, 3), tfim_ruth3))
    # one batch per step count, one row per time: 1 + 2 + 3 = 6 steps
    assert shapes == [(s * gates_per_step, len(times)) for s in (1, 2, 3)]
    # each batch runs the words of its compiled constituent circuit
    for formula, partition in cost_cases():
        cfg = replace(tfim_ruth3, formula=formula, partition=partition)
        for counts in ((1,), (1, 2, 3)):
            sets = list(constituent_sets(times, counts, cfg))
            assert [seam for seam, _ in sets] == [0] * len(counts)
            for count, (words, _) in zip(counts, batches_of(sets)):
                compiled = compile_circuit(formula, partition, 1.0, count)
                assert words == [g.word for g in compiled.gates]


def test_ep_cost_symmetric_counting(tfim_suzuki4):
    sets = sweep_sets(*sweep_rows((0.2, 0.5, 0.8), (1.0,)), tfim_suzuki4)
    # a symmetric splitting needs one variant, a composite of 2 steps
    gates_per_step = len(compile_circuit(tfim_suzuki4.formula, tfim_suzuki4.partition, 1.0).gates)
    assert batch_shapes(sets) == [(2 * gates_per_step, 3)]


def test_ep_cost_counts_compiled_gates(tfim_ruth3):
    gates_per_step = 3 * 3 + 3 * 4
    cfg = replace(tfim_ruth3, trotter_steps=2)
    grid = (-0.5, 0.0, 0.3, 1.0, 1.5)
    shapes = batch_shapes(sweep_sets(*sweep_rows(grid, (1.0,)), cfg))
    assert shapes == [(2 * 2 * gates_per_step, 5)] * 4  # four variants
    # every probe variant runs the words of its compiled composite circuit
    for formula, partition in cost_cases():
        variants = (1,) if formula.symmetric else (1, 2, 3, 4)
        for n in (1, 3):
            cfg = replace(tfim_ruth3, formula=formula, partition=partition, trotter_steps=n)
            sets = list(sweep_sets(*sweep_rows(grid, (1.0,)), cfg))
            batches = batches_of(sets)
            assert len(batches) == len(variants)
            # variants 1, 2 and 3, 4 share their opening segment
            assert len(sets) == (1 if formula.symmetric else 2)
            for seam, (first, *rest) in sets:
                assert seam == len(first[0]) // 2
                for words, angles in rest:
                    assert words[:seam] == first[0][:seam]
                    assert np.array_equal(angles[:, :seam], first[1][:, :seam])
            for v, (words, angles) in zip(variants, batches):
                circuit = composite_circuit(CompositeSpec(v, 0.3, 1.0, n), formula, partition)
                assert words == [g.word for g in circuit.gates]
                assert angles.shape == (5, len(circuit.gates))
                np.testing.assert_allclose(angles[2], [g.angle for g in circuit.gates])


def test_cost_scaling_linear_vs_quadratic(tfim_ruth3):
    grid = (-0.5, 0.0, 0.5, 1.0, 1.5)

    def ep_gates(n):
        cfg = replace(tfim_ruth3, trotter_steps=n)
        return sum(w * r for w, r in batch_shapes(sweep_sets(*sweep_rows(grid, (1.0,)), cfg)))

    def mpf_gates(n):
        return sum(w for w, _ in batch_shapes(constituent_sets((1.0,), range(1, n + 1), tfim_ruth3)))

    assert ep_gates(6) == 6 * ep_gates(1)
    assert mpf_gates(6) == 21 * mpf_gates(1)


def test_cost_validates_inputs(tfim_ruth3):
    with pytest.raises(FormulaError, match="at least 1"):
        list(sweep_sets([0.3], [1.0], replace(tfim_ruth3, trotter_steps=0)))
    with pytest.raises(FormulaError, match="at least 1"):
        list(constituent_sets([1.0], (0,), tfim_ruth3))
    with pytest.raises(DegenerateInputError, match="variant must be 1..4"):
        list(sweep_sets([0.3], [1.0], tfim_ruth3, (5,)))
    with pytest.raises(DegenerateInputError, match="method must be one of"):
        plan(tfim_ruth3, ("shadow",))
    # a table that addresses a fragment the partition lacks
    three = replace(tfim_ruth3, formula=ProductFormula(((0, 1.0), (1, 1.0), (2, 1.0))))
    with pytest.raises(FormulaError):
        list(sweep_sets([0.3], [1.0], three))
    with pytest.raises(FormulaError):
        list(constituent_sets([1.0], (1,), three))
    with pytest.raises(FormulaError):
        plan(three, METHODS)


#: The four presets and the benchmark's two chain documents (seed 1).
PLAN_DOCUMENTS = {
    **{name: {"preset": name} for name in PRESETS},
    "chain8-calibrated": workloads.chain8_calibrated(1),
    "chain10-pinned": workloads.chain10_pinned(1),
}

#: Each command's arguments; the slope window takes every time of every document.
COMMANDS = {
    "run": ["run"],
    "slope": ["slope", "--window", "0", "100"],
    "profile": ["profile"],
    "mpf": ["mpf"],
    "calibrate": ["calibrate"],
    "cost": ["cost"],
}


def planned_stages(cfg, command: str) -> list:
    """The stages of ``plan`` that ``command`` executes."""
    if command in ("run", "slope"):
        return list(plan(cfg, METHODS))
    if command == "profile":  # one sweep, at the last time
        return list(plan(replace(cfg, times=cfg.times[-1:]), ("ep",)))
    if command == "mpf":
        return list(plan(cfg, ("mpf",)))
    calibration = [s for s in plan(cfg, ("ep",)) if s.name == "calibration"]
    # cost calibrates only to learn the size of a default grid
    return calibration if command == "calibrate" or cfg.a_grid is None else []


class EngineSpy:
    """Records every engine batch and what the kernel evolves for it.

    ``sample_branches`` is wrapped in every namespace that binds it, and the
    kernel loop ``_evolve_steps`` where the engine calls it: on the steps of
    a trunk once, then on each branch's own steps, one chunk of rows at a
    time; a lone batch is a branch set of one.
    """

    def __init__(self, monkeypatch):
        self.batches, self.folded, self.steps = [], 0, 0
        original, evolve = simulator.sample_branches, simulator._evolve_steps

        def sample(state, batches, seam, obs):
            self.batches += [(tuple(words), len(angles)) for words, angles in batches]
            return original(state, batches, seam, obs)

        def evolve_steps(amps, words, rotations, steps, scratch):
            self.folded += len(amps) * sum(stop - start for start, stop, _ in steps)
            self.steps += len(amps) * len(steps)
            return evolve(amps, words, rotations, steps, scratch)

        self.namespaces = sorted(
            name
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "trotterprof"
            and getattr(module, "sample_branches", None) is original
        )
        for name in self.namespaces:
            monkeypatch.setattr(sys.modules[name], "sample_branches", sample)
        monkeypatch.setattr(simulator, "_evolve_steps", evolve_steps)


@pytest.mark.parametrize("name", list(PLAN_DOCUMENTS))
def test_every_command_runs_the_batches_its_plan_lists(tmp_path, capsys, monkeypatch, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PLAN_DOCUMENTS[name]))
    cfg = parse_config(path.read_text())
    # planned first: a plan may calibrate, to learn the size of the grid
    expected = {command: planned_stages(cfg, command) for command in COMMANDS}
    for command, argv in COMMANDS.items():
        calibrations = []
        with monkeypatch.context() as patch:
            spy = EngineSpy(patch)
            assert {"trotterprof", "trotterprof.profiling", "trotterprof.simulator"} <= set(
                spy.namespaces
            )
            calibrate = profiling.calibrate_basis
            patch.setattr(
                profiling, "calibrate_basis", lambda c: calibrations.append(c) or calibrate(c)
            )
            assert run_command([*argv, "--config", str(path)]) == 0, command
        assert spy.batches == [b for stage in expected[command] for b in stage.batches], command
        totals = [stage.totals() for stage in expected[command]]
        assert spy.folded == sum(t[3] for t in totals), command
        assert spy.steps == sum(t[4] for t in totals), command
        # a command calibrates at most once, and only when its plan says so
        stages = [stage.name for stage in expected[command]]
        assert len(calibrations) == stages.count("calibration") <= 1, command
    capsys.readouterr()


@pytest.mark.parametrize("name", list(PLAN_DOCUMENTS))
def test_plan_builds_no_angle(monkeypatch, name):
    # a plan reads the run's generators at zero rows; only the calibration it
    # runs to learn the size of an unset grid builds angles
    cfg = parse_config(json.dumps(PLAN_DOCUMENTS[name]))
    rows, calibrating = [], []
    forward, calibrate = SampleTemplate.forward, profiling.calibrate_basis

    def recording(self, x):
        if not calibrating:
            rows.append(len(x))
        return forward(self, x)

    def calibration(config):
        calibrating.append(True)
        try:
            return calibrate(config)
        finally:
            calibrating.pop()

    monkeypatch.setattr(SampleTemplate, "forward", recording)
    monkeypatch.setattr(profiling, "calibrate_basis", calibration)
    plan(cfg, METHODS)
    assert rows and set(rows) == {0}


@pytest.mark.parametrize(
    "options", [{"a_grid": [-0.5, 0.0, 0.5, 1.0, 1.5]}, {"n_extra_orders": 1}]
)
def test_cost_runs_no_circuit_when_the_grid_is_known(tmp_path, capsys, monkeypatch, options):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"preset": "tfim-ruth3", "profiling": options}))
    spy = EngineSpy(monkeypatch)
    assert run_command(["cost", "--config", str(path)]) == 0
    assert spy.batches == []
    out = capsys.readouterr().out
    assert ("calibration" in out) == ("a_grid" in options)


def test_cost_totals_count_every_batch_of_a_run(capsys):
    assert run_command(["cost", "--preset", "tfim-ruth3"]) == 0
    total = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("total")]
    # 480 calibration rows, 400 sweep rows and 40 constituent rows; per
    # (a, t), variants 1 and 2 share 17 folded gates in 11 kernel steps, and
    # variants 3 and 4 share 18 in 14, so the probes evolve 126 of their 161
    # folded gates and 90 of their 115 steps
    assert total == [["total", "10", "920", "38220", "28980", "20700"]]


@pytest.mark.parametrize(
    "name, alone, shared",
    [
        ("tfim-ruth3", (161, 115), (126, 90)),
        ("xxz-ruth3", (207, 206), (162, 161)),
        ("chain8-calibrated", (345, 207), (270, 162)),
    ],
)
def test_probe_variants_evolve_their_shared_trunk_once(name, alone, shared):
    # per (a, t): folded gates and kernel steps of the four variants run one
    # by one, and with variants 1, 2 and 3, 4 branching from one trunk each
    cfg = parse_config(json.dumps(PLAN_DOCUMENTS[name]))
    layout = [(seam, [words for words, _ in batches]) for seam, batches in sweep_sets((), (), cfg)]
    assert [len(sequences) for _, sequences in layout] == [2, 2]
    each = [engine_counts([words], seam) for seam, sequences in layout for words in sequences]
    assert tuple(map(sum, zip(*each))) == alone
    assert tuple(map(sum, zip(*(engine_counts(seqs, seam) for seam, seqs in layout)))) == shared
