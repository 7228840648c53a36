"""The batched sample engine against the looped reference circuits.

Every sample kind (composite probes, plain Trotter circuits, multi-product
constituents) runs through ``sample_expectations``; the reference is
``expectation(apply_circuit(psi, circuit), obs)``, perturbed by the jitter
when there is one, on the circuit compiled gate by gate.
"""

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
    Circuit,
    CompositeSpec,
    GaussianJitter,
    PauliRotation,
    apply_circuit,
    compile_circuit,
    composite_circuit,
    composite_expectations,
    evolve_batch,
    exact_evolve,
    expectation,
    mpf_estimate,
    mpf_weights,
    preset_config,
    profile_sweep,
    read_csv,
    run_error_curve,
)
from trotterprof.cli import run_command
from trotterprof.config import PRESETS, parse_config
from trotterprof.experiments import _per_time_jitters
from trotterprof.pauli import OperatorSum, PauliTerm, _word_tables
from trotterprof.simulator import expectation_rows

from conftest import random_state

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


def test_evolve_batch_rows_equal_apply_circuit(rng):
    words = ["XZY", "ZZI", "IYX", "XXX", "ZIZ"]
    angles = rng.uniform(-2.0, 2.0, size=(6, len(words)))
    psi = random_state(rng, 3)
    stack = evolve_batch(psi, [_word_tables(w) for w in words], angles)
    for row, gate_angles in zip(stack, angles):
        circuit = Circuit(tuple(PauliRotation(w, a) for w, a in zip(words, gate_angles)), 3)
        np.testing.assert_allclose(row, apply_circuit(psi, circuit).amplitudes, rtol=0, atol=TOL)


def allocating_evolve(state, tables, angles):
    """The gate loop as one expression per gate, a fresh stack per operation."""
    cos = np.cos(angles).T[:, :, None]
    sin = 1.0j * np.sin(angles).T[:, :, None]
    amps = np.tile(state.amplitudes, (angles.shape[0], 1))
    for k, (perm, phase) in enumerate(tables):
        amps = cos[k] * amps - sin[k] * np.take(amps * phase, perm, axis=1)
    return amps


def allocating_rows(amps, obs):
    values = np.zeros(amps.shape[0], dtype=complex)
    for term in obs.terms:
        perm, phase = _word_tables(term.word)
        moved = np.take(amps * phase, perm, axis=1)
        values += term.coeff * np.array([np.vdot(a, m) for a, m in zip(amps, moved)])
    return values.real


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
    tables = [_word_tables(w) for w in words]
    angles = rng.uniform(-3.0, 3.0, size=(rows, len(words)))
    stack = evolve_batch(psi, tables, angles)
    assert np.array_equal(stack, allocating_evolve(psi, tables, angles))
    obs = OperatorSum.from_terms([PauliTerm(w, float(rng.normal())) for w in words])
    assert np.array_equal(expectation_rows(stack, obs), allocating_rows(stack, obs))


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
    batched = mpf_estimate(t, weights, cfg)
    looped = sum(
        w * looped_trotter(cfg, t, s) for w, s in zip(weights.weights, weights.step_counts)
    )
    assert abs(batched - looped) <= TOL


@settings(max_examples=15, deadline=None)
@given(
    presets,
    st.lists(split, min_size=1, max_size=5, unique=True),
    times,
    steps,
    st.integers(0, 2**32 - 1),
)
def test_noisy_sweep_draws_match_the_looped_path(name, grid, t, n, seed):
    cfg = CONFIGS[name]
    sigma = 1e-3
    samples = profile_sweep(
        grid, t, replace(cfg, trotter_steps=n),
        jitter=GaussianJitter(sigma, np.random.default_rng(seed)),
    )
    jitter = GaussianJitter(sigma, np.random.default_rng(seed))
    variants = (1,) if cfg.formula.symmetric else (1, 2, 3, 4)
    for a, sample in zip(grid, samples):
        looped = np.mean([looped_composite(cfg, v, a, t, n, jitter) for v in variants])
        assert sample.a == a
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
            t, weights, cfg, jitter=GaussianJitter(1e-3, np.random.default_rng(s))
        )
        jitter = GaussianJitter(1e-3, np.random.default_rng(s))
        looped = sum(
            w * looped_trotter(cfg, t, c, jitter)
            for w, c in zip(weights.weights, weights.step_counts)
        )
        assert abs(batched - looped) <= TOL

