"""Config documents, CSV round trips, and the command-line driver."""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trotterprof
from trotterprof import (
    ConfigError,
    ResultRow,
    ResultTable,
    parse_config,
    preset_config,
    read_csv,
    run_error_curve,
    serialize_config,
    slope_fit,
    stable_slope_fit,
    write_csv,
)
from trotterprof import config, mpf, profiling, simulator
from trotterprof.cli import _build_parser, run_command
from trotterprof.config import MAX_QUBITS, PRESETS, config_digest
from trotterprof.experiments import DEFAULT_TIMES
from trotterprof.formulas import MAX_ALPHA, ProductFormula, builtin_formula
from trotterprof.report import render_csv
from trotterprof.simulator import MAX_ANGLES

from conftest import suzuki_steps

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)


def sample_document() -> dict:
    return {
        "system": {
            "num_qubits": 2,
            "hamiltonian": [
                {"pauli": "ZZ", "coeff": 1.0},
                {"pauli": "XI", "coeff": 0.5},
                {"pauli": "IX", "coeff": 0.5},
            ],
        },
        "partition": [[0], [1, 2]],
        "formula": "strang2",
        "initial_state": {"factors": [[[1, 0], [0, 0]], [[1, 0], [1, 0]]]},
        "observable": [{"pauli": "ZI", "coeff": 1.0}],
        "times": {"start": 0.1, "stop": 0.5, "points": 5, "scale": "log"},
        "profiling": {"trotter_steps": 1},
        "mpf": {"step_counts": [1, 2]},
        "noise": {"sigma": 0.0, "seed": 11},
        "output": {"path": "out.csv", "format": "csv"},
    }


# ---------------------------------------------------------------------------
# parsing and round trips


def test_parse_full_document():
    cfg = parse_config(json.dumps(sample_document()))
    assert cfg.partition.n == 2
    assert cfg.formula.alpha == 3 and cfg.formula.symmetric
    assert config.document_for(cfg)["formula"] == "strang2"
    assert len(cfg.times) == 5
    assert cfg.seed == 11


@settings(deadline=None)
@given(
    trotter_steps=st.integers(1, 4),
    a_grid=st.none()
    | st.lists(
        st.floats(-1.0, 2.0, allow_nan=False), min_size=1, max_size=9, unique=True
    ),
    n_extra_orders=st.none() | st.integers(0, 3),
    include_antisymmetric=st.booleans(),
)
def test_round_trip_is_semantically_stable(
    trotter_steps, a_grid, n_extra_orders, include_antisymmetric
):
    doc = sample_document()
    profiling = {"trotter_steps": trotter_steps, "a_grid": a_grid}
    if n_extra_orders is not None:
        profiling["n_extra_orders"] = n_extra_orders
        profiling["include_antisymmetric"] = include_antisymmetric
    doc["profiling"] = profiling
    if a_grid is not None and n_extra_orders is not None:
        # strang2 has alpha 3; the pinned orders stop at 2 * alpha - 2
        columns = min(n_extra_orders + 1, 2) * (2 if include_antisymmetric else 1)
        if len(a_grid) <= columns:
            with pytest.raises(ConfigError, match="profiling.a_grid"):
                parse_config(json.dumps(doc))
            return
    cfg = parse_config(json.dumps(doc))
    assert cfg.trotter_steps == trotter_steps
    assert cfg.a_grid == (None if a_grid is None else tuple(a_grid))
    assert (cfg.basis is None) == (n_extra_orders is None)
    once = serialize_config(cfg)
    twice = serialize_config(parse_config(once))
    assert once == twice


#: ``config-sha256`` of each preset's CSVs: editing a preset document changes it.
PRESET_DIGESTS = {
    "tfim-ruth3": "f4a1801881486f0d0e560c824c20910930fdb883cc1fab9695c28142068e0e4b",
    "tfim-suzuki4": "0d7c88d9349122e063ccf68196c70b3889386118c29bcde59e7e745b450abd15",
    "xxz-ruth3": "a2eed1957f2269f92626ac03bf4e3aab95f79a187eef324f18d8bb4a87a9005f",
    "xxz-suzuki4": "2cc38418c2f3082902d7b3b85b8a01a467a9e9fdafa17d83e1eb78df52b7c98b",
}


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_digest_is_pinned(name):
    assert config_digest(preset_config(name)) == PRESET_DIGESTS[name]
    document = parse_config(json.dumps({"preset": name}))
    assert config_digest(document) == PRESET_DIGESTS[name]


@pytest.mark.parametrize(
    "name", ["tfim-ruth3", "tfim-suzuki4", "xxz-ruth3", "xxz-suzuki4"]
)
def test_all_presets_materialize(name):
    cfg = preset_config(name)
    assert config.document_for(cfg)["formula"] == name.split("-")[1]
    assert cfg.partition.n == 4


def test_preset_with_option_overrides():
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2]}, "noise": {"seed": 5}}
    cfg = parse_config(json.dumps(doc))
    assert cfg.times == (0.1, 0.2)
    assert cfg.seed == 5


def test_preset_refuses_system_sections():
    doc = {"preset": "tfim-ruth3", "system": {"num_qubits": 2, "hamiltonian": []}}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("{\n  'bad': }")


def test_partition_must_cover_every_term():
    doc = sample_document()
    doc["partition"] = [[0], [1]]
    with pytest.raises(ConfigError, match="does not cover.*2"):
        parse_config(json.dumps(doc))


def test_partition_rejects_double_assignment():
    doc = sample_document()
    doc["partition"] = [[0], [1, 1, 2]]
    with pytest.raises(ConfigError, match="term 1 appears"):
        parse_config(json.dumps(doc))


def test_partition_rejects_noncommuting_fragment():
    doc = sample_document()
    doc["partition"] = [[0, 1], [2]]  # ZZ with XI do not commute
    with pytest.raises(ConfigError, match="commute"):
        parse_config(json.dumps(doc))


def test_custom_formula_consistency_error():
    doc = sample_document()
    doc["formula"] = {
        "steps": [[0, 0.5], [1, 1.0]],
    }
    with pytest.raises(ConfigError, match="sum"):
        parse_config(json.dumps(doc))


def test_a_table_that_skips_a_fragment_is_refused(tmp_path, capsys):
    # the table used to run on the Hamiltonian of the fragments it names:
    # exit 0, every estimate +0 while the exact value reached 0.236
    doc = sample_document()
    doc.pop("output")
    for partition, steps, message in [
        ([[0], [1, 2]], [[0, 1.0]], "fragment 1 gets no step"),
        ([[0], [1], [2]], [[0, 1.0], [2, 1.0]], "fragment 1 gets no step"),
        ([[0], [1, 2]], [[1, 1.0]], "fragment 0 gets no step"),
    ]:
        doc["partition"] = partition
        doc["formula"] = {"steps": steps}
        with pytest.raises(ConfigError, match=f"formula.steps: {message}") as info:
            parse_config(json.dumps(doc))
        assert info.value.field == "formula.steps"
        assert run_command(["run", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "alpha" not in err


def test_a_custom_builtin_table_is_the_builtin_formula():
    # the same steps derive the same alpha, so every number of a run agrees,
    # and the table is written by its name, so the digest agrees too
    for name in PRESETS:
        preset = preset_config(name)
        doc = {key: value for key, value in PRESETS[name].items() if key != "formula"}
        doc["formula"] = {"steps": [list(step) for step in preset.formula.steps]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.formula == preset.formula
        assert config_digest(cfg) == PRESET_DIGESTS[name]


def test_a_replaced_formula_serializes_under_its_own_name():
    # the setup stored the document's formula name beside the formula, so a
    # setup given strang2 still serialized as ruth3, with tfim-ruth3's digest
    preset = preset_config("tfim-ruth3")
    strang = replace(preset, formula=builtin_formula("strang2", preset.partition))
    assert config.document_for(strang)["formula"] == "strang2"
    assert config_digest(strang) != PRESET_DIGESTS["tfim-ruth3"]
    assert config_digest(parse_config(serialize_config(strang))) == config_digest(strang)
    custom = replace(preset, formula=ProductFormula(((1, 0.5), (0, 1.0), (1, 0.5))))
    assert config.document_for(custom)["formula"] == {"steps": [[1, 0.5], [0, 1.0], [1, 0.5]]}
    assert config_digest(custom) not in (config_digest(preset), config_digest(strang))


def test_a_preset_flag_passes_every_bound_a_preset_document_does(tmp_path, capsys, monkeypatch):
    # --preset built its setup beside the parser: with the angle budget
    # lowered, cost --preset exited 0 while the same preset as a document exited 1
    monkeypatch.setattr(simulator, "MAX_ANGLES", 1000)
    with pytest.raises(ConfigError) as flag:
        preset_config("tfim-ruth3")
    with pytest.raises(ConfigError) as document:
        parse_config(json.dumps({"preset": "tfim-ruth3"}))
    assert flag.value.field == document.value.field == "times.points"
    errors, path = [], write_config(tmp_path, {"preset": "tfim-ruth3"})
    for source in (["--preset", "tfim-ruth3"], ["--config", path]):
        assert run_command(["cost", *source]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "times.points must be an integer from 1 to" in errors[0]


def test_custom_formula_accepted():
    doc = sample_document()
    doc["formula"] = {
        "steps": [[0, 1.0], [1, 1.0]],
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.formula.steps == ((0, 1.0), (1, 1.0))
    assert config.document_for(cfg)["formula"] == "lie1"  # the table is lie1's


def test_non_hermitian_coefficient_rejected():
    doc = sample_document()
    doc["observable"] = [{"pauli": "ZI", "coeff": [1.0, 0.5]}]
    with pytest.raises(ConfigError, match="real number"):
        parse_config(json.dumps(doc))


def test_duplicate_a_grid_rejected():
    doc = sample_document()
    doc["profiling"] = {"a_grid": [0.2, 0.2, 0.6]}
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"preset": "tfim-ruth3", "profiling": {"a_grid": []}}, "profiling.a_grid"),
        (
            {"preset": "tfim-ruth3", "profiling": {"a_grid": [0.1, 0.5], "n_extra_orders": 1}},
            "profiling.a_grid",
        ),
        ({"preset": "tfim-ruth3", "mpf": {"step_counts": []}}, "mpf.step_counts"),
        # used to fail after parsing, with a message naming no key
        ({"preset": "tfim-ruth3", "times": {"values": []}}, "times.values"),
    ],
    ids=["empty-grid", "grid-short-for-pinned-basis", "no-step-counts", "no-times"],
)
def test_unusable_grids_and_step_counts_fail_at_parse_time(tmp_path, capsys, doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == key
    path = write_config(tmp_path, doc)
    for argv in (["run", "--method", "trotter"], ["mpf"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        assert key in capsys.readouterr().err


def test_a_register_above_the_cap_is_refused_before_anything_is_built(tmp_path, capsys):
    # the state alone would take 32 MiB at the cap + 1; parsing stays far below
    doc = workloads.tfim_chain_document(MAX_QUBITS + 1, "ruth3", 1, stop=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="system.num_qubits") as info:
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "system.num_qubits"
    assert peak < 1 << 20
    path = write_config(tmp_path, doc)
    for argv in (["run", "--method", "trotter"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        assert "system.num_qubits" in capsys.readouterr().err


OVERSIZED_COUNTS = [
    ("times.points", {"times": {"start": 0.1, "stop": 1.0, "points": 10**13}}),
    ("profiling.trotter_steps", {"profiling": {"trotter_steps": 10**13}}),
    ("mpf.step_counts", {"mpf": {"step_counts": [1, 10**13]}}),
]


@pytest.mark.parametrize(
    "key, options", OVERSIZED_COUNTS, ids=[key for key, _ in OVERSIZED_COUNTS]
)
def test_an_oversized_count_is_refused_before_anything_is_built(
    tmp_path, capsys, key, options
):
    # each used to end in a MemoryError traceback, in np.geomspace or in
    # SampleTemplate.forward
    doc = {"preset": "tfim-ruth3", **options}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(key)) as info:
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == key
    assert peak < 1 << 20
    path = write_config(tmp_path, doc)
    for argv in (["run", "--method", "trotter"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


#: An angle budget small enough that the lists at its bounds stay short.
SMALL_ANGLES = MAX_ANGLES // 1000


def oversized_list(key: str, extra: int) -> dict:
    """A ``tfim-ruth3`` document whose list under ``key`` is ``extra`` past its bound.

    ``tfim-ruth3`` rotates 21 terms per step and sweeps composites of 2
    steps: at each time up to 7 grid points (a calibrated basis), and each
    grid point at its 20 default times.
    """
    if key == "times.values":
        size = SMALL_ANGLES // (21 * 2 * 7) + extra
        return {"preset": "tfim-ruth3", "times": {"values": list(np.linspace(0.1, 1.0, size))}}
    size = SMALL_ANGLES // (2 * 21 * 20) + extra
    return {"preset": "tfim-ruth3", "profiling": {"a_grid": list(np.linspace(-0.5, 1.5, size))}}


@pytest.mark.parametrize("key", ["times.values", "profiling.a_grid"])
def test_an_oversized_list_is_refused_before_it_is_read(tmp_path, capsys, monkeypatch, key):
    # a 10^6-time list used to parse, and a long a_grid was blamed on
    # profiling.trotter_steps ("an integer from 1 to 0")
    monkeypatch.setattr(simulator, "MAX_ANGLES", SMALL_ANGLES)
    assert parse_config(json.dumps(oversized_list(key, 0)))
    doc = oversized_list(key, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(key) + " may hold at most") as info:
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == key
    assert peak < 1 << 20
    path = write_config(tmp_path, doc)
    for argv in (["run", "--method", "trotter"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


def test_an_overlong_step_count_list_is_refused_before_it_is_read(tmp_path, capsys):
    # 2000 counts used to parse: cost reported 2000 circuits, and mpf was
    # still solving for the weights after 20 s
    counts = list(range(1, config.MAX_STEP_COUNTS + 1))
    doc = {"preset": "tfim-ruth3", "mpf": {"step_counts": counts}}
    assert parse_config(json.dumps(doc)).mpf_step_counts == tuple(counts)
    # a value that fails its own check shows that no value is read first
    doc["mpf"]["step_counts"] = ["one"] + list(range(2, 2001))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="must hold 1 to 16 counts, got 2000") as info:
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "mpf.step_counts"
    assert peak < 1 << 20
    path = write_config(tmp_path, doc)
    for argv in (["run"], ["mpf"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        err = capsys.readouterr().err
        assert "mpf.step_counts" in err
        assert "Traceback" not in err


def alternating_document(steps: int) -> dict:
    """``sample_document``'s system, without option sections, under a custom
    table of ``steps`` steps alternating between its fragments (alpha 2)."""
    keys = ("system", "partition", "initial_state", "observable")
    doc = {key: sample_document()[key] for key in keys}
    doc["formula"] = {"steps": [[i % 2, 2 / steps] for i in range(steps)]}
    return doc


@pytest.mark.parametrize(
    "options, key",
    [({}, "times.points"), ({"times": {"points": 14}}, "formula.steps")],
)
def test_absent_option_sections_are_bounded_at_their_defaults(
    tmp_path, capsys, monkeypatch, options, key
):
    # 2048 steps (3072 gates) against MAX_ANGLES / 64 scale 131072 steps
    # against MAX_ANGLES: 20 default times pass the limit of 14, and at 14
    # times calibration's 120-row batch passes the budget at one step.  Both
    # documents used to parse, because a missing section skipped its bound.
    monkeypatch.setattr(simulator, "MAX_ANGLES", MAX_ANGLES // 64)
    doc = {**alternating_document(2048), **options}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == key
    path = write_config(tmp_path, doc)
    for argv in (["run"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


def test_a_step_over_the_angle_budget_names_the_table_not_the_depth(monkeypatch):
    # even one Trotter step of calibration's 120-row batch is over the budget:
    # the refusal used to read "profiling.trotter_steps must be an integer
    # from 1 to 0", which names no value the user could change
    monkeypatch.setattr(simulator, "MAX_ANGLES", MAX_ANGLES // 64)
    doc = {**alternating_document(2048), "times": {"points": 14}}
    with pytest.raises(ConfigError, match="formula.steps rotate 3072 gates per step") as info:
        parse_config(json.dumps(doc))
    assert "profiling.n_extra_orders" in str(info.value)
    # pinning the basis skips calibration's probes, and the 42-row sweep fits
    doc["profiling"] = {"n_extra_orders": 0}
    assert parse_config(json.dumps(doc)).trotter_steps == 1


def test_a_table_too_long_for_one_time_names_the_table_not_the_times(tmp_path, capsys):
    # 200 Z terms and 1 X term under 2^15 steps rotate 3.3M gates per step, so
    # one time's 6 steps pass MAX_ANGLES; the refusal used to read
    # "times.points must be an integer from 1 to 0".  The steps on one
    # fragment sit together, so the table merges to lie1 and parses fast.
    n, half = 8, 2**14
    words = ["".join(w) for w in itertools.product("IZ", repeat=n)][1:201]
    doc = {
        "system": {
            "num_qubits": n,
            "hamiltonian": [{"pauli": w, "coeff": 1.0} for w in [*words, "X" + "I" * (n - 1)]],
        },
        "partition": [list(range(200)), [200]],
        "formula": {"steps": [[0, 1 / half]] * half + [[1, 1 / half]] * half},
        "initial_state": {"factors": [[[1, 0], [0, 0]]] * n},
        "observable": [{"pauli": "Z" + "I" * (n - 1), "coeff": 1.0}],
    }
    message = "formula.steps rotate 3293184 gates per step, so even one time"
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == "formula.steps"
    assert run_command(["run", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_an_overlong_formula_is_refused_before_it_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "MAX_FORMULA_STEPS", 2**11)
    doc = alternating_document(2**11)
    # an entry that fails its own check shows whether any entry is read
    doc["formula"]["steps"][0] = ["one", 1.0]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == "formula.steps[0]"
    doc["formula"]["steps"].append([1, 0.0])
    message = "formula.steps may hold at most 2048 steps, got 2049"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "formula.steps"
    assert peak < 1 << 20
    path = write_config(tmp_path, doc)
    for argv in (["run"], ["cost"]):
        assert run_command([*argv, "--config", path]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class _BatchCounted(Exception):
    """Stops calibration once its batch has been counted."""


def test_the_calibration_batch_stays_inside_the_angle_bound(monkeypatch):
    # calibration probes 6 values of a at 20 times, 120 rows for every
    # alpha up to MAX_ALPHA; the depth bound used to count only the
    # sweep's rows (3 here), which let this batch pass the budget
    monkeypatch.setattr(simulator, "MAX_ANGLES", SMALL_ANGLES)
    doc = sample_document()
    doc.pop("output")
    doc["formula"] = {"steps": [[0, 1.0], [1, 1.0]]}
    doc["times"] = {"values": [1.0]}
    doc["profiling"] = {"trotter_steps": 10**9}
    with pytest.raises(ConfigError, match=r"from 1 to \d+,") as info:
        parse_config(json.dumps(doc))
    doc["profiling"]["trotter_steps"] = int(re.search(r"from 1 to (\d+),", str(info.value))[1])
    cfg = parse_config(json.dumps(doc))
    assert cfg.basis is None
    sizes = []

    def count(state, sets, obs):
        _, batches = next(iter(sets))
        sizes.append(batches[0][1].shape)
        raise _BatchCounted

    monkeypatch.setattr(profiling, "sample_branches", count)
    with pytest.raises(_BatchCounted):
        profiling.calibrate_basis(cfg)
    [(rows, angles_per_row)] = sizes
    assert SMALL_ANGLES // 2 < rows * angles_per_row <= SMALL_ANGLES
    assert angles_per_row == 2 * cfg.trotter_steps * 3
    a_values, probe_times = profiling.calibration_probes(cfg)
    assert rows == len(a_values) * len(probe_times) == 120


def test_the_depth_bound_is_the_angle_budget_of_the_largest_batch():
    # tfim-ruth3 rotates 21 terms per step; with a calibrated basis its sweep
    # can take up to 7 grid points, so 20 times make 140 rows of 2N steps
    limit = MAX_ANGLES // (20 * 7 * 2 * 21)
    doc = {"preset": "tfim-ruth3", "profiling": {"trotter_steps": limit}}
    assert parse_config(json.dumps(doc)).trotter_steps == limit
    doc["profiling"]["trotter_steps"] = limit + 1
    with pytest.raises(ConfigError, match=f"from 1 to {limit}, got {limit + 1}"):
        parse_config(json.dumps(doc))


def test_shipped_documents_stay_far_inside_the_angle_bound(monkeypatch):
    # the benchmark's largest batch, 180 rows x 560 gates, is 1/166 of the bound
    monkeypatch.setattr(simulator, "MAX_ANGLES", MAX_ANGLES // 100)
    for workload in workloads.WORKLOADS:
        for _, doc, _ in workloads.jobs(workload, seed=1):
            parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"preset": "tfim-ruth3", "noise": {"seed": ' + "7" * 5000 + "}}", "too many digits"),
        ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
    ],
    ids=["digits", "nesting"],
)
def test_unreadable_json_is_a_config_error(tmp_path, capsys, text, message):
    # both used to escape json.loads as a ValueError or RecursionError traceback
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(text)
    assert info.value.field == "syntax"
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run_command(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


def typed_document() -> dict:
    """The 2-qubit document with every integer and boolean key spelled out."""
    doc = sample_document()
    doc.pop("output")
    doc["formula"] = {"steps": [[0, 0.5], [1, 1.0], [0, 0.5]]}
    doc["profiling"] = {"trotter_steps": 1, "n_extra_orders": 1, "include_antisymmetric": True}
    doc["mpf"] = {"step_counts": [1, 2]}
    return doc


#: Above every count bound of ``typed_document``, which sit far below 10**9.
huge = st.integers(min_value=10**9)
#: (field, path to the value in ``typed_document``, values out of range, or
#: None for a boolean key).
TYPED_KEYS = [
    (
        "system.num_qubits",
        ("system", "num_qubits"),
        st.integers(max_value=0) | st.integers(MAX_QUBITS + 1),
    ),
    ("partition[1]", ("partition", 1, 0), st.integers(max_value=-1) | st.integers(3)),
    ("formula.steps[1]", ("formula", "steps", 1, 0), st.integers(max_value=-1) | st.integers(2)),
    ("times.points", ("times", "points"), st.integers(max_value=0) | huge),
    ("profiling.trotter_steps", ("profiling", "trotter_steps"), st.integers(max_value=0) | huge),
    ("profiling.n_extra_orders", ("profiling", "n_extra_orders"), st.integers(max_value=-1)),
    ("mpf.step_counts", ("mpf", "step_counts", 1), st.integers(max_value=0) | huge),
    # the sign of a seed is checked by ExperimentConfig, also for --seed
    ("noise.seed", ("noise", "seed"), st.nothing()),
    ("profiling.include_antisymmetric", ("profiling", "include_antisymmetric"), None),
]
other_types = (
    st.floats() | st.text(max_size=3) | st.lists(st.integers(), max_size=2) | st.none()
)


@st.composite
def mistyped_documents(draw):
    field, path, out_of_range = draw(st.sampled_from(TYPED_KEYS))
    if out_of_range is None:
        value = draw(other_types | st.integers())
    else:
        value = draw(other_types | st.booleans() | out_of_range)
    doc = typed_document()
    entry = doc
    for step in path[:-1]:
        entry = entry[step]
    entry[path[-1]] = value
    return field, doc


def test_the_typed_document_parses():
    parse_config(json.dumps(typed_document()))


@settings(max_examples=100, deadline=None)
@given(case=mistyped_documents())
def test_every_integer_and_boolean_key_refuses_other_values(tmp_path_factory, case):
    field, doc = case
    text = json.dumps(doc)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.field == field
    path = tmp_path_factory.mktemp("typed") / "config.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(["run", "--method", "trotter", "--config", str(path)])
    assert code == 1
    assert field in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_times_validation():
    doc = sample_document()
    doc["times"] = {"values": [0.3, 0.2]}
    with pytest.raises(ConfigError, match="increase"):
        parse_config(json.dumps(doc))


def test_amplitude_state_entry():
    doc = sample_document()
    doc["initial_state"] = {
        "amplitudes": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
    }
    cfg = parse_config(json.dumps(doc))
    np.testing.assert_allclose(cfg.initial_state.amplitudes, [0.5] * 4)


def test_n_extra_orders_builds_basis():
    doc = sample_document()
    doc["profiling"] = {"n_extra_orders": 1}
    cfg = parse_config(json.dumps(doc))
    assert cfg.basis is not None
    assert cfg.basis.orders == (3, 4)
    assert cfg.basis.include_antisymmetric


TYPO_CASES = [
    # (section named in the error, path to the dict, misspelled key, value)
    ("document", (), "profilng", {"trotter_steps": 3}),
    ("system", ("system",), "num_qbits", 3),
    ("system.hamiltonian[1]", ("system", "hamiltonian", 1), "coef", 2.0),
    ("observable[0]", ("observable", 0), "weight", 2.0),
    ("formula", ("formula",), "symetric", False),
    ("initial_state", ("initial_state",), "amplitude", [[1, 0]] * 4),
    ("times", ("times",), "point", 7),
    ("profiling", ("profiling",), "troter_steps", 3),
    ("mpf", ("mpf",), "step_count", [1, 2, 4]),
    ("noise", ("noise",), "sed", 5),
    ("output", ("output",), "fromat", "csv"),
]


@pytest.mark.parametrize(
    "section, path, key, value", TYPO_CASES, ids=[case[0] for case in TYPO_CASES]
)
def test_unknown_keys_are_rejected(tmp_path, capsys, section, path, key, value):
    doc = sample_document()
    doc["formula"] = {"steps": [[0, 0.5], [1, 1.0], [0, 0.5]]}
    parse_config(json.dumps(doc))
    entry = doc
    for step in path:
        entry = entry[step]
    entry[key] = value
    message = f"unknown key '{key}' in {section};"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))
    assert run_command(["calibrate", "--config", write_config(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "profiling, message",
    [
        ({"troter_steps": 3}, "unknown key 'troter_steps' in profiling"),
        ({"include_antisymmetric": False}, "needs profiling.n_extra_orders"),
    ],
)
def test_preset_overrides_are_checked_like_full_documents(profiling, message):
    # both used to run silently with the preset's own profiling options
    doc = {"preset": "tfim-ruth3", "profiling": profiling}
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))


CONFLICT_CASES = [
    # (document, message); both used to parse, silently dropping the second key
    (
        {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2], "points": 50, "stop": 9.0}},
        "times.values cannot be combined with times.points, times.stop",
    ),
    (
        dict(
            sample_document(),
            initial_state={
                "factors": [[[1, 0], [0, 0]], [[1, 0], [1, 0]]],
                "amplitudes": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
            },
        ),
        "initial_state takes either 'factors' or 'amplitudes', not both",
    ),
]


@pytest.mark.parametrize(
    "doc, message", CONFLICT_CASES, ids=["times.values", "initial_state"]
)
def test_conflicting_keys_are_rejected(tmp_path, capsys, doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))
    assert run_command(["calibrate", "--config", write_config(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err


def identity_term_document(where: str) -> dict:
    """The 2-qubit document with an ``II`` term in the Hamiltonian or the observable."""
    doc = sample_document()
    doc.pop("output")
    doc["times"] = {"values": [0.1, 0.2]}
    identity = {"pauli": "II", "coeff": 0.25}
    if where == "hamiltonian":
        doc["system"]["hamiltonian"] = [
            {"pauli": "ZZ", "coeff": 1.0},
            {"pauli": "XI", "coeff": 0.5},
            identity,
        ]
        doc["partition"] = [[0, 2], [1]]
    else:
        doc["observable"] = [{"pauli": "ZI", "coeff": 1.0}, identity]
    return doc


@pytest.mark.parametrize("command", ["run", "cost"])
def test_identity_hamiltonian_word_is_rejected_at_parse_time(tmp_path, capsys, command):
    # used to parse, then fail in the compiler with a message naming no path
    doc = identity_term_document("hamiltonian")
    message = "system.hamiltonian[2].pauli is the identity word"
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == "system.hamiltonian[2].pauli"
    assert run_command([command, "--config", write_config(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "cost"])
def test_identity_observable_word_stays_legal(tmp_path, command):
    doc = identity_term_document("observable")
    assert run_command([command, "--config", write_config(tmp_path, doc)]) == 0


@pytest.mark.parametrize(
    ("field", "section", "value"),
    [
        (
            "system.hamiltonian[1].coeff",
            "system",
            {
                "num_qubits": 2,
                "hamiltonian": [
                    {"pauli": "ZZ", "coeff": 1.0},
                    {"pauli": "XI", "coeff": math.inf},
                    {"pauli": "IX", "coeff": 0.5},
                ],
            },
        ),
        ("observable[0].coeff", "observable", [{"pauli": "ZI", "coeff": -math.inf}]),
        (
            "formula.steps[1]",
            "formula",
            {"steps": [[0, 0.5], [1, math.nan], [0, 0.5]]},
        ),
        (
            "initial_state.factors[1][0]",
            "initial_state",
            {"factors": [[[1, 0], [0, 0]], [[math.inf, 0], [1, 0]]]},
        ),
        ("times.values", "times", {"values": [0.1, math.inf]}),
        ("profiling.a_grid", "profiling", {"a_grid": [0.0, math.nan, 1.0]}),
        ("noise.sigma", "noise", {"sigma": math.inf}),
        # an integer literal too large for a float
        ("noise.sigma", "noise", {"sigma": 10**400}),
    ],
)
def test_non_finite_numbers_are_rejected_with_their_path(
    tmp_path, capsys, field, section, value
):
    # json.loads reads NaN and Infinity; a document must not smuggle them in
    doc = sample_document()
    doc.pop("output")
    doc[section] = value
    with pytest.raises(ConfigError, match="must be finite") as info:
        parse_config(json.dumps(doc))
    assert info.value.field == field
    path = write_config(tmp_path, doc)
    assert run_command(["run", "--method", "trotter", "--config", path]) == 1
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err
    assert "Traceback" not in err


def ruth3_with_first_factor(factor) -> dict:
    """``tfim-ruth3`` with its state written as factors, the first one ``factor``."""
    doc = config.document_for(preset_config("tfim-ruth3"))
    rest = [[[1, 0], [0, 1]], [[1, 0], [1, 0]], [[0, 0], [1, 0]]]
    doc["initial_state"] = {"factors": [factor, *rest]}
    return doc


@pytest.mark.parametrize(
    "factor, same_as",
    [([[1e-320, 0], [0, 0]], [[1, 0], [0, 0]]), ([[1e308, 0], [1e308, 0]], [[1, 0], [1, 0]])],
    ids=["underflow", "overflow"],
)
def test_a_product_state_that_underflows_or_overflows(tmp_path, capsys, factor, same_as):
    # the underflowing factor made a NaN state that every command ran; the
    # overflowing one leaked a RuntimeWarning, then refused a norm of 0
    doc = ruth3_with_first_factor(factor)
    state = parse_config(json.dumps(doc)).initial_state.amplitudes
    expected = parse_config(json.dumps(ruth3_with_first_factor(same_as))).initial_state
    np.testing.assert_allclose(state, expected.amplitudes, atol=1e-15)
    path = write_config(tmp_path, doc)
    for argv in (["run"], ["slope", "--window", "0", "100"], ["profile"], ["mpf"], ["calibrate"], ["cost"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command([*argv, "--config", path, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code in (0, 1), argv
        assert "nan" not in out.lower(), argv
        assert not caught and "Warning" not in err and "Traceback" not in err, argv


@pytest.mark.parametrize(
    "amplitudes, same_as",
    [
        ([[1e308, 0]] * 16, [[0.25, 0]] * 16),
        ([[1e-160, 0]] + [[0, 0]] * 15, [[1, 0]] + [[0, 0]] * 15),
    ],
    ids=["overflow", "underflow"],
)
def test_amplitudes_whose_norm_overflows_or_underflows(tmp_path, capsys, amplitudes, same_as):
    # the norm of 16 amplitudes of 1e308 overflowed (a leaked RuntimeWarning,
    # then "state norm 0.0 is not 1"); that of a lone 1e-160 lost digits in
    # the subnormal range, so the basis state was refused with norm 1.0000056
    doc = config.document_for(preset_config("tfim-ruth3"))
    doc["initial_state"] = {"amplitudes": amplitudes}
    state = parse_config(json.dumps(doc)).initial_state.amplitudes
    np.testing.assert_array_equal(state, np.array(same_as) @ [1, 1j])
    path = write_config(tmp_path, doc)
    for argv in (["run"], ["slope", "--window", "0", "100"], ["profile"], ["mpf"], ["calibrate"], ["cost"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command([*argv, "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0, argv
        assert not caught and capsys.readouterr().err == "", argv


def test_a_log_time_grid_must_stop_above_zero(tmp_path, capsys):
    # np.geomspace leaked a RuntimeWarning before "times must be positive"
    doc = {"preset": "tfim-ruth3", "times": {"start": 0.1, "stop": -1, "points": 5, "scale": "log"}}
    with pytest.raises(ConfigError, match="times.stop > 0") as info:
        parse_config(json.dumps(doc))
    assert info.value.field == "times.stop"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert not caught
    assert "times.stop" in capsys.readouterr().err


def test_a_time_too_large_to_step_is_a_degenerate_input(tmp_path, capsys):
    doc = {"preset": "tfim-ruth3", "times": {"values": [1e308]}}
    assert run_command(["run", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "evolution time 1e+308 overflows" in err
    assert "Traceback" not in err


def test_a_time_too_long_to_step_is_refused_at_once(tmp_path):
    # ||H||_1 * t is finite, but evolving to t would take over 4e300 terms
    doc = {"preset": "tfim-ruth3", "times": {"values": [1e300]}}
    argv = ["run", "--method", "trotter", "--config", write_config(tmp_path, doc)]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "trotterprof.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert "evolution to time 1e+300" in done.stderr
    assert "Chebyshev terms" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["run", "slope", "profile", "cost", "calibrate"])
@pytest.mark.parametrize("value", [1e308, 1e40])
def test_a_huge_grid_value_is_a_numerical_failure(tmp_path, command, value):
    # the profile design's column norms leave the float range: 1e308 ended in
    # "SVD did not converge", and 1e40 leaked an overflow RuntimeWarning;
    # cost and calibrate, which fit nothing, exited 0 on that grid
    doc = {"preset": "tfim-ruth3", "profiling": {"a_grid": [0.1, 0.2, 0.3, 0.4, value]}}
    config, out = write_config(tmp_path, doc), str(tmp_path / "out.csv")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "trotterprof", command, "--config", config, "--out", out],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2
    assert f"sweep grid [0.1, 0.2, 0.3, 0.4, {value!r}]" in done.stderr
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("argv", [["mpf"], ["run", "--method", "trotter,mpf"]], ids=["mpf", "run"])
def test_a_huge_grid_value_leaves_the_commands_that_never_sweep(tmp_path, capsys, argv):
    doc = {"preset": "tfim-ruth3", "profiling": {"a_grid": [0.1, 0.2, 0.3, 0.4, 1e308]}}
    assert run_command([*argv, "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "slope", "profile", "calibrate"])
@pytest.mark.parametrize("value", [1e308, 1e40])
def test_a_huge_grid_value_is_refused_before_any_circuit(
    tmp_path, capsys, monkeypatch, command, value
):
    # run evolved its 2 constituent batches and its 4 calibration batches, and
    # profile and calibrate calibrated, before the sweep's design was checked
    def refuse(*args):
        raise AssertionError("a circuit ran before the grid was refused")

    monkeypatch.setattr(profiling, "sample_branches", refuse)
    monkeypatch.setattr(mpf, "sample_branches", refuse)
    doc = {"preset": "tfim-ruth3", "profiling": {"a_grid": [0.1, 0.2, 0.3, 0.4, value]}}
    assert run_command([command, "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"sweep grid [0.1, 0.2, 0.3, 0.4, {value!r}]" in err
    assert "beyond the float range" in err


@pytest.mark.parametrize("argv", [["mpf"], ["profile", "--time", "1e6"]], ids=["mpf", "profile"])
def test_a_refused_exact_column_runs_no_circuit(tmp_path, capsys, monkeypatch, argv):
    # mpf ran its 2 constituent batches, and profile its calibration and
    # sweep, before the exact column refused the far time
    def refuse(*args):
        raise AssertionError("a circuit ran before the exact column was refused")

    monkeypatch.setattr(profiling, "sample_branches", refuse)
    monkeypatch.setattr(mpf, "sample_branches", refuse)
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.5, 1e6]}}
    assert run_command([*argv, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "evolution to time 1000000.0" in err
    assert "Chebyshev terms" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "noise, flags",
    [
        ({"sigma": 0.001, "seed": -5}, []),
        ({"sigma": 0.0, "seed": -5}, []),
        ({"sigma": 0.001, "seed": 5}, ["--seed", "-5"]),
        (None, ["--seed", "-5"]),
    ],
    ids=["document", "document-noiseless", "flag", "flag-preset"],
)
def test_a_negative_noise_seed_is_a_config_error(tmp_path, capsys, noise, flags):
    if noise is None:
        source = ["--preset", "tfim-ruth3"]
    else:
        doc = {"preset": "tfim-ruth3", "noise": noise}
        source = ["--config", write_config(tmp_path, doc)]
    assert run_command(["run", "--method", "trotter", *source, *flags]) == 1
    err = capsys.readouterr().err
    assert "noise seed must be a non-negative integer, got -5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_profile_time_must_be_positive_and_finite(capsys, value):
    code = run_command(["profile", "--preset", "tfim-ruth3", f"--time={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert "--time must be positive and finite" in err
    assert "Traceback" not in err


def test_round_trip_keeps_a_custom_table_and_linear_times():
    doc = sample_document()
    doc["formula"] = {"steps": [[1, 0.5], [0, 1.0], [1, 0.5]]}
    doc["times"] = {"start": 0.1, "stop": 0.5, "points": 5, "scale": "linear"}
    cfg = parse_config(json.dumps(doc))
    assert config.document_for(cfg)["formula"] == doc["formula"]
    assert cfg.times == tuple(np.linspace(0.1, 0.5, 5))
    once = serialize_config(cfg)
    again = parse_config(once)
    assert serialize_config(again) == once
    assert again.formula == cfg.formula
    assert again.times == cfg.times


def test_shipped_documents_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    parse_config(example)
    for name in PRESETS:
        parse_config(serialize_config(preset_config(name)))
    for workload in workloads.WORKLOADS:
        for _, doc, reference in workloads.jobs(workload, seed=1):
            parse_config(json.dumps(doc))
            parse_config(json.dumps(reference))


# ---------------------------------------------------------------------------
# CSV round trips


def make_table() -> ResultTable:
    rows = [
        ResultRow("trotter", 0.2, 1, 0.123456789012345, 0.12, 0.003456789012345),
        ResultRow("ep", 0.1, 1, 1.0 / 3.0, 0.3333, 1.23e-05),
        ResultRow("ep", 0.2, 1, 2.0 / 3.0, 0.6666, 7e-16),
    ]
    return ResultTable.from_rows(rows, {"seed": "7", "tool": "trotterprof test"})


def test_rows_are_sorted_deterministically():
    table = make_table()
    assert [(r.method, r.t) for r in table.rows] == [
        ("ep", 0.1),
        ("ep", 0.2),
        ("trotter", 0.2),
    ]


def test_empty_table_renders_header_and_metadata_only():
    text = render_csv(ResultTable.from_rows([], {"seed": "1"}), timestamp=False)
    lines = text.splitlines()
    assert lines == ["# seed: 1", "method,t,a_or_steps,estimate,exact,abs_error"]


def test_single_row_has_six_fields():
    table = ResultTable.from_rows([ResultRow("ep", 0.5, 2, 1.25, 1.0, 0.25)])
    data_line = render_csv(table, timestamp=False).splitlines()[-1]
    assert data_line.count(",") == 5
    assert data_line.startswith("ep,0.5,2,")


def _row_bits(row: ResultRow) -> tuple:
    """Each field as its type and exact bit pattern, so -0.0 differs from 0.0."""
    return tuple(
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        for v in astuple(row)
    )


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
result_rows = st.builds(
    ResultRow,
    st.sampled_from(["trotter", "ep", "mpf"]),
    finite_floats,
    st.one_of(st.integers(-(2**63), 2**63), finite_floats),
    finite_floats,
    finite_floats,
    finite_floats,
)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(result_rows, max_size=6))
@example(rows=[ResultRow("ep", -0.0, -0.0, 5e-324, 1e308, -2.2250738585072014e-308)])
@example(rows=[ResultRow("mpf", 0.0, 4, -1e308, 1.5e-323, 0.0)])
def test_csv_round_trip_is_bit_exact(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("csv")
    table = ResultTable.from_rows(rows, {"seed": "7", "tool": "trotterprof test"})
    path = directory / "table.csv"
    write_csv(table, path, timestamp=False)
    recovered = read_csv(path)
    assert [_row_bits(r) for r in recovered.rows] == [_row_bits(r) for r in table.rows]
    assert recovered.metadata == dict(table.metadata)
    # writing the recovered table reproduces the same bytes
    write_csv(recovered, directory / "again.csv", timestamp=False)
    assert (directory / "again.csv").read_bytes() == path.read_bytes()


def test_csv_uses_lf_newlines(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(make_table(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_timestamp_excluded_from_read(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(make_table(), path, timestamp=True)
    recovered = read_csv(path)
    assert "generated" not in recovered.metadata


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "sub" / "table.csv"
    write_csv(make_table(), target)
    assert target.exists()
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# ---------------------------------------------------------------------------
# command-line driver


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_happy_path(tmp_path, capsys):
    doc = sample_document()
    doc["times"] = {"values": [0.1, 0.2]}
    doc.pop("output")
    out = tmp_path / "results.csv"
    code = run_command(
        ["run", "--config", write_config(tmp_path, doc), "--out", str(out)]
    )
    assert code == 0
    table = read_csv(out)
    methods = {row.method for row in table.rows}
    assert methods == {"trotter", "ep", "mpf"}
    assert len(table.rows) == 6


def test_run_without_config_or_preset_fails_with_usage(capsys):
    code = run_command(["run"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()
    assert captured.out == ""


def test_profile_rank_deficiency_exits_two(tmp_path, capsys):
    doc = sample_document()
    # two grid points cannot determine the calibrated two-column basis plus
    # intercept; only calibration can tell, so this is a run-time failure
    doc["profiling"] = {"a_grid": [0.25, 0.75]}
    code = run_command(["profile", "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical failure" in captured.err


def test_unknown_method_exits_one(tmp_path):
    doc = sample_document()
    code = run_command(
        ["run", "--config", write_config(tmp_path, doc), "--method", "zne"]
    )
    assert code == 1


@pytest.mark.parametrize("command", ["run", "slope"])
def test_a_repeated_method_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # run --method ep,ep used to write 6 ep rows for 3 times and calibrate twice
    def refuse(*args):
        raise AssertionError("a circuit ran for a refused --method")

    monkeypatch.setattr(profiling, "sample_branches", refuse)
    monkeypatch.setattr(mpf, "sample_branches", refuse)
    path = write_config(tmp_path, {"preset": "tfim-ruth3", "times": {"points": 3}})
    assert run_command([command, "--config", path, "--method", "ep,trotter,ep"]) == 1
    captured = capsys.readouterr()
    assert "method 'ep' is given twice" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unknown_preset_exits_one(capsys):
    assert run_command(["run", "--preset", "heisenberg-9"]) == 1


def test_missing_config_file_exits_one(tmp_path):
    assert run_command(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_determinism_modulo_timestamp(tmp_path):
    doc = sample_document()
    doc["times"] = {"values": [0.1, 0.2]}
    cfg_path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    assert run_command(["run", "--config", cfg_path, "--out", str(out2)]) == 0

    def stripped(path):
        return [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("# generated:")
        ]

    assert stripped(out1) == stripped(out2)


def test_seed_flag_changes_metadata(tmp_path):
    doc = sample_document()
    doc["times"] = {"values": [0.1]}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "seeded.csv"
    assert run_command(
        ["run", "--config", cfg_path, "--out", str(out), "--seed", "99", "--method", "trotter"]
    ) == 0
    assert read_csv(out).metadata["seed"] == "99"


def test_profile_reports_fit(tmp_path, capsys):
    code = run_command(
        ["profile", "--preset", "tfim-ruth3", "--time", "0.3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "mitigated estimate" in captured.out
    assert "condition number" in captured.out


def test_profile_and_run_agree_on_the_ep_row(tmp_path):
    noisy = {"preset": "tfim-ruth3", "times": {"values": [0.2, 0.3, 1.0]},
             "noise": {"sigma": 0.001, "seed": 7}}
    # with noise, profile draws from the stream run uses at that time; it used
    # to print the noiseless value
    for doc in ({"preset": "tfim-ruth3", "times": {"values": [0.3]}}, noisy):
        cfg_path = write_config(tmp_path, doc)
        profiled, ran = tmp_path / "profile.csv", tmp_path / "run.csv"
        assert run_command(
            ["profile", "--config", cfg_path, "--time", "0.3", "--out", str(profiled)]
        ) == 0
        assert run_command(
            ["run", "--config", cfg_path, "--method", "ep", "--out", str(ran)]
        ) == 0

        def ep_rows(path):
            return [r for r in read_csv(path).rows if r.method == "ep" and r.t == 0.3]

        (profile_row,), (run_row,) = ep_rows(profiled), ep_rows(ran)
        # profile takes the exact value run steps through 0.2 to reach 0.3
        assert profile_row == run_row
        samples = [r for r in read_csv(profiled).rows if r.method == "profile-sample"]
        assert len(samples) == 5  # the Chebyshev grid of the calibrated (5, 6) basis


def test_noisy_profile_needs_a_configured_time(tmp_path, capsys):
    # only a configured time has a noise stream of its own
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.3, 1.0]},
           "noise": {"sigma": 0.001, "seed": 7}}
    assert run_command(["profile", "--config", write_config(tmp_path, doc), "--time", "0.7"]) == 1
    err = capsys.readouterr().err
    assert "--time 0.7 is not a configured time" in err
    assert "Traceback" not in err


def test_a_closed_stdout_exits_one_without_a_traceback():
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "trotterprof", "run", "--preset", "tfim-ruth3",
             "--method", "trotter"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_mpf_command_prints_weights(tmp_path, capsys):
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2]}}
    code = run_command(["mpf", "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert "weights" in captured.out


def test_calibrate_reports_basis(tmp_path, capsys):
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2]}}
    code = run_command(["calibrate", "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert "surviving orders [5, 6]" in captured.out
    assert "antisymmetric columns True" in captured.out


def test_slope_command(tmp_path, capsys):
    doc = {"preset": "tfim-ruth3", "times": {"start": 0.1, "stop": 0.5, "points": 8, "scale": "log"}}
    code = run_command(
        [
            "slope",
            "--config",
            write_config(tmp_path, doc),
            "--method",
            "trotter",
            "--window",
            "0.1",
            "0.5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "trotter" in captured.out and "slope" in captured.out


def test_slope_reads_sign_stable_points(capsys):
    code = run_command(["slope", "--preset", "tfim-ruth3", "--method", "mpf"])
    captured = capsys.readouterr()
    assert code == 0
    curve = run_error_curve(preset_config("tfim-ruth3"), "mpf")
    stable = stable_slope_fit(curve, (0.1, 0.5))
    assert f"mpf      slope {stable:+.3f} over" in captured.out
    # this curve changes sign inside the window, so the raw fit reads differently
    assert f"{slope_fit(curve, (0.1, 0.5)):+.3f}" != f"{stable:+.3f}"


def test_slope_names_each_method_without_a_slope_and_exits_two(tmp_path, capsys):
    # tfim-ruth3's trotter error changes sign between the 5th and 6th default
    # times, which leaves 3 of these 5 points to fit; ep and mpf keep all 5
    doc = {"preset": "tfim-ruth3", "times": {"values": list(DEFAULT_TIMES[2:7])}}
    out = tmp_path / "slope.csv"
    code = run_command(["slope", "--config", write_config(tmp_path, doc), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "no slope for trotter: only 3 usable points in window [0.1, 0.5]\n"
    lines = captured.out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["ep", "slope"], ["mpf", "slope"]]
    assert lines[-1] == f"wrote 15 rows to {out}"
    assert sorted({row.method for row in read_csv(out).rows}) == ["ep", "mpf", "trotter"]


@pytest.mark.parametrize("window", [["0.5", "0.1"], ["0.3", "0.3"], ["0.1", "nan"]])
def test_a_slope_window_must_be_finite_and_increasing(capsys, monkeypatch, window):
    def refuse(*args):
        raise AssertionError("a circuit ran for a refused --window")

    monkeypatch.setattr(profiling, "sample_branches", refuse)
    monkeypatch.setattr(mpf, "sample_branches", refuse)
    assert run_command(["slope", "--preset", "tfim-ruth3", "--window", *window]) == 1
    assert "--window needs finite TMIN < TMAX" in capsys.readouterr().err


def test_cost_builds_no_angle_array(tmp_path, capsys):
    # cost counts words and rows: the 100000-row sweep batches of 20000
    # times used to peak at about 110 MiB under tracemalloc
    path = write_config(tmp_path, {"preset": "tfim-ruth3", "times": {"points": 20000}})
    tracemalloc.start()
    try:
        assert run_command(["cost", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sweep = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("sweep")]
    assert [words[:3] for words in sweep] == [["sweep", "4", "400000"]]
    assert peak < 10 << 20


def test_cost_counts_the_grid_that_run_sweeps(capsys):
    code = run_command(["cost", "--preset", "xxz-suzuki4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "(grid 9)" in captured.out


def test_cost_defaults_to_the_depth_and_counts_that_run_uses(tmp_path, capsys):
    doc = {"preset": "tfim-ruth3", "profiling": {"trotter_steps": 3, "n_extra_orders": 1}}
    assert run_command(["cost", "--config", write_config(tmp_path, doc)]) == 0
    assert "depth 6 steps" in capsys.readouterr().out
    assert run_command(["cost", "--preset", "tfim-ruth3"]) == 0
    assert "multi-product (counts 1, 2): 2 circuits" in capsys.readouterr().out


def test_cost_counts_a_configured_grid_without_calibrating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cost must not calibrate when profiling.a_grid is set")

    monkeypatch.setattr(profiling, "calibrate_basis", refuse)
    grid = [-0.5, -0.2, 0.1, 0.5, 0.9, 1.2, 1.5]
    doc = {"preset": "tfim-ruth3", "profiling": {"a_grid": grid}}
    assert run_command(["cost", "--config", write_config(tmp_path, doc)]) == 0
    assert "(grid 7)" in capsys.readouterr().out


def test_cost_writes_its_report_only_where_out_says(tmp_path, capsys, monkeypatch):
    # the document's output path is run's data file: cost used to overwrite it
    monkeypatch.chdir(tmp_path)
    doc = {"preset": "tfim-ruth3", "output": {"path": "results.csv", "format": "csv"}}
    config = write_config(tmp_path, doc)
    assert run_command(["run", "--config", config, "--method", "trotter"]) == 0
    data = (tmp_path / "results.csv").read_bytes()
    capsys.readouterr()
    assert run_command(["cost", "--config", config]) == 0
    report = capsys.readouterr().out
    assert "wrote" not in report
    assert (tmp_path / "results.csv").read_bytes() == data
    assert run_command(["cost", "--config", config, "--out", "cost.txt"]) == 0
    assert capsys.readouterr().out == report + "wrote cost report to cost.txt\n"
    assert (tmp_path / "cost.txt").read_text() == report
    assert (tmp_path / "results.csv").read_bytes() == data


def test_cost_command(tmp_path, capsys):
    doc = {
        "preset": "tfim-ruth3",
        "profiling": {"trotter_steps": 3, "a_grid": [-0.5, 0.0, 0.5, 1.0, 1.5]},
        "mpf": {"step_counts": [1, 2, 3]},
    }
    code = run_command(["cost", "--config", write_config(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert "profiling" in captured.out and "multi-product" in captured.out
    assert "depth 6 steps" in captured.out
    assert "(grid 5)" in captured.out
    assert "counts 1, 2, 3" in captured.out


REMOVED_FLAGS = [
    ["cost", "--steps", "3"],
    ["cost", "--grid", "5"],
    ["profile", "--method", "ep"],
    ["mpf", "--method", "mpf"],
    ["calibrate", "--method", "zzz"],
    ["cost", "--method", "bogus"],
    ["calibrate", "--seed", "5"],
    ["cost", "--seed", "5"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=[" ".join(a[:2]) for a in REMOVED_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # each used to be accepted and change nothing, or describe a sweep that
    # run never executes
    assert run_command([*argv, "--preset", "tfim-ruth3"]) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
    assert "usage:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "profiling_options, size",
    [({"a_grid": [-0.5, -0.2, 0.1, 0.5, 0.9, 1.2, 1.5]}, 7), ({}, 5)],
    ids=["configured", "default"],
)
def test_run_cost_and_calibrate_report_one_grid_size(
    tmp_path, capsys, monkeypatch, profiling_options, size
):
    # calibrate used to print the default grid's 5 beside the configured 7
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.3]}, "profiling": profiling_options}
    path = write_config(tmp_path, doc)
    fitted = []
    fit = profiling.fit_profile

    def recording_fit(samples, *args):
        fitted.append(len(samples))
        return fit(samples, *args)

    monkeypatch.setattr(profiling, "fit_profile", recording_fit)
    assert run_command(["run", "--method", "ep", "--config", path]) == 0
    assert fitted == [size]
    assert run_command(["cost", "--config", path]) == 0
    assert run_command(["calibrate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert f"(grid {size})" in out
    assert f"sweep grid size {size}" in out


def parser_flags() -> dict[str, set[str]]:
    """Each command's long options, from the argparse tree, without ``--help``."""
    (commands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        for name, sub in commands.choices.items()
    }


def test_each_command_takes_only_the_flags_it_reads():
    flags = parser_flags()
    assert sum(map(len, flags.values())) == 26
    for name in flags:
        assert {"--config", "--preset", "--out"} <= flags[name]
        assert ("--seed" in flags[name]) == (name in ("run", "profile", "mpf", "slope"))
        assert ("--method" in flags[name]) == (name in ("run", "slope"))


def test_one_process_answers_like_fresh_ones(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: a run, a usage error, --version
    # and a run again exit and print as four fresh processes do
    calls = [
        ["run", "--preset", "tfim-ruth3", "--method", "trotter", "--out", "out.csv"],
        ["run", "--preset", "tfim-ruth3", "--bogus"],
        ["--version"],
        ["run", "--preset", "xxz-ruth3", "--method", "trotter,mpf", "--out", "out.csv"],
    ]
    monkeypatch.chdir(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "trotterprof.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0]
    assert _build_parser() is _build_parser()
    one = []
    for argv in calls:
        code = run_command(argv)
        out, err = capsys.readouterr()
        one.append((code, out, err))
    assert one == fresh


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row:
            table[row.group(1)] = set(re.findall(r"`(--[\w-]+)", row.group(2)))
    assert table == parser_flags()


def section_keys() -> list[list[str]]:
    """The keys of every ``config._section`` call, read from the parser's source."""
    tree = ast.parse(Path(config.__file__).read_text())
    return sorted(
        sorted(eval(compile(ast.Expression(node.args[2]), "config", "eval"), vars(config)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_section"
    )


def test_readme_key_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config documents\n", 1)[1].split("\n## ", 1)[0]
    table = []
    for line in section.splitlines():
        row = re.fullmatch(r" *\| (.+?) \| ((?:`\w+`(?:, )?)+) \|", line)
        if row:
            table.append(sorted(re.findall(r"`(\w+)`", row.group(2))))
    keys = section_keys()
    assert len(keys) == 10
    assert sorted(table) == keys


def test_readme_cost_example_is_the_cost_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = "$ trotterprof cost --preset tfim-ruth3\n"
    example = readme.split(command, 1)[1].split("```", 1)[0]
    assert run_command(["cost", "--preset", "tfim-ruth3"]) == 0
    assert capsys.readouterr().out == example


def readme_value(node: ast.AST) -> object:
    """A README constant's value: numbers, tuples, signs and arithmetic, ``^`` as power."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Tuple):
        return tuple(map(readme_value, node.elts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -readme_value(node.operand)
    operations = {ast.Pow: pow, ast.BitXor: pow, ast.Mult: lambda a, b: a * b}
    assert isinstance(node, ast.BinOp), ast.dump(node)
    return operations[type(node.op)](readme_value(node.left), readme_value(node.right))


def test_readme_constants_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+) = ([^`]+)`", readme)
    assert len(found) == 19
    modules = [
        importlib.import_module(f"trotterprof.{info.name}")
        for info in pkgutil.iter_modules(trotterprof.__path__)
    ]
    for name, text in found:
        value = readme_value(ast.parse(text, mode="eval").body)
        bound = [vars(module)[name] for module in modules if name in vars(module)]
        assert bound, f"no trotterprof module binds {name}"
        assert all(v == value for v in bound), (name, value, bound)


@pytest.mark.parametrize(
    "section, key, value",
    [("formula", "symmetric", True), ("mpf", "symmetric", True), ("formula", "alpha", 3)],
    ids=["formula", "mpf", "formula-alpha"],
)
def test_symmetry_is_not_a_document_key(tmp_path, capsys, section, key, value):
    # symmetry and the first error order are read from the step table
    doc = sample_document()
    doc.pop("output")
    doc["formula"] = {"steps": [[0, 0.5], [1, 1.0], [0, 0.5]]}
    doc[section][key] = value
    message = f"unknown key '{key}' in {section};"
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        parse_config(json.dumps(doc))
    assert info.value.field == f"{section}.{key}"
    assert run_command(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err


def test_calibration_beyond_the_probe_window_names_alpha(tmp_path, capsys):
    doc = sample_document()
    doc.pop("output")
    # Suzuki's S6 has alpha 7, so the probe fit needs powers 7..16
    doc["formula"] = {"steps": suzuki_steps(6, 2)}
    assert run_command(["calibrate", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "the table's first error order alpha = 7" in err
    assert "profiling.n_extra_orders" in err
    doc["profiling"] = {"n_extra_orders": 0}
    assert run_command(["calibrate", "--config", write_config(tmp_path, doc)]) == 0


@pytest.mark.parametrize("command", ["run", "profile", "mpf", "calibrate", "slope", "cost"])
def test_every_command_exits_cleanly_at_the_largest_alpha(tmp_path, capsys, command):
    doc = sample_document()
    doc.pop("output")
    # Suzuki's S10 has alpha 11 = MAX_ALPHA
    doc["formula"] = {"steps": suzuki_steps(MAX_ALPHA - 1, 2)}
    doc["mpf"] = {"step_counts": [1, 2, 3]}
    # calibrated, then pinned to every order up to 2 alpha - 2
    for profiling in ({}, {"n_extra_orders": MAX_ALPHA - 2}):
        doc["profiling"] = profiling
        assert run_command([command, "--config", write_config(tmp_path, doc)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
    # S12 has alpha 13, past what the derivation separates
    doc["formula"] = {"steps": suzuki_steps(MAX_ALPHA + 1, 2)}
    assert run_command([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert f"formula.steps: every order through {MAX_ALPHA} vanishes" in err


def test_version_flag(capsys):
    assert run_command(["--version"]) == 0
    assert "trotterprof" in capsys.readouterr().out


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "trotterprof", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0
    assert done.stdout.startswith("trotterprof ")
