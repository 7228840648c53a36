"""Config documents, CSV round trips, and the command-line driver."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    tfim_config,
    write_csv,
)
from trotterprof.cli import run_command
from trotterprof.config import config_digest
from trotterprof.report import render_csv


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
    assert cfg.formula_name == "strang2"
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
    cfg = parse_config(json.dumps(doc))
    assert cfg.trotter_steps == trotter_steps
    assert cfg.a_grid == (None if a_grid is None else tuple(a_grid))
    assert (cfg.basis is None) == (n_extra_orders is None)
    once = serialize_config(cfg)
    twice = serialize_config(parse_config(once))
    assert once == twice


def test_preset_matches_builder():
    preset = parse_config(json.dumps({"preset": "tfim-ruth3"}))
    direct = tfim_config("ruth3")
    assert serialize_config(preset) == serialize_config(direct)
    assert config_digest(preset) == config_digest(direct)


@pytest.mark.parametrize(
    "name", ["tfim-ruth3", "tfim-suzuki4", "xxz-ruth3", "xxz-suzuki4"]
)
def test_all_presets_materialize(name):
    cfg = preset_config(name)
    assert cfg.preset == name


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
        "alpha": 2,
        "symmetric": False,
    }
    with pytest.raises(ConfigError, match="sum"):
        parse_config(json.dumps(doc))


def test_custom_formula_accepted():
    doc = sample_document()
    doc["formula"] = {
        "steps": [[0, 1.0], [1, 1.0]],
        "alpha": 2,
        "symmetric": False,
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.formula.steps == ((0, 1.0), (1, 1.0))
    assert cfg.formula_name is None


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


def test_csv_round_trip_is_bit_exact(tmp_path):
    table = make_table()
    path = tmp_path / "table.csv"
    write_csv(table, path, timestamp=False)
    recovered = read_csv(path)
    assert recovered.rows == table.rows
    assert recovered.metadata == dict(table.metadata)
    # writing the recovered table reproduces the same bytes
    write_csv(recovered, tmp_path / "again.csv", timestamp=False)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


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
    # two grid points cannot determine a three-function basis plus intercept
    doc["profiling"] = {"a_grid": [0.25, 0.75], "n_extra_orders": 1}
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
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.3]}}
    cfg_path = write_config(tmp_path, doc)
    profiled, ran = tmp_path / "profile.csv", tmp_path / "run.csv"
    assert run_command(
        ["profile", "--config", cfg_path, "--time", "0.3", "--out", str(profiled)]
    ) == 0
    assert run_command(
        ["run", "--config", cfg_path, "--method", "ep", "--out", str(ran)]
    ) == 0

    def ep_lines(path):
        return [line for line in path.read_text().splitlines() if line.startswith("ep,")]

    assert len(ep_lines(ran)) == 1
    assert ep_lines(profiled) == ep_lines(ran)
    samples = [r for r in read_csv(profiled).rows if r.method == "profile-sample"]
    assert len(samples) == 5  # the Chebyshev grid of the calibrated (5, 6) basis


def test_mpf_command_prints_weights(capsys):
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.2]}}
    code = run_command(["mpf", "--preset", "tfim-ruth3"]) if False else None
    # use a config file to shrink the time grid and keep the test fast
    import tempfile, os, json as _json

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            _json.dump(doc, fh)
        code = run_command(["mpf", "--config", path])
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
    curve = run_error_curve(tfim_config("ruth3"), "mpf")
    stable = stable_slope_fit(curve, (0.1, 0.5))
    assert f"mpf      slope {stable:+.3f} over" in captured.out
    # this curve changes sign inside the window, so the raw fit reads differently
    assert f"{slope_fit(curve, (0.1, 0.5)):+.3f}" != f"{stable:+.3f}"


def test_cost_counts_the_grid_that_run_sweeps(capsys):
    code = run_command(["cost", "--preset", "xxz-suzuki4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "(grid 9)" in captured.out


def test_cost_command(tmp_path, capsys):
    code = run_command(
        ["cost", "--preset", "tfim-ruth3", "--steps", "3", "--grid", "5"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "profiling" in captured.out and "multi-product" in captured.out


def test_version_flag(capsys):
    assert run_command(["--version"]) == 0
    assert "trotterprof" in capsys.readouterr().out
