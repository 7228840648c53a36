"""Whole documents, mutated: every command ends cleanly whatever it is given.

The valid documents are the four presets written out in full
(``document_for``) and TFIM chains of 2-6 qubits, each on a short time grid.
A mutation drops a key or a list entry, repeats one (a key twice in the JSON
text, an entry twice in its list), gives a value another type, or puts in an
extreme, subnormal, non-finite or oversized number, which the parser must
refuse before anything is built.  ``run``, ``cost``, ``calibrate``, ``mpf``,
``profile`` and ``slope`` then run in-process: each returns exit code 0, 1 or 2,
raises nothing (pytest turns warnings into errors) and prints no traceback
and no warning on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof.cli import run_command
from trotterprof.config import PRESETS, document_for, preset_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)

COMMANDS = ("run", "cost", "calibrate", "mpf", "profile", "slope")


def base_documents() -> list[dict]:
    """The valid documents that the mutations start from, on short time grids."""
    docs = []
    for name in PRESETS:
        doc = document_for(preset_config(name))
        doc["times"] = {"values": [0.1, 0.5]}
        docs.append(doc)
    for n in (2, 3, 4, 5, 6):
        doc = workloads.tfim_chain_document(n, "ruth3", 1, 0.5)
        doc["times"]["points"] = 3 if n < 5 else 4  # four times: a slope to fit
        docs.append(doc)
    return docs


BASES = base_documents()

#: Extreme, subnormal, non-finite and oversized numbers, and a few plain ones.
NUMBERS = [
    0, -1, 3, 0.5, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, 10**9, -(10**9), 2**63, 10**30,
]
OTHER_TYPES = ["x", "ruth3", None, True, False, [], {}, [1], [[0, 1.0]], {"a": 1}]


def paths(value, path: tuple = ()):
    """The path of every dictionary value and list entry inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from paths(item, path + (key,))


def encoded(value, repeat: tuple | None, path: tuple = ()) -> str:
    """JSON text of ``value``, with the key at ``repeat[0]`` written a second
    time, holding ``repeat[1]``."""
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            parts.append(f"{json.dumps(key)}: {encoded(item, repeat, path + (key,))}")
            if repeat is not None and repeat[0] == path + (key,):
                parts.append(f"{json.dumps(key)}: {json.dumps(repeat[1])}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(encoded(v, repeat, path + (i,)) for i, v in enumerate(value)) + "]"
    return json.dumps(value)


@st.composite
def mutated_documents(draw) -> str:
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    repeat = None
    for _ in range(draw(st.integers(1, 2))):
        *above, key = draw(st.sampled_from(list(paths(doc))))
        parent = reduce(getitem, above, doc)
        kind = draw(st.sampled_from(["drop", "repeat", "retype", "number"]))
        if kind == "drop":
            del parent[key]
        elif kind == "retype":  # a copy: a later mutation may change it
            parent[key] = json.loads(json.dumps(draw(st.sampled_from(OTHER_TYPES))))
        elif kind == "number":
            parent[key] = draw(st.sampled_from(NUMBERS))
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            again = draw(st.sampled_from([parent[key]] + NUMBERS + OTHER_TYPES))
            repeat = ((*above, key), again)
    return encoded(doc, repeat)


def test_every_base_document_runs_every_command(tmp_path):
    for i, doc in enumerate(BASES):
        config = tmp_path / f"{i}.json"
        config.write_text(json.dumps(doc))
        times = doc["times"].get("points") or len(doc["times"]["values"])
        for command in COMMANDS:
            out = [] if command == "cost" else ["--out", str(tmp_path / f"{i}-{command}.csv")]
            # a slope needs 4 usable times: with fewer, slope exits with code 2
            code = 2 if command == "slope" and times < 4 else 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_command([command, "--config", str(config), *out]) == code


@settings(max_examples=200, deadline=None)
@given(text=mutated_documents())
def test_every_command_ends_cleanly_on_a_mutated_document(tmp_path_factory, text):
    tmp_path = tmp_path_factory.mktemp("mutated")
    config = tmp_path / "doc.json"
    config.write_text(text)
    for command in COMMANDS:
        out = [] if command == "cost" else ["--out", str(tmp_path / f"{command}.csv")]
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_command([command, "--config", str(config), *out])
        assert code in (0, 1, 2), (command, code)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), command


@pytest.mark.parametrize(
    "times, message",
    [
        # numpy's powers overflow before it sets the grid's ends
        ({"start": 0.1, "stop": 1.7976931348623157e308, "points": 3, "scale": "log"}, "overflows"),
        ({"start": -1.7e308, "stop": 1.7e308, "points": 3, "scale": "linear"}, "grid's spacing"),
    ],
)
def test_a_grid_past_the_float_range_warns_nowhere(tmp_path, capsys, times, message):
    # a grid time was a numpy float, whose product with ||H||_1 warned on overflow
    doc = workloads.tfim_chain_document(3, "ruth3", 1, 0.5)
    doc["times"] = times
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    for command in ("run", "mpf", "profile"):
        assert run_command([command, "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [1e100, 1e160, 1e300])
def test_noise_past_what_the_fits_can_square_is_refused(tmp_path, capsys, sigma):
    # at 1e160 slope's squares overflowed, at 1e300 the fit's residual norm too;
    # at 1e100 slope finds no stable slope in the noise (exit code 2)
    doc = {"preset": "tfim-ruth3", "times": {"values": [0.1, 0.5]}, "noise": {"sigma": sigma}}
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    for command in ("run", "slope", "profile"):
        code = run_command([command, "--config", str(config), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        refused = "noise.sigma must be in [0, 1e+100]" in err
        assert refused == (sigma > 1e100) and code in ((1,) if refused else (0, 2))


@pytest.mark.parametrize("coeff", [1e100, 1e160, 1e300])
def test_an_observable_past_what_the_fits_can_square_is_refused(tmp_path, capsys, coeff):
    # once the imaginary-residue bound scaled with ||O||_1, a coefficient of
    # 1e160 overflowed in slope's squares and 1e300 in the calibration's norms
    doc = workloads.tfim_chain_document(4, "ruth3", 1, 0.5)
    doc["times"]["points"] = 3
    doc["observable"][2]["coeff"] = coeff
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc))
    for command in COMMANDS:
        out = [] if command == "cost" else ["--out", str(tmp_path / "o.csv")]
        code = run_command([command, "--config", str(config), *out])
        err = capsys.readouterr().err
        refused = "observable coefficients must sum in magnitude to at most 1e+100" in err
        assert refused == (coeff > 1e100) and code in ((1,) if refused else (0, 2)), command
