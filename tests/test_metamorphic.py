"""Metamorphic properties of ``run`` and ``cost`` at 6-12 qubits, where no dense
oracle fits.

Two relations of the physics hold for any chain.  Relabeling the qubits, by
a random permutation or the mirror, gives the same values up to rounding.
Multiplying every Hamiltonian coefficient by a power of two and dividing
every time by it gives the same angles, spans and Chebyshev terms, so the
same CSV bytes apart from the ``t`` column; ``calibrate`` then probes the
same reduced times and prints the same bytes.  The reference run keeps the
default flip threshold; the relabeled and rescaled runs cut it to one
amplitude, so every flip that is not diagonal reads its amplitudes as a
strided view there.  Neither relation changes the circuits, so ``cost``
prints the same bytes for all three documents.  ``slope`` over the window
divided by the scale prints the same slopes; over the relabeled chain, slopes
that agree within a tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trotterprof import simulator
from trotterprof.cli import run_command
from trotterprof.config import parse_config
from trotterprof.experiments import ERROR_FLOOR
from trotterprof.profiling import calibration_probes

TOL = 1e-12


def site_word(n: int, letters: dict[int, str]) -> str:
    return "".join(letters.get(q, "I") for q in range(n))


@st.composite
def chains(draw, top: int = 12):
    """A random TFIM or XXZ chain document on 6 to ``top`` qubits, with a
    pinned basis, two MPF step counts and two times."""
    n = draw(st.integers(6, top))
    model = draw(st.sampled_from(["tfim", "xxz"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bonds = list(range(0, n - 1, 2)) + list(range(1, n - 1, 2))
    if model == "tfim":
        terms = [site_word(n, {b: "Z", b + 1: "Z"}) for b in bonds]
        terms += [site_word(n, {q: "X"}) for q in range(n)]
        partition = [list(range(n - 1)), list(range(n - 1, 2 * n - 1))]
        observable = [site_word(n, {q: "X"}) for q in range(n)]
        observable += [site_word(n, {b: "Z", b + 1: "Z"}) for b in range(n - 1)]
    else:
        terms = [site_word(n, {b: p, b + 1: p}) for b in bonds for p in "XYZ"]
        even = 3 * len(range(0, n - 1, 2))
        partition = [list(range(even)), list(range(even, len(terms)))]
        observable = [site_word(n, {q: "Z"}) for q in range(n)]
        observable += [site_word(n, {0: "X", 1: "X"}), site_word(n, {n - 2: "Y", n - 1: "Y"})]
    factors = [[[float(x), float(y)] for x, y in rng.normal(size=(2, 2))] for _ in range(n)]
    coeffs = rng.uniform(0.2, 1.2, len(terms))
    doc = {
        "system": {
            "num_qubits": n,
            "hamiltonian": [{"pauli": w, "coeff": float(c)} for w, c in zip(terms, coeffs)],
        },
        "partition": partition,
        "formula": draw(st.sampled_from(["strang2", "ruth3"])),
        "initial_state": {"factors": factors},
        "observable": [
            {"pauli": w, "coeff": float(c)}
            for w, c in zip(observable, rng.uniform(-1.0, 1.0, len(observable)))
        ],
        "times": {"values": sorted(float(t) for t in rng.uniform(0.05, 0.6, 2))},
        "profiling": {"n_extra_orders": 0, "include_antisymmetric": False},
        "mpf": {"step_counts": [1, 2]},
    }
    if draw(st.booleans()):
        order = list(range(n))[::-1]
    else:
        order = [int(q) for q in rng.permutation(n)]
    scale = draw(st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    return doc, order, scale


def relabeled(doc: dict, order: list[int]) -> dict:
    """The same chain with qubit ``q`` renamed ``order[q]``."""

    def move(word: str) -> str:
        letters = [""] * len(word)
        for q, letter in enumerate(word):
            letters[order[q]] = letter
        return "".join(letters)

    out = json.loads(json.dumps(doc))
    for section in (out["system"]["hamiltonian"], out["observable"]):
        for term in section:
            term["pauli"] = move(term["pauli"])
    factors = [None] * len(order)
    for q, factor in enumerate(doc["initial_state"]["factors"]):
        factors[order[q]] = factor
    out["initial_state"]["factors"] = factors
    return out


def rescaled(doc: dict, scale: float) -> dict:
    """``H`` times ``scale`` at every time divided by it."""
    out = json.loads(json.dumps(doc))
    for term in out["system"]["hamiltonian"]:
        term["coeff"] *= scale
    out["times"]["values"] = [t / scale for t in doc["times"]["values"]]
    return out


def outputs(
    tmp_path, name: str, doc: dict, threshold: int, command: str = "run"
) -> tuple[list[str], list[list[str]]]:
    """The lines that ``command`` prints, but the one naming its CSV, and the
    data rows of that CSV, with ``VIEW_FLIP_AMPLITUDES`` at ``threshold``."""
    config, out = tmp_path / f"{name}.json", tmp_path / f"{name}-{command}.csv"
    config.write_text(json.dumps(doc))
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(printed):
        patch.setattr(simulator, "VIEW_FLIP_AMPLITUDES", threshold)
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines.index("method,t,a_or_steps,estimate,exact,abs_error")
    report = [line for line in printed.getvalue().splitlines() if not line.startswith("wrote ")]
    return report, [line.split(",") for line in lines[header + 1 :]]


def cost_report(tmp_path, name: str) -> str:
    """What ``cost`` prints for the document that ``outputs`` wrote as ``name``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_command(["cost", "--config", str(tmp_path / f"{name}.json")]) == 0
    return printed.getvalue()


@settings(max_examples=20, deadline=None)
@given(chains())
def test_relabeled_and_rescaled_chains_give_the_same_values(tmp_path_factory, case):
    doc, order, scale = case
    tmp_path = tmp_path_factory.mktemp("chain")
    reference = outputs(tmp_path, "reference", doc, simulator.VIEW_FLIP_AMPLITUDES)[1]
    assert len(reference) == 2 * 3 and {row[0] for row in reference} == {"trotter", "ep", "mpf"}

    moved = outputs(tmp_path, "relabeled", relabeled(doc, order), 1)[1]
    assert [row[:3] for row in moved] == [row[:3] for row in reference]
    values = np.array([[float(x) for x in row[3:]] for row in moved])
    expected = np.array([[float(x) for x in row[3:]] for row in reference])
    np.testing.assert_allclose(values, expected, rtol=0, atol=TOL)

    scaled = outputs(tmp_path, "rescaled", rescaled(doc, scale), 1)[1]
    assert [row[:1] + row[2:] for row in scaled] == [row[:1] + row[2:] for row in reference]
    assert [float(row[1]) * scale for row in scaled] == [float(row[1]) for row in reference]

    report = cost_report(tmp_path, "reference")
    assert report.startswith("stage ")
    assert cost_report(tmp_path, "relabeled") == cost_report(tmp_path, "rescaled") == report


def numbers_dropped(lines: list[str]) -> list[str]:
    """The printed lines with every number cut out."""
    return [re.sub(r"[-+]?\d[\d.e+-]*", "#", line) for line in lines]


@settings(max_examples=5, deadline=None)
@given(chains())
def test_relabeled_and_rescaled_chains_give_the_same_mpf_and_profile(tmp_path_factory, case):
    # ``profile`` runs at the last configured time; its report names the time
    # on its first line, and ``mpf``'s report depends on the step counts alone
    doc, order, scale = case
    tmp_path = tmp_path_factory.mktemp("chain")
    for command in ("mpf", "profile"):
        default = simulator.VIEW_FLIP_AMPLITUDES
        report, reference = outputs(tmp_path, "reference", doc, default, command)
        timed = 1 if command == "profile" else 0

        moved_report, moved = outputs(tmp_path, "relabeled", relabeled(doc, order), 1, command)
        assert [row[:3] for row in moved] == [row[:3] for row in reference]
        values = np.array([[float(x) for x in row[3:]] for row in moved])
        expected = np.array([[float(x) for x in row[3:]] for row in reference])
        np.testing.assert_allclose(values, expected, rtol=0, atol=TOL)
        assert numbers_dropped(moved_report) == numbers_dropped(report)
        if command == "mpf":
            assert moved_report == report

        scaled_report, scaled = outputs(tmp_path, "rescaled", rescaled(doc, scale), 1, command)
        assert [row[:1] + row[2:] for row in scaled] == [row[:1] + row[2:] for row in reference]
        assert [float(row[1]) * scale for row in scaled] == [float(row[1]) for row in reference]
        assert scaled_report[timed:] == report[timed:]
        assert [float(line.split()[1]) * scale for line in scaled_report[:timed]] == [
            float(line.split()[1]) for line in report[:timed]
        ]


@settings(max_examples=4, deadline=None)
@given(chains(top=8))
def test_relabeled_and_rescaled_chains_calibrate_the_same_basis(tmp_path_factory, case):
    # without a pinned basis the chain calibrates; the rescaled one probes
    # the reference's times over the scale, the same reduced times
    doc, order, scale = case
    del doc["profiling"]
    tmp_path = tmp_path_factory.mktemp("chain")
    report, rows = outputs(tmp_path, "reference", doc, simulator.VIEW_FLIP_AMPLITUDES, "calibrate")
    assert [line.split()[0] for line in report] == ["surviving", "antisymmetric", "sweep"]
    for name, other in (("relabeled", relabeled(doc, order)), ("rescaled", rescaled(doc, scale))):
        assert outputs(tmp_path, name, other, 1, "calibrate") == (report, rows)
    probes = calibration_probes(parse_config(json.dumps(doc)))[1]
    scaled = calibration_probes(parse_config(json.dumps(rescaled(doc, scale))))[1]
    np.testing.assert_allclose(scaled * scale, probes, rtol=4e-15, atol=0)


def slopes(
    tmp_path, name: str, doc: dict, window: tuple[float, float], threshold: int
) -> tuple[int, list[str], list[str], list[float]]:
    """``slope`` over ``window`` with ``VIEW_FLIP_AMPLITUDES`` at ``threshold``: its
    exit code, the lines it prints but the one naming its CSV, the lines on
    standard error, and the CSV's ``abs_error`` column."""
    config, out = tmp_path / f"{name}.json", tmp_path / f"{name}-slope.csv"
    config.write_text(json.dumps(doc))
    printed, errors = io.StringIO(), io.StringIO()
    argv = ["slope", "--config", str(config), "--out", str(out), "--window", *map(str, window)]
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(printed):
        patch.setattr(simulator, "VIEW_FLIP_AMPLITUDES", threshold)
        with contextlib.redirect_stderr(errors):
            code = run_command(argv)
    lines = out.read_text().splitlines()
    header = lines.index("method,t,a_or_steps,estimate,exact,abs_error")
    report = [line for line in printed.getvalue().splitlines() if not line.startswith("wrote ")]
    errors_column = [float(line.split(",")[5]) for line in lines[header + 1 :]]
    return code, report, errors.getvalue().splitlines(), errors_column


@settings(max_examples=4, deadline=None)
@given(chains(top=8))
def test_relabeled_and_rescaled_chains_give_the_same_slopes(tmp_path_factory, case):
    # five times inside the window; rescaled, the times and the window divide
    # by the same power of two, so each slope fits the same errors at log
    # times shifted by log(scale): the same printed lines, but for the window
    doc, order, scale = case
    doc["times"] = {"values": [0.1, 0.15, 0.22, 0.33, 0.5]}
    window = (0.1, 0.5)
    tmp_path = tmp_path_factory.mktemp("chain")
    code, report, errors, reference = slopes(
        tmp_path, "reference", doc, window, simulator.VIEW_FLIP_AMPLITUDES
    )
    assert code in (0, 2) and len(report) + len(errors) == 3

    narrow = (window[0] / scale, window[1] / scale)
    scaled = slopes(tmp_path, "rescaled", rescaled(doc, scale), narrow, 1)
    old, new = f"[{window[0]}, {window[1]}]", f"[{narrow[0]}, {narrow[1]}]"
    assert scaled[:3] == (
        code,
        [line.replace(old, new) for line in report],
        [line.replace(old, new) for line in errors],
    )
    assert scaled[3] == reference

    # near the floor, rounding can change which points are floored or next
    # to a sign flip; above it, errors that move by about 1e-15 move each
    # log error by at most 1e-3, each slope by a few times that
    assume(min(reference) > 100 * ERROR_FLOOR)
    moved = slopes(tmp_path, "relabeled", relabeled(doc, order), window, 1)
    assert moved[0] == code and moved[2] == errors
    assert [line.split()[:2] for line in moved[1]] == [line.split()[:2] for line in report]
    gradients = [[float(line.split()[2]) for line in lines] for lines in (moved[1], report)]
    np.testing.assert_allclose(*gradients, rtol=0, atol=0.01)
