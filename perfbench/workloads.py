"""Config documents for the benchmark workloads.

The benchmark hands the program only JSON documents.  Each workload fixes
its qubit count, terms, partition, formula and options; the seed varies only
the coefficients, the initial state and the noise seed, so the same seed
always gives the same documents.

The seeded spreads are narrow on purpose: the largest ep and mpf errors of a
run are end-to-end metrics, and their spread over seeds has to stay well
inside the benchmark's bounds.  With couplings drawn from J = 1 +- 10%,
fields from h = 1/3 +- 15% and free qubit angles, the largest ep error of the
8-qubit chain spread by 38% of its median (interquartile range) over eight
seeds; at a tenth of those ranges it spreads by about 2%.  The amount of work
does not depend on the coefficients, except through the calibrated basis,
which the benchmark records.
"""

from __future__ import annotations

import math
import random

#: Paper presets: 4 qubits, auto-calibrated basis, fixed inputs.
PRESETS = ("tfim-ruth3", "tfim-suzuki4", "xxz-ruth3", "xxz-suzuki4")

#: Relative spreads of the seeded inputs.
COUPLING_SPREAD = 0.01
FIELD_SPREAD = 0.015
ANGLE_SPREAD = 0.015  # initial qubit angles, in units of pi around pi/4

_PAPER_FACTORS = [[[1, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [1, 0]], [[0, 0], [1, 0]]]
_DEFAULT_TIMES = {"start": 0.1, "stop": 1.0, "points": 20, "scale": "log"}


def _word(n: int, body: str, site: int) -> str:
    return "I" * site + body + "I" * (n - site - len(body))


def _term(word: str, coeff: float) -> dict:
    return {"pauli": word, "coeff": coeff}


def preset_reference_document(name: str) -> dict:
    """Full system behind a preset, written down from the paper's setup.

    The benchmark runs the preset by name and checks its output against this
    independent description.
    """
    model, formula = name.split("-")
    n = 4
    if model == "tfim":
        bonds = [0, 2, 1]
        terms = [_term(_word(n, "ZZ", b), 1.0) for b in bonds]
        terms += [_term(_word(n, "X", i), 1.0 / 3.0) for i in range(n)]
        partition = [[0, 1, 2], [3, 4, 5, 6]]
        observable = [_term(_word(n, "X", i), 0.25) for i in range(n)]
        observable += [_term(_word(n, "ZZ", b), 1.0 / 3.0) for b in range(n - 1)]
    else:
        terms = [
            _term(_word(n, body, site), coeff)
            for site in (0, 2, 1)
            for body, coeff in (("XX", 1.0), ("YY", 1.0), ("ZZ", 1.0 / 3.0))
        ]
        partition = [[0, 1, 2, 3, 4, 5], [6, 7, 8]]
        observable = [
            _term(_word(n, "Z", i), w) for i, w in enumerate((0.25, 0.75, -0.25, 0.25))
        ]
    return {
        "system": {"num_qubits": n, "hamiltonian": terms},
        "partition": partition,
        "formula": formula,
        "initial_state": {"factors": _PAPER_FACTORS},
        "observable": observable,
        "times": dict(_DEFAULT_TIMES),
    }


def tfim_chain_document(n: int, formula: str, seed: int, stop: float) -> dict:
    """Open TFIM chain with seeded couplings, fields and real product state.

    The ZZ fragment lists the even bonds before the odd ones, as the
    4-qubit preset does; the observable averages both layers.
    """
    rng = random.Random(seed)
    bonds = list(range(0, n - 1, 2)) + list(range(1, n - 1, 2))
    terms = [
        _term(_word(n, "ZZ", b), 1.0 + COUPLING_SPREAD * rng.uniform(-1, 1)) for b in bonds
    ]
    terms += [
        _term(_word(n, "X", i), (1.0 + FIELD_SPREAD * rng.uniform(-1, 1)) / 3.0)
        for i in range(n)
    ]
    angles = [math.pi * (0.25 + ANGLE_SPREAD * rng.uniform(-1, 1)) for _ in range(n)]
    observable = [_term(_word(n, "X", i), 1.0 / n) for i in range(n)]
    observable += [_term(_word(n, "ZZ", b), 1.0 / (n - 1)) for b in range(n - 1)]
    return {
        "system": {"num_qubits": n, "hamiltonian": terms},
        "partition": [list(range(n - 1)), list(range(n - 1, 2 * n - 1))],
        "formula": formula,
        "initial_state": {
            "factors": [[[math.cos(a), 0.0], [math.sin(a), 0.0]] for a in angles]
        },
        "observable": observable,
        "times": {"start": 0.1, "stop": stop, "points": 20, "scale": "log"},
    }


def chain8_calibrated(seed: int) -> dict:
    """8-qubit ruth3 chain; the basis is left to calibration."""
    return tfim_chain_document(8, "ruth3", seed, stop=1.0)


def chain10_pinned(seed: int) -> dict:
    """10-qubit suzuki4 chain with a pinned basis, deep MPF and synthetic noise.

    The times run to t = 2 so that the largest ep and mpf errors are
    algorithmic; at t <= 1 the largest mpf error is the 1e-7 noise itself.
    """
    doc = tfim_chain_document(10, "suzuki4", seed, stop=2.0)
    doc["profiling"] = {"trotter_steps": 2, "n_extra_orders": 3}
    doc["mpf"] = {"step_counts": [1, 2, 4, 8]}
    doc["noise"] = {"sigma": 1e-7, "seed": seed}
    return doc


def jobs(workload: str, seed: int) -> list[tuple[str, dict, dict]]:
    """``(label, document given to the program, full reference document)`` per job."""
    if workload == "presets":
        return [(p, {"preset": p}, preset_reference_document(p)) for p in PRESETS]
    if workload == "chain8-calibrated":
        doc = chain8_calibrated(seed)
    elif workload == "chain10-pinned":
        doc = chain10_pinned(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(workload, doc, doc)]


WORKLOADS = ("presets", "chain8-calibrated", "chain10-pinned")
