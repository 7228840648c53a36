"""Configuration documents: parsing, validation, presets, serialization.

Configs are JSON documents with sections for the system, its partition into
commuting fragments, the product formula, initial state, observable, time
grid, and per-method options.  A document either names a ``preset`` or
spells out the full system.  Each preset (``tfim-ruth3``, ``tfim-suzuki4``,
``xxz-ruth3``, ``xxz-suzuki4``) is itself a document in ``PRESETS``, built
by the same parser, so ``{"preset": name, ...}`` is that document with the
given option sections applied (``preset_config(name)`` parses ``{"preset":
name}``).  Parsing then re-serializing yields a semantically identical document.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Any

from . import simulator
from ._version import __version__
from .errors import (
    ConfigError,
    DegenerateInputError,
    FormulaError,
    HermiticityError,
    SingularFitError,
    TrotterProfError,
)
from .experiments import DEFAULT_TIME_GRID, ExperimentConfig, time_grid
from .formulas import (
    FORMULA_NAMES,
    Fragment,
    PartitionedHamiltonian,
    ProductFormula,
    builtin_formula,
    builtin_steps,
)
from .pauli import OperatorSum, PauliTerm
from .profiling import BasisSpec, calibration_probes, check_grid, default_a_grid, widest_basis
from .simulator import StateVector, init_product_state

#: Largest register a document may declare.  A run holds 16 * 2^n bytes per state:
#: with 20 times, the exact states take 320 bytes per amplitude, measured in
#: chunks of ``ACCUMULATE_AMPLITUDES``.  Its cached tables take 16 per diagonal
#: with Z letters and per flipping word with Y or Z, and 8 per diagonal run: 40
#: for a TFIM chain.  That chain peaked at 198 MiB at 18 qubits (``ru_maxrss``),
#: so a 20-site one takes ~0.8 GiB.
MAX_QUBITS = 20

#: Longest ``formula.steps`` table: deriving its alpha takes under 0.9 s (2 vCPU).
MAX_FORMULA_STEPS = 2**15

#: Largest ``noise.sigma``.  An expectation value lies within ``||O||_1``, so
#: noise this large swamps every estimator; from about 1e154 the squares of
#: noisy values in the fits and slopes leave the float range.
MAX_NOISE_SIGMA = 1e100

#: Largest ``||O||_1``, which bounds the observable's values: as with noise, from
#: about 1e154 their squares leave the float range (at 1e160 in ``slope``).
MAX_OBSERVABLE_NORM = 1e100

#: Longest ``mpf.step_counts`` list, bounded for conditioning alone: the closed
#: form gives 64 weights in 0.02 s (2-vCPU VM), but the counts 1..k at
#: ``alpha = 4`` are flagged ill-conditioned from k = 9 (condition number
#: 1.6e11), and from k = 18 their float weights fail the sum-to-1 check.
MAX_STEP_COUNTS = 16

_OPTION_SECTIONS = ("times", "profiling", "mpf", "noise", "output")
_SYSTEM_SECTIONS = ("system", "partition", "formula", "initial_state", "observable")
_TERM_KEYS = ("pauli", "coeff")


def _terms(*pairs: tuple[str, float]) -> list[dict]:
    return [{"pauli": word, "coeff": coeff} for word, coeff in pairs]


# The paper's two four-site chains with open boundaries, both started from
# |0> (|0> + i|1>)/sqrt2 |+> |1>.
_PAPER_STATE = {
    "factors": [[[1, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [1, 0]], [[0, 0], [1, 0]]]
}
_THIRD = 1.0 / 3.0

# Transverse-field Ising: J = 1 on each bond and h = 1/3 on each site.  The
# ZZ fragment lists the odd bonds (1,2), (3,4) before the even bond (2,3);
# the observable mixes both layers.
_TFIM = {
    "system": {"num_qubits": 4, "hamiltonian": _terms(
        ("ZZII", 1.0), ("IIZZ", 1.0), ("IZZI", 1.0),
        ("XIII", _THIRD), ("IXII", _THIRD), ("IIXI", _THIRD), ("IIIX", _THIRD),
    )},
    "partition": [[0, 1, 2], [3, 4, 5, 6]],
    "initial_state": _PAPER_STATE,
    "observable": _terms(
        ("XIII", 0.25), ("IXII", 0.25), ("IIXI", 0.25), ("IIIX", 0.25),
        ("ZZII", _THIRD), ("IZZI", _THIRD), ("IIZZ", _THIRD),
    ),
}

# XXZ: each bond carries XX + YY + (1/3) ZZ; the outer bonds form one
# commuting fragment and the middle bond the other.  The observable is
# (1/4) sum_i Z_i + (1/2)(Z_2 - Z_3).  Every bond commutes with sum_i Z_i,
# so the exact evolution and every circuit conserve that sum and its Trotter
# error is zero (tests/test_experiments.py checks this); the imbalance term is
# what makes the error visible.
_XXZ = {
    "system": {"num_qubits": 4, "hamiltonian": _terms(
        ("XXII", 1.0), ("YYII", 1.0), ("ZZII", _THIRD),
        ("IIXX", 1.0), ("IIYY", 1.0), ("IIZZ", _THIRD),
        ("IXXI", 1.0), ("IYYI", 1.0), ("IZZI", _THIRD),
    )},
    "partition": [[0, 1, 2, 3, 4, 5], [6, 7, 8]],
    "initial_state": _PAPER_STATE,
    "observable": _terms(
        ("ZIII", 0.25), ("IZII", 0.75), ("IIZI", -0.25), ("IIIZ", 0.25)
    ),
}

#: The built-in benchmark setups: the system sections of a full document.
PRESETS = {
    f"{model}-{formula}": {**system, "formula": formula}
    for model, system in (("tfim", _TFIM), ("xxz", _XXZ))
    for formula in ("ruth3", "suzuki4")
}


def preset_config(name: str) -> ExperimentConfig:
    """The setup of the document ``{"preset": name}``."""
    return parse_config(json.dumps({"preset": name}))


@dataclass(frozen=True)
class ConfigDocument:
    """A validated document: the experiment plus output destination."""

    experiment: ExperimentConfig
    output_path: str | None = None


def _expect(section: Any, kind: type, name: str) -> Any:
    if not isinstance(section, kind):
        raise ConfigError(
            f"{name} must be {kind.__name__}, got {type(section).__name__}", name
        )
    return section


def _section(raw: Any, name: str, keys: tuple[str, ...]) -> dict:
    """A dict section whose keys are all among those its parser reads."""
    entry = _expect(raw, dict, name)
    for key in entry:
        if key not in keys:
            raise ConfigError(
                f"unknown key {key!r} in {name}; expected one of {', '.join(keys)}",
                f"{name}.{key}",
            )
    return entry


def _bounded_list(raw: Any, name: str, limit: int, unit: str) -> list:
    """A list of at most ``limit`` entries, measured before any entry is read."""
    entries = _expect(raw, list, name)
    if len(entries) > limit:
        raise ConfigError(f"{name} may hold at most {limit} {unit}, got {len(entries)}", name)
    return entries


def _integer(
    value: Any, name: str, low: int | None = None, high: int | None = None
) -> int:
    """A JSON integer, not a boolean, within the bounds given (``high`` needs ``low``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {type(value).__name__}", name)
    if (low is not None and value < low) or (high is not None and value > high):
        span = f"of at least {low}" if high is None else f"from {low} to {high}"
        raise ConfigError(f"{name} must be an integer {span}, got {value}", name)
    return value


def _boolean(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {type(value).__name__}", name)
    return value


def _real_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{name} must be a real number (Hermitian coefficients only)", name
        )
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}", name)
    return number


def _parse_terms(
    raw: Any, n: int, name: str, *, identity_ok: bool = True
) -> list[PauliTerm]:
    """Terms of a Pauli sum; ``identity_ok=False`` rejects the all-``I`` word."""
    items = _expect(raw, list, name)
    if not items:
        raise ConfigError(f"{name} must contain at least one term", name)
    terms = []
    for i, item in enumerate(items):
        entry = _section(item, f"{name}[{i}]", _TERM_KEYS)
        word = entry.get("pauli")
        if not isinstance(word, str) or len(word) != n:
            raise ConfigError(
                f"{name}[{i}].pauli must be a string of {n} letters", f"{name}[{i}].pauli"
            )
        coeff = _real_number(entry.get("coeff"), f"{name}[{i}].coeff")
        try:
            terms.append(PauliTerm(word.upper(), coeff))
        except ValueError as exc:
            raise ConfigError(str(exc), f"{name}[{i}].pauli") from exc
        if not identity_ok and set(terms[-1].word) == {"I"}:
            raise ConfigError(
                f"{name}[{i}].pauli is the identity word, a global phase that no"
                " rotation can implement; drop the term",
                f"{name}[{i}].pauli",
            )
    return terms


def _parse_complex_pair(value: Any, name: str) -> complex:
    pair = _expect(value, list, name)
    if len(pair) != 2:
        raise ConfigError(f"{name} must be [re, im]", name)
    return complex(_real_number(pair[0], name), _real_number(pair[1], name))


def _parse_partition(
    raw: Any, terms: list[PauliTerm], n: int
) -> PartitionedHamiltonian:
    groups = _expect(raw, list, "partition")
    if not groups:
        raise ConfigError("partition must contain at least one fragment", "partition")
    seen: dict[int, int] = {}
    fragments = []
    for g, group in enumerate(groups):
        indices = _expect(group, list, f"partition[{g}]")
        picked = []
        for entry in indices:
            idx = _integer(entry, f"partition[{g}]", 0, len(terms) - 1)
            if idx in seen:
                raise ConfigError(
                    f"term {idx} appears in fragments {seen[idx]} and {g}", "partition"
                )
            seen[idx] = g
            picked.append(terms[idx])
        if not picked:
            raise ConfigError(f"partition[{g}] is empty", f"partition[{g}]")
        try:
            fragments.append(Fragment(OperatorSum.from_terms(picked)))
        except (FormulaError, TrotterProfError) as exc:
            raise ConfigError(
                f"partition[{g}]: {exc}", f"partition[{g}]"
            ) from exc
    missing = [i for i in range(len(terms)) if i not in seen]
    if missing:
        raise ConfigError(
            f"partition does not cover Hamiltonian terms {missing}", "partition"
        )
    return PartitionedHamiltonian(tuple(fragments), n)


def _parse_formula(raw: Any, partition: PartitionedHamiltonian) -> ProductFormula:
    if isinstance(raw, str):
        if raw not in FORMULA_NAMES:
            raise ConfigError(
                f"unknown formula {raw!r}; choose from {FORMULA_NAMES}", "formula"
            )
        try:
            return builtin_formula(raw, partition)
        except FormulaError as exc:
            raise ConfigError(str(exc), "formula") from exc
    entry = _section(raw, "formula", ("steps",))
    steps_raw = _bounded_list(entry.get("steps"), "formula.steps", MAX_FORMULA_STEPS, "steps")
    steps = []
    for i, pair in enumerate(steps_raw):
        name = f"formula.steps[{i}]"
        item = _expect(pair, list, name)
        if len(item) != 2:
            raise ConfigError(f"{name} must be [fragment_index, coefficient]", name)
        index = _integer(item[0], name, 0, len(partition.fragments) - 1)
        steps.append((index, _real_number(item[1], name)))
    missing = set(range(len(partition.fragments))) - {index for index, _ in steps}
    try:
        if missing:
            raise FormulaError(f"fragment {min(missing)} gets no step")
        return ProductFormula(tuple(steps))
    except FormulaError as exc:
        raise ConfigError(f"formula.steps: {exc}", "formula.steps") from exc


def _parse_state(raw: Any, n: int) -> StateVector:
    entry = _section(raw, "initial_state", ("factors", "amplitudes"))
    if "factors" in entry and "amplitudes" in entry:
        raise ConfigError(
            "initial_state takes either 'factors' or 'amplitudes', not both",
            "initial_state",
        )
    if "factors" in entry:
        factors_raw = _expect(entry["factors"], list, "initial_state.factors")
        if len(factors_raw) != n:
            raise ConfigError(
                f"initial_state.factors must list {n} qubit pairs",
                "initial_state.factors",
            )
        factors = []
        for i, pair in enumerate(factors_raw):
            item = _expect(pair, list, f"initial_state.factors[{i}]")
            if len(item) != 2:
                raise ConfigError(
                    f"initial_state.factors[{i}] must be [[re,im],[re,im]]",
                    f"initial_state.factors[{i}]",
                )
            factors.append(
                (
                    _parse_complex_pair(item[0], f"initial_state.factors[{i}][0]"),
                    _parse_complex_pair(item[1], f"initial_state.factors[{i}][1]"),
                )
            )
        try:
            return init_product_state(factors)
        except TrotterProfError as exc:
            raise ConfigError(str(exc), "initial_state.factors") from exc
    if "amplitudes" in entry:
        amps_raw = _expect(entry["amplitudes"], list, "initial_state.amplitudes")
        if len(amps_raw) != (1 << n):
            raise ConfigError(
                f"initial_state.amplitudes must list {1 << n} entries",
                "initial_state.amplitudes",
            )
        amps = [
            _parse_complex_pair(v, f"initial_state.amplitudes[{i}]")
            for i, v in enumerate(amps_raw)
        ]
        try:
            return StateVector.normalized(amps)
        except TrotterProfError as exc:
            raise ConfigError(str(exc), "initial_state.amplitudes") from exc
    raise ConfigError(
        "initial_state needs either 'factors' or 'amplitudes'", "initial_state"
    )


def _angle_limit(cfg: ExperimentConfig, steps: int, unit: str, advice: str = "") -> int:
    """How many ``unit``s of ``steps`` formula steps fit ``simulator.MAX_ANGLES``; refuses 0.

    A batch evolves one row per (time, split parameter), or per calibration
    probe, and rotates each row once per gate of its word sequence:
    ``len(step_terms)`` gates per step times the depth, which is
    ``2 * trotter_steps`` for a sweep and the step count for a multi-product
    constituent.  ``times.points``, the lengths of ``times.values`` and
    ``profiling.a_grid``, ``profiling.trotter_steps`` and each
    ``mpf.step_counts`` entry are bounded by it, so that no batch holds more
    angles than that.
    """
    # len(step_terms(cfg.formula, cfg.partition)), without building the list
    gates = sum(len(cfg.partition.fragments[i].terms.terms) for i, _ in cfg.formula.steps)
    limit = simulator.MAX_ANGLES // (gates * steps)
    if not limit:
        raise ConfigError(
            f"formula.steps rotate {gates} gates per step, so even one {unit} passes"
            f" the angle budget; shorten the table{advice}",
            "formula.steps",
        )
    return limit


def _grid_bound(a_grid: tuple[float, ...] | None, basis: BasisSpec | None, alpha: int) -> int:
    """Points of the largest grid a sweep can run; a calibrated basis keeps at
    most the orders of ``widest_basis``."""
    if a_grid is not None:
        return len(a_grid)
    return len(default_a_grid(len((basis or widest_basis(alpha)).orders)))


def _parse_times(raw: Any, cfg: ExperimentConfig) -> tuple[float, ...]:
    entry = _section(raw, "times", ("values", "start", "stop", "points", "scale"))
    grid = _grid_bound(cfg.a_grid, cfg.basis, cfg.formula.alpha)
    depth = max(2 * cfg.trotter_steps * grid, max(cfg.mpf_step_counts))
    limit = _angle_limit(cfg, depth, f"time, at {depth} steps of rotations per time,")
    if "values" in entry:
        others = [f"times.{key}" for key in entry if key != "values"]
        if others:
            raise ConfigError(
                f"times.values cannot be combined with {', '.join(others)}",
                "times.values",
            )
        values = _bounded_list(entry["values"], "times.values", limit, "times")
        if not values:
            raise ConfigError("times.values must not be empty", "times.values")
        times = tuple(_real_number(v, "times.values") for v in values)
    else:
        given = {**DEFAULT_TIME_GRID, **entry}
        start = _real_number(given["start"], "times.start")
        stop = _real_number(given["stop"], "times.stop")
        points = _integer(given["points"], "times.points", 1, limit)
        scale = given["scale"]
        if scale == "log":
            if start <= 0:
                raise ConfigError("log scale needs times.start > 0", "times.start")
            if stop <= 0:
                raise ConfigError("log scale needs times.stop > 0", "times.stop")
        elif scale != "linear":
            raise ConfigError("times.scale must be 'log' or 'linear'", "times.scale")
        times = time_grid(start, stop, points, scale)
        if not all(map(math.isfinite, times)):
            raise ConfigError("times: the grid's spacing overflows the float range", "times")
    if any(t <= 0 for t in times):
        raise ConfigError("times must be positive", "times")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("times must strictly increase", "times")
    return times


def _parse_profiling(raw: Any, cfg: ExperimentConfig) -> dict[str, Any]:
    """The profiling fields of an experiment: trotter_steps, a_grid, basis."""
    entry = _section(
        raw,
        "profiling",
        ("trotter_steps", "a_grid", "n_extra_orders", "include_antisymmetric"),
    )
    a_grid = entry.get("a_grid")
    grid = cfg.a_grid
    if a_grid is not None:
        limit = _angle_limit(cfg, 2 * cfg.trotter_steps * len(cfg.times), "grid point")
        values = _bounded_list(a_grid, "profiling.a_grid", limit, "points")
        grid = tuple(_real_number(v, "profiling.a_grid") for v in values)
    basis = cfg.basis
    alpha = cfg.formula.alpha
    if "n_extra_orders" in entry:
        extra = _integer(entry["n_extra_orders"], "profiling.n_extra_orders", 0)
        top = min(alpha + extra, 2 * alpha - 2)
        anti = _boolean(
            entry.get("include_antisymmetric", True), "profiling.include_antisymmetric"
        )
        basis = BasisSpec(tuple(range(alpha, top + 1)), anti)
    elif "include_antisymmetric" in entry:
        raise ConfigError(
            "profiling.include_antisymmetric needs profiling.n_extra_orders",
            "profiling.include_antisymmetric",
        )
    a_values, probe_times = calibration_probes(cfg)
    rows = max(
        len(cfg.times) * _grid_bound(grid, basis, alpha),
        len(a_values) * len(probe_times) if basis is None else 0,
    )
    pin = ", or pin the basis with profiling.n_extra_orders to skip calibration"
    limit = _angle_limit(cfg, 2 * rows, f"Trotter step of a {rows}-row batch", pin)
    requested = entry.get("trotter_steps", cfg.trotter_steps)
    steps = _integer(requested, "profiling.trotter_steps", 1, limit)
    if grid is not None:
        # A calibrated basis is known only at run time; it is checked there.
        try:
            check_grid(grid, basis)
        except (DegenerateInputError, SingularFitError) as exc:
            raise ConfigError(f"profiling.a_grid: {exc}", "profiling.a_grid") from exc
    return {"trotter_steps": steps, "a_grid": grid, "basis": basis}


def _parse_mpf(raw: Any, cfg: ExperimentConfig) -> tuple[int, ...]:
    entry = _section(raw, "mpf", ("step_counts",))
    counts_list = _expect(
        entry.get("step_counts", list(cfg.mpf_step_counts)), list, "mpf.step_counts"
    )
    if not 1 <= len(counts_list) <= MAX_STEP_COUNTS:
        raise ConfigError(
            f"mpf.step_counts must hold 1 to {MAX_STEP_COUNTS} counts, got {len(counts_list)}",
            "mpf.step_counts",
        )
    limit = _angle_limit(cfg, len(cfg.times), "constituent step")
    counts = tuple(_integer(v, "mpf.step_counts", 1, limit) for v in counts_list)
    if len(set(counts)) != len(counts):
        raise ConfigError("mpf.step_counts must be distinct", "mpf.step_counts")
    return counts


def _parse_noise(raw: Any, cfg: ExperimentConfig) -> dict[str, Any]:
    entry = _section(raw, "noise", ("sigma", "seed"))
    sigma = _real_number(entry.get("sigma", cfg.noise_sigma), "noise.sigma")
    if not 0 <= sigma <= MAX_NOISE_SIGMA:
        raise ConfigError(
            f"noise.sigma must be in [0, {MAX_NOISE_SIGMA:g}], got {sigma!r}", "noise.sigma"
        )
    # ExperimentConfig checks the sign, for the --seed flag too.
    return {"noise_sigma": sigma, "seed": _integer(entry.get("seed", cfg.seed), "noise.seed")}


def _apply_options(cfg: ExperimentConfig, doc: dict) -> ExperimentConfig:
    """Apply a document's option sections to a preset or a freshly built system.

    Every reader runs, so every bound is checked on the values the run will
    use: a missing or null section reads as ``{}``, and a missing key takes
    its default.
    """
    def section(name: str) -> Any:
        return {} if doc.get(name) is None else doc[name]

    cfg = replace(cfg, times=_parse_times(section("times"), cfg))
    cfg = replace(cfg, **_parse_profiling(section("profiling"), cfg))
    cfg = replace(cfg, mpf_step_counts=_parse_mpf(section("mpf"), cfg))
    return replace(cfg, **_parse_noise(section("noise"), cfg))


def _parse_output(raw: Any) -> str | None:
    """The output path; ``csv`` is the only format."""
    if raw is None:
        return None
    entry = _section(raw, "output", ("path", "format"))
    path = entry.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError("output.path must be a string", "output.path")
    if entry.get("format", "csv") != "csv":
        raise ConfigError("output.format must be 'csv'", "output.format")
    return path


def parse_document(text: str) -> ConfigDocument:
    """Parse and fully validate a JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            "syntax",
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError("a number has too many digits to read", "syntax") from exc
    except RecursionError as exc:
        raise ConfigError("the document nests too deeply to read", "syntax") from exc
    doc = _section(raw, "document", ("preset",) + _SYSTEM_SECTIONS + _OPTION_SECTIONS)

    preset = doc.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}", "preset"
            )
        for section in _SYSTEM_SECTIONS:
            if section in doc:
                raise ConfigError(
                    f"preset documents may not also define {section!r}", section
                )
        cfg = _parse_system(PRESETS[preset])
    else:
        cfg = _parse_system(doc)
    return ConfigDocument(_apply_options(cfg, doc), _parse_output(doc.get("output")))


def _parse_system(doc: dict) -> ExperimentConfig:
    """The system sections of a full document, with every option at its default."""
    system = _section(doc.get("system"), "system", ("num_qubits", "hamiltonian"))
    n = _integer(system.get("num_qubits"), "system.num_qubits", 1, MAX_QUBITS)
    ham_terms = _parse_terms(
        system.get("hamiltonian"), n, "system.hamiltonian", identity_ok=False
    )
    partition = _parse_partition(doc.get("partition"), ham_terms, n)
    formula = _parse_formula(doc.get("formula"), partition)
    state = _parse_state(doc.get("initial_state"), n)
    try:
        observable = OperatorSum.from_terms(
            _parse_terms(doc.get("observable"), n, "observable"), hermitian=True
        )
    except HermiticityError as exc:
        raise ConfigError(str(exc), "observable") from exc
    norm = observable.one_norm()
    if not norm <= MAX_OBSERVABLE_NORM:
        bound = f"at most {MAX_OBSERVABLE_NORM:g}, got {norm:g}"
        raise ConfigError(f"observable coefficients must sum in magnitude to {bound}", "observable")
    return ExperimentConfig(
        partition=partition,
        formula=formula,
        observable=observable,
        initial_state=state,
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse a document and return the fully validated experiment setup."""
    return parse_document(text).experiment


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def document_for(cfg: ExperimentConfig) -> dict:
    """Canonical document dictionary describing an experiment setup."""
    terms: list[dict] = []
    partition: list[list[int]] = []
    cursor = 0
    for fragment in cfg.partition.fragments:
        indices = []
        for term in fragment.terms:
            terms.append({"pauli": term.word, "coeff": float(term.coeff.real)})
            indices.append(cursor)
            cursor += 1
        partition.append(indices)
    formula: Any = {"steps": [[int(i), float(c)] for i, c in cfg.formula.steps]}
    for name in FORMULA_NAMES:  # a built-in table is written by its name
        with suppress(FormulaError):  # the formula is not defined over these fragments
            if builtin_steps(name, len(cfg.partition.fragments)) == cfg.formula.steps:
                formula = name
    doc: dict = {
        "system": {
            "num_qubits": cfg.partition.n,
            "hamiltonian": terms,
        },
        "partition": partition,
        "formula": formula,
        "initial_state": {
            "amplitudes": [_pair(z) for z in cfg.initial_state.amplitudes]
        },
        "observable": [
            {"pauli": t.word, "coeff": float(t.coeff.real)} for t in cfg.observable
        ],
        "times": {"values": [float(t) for t in cfg.times]},
        "profiling": {
            "trotter_steps": cfg.trotter_steps,
            "a_grid": None if cfg.a_grid is None else [float(a) for a in cfg.a_grid],
        },
        "mpf": {"step_counts": list(cfg.mpf_step_counts)},
        "noise": {"sigma": cfg.noise_sigma, "seed": cfg.seed},
    }
    if cfg.basis is not None:
        top = max(cfg.basis.orders) if cfg.basis.orders else cfg.formula.alpha
        doc["profiling"]["n_extra_orders"] = max(0, top - cfg.formula.alpha)
        doc["profiling"]["include_antisymmetric"] = cfg.basis.include_antisymmetric
    return doc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text for an experiment (stable key order)."""
    return json.dumps(document_for(cfg), sort_keys=True, indent=2) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical serialization, for output provenance lines."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def base_metadata(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        "tool": f"trotterprof {__version__}",
        "config-sha256": config_digest(cfg),
        "seed": str(cfg.seed),
    }
