"""End-to-end error-scaling studies: curves, slopes and run plans.

``ExperimentConfig`` is one full setup; ``config`` parses it from a document
or a preset.  The studies sweep the evaluation time for the plain iterated
circuit, the profiling method, and the multi-product baseline, and fit
log-log error slopes.  ``plan`` lists the engine batches a run executes as
the branch sets of the generators the run evolves (``constituent_sets``,
``sweep_sets``), yielded at zero rows, so it builds no angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import simulator
from .errors import DegenerateInputError
from .mpf import constituent_sets, mpf_estimate, mpf_values, mpf_weights
from .profiling import (
    BranchSet,
    ProfilingConfig,
    calibration_probes,
    exact_values,
    mitigated_estimates,
    sweep_grid,
    sweep_sets,
)
from .simulator import GaussianJitter, engine_counts

METHODS = ("trotter", "ep", "mpf")

#: Errors at or below this are at the double-precision floor: they are
#: flagged, and slope fits leave them out.
ERROR_FLOOR = 1e-14


def time_grid(start: float, stop: float, points: int, scale: str) -> tuple[float, ...]:
    """``points`` times from ``start`` to ``stop``, spaced on a ``log`` or ``linear`` scale,
    as Python floats, whose arithmetic raises no numpy warning.

    A span past the float range gives no warning either: a log grid keeps its
    ends (numpy sets them after its powers overflow), and a linear grid whose
    spacing overflows holds non-finite times, which the parser refuses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grid = (np.geomspace if scale == "log" else np.linspace)(start, stop, points)
    return tuple(grid.tolist())


#: The time grid of the presets and of documents without a ``times`` section,
#: as the keys of that section: 20 log-spaced points on [0.1, 1].
DEFAULT_TIME_GRID = {"start": 0.1, "stop": 1.0, "points": 20, "scale": "log"}
DEFAULT_TIMES = time_grid(**DEFAULT_TIME_GRID)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(ProfilingConfig):
    """A full benchmark setup: the profiling inputs plus times and options.

    ``trotter_steps`` is the base depth of the plain and profiling circuits,
    and ``mpf_step_counts`` the depths the extrapolation baseline combines.
    """

    times: tuple[float, ...] = DEFAULT_TIMES
    mpf_step_counts: tuple[int, ...] = (1, 2)
    noise_sigma: float = 0.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.times:
            raise DegenerateInputError("need at least one evaluation time")
        if any(t <= 0 for t in self.times):
            raise DegenerateInputError("evaluation times must be positive")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DegenerateInputError("evaluation times must strictly increase")
        if self.seed < 0:
            raise DegenerateInputError(
                f"noise seed must be a non-negative integer, got {self.seed}"
            )


@dataclass(frozen=True)
class CurvePoint:
    """One time of a curve: the estimate, the exact value and their distance."""

    t: float
    estimate: float
    exact: float
    abs_error: float

    @property
    def floored(self) -> bool:
        """Whether the error sits at the double-precision floor."""
        return bool(self.abs_error <= ERROR_FLOOR)


@dataclass(frozen=True)
class ErrorCurve:
    """Per-time estimates of one method against the exact evolution."""

    method: str
    points: tuple[CurvePoint, ...]

    def errors(self) -> np.ndarray:
        return np.array([p.abs_error for p in self.points])


def worker_count() -> int:
    """The threads an engine call's row chunks evolve on (``simulator.WORKERS``):
    one per CPU the process may use.  Benchmark harnesses record it next to
    their timings."""
    return simulator.WORKERS


def _per_time_jitters(cfg: ExperimentConfig) -> list[GaussianJitter | None]:
    """Deterministic per-time noise streams, independent of execution order."""
    if cfg.noise_sigma == 0.0:
        return [None] * len(cfg.times)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.times))
    return [
        GaussianJitter(cfg.noise_sigma, np.random.default_rng(child))
        for child in children
    ]


def constituent_counts(cfg: ExperimentConfig, methods: Sequence[str]) -> tuple[int, ...]:
    """The step counts whose Trotter values the methods read, each once: ``mpf``
    reads ``cfg.mpf_step_counts`` and ``trotter`` the base ``cfg.trotter_steps``."""
    counts: dict[int, None] = {}
    if "mpf" in methods:
        counts.update(dict.fromkeys(cfg.mpf_step_counts))
    if "trotter" in methods:
        counts[cfg.trotter_steps] = None
    return tuple(counts)


def constituent_columns(
    cfg: ExperimentConfig, methods: Sequence[str]
) -> dict[int, np.ndarray]:
    """The Trotter values over ``cfg.times`` of every step count the methods read.

    Each count of ``constituent_counts`` runs as one engine batch (``mpf_values``).
    """
    counts = constituent_counts(cfg, methods)
    return dict(zip(counts, mpf_values(cfg.times, counts, cfg).T)) if counts else {}


def run_error_curve(
    cfg: ExperimentConfig,
    method: str,
    exact: Sequence[float] | None = None,
    columns: Mapping[int, np.ndarray] | None = None,
) -> ErrorCurve:
    """Estimate-vs-exact curve for one method over the configured times.

    ``exact`` is ``exact_values(cfg.times, cfg)`` and ``columns`` is
    ``constituent_columns(cfg, methods)`` for methods that include this
    one, passed in when several curves of one configuration share them;
    each is computed when left out.  The plain Trotter curve is the
    multi-product constituent at the base depth, perturbed with one draw per
    time.
    """
    if method not in METHODS:
        raise DegenerateInputError(f"method must be one of {METHODS}, got {method!r}")
    # first, so that a time the exact column refuses runs no circuit
    if exact is None:
        exact = exact_values(cfg.times, cfg)
    jitters = _per_time_jitters(cfg)

    # Each curve runs all its times in one engine pass per word sequence;
    # noise is still drawn per time, from that time's own stream.
    if method == "ep":
        estimates = [
            fit.y_star for fit in mitigated_estimates(cfg.times, cfg, jitters=jitters)
        ]
    else:
        if columns is None:
            columns = constituent_columns(cfg, (method,))
        if method == "mpf":
            weights = mpf_weights(cfg.mpf_step_counts, cfg.formula.alpha, cfg.formula.symmetric)
            values = np.column_stack([columns[count] for count in weights.step_counts])
            estimates = [
                mpf_estimate(row, weights, jitter=jitter)
                for row, jitter in zip(values, jitters)
            ]
        else:
            estimates = [
                float(v if jitter is None else jitter.perturb(v))
                for v, jitter in zip(columns[cfg.trotter_steps], jitters)
            ]

    points = tuple(
        CurvePoint(t, value, x, abs(value - x))
        for t, value, x in zip(cfg.times, estimates, map(float, exact))
    )
    return ErrorCurve(method, points)


def slope_fit(curve: ErrorCurve, window: tuple[float, float]) -> float:
    """Least-squares slope of log(error) against log(t) inside the window.

    Floored points carry no scale and are left out.
    """
    t_min, t_max = window
    kept = [p for p in curve.points if t_min <= p.t <= t_max and not p.floored]
    if len(kept) < 4:
        raise DegenerateInputError(
            f"only {len(kept)} usable points in window [{t_min}, {t_max}]"
        )
    logs_t = np.log([p.t for p in kept])
    logs_e = np.log([p.abs_error for p in kept])
    slope, _ = np.polyfit(logs_t, logs_e, 1)
    return float(slope)


def sign_stable_mask(curve: ErrorCurve) -> np.ndarray:
    """Points whose |error| is meaningful, i.e. not next to a sign flip.

    A signed error curve that crosses zero produces a spurious dip in its
    magnitude; the two grid points bracketing such a crossing say nothing
    about the curve's scale or ordering against another curve, so power-law
    reads and curve comparisons should skip them.
    """
    signed = np.array([p.estimate - p.exact for p in curve.points])
    keep = np.ones(len(signed), dtype=bool)
    for i in range(len(signed) - 1):
        if signed[i] * signed[i + 1] < 0:
            keep[i] = keep[i + 1] = False
    return keep


def stable_slope_fit(curve: ErrorCurve, window: tuple[float, float]) -> float:
    """``slope_fit`` restricted to points away from sign flips of the error."""
    keep = sign_stable_mask(curve)
    pruned = ErrorCurve(
        curve.method, tuple(p for p, k in zip(curve.points, keep) if k)
    )
    return slope_fit(pruned, window)


@dataclass(frozen=True, eq=False)
class Stage:
    """The engine batches of one stage of a run: ``rows`` circuits per batch, and
    the branch sets of the run's own generator at zero rows, in run order."""

    name: str
    rows: int
    sets: tuple[BranchSet, ...]

    @property
    def batches(self) -> tuple[tuple[tuple[str, ...], int], ...]:
        """Each batch as ``(words, rows)``, in run order."""
        return tuple((tuple(words), self.rows) for _, batches in self.sets for words, _ in batches)

    def totals(self) -> tuple[int, ...]:
        """Batches, rows, compiled row-gates, folded row-gates and kernel row-steps.

        Folded gates and kernel steps come from the plan the engine evolves
        for each set (``engine_counts``), so a shared trunk counts once.
        """
        batches = self.batches
        gates = sum(len(words) for words, _ in batches)
        counts = [engine_counts([w for w, _ in batches], seam) for seam, batches in self.sets]
        folded, steps = map(sum, zip(*counts))
        rows = self.rows
        return len(batches), rows * len(batches), rows * gates, rows * folded, rows * steps


def plan(cfg: ExperimentConfig, methods: Sequence[str]) -> tuple[Stage, ...]:
    """The engine batches that ``run`` of ``methods`` executes, in run order:
    ``constituents`` for trotter and mpf, then for ep ``calibration`` when no
    basis is set, and the ``sweep``.  Each stage holds the branch sets of the
    run's own generator at zero rows, with ``(0, K)`` angle arrays (an unset
    grid calibrates, to learn its size)."""
    for method in methods:
        if method not in METHODS:
            raise DegenerateInputError(f"method must be one of {METHODS}, got {method!r}")
    counts = constituent_counts(cfg, methods)
    stages = []
    if counts:
        sets = tuple(constituent_sets((), counts, cfg))
        stages.append(Stage("constituents", len(cfg.times), sets))
    if "ep" in methods:
        sets = tuple(sweep_sets((), (), cfg))
        if cfg.basis is None:
            a_values, times = calibration_probes(cfg)
            stages.append(Stage("calibration", len(a_values) * len(times), sets))
        stages.append(Stage("sweep", len(sweep_grid(cfg)) * len(cfg.times), sets))
    return tuple(stages)
