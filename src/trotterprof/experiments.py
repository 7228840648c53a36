"""End-to-end error-scaling studies: curves, slopes and cost.

``ExperimentConfig`` is one full setup; ``config`` parses it from a document
or a preset.  The studies sweep the evaluation time for the plain iterated
circuit, the profiling method, and the multi-product baseline, and fit
log-log error slopes.  Gate budgets for both mitigation strategies are
counted from the formula's step table, the rotation sequence every compiled
circuit follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError
from .formulas import PartitionedHamiltonian, ProductFormula, step_terms
from .mpf import mpf_estimate, mpf_values, mpf_weights
from .profiling import (
    ProfilingConfig,
    exact_values,
    mitigated_estimates,
    probe_variants,
)
from .simulator import GaussianJitter

METHODS = ("trotter", "ep", "mpf")

#: Errors at or below this are at the double-precision floor: they are
#: flagged, and slope fits leave them out.
ERROR_FLOOR = 1e-14

#: Evaluation times of the presets and of documents without a ``times``
#: section: 20 log-spaced points on [0.1, 1].
DEFAULT_TIMES = tuple(np.geomspace(0.1, 1.0, 20))


@dataclass(frozen=True)
class MPFOptions:
    """Step counts and cancellation flavor for the extrapolation baseline."""

    step_counts: tuple[int, ...] = (1, 2)
    symmetric: bool = False


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(ProfilingConfig):
    """A full benchmark setup: the profiling inputs plus times and options.

    ``trotter_steps`` is the base depth of the plain and profiling circuits.
    An unset ``mpf`` takes the default step counts with the formula's own
    symmetry.
    """

    times: tuple[float, ...] = DEFAULT_TIMES
    mpf: MPFOptions | None = None
    noise_sigma: float = 0.0
    seed: int = 1234
    formula_name: str | None = None

    def __post_init__(self) -> None:
        if self.mpf is None:
            object.__setattr__(self, "mpf", MPFOptions(symmetric=self.formula.symmetric))
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
    """Always 1: a run uses one worker, and each curve batches all its times.

    Kept because benchmark harnesses record it next to their timings.
    """
    return 1


def _per_time_jitters(cfg: ExperimentConfig) -> list[GaussianJitter | None]:
    """Deterministic per-time noise streams, independent of execution order."""
    if cfg.noise_sigma == 0.0:
        return [None] * len(cfg.times)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.times))
    return [
        GaussianJitter(cfg.noise_sigma, np.random.default_rng(child))
        for child in children
    ]


def run_error_curve(
    cfg: ExperimentConfig, method: str, exact: Sequence[float] | None = None
) -> ErrorCurve:
    """Estimate-vs-exact curve for one method over the configured times.

    ``exact`` is ``exact_values(cfg.times, cfg)``, passed in when several
    curves of one configuration share it; it is computed when left out.
    The plain Trotter curve is the multi-product constituent at the base
    depth, perturbed with one draw per time.
    """
    if method not in METHODS:
        raise DegenerateInputError(f"method must be one of {METHODS}, got {method!r}")
    jitters = _per_time_jitters(cfg)

    # Each curve runs all its times in one engine pass per word sequence;
    # noise is still drawn per time, from that time's own stream.
    if method == "ep":
        estimates = [
            fit.y_star for fit in mitigated_estimates(cfg.times, cfg, jitters=jitters)
        ]
    elif method == "mpf":
        weights = mpf_weights(
            cfg.mpf.step_counts, cfg.formula.alpha, cfg.mpf.symmetric
        )
        values = mpf_values(cfg.times, weights.step_counts, cfg)
        estimates = [
            mpf_estimate(row, weights, jitter=jitter)
            for row, jitter in zip(values, jitters)
        ]
    else:
        values = mpf_values(cfg.times, (cfg.trotter_steps,), cfg)[:, 0]
        estimates = [
            float(v if jitter is None else jitter.perturb(v))
            for v, jitter in zip(values, jitters)
        ]

    if exact is None:
        exact = exact_values(cfg.times, cfg)
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


@dataclass(frozen=True)
class CostReport:
    """Circuit accounting: how many circuits, gates, and iterated steps."""

    circuits: int
    elementary_gates: int
    total_steps: int
    depth_steps: int


def circuit_cost(
    method: str,
    *,
    formula: ProductFormula,
    partition: PartitionedHamiltonian,
    trotter_steps: int = 1,
    grid_points: int | None = None,
    step_counts: Sequence[int] | None = None,
) -> CostReport:
    """Gate budget of one mitigation strategy, counted from the step table.

    A step ``V(t/N)`` rotates each term of each addressed fragment once.  The
    profiling method runs one composite circuit per probe variant of depth
    ``2 * trotter_steps`` per grid point, so its budget is linear in the base
    depth; the extrapolation baseline runs one circuit per step count and its
    total step count is the sum.
    """
    gates_per_step = len(step_terms(formula, partition))
    if method == "ep":
        if grid_points is None or grid_points < 1:
            raise DegenerateInputError("ep cost needs a positive grid_points")
        if trotter_steps < 1:
            raise DegenerateInputError("trotter_steps must be at least 1")
        circuits = grid_points * len(probe_variants(formula))
        depth = 2 * trotter_steps
        return CostReport(
            circuits=circuits,
            elementary_gates=circuits * depth * gates_per_step,
            total_steps=circuits * depth,
            depth_steps=depth,
        )
    if method == "mpf":
        if not step_counts or min(step_counts) < 1:
            raise DegenerateInputError("mpf cost needs positive step counts")
        return CostReport(
            circuits=len(step_counts),
            elementary_gates=sum(step_counts) * gates_per_step,
            total_steps=sum(step_counts),
            depth_steps=max(step_counts),
        )
    raise DegenerateInputError(f"unknown cost method {method!r}")
