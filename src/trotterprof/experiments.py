"""End-to-end error-scaling studies on the two reference spin chains.

Builds the transverse-field Ising and XXZ benchmark setups, sweeps the
evaluation time for the plain iterated circuit, the profiling method, and
the multi-product baseline, and fits log-log error slopes.  Gate budgets
for both mitigation strategies are counted from the formula's step table,
the rotation sequence every compiled circuit follows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, FormulaError
from .formulas import (
    Fragment,
    PartitionedHamiltonian,
    ProductFormula,
    builtin_formula,
    sample_template,
    step_terms,
)
from .mpf import mpf_estimate, mpf_weights
from .pauli import OperatorSum, PauliTerm
from .profiling import (
    ProfilingConfig,
    mitigated_estimate,
    probe_variants,
    resolve_basis,
)
from .simulator import (
    GaussianJitter,
    exact_states,
    expectation_rows,
    init_product_state,
    sample_expectations,
)

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


_PAPER_STATE_FACTORS = ((1, 0), (1, 1j), (1, 1), (0, 1))


def _chain_words(n: int, body: str, site: int) -> str:
    prefix = "I" * site
    suffix = "I" * (n - site - len(body))
    return prefix + body + suffix


def tfim_config(formula_name: str) -> ExperimentConfig:
    """Transverse-field Ising chain on four sites, open boundaries.

    Couplings J = 1 on the three bonds and field h = 1/3 on every site; the
    splitting alternates the ZZ layer (odd bonds before the even bond) with
    the X layer.  The observable mixes both layers and the start state is a
    fixed product state.
    """
    if formula_name not in ("ruth3", "suzuki4"):
        raise FormulaError(
            f"benchmark formula must be ruth3 or suzuki4, got {formula_name!r}"
        )
    n = 4
    zz_bonds = [0, 2, 1]  # odd bonds (1,2), (3,4) first, then the even bond (2,3)
    zz_terms = [PauliTerm(_chain_words(n, "ZZ", b), 1.0) for b in zz_bonds]
    x_terms = [PauliTerm(_chain_words(n, "X", i), 1.0 / 3.0) for i in range(n)]
    partition = PartitionedHamiltonian(
        (
            Fragment(OperatorSum.from_terms(zz_terms)),
            Fragment(OperatorSum.from_terms(x_terms)),
        ),
        n,
    )
    observable = OperatorSum.from_terms(
        [PauliTerm(_chain_words(n, "X", i), 0.25) for i in range(n)]
        + [PauliTerm(_chain_words(n, "ZZ", b), 1.0 / 3.0) for b in range(3)]
    )
    formula = builtin_formula(formula_name, partition)
    return ExperimentConfig(
        partition=partition,
        formula=formula,
        observable=observable,
        initial_state=init_product_state(_PAPER_STATE_FACTORS),
        formula_name=formula_name,
    )


def xxz_config(formula_name: str) -> ExperimentConfig:
    """Anisotropic Heisenberg chain on four sites, open boundaries.

    Each bond carries XX + YY + (1/3) ZZ; the two outer bonds form one
    commuting fragment and the middle bond the other, so a bond exponential
    splits exactly into three rotations.

    The observable is the average magnetization plus a middle-bond
    imbalance probe, (1/4) sum_i Z_i + (1/2)(Z_2 - Z_3).  The plain average
    alone is useless here: every bond term commutes with sum(Z_i), so the
    exact evolution and every compiled circuit in the probe family conserve
    it exactly and its Trotter error vanishes identically (see
    tests/test_experiments.py for the check).  The imbalance term breaks
    that degeneracy; being conserved, the average part adds no error of its
    own and keeps the observable magnetization-like.
    """
    if formula_name not in ("ruth3", "suzuki4"):
        raise FormulaError(
            f"benchmark formula must be ruth3 or suzuki4, got {formula_name!r}"
        )
    n = 4
    eta = 1.0 / 3.0

    def bond_terms(site: int) -> list[PauliTerm]:
        return [
            PauliTerm(_chain_words(n, "XX", site), 1.0),
            PauliTerm(_chain_words(n, "YY", site), 1.0),
            PauliTerm(_chain_words(n, "ZZ", site), eta),
        ]

    partition = PartitionedHamiltonian(
        (
            Fragment(OperatorSum.from_terms(bond_terms(0) + bond_terms(2))),
            Fragment(OperatorSum.from_terms(bond_terms(1))),
        ),
        n,
    )
    weights = (0.25, 0.25 + 0.5, 0.25 - 0.5, 0.25)
    observable = OperatorSum.from_terms(
        [PauliTerm(_chain_words(n, "Z", i), w) for i, w in enumerate(weights)]
    )
    formula = builtin_formula(formula_name, partition)
    return ExperimentConfig(
        partition=partition,
        formula=formula,
        observable=observable,
        initial_state=init_product_state(_PAPER_STATE_FACTORS),
        formula_name=formula_name,
    )


def worker_count() -> int:
    """Always 1: curves run serially, one time point after another.

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


def exact_curve(cfg: ExperimentConfig) -> np.ndarray:
    """Noiseless exact expectation at every configured time, one propagation."""
    states = exact_states(cfg.partition.hamiltonian, cfg.times, cfg.initial_state)
    return expectation_rows(states, cfg.observable)


def run_error_curve(
    cfg: ExperimentConfig, method: str, exact: Sequence[float] | None = None
) -> ErrorCurve:
    """Estimate-vs-exact curve for one method over the configured times.

    ``exact`` is ``exact_curve(cfg)``, passed in when several curves of one
    configuration share it; it is computed when left out.
    """
    if method not in METHODS:
        raise DegenerateInputError(f"method must be one of {METHODS}, got {method!r}")
    jitters = _per_time_jitters(cfg)

    if method == "ep":
        profile_cfg = replace(cfg, basis=resolve_basis(cfg))
        estimates = [
            mitigated_estimate(t, profile_cfg, jitter=jitter)[0]
            for t, jitter in zip(cfg.times, jitters)
        ]
    elif method == "mpf":
        weights = mpf_weights(
            cfg.mpf.step_counts, cfg.formula.alpha, cfg.mpf.symmetric
        )
        estimates = [
            mpf_estimate(t, weights, cfg, jitter=jitter)
            for t, jitter in zip(cfg.times, jitters)
        ]
    else:
        # The plain circuits of all times share one word sequence: one batch.
        tables, angles = sample_template(
            cfg.formula, cfg.partition, cfg.trotter_steps
        ).forward(cfg.times)
        values = sample_expectations(cfg.initial_state, tables, angles, cfg.observable)
        estimates = [
            float(v if jitter is None else jitter.perturb(v))
            for v, jitter in zip(values, jitters)
        ]

    if exact is None:
        exact = exact_curve(cfg)
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
