"""End-to-end error-scaling studies on the two reference spin chains.

Builds the transverse-field Ising and XXZ benchmark setups, sweeps the
evaluation time for the plain iterated circuit, the profiling method, and
the multi-product baseline, and fits log-log error slopes.  Gate budgets
for both mitigation strategies are accounted from actually compiled
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, FormulaError
from .formulas import (
    Fragment,
    PartitionedHamiltonian,
    ProductFormula,
    builtin_formula,
    compile_circuit,
)
from .mpf import mpf_estimate, mpf_weights
from .pauli import OperatorSum, PauliTerm
from .profiling import (
    CompositeSpec,
    ProfilingConfig,
    composite_circuit,
    mitigated_estimate,
    resolve_basis,
)
from .simulator import (
    GaussianJitter,
    apply_circuit,
    exact_evolve,
    expectation,
    init_product_state,
    measure,
)

METHODS = ("trotter", "ep", "mpf")

#: Errors below this are at the double-precision floor and get flagged.
ERROR_FLOOR = 1e-15


@dataclass(frozen=True)
class MPFOptions:
    """Step counts and cancellation flavor for the extrapolation baseline."""

    step_counts: tuple[int, ...] = (1, 2)
    symmetric: bool = False


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(ProfilingConfig):
    """A full benchmark setup: the profiling inputs plus times and options.

    ``trotter_steps`` is the base depth of the plain and profiling circuits.
    """

    times: tuple[float, ...]
    mpf: MPFOptions = field(default_factory=MPFOptions)
    noise_sigma: float = 0.0
    seed: int = 1234
    formula_name: str | None = None
    preset: str | None = None

    def __post_init__(self) -> None:
        if not self.times:
            raise DegenerateInputError("need at least one evaluation time")
        if any(t <= 0 for t in self.times):
            raise DegenerateInputError("evaluation times must be positive")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DegenerateInputError("evaluation times must strictly increase")


@dataclass(frozen=True)
class CurvePoint:
    t: float
    estimate: float
    exact: float
    abs_error: float
    floored: bool = False


@dataclass(frozen=True)
class ErrorCurve:
    """Per-time estimates of one method against the exact evolution."""

    method: str
    points: tuple[CurvePoint, ...]

    def errors(self) -> np.ndarray:
        return np.array([p.abs_error for p in self.points])

    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])


def default_times(start: float = 0.1, stop: float = 1.0, count: int = 20) -> tuple[float, ...]:
    return tuple(np.geomspace(start, stop, count))


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
        times=default_times(),
        mpf=MPFOptions(step_counts=(1, 2), symmetric=formula.symmetric),
        formula_name=formula_name,
        preset=f"tfim-{formula_name}",
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
        times=default_times(),
        mpf=MPFOptions(step_counts=(1, 2), symmetric=formula.symmetric),
        formula_name=formula_name,
        preset=f"xxz-{formula_name}",
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


def run_error_curve(cfg: ExperimentConfig, method: str) -> ErrorCurve:
    """Estimate-vs-exact curve for one method over the configured times."""
    if method not in METHODS:
        raise DegenerateInputError(f"method must be one of {METHODS}, got {method!r}")
    h = cfg.partition.hamiltonian
    jitters = _per_time_jitters(cfg)

    if method == "ep":
        profile_cfg = replace(cfg, basis=resolve_basis(cfg))

        def estimate(t: float, jitter: GaussianJitter | None) -> float:
            value, _ = mitigated_estimate(t, profile_cfg, jitter=jitter)
            return value

    elif method == "mpf":
        weights = mpf_weights(
            cfg.mpf.step_counts, cfg.formula.alpha, cfg.mpf.symmetric
        )

        def estimate(t: float, jitter: GaussianJitter | None) -> float:
            return mpf_estimate(
                t,
                weights,
                cfg.formula,
                cfg.partition,
                cfg.observable,
                cfg.initial_state,
                jitter=jitter,
            )

    else:

        def estimate(t: float, jitter: GaussianJitter | None) -> float:
            circuit = compile_circuit(cfg.formula, cfg.partition, t, cfg.trotter_steps)
            return measure(
                apply_circuit(cfg.initial_state, circuit), cfg.observable, jitter
            )

    points = []
    for t, jitter in zip(cfg.times, jitters):
        exact = expectation(exact_evolve(h, t, cfg.initial_state), cfg.observable)
        value = estimate(t, jitter)
        error = abs(value - exact)
        points.append(CurvePoint(t, value, exact, error, floored=error < ERROR_FLOOR))
    return ErrorCurve(method, tuple(points))


def slope_fit(curve: ErrorCurve, window: tuple[float, float]) -> float:
    """Least-squares slope of log(error) against log(t) inside the window."""
    t_min, t_max = window
    kept = [
        p
        for p in curve.points
        if t_min <= p.t <= t_max and p.abs_error > 1e-14
    ]
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
    """Gate budget of one mitigation strategy, counted on compiled circuits.

    The profiling method runs one composite circuit (four for asymmetric
    formulas) of depth ``2 * trotter_steps`` per grid point, so its budget
    is linear in the base depth; the extrapolation baseline runs one
    circuit per step count and its total step count is the sum.
    """
    if method == "ep":
        if grid_points is None or grid_points < 1:
            raise DegenerateInputError("ep cost needs a positive grid_points")
        per_a = 1 if formula.symmetric else 4
        spec = CompositeSpec(1, 0.3, 1.0, trotter_steps)
        gates_per_circuit = len(composite_circuit(spec, formula, partition).gates)
        circuits = grid_points * per_a
        return CostReport(
            circuits=circuits,
            elementary_gates=circuits * gates_per_circuit,
            total_steps=circuits * 2 * trotter_steps,
            depth_steps=2 * trotter_steps,
        )
    if method == "mpf":
        if not step_counts:
            raise DegenerateInputError("mpf cost needs step counts")
        gates = sum(
            len(compile_circuit(formula, partition, 1.0, s).gates)
            for s in step_counts
        )
        return CostReport(
            circuits=len(step_counts),
            elementary_gates=gates,
            total_steps=sum(step_counts),
            depth_steps=max(step_counts),
        )
    raise DegenerateInputError(f"unknown cost method {method!r}")
