"""Composite-circuit error profiling and mitigation.

The probe family pairs a forward circuit at scaled time ``a*t`` with a
forward or inverted partner at ``(1-a)*t``.  Varying ``a`` leaves the ideal
evolution invariant but modulates the algorithmic error, so sweeping a grid
of ``a`` values and fitting the averaged expectation against a known basis
in ``a`` separates the ideal value (the intercept) from the error terms.
Sweeps, calibration and estimates take the system (formula, partition,
observable, initial state and base depth) as one ``ProfilingConfig``.
``sweep_sets`` builds the probe circuits as the branch sets the engine
runs, variants that open with the same segment together, and
``composite_expectations`` evaluates them in one engine call.

The module also provides a dense extraction oracle for the error-series
operators of a compiled circuit, used to validate the fitted coefficients
against first principles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    DegenerateInputError,
    DimensionMismatchError,
    ExtractionError,
    SingularFitError,
)
from .formulas import (
    PartitionedHamiltonian,
    ProductFormula,
    compile_circuit,
    invert_circuit,
    sample_template,
)
from .pauli import DenseOperator, OperatorSum, to_dense
from .simulator import (
    ACCUMULATE_AMPLITUDES,
    BranchSet,
    Circuit,
    GaussianJitter,
    StateVector,
    circuit_unitary,
    exact_evolve,
    exact_states,
    exact_unitary,
    expectation,
    expectation_rows,
    sample_branches,
)

#: Least-squares designs above this condition number are rejected.
CONDITION_GATE = 1e8

#: Relative threshold deciding which error orders survive calibration.
SURVIVAL_THRESHOLD = 1e-8

#: Calibration probe window in the scale-free variable ``u = t * ||H||_1``,
#: so the default transfers between Hamiltonians, and its point count.
CALIBRATION_U_WINDOW = (0.08, 0.4)
CALIBRATION_POINTS = 20

#: Split parameters probed during calibration, each paired with ``1 - a``.
CALIBRATION_A_PROBE = (0.15, 0.35, 0.45)

#: Powers beyond the candidate window that absorb series truncation.
CALIBRATION_GUARD_ORDERS = 4

#: Extraction oracle: sample window in ``u = t * ||H||_1`` (negative times
#: improve the conditioning), guard powers beyond the requested orders, and
#: the relative anti-Hermiticity tolerance of the leading operator.
EXTRACTION_U_WINDOW = (-0.6, 0.6)
EXTRACTION_GUARD_ORDERS = 8
EXTRACTION_UNITARITY_TOL = 1e-6


@dataclass(frozen=True)
class CompositeSpec:
    """One probe circuit: variant 1..4, split parameter ``a``, time, base depth."""

    variant: int
    a: float
    t: float
    trotter_steps: int = 1

    def __post_init__(self) -> None:
        if self.variant not in (1, 2, 3, 4):
            raise DegenerateInputError(f"variant must be 1..4, got {self.variant}")
        if self.trotter_steps < 1:
            raise DegenerateInputError("trotter_steps must be at least 1")

    @property
    def a_bar(self) -> float:
        return 1.0 - self.a


@dataclass(frozen=True)
class ProfileSample:
    """One swept data point: split parameter and averaged expectation."""

    a: float
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DegenerateInputError(f"sample value at a={self.a} is not finite")


@dataclass(frozen=True)
class BasisSpec:
    """Which error orders the profile fit models, and whether odd columns join.

    Symmetric columns are ``a**s + (1-a)**s``; when ``include_antisymmetric``
    is set, ``a**s - (1-a)**s`` columns are added for the same orders.
    """

    orders: tuple[int, ...]
    include_antisymmetric: bool = False

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.orders)))
        if ordered != tuple(self.orders):
            object.__setattr__(self, "orders", ordered)

    def column_count(self) -> int:
        return len(self.orders) * (2 if self.include_antisymmetric else 1)


def widest_basis(alpha: int) -> BasisSpec:
    """The orders ``alpha .. 2 alpha - 2`` with antisymmetric columns: every
    basis that calibration returns keeps a subset of these columns."""
    return BasisSpec(tuple(range(alpha, 2 * alpha - 1)), True)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a profile fit: intercept, per-order slopes, diagnostics, data."""

    y_star: float
    coefficients: Mapping[int, float]
    residual_norm: float
    condition_number: float
    antisymmetric_coefficients: Mapping[int, float] = field(default_factory=dict)
    samples: tuple[ProfileSample, ...] = ()

    def __post_init__(self) -> None:
        if self.residual_norm < 0:
            raise ValueError("residual norm cannot be negative")
        if self.condition_number < 1.0:
            raise ValueError("condition number is at least 1")


@dataclass(frozen=True)
class ErrorSeries:
    """Dense error operators ``E_s`` for s = start_order .. start_order+len-1."""

    start_order: int
    operators: tuple[DenseOperator, ...]

    def operator_for(self, order: int) -> DenseOperator:
        index = order - self.start_order
        if index < 0 or index >= len(self.operators):
            raise KeyError(f"order {order} not extracted")
        return self.operators[index]


@dataclass(frozen=True)
class ProfilingConfig:
    """Everything a mitigated estimate needs besides the evaluation time.

    An unset ``a_grid`` defaults to the Chebyshev grid sized for the basis
    (``sweep_grid``); an unset ``basis`` is calibrated.
    """

    formula: ProductFormula
    partition: PartitionedHamiltonian
    observable: OperatorSum
    initial_state: StateVector
    trotter_steps: int = 1
    a_grid: tuple[float, ...] | None = None
    basis: BasisSpec | None = None


def composite_circuit(
    spec: CompositeSpec,
    f: ProductFormula,
    partition: PartitionedHamiltonian,
) -> Circuit:
    """Build one probe circuit; the right factor of the product acts first.

    Variant 1 composes forward circuits at ``a*t`` and ``(1-a)*t``; variants
    2-4 replace one or both factors by the inverted circuit at negated time,
    which approximates the same ideal evolution but flips the error series.
    """
    n = spec.trotter_steps

    def segment(x: float, inverted: bool) -> Circuit:
        if inverted:
            return invert_circuit(compile_circuit(f, partition, -x, n))
        return compile_circuit(f, partition, x, n)

    first, second = _segments(spec.variant)
    gates = segment(spec.a_bar * spec.t, first).gates + segment(spec.a * spec.t, second).gates
    return Circuit(gates, partition.n)


def _segments(variant: int) -> tuple[bool, bool]:
    """Whether a probe variant inverts its segment at ``(1-a)t``, and its segment at ``at``."""
    if variant not in (1, 2, 3, 4):
        raise DegenerateInputError(f"variant must be 1..4, got {variant}")
    return variant in (3, 4), variant in (2, 4)


def probe_variants(f: ProductFormula) -> tuple[int, ...]:
    """The probe variants a sweep simulates and averages at each ``a``.

    Symmetric formulas satisfy ``V(-t)^dagger = V(t)``, collapsing all four
    variants onto variant 1, so only that one is simulated.
    """
    return (1,) if f.symmetric else (1, 2, 3, 4)


def sweep_rows(a_values: Sequence[float], times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(a, t)`` rows of a sweep: every ``a`` at every time, time-major."""
    return np.tile(a_values, len(times)), np.repeat(times, len(a_values))


def sweep_sets(
    a_values: Sequence[float],
    t_values: Sequence[float],
    config: ProfilingConfig,
    variants: Sequence[int] | None = None,
) -> Iterator[BranchSet]:
    """The probe rows ``(a_values[b], t_values[b])`` as branch sets, a batch per
    variant of ``variants`` (else ``probe_variants``): row b of one compiles
    ``composite_circuit(spec, f, partition)`` with ``config``'s system.

    Consecutive variants that open with the same segment, ``forward((1-a)t)``
    for 1 and 2 and ``inverted((1-a)t)`` for 3 and 4, form one set whose seam
    ends that segment; it is built once per set.  With no rows the sets carry
    their word sequences and ``(0, K)`` angle arrays.
    """
    a = np.asarray(a_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    at, abar_t = a * t, (1.0 - a) * t
    template = sample_template(config.formula, config.partition, config.trotter_steps)

    def segment(x: np.ndarray, inverted: bool):
        return template.inverted(x) if inverted else template.forward(x)

    if variants is None:
        variants = probe_variants(config.formula)
    for first, run in itertools.groupby(map(_segments, variants), key=lambda s: s[0]):
        first_words, first_angles = segment(abar_t, first)
        yield len(first_words), [
            (first_words + words, np.hstack([first_angles, angles]))
            for words, angles in (segment(at, second) for _, second in run)
        ]


def composite_expectations(
    a_values: Sequence[float],
    t_values: Sequence[float],
    variants: Sequence[int],
    config: ProfilingConfig,
) -> np.ndarray:
    """Expectations of the probe circuits at every ``(a_values[b], t_values[b])``.

    Column j holds variant ``variants[j]``; each entry equals the looped
    oracle ``expectation(apply_circuit(psi, composite_circuit(spec, f,
    partition)), obs)`` within 1e-12 (the engine folds repeats of a word).
    """
    sets = sweep_sets(a_values, t_values, config, variants)
    return sample_branches(config.initial_state, sets, config.observable)


def averaged_expectation(
    a: float, t: float, config: ProfilingConfig, *, exact_substitute: bool = False
) -> float:
    """Mean expectation over the probe variants at one ``(a, t)`` point.

    With ``exact_substitute`` the compiled circuits are replaced by the exact
    evolution, which is invariant in ``a`` by construction: a self-check of
    the probe family's ideal invariance.
    """
    if exact_substitute:
        h = config.partition.hamiltonian
        state = exact_evolve(h, (1.0 - a) * t, config.initial_state)
        return expectation(exact_evolve(h, a * t, state), config.observable)
    return float(np.mean(composite_expectations([a], [t], probe_variants(config.formula), config)))


def exact_values(times: Sequence[float], config: ProfilingConfig) -> np.ndarray:
    """Exact ``<psi(t)|O|psi(t)>`` at every time, in one matrix-free propagation.

    The ``(T, 2^n)`` stack of states is measured in chunks of at most
    ``ACCUMULATE_AMPLITUDES`` amplitudes (and at least one row), through two
    chunk-sized scratch stacks, so it is the one stack of its shape; each
    row's value is a reduction along that row alone, whatever its chunk.
    """
    states = exact_states(config.partition.hamiltonian, times, config.initial_state)
    rows = max(1, ACCUMULATE_AMPLITUDES >> config.initial_state.n)
    scratch = np.empty((2, min(rows, len(states)), states.shape[1]), dtype=complex)
    values = np.empty(len(states))
    for lo in range(0, len(states), rows):
        block = states[lo : lo + rows]
        pair = tuple(scratch[:, : len(block)])
        values[lo : lo + rows] = expectation_rows(block, config.observable, pair)
    return values


def check_grid(grid: Sequence[float], basis: BasisSpec | None) -> None:
    """The rule every sweep grid meets: distinct values, one more than the columns.

    The fit needs a point per basis column plus one for the intercept; a
    basis still to be calibrated (``None``) needs at least the intercept's.
    """
    if len(set(grid)) != len(grid):
        raise DegenerateInputError("duplicate a values in sweep grid")
    n_parameters = 1 + (basis.column_count() if basis is not None else 0)
    if len(grid) < n_parameters:
        raise SingularFitError(
            f"{len(grid)} grid points cannot determine {n_parameters} parameters"
        )


def default_a_grid(n_orders: int) -> tuple[float, ...]:
    """``2n + 1`` Chebyshev nodes on [-0.5, 1.5], symmetric about a = 1/2."""
    m = 2 * n_orders + 1
    nodes = [0.5 + math.cos(math.pi * (2 * k + 1) / (2 * m)) for k in range(m)]
    return tuple(sorted(nodes))


def _basis_matrix(a_values: np.ndarray, basis: BasisSpec) -> np.ndarray:
    """The profile design of a grid; a huge ``a`` gives entries of inf or nan,
    which ``_factorize`` refuses."""
    abar = 1.0 - a_values
    columns = [np.ones_like(a_values)]
    with np.errstate(over="ignore", invalid="ignore"):
        for s in basis.orders:
            columns.append(a_values**s + abar**s)
        if basis.include_antisymmetric:
            for s in basis.orders:
                columns.append(a_values**s - abar**s)
    return np.column_stack(columns)


@dataclass(frozen=True, eq=False)
class _Factorized:
    """One column-equilibrated least-squares design, factorized by one SVD.

    ``pinv`` keeps the singular values above ``lstsq``'s default cutoff,
    ``eps * max(shape)`` of the largest; ``rank`` counts them.
    """

    scaled: np.ndarray
    norms: np.ndarray
    pinv: np.ndarray
    condition_number: float
    rank: int


def _factorize(design: np.ndarray) -> _Factorized:
    """Equilibrate and factorize ``design``; one whose column norms are not
    finite floats (an entry or a sum of squares past the float range) is a
    ``SingularFitError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(design, axis=0)
    if not np.all(np.isfinite(norms)):
        raise SingularFitError("design matrix has column norms beyond the float range")
    norms[norms == 0.0] = 1.0
    scaled = design / norms
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    with np.errstate(divide="ignore"):
        cond = float(s[0] / s[-1])
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(scaled.shape) * s[0]))
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    for array in (scaled, norms, pinv):
        array.setflags(write=False)
    return _Factorized(scaled, norms, pinv, cond, rank)


@lru_cache(maxsize=64)
def _fit_design(a_values: tuple[float, ...], basis: BasisSpec) -> _Factorized:
    """The factorized profile design of a grid and basis, shared by every time's fit."""
    try:
        return _factorize(_basis_matrix(np.array(a_values), basis))
    except SingularFitError as exc:
        raise SingularFitError(f"sweep grid {list(a_values)}: {exc}") from None


def _scaled_lstsq(fact: _Factorized, rhs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Column-equilibrated least squares: coefficients, residual norm, condition."""
    if fact.rank < fact.scaled.shape[1]:
        raise SingularFitError(
            f"design matrix rank {fact.rank} below column count {fact.scaled.shape[1]}",
            condition_number=fact.condition_number,
        )
    coef = fact.pinv @ rhs
    residual = float(np.linalg.norm(rhs - fact.scaled @ coef))
    unscale = fact.norms.reshape(-1, *([1] * (coef.ndim - 1)))
    return coef / unscale, residual, fact.condition_number


def fit_profile(
    samples: Sequence[ProfileSample],
    basis: BasisSpec,
    alpha: int,
) -> FitResult:
    """Ordinary least squares of the swept data against the chosen basis.

    The model is ``value(a) = y* + sum_s m_s (a^s + abar^s)`` plus optional
    antisymmetric columns.  Solved with the pseudo-inverse of the scaled
    design, factorized once per grid and basis (``_fit_design``) and shared
    by every time's fit, with the rank and condition gates checked on every
    call; the condition number is always reported.
    """
    if basis.orders and min(basis.orders) < alpha:
        raise ValueError(f"basis orders must start at alpha={alpha}")
    if basis.orders and max(basis.orders) > 2 * alpha - 2:
        raise ValueError(
            f"basis orders must stay within [{alpha}, {2 * alpha - 2}]"
        )
    grid = tuple(float(s.a) for s in samples)
    check_grid(grid, basis)
    y = np.array([s.value for s in samples], dtype=float)
    coef, residual, cond = _scaled_lstsq(_fit_design(grid, basis), y)
    if cond > CONDITION_GATE:
        raise SingularFitError(
            f"design condition number {cond:.3e} exceeds gate {CONDITION_GATE:.0e}",
            condition_number=cond,
        )
    k = len(basis.orders)
    coefficients = {s: float(c) for s, c in zip(basis.orders, coef[1 : 1 + k])}
    anti: dict[int, float] = {}
    if basis.include_antisymmetric:
        anti = {s: float(c) for s, c in zip(basis.orders, coef[1 + k :])}
    return FitResult(
        y_star=float(coef[0]),
        coefficients=coefficients,
        residual_norm=residual,
        condition_number=cond,
        antisymmetric_coefficients=anti,
        samples=tuple(samples),
    )


def _chebyshev_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    k = np.arange(m)
    x = np.cos(np.pi * (2 * k + 1) / (2 * m))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def _power_design(tau: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    return np.column_stack([tau**p for p in powers])


def _window_coefficients(
    t_arr: np.ndarray,
    series: list[np.ndarray],
    powers: Sequence[int],
) -> np.ndarray:
    """Per-series polynomial coefficients, as contributions at the window end.

    Fitting in the scaled variable ``tau = t / t_max`` makes the returned
    entry for power p equal ``c_p * t_max**p``, i.e. that order's
    contribution to the data at the window edge, which is the right scale
    for relative comparisons.
    """
    t_max = float(t_arr.max())
    design = _factorize(_power_design(t_arr / t_max, powers))
    cond = design.condition_number
    if cond > CONDITION_GATE:
        # The lowest power is the table's first error order.
        raise CalibrationError(
            f"probe design condition number {cond:.3e} exceeds {CONDITION_GATE:.0e}"
            f" at the table's first error order alpha = {powers[0]}: the fixed probe"
            " window cannot separate that many error orders; pin the basis with"
            " profiling.n_extra_orders instead of calibrating"
        )
    rhs = np.column_stack(series)
    coef, _, _ = _scaled_lstsq(design, rhs)
    return coef


def calibration_probes(config: ProfilingConfig) -> tuple[list[float], np.ndarray]:
    """Calibration's split parameters, in ``(a, 1 - a)`` pairs, and its probe times."""
    a_values = sorted({x for a in CALIBRATION_A_PROBE for x in (a, 1.0 - a)})
    lo, hi = CALIBRATION_U_WINDOW
    scale = max(config.partition.scale(), 1e-12)
    # more times than the alpha + 3 <= 14 powers that calibrate_basis fits
    return a_values, np.geomspace(lo / scale, hi / scale, CALIBRATION_POINTS)


def calibrate_basis(config: ProfilingConfig) -> BasisSpec:
    """Empirically decide which error orders the profile fit needs.

    Each probe pair ``(a, 1 - a)`` runs at geometric times spanning
    ``CALIBRATION_U_WINDOW``; the pair's a-even and a-odd averaged errors
    are fitted as polynomials in t whose lowest power is the formula's first
    error order, with guard powers beyond the candidate window absorbing
    series truncation.  An order survives when its fitted contribution at
    the window edge exceeds ``SURVIVAL_THRESHOLD`` of the largest one, and
    the a-odd part decides whether antisymmetric columns join.

    The leading order is decided by parity instead: the variant average
    carries it with the factor ``E_a + (-1)**a E_a^dagger``, and the leading
    operator of a unitary product formula is anti-Hermitian, so the factor
    vanishes exactly when ``alpha`` is even (truncation leakage sits orders
    of magnitude above any useful threshold in double precision, so a purely
    numerical exclusion test is not reliable there).  An odd ``alpha`` is
    judged numerically like the other orders.  Calibration runs on
    noiseless values by design and builds no dense matrix; a configured
    ``basis`` is ignored.
    """
    alpha = config.formula.alpha
    window = widest_basis(alpha).orders
    powers = list(range(alpha, 2 * alpha - 2 + CALIBRATION_GUARD_ORDERS + 1))
    a_values, t_arr = calibration_probes(config)
    pairs = [(a, 1.0 - a) for a in CALIBRATION_A_PROBE]

    exact_vals = exact_values(t_arr, config)
    # Every probe (a, t) of the error series runs in one batch per variant.
    variants = probe_variants(config.formula)
    values = composite_expectations(*sweep_rows(a_values, t_arr), variants, config)
    averaged = np.mean(values, axis=1).reshape(len(t_arr), len(a_values))
    error_series = dict(zip(a_values, averaged.T - exact_vals))

    even_parts, odd_parts = [], []
    for a, a_bar in pairs:
        e_a, e_abar = error_series[a], error_series[a_bar]
        even_parts.append(0.5 * (e_a + e_abar))
        odd_parts.append(0.5 * (e_a - e_abar))

    if max(float(np.linalg.norm(v)) for v in even_parts) < 1e-13:
        return BasisSpec((), False)

    contributions = _window_coefficients(t_arr, even_parts + odd_parts, powers)
    n_pairs = len(pairs)
    rows = [powers.index(s) for s in window]
    reference = float(np.max(np.abs(contributions[rows, :])))

    surviving: set[int] = set()
    antisymmetric = False
    for s in window:
        if s == alpha and alpha % 2 == 0:
            continue
        row = powers.index(s)
        even_mag = float(np.max(np.abs(contributions[row, :n_pairs])))
        odd_mag = float(np.max(np.abs(contributions[row, n_pairs:])))
        if even_mag > SURVIVAL_THRESHOLD * reference:
            surviving.add(s)
        if odd_mag > SURVIVAL_THRESHOLD * reference:
            surviving.add(s)
            antisymmetric = True
    return BasisSpec(tuple(sorted(surviving)), antisymmetric)


def resolve_basis(config: ProfilingConfig) -> BasisSpec:
    """The configured basis, or the calibrated one when left unset."""
    return config.basis if config.basis is not None else calibrate_basis(config)


def sweep_grid(config: ProfilingConfig, basis: BasisSpec | None = None) -> tuple[float, ...]:
    """The grid a sweep of ``config`` runs: its ``a_grid``, else the basis's default.

    Every command takes its grid from here.  ``basis`` is the resolved basis
    when the caller holds it; otherwise it is resolved, calibrating if need
    be, and only when no grid is configured.  A configured grid whose design
    has column norms past the float range is a ``SingularFitError`` here,
    before any sweep runs; with no basis held or configured, the design is
    that of ``widest_basis``, so no calibration is needed to refuse it.
    """
    if config.a_grid is None:
        return default_a_grid(len((basis or resolve_basis(config)).orders))
    _fit_design(config.a_grid, basis or config.basis or widest_basis(config.formula.alpha))
    return config.a_grid


def mitigated_estimates(
    times: Sequence[float],
    config: ProfilingConfig,
    *,
    jitters: Sequence[GaussianJitter | None] | None = None,
) -> list[FitResult]:
    """Sweep the split-parameter grid at every time and fit each time's profile.

    The basis and the grid are resolved, and the grid checked, once, before
    anything is simulated.  All ``len(times) * len(grid)`` probe rows
    (``sweep_rows``) run as one batch per probe variant; a row's bits do not
    depend on the rows beside it.  Then, per time, that time's ``(grid,
    variants)`` block is perturbed with its own jitter (``jitters[j]`` for
    ``times[j]``, drawn in C order), averaged over the variants and fitted,
    so noise follows each time's own stream whatever the batching.
    """
    basis = resolve_basis(config)
    grid = sweep_grid(config, basis)
    check_grid(grid, basis)
    if jitters is None:
        jitters = [None] * len(times)
    if len(jitters) != len(times):
        raise DimensionMismatchError(f"{len(jitters)} jitters for {len(times)} times")
    variants = probe_variants(config.formula)
    values = composite_expectations(*sweep_rows(grid, times), variants, config).reshape(
        len(times), len(grid), len(variants)
    )
    fits = []
    for block, jitter in zip(values, jitters):
        if jitter is not None:
            block = jitter.perturb(block)
        samples = [ProfileSample(a, float(v)) for a, v in zip(grid, np.mean(block, axis=1))]
        fits.append(fit_profile(samples, basis, config.formula.alpha))
    return fits


def mitigated_estimate(
    t: float,
    config: ProfilingConfig,
    *,
    jitter: GaussianJitter | None = None,
) -> tuple[float, FitResult]:
    """Sweep the split-parameter grid at time ``t`` and return the intercept.

    ``mitigated_estimates`` at the single time ``t``.  The intercept of the
    fitted profile estimates the ideal expectation value with the modeled
    error orders removed; the full fit, with the samples it was fitted to,
    is returned alongside so callers can weigh the residual and
    conditioning.
    """
    (fit,) = mitigated_estimates([t], config, jitters=[jitter])
    return fit.y_star, fit


def extract_error_operators(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    max_order: int,
) -> ErrorSeries:
    """Fit the dense deviation ``V(t) - exp(-iHt)`` to a power series in t.

    The deviation is sampled on Chebyshev nodes of the scale-free variable
    ``u = t * ||H||_1`` across ``EXTRACTION_U_WINDOW``, fitted entrywise with
    powers from the formula's first error order up to ``max_order`` plus
    ``EXTRACTION_GUARD_ORDERS`` guard powers, and rescaled back.  The leading
    operator must satisfy the anti-Hermiticity relation ``E_a^dagger + E_a = 0``
    within ``EXTRACTION_UNITARITY_TOL`` relative to ``max(1, ||E_a||)`` or
    extraction fails.
    """
    alpha = f.alpha
    if max_order < alpha:
        raise ExtractionError(f"max_order {max_order} below first error order {alpha}")
    if max_order > 2 * alpha:
        raise ExtractionError(
            f"max_order {max_order} beyond 2*alpha={2 * alpha}; higher orders mix"
            " with quadratic error terms"
        )
    powers = list(range(alpha, max_order + EXTRACTION_GUARD_ORDERS + 1))
    m = max(3 * len(powers), 32)

    h = partition.hamiltonian
    lam = max(partition.scale(), 1e-12)
    u_nodes = _chebyshev_nodes(*EXTRACTION_U_WINDOW, m)
    dim = 1 << partition.n

    rows = []
    for u in u_nodes:
        t = u / lam
        v = circuit_unitary(compile_circuit(f, partition, t))
        rows.append((v - exact_unitary(h, t)).reshape(-1))
    deviations = np.array(rows)

    u_scale = float(np.max(np.abs(u_nodes)))
    design = _power_design(u_nodes / u_scale, powers)
    try:
        coef, _, cond = _scaled_lstsq(_factorize(design), deviations)
    except SingularFitError as exc:
        raise ExtractionError(
            f"entry fit is singular ({exc}); use a smaller time window"
        ) from exc
    if cond > CONDITION_GATE:
        raise ExtractionError(
            f"entry fit condition number {cond:.3e} exceeds {CONDITION_GATE:.0e};"
            " use a smaller time window"
        )

    operators = []
    for order in range(alpha, max_order + 1):
        index = powers.index(order)
        scale_back = (lam / u_scale) ** order
        matrix = coef[index].reshape(dim, dim) * scale_back
        operators.append(DenseOperator(matrix, partition.n))

    leading = operators[0].matrix
    defect = float(np.linalg.norm(leading.conj().T + leading))
    scale_ref = max(1.0, float(np.linalg.norm(leading)))
    if defect > EXTRACTION_UNITARITY_TOL * scale_ref:
        raise ExtractionError(
            f"leading-order anti-Hermiticity defect {defect:.3e} exceeds"
            f" {EXTRACTION_UNITARITY_TOL:.0e} relative to the operator norm; adjust the"
            " time window"
        )
    return ErrorSeries(alpha, tuple(operators))


def matrix_element_m(
    series: ErrorSeries,
    obs: OperatorSum,
    psi: StateVector,
    alpha: int,
) -> float:
    """Leading error matrix element ``<(E_a^dag + (-1)^a E_a) O + h.c.>``.

    Vanishes identically for even ``alpha`` because the anti-Hermiticity
    relation collapses the bracket.
    """
    e = series.operator_for(alpha).matrix
    o = to_dense(obs).matrix
    bracket = (e.conj().T + (-1) ** alpha * e) @ o
    full = bracket + bracket.conj().T
    amps = psi.amplitudes
    value = complex(np.vdot(amps, full @ amps))
    if abs(value.imag) > 1e-8:
        raise ExtractionError(
            f"matrix element has imaginary residue {value.imag!r}"
        )
    return float(value.real)
