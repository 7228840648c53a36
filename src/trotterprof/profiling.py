"""Composite-circuit error profiling and mitigation.

The probe family pairs a forward circuit at scaled time ``a*t`` with a
forward or inverted partner at ``(1-a)*t``.  Varying ``a`` leaves the ideal
evolution invariant but modulates the algorithmic error, so sweeping a grid
of ``a`` values and fitting the averaged expectation against a known basis
in ``a`` separates the ideal value (the intercept) from the error terms.

The module also provides a dense extraction oracle for the error-series
operators of a compiled circuit, used to validate the fitted coefficients
against first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    DegenerateInputError,
    ExtractionError,
    SingularFitError,
)
from .formulas import PartitionedHamiltonian, ProductFormula, compile_circuit, invert_circuit
from .pauli import DenseOperator, OperatorSum, to_dense
from .simulator import (
    Circuit,
    GaussianJitter,
    StateVector,
    apply_circuit,
    circuit_unitary,
    exact_evolve,
    exact_unitary,
    expectation,
    measure,
)

#: Least-squares designs above this condition number are rejected.
CONDITION_GATE = 1e8

#: Relative threshold deciding which error orders survive calibration.
SURVIVAL_THRESHOLD = 1e-8

#: Calibration probe window in the scale-free variable ``u = t * ||H||_1``,
#: so the default transfers between Hamiltonians, and its point count.
CALIBRATION_U_WINDOW = (0.08, 0.4)
CALIBRATION_POINTS = 20

#: Split parameters probed during calibration.
CALIBRATION_A_PROBE = (0.15, 0.35, 0.45, 0.55, 0.65, 0.85)

#: Powers beyond the candidate window that absorb series truncation.
CALIBRATION_GUARD_ORDERS = 4


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

    @property
    def max_order(self) -> int:
        return self.start_order + len(self.operators) - 1


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
    at = spec.a * spec.t
    abar_t = spec.a_bar * spec.t

    def forward(x: float) -> Circuit:
        return compile_circuit(f, partition, x, n)

    def inverted(x: float) -> Circuit:
        return invert_circuit(compile_circuit(f, partition, -x, n))

    if spec.variant == 1:
        first, second = forward(abar_t), forward(at)
    elif spec.variant == 2:
        first, second = forward(abar_t), inverted(at)
    elif spec.variant == 3:
        first, second = inverted(abar_t), forward(at)
    else:
        first, second = inverted(abar_t), inverted(at)
    return Circuit(first.gates + second.gates, partition.n)


def averaged_expectation(
    a: float,
    t: float,
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    obs: OperatorSum,
    psi: StateVector,
    trotter_steps: int = 1,
    *,
    exact_substitute: bool = False,
    verify_symmetric: bool = False,
    jitter: GaussianJitter | None = None,
) -> float:
    """Mean expectation over the probe variants at one ``(a, t)`` point.

    Symmetric formulas satisfy ``V(-t)^dagger = V(t)``, collapsing all four
    variants onto variant 1, so only that one is simulated unless
    ``verify_symmetric`` requests the full cross-check.  With
    ``exact_substitute`` the compiled circuits are replaced by the exact
    evolution, which is invariant in ``a`` by construction.
    """
    if exact_substitute:
        h = partition.hamiltonian
        state = exact_evolve(h, (1.0 - a) * t, psi)
        state = exact_evolve(h, a * t, state)
        return measure(state, obs, jitter)
    if f.symmetric and not verify_symmetric:
        variants: tuple[int, ...] = (1,)
    else:
        variants = (1, 2, 3, 4)
    values = []
    for variant in variants:
        spec = CompositeSpec(variant, a, t, trotter_steps)
        state = apply_circuit(psi, composite_circuit(spec, f, partition))
        values.append(measure(state, obs, jitter))
    if f.symmetric and verify_symmetric:
        spread = max(values) - min(values)
        if spread > 1e-10:
            raise DegenerateInputError(
                f"symmetric formula variants disagree by {spread!r}"
            )
    return float(np.mean(values))


def profile_sweep(
    a_grid: Sequence[float],
    t: float,
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    obs: OperatorSum,
    psi: StateVector,
    trotter_steps: int = 1,
    *,
    exact_substitute: bool = False,
    jitter: GaussianJitter | None = None,
) -> list[ProfileSample]:
    """One averaged sample per grid value, in grid order."""
    if len(set(a_grid)) != len(a_grid):
        raise DegenerateInputError("duplicate a values in sweep grid")
    return [
        ProfileSample(
            a,
            averaged_expectation(
                a,
                t,
                f,
                partition,
                obs,
                psi,
                trotter_steps,
                exact_substitute=exact_substitute,
                jitter=jitter,
            ),
        )
        for a in a_grid
    ]


def default_a_grid(n_orders: int) -> tuple[float, ...]:
    """``2n + 1`` Chebyshev nodes on [-0.5, 1.5], symmetric about a = 1/2."""
    m = 2 * n_orders + 1
    nodes = [0.5 + math.cos(math.pi * (2 * k + 1) / (2 * m)) for k in range(m)]
    return tuple(sorted(nodes))


def _basis_matrix(a_values: np.ndarray, basis: BasisSpec) -> np.ndarray:
    abar = 1.0 - a_values
    columns = [np.ones_like(a_values)]
    for s in basis.orders:
        columns.append(a_values**s + abar**s)
    if basis.include_antisymmetric:
        for s in basis.orders:
            columns.append(a_values**s - abar**s)
    return np.column_stack(columns)


def _scaled_lstsq(
    design: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Column-equilibrated least squares: coefficients, residual norm, condition."""
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = design / norms
    cond = float(np.linalg.cond(scaled))
    coef, _, rank, _ = np.linalg.lstsq(scaled, rhs, rcond=None)
    if rank < design.shape[1]:
        raise SingularFitError(
            f"design matrix rank {rank} below column count {design.shape[1]}",
            condition_number=cond,
        )
    residual = float(np.linalg.norm(rhs - scaled @ coef))
    unscale = norms.reshape(-1, *([1] * (coef.ndim - 1)))
    return coef / unscale, residual, cond


def fit_profile(
    samples: Sequence[ProfileSample],
    basis: BasisSpec,
    alpha: int,
) -> FitResult:
    """Ordinary least squares of the swept data against the chosen basis.

    The model is ``value(a) = y* + sum_s m_s (a^s + abar^s)`` plus optional
    antisymmetric columns.  Solved by an orthogonal decomposition with a
    condition gate; the condition number is always reported.
    """
    if basis.orders and min(basis.orders) < alpha:
        raise ValueError(f"basis orders must start at alpha={alpha}")
    if basis.orders and max(basis.orders) > 2 * alpha - 2:
        raise ValueError(
            f"basis orders must stay within [{alpha}, {2 * alpha - 2}]"
        )
    n_columns = basis.column_count() + 1
    if len(samples) < n_columns:
        raise SingularFitError(
            f"{len(samples)} samples cannot determine {n_columns} parameters"
        )
    a_values = np.array([s.a for s in samples], dtype=float)
    y = np.array([s.value for s in samples], dtype=float)
    design = _basis_matrix(a_values, basis)
    coef, residual, cond = _scaled_lstsq(design, y)
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
    design = _power_design(t_arr / t_max, powers)
    cond = float(np.linalg.cond(design / np.linalg.norm(design, axis=0)))
    if cond > CONDITION_GATE:
        raise CalibrationError(
            f"probe design condition number {cond:.3e} exceeds {CONDITION_GATE:.0e};"
            " narrow the probe window"
        )
    rhs = np.column_stack(series)
    coef, _, _ = _scaled_lstsq(design, rhs)
    return coef


def _averaging_kills_leading_order(
    f: ProductFormula, partition: PartitionedHamiltonian
) -> bool:
    """Whether the variant average annihilates the first error order.

    The averaged leading coefficient is proportional to
    ``K_a = E_a + (-1)**a E_a^dagger``; for even first error order the
    anti-Hermiticity relation forces this to zero identically.  The test is
    run on the extracted operator rather than on the parity of ``alpha`` so
    custom step tables are judged by their actual error series.
    """
    series = extract_error_operators(f, partition, f.alpha)
    e = series.operator_for(f.alpha).matrix
    k = e + (-1) ** f.alpha * e.conj().T
    return float(np.linalg.norm(k)) <= 1e-6 * max(1.0, float(np.linalg.norm(e)))


def calibrate_basis(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    obs: OperatorSum,
    psi: StateVector,
    t_probe: Sequence[float],
    a_probe: Sequence[float],
    *,
    trotter_steps: int = 1,
) -> BasisSpec:
    """Empirically decide which error orders the profile fit needs.

    For each probe ``a`` the averaged error is fitted as a polynomial in t
    whose lowest power is the formula's first error order; guard powers
    beyond the candidate window absorb series truncation.  An order survives
    when its fitted contribution at the window edge exceeds
    ``SURVIVAL_THRESHOLD`` of the largest one.  The leading order additionally
    carries an operator certificate: when the extracted
    ``E_a + (-1)**a E_a^dagger`` vanishes, the variant average annihilates
    that order exactly and no fit artifact can resurrect it (truncation
    leakage sits orders of magnitude above any useful threshold in double
    precision, so a purely numerical exclusion test is not reliable).  The
    a-odd part of the profile decides whether antisymmetric columns join.
    Calibration runs on noiseless values by design.
    """
    alpha = f.alpha
    window = list(range(alpha, 2 * alpha - 1))
    powers = list(range(alpha, 2 * alpha - 2 + CALIBRATION_GUARD_ORDERS + 1))
    t_arr = np.asarray(sorted(t_probe), dtype=float)
    if len(t_arr) < len(powers) + 2:
        raise CalibrationError(
            f"need at least {len(powers) + 2} probe times for {len(powers)} powers"
        )
    pairs = sorted({(min(a, 1.0 - a), max(a, 1.0 - a)) for a in a_probe})
    if not pairs:
        raise CalibrationError("empty a probe")

    h = partition.hamiltonian
    exact_vals = np.array(
        [expectation(exact_evolve(h, t, psi), obs) for t in t_arr]
    )

    def error_series(a: float) -> np.ndarray:
        return np.array(
            [
                averaged_expectation(a, t, f, partition, obs, psi, trotter_steps)
                for t in t_arr
            ]
        ) - exact_vals

    even_parts, odd_parts = [], []
    for lo, hi in pairs:
        e_lo = error_series(lo)
        e_hi = e_lo if hi == lo else error_series(hi)
        even_parts.append(0.5 * (e_lo + e_hi))
        odd_parts.append(0.5 * (e_lo - e_hi))

    scale = max(float(np.linalg.norm(v)) for v in even_parts)
    if scale < 1e-13:
        return BasisSpec((), False)

    contributions = _window_coefficients(t_arr, even_parts + odd_parts, powers)
    n_pairs = len(pairs)
    rows = [powers.index(s) for s in window]
    reference = float(np.max(np.abs(contributions[rows, :])))

    dead_leading = _averaging_kills_leading_order(f, partition)

    surviving: set[int] = set()
    antisymmetric = False
    for s in window:
        if s == alpha and dead_leading:
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


def probe_times(hamiltonian_scale: float, n_powers: int) -> tuple[float, ...]:
    """Geometric calibration times spanning ``CALIBRATION_U_WINDOW``.

    At least ``n_powers + 2`` points, so every fitted power is determined.
    """
    lo, hi = CALIBRATION_U_WINDOW
    count = max(CALIBRATION_POINTS, n_powers + 2)
    scale = max(hamiltonian_scale, 1e-12)
    return tuple(np.geomspace(lo / scale, hi / scale, count))


@dataclass(frozen=True)
class ProfilingConfig:
    """Everything a mitigated estimate needs besides the evaluation time.

    An unset ``a_grid`` defaults to the Chebyshev grid sized for the basis;
    an unset ``basis`` is calibrated.
    """

    formula: ProductFormula
    partition: PartitionedHamiltonian
    observable: OperatorSum
    initial_state: StateVector
    trotter_steps: int = 1
    a_grid: tuple[float, ...] | None = None
    basis: BasisSpec | None = None


def resolve_basis(config: ProfilingConfig) -> BasisSpec:
    """The configured basis, or the calibrated one when left unset."""
    if config.basis is not None:
        return config.basis
    alpha = config.formula.alpha
    n_powers = (2 * alpha - 2) - alpha + CALIBRATION_GUARD_ORDERS + 1
    return calibrate_basis(
        config.formula,
        config.partition,
        config.observable,
        config.initial_state,
        probe_times(config.partition.scale(), n_powers),
        CALIBRATION_A_PROBE,
        trotter_steps=config.trotter_steps,
    )


def mitigated_estimate(
    t: float,
    config: ProfilingConfig,
    *,
    jitter: GaussianJitter | None = None,
    exact_substitute: bool = False,
) -> tuple[float, FitResult]:
    """Sweep the split-parameter grid at time ``t`` and return the intercept.

    The intercept of the fitted profile estimates the ideal expectation
    value with the modeled error orders removed; the full fit, with the
    samples it was fitted to, is returned alongside so callers can weigh the
    residual and conditioning.  ``exact_substitute`` swaps every compiled
    circuit for the exact evolution; the sweep then carries no algorithmic
    error and the fit must return the ideal value, a useful self-check.
    """
    basis = resolve_basis(config)
    grid = config.a_grid if config.a_grid is not None else default_a_grid(len(basis.orders))
    samples = profile_sweep(
        grid,
        t,
        config.formula,
        config.partition,
        config.observable,
        config.initial_state,
        config.trotter_steps,
        exact_substitute=exact_substitute,
        jitter=jitter,
    )
    fit = fit_profile(samples, basis, config.formula.alpha)
    return fit.y_star, fit


def extract_error_operators(
    f: ProductFormula,
    partition: PartitionedHamiltonian,
    max_order: int,
    *,
    u_window: tuple[float, float] = (-0.6, 0.6),
    guard_orders: int = 8,
    points: int | None = None,
    unitarity_tol: float = 1e-6,
) -> ErrorSeries:
    """Fit the dense deviation ``V(t) - exp(-iHt)`` to a power series in t.

    The deviation is sampled on Chebyshev nodes of the scale-free variable
    ``u = t * ||H||_1`` (negative times are legitimate and improve the
    conditioning), fitted entrywise with powers from the formula's first
    error order up to ``max_order`` plus guard powers, and rescaled back.
    The leading operator must satisfy the anti-Hermiticity relation
    ``E_a^dagger + E_a = 0`` within ``unitarity_tol`` relative to
    ``max(1, ||E_a||)`` or extraction fails.
    """
    alpha = f.alpha
    if max_order < alpha:
        raise ExtractionError(f"max_order {max_order} below first error order {alpha}")
    if max_order > 2 * alpha:
        raise ExtractionError(
            f"max_order {max_order} beyond 2*alpha={2 * alpha}; higher orders mix"
            " with quadratic error terms"
        )
    powers = list(range(alpha, max_order + guard_orders + 1))
    m = points if points is not None else max(3 * len(powers), 32)
    if m < len(powers) + 2:
        raise ExtractionError("too few sample points for the requested orders")

    h = partition.hamiltonian
    lam = max(partition.scale(), 1e-12)
    u_nodes = _chebyshev_nodes(u_window[0], u_window[1], m)
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
        coef, _, cond = _scaled_lstsq(design, deviations)
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
    if defect > unitarity_tol * scale_ref:
        raise ExtractionError(
            f"leading-order anti-Hermiticity defect {defect:.3e} exceeds"
            f" {unitarity_tol:.0e} relative to the operator norm; adjust the"
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
