"""Multi-product extrapolation over Trotter step counts.

Running the same splitting with step counts ``s_1 < s_2 < ...`` and combining
the expectation values with weights that cancel the leading ``1/s**(k-1)``
error scalings removes successive error orders classically.  Weight systems
are solved exactly over the rationals, so the cancellation residuals vanish
to the last bit; an ill-conditioned float realization is only flagged.
An estimate takes the system as one ``ProfilingConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SingularFitError
from .formulas import sample_template
from .profiling import ProfilingConfig
from .simulator import GaussianJitter, sample_expectations

CONDITION_WARNING = 1e10


@dataclass(frozen=True)
class MPFWeights:
    """Extrapolation weights over distinct step counts.

    ``cancelled_orders`` lists the error orders k whose ``1/s**(k-1)``
    scalings the weights annihilate: consecutive orders from alpha for the
    regular variant, every second order for the symmetric one.
    """

    step_counts: tuple[int, ...]
    weights: tuple[float, ...]
    symmetric: bool
    alpha: int
    cancelled_orders: tuple[int, ...] = ()
    condition_number: float = 1.0
    ill_conditioned: bool = False

    def __post_init__(self) -> None:
        if len(self.step_counts) != len(self.weights):
            raise DegenerateInputError("weights and step counts differ in length")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-10:
            raise DegenerateInputError(f"weights sum to {total!r}, expected 1")
        for k in self.cancelled_orders:
            residual = sum(
                w / s ** (k - 1) for w, s in zip(self.weights, self.step_counts)
            )
            if abs(residual) > 1e-8:
                raise DegenerateInputError(
                    f"cancellation residual {residual!r} at order {k}"
                )


def _solve_rational(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Gaussian elimination with exact rational arithmetic."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularFitError("weight system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def cancelled_orders(count: int, alpha: int, symmetric: bool) -> tuple[int, ...]:
    """The ``count - 1`` error orders a weight system of that size removes."""
    stride = 2 if symmetric else 1
    return tuple(alpha + stride * j for j in range(count - 1))


def mpf_weights(
    step_counts: Sequence[int], alpha: int, symmetric: bool
) -> MPFWeights:
    """Solve the cancellation system for the given step counts.

    Rows are ``sum_j w_j = 1`` and ``sum_j w_j / s_j**(k-1) = 0`` for each
    cancelled order k.  Distinct counts make the system nonsingular; the
    float condition number is reported and merely flagged when extreme.
    """
    counts = tuple(int(s) for s in step_counts)
    if not counts:
        raise DegenerateInputError("need at least one step count")
    if any(s < 1 for s in counts):
        raise DegenerateInputError("step counts must be positive")
    if len(set(counts)) != len(counts):
        raise SingularFitError("duplicate step counts make the system singular")
    orders = cancelled_orders(len(counts), alpha, symmetric)
    matrix = [[Fraction(1)] * len(counts)]
    for k in orders:
        matrix.append([Fraction(1, s ** (k - 1)) for s in counts])
    rhs = [Fraction(1)] + [Fraction(0)] * len(orders)
    solution = _solve_rational(matrix, rhs)
    float_matrix = np.array([[float(x) for x in row] for row in matrix])
    cond = float(np.linalg.cond(float_matrix))
    return MPFWeights(
        step_counts=counts,
        weights=tuple(float(w) for w in solution),
        symmetric=symmetric,
        alpha=alpha,
        cancelled_orders=orders,
        condition_number=cond,
        ill_conditioned=cond > CONDITION_WARNING,
    )


def mpf_estimate(
    t: float,
    weights: MPFWeights,
    config: ProfilingConfig,
    *,
    jitter: GaussianJitter | None = None,
) -> float:
    """Weighted combination of expectations from the iterated circuits.

    Each step count runs its circuit of ``config``'s formula through the
    batched sample engine; the vector of values, in step-count order, is
    perturbed with one noise draw per count.  ``config.trotter_steps`` is
    not read: the weights carry the depths.
    """

    def value(count: int) -> float:
        tables, angles = sample_template(config.formula, config.partition, count).forward([t])
        return sample_expectations(config.initial_state, tables, angles, config.observable)[0]

    values = np.array([value(count) for count in weights.step_counts])
    if jitter is not None:
        values = jitter.perturb(values)
    # Plain left-to-right additions: the builtin sum rounds differently on 3.12+.
    total = 0.0
    for weight, v in zip(weights.weights, values):
        total += weight * float(v)
    return total


def critical_n(alpha: int, symmetric: bool) -> int | Fraction:
    """Step count at which extrapolation matches the profiling limit.

    Returns ``alpha - 1`` for the regular variant and ``(alpha - 1) / 2``
    for the symmetric one, as an exact integer or rational.
    """
    if alpha < 2:
        raise DegenerateInputError("alpha must be at least 2")
    value = Fraction(alpha - 1, 2) if symmetric else Fraction(alpha - 1)
    return int(value) if value.denominator == 1 else value
