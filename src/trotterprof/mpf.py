"""Multi-product extrapolation over Trotter step counts.

Running the same splitting with step counts ``s_1 < s_2 < ...`` and combining
the expectation values with weights that cancel the leading ``1/s**(k-1)``
error scalings removes successive error orders classically.  The weights
come from the closed form of their Vandermonde system, in exact rationals, so
the cancellation residuals vanish to the last bit; an ill-conditioned float
realization is only flagged.
``mpf_values`` runs the constituent circuits of every time in one engine call,
one branch set of one batch per step count (``constituent_sets``), taking
the system as one ``ProfilingConfig``; ``mpf_estimate`` combines one time's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, SingularFitError
from .formulas import sample_template
from .profiling import ProfilingConfig
from .simulator import BranchSet, GaussianJitter, sample_branches

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
    cancelled_orders: tuple[int, ...] = ()
    condition_number: float = 1.0

    def __post_init__(self) -> None:
        if len(self.step_counts) != len(self.weights):
            raise DegenerateInputError("weights and step counts differ in length")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-10:
            raise DegenerateInputError(f"weights sum to {total!r}, expected 1")
        for k in self.cancelled_orders:
            # (1/s)**(k-1) underflows to 0 where s**(k-1) would overflow a float
            residual = sum(
                w * (1.0 / s) ** (k - 1) for w, s in zip(self.weights, self.step_counts)
            )
            if abs(residual) > 1e-8:
                raise DegenerateInputError(
                    f"cancellation residual {residual!r} at order {k}"
                )

    @property
    def ill_conditioned(self) -> bool:
        """Whether the float system's condition number passes ``CONDITION_WARNING``."""
        return self.condition_number > CONDITION_WARNING


def cancelled_orders(count: int, alpha: int, symmetric: bool) -> tuple[int, ...]:
    """The ``count - 1`` error orders a weight system of that size removes."""
    stride = 2 if symmetric else 1
    return tuple(alpha + stride * j for j in range(count - 1))


def _exact_weights(counts: Sequence[int], alpha: int, symmetric: bool) -> list[Fraction]:
    """The weights of distinct ``counts`` as exact rationals, in closed form.

    With ``y_j = s_j**-p`` (``p = 2`` for a symmetric formula, else 1) and
    ``u_j = w_j s_j**-(alpha-1)``, the cancellation rows read
    ``sum_j u_j y_j**m = 0`` for ``m < len(counts) - 1``, a Vandermonde system
    solved by ``u_j = c / prod_{i != j} (y_j - y_i)``; ``sum_j w_j = 1`` fixes c.
    """
    p = 2 if symmetric else 1
    y = [Fraction(1, s**p) for s in counts]
    raw = [
        Fraction(s ** (alpha - 1)) / math.prod(y[j] - yi for i, yi in enumerate(y) if i != j)
        for j, s in enumerate(counts)
    ]
    total = sum(raw)
    return [w / total for w in raw]


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
    # Fraction's float() rounds 1/s**(k-1) where 1.0 / s**(k-1) would overflow
    float_matrix = np.array(
        [[1.0] * len(counts)]
        + [[float(Fraction(1, s ** (k - 1))) for s in counts] for k in orders]
    )
    return MPFWeights(
        step_counts=counts,
        weights=tuple(float(w) for w in _exact_weights(counts, alpha, symmetric)),
        cancelled_orders=orders,
        condition_number=float(np.linalg.cond(float_matrix)),
    )


def constituent_sets(
    times: Sequence[float], step_counts: Sequence[int], config: ProfilingConfig
) -> Iterator[BranchSet]:
    """The constituents as branch sets at seam 0, one per step count: its circuit
    at every time (the counts are the depths; ``config.trotter_steps`` is not
    read)."""
    for count in step_counts:
        yield 0, [sample_template(config.formula, config.partition, count).forward(times)]


def mpf_values(
    times: Sequence[float], step_counts: Sequence[int], config: ProfilingConfig
) -> np.ndarray:
    """``(T, C)`` constituent expectations, one engine batch per step count, in
    one engine call.

    Entry ``[j, i]`` is the expectation at ``times[j]`` of ``config``'s
    formula iterated ``step_counts[i]`` times.
    """
    sets = constituent_sets(times, step_counts, config)
    return sample_branches(config.initial_state, sets, config.observable)


def mpf_estimate(
    values: Sequence[float],
    weights: MPFWeights,
    *,
    jitter: GaussianJitter | None = None,
) -> float:
    """Weighted combination of one time's constituent values.

    ``values`` is one row of ``mpf_values``, in ``weights.step_counts``
    order; it is perturbed with one noise draw per count, in that order,
    before the weighted sum.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(weights.step_counts),):
        raise DimensionMismatchError(
            f"{values.shape} values for {len(weights.step_counts)} step counts"
        )
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
