"""Shared fixtures: benchmark setups and a tiny two-fragment system."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from trotterprof import (
    Fragment,
    OperatorSum,
    PartitionedHamiltonian,
    PauliTerm,
    init_product_state,
    preset_config,
)


def chunk_threads() -> list[threading.Thread]:
    """The engine's helper threads that are still alive."""
    return [t for t in threading.enumerate() if t.name == "trotterprof-chunk"]


@pytest.fixture(autouse=True)
def no_chunk_thread_outlives_a_test():
    """An engine call joins every helper it starts, also when it raises."""
    yield
    assert chunk_threads() == [], "an engine helper thread outlived its call"


@pytest.fixture(scope="session")
def tfim_ruth3():
    return preset_config("tfim-ruth3")


@pytest.fixture(scope="session")
def tfim_suzuki4():
    return preset_config("tfim-suzuki4")


@pytest.fixture(scope="session")
def xxz_ruth3():
    return preset_config("xxz-ruth3")


@pytest.fixture(scope="session")
def xxz_suzuki4():
    return preset_config("xxz-suzuki4")


@pytest.fixture(scope="session")
def zx_partition():
    """One-qubit system whose compiled first-order circuit is e^{-iZt} e^{-iXt}.

    Steps apply left to right, so listing the X fragment first makes X act
    first on the state and Z the left operator factor: the leading error
    operator is then -(1/2)[Z, X].
    """
    fx = Fragment(OperatorSum.from_terms([PauliTerm("X")]))
    fz = Fragment(OperatorSum.from_terms([PauliTerm("Z")]))
    return PartitionedHamiltonian((fx, fz), 1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_state(rng: np.random.Generator, n: int):
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    from trotterprof import StateVector

    return StateVector.normalized(raw)


def random_operator_sum(rng: np.random.Generator, n: int, terms: int) -> OperatorSum:
    letters = "IXYZ"
    picked = []
    for _ in range(terms):
        word = "".join(rng.choice(list(letters)) for _ in range(n))
        coeff = complex(rng.normal(), rng.normal())
        picked.append(PauliTerm(word, coeff))
    return OperatorSum.from_terms(picked, hermitian=False)


def random_hermitian_sum(rng: np.random.Generator, n: int, terms: int) -> OperatorSum:
    letters = "IXYZ"
    picked = []
    for _ in range(terms):
        word = "".join(rng.choice(list(letters)) for _ in range(n))
        picked.append(PauliTerm(word, float(rng.normal())))
    return OperatorSum.from_terms(picked, hermitian=True)


@pytest.fixture(scope="session")
def paper_state():
    return init_product_state([(1, 0), (1, 1j), (1, 1), (0, 1)])


def suzuki_steps(order: int, k: int, scale: float = 1.0) -> list[tuple[int, float]]:
    """Suzuki's recursion ``S_{2m}`` over ``k`` fragments, as a step table.

    ``S_2`` is the Strang splitting; ``S_{2m}(t) = S_{2m-2}(p t)^2
    S_{2m-2}((1 - 4p) t) S_{2m-2}(p t)^2`` with ``p = 1 / (4 - 4^(1/(2m-1)))``
    has first error order ``2m + 1`` (Suzuki, J. Math. Phys. 32, 400 (1991)).
    """
    if order == 2:
        half = [(i, 0.5 * scale) for i in range(k - 1)]
        return half + [(k - 1, scale)] + half[::-1]
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
    steps: list[tuple[int, float]] = []
    for c in (p, p, 1.0 - 4.0 * p, p, p):
        steps += suzuki_steps(order - 2, k, scale * c)
    return steps
