"""Weighted Pauli-string algebra on a fixed qubit register.

Words are uppercase strings over ``{I, X, Y, Z}``.  Position 0 of a word acts
on qubit 1, which owns the most significant bit of a statevector index, so
``to_dense`` realizes a word as ``kron(letter_1, kron(letter_2, ...))``.

Sums are kept in a canonical form: duplicate words are merged (preserving
first-occurrence order) and coefficients below ``MERGE_EPS`` are dropped, so
repeated commutators stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatchError, HermiticityError, ResourceLimitError

LETTERS = "IXYZ"

#: Largest qubit count for which dense realizations are built.
DENSE_CAP = 12

#: Coefficients below this magnitude are dropped during canonicalization.
MERGE_EPS = 1e-15

#: Tolerance on imaginary parts when an operator claims to be Hermitian.
HERMITIAN_TOL = 1e-12

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# X*Y = iZ and cyclic permutations; swapping the factors flips the phase.
_CYCLE = {("X", "Y"): "Z", ("Y", "Z"): "X", ("Z", "X"): "Y"}


def _letter_product(a: str, b: str) -> tuple[complex, str]:
    if a == "I":
        return 1.0 + 0.0j, b
    if b == "I":
        return 1.0 + 0.0j, a
    if a == b:
        return 1.0 + 0.0j, "I"
    if (a, b) in _CYCLE:
        return 1.0j, _CYCLE[(a, b)]
    return -1.0j, _CYCLE[(b, a)]


def _validate_word(word: str) -> None:
    if not word:
        raise ValueError("Pauli word must cover at least one qubit")
    bad = set(word) - set(LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)} in word {word!r}")


@dataclass(frozen=True)
class PauliTerm:
    """A single weighted Pauli word, e.g. ``PauliTerm("ZZII", 0.5)``."""

    word: str
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        _validate_word(self.word)
        object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def n(self) -> int:
        return len(self.word)

    def scaled(self, factor: complex) -> PauliTerm:
        return PauliTerm(self.word, self.coeff * factor)


def pauli_product(p: PauliTerm, q: PauliTerm) -> PauliTerm:
    """Product ``p * q`` as a single term, phase folded into the coefficient."""
    if p.n != q.n:
        raise DimensionMismatchError(
            f"word lengths differ: {p.n} vs {q.n}"
        )
    phase = 1.0 + 0.0j
    letters = []
    for a, b in zip(p.word, q.word):
        ph, letter = _letter_product(a, b)
        phase *= ph
        letters.append(letter)
    return PauliTerm("".join(letters), p.coeff * q.coeff * phase)


@lru_cache(maxsize=4096)
def word_masks(word: str) -> tuple[int, int]:
    """``(x, z)`` bit masks of a word: the bits it flips (X, Y) and signs (Z, Y).

    Position ``pos`` owns bit ``len(word) - 1 - pos`` of a statevector index.
    """
    _validate_word(word)
    x = z = 0
    for letter in word:
        x = x << 1 | (letter in "XY")
        z = z << 1 | (letter in "YZ")
    return x, z


def masks_commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Words with ``word_masks`` ``a`` and ``b`` commute iff they anticommute
    on an even number of sites."""
    (xa, za), (xb, zb) = a, b
    return ((xa & zb) ^ (za & xb)).bit_count() % 2 == 0


def words_commute(a: str, b: str) -> bool:
    """Two Pauli words of one register commute: ``masks_commute`` of their masks."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    return masks_commute(word_masks(a), word_masks(b))


def mutually_commuting(terms: Iterable[PauliTerm]) -> bool:
    """True iff every pair of terms commutes (pairwise word test)."""
    words = [t.word for t in terms]
    if words and any(len(w) != len(words[0]) for w in words):
        raise DimensionMismatchError("terms act on different qubit counts")
    return all(
        words_commute(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )


@dataclass(frozen=True)
class OperatorSum:
    """Canonical sum of Pauli terms over a common register.

    Use :meth:`from_terms` to construct; it merges duplicate words (keeping
    first-occurrence order), drops negligible coefficients, and checks the
    Hermiticity claim.  With ``hermitian=None`` the flag is auto-detected
    from the coefficients (a Pauli-word sum is Hermitian iff every
    coefficient is real).
    """

    terms: tuple[PauliTerm, ...]
    n: int
    hermitian: bool

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[PauliTerm],
        hermitian: bool | None = None,
    ) -> OperatorSum:
        terms = list(terms)
        if not terms:
            raise ValueError("an operator sum needs a qubit count; use zero(n)")
        n = terms[0].n
        merged: dict[str, complex] = {}
        for t in terms:
            if t.n != n:
                raise DimensionMismatchError("terms act on different qubit counts")
            merged[t.word] = merged.get(t.word, 0.0 + 0.0j) + t.coeff
        kept = tuple(
            PauliTerm(w, c) for w, c in merged.items() if abs(c) >= MERGE_EPS
        )
        all_real = all(abs(t.coeff.imag) <= HERMITIAN_TOL for t in kept)
        if hermitian is None:
            hermitian = all_real
        elif hermitian and not all_real:
            raise HermiticityError(
                "operator declared Hermitian has a complex coefficient"
            )
        return cls(kept, n, hermitian)

    @classmethod
    def zero(cls, n: int) -> OperatorSum:
        if n < 1:
            raise ValueError("qubit count must be positive")
        return cls((), n, True)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def one_norm(self) -> float:
        """Sum of coefficient magnitudes; an upper bound on the spectral norm."""
        return float(sum(abs(t.coeff) for t in self.terms))

    def _binary(self, other: OperatorSum, sign: float) -> OperatorSum:
        if self.n != other.n:
            raise DimensionMismatchError("operator sums act on different registers")
        combined = list(self.terms) + [t.scaled(sign) for t in other.terms]
        if not combined:
            return OperatorSum.zero(self.n)
        return OperatorSum.from_terms(combined)

    def __add__(self, other: OperatorSum) -> OperatorSum:
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._binary(other, 1.0)

    def __sub__(self, other: OperatorSum) -> OperatorSum:
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self._binary(other, -1.0)

    def scaled(self, factor: complex) -> OperatorSum:
        if abs(factor) < MERGE_EPS or not self.terms:
            return OperatorSum.zero(self.n)
        return OperatorSum.from_terms(t.scaled(factor) for t in self.terms)

    def __mul__(self, other: OperatorSum) -> OperatorSum:
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError("operator sums act on different registers")
        products = [pauli_product(p, q) for p in self.terms for q in other.terms]
        if not products:
            return OperatorSum.zero(self.n)
        return OperatorSum.from_terms(products)


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Canonical ``[a, b] = ab - ba``; exactly empty when the inputs commute."""
    if a.n != b.n:
        raise DimensionMismatchError("operator sums act on different registers")
    return a * b - b * a


@dataclass(frozen=True)
class DenseOperator:
    """A 2^n x 2^n complex matrix tagged with its qubit count."""

    matrix: np.ndarray
    n: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (1 << self.n, 1 << self.n):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match n={self.n}"
            )
        object.__setattr__(self, "matrix", m)


@lru_cache(maxsize=4096)
def dense_word(word: str) -> np.ndarray:
    """Dense matrix of a bare Pauli word (read-only, cached).

    Used by the dense circuit oracle; ``to_dense`` scatters each word's
    ``_phase`` instead, so sums never fill this cache.
    """
    mat = reduce(np.kron, (_SINGLE[letter] for letter in word))
    mat.setflags(write=False)
    return mat


def to_dense(op: OperatorSum) -> DenseOperator:
    """Kronecker-product realization of a sum; qubit 1 is the leftmost factor."""
    if op.n > DENSE_CAP:
        raise ResourceLimitError(
            f"dense realization of {op.n} qubits exceeds cap {DENSE_CAP}"
        )
    dim = 1 << op.n
    acc = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for t in op.terms:
        # Row i of a word holds g[i] (1 for X letters) in column i ^ flip, zeros elsewhere.
        flip, signs = word_masks(t.word)
        acc[rows, rows ^ flip] += t.coeff * _phase(t.word) if signs else t.coeff
    return DenseOperator(acc, op.n)


@lru_cache(maxsize=1024)
def _flip_table(flip: int, block: int) -> np.ndarray:
    """The ``intp`` index ``i ^ flip`` within a block of ``block`` amplitudes, a
    power of two above every bit of ``flip``: 8 bytes per entry of the block."""
    index = np.arange(block) ^ flip
    index.setflags(write=False)
    return index


def _phase(word: str) -> np.ndarray:
    """The pre-gathered phase ``g`` of a word with Y or Z letters, 16 bytes per
    amplitude: ``(word psi)[i] = g[i] * psi[i ^ flip]``.  X letters alone have none."""
    flip = word_masks(word)[0]
    n = len(word)
    source = np.arange(1 << n) ^ flip  # the basis state that the word maps to i
    phase = np.ones(1 << n, dtype=complex)
    for pos, letter in enumerate(word):
        if letter in "YZ":
            sign = 1 - 2 * ((source >> (n - 1 - pos)) & 1)
            phase = phase * (1.0j * sign if letter == "Y" else sign)
    phase.setflags(write=False)
    return phase


#: ``_phase`` of the words that the kernels read it for, kept: flips with Y or
#: Z letters.  Tables that are cached already build theirs through ``_phase``.
_phase_table = lru_cache(maxsize=1024)(_phase)


def _flip_product(
    psi: np.ndarray, perm: np.ndarray | None, read: np.ndarray, out: np.ndarray, factor: np.ndarray
) -> None:
    """Write ``read * factor`` into ``out``: the one gather of amplitudes by a
    flip mask.  ``read`` is ``psi[..., i ^ flip]``, gathered into it by
    ``perm`` (``_flip_table``) along the last axis of ``psi`` viewed in
    ``read``'s shape, blocks of ``perm.size`` amplitudes; or without one a
    strided view of ``psi``, or ``psi`` for mask 0.  The amplitudes come
    first: complex products do not commute bit for bit (numpy 2.4, AVX-512
    Xeon: ``a * d`` and ``d * a`` differed in 86,500 of 262,144 random
    products), though they did in every entry with a unit phase or an
    ``i sin`` factor."""
    if perm is not None:
        # mode="clip" lets take write straight into ``read``; "raise" buffers.
        psi.reshape(read.shape).take(perm, axis=-1, out=read, mode="clip")
    np.multiply(read, factor, out=out)


def apply_pauli_word(word: str, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a bare Pauli word to an amplitude vector (returns a new array)."""
    _validate_word(word)
    if amplitudes.shape[0] != (1 << len(word)):
        raise DimensionMismatchError(
            f"amplitude length {amplitudes.shape[0]} does not match word {word!r}"
        )
    amplitudes = np.asarray(amplitudes, dtype=complex)
    flip, signs = word_masks(word)
    out = np.empty_like(amplitudes)
    perm = _flip_table(flip, 1 << len(word)) if flip else None
    phase = _phase_table(word) if signs else np.ones(1, dtype=complex)
    _flip_product(amplitudes, perm, out if flip else amplitudes, out, phase)
    return out
