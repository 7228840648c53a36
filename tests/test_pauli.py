"""Pauli algebra: products, commutators, dense realization, commutation."""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    DimensionMismatchError,
    HermiticityError,
    OperatorSum,
    PauliTerm,
    ResourceLimitError,
    commutator,
    mutually_commuting,
    pauli_product,
    to_dense,
)
from trotterprof.pauli import dense_word, words_commute
from trotterprof.simulator import Circuit, PauliRotation, circuit_unitary

from conftest import random_operator_sum

LETTERS = "IXYZ"


def test_product_matches_dense_on_all_letter_pairs():
    for a, b in itertools.product(LETTERS, repeat=2):
        result = pauli_product(PauliTerm(a), PauliTerm(b))
        expected = dense_word(a) @ dense_word(b)
        np.testing.assert_allclose(
            result.coeff * dense_word(result.word), expected, atol=1e-15
        )


def test_product_examples():
    r = pauli_product(PauliTerm("Z"), PauliTerm("X"))
    assert r.word == "Y" and r.coeff == 1j

    q = PauliTerm("XYZI", 0.5 - 0.25j)
    r = pauli_product(PauliTerm("IIII"), q)
    assert r.word == q.word and r.coeff == q.coeff

    r = pauli_product(PauliTerm("XX"), PauliTerm("YY"))
    expected = dense_word("XX") @ dense_word("YY")
    np.testing.assert_allclose(r.coeff * dense_word(r.word), expected, atol=1e-15)
    assert r.word == "ZZ" and r.coeff == pytest.approx(-1.0)


def test_product_is_associative(rng):
    for _ in range(50):
        words = ["".join(rng.choice(list(LETTERS)) for _ in range(3)) for _ in range(3)]
        p, q, r = (PauliTerm(w, complex(rng.normal(), rng.normal())) for w in words)
        left = pauli_product(pauli_product(p, q), r)
        right = pauli_product(p, pauli_product(q, r))
        assert left.word == right.word
        assert left.coeff == pytest.approx(right.coeff)


def test_product_rejects_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        pauli_product(PauliTerm("XX"), PauliTerm("X"))


def test_commutator_examples():
    z = OperatorSum.from_terms([PauliTerm("Z")])
    x = OperatorSum.from_terms([PauliTerm("X")])
    result = commutator(z, x)
    assert result.as_dict() == {"Y": 2j}

    zz = OperatorSum.from_terms([PauliTerm("ZZ")])
    ii = OperatorSum.from_terms([PauliTerm("II")])
    assert len(commutator(zz, ii)) == 0


def test_commutator_of_benchmark_fragments_matches_dense(tfim_ruth3):
    frag_zz, frag_x = tfim_ruth3.partition.fragments
    result = commutator(frag_zz.terms, frag_x.terms)
    a = to_dense(frag_zz.terms).matrix
    b = to_dense(frag_x.terms).matrix
    np.testing.assert_allclose(to_dense(result).matrix, a @ b - b @ a, atol=1e-12)


def test_commutator_antisymmetry(rng):
    for _ in range(20):
        a = random_operator_sum(rng, 3, 4)
        b = random_operator_sum(rng, 3, 4)
        forward = commutator(a, b)
        backward = commutator(b, a)
        np.testing.assert_allclose(
            to_dense(forward).matrix, -to_dense(backward).matrix, atol=1e-12
        )


def test_commutator_agrees_with_dense_difference(rng):
    for _ in range(20):
        a = random_operator_sum(rng, 3, 5)
        b = random_operator_sum(rng, 3, 5)
        da, db = to_dense(a).matrix, to_dense(b).matrix
        np.testing.assert_allclose(
            to_dense(commutator(a, b)).matrix, da @ db - db @ da, atol=1e-12
        )


def test_commutator_rejects_dimension_mismatch():
    a = OperatorSum.from_terms([PauliTerm("Z")])
    b = OperatorSum.from_terms([PauliTerm("ZZ")])
    with pytest.raises(DimensionMismatchError):
        commutator(a, b)


def test_to_dense_single_qubit():
    z = to_dense(OperatorSum.from_terms([PauliTerm("Z")]))
    np.testing.assert_array_equal(z.matrix, np.diag([1.0, -1.0]))
    x = to_dense(OperatorSum.from_terms([PauliTerm("X")]))
    np.testing.assert_array_equal(x.matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_to_dense_zz_kron_by_hand():
    zz = to_dense(OperatorSum.from_terms([PauliTerm("ZZ")]))
    single = np.diag([1.0, -1.0])
    np.testing.assert_array_equal(zz.matrix, np.kron(single, single))
    np.testing.assert_array_equal(np.diag(zz.matrix), [1, -1, -1, 1])


def test_to_dense_leftmost_letter_is_most_significant():
    zi = to_dense(OperatorSum.from_terms([PauliTerm("ZI")]))
    np.testing.assert_array_equal(np.diag(zi.matrix), [1, 1, -1, -1])


def test_to_dense_respects_cap():
    big = OperatorSum.from_terms([PauliTerm("Z" * 13)])
    with pytest.raises(ResourceLimitError):
        to_dense(big)
    with pytest.raises(ResourceLimitError):
        circuit_unitary(Circuit((PauliRotation("Z" * 13, 0.1),), 13))


def test_mutually_commuting_examples():
    diagonal = [PauliTerm("ZZII"), PauliTerm("IZZI"), PauliTerm("IIZZ")]
    assert mutually_commuting(diagonal)

    pairs = [PauliTerm("XX"), PauliTerm("YY"), PauliTerm("ZZ")]
    assert mutually_commuting(pairs)

    assert not mutually_commuting([PauliTerm("Z"), PauliTerm("X")])


def test_mutually_commuting_agrees_with_dense_norm(rng):
    for _ in range(30):
        words = ["".join(rng.choice(list(LETTERS)) for _ in range(2)) for _ in range(3)]
        terms = [PauliTerm(w) for w in words]
        dense = [dense_word(w) for w in words]
        expected = all(
            np.linalg.norm(p @ q - q @ p) < 1e-12
            for i, p in enumerate(dense)
            for q in dense[i + 1 :]
        )
        assert mutually_commuting(terms) == expected


def test_words_commute_parity_rule():
    assert words_commute("XX", "YY")  # two clashing sites
    assert not words_commute("XI", "ZI")  # one clashing site
    assert words_commute("XI", "IZ")  # disjoint support


def test_canonicalization_merges_and_drops():
    merged = OperatorSum.from_terms(
        [PauliTerm("ZZ", 1.0), PauliTerm("ZZ", 0.5), PauliTerm("XX", 1e-20)]
    )
    assert merged.as_dict() == {"ZZ": 1.5}

    cancelled = OperatorSum.from_terms([PauliTerm("Z", 1.0), PauliTerm("Z", -1.0)])
    assert len(cancelled) == 0


def test_canonicalization_preserves_first_occurrence_order():
    op = OperatorSum.from_terms(
        [PauliTerm("ZZII"), PauliTerm("IIZZ"), PauliTerm("IZZI")]
    )
    assert [t.word for t in op.terms] == ["ZZII", "IIZZ", "IZZI"]


def test_hermitian_flag_validation():
    with pytest.raises(HermiticityError):
        OperatorSum.from_terms([PauliTerm("Z", 1j)], hermitian=True)
    auto = OperatorSum.from_terms([PauliTerm("Z", 1j)])
    assert not auto.hermitian
    real = OperatorSum.from_terms([PauliTerm("Z", 2.0)])
    assert real.hermitian


def test_operator_algebra_dunders():
    z = OperatorSum.from_terms([PauliTerm("Z")])
    x = OperatorSum.from_terms([PauliTerm("X")])
    combo = z.scaled(2.0) + x - z
    assert combo.as_dict() == {"Z": 1.0 + 0j, "X": 1.0 + 0j}
    squared = (z + x) * (z + x)
    # (Z + X)^2 = 2I since ZX + XZ = 0
    assert squared.as_dict() == {"I": 2.0 + 0j}


def test_term_word_validation():
    with pytest.raises(ValueError):
        PauliTerm("")
    with pytest.raises(ValueError):
        PauliTerm("ZA")


_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@st.composite
def real_sums(draw):
    n = draw(st.integers(1, 5))
    words = st.text(alphabet=LETTERS, min_size=n, max_size=n)
    coeffs = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(words, coeffs), min_size=1, max_size=8))
    return OperatorSum.from_terms([PauliTerm(w, c) for w, c in terms])


@settings(max_examples=60, deadline=None)
@given(real_sums())
def test_to_dense_equals_the_kron_sum(op):
    dim = 1 << op.n
    expected = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        expected += term.coeff * reduce(np.kron, [_LETTER_MATRICES[c] for c in term.word])
    assert np.array_equal(to_dense(op).matrix, expected)
