"""Splitting tables, compilation, inversion, and empirical order checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterprof import (
    Circuit,
    DegenerateInputError,
    FormulaError,
    Fragment,
    OperatorSum,
    PartitionedHamiltonian,
    PauliRotation,
    PauliTerm,
    ProductFormula,
    apply_circuit,
    builtin_formula,
    compile_circuit,
    empirical_order,
    invert_circuit,
)
from trotterprof.config import PRESETS, parse_config, preset_config
from trotterprof.formulas import MAX_ALPHA, RUTH_COEFFICIENTS, SUZUKI_P
from trotterprof.simulator import circuit_unitary

from conftest import random_state, suzuki_steps

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402  (the benchmark's independent reference)
import workloads  # noqa: E402  (the benchmark's document builders)

RUTH_TABLE = (7 / 24, 2 / 3, 3 / 4, -2 / 3, -1 / 24, 1.0)


def test_lie1_table(tfim_ruth3):
    f = builtin_formula("lie1", tfim_ruth3.partition)
    assert f.steps == ((0, 1.0), (1, 1.0))
    assert f.alpha == 2 and not f.symmetric


def test_strang2_table(tfim_ruth3):
    f = builtin_formula("strang2", tfim_ruth3.partition)
    assert f.steps == ((0, 0.5), (1, 1.0), (0, 0.5))
    assert f.alpha == 3 and f.symmetric


def test_ruth3_table(tfim_ruth3):
    f = builtin_formula("ruth3", tfim_ruth3.partition)
    assert tuple(c for _, c in f.steps) == pytest.approx(RUTH_TABLE)
    assert tuple(k for k, _ in f.steps) == (0, 1, 0, 1, 0, 1)
    assert f.alpha == 4 and not f.symmetric
    assert RUTH_COEFFICIENTS == pytest.approx(RUTH_TABLE)


def test_suzuki4_table(tfim_ruth3):
    f = builtin_formula("suzuki4", tfim_ruth3.partition)
    assert f.alpha == 5 and f.symmetric
    assert SUZUKI_P == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)))
    assert SUZUKI_P == pytest.approx(0.4144908, abs=1e-7)
    sums = {}
    for k, c in f.steps:
        sums[k] = sums.get(k, 0.0) + c
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-12)


def test_every_builtin_has_unit_coefficient_sums(tfim_ruth3):
    for name in ("lie1", "strang2", "ruth3", "suzuki4"):
        f = builtin_formula(name, tfim_ruth3.partition)
        sums = {}
        for k, c in f.steps:
            sums[k] = sums.get(k, 0.0) + c
        assert all(abs(total - 1.0) <= 1e-12 for total in sums.values())


def test_unknown_formula_name(tfim_ruth3):
    with pytest.raises(FormulaError):
        builtin_formula("magic9", tfim_ruth3.partition)


def test_ruth3_requires_two_fragments():
    z = Fragment(OperatorSum.from_terms([PauliTerm("Z")]))
    single = PartitionedHamiltonian((z,), 1)
    with pytest.raises(FormulaError):
        builtin_formula("ruth3", single)


def test_formula_coefficient_consistency_enforced():
    with pytest.raises(FormulaError):
        ProductFormula(((0, 0.5), (1, 1.0)))


def test_a_table_that_skips_a_fragment_is_refused():
    with pytest.raises(FormulaError, match="fragment 0 gets no step"):
        ProductFormula(((1, 1.0),))
    with pytest.raises(FormulaError, match="fragment 1 gets no step"):
        ProductFormula(((0, 1.0), (2, 1.0)))


def test_fragment_rejects_noncommuting_terms():
    with pytest.raises(FormulaError):
        Fragment(OperatorSum.from_terms([PauliTerm("Z"), PauliTerm("X")]))


def test_compile_zero_time_is_identity(tfim_ruth3, rng):
    f = tfim_ruth3.formula
    c = compile_circuit(f, tfim_ruth3.partition, 0.0)
    assert all(g.angle == 0.0 for g in c.gates)
    s = random_state(rng, 4)
    np.testing.assert_allclose(apply_circuit(s, c).amplitudes, s.amplitudes)


def test_compile_lie1_layer_structure(tfim_ruth3):
    # one splitting step: the ZZ layer (angles J*t) then the X layer (angles h*t)
    f = builtin_formula("lie1", tfim_ruth3.partition)
    t = 0.37
    c = compile_circuit(f, tfim_ruth3.partition, t)
    words = [g.word for g in c.gates]
    assert words == ["ZZII", "IIZZ", "IZZI", "XIII", "IXII", "IIXI", "IIIX"]
    assert [g.angle for g in c.gates[:3]] == pytest.approx([t, t, t])
    assert [g.angle for g in c.gates[3:]] == pytest.approx([t / 3] * 4)


def test_compile_more_steps_halves_angles(tfim_ruth3):
    f = tfim_ruth3.formula
    c1 = compile_circuit(f, tfim_ruth3.partition, 0.4, 1)
    c2 = compile_circuit(f, tfim_ruth3.partition, 0.4, 2)
    assert len(c2.gates) == 2 * len(c1.gates)
    for g1, g2 in zip(c1.gates, c2.gates):
        assert g2.word == g1.word
        assert g2.angle == pytest.approx(g1.angle / 2)


def test_compiled_gate_count_linear_in_steps(tfim_ruth3):
    f = tfim_ruth3.formula
    base = len(compile_circuit(f, tfim_ruth3.partition, 1.0, 1).gates)
    for n in (2, 3, 5):
        assert len(compile_circuit(f, tfim_ruth3.partition, 1.0, n).gates) == n * base


def test_compile_rejects_bad_fragment_index():
    z = Fragment(OperatorSum.from_terms([PauliTerm("Z")]))
    part = PartitionedHamiltonian((z,), 1)
    f = ProductFormula(((0, 0.5), (1, 1.0), (0, 0.5)))
    with pytest.raises(FormulaError):
        compile_circuit(f, part, 0.1)


def test_invert_circuit_reverses_and_negates():
    c = Circuit((PauliRotation("ZZ", 0.4), PauliRotation("XI", 0.2)), 2)
    inv = invert_circuit(c)
    assert [g.word for g in inv.gates] == ["XI", "ZZ"]
    assert [g.angle for g in inv.gates] == [-0.2, -0.4]
    assert len(inv.gates) == len(c.gates)


def test_invert_empty_circuit():
    inv = invert_circuit(Circuit((), 3))
    assert inv.gates == ()


def test_invert_round_trips_through_state(tfim_ruth3, rng):
    c = compile_circuit(tfim_ruth3.formula, tfim_ruth3.partition, 0.6, 2)
    s = random_state(rng, 4)
    out = apply_circuit(apply_circuit(s, c), invert_circuit(c))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-10)


def symmetry_defect(f, partition, t=0.31):
    """Largest entry of ``V(t)^dagger - V(-t)``; zero exactly for symmetric tables."""
    inverted = circuit_unitary(invert_circuit(compile_circuit(f, partition, -t)))
    return float(np.max(np.abs(inverted - circuit_unitary(compile_circuit(f, partition, t)))))


@pytest.mark.parametrize("name", ["strang2", "suzuki4"])
def test_symmetric_formulas_honor_their_flag(tfim_ruth3, name):
    # the inverted circuit at negated time is the forward circuit
    f = builtin_formula(name, tfim_ruth3.partition)
    assert symmetry_defect(f, tfim_ruth3.partition) < 1e-12


def test_asymmetric_formula_fails_the_symmetry_comparison(tfim_ruth3):
    f = builtin_formula("ruth3", tfim_ruth3.partition)
    assert symmetry_defect(f, tfim_ruth3.partition) > 1e-6


EXPECTED_ORDERS = {"lie1": 2, "strang2": 3, "ruth3": 4, "suzuki4": 5}


@pytest.mark.parametrize("name,alpha", sorted(EXPECTED_ORDERS.items()))
def test_empirical_orders_on_tfim(tfim_ruth3, name, alpha):
    f = builtin_formula(name, tfim_ruth3.partition)
    probe = np.geomspace(0.01, 0.06, 6)
    slope = empirical_order(f, tfim_ruth3.partition, probe)
    assert slope == pytest.approx(alpha, abs=0.3)
    assert f.alpha == alpha


def test_empirical_order_suzuki4_on_xxz(xxz_ruth3):
    f = builtin_formula("suzuki4", xxz_ruth3.partition)
    probe = np.geomspace(0.008, 0.04, 6)
    assert empirical_order(f, xxz_ruth3.partition, probe) == pytest.approx(5.0, abs=0.3)


@pytest.mark.parametrize("name,alpha", sorted(EXPECTED_ORDERS.items()))
def test_empirical_orders_reach_alpha_on_xxz(xxz_ruth3, name, alpha):
    f = builtin_formula(name, xxz_ruth3.partition)
    probe = np.geomspace(0.008, 0.04, 6)
    assert empirical_order(f, xxz_ruth3.partition, probe) >= alpha - 0.3


def test_empirical_order_degenerate_probe(tfim_ruth3):
    f = tfim_ruth3.formula
    with pytest.raises(DegenerateInputError):
        empirical_order(f, tfim_ruth3.partition, [0.01, 0.02])  # too few
    with pytest.raises(DegenerateInputError):
        empirical_order(f, tfim_ruth3.partition, [1e-9, 2e-9, 3e-9, 4e-9])


def builtin_partitions() -> list[PartitionedHamiltonian]:
    """The preset partitions, TFIM chains of 2-10 qubits, and the 2-qubit fragments."""
    partitions = [preset_config(name).partition for name in PRESETS]
    partitions += [
        parse_config(json.dumps(workloads.tfim_chain_document(n, "lie1", 1, 1.0))).partition
        for n in range(2, 11)
    ]
    fragments = TWO_QUBIT_FRAGMENTS.fragments
    return partitions + [TWO_QUBIT_FRAGMENTS, PartitionedHamiltonian(fragments[:2], 2)]


def test_builtin_alpha_is_derived_from_the_table():
    # the orders the built-in formulas used to declare, and the benchmark's
    # reference still does
    assert EXPECTED_ORDERS == reference._ALPHA
    for partition in builtin_partitions():
        for name, alpha in EXPECTED_ORDERS.items():
            if name == "ruth3" and len(partition.fragments) != 2:
                continue
            assert builtin_formula(name, partition).alpha == alpha


def test_one_fragment_tables_are_exact_and_read_alpha_two():
    assert ProductFormula(((0, 0.25), (0, 0.75))).alpha == 2
    assert ProductFormula(((0, 1.0),)).alpha == 2


@pytest.mark.parametrize("order", [4, 6, 8, 10])
@pytest.mark.parametrize("k", [2, 3])
def test_suzuki_recursions_derive_their_orders(order, k):
    f = ProductFormula(tuple(suzuki_steps(order, k)))
    assert f.alpha == order + 1
    assert f.symmetric


def test_a_table_beyond_max_alpha_is_refused():
    assert len(suzuki_steps(MAX_ALPHA - 1, 2)) == 1875
    # S12 has alpha 13; float64 no longer separates its first failing order
    with pytest.raises(FormulaError, match=f"every order through {MAX_ALPHA} vanishes"):
        ProductFormula(tuple(suzuki_steps(MAX_ALPHA + 1, 2)))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(EXPECTED_ORDERS)),
    three=st.booleans(),
    data=st.data(),
)
def test_a_perturbed_builtin_table_derives_the_generic_order(name, three, data):
    # a generic change leaves the generic order: 3 for a palindrome, else 2
    partition = TWO_QUBIT_FRAGMENTS
    if name == "ruth3" or not three:
        partition = PartitionedHamiltonian(partition.fragments[:2], 2)
    steps = list(builtin_formula(name, partition).steps)
    j = data.draw(st.integers(0, len(steps) - 1))
    delta = data.draw(st.floats(0.05, 0.5) | st.floats(-0.3, -0.05))
    for i in {j, len(steps) - 1 - j} if data.draw(st.booleans()) else {j}:
        steps[i] = (steps[i][0], steps[i][1] + delta)
    totals: dict[int, float] = {}
    for index, coeff in steps:
        totals[index] = totals.get(index, 0.0) + coeff
    f = ProductFormula(tuple((index, coeff / totals[index]) for index, coeff in steps))
    assert f.alpha == (3 if f.symmetric else 2)


#: The symmetry each built-in formula used to declare by hand.
DECLARED_SYMMETRY = {"lie1": False, "strang2": True, "ruth3": False, "suzuki4": True}


def test_builtin_symmetry_read_from_the_table_matches_the_declared_flag():
    partitions = [preset_config(name).partition for name in PRESETS]
    partitions += [
        parse_config(json.dumps(workloads.tfim_chain_document(n, "lie1", 1, 1.0))).partition
        for n in (2, 6, 10)
    ]
    for partition in partitions:
        for name, symmetric in DECLARED_SYMMETRY.items():
            assert builtin_formula(name, partition).symmetric is symmetric


#: Two qubits, three commuting fragments; a table uses the first two or all three.
TWO_QUBIT_FRAGMENTS = PartitionedHamiltonian(
    tuple(
        Fragment(OperatorSum.from_terms([PauliTerm(w, c) for w, c in terms]))
        for terms in ([("ZZ", 1.0)], [("XI", 0.7), ("IX", 0.4)], [("YY", 0.3), ("XX", -0.6)])
    ),
    2,
)


@st.composite
def step_tables(draw):
    """A valid table on 2-3 fragments, a palindrome about half of the time."""
    k = draw(st.integers(2, 3))
    step = st.tuples(st.integers(0, k - 1), st.floats(0.05, 2.0))
    half = draw(st.lists(step, max_size=4))
    half += [(i, 1.0) for i in range(k) if i not in {index for index, _ in half}]
    palindrome = draw(st.booleans())
    if palindrome:
        raw = half + draw(st.lists(step, max_size=1)) + half[::-1]
    else:
        raw = half + draw(st.lists(step, min_size=1, max_size=4))
    # scaling every step of a fragment alike keeps a palindrome one
    totals = {}
    for index, coeff in raw:
        totals[index] = totals.get(index, 0.0) + coeff
    steps = tuple((index, coeff / totals[index]) for index, coeff in raw)
    return ProductFormula(steps), palindrome


@settings(max_examples=80, deadline=None)
@given(step_tables())
def test_a_palindrome_derives_an_odd_alpha(case):
    f, palindrome = case
    if palindrome:
        assert f.alpha % 2 == 1


@settings(max_examples=80, deadline=None)
@given(step_tables(), st.floats(0.05, 1.5))
def test_a_table_read_as_symmetric_is_symmetric(case, t):
    f, palindrome = case
    assert f.symmetric == (f.steps == f.steps[::-1])
    if palindrome:
        assert f.symmetric
    if f.symmetric:
        assert symmetry_defect(f, TWO_QUBIT_FRAGMENTS, t) < 1e-12
