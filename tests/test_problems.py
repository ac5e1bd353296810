import io
import re
import warnings
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim.engine import SENTINEL_DATUM, Side
from ldpsim.problems import (
    HLEdgePredicate,
    HLInstance,
    PCBitPredicate,
    PCInstance,
    chase_pointers,
    gen_hl_instance,
    gen_pc_instance,
    hl_consistent,
    hl_count_consistent,
    parse_predicate,
    pointer_bits,
    read_instance,
    write_instance,
)


# ---------------------------------------------------------------------------
# hidden layers
# ---------------------------------------------------------------------------


def test_gen_hl_branching_one_forces_labels():
    inst = gen_hl_instance(1, 4, seed=2)
    assert inst.alice_payload.label(() if inst.alice_layer == 0 else (0,) * inst.alice_layer) == 0
    assert hl_count_consistent(inst) == 1
    assert hl_consistent((0, 0, 0, 0), inst)


def test_gen_hl_deterministic():
    assert gen_hl_instance(4, 9, seed=3) == gen_hl_instance(4, 9, seed=3)
    assert gen_hl_instance(4, 9, seed=3) != gen_hl_instance(4, 9, seed=4)


def test_gen_hl_layer_parity_ranges():
    seen_a, seen_b = set(), set()
    for seed in range(200):
        inst = gen_hl_instance(4, 9, seed=seed)
        seen_a.add(inst.alice_layer)
        seen_b.add(inst.bob_layer)
    assert seen_a == {0, 2, 4, 6}
    assert seen_b == {1, 3, 5, 7}


def test_hl_instance_validation():
    with pytest.raises(ValueError):
        HLInstance(2, 3, alice_layer=1, bob_layer=1, label_seed=0)  # odd alice layer
    with pytest.raises(ValueError):
        HLInstance(2, 3, alice_layer=0, bob_layer=2, label_seed=0)  # even bob layer
    with pytest.raises(ValueError):
        HLInstance(2, 3, alice_layer=2, bob_layer=1, label_seed=0)  # alice too deep
    with pytest.raises(ValueError):
        HLInstance(0, 3, alice_layer=0, bob_layer=1, label_seed=0)
    with pytest.raises(ValueError):
        HLInstance(2, 1, alice_layer=0, bob_layer=1, label_seed=0)


def test_hl_consistent_definition():
    inst = gen_hl_instance(3, 4, seed=11)
    alice, bob = inst.alice_payload, inst.bob_payload
    path = [0] * 4
    path[inst.alice_layer] = alice.label(tuple(path[: inst.alice_layer]))
    path[inst.bob_layer] = bob.label(tuple(path[: inst.bob_layer]))
    assert hl_consistent(tuple(path), inst)
    # deviating at the alice layer alone breaks consistency
    wrong = list(path)
    wrong[inst.alice_layer] = (wrong[inst.alice_layer] + 1) % 3
    assert not hl_consistent(tuple(wrong), inst)


def test_hl_consistent_rejects_malformed_paths():
    inst = gen_hl_instance(2, 3, seed=1)
    with pytest.raises(ValueError):
        hl_consistent((0, 1), inst)
    with pytest.raises(ValueError):
        hl_consistent((0, 1, 2), inst)


def test_binary_depth_three_has_two_consistent_leaves():
    # the smallest instance with one even and one odd hidden level: 8 leaves,
    # exactly 2 consistent
    for seed in range(5):
        inst = gen_hl_instance(2, 3, seed=seed)
        assert (inst.alice_layer, inst.bob_layer) in {(0, 1)}
        assert hl_count_consistent(inst) == 2


def test_count_consistent_matches_brute_force_formula():
    for branching in (1, 2, 3):
        for levels in range(2, 7):
            inst = gen_hl_instance(branching, levels, seed=levels * 10 + branching)
            assert hl_count_consistent(inst) == branching ** (levels - 2)


def test_count_consistent_guard():
    inst = gen_hl_instance(2, 30, seed=1)
    with pytest.raises(ValueError, match="guard"):
        hl_count_consistent(inst)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=3**6 - 1), st.integers(min_value=0, max_value=10_000))
def test_hl_consistency_depends_only_on_prefix(leaf_index, seed):
    # consistency reads nothing below the deeper hidden level
    inst = gen_hl_instance(3, 6, seed=seed)
    path = []
    rest = leaf_index
    for _ in range(6):
        path.append(rest % 3)
        rest //= 3
    deeper = max(inst.alice_layer, inst.bob_layer)
    base = hl_consistent(tuple(path), inst)
    for tail in product(range(3), repeat=5 - deeper):
        variant = tuple(path[: deeper + 1]) + tail
        assert hl_consistent(variant, inst) == base


# ---------------------------------------------------------------------------
# pointer chasing
# ---------------------------------------------------------------------------


def test_gen_pc_entries_in_range():
    inst = gen_pc_instance(1, 2, seed=4)
    assert set(inst.alice_ptrs) <= {1, 2}
    assert set(inst.bob_ptrs) <= {1, 2}


def test_gen_pc_deterministic():
    assert gen_pc_instance(3, 16, seed=5) == gen_pc_instance(3, 16, seed=5)


def test_gen_pc_regime_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen_pc_instance(3, 16, seed=1)
        assert not caught
        gen_pc_instance(5, 8, seed=1)
        assert len(caught) == 1
        assert "regime" in str(caught[0].message)


def test_pc_instance_validation():
    with pytest.raises(ValueError):
        PCInstance(0, 4, (1, 2, 3, 4), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        PCInstance(2, 4, (1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        PCInstance(2, 4, (1, 2, 3, 5), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        PCInstance(2, 4, (0, 2, 3, 4), (1, 2, 3, 4))


def test_chase_fixed_point():
    ones = (1, 1, 1, 1)
    for hops in (1, 2, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert chase_pointers(PCInstance(hops, 4, ones, ones)) == 1


def test_chase_hand_trace():
    # v0 = a[1] = 2, v1 = b[2] = 1, v2 = a[1] = 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = PCInstance(2, 3, (2, 3, 1), (3, 1, 2))
    assert chase_pointers(inst) == 2


def test_chase_reference_instance():
    # eight-slot instance whose five-hop chase lands on 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = PCInstance(5, 8, (8, 6, 5, 1, 2, 4, 3, 7), (1, 2, 4, 6, 7, 8, 3, 5))
    assert chase_pointers(inst) == 8


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_chase_alternates_tables(hops, seed):
    # odd steps read the bob vector, even steps the alice vector
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = gen_pc_instance(hops, 8, seed=seed)
    value = inst.alice_ptrs[0]
    for step in range(1, hops + 1):
        value = inst.bob_ptrs[value - 1] if step % 2 else inst.alice_ptrs[value - 1]
    assert chase_pointers(inst) == value


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_hl_predicate_semantics():
    inst = gen_hl_instance(3, 4, seed=21)
    alice, bob = inst.data_pair()
    vertex = (0,) * inst.alice_layer
    child = inst.alice_payload.label(vertex)
    pred = HLEdgePredicate(inst.alice_layer, vertex, child)
    assert pred(alice)
    assert not pred(bob)
    assert not pred(SENTINEL_DATUM)
    assert not HLEdgePredicate(inst.alice_layer, vertex, (child + 1) % 3)(alice)


def test_pc_predicate_semantics():
    inst = gen_pc_instance(2, 8, seed=22)
    alice, bob = inst.data_pair()
    code = inst.alice_ptrs[0] - 1
    for bit_index in range(1, pointer_bits(inst.size) + 1):
        expected = (code >> (pointer_bits(inst.size) - bit_index)) & 1 == 1
        pred = PCBitPredicate(Side.ALICE, 1, bit_index, pointer_bits(inst.size))
        assert pred(alice) == expected
        assert not pred(bob)
        assert not pred(SENTINEL_DATUM)


def test_pointer_bits_is_shared():
    from ldpsim.solvers import PCSolverConfig, PCSolverDriver

    assert [pointer_bits(size) for size in (2, 3, 4, 5, 16, 17)] == [1, 2, 2, 3, 4, 5]
    for size in (2, 7, 16):
        driver = PCSolverDriver(1, size, PCSolverConfig(epsilon=1.0, m=1))
        assert driver.num_bits == pointer_bits(size)


def test_predicate_descriptors_round_trip():
    hl_inst = gen_hl_instance(3, 4, seed=23)
    hl_pred = HLEdgePredicate(2, (1, 0), 2)
    assert parse_predicate(hl_pred.descriptor, hl_inst) == hl_pred
    root_pred = HLEdgePredicate(0, (), 1)
    assert parse_predicate(root_pred.descriptor, hl_inst) == root_pred
    pc_inst = gen_pc_instance(2, 8, seed=24)
    pc_pred = PCBitPredicate(Side.BOB, 5, 2, pointer_bits(pc_inst.size))
    assert parse_predicate(pc_pred.descriptor, pc_inst) == pc_pred
    with pytest.raises(ValueError):
        parse_predicate("nonsense(1,2)", hl_inst)


_HL = gen_hl_instance(3, 4, seed=23)
_REFUSALS = {
    "label-off-layer": (
        lambda: _HL.alice_payload.label((0,) * (_HL.alice_layer + 1)),
        ValueError,
        f"vertex {(0,) * (_HL.alice_layer + 1)} is not on layer {_HL.alice_layer}",
    ),
    "hl-no-branching": (lambda: gen_hl_instance(0, 3, 1), ValueError, "need branching >= 1 and num_levels >= 2"),
    "hl-one-level": (lambda: gen_hl_instance(2, 1, 1), ValueError, "need branching >= 1 and num_levels >= 2"),
    "pc-size-one": (lambda: PCInstance(1, 1, (1,), (1,)), ValueError, "size must be at least 2"),
    # size 1 would reach the regime check's division by log2(1) = 0
    "gen-pc-size-one": (lambda: gen_pc_instance(1, 1, 1), ValueError, "need hops >= 1 and size >= 2"),
    "unclosed-descriptor": (
        lambda: parse_predicate("pc-bit(alice,1,1", gen_pc_instance(1, 4, 1)),
        ValueError,
        "malformed predicate descriptor: 'pc-bit(alice,1,1'",
    ),
    "pc-bit-on-hl": (
        lambda: parse_predicate("pc-bit(alice,1,1)", _HL),
        ValueError,
        "pc-bit descriptors need a pointer chasing instance",
    ),
    "write-other": (lambda: write_instance(object(), io.StringIO()), TypeError, "cannot serialize object"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_problems_refuse_what_they_cannot_take(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_instance_round_trip():
    hl_inst = gen_hl_instance(4, 9, seed=31)
    buffer = io.StringIO()
    write_instance(hl_inst, buffer)
    assert read_instance(io.StringIO(buffer.getvalue())) == hl_inst

    pc_inst = gen_pc_instance(3, 16, seed=32)
    buffer = io.StringIO()
    write_instance(pc_inst, buffer)
    assert read_instance(io.StringIO(buffer.getvalue())) == pc_inst


def test_read_instance_rejects_garbage():
    for text, message in [
        ("mystery a=1\n", "line 1: unknown instance tag: 'mystery'"),
        ("", "empty instance file"),
        ("hl branching=2\n", "line 1: missing field 'num_levels'"),
        ("\nhl branching2\n", "line 2: field 'branching2' has no '='"),
        ("hl branching=2 num_levels=x\n", "line 1: num_levels='x' is not an integer"),
        ("pc hops=1 size=2 indexing=1\nalice 1 2\n", "line 1: pc instance has no 'bob' row"),
        ("pc hops=1 size=2 indexing=1\nalice 1 2\n\nbob 1 two\n", "line 4: row 'bob' holds a value"),
        ("pc hops=0 size=2 indexing=1\nalice 1 2\nbob 2 1\n", "line 1: hops must be at least 1"),
        ("\npc hops=1 size=2 indexing=1\nalice 1 9\nbob 2 1\n", "line 2: alice_ptrs entries must lie in [1, 2]"),
        ("pc hops=1 size=2 indexing=1\nalice 1 2\nbob 2\n", "line 1: bob_ptrs must have length 2"),
        (
            "hl branching=2 num_levels=3 alice_layer=1 bob_layer=1 label_seed=0\n",
            "line 1: alice_layer must be even in [0, 1]",
        ),
        ("pc hops=1 size=2 indexing=0\nalice 1 2\nbob 2 1\n", "line 1: indexing must be 1, not '0'"),
        ("pc hops=1 size=2 indexing=1\nalice 2 2\nalice 1 2\nbob 2 1\n", "line 3: a second 'alice' row"),
        ("pc hops=1 size=2 indexing=1\nalice 1 2\nbob 2 1\n\nbob 1 1\n", "line 5: a second 'bob' row"),
        ("pc hops=1 size=2 indexing=1 seed=3\nalice 1 2\nbob 2 1\n", "line 1: unknown field 'seed'"),
        (
            "hl branching=2 num_levels=3 alice_layer=0 bob_layer=1 label_seed=5\nalice 1 2\n",
            "line 2: unknown row 'alice'; expected consistent_count",
        ),
        (
            "hl branching=2 num_levels=3 alice_layer=0 bob_layer=1 label_seed=5\nconsistent_count x\n",
            "line 2: row 'consistent_count' holds a value that is not an integer",
        ),
        (
            "hl branching=2 num_levels=3 alice_layer=0 bob_layer=1 label_seed=5\n"
            "consistent_count 5\n\nconsistent_count 6\n",
            "line 4: a second 'consistent_count' row",
        ),
        (
            "pc hops=1 size=2 indexing=1\nalice 1 2\nbob 2 1\ncarol 5 5\n",
            "line 4: unknown row 'carol'; expected alice, bob, oracle",
        ),
        (
            "hl branching=2 num_levels=3 alice_layer=0 bob_layer=1 label_seed=5 label_seed=6\n",
            "line 1: repeated field 'label_seed'",
        ),
        (
            "hl branching=2 num_levels=3 alice_layer=0 bob_layer=1 label_seed=5 extra=1\n",
            "line 1: unknown field 'extra'",
        ),
        # a footer row must state the instance's own answer or count, as one value
        (
            "pc hops=1 size=2 indexing=1\nalice 1 2\nbob 2 1\n\noracle 1\n",
            "line 5: row 'oracle' does not match the instance's oracle 2",
        ),
        (
            "hl branching=3 num_levels=4 alice_layer=0 bob_layer=1 label_seed=5\nconsistent_count 27\n",
            "line 2: row 'consistent_count' does not match the instance's consistent_count 9",
        ),
        (
            "pc hops=2 size=2 indexing=1\noracle 2 2\nalice 1 2\nbob 2 1\n",
            "line 2: row 'oracle' does not match the instance's oracle 2",
        ),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            read_instance(io.StringIO(text))
