import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import zonocount.exact as exact
from zonocount import (
    CoeffTable,
    EnumerationBudgetError,
    MemoryBudgetError,
    MomentPair,
    brute_force_count,
    build_table,
    class_weights,
    diameter_moment,
    diameter_numerators,
    occurrence_moments,
    occurrence_numerators,
    primitive_array,
    zon_coefficient,
    zon_cumulative,
)

Z2_DIAG = [1, 3, 10, 34, 109, 331, 965]
Z3_DIAG = [1, 11, 170, 2458]


def test_coefficient_examples():
    assert zon_coefficient(2, (1, 1)) == 3
    assert zon_coefficient(2, (2, 2)) == 10
    for k in range(6):
        assert zon_coefficient(1, (k,)) == 1


def test_diagonal_values():
    table2 = build_table(2, (6, 6))
    assert [table2.coefficient((n, n)) for n in range(7)] == Z2_DIAG
    table3 = build_table(3, (3, 3, 3))
    assert [table3.coefficient((n, n, n)) for n in range(4)] == Z3_DIAG


def test_table_holds_all_subboxes():
    # one DP at the outer bound yields every smaller coefficient
    table = build_table(2, (5, 5))
    for box in ((1, 1), (2, 2), (3, 1), (4, 5), (0, 3)):
        assert table.coefficient(box) == zon_coefficient(2, box)


def test_symmetry_under_coordinate_permutation():
    assert zon_coefficient(2, (2, 5)) == zon_coefficient(2, (5, 2))
    vals = {zon_coefficient(3, p) for p in itertools.permutations((1, 2, 3))}
    assert len(vals) == 1


def test_factor_order_independence():
    for dim, bound in ((2, (4, 4)), (3, (2, 2, 2))):
        vecs = primitive_array(dim, bound, sum(bound))
        reversed_table = exact._build(CoeffTable(dim, bound), vecs[::-1])
        assert build_table(dim, bound).cells == reversed_table.cells


def test_cumulative():
    assert zon_cumulative(2, 0) == 1
    assert zon_cumulative(2, 1) == 6
    assert zon_cumulative(1, 5) == 6
    values = [zon_cumulative(2, n) for n in range(7)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        zon_coefficient(2, (1,))
    with pytest.raises(ValueError):
        zon_coefficient(2, (-1, 1))
    with pytest.raises(ValueError):
        zon_coefficient(0, ())


def test_table_index_checks():
    # one box check for bounds and indices; the index alone is checked against the bound
    table = build_table(2, (3, 2))
    assert table.coefficient(2) == table.coefficient((2, 2)) == zon_coefficient(2, (2, 2))
    assert table.total((3, 2)) == table.total()
    for e, message in (((1,), "expected 2 coordinates"), ((-1, 1), "must be >= 0"),
                       ((1, 3), "outside bound"), (3, "outside bound")):
        with pytest.raises(ValueError, match=message):
            table.coefficient(e)
        with pytest.raises(ValueError, match=message):
            table.total(e)


def test_diameter_moment_examples():
    assert diameter_moment(2, 1) == Fraction(4, 3)
    assert diameter_moment(2, 2) == Fraction(2)
    assert diameter_moment(2, 3) == Fraction(42, 17)
    assert diameter_moment(2, 4) == Fraction(314, 109)
    assert diameter_moment(3, 1) == Fraction(19, 11)
    for k in (1, 2, 5):
        assert diameter_moment(1, k) == 1
    with pytest.raises(ValueError):
        diameter_moment(2, 0)


def test_occurrence_moment_examples():
    mean, var = occurrence_moments(2, 1, (1, 1))
    assert (mean, var) == (Fraction(1, 3), Fraction(2, 9))
    mean, var = occurrence_moments(2, 1, (1, 0))
    assert mean == Fraction(1, 3)
    mean, var = occurrence_moments(2, 2, (1, 1))
    assert (mean, var) == (Fraction(2, 5), Fraction(11, 25))
    mean, var = occurrence_moments(2, 2, (2, 1))
    assert (mean, var) == (Fraction(1, 10), Fraction(9, 100))
    mean, var = occurrence_moments(1, 3, (1,))
    assert (mean, var) == (Fraction(3), Fraction(0))


def test_occurrence_validation():
    with pytest.raises(ValueError):
        occurrence_moments(2, 2, (2, 2))  # not primitive
    with pytest.raises(ValueError):
        occurrence_moments(2, 1, (1, 2))  # exceeds bound


def test_brute_force_matches_dp_on_sample_boxes():
    for dim, box in ((2, (3, 2)), (2, (4, 4)), (2, (5, 3)), (3, (2, 2, 1))):
        res = brute_force_count(dim, box)
        assert res.count == zon_coefficient(dim, box)


def test_brute_force_companions_match_marked_dp():
    for n in (1, 2, 3):
        res = brute_force_count(2, (n, n))
        pair = diameter_numerators(2, n)
        assert res.count == pair.count
        assert res.direction_count_sum == pair.weighted
        for v0 in ((1, 1), (1, 0)):
            opair = occurrence_numerators(2, n, v0)
            got = res.occurrence[(v0, 0)]
            assert got == (opair.weighted, opair.weighted2)
    # d = 3 and a rectangular box, every primitive v0 <= box and every sign
    # class; v0 = (0, 1) puts the pass axis (largest v0 coordinate) off the
    # first axis
    for dim, box in ((3, (1, 1, 1)), (3, (2, 2, 2)), (2, (4, 3))):
        res = brute_force_count(dim, box)
        if len(set(box)) == 1:
            pair = diameter_numerators(dim, box[0])
            assert (res.count, res.direction_count_sum) == (pair.count, pair.weighted)
        # the sign classes of the box, enumerated without the library
        classes = [(v, j) for v in itertools.product(*(range(b + 1) for b in box))
                   if math.gcd(*v) == 1 for j in range(2 ** (sum(map(bool, v)) - 1))]
        assert sorted(res.occurrence) == classes
        for v, j in classes:
            opair = occurrence_numerators(dim, box, v)
            assert opair.count == res.count
            assert res.occurrence[(v, j)] == (opair.weighted, opair.weighted2)


# rectangular boxes whose brute-force enumeration stays well inside its budget
_SMALL_BOXES = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda box: sum(box) <= 6),
)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), box=_SMALL_BOXES)
def test_dp_matches_brute_force_on_random_boxes(data, box):
    dim = len(box)
    table = build_table(dim, box)
    count = brute_force_count(dim, box).count
    assert table.coefficient(box) == count
    sub = tuple(data.draw(st.integers(0, b)) for b in box)
    assert table.coefficient(sub) == brute_force_count(dim, sub).count
    perm = data.draw(st.permutations(box))
    assert build_table(dim, perm).coefficient(tuple(perm)) == count


def test_sign_classes_of_same_vector_are_exchangeable():
    res = brute_force_count(2, (3, 3))
    for coords in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        tallies = {res.occurrence[(coords, j)] for j in (0, 1)}
        assert len(tallies) == 1, coords
    # reflected vectors have identical tallies as well
    assert res.occurrence[((1, 2), 0)] == res.occurrence[((2, 1), 0)]


def test_moment_pair_guards():
    pair = MomentPair(count=3, weighted=4)
    assert pair.mean == Fraction(4, 3)
    with pytest.raises(ValueError):
        pair.variance
    with pytest.raises(ZeroDivisionError):
        MomentPair(count=0, weighted=0).mean


def test_memory_guard(monkeypatch):
    with pytest.raises(MemoryBudgetError):
        CoeffTable(2, (10 ** 5, 10 ** 5))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "1000")
    with pytest.raises(MemoryBudgetError):
        CoeffTable(2, (10, 10))
    # the table and its carry buffer fit, the staging of a one-step group does not
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(2 * 8 * 11 * 11))
    CoeffTable(2, (10, 10))
    with pytest.raises(MemoryBudgetError, match="staging"):
        build_table(2, (10, 10))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        CoeffTable(2, (2, 2))


def test_memory_guard_runs_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a box the table guard refuses")

    monkeypatch.setattr(exact, "primitive_array", refuse)
    big = (10 ** 5, 10 ** 5)
    with pytest.raises(MemoryBudgetError):
        build_table(2, big)
    with pytest.raises(MemoryBudgetError):
        diameter_numerators(2, big[0])
    with pytest.raises(MemoryBudgetError):
        occurrence_numerators(2, big, (1, 1))


def _cold(fn, *args):
    # fn(*args) from an empty shared cache, which is then put back as it was
    saved = dict(exact._SHARED)
    exact._SHARED.clear()
    try:
        return fn(*args)
    finally:
        exact._SHARED.clear()
        exact._SHARED.update(saved)


_SIDE = {1: 12, 2: 8, 3: 4, 4: 2}  # the largest box side drawn per dimension


@st.composite
def _shared_request(draw):
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("coefficient", "total", "diameter", "occurrence")))
    side = st.integers(0, _SIDE[dim])
    if kind == "diameter":
        return dim, (draw(side.filter(bool)),) * dim, kind, None
    box = draw(st.tuples(*[side] * dim).filter(lambda b: kind != "occurrence" or any(b)))
    if kind != "occurrence":
        return dim, box, kind, None
    cube = itertools.product(*(range(b + 1) for b in box))
    return dim, box, kind, draw(st.sampled_from([v for v in cube if math.gcd(*v) == 1]))


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_shared_request(), min_size=1, max_size=8))
# a smaller box right after a larger one: a bare total() would sum past it
@example(requests=[(2, (8, 8), "total", None), (2, (3, 5), "total", None),
                   (3, (4, 4, 4), "coefficient", None), (3, (2, 0, 1), "total", None)])
# a box outside the last one shrinks the table; the next one grows it again
@example(requests=[(2, (6, 6), "coefficient", None), (2, (7, 1), "total", None),
                   (2, (6, 6), "diameter", None), (2, (5, 6), "occurrence", (2, 3)),
                   (1, (12,), "total", None), (1, (3,), "occurrence", (1,))])
def test_shared_table_answers_like_a_fresh_build(requests):
    exact._SHARED.clear()
    for dim, box, kind, v0 in requests:
        fresh = build_table(dim, box)
        if kind == "coefficient":
            assert zon_coefficient(dim, box) == exact.shared_table(dim, box).coefficient(box) \
                == fresh.coefficient(box)
        elif kind == "total":
            assert exact.shared_table(dim, box).total(box) == fresh.total()
            if len(set(box)) == 1:
                assert zon_cumulative(dim, box[0]) == fresh.total()
        elif kind == "diameter":
            assert diameter_numerators(dim, box[0]) == _cold(diameter_numerators, dim, box[0])
        else:
            assert occurrence_numerators(dim, box, v0) == _cold(occurrence_numerators, dim, box, v0)
        assert all(c <= b for c, b in zip(box, exact._SHARED[dim].bound))
        # a build_table result is its caller's own: changing it leaves the shared one alone
        shared = exact.shared_table(dim, box)
        before = shared.cells
        fresh.class_pass((1,) + (0,) * (dim - 1), 1)
        assert fresh is not shared and shared.cells == before


def test_shared_table_hit_is_charged_like_a_build(monkeypatch):
    # the cached (40, 40) table against a request for (3, 3)
    exact._SHARED.clear()
    want = build_table(2, (3, 3)).coefficient((3, 3))
    big = exact.shared_table(2, (40, 40))
    charge = 2 * 8 * len(big.data) * 41 * 41
    # a budget that fits the cached table: a hit
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge))
    assert zon_coefficient(2, (3, 3)) == want
    assert exact.shared_table(2, (3, 3)) is big
    # one byte less fits only the requested box: it is built and takes the place
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge - 1))
    assert zon_coefficient(2, (3, 3)) == want
    assert exact._SHARED[2] is not big and exact._SHARED[2].bound == (3, 3)
    # a budget that fits neither: the error of the requested box, and no table kept
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET")
    exact.shared_table(2, (40, 40))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "100")
    with pytest.raises(MemoryBudgetError, match="table of 16 cells"):
        zon_coefficient(2, (3, 3))
    assert 2 not in exact._SHARED


def test_brute_force_node_budget(monkeypatch):
    # (3, 3) has 16 cells and 16 classes: it passes the up-front bound and is
    # stopped by the node count during the search
    monkeypatch.setattr(exact, "_BRUTE_NODE_BUDGET", 50)
    with pytest.raises(EnumerationBudgetError):
        brute_force_count(2, (3, 3))
    # 1,112 classes: a search one frame deep per class would hit the recursion
    # limit before the node budget
    monkeypatch.setattr(exact, "_BRUTE_NODE_BUDGET", 10 ** 5)
    with pytest.raises(EnumerationBudgetError, match="exceeded"):
        brute_force_count(2, (30, 30))


def test_brute_force_visits_the_same_nodes():
    # pinned count, direction sum and node count: the visit order is part of the oracle
    for dim, box, want in ((2, (3, 3), (34, 84, 932)), (2, (4, 3), (59, 155, 2153)),
                           (3, (2, 2, 2), (170, 464, 10893)), (3, (1, 2, 3), (114, 297, 7376)),
                           (4, (1, 1, 1, 1), (49, 104, 1817))):
        res = brute_force_count(dim, box)
        assert (res.count, res.direction_count_sum, res.nodes) == want


def test_brute_force_refuses_large_boxes_up_front(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a box the node bound refuses")

    monkeypatch.setattr(exact, "primitive_array", refuse)
    # (3000, 3000): 9.0e6 cells and 5.5e6 primitive vectors, but 1.09e7 classes
    # (10**9, 0): one class, but 10**9 + 1 cells
    for dim, box in ((2, (3000, 3000)), (2, (10 ** 9, 0)), (3, (300, 300, 300)),
                     (2, (10 ** 5, 10 ** 5))):
        with pytest.raises(EnumerationBudgetError, match="needs more than"):
            brute_force_count(dim, box)
    monkeypatch.undo()
    # the bound is sound: the search visits more nodes than classes and cells
    for dim, box in ((2, (3, 3)), (2, (6, 0)), (2, (5, 2)), (3, (1, 2, 1)), (3, (2, 0, 2))):
        res = brute_force_count(dim, box)
        assert res.nodes > exact.count_classes_moebius(dim, box)
        assert res.nodes >= math.prod(b + 1 for b in box)


def test_origin_cell_stays_one():
    table = build_table(3, (2, 2, 2))
    assert table.coefficient((0, 0, 0)) == 1
    assert all(c >= 0 for c in table.cells)


def test_values_beyond_64_bits():
    # literal values of the object-array engine, from perfbench/reference.json
    table2 = build_table(2, (96, 96))
    assert [table2.coefficient(n) for n in range(90, 97)] == [
        220285231182218252503981616,
        360244002747875996850167840,
        588126162205402947945825624,
        958554485137630093969825328,
        1559716375128071910402014009,
        2533767168352189741949580867,
        4109505002571426705064100093,
    ]
    assert table2.total() == 85763282630056585410722185807
    table3 = build_table(3, (16, 16, 16))
    assert table3.coefficient(16) == 8025783523648366
    assert table3.total() == 64626986972025350


_WORD = 1 << 64


def _values(table):
    # the cells as an object array of Python ints, shaped like the box
    return np.array(table.cells, dtype=object).reshape(table.shape)


def _resaturate(table):
    # move value from each limb into the one below as far as that entry stays
    # below 2^64, so the cells keep their values, and claim the loosest ceiling:
    # the next class_pass or group product must normalize first
    data = table.data
    for i in range(len(data) - 1, 0, -1):
        moved = np.minimum(data[i], ~data[i - 1] >> 32)
        data[i] -= moved
        data[i - 1] += moved << 32
    table.ceiling = _WORD - 1


@settings(max_examples=40, deadline=None)
@given(box=_SMALL_BOXES.filter(any), limbs=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
@example(box=(1, 1, 1, 1), limbs=1, seed=0)
@example(box=(2, 1, 1, 1), limbs=2, seed=1)
@example(box=(2, 2, 1, 1), limbs=1, seed=2)
def test_narrow_limbs_match_brute_force(box, limbs, seed):
    # _build from a table of random entries up to 2^64 - 1 at the ceiling
    # 2^64 - 1, re-saturated after every step, so that each step normalizes,
    # carries and adds limbs; the cells must equal the Python-int product of
    # the start table with Zon_d
    dim = len(box)
    table = CoeffTable(dim, box)
    table.data = np.random.default_rng(seed).integers(
        0, _WORD - 1, size=(limbs, *table.shape), dtype=np.uint64, endpoint=True)
    table.ceiling = _WORD - 1
    fill = _values(table)
    normalized = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        real_normalize = CoeffTable._normalize

        def normalize(self):
            normalized.append(self)
            real_normalize(self)

        def check(table):
            assert normalized, "a step did not normalize"
            normalized.clear()
            assert int(table.data.max()) <= table.ceiling < _WORD
            _resaturate(table)

        monkeypatch.setattr(CoeffTable, "_normalize", normalize)
        for name in ("class_pass", "_one_step"):
            real = getattr(CoeffTable, name)

            def step(self, *args, _real=real):
                _real(self, *args)
                check(self)

            monkeypatch.setattr(CoeffTable, name, step)
        exact._build(table, primitive_array(dim, box, sum(box)))
    assert len(table.data) > limbs
    zon = _values(build_table(dim, box))
    assert zon[box] == brute_force_count(dim, box).count
    want = np.zeros_like(fill)
    for f in itertools.product(*(range(b + 1) for b in box)):
        head = tuple(slice(b - c + 1) for c, b in zip(f, box))
        want[tuple(slice(c, None) for c in f)] += fill[f] * zon[head]
    assert table.cells == want.ravel().tolist()
    half = tuple(b // 2 for b in box)
    assert table.total(half) == want[tuple(slice(c + 1) for c in half)].sum()


def _saturated(limbs, bound=(3,)):
    # every entry at 2^64 - 1, the most a uint64 word holds
    table = CoeffTable(len(bound), bound)
    table.data = np.full((limbs, *(b + 1 for b in bound)), _WORD - 1, dtype=np.uint64)
    table.ceiling = _WORD - 1
    return table


def _random_fill(data, shape, full):
    # a ceiling below 2^64 and entries up to it: all at it when full, else random
    ceiling = data.draw(st.integers(0, _WORD - 1))
    if full:
        return np.full(shape, ceiling, dtype=np.uint64), ceiling
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return rng.integers(0, ceiling, size=shape, dtype=np.uint64, endpoint=True), ceiling


def test_narrow_limbs_normalize_at_the_word_limit():
    top = _WORD - 1
    value = top + (top << 32)
    table = _saturated(2)
    table.class_pass((1,), 1)  # 4 * top overflows the word: carry first, out of the top limb too
    assert len(table.data) == 3
    assert int(table.data.max()) <= table.ceiling < _WORD
    assert table.cells == [value * (j + 1) for j in range(4)]
    # chain length 1, weight 2: 2 * top overflows, and the top limb carries
    table = _saturated(1, (1, 1))
    table.class_pass((1, 1), 2)
    assert len(table.data) == 2
    assert table.ceiling == 4 * (2 ** 33 - 2)  # two cumulative steps on the normalized ceiling
    assert int(table.data.max()) <= table.ceiling < _WORD
    assert table.cells == [top, top, top, 3 * top]
    # shifted_add of a wider table: both normalize, the narrower one gains limbs
    shifted = _saturated(1)
    shifted.shifted_add(_saturated(2), (1,))
    assert int(shifted.data.max()) <= shifted.ceiling < _WORD
    assert shifted.cells == [top] + [top + value] * 3


@settings(max_examples=60, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
       full=st.booleans())
def test_shifted_add_of_itself_equals_adding_a_copy(data, box, full):
    # self[e] += self[e - v] reads the cells as they were before the add, not
    # the cumulative pass (1 - x^v)^(-1); v may leave the box
    dim = len(box)
    v = data.draw(st.tuples(*[st.integers(0, 4)] * dim).filter(any))
    table, copy, want = (CoeffTable(dim, box) for _ in range(3))
    limbs = data.draw(st.integers(1, 2))
    table.data, table.ceiling = _random_fill(data, (limbs, *table.shape), full)
    for other in (copy, want):
        other.data, other.ceiling = table.data.copy(), table.ceiling
    want.shifted_add(copy, v)
    table.shifted_add(table, v)
    assert int(table.data.max()) <= table.ceiling < _WORD
    assert table.cells == want.cells


def test_narrow_limbs_grow_and_guard(monkeypatch):
    assert len(build_table(2, (16, 16)).data) == 1
    table = build_table(2, (24, 24))
    assert len(table.data) == 2
    assert table.coefficient(24) == zon_coefficient(2, (24, 24))
    # one limb fits the budget, the second does not: the guard names the limb count
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(2 * 8 * 25 * 25 * 2 - 1))
    with pytest.raises(MemoryBudgetError, match="2 limbs"):
        build_table(2, (24, 24))
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET")

    def refuse(*args):
        raise AssertionError("charged a table the limb guard refuses")

    # a pass of (1) could outgrow one normalization: refused before the memory
    # charge and the allocation
    monkeypatch.setattr(CoeffTable, "_check_memory", refuse)
    with pytest.raises(ValueError, match="2\\^31"):
        CoeffTable(1, (1 << 31,))


def test_limb_width_leaves_room_for_every_growth():
    # a normalization leaves the ceiling below 2^(L+1), and _grow accepts no
    # factor above 2^31, so the grown ceiling never reaches the word
    width = exact._LIMB_BITS
    assert (1 << (width + 1)) << 31 <= 1 << (2 * width)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
       full=st.booleans())
def test_weighted_pass_equals_repeated_class_passes(data, box, full):
    # a random table, possibly saturated at its ceiling, and a random primitive
    # v: inside the box with a long chain, with chain length 1, or outside
    dim = len(box)
    v = data.draw(st.tuples(*[st.integers(0, 3)] * dim).filter(lambda u: math.gcd(*u) == 1))
    w = 1 << (sum(1 for c in v if c) - 1)
    fused, single = CoeffTable(dim, box), CoeffTable(dim, box)
    limbs = data.draw(st.integers(1, 2))
    fill, ceiling = _random_fill(data, (limbs, *fused.shape), full)
    for table in (fused, single):
        table.data, table.ceiling = fill.copy(), ceiling
    fused.class_pass(v, w)
    assert int(fused.data.max()) <= fused.ceiling < _WORD
    for _ in range(w):
        single.class_pass(v, 1)
        assert int(single.data.max()) <= single.ceiling < _WORD
    assert fused.cells == single.cells


def _group(box, a):
    # the primitive vectors whose first axis with 2 v_i > n_i is a
    vecs = primitive_array(len(box), box, sum(box))
    over = 2 * vecs > np.array(box)
    return vecs[over.any(axis=1) & (over.argmax(axis=1) == a)]


def _slab_adds(values, vecs, weights):
    # the reference: one slab add T[e] += w T[e - v] per vector, in sequence
    for v, w in zip(vecs.tolist(), weights.tolist()):
        dst = tuple(slice(c, None) for c in v)
        src = tuple(slice(0, n - c) for c, n in zip(v, values.shape))
        values[dst] += w * values[src]
    return values


@settings(max_examples=150, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 4), min_size=2, max_size=4).map(tuple),
       full=st.booleans(), past_limit=st.booleans())
def test_group_product_equals_sequential_slab_adds(data, box, full, past_limit):
    # a random or saturated table of 1-3 limbs, and a random subset of one axis
    # group; past_limit takes the whole group and lowers the exact-float limit
    # so that each product stays below it but the sums across k go beyond it
    dim = len(box)
    a = data.draw(st.sampled_from([i for i, b in enumerate(box) if b] or [0]))
    group = _group(box, a)
    if not past_limit:
        keep = data.draw(st.lists(st.booleans(), min_size=len(group), max_size=len(group)))
        group = group[np.array(keep, dtype=bool)] if len(group) else group
    vecs = group
    assume(len(vecs))
    weights = class_weights(vecs)
    table = CoeffTable(dim, box)
    limbs = data.draw(st.integers(1, 3))
    table.data, table.ceiling = _random_fill(data, (limbs, *table.shape), full)
    want = _slab_adds(_values(table), vecs, weights)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if past_limit:
            heaviest = max(int(weights[vecs[:, a] == k].sum()) for k in vecs[:, a].tolist())
            monkeypatch.setattr(exact, "_FLOAT_EXACT", heaviest << (exact._LIMB_BITS + 1))
        table._one_step(a, vecs, weights)
    assert int(table.data.max()) <= table.ceiling < _WORD
    assert table.cells == want.ravel().tolist()


def test_group_product_normalizes_at_2_pow_53():
    # group 0 of (1, 1) is (1, 0) and (1, 1), of weights 1 and 2, both at k = 1:
    # a ceiling of ceil(2^53 / 3) makes the product of k reach 2^53, one below
    # does not
    vecs = _group((1, 1), 0)
    assert vecs.tolist() == [[1, 0], [1, 1]]
    edge = -(-(2 ** 53) // 3)
    for ceiling, limbs in ((edge - 1, 1), (edge, 2)):
        table = CoeffTable(2, (1, 1))
        table.data = np.full((1, 2, 2), ceiling, dtype=np.uint64)
        table.ceiling = ceiling
        want = _slab_adds(_values(table), vecs, class_weights(vecs))
        table._one_step(0, vecs, class_weights(vecs))
        assert len(table.data) == limbs  # the edge normalizes first, carrying into a new limb
        assert int(table.data.max()) <= table.ceiling < _WORD
        assert table.cells == want.ravel().tolist() == [ceiling, ceiling, 2 * ceiling, 4 * ceiling]


def test_group_product_sums_in_uint64(monkeypatch):
    # group 0 of (5, 5) has weights 8, 6 and 8 at k = v_0 = 3, 4, 5: it
    # normalizes only when a product of k could reach the exact-float limit,
    # and sums the products in uint64 whatever the limit
    normalized = []
    real_normalize = CoeffTable._normalize

    def normalize(self):
        normalized.append(self)
        real_normalize(self)

    monkeypatch.setattr(CoeffTable, "_normalize", normalize)
    vecs = _group((5, 5), 0)
    assert np.bincount(vecs[:, 0], class_weights(vecs)).tolist() == [0, 0, 0, 8, 6, 8]
    # at the limit 2^36, 8 * (2^32 - 1) fits and 8 * (2^64 - 1) does not; at
    # 2^53, 8 * (2^51 + 1) does not, though 23 * (2^51 + 1) fits the word, and
    # 8 * (2^50 - 1) fits but a cell sums 22 * (2^50 - 1) > 2^53, beyond what
    # float64 holds exactly
    for limit, fill, normalizes in ((1 << 36, 2 ** 32 - 1, 0), (1 << 36, _WORD - 1, 1),
                                    (1 << 53, 2 ** 51 + 1, 1), (1 << 53, 2 ** 50 - 1, 0)):
        monkeypatch.setattr(exact, "_FLOAT_EXACT", limit)
        normalized.clear()
        table = CoeffTable(2, (5, 5))
        table.data = np.full((1, 6, 6), fill, dtype=np.uint64)
        table.ceiling = fill
        want = _slab_adds(_values(table), vecs, class_weights(vecs))
        table._one_step(0, vecs, class_weights(vecs))
        assert len(normalized) == normalizes
        assert int(table.data.max()) <= table.ceiling < _WORD
        assert table.cells == want.ravel().tolist()
    assert 22 * fill > 1 << 53 and max(table.cells) == 23 * fill
    # the group grows the ceiling through _grow: with the limit above 2^64,
    # tiny entries under the loose ceiling 2^62 are not normalized for the
    # products, but the weight-3 group 0 of (1, 1) would take the ceiling to
    # 4 * 2^62, so _grow normalizes first
    monkeypatch.setattr(exact, "_FLOAT_EXACT", 1 << 65)
    vecs = _group((1, 1), 0)
    normalized.clear()
    table = CoeffTable(2, (1, 1))
    table.data = np.full((1, 2, 2), 5, dtype=np.uint64)
    table.ceiling = 1 << 62
    table._one_step(0, vecs, class_weights(vecs))
    assert len(normalized) == 1
    assert table.ceiling == 4 * (2 ** 32 - 1 + 2 ** 30) < _WORD
    assert table.cells == [5, 5, 10, 20]
    # no growth factor beyond what one normalization leaves room for
    with pytest.raises(ValueError, match="2\\^31"):
        table._grow((1 << 31) + 1)


_BLAS_SCRIPT = """
import hashlib
from zonocount import build_table
for dim, n in ((2, 64), (3, 12)):
    print(hashlib.sha256(repr(build_table(dim, (n,) * dim).cells).encode()).hexdigest())
"""


def test_cells_do_not_depend_on_blas_threads():
    # every partial sum of a group product is an integer below 2^53, so the
    # order BLAS sums in cannot change a bit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 2
    assert out[0] == out[1]


def test_class_pass_checks_its_weight():
    table = CoeffTable(3, (2, 2, 2))
    for w in (0, 3, 8):
        with pytest.raises(ValueError, match="power of two"):
            table.class_pass((1, 1, 1), w)
    with pytest.raises(TypeError):
        table.class_pass((1, 1, 1), 2.0)
    table.class_pass((1, 1, 1), np.int64(4))  # numpy ints as from class_weights
    # (1 - x^v)^(-4) = 1 + 4 x^v + C(5, 2) x^2v + ...
    assert [table.coefficient((k, k, k)) for k in range(3)] == [1, 4, 10]


def test_build_table_makes_one_pass_per_vector(monkeypatch):
    # every primitive vector is applied exactly once: by class_pass when 2v
    # fits in the box, else in the group product of the first axis a with
    # 2 v_a > n_a, in the order build_table visits them
    calls, groups = [], []
    real_pass, real_group = CoeffTable.class_pass, CoeffTable._one_step

    def spy_pass(self, v, w):
        calls.append((tuple(v), w))
        return real_pass(self, v, w)

    def spy_group(self, a, vecs, weights):
        groups.append((a, list(zip(map(tuple, vecs.tolist()), weights.tolist()))))
        return real_group(self, a, vecs, weights)

    monkeypatch.setattr(CoeffTable, "class_pass", spy_pass)
    monkeypatch.setattr(CoeffTable, "_one_step", spy_group)
    for dim, box in ((2, (5, 3)), (3, (2, 2, 2)), (4, (1, 2, 1, 1))):
        vecs = primitive_array(dim, box, sum(box))
        for reverse in (False, True):
            calls.clear()
            groups.clear()
            if reverse:
                vecs = vecs[::-1]
                exact._build(CoeffTable(dim, box), vecs)
            else:
                build_table(dim, box)
            want = list(zip(map(tuple, vecs.tolist()), class_weights(vecs).tolist()))
            axis = {v: next((i for i, (c, b) in enumerate(zip(v, box)) if 2 * c > b), None)
                    for v, _ in want}
            assert calls == [(v, w) for v, w in want if axis[v] is None]
            assert groups == [(a, [(v, w) for v, w in want if axis[v] == a])
                              for a in range(dim) if a in axis.values()]
            handled = calls + [member for _, members in groups for member in members]
            assert sorted(handled) == sorted(want)
