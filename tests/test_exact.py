import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
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
    diameter_numerators,
    occurrence_numerators,
    primitive_rows,
    zon_coefficient,
)
from zonocount.cli import main as cli_main

Z2_DIAG = [1, 3, 10, 34, 109, 331, 965]
Z3_DIAG = [1, 11, 170, 2458]


def _rows64(dim, box):
    # the rows, norms and weights of the primitive vectors of the box, as
    # build_table enumerates them
    return primitive_rows(dim, box, sum(box), np.int64)


def _passes(table, vecs, weights):
    # the pass DP, the oracle the Euler engine replaced: multiply the table by
    # the factor (1 - x^v)^(-w_v) of every row v, in the order given
    for v, w in zip(vecs.tolist(), weights.tolist()):
        table.class_pass(v, w)
    return table


def _pass_table(dim, box):
    # Zon_d over the box by the pass DP over the primitive rows
    vecs, _, weights = _rows64(dim, box)
    return _passes(CoeffTable(dim, box), vecs, weights)


def _cells(table):
    # every coefficient of the table, flat in row-major order, as Python ints
    # assembled from the limbs here, independently of CoeffTable._sum
    limbs = (limb.astype(object) << (32 * i) for i, limb in enumerate(table.data))
    return sum(limbs).ravel().tolist()


def _cumulative(dim, n):
    # the zonotopes whose bounding box fits inside [0, n]^d, as count --cumulative reads them
    box = (n,) * dim
    return exact.shared_table(dim, box).total(box)


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
    # the pass DP in either order of the factors gives the Euler engine's table
    for dim, bound in ((2, (4, 4)), (3, (2, 2, 2))):
        vecs, _, weights = _rows64(dim, bound)
        want = _cells(build_table(dim, bound))
        assert _cells(_passes(CoeffTable(dim, bound), vecs, weights)) == want
        assert _cells(_passes(CoeffTable(dim, bound), vecs[::-1], weights[::-1])) == want


@settings(max_examples=60, deadline=None)
@given(box=st.lists(st.integers(0, 12), min_size=1, max_size=2).map(tuple)
       | st.lists(st.integers(0, 5), min_size=3, max_size=3).map(tuple)
       | st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple))
@example(box=(0, 7, 0))
@example(box=(3, 0, 2, 1))
def test_table_equals_the_pass_oracle(box):
    # random boxes up to d = 4, zero axes included, in every axis order
    assert _cells(build_table(len(box), box)) == _cells(_pass_table(len(box), box))


def test_cumulative():
    assert _cumulative(2, 0) == 1
    assert _cumulative(2, 1) == 6
    assert _cumulative(1, 5) == 6
    values = [_cumulative(2, n) for n in range(7)]
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


def test_table_data_must_be_uint64_limbs_of_the_box():
    # data of another shape or type is refused when the table is made, not
    # read wrong or failed on later
    for data in (np.ones((1, 2, 2), np.uint64), np.ones((0, 4, 4), np.uint64),
                 np.ones((1, 4, 4)), np.ones((1, 4, 4), np.int64), np.ones((4, 4), np.uint64),
                 np.ones((1, 4, 4, 1), np.uint64), [[[1] * 4] * 4]):
        with pytest.raises(ValueError, match=r"a uint64 array of shape \(k >= 1, \*\(4, 4\)\)"):
            CoeffTable(2, (3, 3), data)
    assert CoeffTable(2, (3, 3), np.ones((2, 4, 4), np.uint64)).total() == 16 * (1 + 2 ** 32)


def test_diameter_mean_examples():
    assert diameter_numerators(2, 1).mean == Fraction(4, 3)
    assert diameter_numerators(2, 2).mean == Fraction(2)
    assert diameter_numerators(2, 3).mean == Fraction(42, 17)
    assert diameter_numerators(2, 4).mean == Fraction(314, 109)
    assert diameter_numerators(3, 1).mean == Fraction(19, 11)
    for k in (1, 2, 5):
        assert diameter_numerators(1, k).mean == 1
    with pytest.raises(ValueError):
        diameter_numerators(2, 0)


def test_occurrence_moment_examples():
    for dim, n, v0, want in ((2, 1, (1, 1), (Fraction(1, 3), Fraction(2, 9))),
                             (2, 2, (1, 1), (Fraction(2, 5), Fraction(11, 25))),
                             (2, 2, (2, 1), (Fraction(1, 10), Fraction(9, 100))),
                             (1, 3, (1,), (Fraction(3), Fraction(0)))):
        pair = occurrence_numerators(dim, n, v0)
        assert (pair.mean, pair.variance) == want
    assert occurrence_numerators(2, 1, (1, 0)).mean == Fraction(1, 3)


def test_occurrence_validation():
    with pytest.raises(ValueError):
        occurrence_numerators(2, 2, (2, 2))  # not primitive
    with pytest.raises(ValueError):
        occurrence_numerators(2, 1, (1, 2))  # exceeds bound
    with pytest.raises(TypeError):  # not truncated to (1, 1)
        occurrence_numerators(2, (3, 3), (1.5, 1))


def test_coordinates_are_integers_not_truncated():
    # a float is refused rather than read as its floor; numpy integers are integers
    with pytest.raises(TypeError):
        zon_coefficient(2, (2.5, 3))
    with pytest.raises(TypeError):
        _cumulative(2, 2.5)
    assert zon_coefficient(2, np.int64(3)) == zon_coefficient(2, (np.int64(3), 3)) == Z2_DIAG[3]
    assert occurrence_numerators(2, np.int64(3), np.array([1, 1])) == \
        occurrence_numerators(2, 3, (1, 1))


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
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(8 * 11 * 11 - 1))
    with pytest.raises(MemoryBudgetError):
        CoeffTable(2, (10, 10))
    # a bare one-limb table fits; the build's plan, its digit rows with the
    # kernel and the staging of its largest block product, does not
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(8 * 11 * 11))
    CoeffTable(2, (10, 10))
    with pytest.raises(MemoryBudgetError, match="in 1 limbs, built in 1 limbs of 4[0-9] bits with "
                                                "its kernel and block staging"):
        build_table(2, (10, 10))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        CoeffTable(2, (2, 2))


def test_memory_guard_runs_before_enumeration(monkeypatch):
    # neither the build's kernel and rows nor the diameter's primitive
    # vectors are made for a box the table guard refuses
    def refuse(*args):
        raise AssertionError("worked on a box the table guard refuses")

    for name in ("primitive_rows", "_euler_kernel", "_extend"):
        monkeypatch.setattr(exact, name, refuse)
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
                assert _cumulative(dim, box[0]) == fresh.total()
        elif kind == "diameter":
            assert diameter_numerators(dim, box[0]) == _cold(diameter_numerators, dim, box[0])
        else:
            assert occurrence_numerators(dim, box, v0) == _cold(occurrence_numerators, dim, box, v0)
        assert all(c <= b for c, b in zip(box, exact._SHARED[dim].bound))
        # a build_table result is its caller's own: changing it leaves the shared one alone
        shared = exact.shared_table(dim, box)
        before = _cells(shared)
        fresh.class_pass((1,) + (0,) * (dim - 1), 1)
        assert fresh is not shared and _cells(shared) == before


def _largest_charge(monkeypatch, dim, box):
    # the largest charge the plan of a build of box makes
    needs = []
    with monkeypatch.context() as m:
        m.setattr(exact, "_charge", lambda need, what: needs.append(need))
        exact._plan(dim, box)
    return max(needs)


def test_shared_table_hit_is_charged_like_a_build(monkeypatch):
    # the cached (40, 40) table against a request for (3, 3)
    exact._SHARED.clear()
    want = build_table(2, (3, 3)).coefficient((3, 3))
    big = exact.shared_table(2, (40, 40))
    charge = _largest_charge(monkeypatch, 2, (3, 3))
    assert charge < 8 * len(big.data) * 41 * 41
    # a budget that fits the build of the requested box: a hit, although the
    # cached table's own build would be refused
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge))
    assert zon_coefficient(2, (3, 3)) == want
    assert exact.shared_table(2, (3, 3)) is big
    # one byte less: the error a cold build of (3, 3) raises, naming its
    # staging; nothing is built and the cached table stays
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge - 1))
    with pytest.raises(MemoryBudgetError, match="16 cells in 1 limbs, .* block staging") as hit:
        zon_coefficient(2, (3, 3))
    with pytest.raises(MemoryBudgetError) as cold:
        _cold(zon_coefficient, 2, (3, 3))
    assert str(hit.value) == str(cold.value) and exact._SHARED[2] is big
    # below the one-limb table: its cells are named
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "100")
    with pytest.raises(MemoryBudgetError, match="table of 16 cells in 1 limbs \\("):
        zon_coefficient(2, (3, 3))
    assert exact._SHARED[2] is big


def test_shared_hit_raises_like_a_cold_build(monkeypatch):
    # (10, 10) is refused for its staging under 2,704 bytes, cold or after a
    # build of (12, 12) that would answer it
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "2704")
    with pytest.raises(MemoryBudgetError, match="staging") as cold:
        _cold(zon_coefficient, 2, (10, 10))
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET")
    exact._SHARED.clear()
    zon_coefficient(2, (12, 12))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "2704")
    with pytest.raises(MemoryBudgetError) as hit:
        zon_coefficient(2, (10, 10))
    assert str(hit.value) == str(cold.value)


def test_shared_hit_plans_once_per_budget_setting(monkeypatch):
    # a cold call plans its box once, for itself and its build; a hit under
    # an unchanged budget setting plans nothing, and neither does a build of
    # a box planned under it; a budget lowered between two calls raises what
    # a cold build raises; set back, the hit plans nothing again
    exact._SHARED.clear()
    exact._planned.cache_clear()
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    plans = []
    plan = exact._plan
    monkeypatch.setattr(exact, "_plan", lambda dim, bt: plans.append(bt) or plan(dim, bt))
    table = exact.shared_table(2, (10, 10))
    assert plans == [(10, 10)]
    for box in [(10, 10), (10, 10), (3, 3)]:
        assert exact.shared_table(2, box) is table
    assert zon_coefficient(2, (3, 3)) == table.coefficient((3, 3))
    assert plans == [(10, 10), (3, 3)]
    for box in [(10, 10), (3, 3)]:  # planned under this setting: built, never cached
        built = build_table(2, box)
        assert built is not table and built.coefficient(box) == table.coefficient(box)
    assert plans == [(10, 10), (3, 3)]
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "2704")
    with pytest.raises(MemoryBudgetError, match="staging") as hit:
        exact.shared_table(2, (10, 10))
    with pytest.raises(MemoryBudgetError) as cold:
        _cold(exact.shared_table, 2, (10, 10))
    with pytest.raises(MemoryBudgetError) as built:
        build_table(2, (10, 10))
    assert str(hit.value) == str(cold.value) == str(built.value) and exact._SHARED[2] is table
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET")
    del plans[:]
    assert exact.shared_table(2, (10, 10)) is table and exact.shared_table(2, (3, 3)) is table
    assert plans == []


def test_plan_limbs_are_not_monotone_in_the_box(monkeypatch):
    # the corner limbs of (1, 133) are 2 and those of (2, 133) 1, but the
    # digit rows and kernel the plan charges per cell outweigh the extra
    # limb, so the larger box charges more; a hit still plans its own box,
    # never one that merely covers it
    small, big = (1, 133), (2, 133)
    assert (exact._plan(2, small), exact._plan(2, big)) == (2, 1)
    assert _largest_charge(monkeypatch, 2, small) < _largest_charge(monkeypatch, 2, big)
    exact._SHARED.clear()
    exact._planned.cache_clear()
    planned = []
    real_plan = exact._plan
    monkeypatch.setattr(exact, "_plan", lambda dim, bt: planned.append(bt) or real_plan(dim, bt))
    table = exact.shared_table(2, big)
    assert exact.shared_table(2, small) is table
    assert planned == [big, small]


def test_warm_diameter_call_enumerates_nothing(monkeypatch):
    # the box's primitive vectors are enumerated once per (dim, n): a warm
    # call enumerates nothing and gives the same numerators
    exact._diameter_terms.cache_clear()
    cold = {(dim, n): diameter_numerators(dim, n) for dim, n in ((2, 8), (3, 4), (1, 5), (2, 3))}
    assert cold[(2, 3)].weighted == brute_force_count(2, (3, 3)).direction_count_sum

    def refuse(*args):
        raise AssertionError("a warm diameter call enumerated the box")

    monkeypatch.setattr(exact, "primitive_rows", refuse)
    for (dim, n), pair in cold.items():
        assert diameter_numerators(dim, n) == pair


def test_diameter_terms_hold_one_large_box_at_a_time():
    # the terms of boxes of 2^16 primitive vectors or more are kept one box
    # at a time, every miss letting the latest go first; the smaller boxes
    # keep their LRU of 16
    exact._diameter_terms.cache_clear()
    small = exact._diameter_terms(2, 8)
    previous = None
    for n in (330, 335, 340, 345):
        weights, cells = exact._diameter_terms(2, n)
        assert len(weights) >= 1 << 16
        latest = weakref.ref(cells[0])
        del weights, cells
        assert previous is None or previous() is None, n
        previous = latest
    assert exact._diameter_terms(2, 345)[1][0] is previous()
    assert exact._diameter_terms(2, 8) is small
    info = exact._diameter_terms.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 5, 16, 2)


def test_diameter_enumeration_is_charged_before_it_runs(monkeypatch):
    # 3d + 2 words per cell of the box (one row at d = 1): a budget one byte
    # short refuses the enumeration by name before it starts
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(exact, "primitive_rows", refuse)
    for dim, n, need in ((2, 3, 8 * 8 * 4 ** 2), (3, 2, 8 * 11 * 3 ** 3), (1, 10 ** 9, 8 * 5)):
        exact._diameter_terms.cache_clear()
        monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(need - 1))
        with pytest.raises(MemoryBudgetError, match=rf"primitive vectors of \[0, {n}\]\^{dim} "):
            exact._diameter_terms(dim, n)
        monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(need))
        with pytest.raises(AssertionError, match="enumerated"):
            exact._diameter_terms(dim, n)


@pytest.mark.parametrize("dim, n", [(2, 300), (3, 40), (4, 16), (6, 5), (8, 3), (10, 2)])
def test_diameter_charge_bounds_the_enumeration_peak(monkeypatch, dim, n):
    # what the enumeration holds at its peak, measured, is within its charge
    charged = []
    monkeypatch.setattr(exact, "_charge", lambda need, what: charged.append(need))
    exact._diameter_terms.__wrapped__(dim, n)  # a first run also fills numpy's own caches
    tracemalloc.start()
    try:
        exact._diameter_terms.__wrapped__(dim, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 2 and peak <= charged[-1] + 16 * 1024, (peak, charged)


def _ask(dim, box, kind, v0):
    if kind == "coefficient":
        return zon_coefficient(dim, box)
    if kind == "total":
        return exact.shared_table(dim, box).total(box)
    if kind == "diameter":
        return diameter_numerators(dim, box[0])
    return occurrence_numerators(dim, box, v0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MemoryBudgetError as exc:
        return f"raised {exc}"


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(st.tuples(_shared_request(), st.none() | st.integers(100, 20000)),
                         min_size=1, max_size=8))
def test_shared_table_raises_like_a_cold_build(requests):
    # whatever came before, a request under any budget raises exactly when a
    # cold build of its box raises, with the same message
    exact._SHARED.clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for request, budget in requests:
            if budget is None:
                monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
            else:
                monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(budget))
            assert _outcome(_ask, *request) == _outcome(_cold, _ask, *request)


_GROW_SIDE = {1: 30, 2: 12, 3: 6, 4: 3, 5: 2}  # the largest box side drawn per dimension


@st.composite
def _growth_chain(draw):
    # a box and two to four boxes around it, each around the last, in
    # dimensions 1-5, rectangles and zero axes included
    dim = draw(st.integers(1, 5))
    side = _GROW_SIDE[dim]
    boxes = [draw(st.tuples(*[st.integers(0, side)] * dim))]
    for _ in range(draw(st.integers(1, 3))):
        boxes.append(tuple(draw(st.integers(b, side)) for b in boxes[-1]))
    return dim, boxes


@settings(max_examples=40, deadline=None)
@given(chain=_growth_chain())
@example(chain=(2, [(5, 5), (5, 7), (12, 7)]))
@example(chain=(3, [(0, 0, 0), (0, 3, 0), (4, 3, 2)]))
def test_grown_tables_equal_cold_builds(chain):
    # every table of a chain of growths equals a build of its box cell for
    # cell and in its packed limbs, whatever the work rule would pick
    dim, boxes = chain
    table = build_table(dim, boxes[0])
    for box in boxes[1:]:
        table = exact._grow(table, box)
        cold = build_table(dim, box)
        assert table.bound == cold.bound and table.data.shape == cold.data.shape
        assert np.array_equal(table.data, cold.data), box


@st.composite
def _permuted_chain(draw):
    # a box of two to four axes of length up to 6, zero axes included, and
    # one or two boxes around it, each around the last
    dim = draw(st.integers(2, 4))
    boxes = [draw(st.tuples(*[st.integers(0, 6)] * dim))]
    for _ in range(draw(st.integers(1, 2))):
        boxes.append(tuple(draw(st.integers(b, 6)) for b in boxes[-1]))
    return dim, boxes


def _charged(call, *args):
    # what call(*args) returns, with every charge it makes, none refused
    needs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_charge", lambda need, what: needs.append(need))
        return call(*args), needs


@settings(max_examples=25, deadline=None)
@given(chain=_permuted_chain())
@example(chain=(4, [(5, 5, 5, 5), (6, 6, 6, 6)]))
@example(chain=(3, [(0, 5, 1), (3, 5, 1), (6, 6, 2)]))
@example(chain=(2, [(1, 0), (3, 4)]))
def test_builds_commute_with_axis_permutations(chain):
    # every box is taken in the axis order it is asked in: for every
    # permutation p of the axes, the build of p(box) is the build of box
    # with its axes permuted, byte for byte, its plan makes the same
    # charges from the same float corner bound, and a chain of growths from
    # it is weighed, charged and grown alike
    dim, boxes = chain
    plans = [_charged(exact._plan, dim, box) for box in boxes]
    bits = [exact._corner_bits(tuple(b for b in box if b)) for box in boxes]
    tables, weighed = [build_table(dim, boxes[0])], []
    for box, (limbs, _) in zip(boxes[1:], plans[1:]):
        weighed.append(_charged(exact._grows, tables[-1], box, limbs))
        tables.append(exact._grow(tables[-1], box))
    for p in itertools.permutations(range(dim)):
        asked = [tuple(box[i] for i in p) for box in boxes]
        assert [_charged(exact._plan, dim, box) for box in asked] == plans, p
        assert [exact._corner_bits(tuple(b for b in box if b)) for box in asked] == bits, p
        table = build_table(dim, asked[0])
        for i, want in enumerate(tables):
            if i:
                assert _charged(exact._grows, table, asked[i], plans[i][0]) == weighed[i - 1], p
                table = exact._grow(table, asked[i])
            want = want.data.transpose(0, *(1 + np.array(p)))
            assert (table.data.shape, table.data.tobytes()) == (want.shape, want.tobytes()), p


def test_growth_leaves_a_handed_out_table_alone():
    # a table handed out before a growth keeps its box and cells: the
    # growth makes a new table, which takes its place
    exact._SHARED.clear()
    old = exact.shared_table(2, (40, 40))
    before = _cells(old)
    grown = exact.shared_table(2, (45, 45))
    assert grown is not old and exact._SHARED[2] is grown
    assert old.bound == (40, 40) and _cells(old) == before
    assert _cells(grown) == _cells(build_table(2, (45, 45)))


def test_growth_refused_by_its_charge_builds_cold(monkeypatch):
    # a budget that fits a cold build of (91, 91) but not the growth from
    # (80, 80), which holds the old table beside its digit rows: the cached
    # table is dropped and the box is built, with the same cells
    exact._SHARED.clear()
    old = exact.shared_table(2, (80, 80))
    charge = _growth_charge(monkeypatch, old, (91, 91))
    plan = _largest_charge(monkeypatch, 2, (91, 91))
    assert plan < charge
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge - 1))
    built = []
    build = exact.build_table
    monkeypatch.setattr(exact, "build_table", lambda dim, bt: built.append(bt) or build(dim, bt))

    grow = exact._grow

    def refuse(table, bt):
        # a build grows too, from its seed: only a growth of the cached table is refused
        if table is old:
            raise AssertionError("a refused growth grew")
        return grow(table, bt)

    monkeypatch.setattr(exact, "_grow", refuse)
    table = exact.shared_table(2, (91, 91))
    assert built == [(91, 91)] and exact._SHARED[2] is table and table.bound == (91, 91)
    monkeypatch.undo()
    assert _cells(table) == _cells(build_table(2, (91, 91)))
    # under the growth's own charge it grows
    exact._SHARED.clear()
    exact.shared_table(2, (80, 80))
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(charge))
    assert exact._grows(exact._SHARED[2], (91, 91), exact._plan(2, (91, 91)))


def test_work_rule_builds_cold_where_growth_loses():
    # the growth runs one full-dimensional step per axis: from d = 5 on, and
    # on the smallest boxes, that is more work than a build; at d = 2 and
    # d = 3 a growth by a few rows is less.  (3, 3) -> (4, 4) and d = 5
    # 4 -> 5 multiply fewer pairs times cells than a build but make more
    # block products; d = 2 50 -> 91 the other way round
    def grows(old, new):
        return exact._grows(build_table(len(old), old), new, exact._plan(len(new), new))

    for old, new in [((2,) * 8, (3,) * 8), ((2,) * 6, (3,) * 6), ((3,) * 5, (4,) * 5),
                     ((1, 1), (2, 2)), ((6, 6), (12, 12)), ((5,) * 3, (16,) * 3), ((3,), (9,)),
                     ((3, 3), (4, 4)), ((4,) * 5, (5,) * 5), ((50, 50), (91, 91))]:
        assert not grows(old, new), (old, new)
    for old, new in [((80, 80), (91, 91)), ((40, 40), (45, 45)), ((14,) * 3, (16,) * 3),
                     ((300, 10), (300, 40))]:
        assert grows(old, new), (old, new)


@pytest.mark.parametrize("old, box", [
    *[(None, (n,) * 2) for n in (1, 2, 3, 4, 8, 16, 24, 32, 33, 48, 64, 96)],
    *[(None, (n,) * 3) for n in (1, 2, 3, 5, 8, 12, 16)],
    *[(None, (n,) * 4) for n in (1, 2, 3, 4, 5, 6)], *[(None, (n,) * 5) for n in (2, 4)],
    (None, (3,) * 6), (None, (0, 5, 1000)), (None, (3, 16, 200)), (None, (200, 16, 3)),
    (None, (1, 133)), (None, (300, 10)), ((30, 30), (50, 50)), ((8, 8), (96, 96)),
    ((5,) * 3, (8,) * 3), ((4,) * 4, (6,) * 4), ((5,) * 4, (6,) * 4), ((300, 10), (300, 40)),
    ((0, 3), (7, 9))],
    ids=lambda box: "cold" if box is None else "x".join(map(str, box)))
def test_work_counts_the_block_products_run(monkeypatch, old, box):
    # _grows weighs a growth against a build by _work's counts, taken from
    # the boxes alone: they equal the (source row, kernel row) pairs times
    # the cells of a hyperplane, and the block products times the tile
    # offsets of a hyperplane, that the steps of a build (old None) or a
    # growth from old run
    real, ran = exact._toeplitz_add, [0, 0]

    def counted(src, kern, targets, first):
        pairs = sum(max(0, min(len(src), targets - j) - max(first - j, 0)) for j in range(len(kern)))
        ran[0] += pairs * math.prod(src.shape[2:])
        ran[1] += len(exact._tiling(src.shape[2:])[4])
        return real(src, kern, targets, first)

    table = None if old is None else build_table(len(old), old)
    monkeypatch.setattr(exact, "_toeplitz_add", counted)
    if table is None:
        build_table(len(box), box)
    else:
        exact._grow(table, box)
    start = exact._seed(box) if old is None else old
    assert tuple(ran) == exact._work(exact._growth(start, box))


def _refuse_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused build did work")

    monkeypatch.setattr(exact, "primitive_rows", refuse)
    monkeypatch.setattr(CoeffTable, "class_pass", refuse)
    for name in ("_extend", "_euler_kernel", "_toeplitz_add"):
        monkeypatch.setattr(exact, name, refuse)


@pytest.mark.parametrize("dim, n", [(3, 24), (4, 10)])
def test_refused_build_fails_before_any_work(monkeypatch, dim, n):
    # a budget that fits the planned limbs but not the build's digit rows,
    # kernel and staging: refused before the kernel and the first block
    # product, built or shared
    box = (n,) * dim
    limbs = exact._plan(dim, box)
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(8 * limbs * (n + 1) ** dim))
    _refuse_work(monkeypatch)
    for call in (build_table, exact.shared_table):
        with pytest.raises(MemoryBudgetError, match=f"in {limbs} limbs, built in .* block staging"):
            call(dim, box)


def test_width_refusal_names_the_box_as_given(monkeypatch):
    # (2^26, 2^25) fits a budget of 10^30 bytes, but its kernel rows sum past
    # what float64 products hold exactly at any limb width: the plan refuses
    # it before any kernel or block product, built or shared, and names the
    # box in the axis order it was asked in
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(10 ** 30))
    _refuse_work(monkeypatch)
    for call in (build_table, exact.shared_table):
        with pytest.raises(ValueError, match=r"^box \(67108864, 33554432\) in dim 2: its kernel "
                                             r"rows sum past what float64 products hold exactly$"):
            call(2, (2 ** 26, 2 ** 25))


def test_default_budget_refuses_staging_up_front(monkeypatch, capsys):
    # d = 4, n = 54, the smallest d = 4 cube refused under the default 2 GB,
    # needs its digit rows, kernel and block staging above it; the plan
    # refuses it before any work, where a build would run for many minutes
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    exact._plan(4, (53,) * 4)
    _refuse_work(monkeypatch)
    assert cli_main(["count", "--dim", "4", "--n", "54"]) == 2
    err = capsys.readouterr().err
    assert "block staging" in err and "exceeds budget" in err and "Traceback" not in err


def test_default_budget_refusal_thresholds(monkeypatch):
    # the first cube the default 2 GB refuses, d = 2 .. 8: refused by the
    # plan's charge for the build's digit rows, kernel and staging, the cube
    # one smaller admitted.  A change to the plan or to a step's kernel or
    # staging that moves one of these must restate it here
    monkeypatch.delenv("ZONOCOUNT_MEMORY_BUDGET", raising=False)
    for dim, n in zip(range(2, 9), (1876, 180, 54, 25, 14, 10, 7)):
        exact._plan(dim, (n - 1,) * dim)
        with pytest.raises(MemoryBudgetError, match="staging"):
            exact._plan(dim, (n,) * dim)


def test_staging_charges_no_gathered_block_for_one_tile():
    # a hyperplane of one tile is gathered as a view: leading axes of length
    # 1, each counted as cut into single hyperplanes, add no buffer
    for c in (129, 1001):
        for sources, targets, limbs in ((1, 1, 1), (4, 7, 3), (64, 127, 2)):
            want = exact._staging((c,), sources, targets, limbs)
            assert exact._staging((1, c), sources, targets, limbs) == want
            assert exact._staging((1, 1, c), sources, targets, limbs) == want


@pytest.mark.parametrize("dim, box", [
    *[(2, (n, n)) for n in (16, 24, 32, 64, 96, 128)],
    *[(3, (n,) * 3) for n in (8, 16, 24)],
    *[(4, (n,) * 4) for n in (4, 6, 10)],
    (2, (40, 7)), (3, (9, 4, 2)), (4, (3, 1, 2, 5)), (2, (100, 0)), (1, (100,)), (3, (0, 0, 0))])
def test_planned_limbs_bound_the_build(dim, box):
    # the corner bound gives at least the limbs a build adds, and on these
    # boxes at most one more
    built = len(build_table(dim, box).data)
    assert built <= exact._plan(dim, box) <= built + 1


def test_planned_limbs_on_cubes():
    # the per-axis t_i are one t on a cube: the limbs step up at the n the
    # single-t bound gave (d = 2 up to 128, d = 3 up to 24, d = 4 up to 10),
    # one step later than 32 bits a limb would, since the top limb holds 64
    for dim, top, steps in ((2, 128, [38, 68, 105]), (3, 24, [15]), (4, 10, [9])):
        limbs = [exact._plan(dim, (n,) * dim) for n in range(1, top + 1)]
        assert limbs == [1 + sum(n >= s for s in steps) for n in range(1, top + 1)], dim


@pytest.mark.parametrize("box, planned", [((1000, 1), 7), ((4000, 1), 17), ((300, 10), 4)])
def test_planned_limbs_bound_long_boxes(box, planned):
    # one t_i per axis: the corner bound takes `planned` words of 32 bits
    # here, where a single t for every axis took 12, 29 and 6; the packed top
    # limb holds the last two words
    assert -(-(int(exact._corner_bits(box)) + 1) // 32) == planned
    assert len(build_table(2, box).data) <= exact._plan(2, box) == planned - 1


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

    monkeypatch.setattr(exact, "primitive_rows", refuse)
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
    assert all(c >= 0 for c in _cells(table))


@pytest.mark.parametrize("dim, box", [
    *[pytest.param(dim, (n,) * dim, id=f"{dim}-{n}")
      for dim, n in ((2, 96), (3, 16), (4, 6), (3, 24), (4, 10), (6, 4), (2, 256), (3, 32), (8, 3),
                     (11, 2), (12, 2))],
    *[pytest.param(3, box, id="3-" + "x".join(map(str, box)))
      for box in ((3, 16, 200), (200, 16, 3), (0, 5, 1000), (1000, 5, 0))]])
def test_plan_charges_the_build_peak(monkeypatch, dim, box):
    # the plan's largest charge, the digit rows with the kernel and the
    # staging of the largest block product, or with the packed table, is at
    # least what the build allocates at its peak; on the last four boxes the
    # first step from the seed runs over length-1 axes, and the longest axis
    # comes last in two of them and first in the other two
    charge = _largest_charge(monkeypatch, dim, box)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_table(dim, box)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= charge


def _growth_charge(monkeypatch, table, box):
    # the charge _grows makes for growing table to box, which must grow it
    needs = []
    with monkeypatch.context() as m:
        m.setattr(exact, "_charge", lambda need, what: needs.append(need))
        assert exact._grows(table, box, exact._plan(table.dim, box))
    return needs[-1]


@pytest.mark.parametrize("old, new", [((80, 80), (91, 91)), ((14,) * 3, (16,) * 3),
                                      ((5,) * 4, (6,) * 4), ((300, 10), (300, 40))])
def test_growth_charges_its_peak(monkeypatch, old, new):
    # the charge of a growth, the old table with the digit rows, kernel and
    # staging of its steps or with the packing, is at least what the growth
    # allocates at its peak beside the old table
    table = build_table(len(old), old)
    charge = _growth_charge(monkeypatch, table, new)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        exact._grow(table, new)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.data.nbytes + peak <= charge


@pytest.mark.parametrize("dim, box, v, w", [
    (2, (96, 96), (1, 2), 2), (3, (16, 16, 16), (1, 1, 1), 4), (4, (6,) * 4, (0, 1, 1, 1), 4),
    (2, (300, 10), (1, 0), 1)])
def test_pass_oracle_charges_its_peak(monkeypatch, dim, box, v, w):
    # the charge class_pass and shifted_add make for their cells as Python
    # ints is at least what they allocate at their peak on a built table
    for op in ("class_pass", "shifted_add"):
        table, src = build_table(dim, box), build_table(dim, box)
        args = (v, w) if op == "class_pass" else (src, v)
        needs = []
        monkeypatch.setattr(exact, "_charge", lambda need, what: needs.append(need))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            getattr(table, op)(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert len(needs) == 1 and peak <= needs[0], op


def test_pass_oracle_refuses_its_ints_before_any_work(monkeypatch):
    # a table driven by hand whose uint64 limbs fit the budget four times
    # over, but whose cells as Python ints do not: both passes are refused
    # before they read a cell, and the table keeps its limbs
    table = build_table(2, (96, 96))
    before = table.data.copy()
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(4 * table.data.nbytes))

    def refuse(*args):
        raise AssertionError("a refused pass did work")

    for name in ("_ints", "_store"):
        monkeypatch.setattr(CoeffTable, name, refuse)
    with pytest.raises(MemoryBudgetError, match="1 arrays of 9.41e\\+03 Python ints of up to"):
        table.class_pass((1, 1), 2)
    with pytest.raises(MemoryBudgetError, match="2 arrays of 9.41e\\+03 Python ints of up to"):
        table.shifted_add(table, (1, 1))
    assert np.array_equal(table.data, before)


def _euler_oracle(box):
    # Z by the Euler operator, independently of the DP (no primitive
    # enumeration, factor order, limbs or floats): applying sum_i x_i d/dx_i
    # to log Zon_d gives |e|_1 Z[e] = sum_{0 < f <= e} H[f] Z[e - f], with
    # H[f] = w(v) |v|_1 for f = g v, v primitive, g = gcd(f).  Cells are
    # walked by total degree, in Python ints, and every division is checked
    shape = tuple(b + 1 for b in box)
    h, z = np.zeros(shape, dtype=object), np.zeros(shape, dtype=object)
    for f in np.ndindex(shape):
        if any(f):
            h[f] = 2 ** (sum(1 for c in f if c) - 1) * (sum(f) // math.gcd(*f))
    cells = sorted(np.ndindex(shape), key=sum)
    z[cells[0]] = 1
    for e in cells[1:]:
        terms = (h[tuple(slice(c + 1) for c in e)] * z[tuple(slice(c, None, -1) for c in e)]).sum()
        value, rest = divmod(terms, sum(e))
        assert rest == 0, e
        z[e] = value
    return z.ravel().tolist()


@pytest.mark.parametrize("dim, box", [
    (2, (64, 64)), (3, (16, 16, 16)), (4, (6, 6, 6, 6)), (2, (9, 25)), (3, (7, 13, 20)),
    (2, (40, 7)), (4, (8,) * 4), (5, (4,) * 5), (6, (3,) * 6)])
def test_table_equals_the_euler_oracle(dim, box):
    # boxes brute force cannot reach, rectangles in any axis order; from
    # d = 4 n = 8 on the block products cut the other axes into tiles of
    # single hyperplanes
    assert _cells(build_table(dim, box)) == _euler_oracle(box)


def test_schedule_takes_every_pair_once_before_its_target_is_read():
    # the block products of _schedule as _toeplitz_add takes them: sources
    # j + 1 - k + i times kernel row k + l land on row j + 1 + i + l while
    # i + l < t, so each block gives kernel row k + l one run of sources;
    # every source is final (at most j), every target row lies in the box and
    # is divided after this step (beyond j), and the runs of each kernel row
    # a cover the sources 0 .. n - a once each
    for n in range(301):
        runs = {a: [] for a in range(1, n + 1)}
        for j, blocks in exact._schedule(n):
            for k, m, t in blocks:
                for l in range(min(m, t)):
                    first, count = j + 1 - k, min(m, t - l)
                    assert 0 <= first and first + count - 1 <= j
                    assert j < first + k + l and first + count - 1 + k + l <= n
                    runs[k + l].append((first, count))
        for a, got in runs.items():
            ends = [0]
            for first, count in sorted(got):
                assert first == ends[-1], (n, a)
                ends.append(first + count)
            assert ends[-1] == n - a + 1, (n, a)


def _slab_adds(src, kern, targets):
    # the reference for _toeplitz_add: out[i + j][e] += K_j[u] src[i][e - u]
    # for every source row i, kernel row j and offset u >= 0 in the box, one
    # slab at a time, in Python ints; kern holds K_j[u] at u, unpadded
    sources, limbs, *other = src.shape
    out = np.zeros((targets, limbs, *other), dtype=object)
    for j in range(len(kern)):
        for i in range(min(sources, targets - j)):
            for u in np.ndindex(*other):
                dst = (i + j, slice(None), *[slice(c, None) for c in u])
                out[dst] += int(kern[(j, *u)]) * src[
                    (i, slice(None), *[slice(n - c) for c, n in zip(u, other)])]
    return out


def _block_product(src, kern, targets, cells=exact._TILE_CELLS, first=0):
    # _toeplitz_add under the tile cap `cells` of the kernel rows K_j[u],
    # kern of shape (rows, *other), laid out as _euler_kernel lays them out
    # under that cap: zeros in front of each other axis, one fewer than the
    # tile has there (_tiling)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(exact, "_TILE_CELLS", cells)
        exact._tiling.cache_clear()
        try:
            tile = exact._tiling(src.shape[2:])[0]
            padded = np.zeros((len(kern), *(n + t - 1 for n, t in zip(src.shape[2:], tile))))
            padded[(slice(None), *[slice(t - 1, None) for t in tile])] = kern
            return exact._toeplitz_add(src, padded, targets, first)
        finally:
            exact._tiling.cache_clear()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), other=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)
       | st.lists(st.integers(1, 13), min_size=1, max_size=2).map(tuple),
       sources=st.integers(1, 4), rows=st.integers(1, 4), limbs=st.integers(1, 2),
       cells=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 128]))
def test_group_product_equals_sequential_slab_adds(data, other, sources, rows, limbs, cells):
    # a block product of random digit rows by random kernel rows, laid out
    # as _euler_kernel lays them out under each tile cap, onto as many
    # targets as a block of _schedule may have, from a first target on as a
    # block that straddles the final rows of a growth sums them: it equals
    # the slab adds onto the targets from the first on, and holds no row
    # for the targets below it, which the caller leaves as they are.  Small
    # tiles cut the other axes at every depth, with short last tiles
    targets = data.draw(st.integers(rows, sources + rows - 1))
    first = data.draw(st.integers(0, targets - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    src = rng.integers(0, 1 << 30, size=(sources, limbs, *other), dtype=np.uint64)
    kern = rng.integers(0, 1 << 12, size=(rows, *other)).astype(float)
    out = _block_product(src, kern, targets, cells, first)
    assert out.dtype == np.uint64 and len(out) == targets - first
    want = _slab_adds(src.astype(object), kern, targets)
    assert out.astype(object).tolist() == want[first:].tolist()


def test_group_product_sums_in_uint64():
    # digits as large as keep each tile's product below 2^53 under a kernel
    # of ones: the sums over tiles, sources and kernel rows go past 2^53,
    # beyond what float64 holds exactly, and stay exact in uint64
    for other in ((40,), (3, 50), (4, 4, 4)):
        cells = math.prod(exact._tiling(other)[0])
        src = np.full((16, 1, *other), ((1 << 53) - 1) // cells, dtype=np.uint64)
        kern = np.ones((16, *other))
        out = _block_product(src, kern, 31)
        want = _slab_adds(src.astype(object), kern, 31)
        assert max(want.ravel()) > 1 << 53, other
        assert out.astype(object).tolist() == want.tolist(), other


@pytest.mark.parametrize("box", [(9, 12), (4, 5, 6), (2, 2, 3, 3), (64, 64)])
def test_kernel_rows_sum_within_the_width_bounds(box):
    # the limb width keeps every product below 2^53 and every accumulator
    # below 2^63 by a bound on the kernel's row sums: check it on the kernel
    # of every step of a build, from the seed along the longest axis
    steps = exact._growth(exact._seed(box), box)
    assert len(steps) == len(box) - 1
    width, _ = exact._digits(box, steps)
    for a, _, now in steps:
        n, other = now[a], [c for i, c in enumerate(now) if i != a]
        kern = exact._euler_kernel((n + 1, *(c + 1 for c in other)))
        sums = [int(s) for s in kern.reshape(n + 1, -1).sum(axis=1).tolist()]
        per = math.prod(1 + 2 * c for c in other)
        assert all(s <= k * per for k, s in enumerate(sums))
        assert max(sums) << width < 1 << 53 and sum(sums) << width < 1 << 63


@pytest.mark.parametrize("width", [3, 5, 8, 17, 24])
def test_narrow_digits_carry_and_divide_exactly(monkeypatch, width):
    # limbs of a few bits: every row's accumulator spans many limbs, so the
    # carries and the top-down divisions cross limbs on small boxes, built
    # or grown; a row is carried and divided over the limbs in use and the
    # ceil((64 - width) / width) its carries reach, 2 at width 24
    real = exact._digits

    def narrow(box, steps=None):
        top, limbs = real(box, steps)
        return width, -(-top * limbs // width)

    monkeypatch.setattr(exact, "_digits", narrow)
    for dim, box, inner in ((2, (20, 20), (13, 17)), (3, (5, 3, 6), (2, 3, 4)),
                            (4, (3,) * 4, (2, 1, 3, 2)), (2, (1, 40), (0, 33))):
        assert _cells(build_table(dim, box)) == _euler_oracle(box)
        assert _cells(exact._grow(build_table(dim, inner), box)) == _euler_oracle(box)


@pytest.mark.parametrize("corrupt", ["low digit", "top limb"])
def test_a_corrupted_accumulator_raises(monkeypatch, corrupt):
    # an accumulator off by one in a digit is no longer t times an integer
    # row (rows t >= 2; row 1 divides by 1 and cannot tell); one with a bit
    # past its top limb overflows: either way the build raises, never
    # returning a table
    real = exact._divide
    for dim, box, t in ((2, (8, 8), 2), (2, (8, 8), 7), (3, (4, 4, 4), 3), (2, (3, 50), 3)):
        def divide(row, at, width, t=t):
            if at == t:
                row[(0 if corrupt == "low digit" else -1, *(0,) * (row.ndim - 1))] += (
                    1 if corrupt == "low digit" else 1 << 62)
            real(row, at, width)

        monkeypatch.setattr(exact, "_divide", divide)
        with pytest.raises(ArithmeticError, match=f"row {t} "):
            build_table(dim, box)


def test_kernel_of_the_tiles_plans_in_small_budgets(monkeypatch):
    # the kernel holds only the negative offsets a tile's matrix reads, so
    # d = 8 n = 4 plans about 54 MB and d = 12 n = 2 about 83 MB
    for dim, n, budget in ((8, 4, 100_000_000), (12, 2, 200_000_000)):
        monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(budget))
        exact._plan(dim, (n,) * dim)


def test_d8_n3_builds_in_a_small_budget(monkeypatch):
    # the plan charges about 31 MB here; with the dense block-Toeplitz
    # matrix of a hyperplane a build charged 1.09 GB, which this budget
    # refuses
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(256 << 20))
    assert build_table(8, (3,) * 8).coefficient((3,) * 8) == 10006435926204956


def test_values_beyond_64_bits():
    # literal values from perfbench/reference.json, recorded by an engine
    # that computed in Python ints
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
    return np.array(_cells(table), dtype=object).reshape(table.shape)


def _assert_packed(table):
    # the layout _pack writes: every limb but the top one below 2^32, and the
    # top one in use unless it is the only one
    assert not (table.data[:-1] >> 32).any()
    assert len(table.data) == 1 or table.data[-1].any()


@settings(max_examples=40, deadline=None)
@given(box=_SMALL_BOXES.filter(any), limbs=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
@example(box=(1, 1, 1, 1), limbs=1, seed=0)
@example(box=(2, 1, 1, 1), limbs=2, seed=1)
@example(box=(2, 2, 1, 1), limbs=1, seed=2)
def test_narrow_limbs_match_brute_force(box, limbs, seed):
    # the pass DP from a table of random entries up to 2^64 - 1 in every
    # limb, one entry of the top limb at 2^64 - 1: the cells outgrow the
    # start limbs and must equal the Python-int product of the start table
    # with Zon_d, stored as packed limbs
    dim = len(box)
    fill = np.random.default_rng(seed).integers(
        0, _WORD - 1, size=(limbs, *(b + 1 for b in box)), dtype=np.uint64, endpoint=True)
    fill[(-1,) + (0,) * dim] = _WORD - 1
    table = CoeffTable(dim, box, fill)
    start = _values(table)
    vecs, _, weights = _rows64(dim, box)
    _passes(table, vecs, weights)
    _assert_packed(table)
    assert len(table.data) > limbs
    zon = _values(build_table(dim, box))
    assert zon[box] == brute_force_count(dim, box).count
    want = np.zeros_like(start)
    for f in itertools.product(*(range(b + 1) for b in box)):
        head = tuple(slice(b - c + 1) for c, b in zip(f, box))
        want[tuple(slice(c, None) for c in f)] += start[f] * zon[head]
    assert _cells(table) == want.ravel().tolist()
    half = tuple(b // 2 for b in box)
    assert table.total(half) == want[tuple(slice(c + 1) for c in half)].sum()


def _saturated(limbs, bound=(3,)):
    # every entry at 2^64 - 1, the most a uint64 word holds
    shape = (limbs, *(b + 1 for b in bound))
    return CoeffTable(len(bound), bound, np.full(shape, _WORD - 1, dtype=np.uint64))


def _random_fill(data, shape, full):
    # entries below 2^64: all at a random top when full, else random up to it
    top = data.draw(st.integers(0, _WORD - 1))
    if full:
        return np.full(shape, top, dtype=np.uint64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True)


def test_narrow_limbs_normalize_at_the_word_limit():
    # entries at 2^64 - 1 grow into new limbs exactly, and are stored packed
    top = _WORD - 1
    value = top + (top << 32)
    table = _saturated(2)
    table.class_pass((1,), 1)  # up to 4 * value, past the 96 bits two packed limbs hold
    assert len(table.data) == 3
    _assert_packed(table)
    assert _cells(table) == [value * (j + 1) for j in range(4)]
    # chain length 1, weight 2: 3 * top needs a second limb
    table = _saturated(1, (1, 1))
    table.class_pass((1, 1), 2)
    assert len(table.data) == 2
    _assert_packed(table)
    assert _cells(table) == [top, top, top, 3 * top]
    # shifted_add of a wider table: the narrower one gains limbs
    shifted = _saturated(1)
    shifted.shifted_add(_saturated(2), (1,))
    assert len(shifted.data) == 3
    _assert_packed(shifted)
    assert _cells(shifted) == [top] + [top + value] * 3


def test_sum_reads_unnormalized_limbs_at_the_word_limit():
    # three limbs, every entry within 2^20 of 2^64 and never normalized: every
    # way the table is read equals the oracle's Python ints
    rng = np.random.default_rng(7)
    table = CoeffTable(2, (3, 4), rng.integers(_WORD - 2 ** 20, _WORD - 1, size=(3, 4, 5),
                                               dtype=np.uint64, endpoint=True))
    values = _values(table)
    rows, cols = np.array([3, 0, 2, 2, 1]), np.array([4, 1, 0, 4, 1])
    picked = [values[e] for e in zip(rows.tolist(), cols.tolist())]
    for weights in ([1] * 5, [7, 0, 1, 2 ** 40, 3], range(1, 10, 2)):
        assert table._sum((rows, cols), weights) == sum(w * t for w, t in zip(weights, picked))
    assert table._sum((rows, cols)) == sum(picked)
    assert table._sum((slice(1, 3), slice(4))) == values[1:3, :4].sum()
    assert table._sum(()) == table.total() == values.sum()
    assert table.total((2, 3)) == values[:3, :4].sum()
    assert [table.coefficient(e) for e in np.ndindex(table.shape)] == values.ravel().tolist()
    assert table._sum((2, 3)) == values[2, 3] > 1 << 128


def test_shifted_add_refuses_another_bound():
    table = CoeffTable(2, (3, 3))
    with pytest.raises(ValueError, match="table bounds differ"):
        table.shifted_add(CoeffTable(2, (3, 2)), (1, 0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
       full=st.booleans())
def test_shifted_add_of_itself_equals_adding_a_copy(data, box, full):
    # self[e] += self[e - v] reads the cells as they were before the add, not
    # the cumulative pass (1 - x^v)^(-1); v may leave the box
    dim = len(box)
    v = data.draw(st.tuples(*[st.integers(0, 4)] * dim).filter(any))
    fill = _random_fill(data, (data.draw(st.integers(1, 2)), *(b + 1 for b in box)), full)
    table, copy, want = (CoeffTable(dim, box, fill.copy()) for _ in range(3))
    want.shifted_add(copy, v)
    table.shifted_add(table, v)
    assert _cells(table) == _cells(want)


def test_narrow_limbs_grow_and_guard(monkeypatch):
    # a built table has the fewest 32-bit limbs that hold its largest cell,
    # the corner, with up to 64 bits in the top limb: Z[40, 40] and
    # Z[16, 16, 16] have 48 and 53 bits, Z[64, 64] 69 and Z[128, 128] 113
    for dim, n, bits, limbs in ((2, 40, 48, 1), (3, 16, 53, 1), (2, 64, 69, 2), (2, 128, 113, 3)):
        box = (n,) * dim
        table = build_table(dim, box)
        assert table.coefficient(box).bit_length() == bits
        assert len(table.data) == limbs
        assert exact._plan(dim, box) in (limbs, limbs + 1)
    # the table and its digit rows fit the budget, the block staging does
    # not: the plan names the limbs before any work; a table driven by hand,
    # which no plan charged, is refused by its pass's charge for its cells
    # as Python ints, although four limbs of the table would fit
    box = (13, 13, 13)
    with monkeypatch.context() as m:
        needs = []
        m.setattr(exact, "_charge", lambda need, what: needs.append(need))
        exact._plan(3, box)
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(max(needs) - 1))
    with monkeypatch.context() as m:
        _refuse_work(m)
        with pytest.raises(MemoryBudgetError, match="in 1 limbs, built in 2 limbs of"):
            build_table(3, box)
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(8 * 65 ** 2 * 4))
    with pytest.raises(MemoryBudgetError, match="1 arrays of 4.22e\\+03 Python ints of up to"):
        _pass_table(2, (64, 64))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
       full=st.booleans())
def test_weighted_pass_equals_repeated_class_passes(data, box, full):
    # a random table, possibly with every entry at one value, and a random
    # primitive v: inside the box with a long chain, with chain length 1, or
    # outside
    dim = len(box)
    v = data.draw(st.tuples(*[st.integers(0, 3)] * dim).filter(lambda u: math.gcd(*u) == 1))
    w = 1 << (sum(1 for c in v if c) - 1)
    fill = _random_fill(data, (data.draw(st.integers(1, 2)), *(b + 1 for b in box)), full)
    fused, single = (CoeffTable(dim, box, fill.copy()) for _ in range(2))
    fused.class_pass(v, w)
    for _ in range(w):
        single.class_pass(v, 1)
    assert _cells(fused) == _cells(single)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), box=st.lists(st.integers(0, 4), min_size=2, max_size=3).map(tuple),
       steps=st.integers(1, 4))
def test_loose_ceiling_steps_equal_python_ints(data, box, steps):
    # a table whose largest entry may sit in any limb, then random cumulative
    # passes: every pass must give the Python-int product
    assume(any(box))
    dim = len(box)
    shape = tuple(b + 1 for b in box)
    tops = data.draw(st.lists(st.sampled_from([0, 1 << 8, 1 << 32]), min_size=1, max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    table = CoeffTable(dim, box, np.stack([
        rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True) for top in tops]))
    want = _values(table)
    for _ in range(steps):
        v = data.draw(st.tuples(*[st.integers(0, 4)] * dim).filter(lambda u: math.gcd(*u) == 1))
        w = 1 << (sum(1 for c in v if c) - 1)
        table.class_pass(v, w)
        s = min([b // c for b, c in zip(box, v) if c])
        for _ in range(w):
            old = want.copy()
            for k in range(1, s + 1):
                want[tuple(slice(k * c, None) for c in v)] += old[
                    tuple(slice(n - k * c) for c, n in zip(v, shape))]
        assert _cells(table) == want.ravel().tolist()


_BLAS_SCRIPT = """
import hashlib
import numpy
from zonocount import build_table
for dim, n in ((2, 64), (2, 96), (3, 12), (3, 16), (4, 6), (4, 10)):
    table = build_table(dim, (n,) * dim)
    cells = [table.coefficient(e) for e in numpy.ndindex(table.shape)]
    print(hashlib.sha256(repr(cells).encode()).hexdigest())
"""


def test_cells_do_not_depend_on_blas_threads():
    # every partial sum of a block product is an integer below 2^53, so the
    # order BLAS sums in cannot change a bit
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 6
    assert out[0] == out[1]


def test_class_pass_checks_its_weight():
    table = CoeffTable(3, (2, 2, 2))
    for w in (0, 3, 8):
        with pytest.raises(ValueError, match="power of two"):
            table.class_pass((1, 1, 1), w)
    with pytest.raises(TypeError):
        table.class_pass((1, 1, 1), 2.0)
    table.class_pass((1, 1, 1), np.int64(4))  # numpy ints as from primitive_rows
    # (1 - x^v)^(-4) = 1 + 4 x^v + C(5, 2) x^2v + ...
    assert [table.coefficient((k, k, k)) for k in range(3)] == [1, 4, 10]


def test_class_pass_refuses_a_zero_vector():
    with pytest.raises(ValueError, match=r"pass vector \(0, 0\) is zero"):
        CoeffTable(2, (3, 3)).class_pass((0, 0), 1)
