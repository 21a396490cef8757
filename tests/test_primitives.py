import itertools
import math

import pytest

import zonocount.primitives as primitives
from zonocount import (
    MemoryBudgetError,
    class_weights,
    count_classes_moebius,
    count_primitive_moebius,
    is_primitive,
    primitive_array,
    sign_classes,
    signed_representative,
)


def coords_list(dim, bound):
    return [tuple(v) for v in primitive_array(dim, bound, sum(bound)).tolist()]


def test_is_primitive_examples():
    assert is_primitive((1, 0), 2)
    assert not is_primitive((2, 2), 2)
    assert is_primitive((3, 5, 0), 3)
    assert not is_primitive((0, 0), 2)
    assert is_primitive((1,), 1)
    assert not is_primitive((4,), 1)


def test_is_primitive_validation():
    with pytest.raises(ValueError):
        is_primitive((1, 2, 3), 2)
    with pytest.raises(ValueError):
        is_primitive((-1, 2), 2)
    with pytest.raises(ValueError):
        is_primitive((1,), 0)


def test_enumerate_unit_box():
    vecs = primitive_array(2, (1, 1), 2)
    assert vecs.dtype == "int64" and vecs.shape == (3, 2)
    assert vecs.tolist() == [[0, 1], [1, 0], [1, 1]]
    coords, sign = sign_classes(vecs)
    assert coords.tolist() == [[0, 1], [1, 0], [1, 1], [1, 1]]
    assert sign.tolist() == [0, 0, 0, 1]


def test_enumerate_dim1():
    assert primitive_array(1, (5,), 5).tolist() == [[1]]
    assert primitive_array(1, (0,), 5).shape == (0, 1)
    assert primitive_array(1, (5,), 0).shape == (0, 1)
    coords, sign = sign_classes(primitive_array(1, (5,), 5))
    assert (coords.tolist(), sign.tolist()) == ([[1]], [0])


def test_enumerate_two_two():
    got = coords_list(2, (2, 2))
    assert got == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_enumerate_validation():
    with pytest.raises(ValueError):
        primitive_array(2, (1, 2, 3), 6)
    with pytest.raises(ValueError):
        primitive_array(2, (-1, 2), 6)
    with pytest.raises(ValueError):
        primitive_array(2, (1, 2), -1)
    with pytest.raises(ValueError):
        primitive_array(0, (), 1)


def test_lexicographic_order():
    for dim, bound in ((2, (5, 7)), (3, (3, 4, 2))):
        got = coords_list(dim, bound)
        assert got == sorted(got)
        assert len(set(got)) == len(got)


def test_weights_match_nonzero_count():
    vecs = primitive_array(3, (3, 3, 3), 9)
    assert class_weights(vecs).tolist() == [2 ** (sum(1 for c in v if c) - 1)
                                            for v in vecs.tolist()]
    coords, sign = sign_classes(vecs)
    expected = [(tuple(v), j) for v in vecs.tolist()
                for j in range(2 ** (sum(1 for c in v if c) - 1))]
    assert list(zip(map(tuple, coords.tolist()), sign.tolist())) == expected
    # each class has its own signed vector, and a vector's classes are its sign
    # patterns up to an overall sign
    signed = {signed_representative(c, j) for c, j in expected}
    assert len(signed) == len(expected)
    assert all(tuple(-c for c in w) not in signed for w in signed)


def test_moebius_examples():
    assert count_primitive_moebius(2, (2, 2)) == 5
    assert count_primitive_moebius(2, (0, 0)) == 0
    assert count_primitive_moebius(3, (1, 1, 1)) == 7
    assert count_classes_moebius(2, (1, 1)) == 4
    assert count_classes_moebius(2, (0, 0)) == 0
    assert count_classes_moebius(3, (1, 1, 1)) == 13


def test_moebius_matches_enumeration_dim1_dim2():
    for b in range(9):
        assert count_primitive_moebius(1, (b,)) == len(coords_list(1, (b,)))
    for a in range(9):
        for b in range(9):
            assert count_primitive_moebius(2, (a, b)) == len(coords_list(2, (a, b)))


def test_moebius_matches_enumeration_dim3():
    for bound in itertools.product(range(9), repeat=3):
        assert count_primitive_moebius(3, bound) == len(coords_list(3, bound))


def test_moebius_blocks_on_larger_boxes():
    # boxes whose floor(b_i / k) stay constant over long runs of k
    for bound in ((200, 37), (97, 0), (60, 45, 7), (12, 9, 10, 11)):
        assert count_primitive_moebius(len(bound), bound) == len(coords_list(len(bound), bound))

    def mu(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out

    assert primitives._mobius_upto(3000).tolist() == [0] + [mu(k) for k in range(1, 3001)]


def test_moebius_sieve_over_budget_raises(monkeypatch):
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(10 ** 6))
    assert count_primitive_moebius(2, (10 ** 5, 3)) == count_primitive_moebius(2, (3, 10 ** 5))
    for count in (count_primitive_moebius, count_classes_moebius):
        with pytest.raises(MemoryBudgetError, match="Moebius sieve up to 1000000"):
            count(2, (10 ** 6, 0))


def test_memory_budget_must_be_positive(monkeypatch):
    # a budget below one byte would refuse every allocation: it is named as invalid instead
    for raw in ("0", "-5", "not-a-number"):
        monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", raw)
        with pytest.raises(ValueError, match=f"ZONOCOUNT_MEMORY_BUDGET must be .* {raw!r}"):
            primitives._charge(1, "one byte")
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", "1")
    primitives._charge(1, "one byte")
    with pytest.raises(MemoryBudgetError, match="two bytes"):
        primitives._charge(2, "two bytes")


def test_class_count_matches_expansion():
    for dim, top in ((1, 8), (2, 8), (3, 5), (4, 3)):
        for bound in itertools.product(range(top + 1), repeat=dim):
            coords, sign = sign_classes(primitive_array(dim, bound, sum(bound)))
            assert count_classes_moebius(dim, bound) == len(coords) == len(sign)


def test_weight_sum_over_interior_vectors():
    # all-positive vectors have weight 2^(d-1), so the weighted count collapses
    for dim, m in ((2, 5), (3, 4)):
        vecs = primitive_array(dim, (m,) * dim, dim * m)
        interior = vecs[(vecs > 0).all(axis=1)]
        assert len(sign_classes(interior)[0]) == 2 ** (dim - 1) * len(interior)


def test_l1_cut_matches_box_filter():
    # the l1 cut against a plain filter of the whole box, on balls and on boxes
    # that stick out of the ball
    for dim, bound, l1 in ((1, (7,), 0), (1, (7,), 7), (2, (0, 0), 0), (2, (9, 9), 9),
                           (3, (6, 6, 6), 6), (4, (0, 0, 0, 0), 0), (4, (5, 5, 5, 5), 5),
                           (2, (3, 8), 6), (3, (2, 5, 1), 4), (3, (4, 4, 4), 20)):
        via_l1 = primitive_array(dim, bound, l1)
        assert via_l1.shape == (len(via_l1), dim)
        via_box = [v for v in itertools.product(*(range(b + 1) for b in bound))
                   if sum(v) <= l1 and math.gcd(*v) == 1]
        assert [tuple(v) for v in via_l1.tolist()] == via_box
    # d = 1 at a sampler-sized radius: the one primitive vector, without the segment
    big = primitive_array(1, (10 ** 9,), 10 ** 9)
    assert big.tolist() == [[1]] and big.dtype == "int64"
