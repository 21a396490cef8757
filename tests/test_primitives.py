import itertools

import pytest

from zonocount import (
    count_primitive_moebius,
    enumerate_primitive,
    is_primitive,
    primitive_l1_array,
)


def coords_list(dim, bound):
    return [pv.coords for pv in enumerate_primitive(dim, bound)]


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
    got = list(enumerate_primitive(2, (1, 1)))
    assert [pv.coords for pv in got] == [(0, 1), (1, 0), (1, 1)]
    assert [pv.weight for pv in got] == [1, 1, 2]
    assert [pv.nonzero_count for pv in got] == [1, 1, 2]


def test_enumerate_dim1():
    got = list(enumerate_primitive(1, (5,)))
    assert [(pv.coords, pv.weight) for pv in got] == [((1,), 1)]


def test_enumerate_two_two():
    got = coords_list(2, (2, 2))
    assert got == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_enumeration_is_streaming():
    it = enumerate_primitive(2, (100, 100))
    assert hasattr(it, "__next__")
    assert next(it).coords == (0, 1)


def test_lexicographic_order():
    for dim, bound in ((2, (5, 7)), (3, (3, 4, 2))):
        got = coords_list(dim, bound)
        assert got == sorted(got)
        assert len(set(got)) == len(got)


def test_weights_match_nonzero_count():
    for pv in enumerate_primitive(3, (3, 3, 3)):
        nz = sum(1 for c in pv.coords if c)
        assert pv.nonzero_count == nz
        assert pv.weight == 2 ** (nz - 1)


def test_moebius_examples():
    assert count_primitive_moebius(2, (2, 2)) == 5
    assert count_primitive_moebius(2, (0, 0)) == 0
    assert count_primitive_moebius(3, (1, 1, 1)) == 7


def test_moebius_matches_enumeration_dim1_dim2():
    for b in range(9):
        assert count_primitive_moebius(1, (b,)) == len(coords_list(1, (b,)))
    for a in range(9):
        for b in range(9):
            assert count_primitive_moebius(2, (a, b)) == len(coords_list(2, (a, b)))


def test_moebius_matches_enumeration_dim3():
    for bound in itertools.product(range(9), repeat=3):
        assert count_primitive_moebius(3, bound) == len(coords_list(3, bound))


def test_weight_sum_over_interior_vectors():
    # all-positive vectors have weight 2^(d-1), so the weighted count collapses
    for dim, m in ((2, 5), (3, 4)):
        interior = [pv for pv in enumerate_primitive(dim, (m,) * dim)
                    if all(c > 0 for c in pv.coords)]
        assert sum(pv.weight for pv in interior) == 2 ** (dim - 1) * len(interior)


def test_primitive_l1_array_matches_box_filter():
    for dim, l1 in ((1, 0), (1, 7), (2, 0), (2, 9), (3, 6), (4, 0), (4, 5)):
        via_l1 = primitive_l1_array(dim, l1)
        assert via_l1.shape == (len(via_l1), dim)
        via_box = [pv.coords for pv in enumerate_primitive(dim, (l1,) * dim)
                   if sum(pv.coords) <= l1]
        assert [tuple(v) for v in via_l1.tolist()] == via_box
    # d = 1 at a sampler-sized radius: the one primitive vector, without the segment
    big = primitive_l1_array(1, 10 ** 9)
    assert big.tolist() == [[1]] and big.dtype == "int64"
