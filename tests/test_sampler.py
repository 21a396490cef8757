import itertools
import math

import mpmath
import numpy as np
import pytest

from zonocount import (
    ClassSystem,
    MemoryBudgetError,
    boltzmann_sample,
    class_system,
    class_weights,
    expected_endpoint_truncated,
    primitive_array,
    sample_stats,
    signed_representative,
    theta_tilde,
    to_polygon,
    truncation_bias_estimate,
    write_polygon_csv,
    write_sample_csv,
)
from zonocount.sampler import _draw, sample_rows

THETA_1E4 = theta_tilde(2, 1e4)  # 0.052674712735566642


def _class_list(dim, theta, cutoff):
    # the kept sign classes in visit order, enumerated without the library: the
    # primitive v >= 0 with e^(-theta ||v||_1) >= cutoff, lex ascending, each
    # followed by its sign-pattern indices 0 .. 2^(nnz - 1) - 1; the rounded
    # radius can fall one short of the last kept norm
    radius = int(math.log(1 / cutoff) / theta) + 1
    return [(v, j) for v in itertools.product(range(radius + 1), repeat=dim)
            if sum(v) <= radius and math.gcd(*v) == 1 and math.exp(-theta * sum(v)) >= cutoff
            for j in range(2 ** (sum(map(bool, v)) - 1))]


def _expected_directions(dim, theta, cutoff):
    # each kept class is used with probability q_v
    return math.fsum(math.exp(-theta * sum(v)) for v, _ in _class_list(dim, theta, cutoff))


# int(log(1/cutoff) / theta) is 50 here, yet the norm-51 classes have q_v >= cutoff
BOUNDARY_SYSTEM = (2, 0.38755633851709226, 2.606198308175496e-09)


def _per_class(sys, per_vector):
    return np.repeat(per_vector, np.diff(sys.first))


def test_signed_representative():
    assert signed_representative((3, 0), 0) == (3, 0)
    assert signed_representative((1, 2), 0) == (1, 2)
    assert signed_representative((1, 2), 1) == (1, -2)
    assert signed_representative((1, 1, 1), 3) == (1, -1, -1)
    with pytest.raises(ValueError):
        signed_representative((1, 2), 2)
    with pytest.raises(ValueError):
        signed_representative((0, 0), 0)


def test_class_order_and_weights():
    for theta, cutoff in [(1.0, 1e-3), BOUNDARY_SYSTEM[1:]]:
        sys = class_system(2, theta, cutoff)
        # lex on folded vector, then sign index
        ids = _class_list(2, theta, cutoff)
        assert [sys.index_of(cid) for cid in ids] == list(range(sys.ncls))
        assert ids == sorted(ids)
        assert ids[0] == ((0, 1), 0)
        interior = [(c, j) for c, j in ids if all(x > 0 for x in c)]
        for coords, _ in interior:
            assert {(coords, 0), (coords, 1)} <= set(ids)


def test_class_system_cache_is_lru_of_six():
    keys = [(1, math.log(2), 0.4), (2, 1.0, 1e-3), (2, 1.2, 1e-3), (2, 0.5, 0.1),
            (3, 0.9, 1e-2), (4, 2.0, 1e-2)]
    class_system.cache_clear()
    built = [class_system(*key) for key in keys]
    for _ in range(2):
        assert [class_system(*key) for key in keys] == built
    info = class_system.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (12, 6, 6, 6)
    seventh = class_system(2, 2.0, 1e-3)  # evicts keys[0], the least recently used
    assert class_system(2, 2.0, 1e-3) is seventh
    assert all(class_system(*key) is sys for key, sys in zip(keys[2:], built[2:]))
    assert class_system.cache_info().misses == 7
    assert class_system(*keys[0]) is not built[0]
    assert class_system.cache_info().misses == 8


def test_seed_determinism():
    a = boltzmann_sample(2, THETA_1E4, 1e-12, seed=42)
    b = boltzmann_sample(2, THETA_1E4, 1e-12, seed=42)
    assert a == b
    c = boltzmann_sample(2, THETA_1E4, 1e-12, seed=43)
    assert c.entries != a.entries


def test_golden_sample_seed_42():
    # recorded on the first verified run; any change breaks reproducibility
    s = boltzmann_sample(2, THETA_1E4, 1e-12, seed=42)
    assert s.direction_count == 445
    assert s.endpoint == (10246, 9947)
    assert s.entries[:3] == (
        (((0, 1), 0), 4),
        (((1, 0), 0), 15),
        (((1, 1), 0), 1),
    )


def test_endpoint_consistency():
    s = boltzmann_sample(2, THETA_1E4, 1e-12, seed=7)
    acc = [0, 0]
    seen = set()
    for (coords, j), mult in s.entries:
        assert mult >= 1
        assert (coords, j) not in seen
        seen.add((coords, j))
        acc[0] += mult * coords[0]
        acc[1] += mult * coords[1]
    assert tuple(acc) == s.endpoint
    assert s.direction_count == len(s.entries)


def test_huge_theta_gives_empty_sample():
    s = boltzmann_sample(2, 50.0, 0.5, seed=3)
    assert s.entries == () and s.endpoint == (0, 0) and s.direction_count == 0
    assert _class_list(2, 50.0, 0.5) == []
    assert sample_stats(2, 50.0, 0.5, 1, 3).expected_directions == 0.0


def test_dim1_empty_probability():
    # single class with q = 1/2; P(empty sample) = 1/2
    n = 10 ** 5
    rows = sample_rows(1, math.log(2), 0.4, n, base_seed=100)
    next(rows)  # header
    empties = sum(1 for row in rows if row[1] == 0)  # direction count
    sigma = math.sqrt(0.25 / n)
    assert abs(empties / n - 0.5) < 3 * sigma


def _chi2_quantile_wilson_hilferty(dof: int, p: float) -> float:
    # normal quantile for p = 0.999
    z = {0.999: 3.090232306167813}[p]
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def test_tracked_multiplicity_is_geometric():
    # chi-square of omega((1,1), class 0) against Geometric(q) at the 1e-3 level
    cutoff = 0.5
    cid = ((1, 1), 0)
    n = 10 ** 5
    q = math.exp(-THETA_1E4 * 2)
    counts = {}
    rows = sample_rows(2, THETA_1E4, cutoff, n, base_seed=2024, tracked=[cid])
    next(rows)  # header
    for *_, k in rows:
        counts[k] = counts.get(k, 0) + 1
    # lump the tail so every expected bin count is >= 5
    kmax = 0
    while n * (1 - q) * q ** (kmax + 1) >= 5:
        kmax += 1
    observed = [counts.get(k, 0) for k in range(kmax + 1)]
    observed.append(n - sum(observed))
    expected = [n * (1 - q) * q ** k for k in range(kmax + 1)]
    expected.append(n * q ** (kmax + 1))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    assert stat < _chi2_quantile_wilson_hilferty(dof, 0.999), (stat, dof)


def test_sample_stats_against_truncated_oracles():
    stats = sample_stats(2, THETA_1E4, 1e-12, 150, base_seed=11, tracked=[((1, 1), 0)])
    expected_dirs = _expected_directions(2, THETA_1E4, 1e-12)
    assert stats.expected_directions == pytest.approx(expected_dirs, rel=1e-12)
    assert abs(stats.direction_mean - expected_dirs) < 4 * stats.direction_stderr
    expected_end = expected_endpoint_truncated(2, THETA_1E4, 1e-12)
    for got, want, se in zip(stats.endpoint_mean, expected_end, stats.endpoint_stderr):
        assert abs(got - want) < 3.5 * se
    tracked = stats.tracked[((1, 1), 0)]
    q = tracked.q
    assert abs(tracked.mean - q / (1 - q)) < 4 * tracked.stderr
    assert stats.bias_estimate < 1e-3 * stats.expected_directions


def test_expected_endpoint_near_box_size_at_saddle():
    expected_end = expected_endpoint_truncated(2, THETA_1E4, 1e-12)
    for comp in expected_end:
        assert abs(comp / 1e4 - 1) < 0.05


def test_expected_directions_monotone_in_theta():
    values = [_expected_directions(2, th, 1e-9) for th in (0.2, 0.4, 0.8)]
    assert values[0] > values[1] > values[2]
    for th, want in zip((0.2, 0.4, 0.8), values):
        assert sample_stats(2, th, 1e-9, 1, 0).expected_directions == pytest.approx(want, rel=1e-12)


def test_truncation_bias_is_negligible_at_default_cutoff():
    bias = truncation_bias_estimate(2, THETA_1E4, 1e-12)
    assert bias < 1e-3 * _expected_directions(2, THETA_1E4, 1e-12)


@pytest.mark.parametrize("dim, theta, cutoff", [(1, 0.01, 1e-12), (1, 1e-6, 1e-12),
                                                (1, 1e-5, 1e-12), (2, THETA_1E4, 1e-12),
                                                (2, 0.3, 0.5), (3, 0.3, 1e-12), (4, 0.5, 1e-9)])
def test_truncation_bias_matches_mpmath_shell_sum(dim, theta, cutoff):
    # P_d(n) = half the integer vectors of 1-norm n, counted by support size k
    # (independent of pd_poly); the shell sum runs in 40-digit arithmetic.  At
    # d = 1, P_1 = 1 and the sum is geometric: e^(-theta N) / (1 - e^(-theta))
    with mpmath.workdps(40):
        radius = int(mpmath.floor(mpmath.log(1 / mpmath.mpf(cutoff)) / theta))
        assert class_system(dim, theta, cutoff).l1_max == radius
        acc, n = mpmath.mpf(0), radius + 1
        if dim == 1:
            acc = mpmath.exp(-theta * mpmath.mpf(n)) / (1 - mpmath.exp(-mpmath.mpf(theta)))
        while dim > 1:
            p_n = sum(2 ** k * math.comb(dim, k) * math.comb(n - 1, k - 1)
                      for k in range(1, dim + 1)) // 2
            term = p_n * mpmath.exp(-theta * mpmath.mpf(n))
            acc += term
            if term < mpmath.mpf(10) ** -30 * acc:
                break
            n += 1
        want = float(acc)
    assert truncation_bias_estimate(dim, theta, cutoff) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("dim, theta, cutoff", [(1, 0.5, 0.9), (2, 1.2, 1e-3),
                                                (2, 0.3, 0.5), (3, 0.9, 1e-3)])
def test_truncation_bias_bounds_discarded_primitive_mass(dim, theta, cutoff):
    # sum of w_v q_v over the primitive v with l1_max < ||v||_1 <= R; past R
    # the P_d shell sum, which bounds the rest, is below e^-100 * poly(R) / theta^d
    l1_max = class_system(dim, theta, cutoff).l1_max
    radius = l1_max + math.ceil(100 / theta)
    vecs = primitive_array(dim, (radius,) * dim, radius)
    norms = vecs.sum(axis=1)
    shell = norms > l1_max
    discarded = float(class_weights(vecs[shell]) @ np.exp(-theta * norms[shell]))
    assert discarded > 0
    assert truncation_bias_estimate(dim, theta, cutoff) >= discarded


def test_polygon_unit_square():
    sys_theta, cutoff = 1.0, 0.2
    s = boltzmann_sample(2, sys_theta, cutoff, seed=0)
    # hand-build a sample-like object through the public constructor
    from zonocount import ZonotopeSample

    square = ZonotopeSample(
        dim=2, theta=1.0, cutoff=0.5, seed=0,
        entries=((((0, 1), 0), 1), (((1, 0), 0), 1)),
        endpoint=(1, 1), direction_count=2,
    )
    assert to_polygon(square) == [(0, 0), (1, 0), (1, 1), (0, 1)]
    empty = ZonotopeSample(dim=2, theta=1.0, cutoff=0.5, seed=0,
                           entries=(), endpoint=(0, 0), direction_count=0)
    assert to_polygon(empty) == [(0, 0)]
    assert s.dim == 2  # smoke: sampling at these parameters works


def test_polygon_convex_and_closed():
    for seed in range(25):
        s = boltzmann_sample(2, 0.35, 1e-4, seed=seed)
        verts = to_polygon(s)
        if len(verts) == 1:
            continue
        m = len(verts)
        edges = [(verts[(i + 1) % m][0] - verts[i][0], verts[(i + 1) % m][1] - verts[i][1])
                 for i in range(m)]
        # edge multiset is {+-mult * signed rep}
        expected = []
        for (coords, j), mult in s.entries:
            rx, ry = signed_representative(coords, j)
            expected.append((mult * rx, mult * ry))
            expected.append((-mult * rx, -mult * ry))
        assert sorted(edges) == sorted(expected)
        # strict convexity: consecutive edges turn left
        for i in range(m):
            ax, ay = edges[i]
            bx, by = edges[(i + 1) % m]
            assert ax * by - ay * bx > 0


def test_polygon_dim_guard():
    s3 = boltzmann_sample(3, 0.9, 1e-2, seed=1)
    with pytest.raises(ValueError):
        to_polygon(s3)


def test_negative_seed_is_named():
    # one check in _draw serves boltzmann_sample, sample_rows and sample_stats
    for draw in (lambda: boltzmann_sample(2, 1.0, 1e-6, seed=-1),
                 lambda: sample_stats(2, 1.0, 1e-6, 3, base_seed=-2)):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            draw()


def test_validation_errors():
    with pytest.raises(ValueError):
        class_system(2, -1.0, 1e-6)
    with pytest.raises(ValueError):
        class_system(2, 1.0, 1.5)
    with pytest.raises(ValueError):
        boltzmann_sample(2, 1.0, 1e-6, seed=-1)
    with pytest.raises(ValueError):
        sample_stats(2, 1.0, 1e-6, 0, 0)
    with pytest.raises(KeyError):
        sample_stats(2, 1.0, 1e-3, 2, 0, tracked=[((40, 1), 0)])
    with pytest.raises(MemoryBudgetError):
        ClassSystem(2, 1e-9, 1e-12)


def test_csv_outputs(tmp_path):
    sample_path = tmp_path / "samples.csv"
    write_sample_csv(sample_path, 2, 0.5, 1e-6, 5, 7, tracked=[((1, 1), 0)])
    lines = sample_path.read_text().strip().splitlines()
    assert lines[0] == "seed,direction_count,endpoint_0,endpoint_1,omega_1_1_c0"
    assert len(lines) == 6
    assert lines[1].startswith("7,")
    # determinism: regenerating gives identical bytes
    again = tmp_path / "samples2.csv"
    write_sample_csv(again, 2, 0.5, 1e-6, 5, 7, tracked=[((1, 1), 0)])
    assert again.read_text() == sample_path.read_text()

    poly_path = tmp_path / "poly.csv"
    write_polygon_csv(poly_path, boltzmann_sample(2, 0.5, 1e-6, seed=9))
    rows = poly_path.read_text().strip().splitlines()
    assert rows[0] == "x,y"
    assert rows[1] == "0,0"


def test_numpy_rng_contract():
    # one uniform per class, consumed in class order: reproduce by hand, with
    # the classes and their ln q_v from the library-free enumeration
    for dim, theta, cutoff in DRAW_SYSTEMS:
        ids = _class_list(dim, theta, cutoff)
        log_q = np.array([-theta * sum(v) for v, _ in ids], dtype=np.float64)
        for seed in range(5):
            u = np.maximum(np.random.default_rng(seed).random(len(ids)), 1e-300)
            mult = np.floor(np.log(u) / log_q).astype(np.int64)
            want = tuple((ids[i], int(mult[i])) for i in np.nonzero(mult > 0)[0])
            assert boltzmann_sample(dim, theta, cutoff, seed).entries == want, (dim, theta, seed)


def _dense_multiplicities(sys, u):
    # the inversion formula over every class, as the draw was first written
    log_q = _per_class(sys, sys.log_q)
    return np.floor(np.log(np.maximum(u, 1e-300)) / log_q).astype(np.int64)


# dims 1-4, cutoffs from 0.5 down to 1e-300 (|ln q| up to about 690)
DRAW_SYSTEMS = [(1, math.log(2), 0.4), (2, 0.05, 0.5), (2, 1.2, 1e-3), (2, 3.0, 1e-300),
                (3, 0.9, 1e-6), (3, 20.0, 1e-300), (4, 0.8, 1e-4), (4, 100.0, 1e-300)]


def test_sparse_draw_matches_dense_formula():
    for dim, theta, cutoff in DRAW_SYSTEMS:
        sys = class_system(dim, theta, cutoff)
        row_of_class = _per_class(sys, np.arange(len(sys.vecs)))
        for seed in range(200):
            mult = _dense_multiplicities(sys, np.random.default_rng(seed).random(sys.ncls))
            pos, row, k = _draw(sys, seed)
            want = np.flatnonzero(mult > 0)
            assert np.array_equal(pos, want) and np.array_equal(k, mult[want]), (dim, theta, seed)
            assert np.array_equal(row, row_of_class[pos])


class _FixedUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_sparse_draw_at_uniforms_ulps_around_q(monkeypatch):
    # u a few ulps above q can still give K = 1: a plain u <= q filter would drop it
    above_q_hits = 0
    for dim, theta, cutoff in DRAW_SYSTEMS:
        sys = class_system(dim, theta, cutoff)
        q = _per_class(sys, sys.q)
        for ulps in range(-40, 41):
            u = np.minimum((q.view(np.int64) + ulps).view(np.float64), np.nextafter(1.0, 0.0))
            mult = _dense_multiplicities(sys, u)
            monkeypatch.setattr(np.random, "default_rng", lambda seed, u=u: _FixedUniforms(u))
            pos, _, k = _draw(sys, 0)
            want = np.flatnonzero(mult > 0)
            assert np.array_equal(pos, want) and np.array_equal(k, mult[want]), (dim, theta, ulps)
            above_q_hits += np.count_nonzero(mult[u > q] > 0)
    assert above_q_hits > 0


def test_index_of_every_class_and_misses():
    for dim, theta, cutoff in [(1, math.log(2), 0.4), (2, 1.2, 1e-3), (3, 0.9, 1e-3),
                               (4, 0.8, 1e-3), BOUNDARY_SYSTEM]:
        sys = class_system(dim, theta, cutoff)
        ids = _class_list(dim, theta, cutoff)
        assert sys.ncls == len(ids)
        for i, cid in enumerate(ids):
            assert sys.index_of(cid) == i
    sys = class_system(2, 1.2, 1e-3)  # l1_max = 5
    for bad in [((1,), 0), ((1, 1, 1), 0),      # wrong length
                ((2, 2), 0), ((0, 0), 0),       # not primitive
                ((5, 1), 0), ((40, 1), 0),      # beyond the cutoff
                ((-1, 1), 0), ((1, -1), 0),     # negative coordinate
                ((1, 1), 2), ((1, 0), 1), ((1, 1), -1)]:  # sign index out of range
        with pytest.raises(KeyError):
            sys.index_of(bad)


def test_class_system_memory_contract():
    # one word per class (q_hi) and d + 3 per vector (the vector, ln q, q and
    # its first visit position, which has one more entry: ncls)
    for dim, theta, cutoff in DRAW_SYSTEMS + [(2, THETA_1E4, 1e-12)]:
        sys = ClassSystem(dim, theta, cutoff)
        held = sum(a.nbytes for a in vars(sys).values() if isinstance(a, np.ndarray))
        assert held <= 8 * (sys.ncls + (len(sys.vecs) + 1) * (dim + 3))
        assert sys.ncls <= math.comb(sys.l1_max + dim, dim) * 2 ** (dim - 1)
