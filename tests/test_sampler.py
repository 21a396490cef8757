import itertools
import math
import multiprocessing
import random
import threading
import time
import tracemalloc
import warnings
import weakref
from sys import getswitchinterval, setswitchinterval

import mpmath
import numpy as np
import pytest

from zonocount import (
    ClassSystem,
    MemoryBudgetError,
    boltzmann_sample,
    class_system,
    expected_endpoint_truncated,
    primitive_rows,
    sample_stats,
    signed_representative,
    theta_tilde,
    to_polygon,
    truncation_bias_estimate,
    write_polygon_csv,
    write_sample_csv,
)
from zonocount import cli, sampler
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
    _, norms, weights = primitive_rows(dim, (radius,) * dim, radius, np.int64)
    shell = norms > l1_max
    discarded = float(weights[shell] @ np.exp(-theta * norms[shell]))
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


def test_refused_polygon_csv_leaves_no_file(tmp_path):
    path = tmp_path / "poly.csv"
    with pytest.raises(ValueError, match="dim = 2"):
        write_polygon_csv(path, boltzmann_sample(3, 0.9, 1e-2, seed=1))
    assert not path.exists()


def test_negative_seed_is_named():
    # one check serves boltzmann_sample, sample_rows and sample_stats
    for draw in (lambda: boltzmann_sample(2, 1.0, 1e-6, seed=-1),
                 lambda: sample_stats(2, 1.0, 1e-6, 3, base_seed=-2)):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            draw()


def test_non_integer_seeds_are_refused_by_name(monkeypatch):
    # operator.index refuses them before the draw memo is read or a generator
    # is made: the memo, keyed by seed, would serve 1.0 from seed 1's entry
    list(sample_rows(2, 1.0, 1e-6, 6, 0))  # the system's memo holds seeds 0-5

    def refuse(seed):
        raise AssertionError("made a generator for a non-integer seed")

    monkeypatch.setattr(sampler, "_generator", refuse)
    for bad in (1.5, 1.0, np.float64(2.0), "1", None):
        rows = sample_rows(2, 1.0, 1e-6, 3, bad)
        next(rows)  # header
        for draw in (lambda: boltzmann_sample(2, 1.0, 1e-6, seed=bad),
                     lambda: sample_stats(2, 1.0, 1e-6, 3, bad), lambda: next(rows)):
            with pytest.raises(TypeError, match="^seed must be a nonnegative integer, not "
                                                f"{type(bad).__name__}$"):
                draw()
    monkeypatch.undo()
    # an integer of another type is the int it equals
    assert boltzmann_sample(2, 1.0, 1e-6, seed=np.int64(3)).entries \
        == boltzmann_sample(2, 1.0, 1e-6, seed=3).entries
    assert list(sample_rows(2, 1.0, 1e-6, 3, np.int64(1))) == list(sample_rows(2, 1.0, 1e-6, 3, 1))


def test_validation_errors():
    with pytest.raises(ValueError):
        class_system(2, -1.0, 1e-6)
    with pytest.raises(ValueError):
        class_system(2, 1.0, 1.5)
    with pytest.raises(ValueError):
        boltzmann_sample(2, 1.0, 1e-6, seed=-1)
    with pytest.raises(ValueError):
        sample_stats(2, 1.0, 1e-6, 0, 0)
    with pytest.raises(MemoryBudgetError):
        ClassSystem(2, 1e-9, 1e-12)


def test_tracked_class_beyond_the_cutoff_is_never_drawn():
    # one answer from sample_rows and sample_stats for a class the system does
    # not hold: multiplicity 0 in every sample, q = e^(-theta ||v||_1)
    far, kept = ((40, 1), 0), ((1, 1), 1)
    sys = class_system(2, 1.0, 1e-3)
    assert sys.index_of(far) is None
    stats = sample_stats(2, 1.0, 1e-3, 2, 0, tracked=[far, kept])
    t = stats.tracked[far]
    assert (t.mean, t.variance, t.stderr) == (0.0, 0.0, 0.0)
    assert t.q == math.exp(-41.0)
    # a kept class's q is its row's, bit for bit
    assert stats.tracked[kept].q == sys.q[sys.vecs.tolist().index([1, 1])]
    rows = list(sample_rows(2, 1.0, 1e-3, 2, 0, [far, kept]))
    assert rows[0][-2:] == ["omega_40_1_c0", "omega_1_1_c1"]
    assert [row[-2] for row in rows[1:]] == [0, 0]


def test_class_system_takes_positional_arguments_only():
    # lru_cache keys a keyword call apart from a positional one: each spelling
    # would build and hold its own copy of one system
    class_system.cache_clear()
    built = class_system(2, 0.5, 1e-3)
    for call in (lambda: class_system(2, 0.5, cutoff=1e-3),
                 lambda: class_system(dim=2, theta=0.5, cutoff=1e-3)):
        with pytest.raises(TypeError):
            call()
    assert class_system(2, 0.5, 1e-3) is built
    info = class_system.cache_info()
    assert (info.hits, info.currsize) == (1, 1)


def test_class_system_holds_one_large_system_at_a_time():
    # systems of 2^16 classes or more are kept one at a time: every miss lets
    # the latest go before it builds, so a run of large keys that no caller
    # holds leaves one system's arrays alive, while the small systems keep
    # their LRU of six
    keys = [(2, theta, 1e-12) for theta in (0.069, 0.07, 0.071, 0.072, 0.073)]
    slack = 64 * 1024  # the system's objects, its memo and the cache's entry
    class_system.cache_clear()
    small = class_system(2, 1.0, 1e-3)
    ClassSystem(*keys[0])  # a first build also fills numpy's own caches
    previous = None
    tracemalloc.start()
    try:
        for key in keys:
            sys = class_system(*key)
            assert sys.ncls >= sampler._PARALLEL_MIN_CLASSES
            arrays = sum(a.nbytes for a in (sys.vecs, sys.norm, sys.first, sys.shell_q, sys.q_hi))
            latest = weakref.ref(sys)
            del sys
            held = tracemalloc.get_traced_memory()[0]
            assert held <= arrays + slack, (key, held, arrays)
            assert previous is None or previous() is None, key
            previous = latest
    finally:
        tracemalloc.stop()
    assert class_system(*keys[-1]) is previous()
    assert class_system(2, 1.0, 1e-3) is small
    info = class_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1 + len(keys), 2)


def test_threads_sharing_the_class_system_cache(monkeypatch):
    # a miss looks again under the cache's lock: eight threads that miss one
    # key at once build it once and share it.  A hit takes no lock: threads
    # that ask at random for more small keys than the LRU holds, and for two
    # large ones, each get the system of their own key
    builds = []
    init = ClassSystem.__init__
    monkeypatch.setattr(ClassSystem, "__init__",
                        lambda self, *key: builds.append(key) or init(self, *key))
    small = [(2, 1.0 + i / 10, 1e-3) for i in range(8)]
    large = [(2, 0.075, 1e-12), (2, 0.076, 1e-12)]
    class_system.cache_clear()
    got, wrong = [], []
    start = threading.Barrier(8)

    def at_once(key):
        start.wait()
        got.append(class_system(*key))

    def at_random(i):
        rng = random.Random(i)
        for _ in range(150):
            key = rng.choice(large) if rng.random() < 0.1 else rng.choice(small)
            try:
                sys = class_system(*key)
            except Exception as exc:  # a thread's exception would not fail the test
                wrong.append((key, exc))
            else:
                if (sys.dim, sys.theta, sys.cutoff) != key:
                    wrong.append((key, sys))

    switch = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for target, args in [(at_once, small[0]), (at_once, large[0]), (at_random, None)]:
            threads = [threading.Thread(target=target, args=(args or i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            if target is at_once:
                assert builds[-1] == args and len(set(map(id, got))) == 1 and len(got) == 8
                assert (got[0].ncls >= sampler._PARALLEL_MIN_CLASSES) == (args in large)
                del got[:]
    finally:
        setswitchinterval(switch)
    assert not wrong
    assert builds[:2] == [small[0], large[0]]
    info = class_system.cache_info()
    assert info.misses == len(builds) and info.currsize <= 7


def test_polygon_path_builds_its_large_system_once(capsys, tmp_path, monkeypatch):
    # sample --polygon-out draws the rows, then the first sample again on the
    # same key: the large system's slot serves the second call
    builds = []
    init = ClassSystem.__init__
    monkeypatch.setattr(ClassSystem, "__init__",
                        lambda self, *key: builds.append(key) or init(self, *key))
    class_system.cache_clear()
    polygon = tmp_path / "polygon.csv"
    assert cli.main(["sample", "--dim", "2", "--n", "1e4", "--samples", "3", "--seed", "5",
                     "--polygon-out", str(polygon)]) == 0
    assert builds == [(2, THETA_1E4, 1e-12)]
    assert class_system(2, THETA_1E4, 1e-12).ncls >= sampler._PARALLEL_MIN_CLASSES
    first = boltzmann_sample(2, THETA_1E4, 1e-12, 5)
    assert len(builds) == 1
    assert polygon.read_text().count("\n") == 1 + len(to_polygon(first))
    assert capsys.readouterr().out.splitlines()[1] == "5,%d,%d,%d" % (
        first.direction_count, *first.endpoint)


def test_tracked_ids_that_name_no_sign_class_are_refused(monkeypatch):
    # a column of zeros, the answer for a class beyond the cutoff, would say
    # nothing about a class that does not exist: sample_rows and sample_stats
    # refuse it by name, before the class system is built
    def refuse(*args):
        raise AssertionError("built a class system for a bad tracked id")

    for bad, message in [(((2, 2), 0), "not primitive"), (((0, 0), 0), "not primitive"),
                         (((1, 1), 5), "sign index"), (((1, 0), 1), "sign index"),
                         (((1, 1), -1), "sign index"), (((1, 1, 1), 0), "expected 2"),
                         (((1,), 0), "expected 2"), (((-1, 1), 0), ">= 0")]:
        with monkeypatch.context() as m:
            m.setattr(sampler, "class_system", refuse)
            with pytest.raises(ValueError, match=message):
                next(sample_rows(2, 0.5, 1e-6, 2, 7, [bad]))
            with pytest.raises(ValueError, match=message):
                sample_stats(2, 0.5, 1e-6, 2, 7, tracked=[bad])
    # a list of coordinates and a numpy sign index name a class as well
    assert next(sample_rows(2, 1.2, 1e-3, 1, 0, [([1, 1], np.int64(1))]))[-1] == "omega_1_1_c1"


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
    log_q = _per_class(sys, sys.norm * -sys.theta)
    return np.floor(np.log(np.maximum(u, 1e-300)) / log_q).astype(np.int64)


# dims 1-4, cutoffs from 0.5 down to 1e-300 (|ln q| up to about 690)
DRAW_SYSTEMS = [(1, math.log(2), 0.4), (2, 0.05, 0.5), (2, 1.2, 1e-3), (2, 3.0, 1e-300),
                (3, 0.9, 1e-6), (3, 20.0, 1e-300), (4, 0.8, 1e-4), (4, 100.0, 1e-300)]


def _assert_draws_match_dense(dim, theta, cutoff):
    sys = class_system(dim, theta, cutoff)
    row_of_class = _per_class(sys, np.arange(len(sys.vecs)))
    for seed in range(200):
        mult = _dense_multiplicities(sys, np.random.default_rng(seed).random(sys.ncls))
        _, pos, row, k = _draw(sys, seed)
        want = np.flatnonzero(mult > 0)
        assert np.array_equal(pos, want) and np.array_equal(k, mult[want]), (dim, theta, seed)
        assert np.array_equal(row, row_of_class[pos])


def test_sparse_draw_matches_dense_formula():
    for system in DRAW_SYSTEMS:
        _assert_draws_match_dense(*system)


def test_sparse_draw_matches_dense_formula_in_chunks_of_7(monkeypatch):
    # chunk boundaries then fall inside the classes of one vector (in every
    # dim but 1, which has one class per vector).  The two systems of over
    # 20,000 classes take chunks of 997, which still split vectors: at 7 a
    # draw there would take 3,200-4,600 Python-level chunk steps.
    for dim, theta, cutoff in DRAW_SYSTEMS:
        sys = class_system(dim, theta, cutoff)
        chunk = 7 if sys.ncls < 10_000 else 997
        monkeypatch.setattr(sampler, "_CHUNK", chunk)
        assert dim == 1 or set(range(chunk, sys.ncls, chunk)) - set(sys.first.tolist())
        _assert_draws_match_dense(dim, theta, cutoff)


class _FixedUniforms:
    # serves u in consecutive slices, as a draw fills its chunks
    def __init__(self, u):
        self.u = u
        self.at = 0

    def random(self, n=None, out=None):
        m = n if out is None else out.size
        assert self.at + m <= self.u.size
        part = self.u[self.at:self.at + m]
        self.at += m
        if out is None:
            return part.copy()
        out[...] = part
        return out


def test_sparse_draw_at_uniforms_ulps_around_q(monkeypatch):
    # u a few ulps above q can still give K = 1: a plain u <= q filter would drop it
    above_q_hits = 0
    for dim, theta, cutoff in DRAW_SYSTEMS:
        sys = class_system(dim, theta, cutoff)
        q = _per_class(sys, sys.q)
        for ulps in range(-40, 41):
            u = np.minimum((q.view(np.int64) + ulps).view(np.float64), np.nextafter(1.0, 0.0))
            mult = _dense_multiplicities(sys, u)
            monkeypatch.setattr(sampler, "_generator", lambda seed, u=u: _FixedUniforms(u))
            _, pos, _, k = _draw(sys, 0)
            want = np.flatnonzero(mult > 0)
            assert np.array_equal(pos, want) and np.array_equal(k, mult[want]), (dim, theta, ulps)
            above_q_hits += np.count_nonzero(mult[u > q] > 0)
            if 2 * sys.ncls <= sampler._CHUNK:
                # a run of two seeds, each given these uniforms, in one pass
                fixed = _FixedUniforms(np.concatenate([u, u]))
                monkeypatch.setattr(sampler, "_generator", lambda seed: fixed)
                bounds, pos, _, k = _draw(sys, 0, 2)
                assert bounds == [0, want.size, 2 * want.size], (dim, theta, ulps)
                assert np.array_equal(pos, np.tile(want, 2)) and np.array_equal(k, np.tile(mult[want], 2))
    assert above_q_hits > 0


# a subnormal cutoff: 1 / cutoff overflows, -ln cutoff does not; l1_max 245
SUBNORMAL_CUTOFF_SYSTEM = (2, 3.0, 1e-320)


def test_subnormal_cutoff_is_served():
    # the largest norm with e^(-theta n) >= cutoff, and the dense formula's draws
    sys = class_system(*SUBNORMAL_CUTOFF_SYSTEM)
    assert sys.l1_max == 245 and math.exp(-3.0 * 245) >= 1e-320 > math.exp(-3.0 * 246)
    _assert_draws_match_dense(*SUBNORMAL_CUTOFF_SYSTEM)
    with pytest.raises(ValueError, match="radius that is not finite"):
        ClassSystem(2, 1e-320, 1e-12)


def test_filter_bound_at_float32_edges(monkeypatch):
    # each class's bound is the smallest float32 at least q (1 + 1e-9): the
    # smallest subnormal for a shell below the float32 range.  Uniforms at
    # float32 ulps around the bound, and at the float64 neighbours of the
    # midpoints where a float64 -> float32 cast rounds to the bound or away
    # from it, give the dense formula's draw
    tiny = np.nextafter(np.float32(0), np.float32(1))
    below_float32 = 0
    for dim, theta, cutoff in DRAW_SYSTEMS + [SUBNORMAL_CUTOFF_SYSTEM]:
        sys = class_system(dim, theta, cutoff)
        want = _per_class(sys, sys.q) * (1 + 1e-9)
        hi = sys.q_hi
        down = np.nextafter(hi, np.float32(0))
        assert (hi >= want).all() and (down < want).all(), (dim, theta)
        assert (hi[want <= tiny] == tiny).all()
        below_float32 += np.count_nonzero(want < tiny)
        up = np.nextafter(hi, np.float32(np.inf))
        feeds = [np.maximum(hi.view(np.int32) + ulps, 0).view(np.float32)
                 for ulps in range(-40, 41)]
        for side in (down, up):
            # the sum of two float32 neighbours and its half are exact in float64
            mid = (hi.astype(np.float64) + side) / 2
            feeds += [np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1.0)]
        for u in feeds:
            u = np.minimum(u.astype(np.float64), np.nextafter(1.0, 0.0))
            mult = _dense_multiplicities(sys, u)
            monkeypatch.setattr(sampler, "_generator", lambda seed, u=u: _FixedUniforms(u))
            _, pos, _, k = _draw(sys, 0)
            want_pos = np.flatnonzero(mult > 0)
            assert np.array_equal(pos, want_pos) and np.array_equal(k, mult[want_pos]), (dim, theta)
    assert below_float32 > 0


def test_warm_draw_stays_under_one_megabyte():
    # the chunk buffer, the hits and their rows; a searchsorted of int64
    # positions in int32 ends would copy all of first (1.4 MB here) each draw
    sys = class_system(3, theta_tilde(3, 2e3), 1e-12)
    _draw(sys, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _draw(sys, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_visit_positions_are_int64_beyond_int32(monkeypatch):
    # int32 holds the positions of up to 2^31 - 1 classes; the type is chosen
    # from the class law's count, which bounds ncls
    assert sampler._position_type(2 ** 31 - 1) is np.int32
    assert sampler._position_type(2 ** 31) is np.int64
    counts = []
    monkeypatch.setattr(sampler, "_position_type", lambda classes: counts.append(classes) or np.int64)
    wide = ClassSystem(3, 0.9, 1e-6)
    narrow = class_system(3, 0.9, 1e-6)
    assert wide.first.dtype == np.int64 and narrow.first.dtype == np.int32
    assert counts[0] >= wide.ncls and wide.first.tolist() == narrow.first.tolist()
    for seed in range(20):
        for a, b in zip(_draw(wide, seed), _draw(narrow, seed)):
            assert np.array_equal(a, b)
    assert wide.index_of(((1, 1, 1), 3)) == narrow.index_of(((1, 1, 1), 3)) is not None


def test_held_rows_are_charged_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused request drew")

    monkeypatch.setattr(sampler, "_draw", refuse)
    monkeypatch.setenv("ZONOCOUNT_MEMORY_BUDGET", str(10 ** 7))
    with pytest.raises(MemoryBudgetError, match="^1e[+]05 sample rows of 4 columns"):
        sample_stats(2, 1.2, 1e-3, 10 ** 5, 0)
    with pytest.raises(MemoryBudgetError, match="^1e[+]11 sample rows of 3 columns"):
        sample_stats(1, 5.0, 1e-12, 10 ** 11, 0)


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
        assert sys.index_of(bad) is None


# The per-row formulas test_compact_layout_matches_the_per_row_formulas checks
# the compact layout against: the int64 rows, and each row's class weight
# 2^(d(v)-1) from its own nonzero count rather than from the enumerator.
def primitive_array(dim, bound, l1_max):
    return primitive_rows(dim, bound, l1_max, np.int64)[0]


def class_weights(vecs):
    return 1 << (np.count_nonzero(vecs, axis=1) - 1)


def _coordinate_type(l1_max):
    # the narrowest signed integer type that holds l1_max
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if l1_max <= np.iinfo(t).max)


def test_class_system_memory_contract():
    # exactly one float32 per class (q_hi); per vector one int32 (its first
    # visit position; first has one more entry, ncls) and d + 1 integers of the
    # narrowest type that holds l1_max (the vector and its 1-norm); one word
    # per norm shell 0 .. l1_max (q).  The classes held are at most those of
    # the whole 1-norm ball, which the class law counts
    for dim, theta, cutoff in DRAW_SYSTEMS + [(2, THETA_1E4, 1e-12)]:
        sys = ClassSystem(dim, theta, cutoff)
        held = sum(a.nbytes for a in vars(sys).values() if isinstance(a, np.ndarray))
        coord = np.dtype(_coordinate_type(sys.l1_max)).itemsize
        rows = len(sys.vecs)
        assert sys.q_hi.dtype == np.float32 and sys.first.dtype == np.int32
        assert held == 4 * sys.ncls + 4 * (rows + 1) + coord * (dim + 1) * rows \
            + 8 * (sys.l1_max + 1), (dim, theta, cutoff)
        assert sys.ncls <= 1 + sum(math.comb(dim, j) * math.comb(sys.l1_max, j) * 2 ** (j - 1)
                                   for j in range(1, dim + 1))
    with pytest.raises(MemoryBudgetError):
        ClassSystem(2, 1e-9, 1e-12)


@pytest.mark.parametrize("dim, theta, cutoff",
                         DRAW_SYSTEMS + [(3, theta_tilde(3, 2e3), 1e-12)])
def test_class_system_charge_bounds_the_traced_build(monkeypatch, dim, theta, cutoff):
    # the traced peak of a build (numpy's buffers and the interpreter's
    # objects) stays within what ClassSystem charges the budget, plus 16 KB
    # for the array headers and ints that no charge counts
    charged = []
    monkeypatch.setattr(sampler, "_charge", lambda need, what: charged.append(need))
    ClassSystem(dim, theta, cutoff)  # a first build also fills numpy's own caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ClassSystem(dim, theta, cutoff)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(charged) == 2 and peak <= charged[-1] + 16 * 1024, (peak, charged)


def _smallest_float32_at_least(x):
    # bisection over the bit patterns of the float32 values in [0, inf], which
    # they order: the first pattern whose value is at least x (float64)
    lo = np.zeros(np.shape(x), dtype=np.int32)
    hi = np.full(np.shape(x), np.float32(np.inf).view(np.int32))
    while (lo < hi).any():
        mid = lo + (hi - lo) // 2
        ok = mid.view(np.float32) >= x
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo.view(np.float32)


def test_compact_layout_matches_the_per_row_formulas():
    # the rows, first, the per-row q, q_hi, the expected endpoint and the
    # expected direction count, bit for bit, against the formulas over int64
    # rows with per-row ln q and q that the compact layout replaced; q_hi is
    # the smallest float32 at least q (1 + 1e-9)
    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64).tolist()

    for dim, theta, cutoff in DRAW_SYSTEMS + [(2, THETA_1E4, 1e-12)]:
        sys = class_system(dim, theta, cutoff)
        vecs = primitive_array(dim, (sys.l1_max,) * dim, sys.l1_max)
        weight = class_weights(vecs)
        log_q = -float(theta) * vecs.sum(axis=1).astype(np.float64)
        q = np.exp(log_q)
        assert sys.vecs.dtype == sys.norm.dtype == _coordinate_type(sys.l1_max)
        assert np.array_equal(sys.vecs, vecs) and sys.norm.tolist() == vecs.sum(axis=1).tolist()
        assert sys.first.tolist() == [0, *np.cumsum(weight).tolist()]
        assert bits(sys.q) == bits(q)
        want_hi = np.repeat(_smallest_float32_at_least(q * (1 + 1e-9)), weight)
        assert sys.q_hi.view(np.int32).tolist() == want_hi.view(np.int32).tolist()
        want = tuple(float(x) for x in (weight * (q / (1.0 - q))) @ vecs)
        assert bits(expected_endpoint_truncated(dim, theta, cutoff)) == bits(want)
        stats = sample_stats(dim, theta, cutoff, 1, 0)
        assert bits([stats.expected_directions]) == bits([weight @ q])


@pytest.mark.parametrize("dim", [2, 3])
def test_tracked_ids_outside_the_coordinate_type(dim):
    # coordinates that int8 coordinates cannot hold: index_of answers None
    # without comparing them with vecs, the CSV column is 0 and sample_stats
    # reports q = e^(-theta ||v||_1)
    theta, cutoff = 1.2, 1e-3  # l1_max = 5
    sys = class_system(dim, theta, cutoff)
    assert sys.vecs.dtype == np.int8
    far = [((10 ** 6, 1, 1)[:dim], 0), ((2 ** 70, 1, 0)[:dim], 1), ((1, 2 ** 70, 3)[:dim], 0)]
    for cid in far + [((-2 ** 70,) + (1,) * (dim - 1), 0), ((1,) * dim, 2 ** 70)]:
        assert sys.index_of(cid) is None
    rows = list(sample_rows(dim, theta, cutoff, 3, 0, far))
    assert [row[-3:] for row in rows[1:]] == [[0, 0, 0]] * 3
    stats = sample_stats(dim, theta, cutoff, 3, 0, tracked=far)
    for coords, j in far:
        t = stats.tracked[(coords, j)]
        assert (t.mean, t.variance, t.stderr) == (0.0, 0.0, 0.0)
        assert t.q == math.exp(-theta * sum(coords))


def _one_draw_at_a_time(dim, theta, cutoff, n_samples, base_seed, tracked):
    # the rows of sample_rows, one boltzmann_sample per seed on this thread
    for seed in range(base_seed, base_seed + n_samples):
        s = boltzmann_sample(dim, theta, cutoff, seed)
        mult = dict(s.entries)
        yield [seed, s.direction_count, *s.endpoint, *(mult.get(cid, 0) for cid in tracked)]


def _count_draws(monkeypatch, delay=0.0):
    # seed and thread name of every sample drawn, each run of seeds slowed by
    # delay seconds
    draws = []
    real = sampler._draw

    def counted(sys, seed, count=1):
        draws.extend((s, threading.current_thread().name) for s in range(seed, seed + count))
        time.sleep(delay)
        return real(sys, seed, count)

    monkeypatch.setattr(sampler, "_draw", counted)
    return draws


def _pooled_equals_serial(monkeypatch, dim, theta, cutoff, n_samples, base_seed):
    draws = _count_draws(monkeypatch)
    vecs = class_system(dim, theta, cutoff).vecs
    kept = [(tuple(vecs[0].tolist()), 0), (tuple(vecs[-1].tolist()), 0)]
    # and one class beyond the cutoff; in dim 1 (1,) is the only class, and it is kept
    tracked = kept + ([((10 ** 6,) + (1,) * (dim - 1), 0)] if dim > 1 else [])
    rows = list(sample_rows(dim, theta, cutoff, n_samples, base_seed, tracked))[1:]
    pooled = sample_stats(dim, theta, cutoff, n_samples, base_seed, kept)
    # every draw ran on the pool, unless the process has one core
    pool_threads = sampler._cores() > 1
    assert [name.startswith("zonocount-draw") for _, name in draws] == [pool_threads] * 2 * n_samples
    assert rows == list(_one_draw_at_a_time(dim, theta, cutoff, n_samples, base_seed, tracked))
    monkeypatch.setattr(sampler, "_pool", lambda: None)
    assert sample_stats(dim, theta, cutoff, n_samples, base_seed, kept) == pooled


def test_pooled_rows_and_stats_equal_serial_draws(monkeypatch):
    # d = 2 at the 1e4 saddle has 167,380 classes: its requests use the pool
    assert class_system(2, THETA_1E4, 1e-12).ncls >= sampler._PARALLEL_MIN_CLASSES
    _pooled_equals_serial(monkeypatch, 2, THETA_1E4, 1e-12, 24, 5)


@pytest.mark.parametrize("dim, theta, cutoff", DRAW_SYSTEMS)
def test_pooled_rows_equal_serial_draws_on_small_systems(monkeypatch, dim, theta, cutoff):
    monkeypatch.setattr(sampler, "_PARALLEL_MIN_CLASSES", 1)
    _pooled_equals_serial(monkeypatch, dim, theta, cutoff, 30, 2)


def test_negative_base_seed_is_refused_before_any_draw(monkeypatch):
    draws = _count_draws(monkeypatch)
    for n_samples in (1, 40):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            sample_stats(2, THETA_1E4, 1e-12, n_samples, base_seed=-3)
    assert draws == []


def test_closing_rows_early_stops_the_draws(monkeypatch):
    # a million requested samples at 50 ms a draw: at most four per worker are
    # queued, and closing after two rows drops the queued ones and waits only
    # for those running, one per worker, plus one more each in a slow spell
    draws = _count_draws(monkeypatch, delay=0.05)
    queued = []
    pool = sampler._pool()
    if pool is not None:
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda fn, seed, count: queued.extend(
            range(seed, seed + count)) or submit(fn, seed, count))
    rows = sample_rows(2, THETA_1E4, 1e-12, 10 ** 6, 0)
    next(rows)  # header
    assert [next(rows)[0], next(rows)[0]] == [0, 1]
    start = time.perf_counter()
    rows.close()
    assert time.perf_counter() - start < 1.0
    made = len(draws)
    if pool is None:
        assert made == 2
    else:
        # the first row waited on a full window; taking it queued one more
        assert queued == list(range(sampler._IN_FLIGHT_PER_WORKER * sampler._cores() + 1))
        assert 2 <= made <= 2 + 2 * sampler._cores()
    assert sorted(seed for seed, _ in draws) == list(range(made))
    time.sleep(0.2)
    assert len(draws) == made


def _held(sys):
    # the seeds and hits a system's draw memo holds, each entry checked
    # against itself and the hit count against the entries
    draws = sys.draws._draws
    assert all(n == pos.size == k.size and len(end) == sys.dim for n, end, pos, k in draws.values())
    hits = sum(n for n, *_ in draws.values())
    assert hits == sys.draws._hits
    return len(draws), hits


def test_concurrent_requests_keep_their_rows():
    # eight requests from eight threads at once, each twice: on the pool or,
    # with one core, drawing in its own thread, a buffer shared between
    # threads would mix their uniforms.  The small systems share one draw
    # memo between the threads, their seeds overlap, and their puts evict:
    # 6,088 classes hit about 6,050 times a sample (the hit bound), and one
    # class in 1,800 seeds (the seed bound).  Ten rounds each, since a lost
    # update of the memo's hit count shows in about one round of three
    for dim, theta, cutoff, n_samples, rounds in [(2, THETA_1E4, 1e-12, 6, 1),
                                                  (2, 1e-4, 0.99, 6, 10),
                                                  (1, math.log(2), 0.4, 400, 10)]:
        step = n_samples // 2
        want = {seed: 2 * [list(_one_draw_at_a_time(dim, theta, cutoff, n_samples,
                                                    seed * step, ()))] for seed in range(8)}
        for _ in range(rounds):
            got = {}
            switch = getswitchinterval()
            setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=lambda s=seed: got.setdefault(s, [
                    list(sample_rows(dim, theta, cutoff, n_samples, s * step))[1:]
                    for _ in range(2)])) for seed in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
            finally:
                setswitchinterval(switch)
            assert got == want, (dim, theta, cutoff)
            seeds, hits = _held(class_system(dim, theta, cutoff))
            assert seeds <= 1024 and hits <= 2 ** 16


def _rows_in_child(queue):
    queue.put(list(sample_rows(2, THETA_1E4, 1e-12, 6, 0)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_makes_its_own_pool():
    # a child forked once the pool exists has none of its threads: drawing on
    # the parent's pool it would wait forever
    want = list(sample_rows(2, THETA_1E4, 1e-12, 6, 0))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_rows_in_child, args=(queue,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        child.start()
    try:
        assert queue.get(timeout=60) == want
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


@pytest.mark.parametrize("dim, theta, cutoff", DRAW_SYSTEMS)
def test_held_draws_equal_fresh_draws(monkeypatch, dim, theta, cutoff):
    # rows and sample_stats of one system, which keeps its draws, against a
    # fresh system per request: a run whose seeds are all held, one only
    # partly held, seeds past uint64, tracked classes kept and beyond the
    # cutoff, and requests after the seeds 0-14 were evicted
    vecs = class_system(dim, theta, cutoff).vecs
    kept = [(tuple(vecs[r].tolist()), 0) for r in (0, len(vecs) // 2, -1)]
    # in dim 1 (1,) is the only class, and it is kept
    far = [((10 ** 6,) + (1,) * (dim - 1), 0)] if dim > 1 else []
    big = 2 ** 64 + 1
    # (base seed, samples, tracked, whether the rows draw)
    requests = [(0, 10, kept, True), (0, 10, far + kept, False), (5, 10, kept[::-1], True),
                (big, 3, kept, True), (big, 3, kept + far, False), (10 ** 4, 1100, kept, True),
                (0, 10, kept + far, True), (10 ** 4 + 1095, 5, far + kept, False)]
    want = []
    with monkeypatch.context() as m:
        m.setattr(sampler, "class_system", ClassSystem)  # one per request, nothing held
        for base, n, tracked, _ in requests:
            want.append((list(sample_rows(dim, theta, cutoff, n, base, tracked)),
                         sample_stats(dim, theta, cutoff, n, base, tracked)))
    sys = ClassSystem(dim, theta, cutoff)
    monkeypatch.setattr(sampler, "class_system", lambda *key: sys)
    draws = _count_draws(monkeypatch)
    for (base, n, tracked, drawn), (rows, stats) in zip(requests, want):
        before = len(draws)
        assert list(sample_rows(dim, theta, cutoff, n, base, tracked)) == rows, (base, n)
        assert (len(draws) > before) == drawn, (base, n)
        assert sample_stats(dim, theta, cutoff, n, base, tracked) == stats, (base, n)
        seeds, hits = _held(sys)
        assert 0 < seeds <= 1024 and hits <= 2 ** 16


def test_mutated_rows_leave_the_held_draws():
    # a caller may change the rows it is given: a drawn request's, then a held one's
    request = (2, 0.05, 0.5, 6, 3, [((0, 1), 0), ((1, 1), 1)])
    class_system(*request[:3]).draws = sampler._DrawMemo()  # nothing held
    want = [list(sample_rows(*request)) for _ in range(2)]
    for _ in range(2):
        rows = list(sample_rows(*request))
        assert rows == want[0]
        for row in rows[1:]:
            row[1] = -1
            row[2] += 5
            row[-1] = 99
            row.append(0)
    assert list(sample_rows(*request)) == want[0]


@pytest.mark.parametrize("dim, theta, cutoff, n_samples", [
    (1, math.log(2), 0.4, 3000),  # the seed bound: one class, under one hit a sample
    (2, 0.05, 0.5, 2000),  # 116 classes, about 73 hits a sample: the hit bound
    (2, 1e-4, 0.99, 30),  # 6,088 classes, about 6,050 hits a sample
    (4, 0.8, 1e-4, 1500),  # about 20 hits a sample, in runs of 11 seeds
])
def test_draw_memo_keeps_the_latest_seeds_within_both_bounds(dim, theta, cutoff, n_samples):
    # at most 1,024 seeds and 2^16 hits: after each request the latest seeds,
    # as many as fit; a second request overlaps the first by half
    sys = ClassSystem(dim, theta, cutoff)
    for base in (0, n_samples // 2):
        rows = list(sampler._rows(sys, n_samples, base, []))
        seeds, hits = _held(sys)
        assert seeds <= 1024 and hits <= 2 ** 16
        assert list(sys.draws._draws) == list(range(base + n_samples - seeds, base + n_samples))
        # the next older seed would pass a bound
        assert seeds == 1024 or hits + rows[-seeds - 1][1] > 2 ** 16, (seeds, hits)


def test_large_systems_hold_no_draws():
    # 167,380 classes: draws on the pool, none kept
    sys = class_system(2, THETA_1E4, 1e-12)
    assert sys.ncls >= sampler._PARALLEL_MIN_CLASSES
    list(sample_rows(2, THETA_1E4, 1e-12, 3, 0))
    sample_stats(2, THETA_1E4, 1e-12, 1, 0)
    assert _held(sys) == (0, 0)


def test_full_draw_memo_stays_within_its_stated_bytes():
    # 12 bytes a hit and under 800 a seed, at most about 1.6 MB: here about
    # 890 seeds of 73 hits, numbers past 2^40 for keys
    sys = ClassSystem(2, 0.05, 0.5)
    list(sampler._rows(sys, 10, 0, []))  # numpy's own caches
    sys.draws = sampler._DrawMemo()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in sampler._rows(sys, 2000, 2 ** 40, []):
            pass
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    seeds, hits = _held(sys)
    assert hits > 2 ** 16 - 100
    assert held <= 12 * hits + 800 * seeds <= 12 * 2 ** 16 + 800 * 1024, (held, seeds, hits)


# (dim, theta, cutoff, n_samples, tracked): 5 classes in dim 5, 256 in dim 2
# (l1_max 20) and none in dim 40, each with kept classes and one beyond the cutoff
BATCHED_REQUESTS = [
    (5, 1.0, 0.3, 13107, [((1, 0, 0, 0, 0), 0), ((0, 0, 0, 0, 1), 0), ((1, 1, 0, 0, 0), 1)]),
    (2, 1.0, math.exp(-20.5), 256, [((1, 0), 0), ((3, 17), 1), ((20, 1), 0)]),
    (2, 1.2, 1e-3, 1, [((1, 1), 1), ((40, 1), 0)]),
    (40, 30.0, 1e-12, 3, [((1,) + (0,) * 39, 0)]),
]


@pytest.mark.parametrize("dim, theta, cutoff, n_samples, tracked", BATCHED_REQUESTS)
def test_batched_draws_equal_one_at_a_time(dim, theta, cutoff, n_samples, tracked):
    # the draws of a request share one pass when n_samples * ncls <= 2^16:
    # 2^16 - 1 and 2^16 here, one sample, and the empty system
    sys = class_system(dim, theta, cutoff)
    assert (sys.ncls, n_samples * sys.ncls) in [(5, 2 ** 16 - 1), (256, 2 ** 16), (20, 20), (0, 0)]
    assert sum(sys.index_of(cid) is None for cid in tracked) == 1
    rows = list(sample_rows(dim, theta, cutoff, n_samples, 7, tracked))[1:]
    assert rows == list(_one_draw_at_a_time(dim, theta, cutoff, n_samples, 7, tracked))


def test_batched_draws_in_two_runs_equal_the_dense_formula():
    # dim 1 holds one class, (1,) with q = 1/2: 2^16 + 1 samples are a run of
    # 2^16 seeds and a run of one, and 2^16 - 1 samples one run; each row is
    # K = floor(ln u / ln q) of the first uniform of default_rng(seed)
    theta, tracked = math.log(2), [((1,), 0)]
    assert class_system(1, theta, 0.4).ncls == 1
    u = np.array([np.random.default_rng(seed).random() for seed in range(2 ** 16 + 1)])
    k = _dense_multiplicities(class_system(1, theta, 0.4), u).tolist()
    want = [[seed, int(m > 0), m, m] for seed, m in enumerate(k)]
    assert list(sample_rows(1, theta, 0.4, 2 ** 16 + 1, 0, tracked))[1:] == want
    assert list(sample_rows(1, theta, 0.4, 2 ** 16 - 1, 0, tracked))[1:] == want[:-2]
