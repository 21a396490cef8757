"""Boltzmann sampling of lattice zonotopes at a supplied parameter theta.

The generating function factors into independent geometric laws, one per sign
class: the class of a folded vector v has ratio q_v = exp(-theta ||v||_1) and
multiplicity law P(K = k) = (1 - q_v) q_v^k.  A sample visits every class
with q_v >= cutoff in a fixed order (lexicographic folded vector, then
sign-pattern index), draws K by inversion, K = floor(ln U / ln q_v), with one
uniform per class, and keeps the classes with K >= 1.  The visit order and
the one-uniform-per-class stream are part of the reproducibility contract;
PRNG is numpy's PCG64 (period 2^128), one generator per sample seed.

A class system stores each kept primitive vector once: its coordinates and
its 1-norm in the smallest signed integer type that holds l1_max, and the
visit position of its first class, int32 unless the ball holds 2^31 classes
or more.  The kept vectors are exactly the primitive ones in the 1-norm ball
of radius l1_max, the largest n with e^(-theta n) >= cutoff;
primitives.primitive_rows gives them with their norms and class weights,
whose running sum is the visit positions.  q_v depends on the norm only, so
it is one table over the l1_max + 1 norm shells, read by a gather; the
filter bound, the smallest float32 at least q_v (1 + 1e-9), is the one
per-class array.  At d = 3 and the n = 2e3 saddle (l1_max = 134, int16) a
system holds 9.54 MB: 4 bytes for each of 1,348,801 classes, 12 for each
of 345,448 vectors and 8 for each of 135 shells.  The budget is charged
d + 4 words for each class of the 1-norm ball, which the class law counts.
class_system keeps the six latest systems of fewer than 2^16 classes in an
LRU cache, and of the larger ones only the latest, which any miss lets go
before it builds: two large systems are never held there at once, and one
that no caller holds goes before the next is built (_lru_one_large).

A draw takes all the uniforms, but inverts only those at most the filter
bound: the others give K = 0 under the same formula (see _draw).  It fills
the uniforms in chunks of 2^16 into a buffer of its own (at most 512 KB),
and returns the visit positions with K >= 1, their vectors' rows and their
multiplicities; rows and statistics read them directly, and only
boltzmann_sample turns them into (class, multiplicity) entries.  A tracked
class beyond the cutoff is never drawn: its multiplicity is 0 in every
sample, and its q_v is still e^(-theta ||v||_1).

The samples of one sample_rows or sample_stats request are independent
draws, one seed each, taken in runs of consecutive seeds whose uniforms fit
one chunk: on a system of at most 2^15 classes a run's samples share one
compare, search, log and divide, and its endpoints one cast of the hit rows.
On a system of at least 2^16 classes the runs, one seed each, go to a
thread pool with one worker per core available to the process (numpy
releases the GIL while it fills and compares), at most four per worker in
flight, and come back in seed order; with one core, one sample or fewer
classes they run one after another.  Either way every output is the same.

A class system of fewer than 2^16 classes, whose draws stay on the calling
thread, keeps its latest draws, keyed by seed (_DrawMemo): each seed's
direction count, endpoint, and its hits' visit positions and K, which a
request's rows and tracked columns are built from.  A run of seeds that are
all held is served from them; any other run is drawn, and its seeds kept.
At most 1,024 seeds and 2^16 hits in all are kept, the oldest seeds going
first, under a lock of the memo's own: class_system shares a system between
threads.  A full memo holds 12 bytes a hit and under 800 a seed, at most
about 1.6 MB, so the memos of the six small cached systems at most about
9.6 MB; a memo lives and dies with its system.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .asympt import pd_poly
from .primitives import (
    _approx,
    _charge,
    _check_dim,
    _lru_one_large,
    _primitive,
    primitive_rows,
    signed_representative,
)

ClassId = tuple[tuple[int, ...], int]

_TINY_UNIFORM = 1e-300
# Filter margin of a draw.  A uniform u a few ulps above q_v can still give
# K = 1, since ln u / ln q_v rounds to 1; beyond q_v (1 + 1e-9) the ratio is
# at most 1 - 1e-9/745 (|ln q_v| <= 745 for a double), so K = 0.  The bound
# held is rounded up to a float32, which only lets more uniforms through to
# the inversion: K > 0 still decides, so every draw is the same.
_Q_MARGIN = 1 + 1e-9
# Uniforms per chunk of a draw: 512 KB of doubles, so the draw's buffer and
# the slice of q_hi it is compared with stay in cache.
_CHUNK = 1 << 16
# Seeds whose draws a class system under _PARALLEL_MIN_CLASSES keeps (a
# _DrawMemo): 1,024 holds every seed of a repeated request of up to 1,024
# samples.  It also keeps at most _CHUNK hits in all: at theta 1e-4 and
# cutoff 0.99 in d = 2 a sample hits about 6,050 of 6,088 classes, and 1,024
# of them would hold 74 MB.
_SEED_MEMO = 1024
# Classes from which the draws of one request go to the pool: below this a
# draw (about 0.2 ms of uniforms) costs less than handing it to a thread.
_PARALLEL_MIN_CLASSES = 1 << 16
# Draws in flight per worker.  A finished row waits until the caller takes it,
# and with two per worker the workers often wait for the caller to queue more.
_IN_FLIGHT_PER_WORKER = 4
# Bytes charged for each sample row a request holds: per row, and per column
# plus per character of the column's name, which the JSON text repeats in
# every row.  Under tracemalloc, the sample command (its row dicts and its
# output text) took at most 711 bytes a row at 4 columns of 39 characters,
# 707 at 6 of 59 and 5,252 at 23 of 1,029, against 1,052, 1,260 and 6,228
# charged; sample_stats took at most 650 at 37 columns.
_ROW_BYTES, _CELL_BYTES, _NAME_CHAR_BYTES = 640, 64, 4


class ClassSystem:
    """All sign classes with q_v >= cutoff at parameter theta, in visit order.

    Each kept primitive vector is one row: vecs holds them lex ascending and
    norm their 1-norms, both in the smallest signed integer type that holds
    l1_max.  q_v depends on ||v||_1 only, so shell_q holds it for the norms
    0 .. l1_max, and a row's is read by a gather (the q property).  The
    classes of row r are the visit positions first[r], first[r] + 1, ...,
    first[r + 1] - 1, with sign-pattern index 0, 1, ...; first ends with
    ncls, and is int32 when the class law's count fits it.  q_hi, the only
    per-class array, is the smallest float32 at least q_v (1 + 1e-9), a bound
    beyond which a uniform gives K = 0: 4 bytes per class, and per vector 4
    for first and (d + 1) times the coordinate type's size.  draws keeps the
    latest draws of a request on a system of fewer than 2^16 classes.
    """

    def __init__(self, dim: int, theta: float, cutoff: float):
        _check_dim(dim)  # before the charge and the enumeration's d-tuple bound
        if theta <= 0:
            raise ValueError("theta must be positive")
        if not 0 < cutoff < 1:
            raise ValueError("cutoff must lie in (0, 1)")
        self.dim = dim
        self.theta = float(theta)
        self.cutoff = float(cutoff)
        # -ln cutoff, not ln(1 / cutoff): 1 / cutoff overflows for a subnormal cutoff
        radius = -math.log(cutoff) / theta
        if not math.isfinite(radius):
            raise ValueError(f"cutoff {cutoff} at theta {theta} gives a 1-norm radius "
                             f"that is not finite")
        # the largest norm with e^(-theta n) >= cutoff: int(radius) is at most
        # one off it, as radius carries a few ulps of rounding
        l1_max = int(radius)
        if math.exp(-theta * (l1_max + 1)) >= cutoff:
            l1_max += 1
        elif math.exp(-theta * l1_max) < cutoff:
            l1_max -= 1
        # d + 4 words per class of the ball ||v||_1 <= l1_max, whose C(d, j)
        # C(l1_max, j) points with j nonzero coordinates carry 2^(j-1) classes
        # each: at least one class per lattice point (Vandermonde), so this
        # bounds the enumeration's transients (a few narrow integers and one
        # int64 index per point) and the kept arrays (less than that per class)
        classes = 1 + sum(math.comb(dim, j) * math.comb(l1_max, j) * 2 ** (j - 1)
                          for j in range(1, min(dim, l1_max) + 1))
        _charge(classes * 8 * (dim + 4),
                f"class system of 1-norm radius {_approx(l1_max)} in dim {dim}")
        coord = _narrowest(l1_max, (np.int8, np.int16, np.int32, np.int64))
        self.vecs, self.norm, weight = primitive_rows(dim, (l1_max,) * dim, l1_max, coord)
        # the ball's classes bound ncls, the last visit position
        self.first = np.zeros(len(weight) + 1, dtype=_position_type(classes))
        # cast in place, then summed in place: cumsum into a narrower out
        # would make a whole temporary of the wider type
        self.first[1:] = weight
        np.cumsum(self.first[1:], out=self.first[1:])
        self.ncls = int(self.first[-1])
        self.shell_q = np.exp(-self.theta * np.arange(l1_max + 1, dtype=np.float64))
        self.q_hi = np.repeat(_shell_bounds(self.shell_q)[self.norm], weight)
        self.l1_max = l1_max
        self.draws = _DrawMemo()

    @property
    def q(self) -> np.ndarray:
        """q_v of each row (a gather from shell_q)."""
        return self.shell_q[self.norm]

    def index_of(self, class_id: ClassId) -> int | None:
        """Visit position of a class, None for a class the system does not hold
        (beyond the cutoff, or no sign class at all): one binary search over the
        rows as records, which compare lexicographically, the rows' order."""
        coords, j = class_id
        # kept vectors lie in [0, l1_max]^d; a coordinate outside may not fit vecs
        if len(coords) == self.dim and all(0 <= c <= self.l1_max for c in coords):
            records = self.vecs.view([("", self.vecs.dtype)] * self.dim)[:, 0]
            key = np.array(tuple(coords), dtype=records.dtype)
            r = int(records.searchsorted(key))
            # row r is the vector, if kept; it has first[r + 1] - first[r] classes
            kept = r < len(records) and records[r] == key
            if kept and j in range(self.first[r + 1] - self.first[r]):
                return int(self.first[r]) + int(j)
        return None


def _narrowest(n: int, types) -> type:
    """The first of the signed integer types `types` that holds n."""
    return next(t for t in types if n <= np.iinfo(t).max)


def _position_type(classes: int) -> type:
    """int32 for visit positions up to `classes`, if it holds them, else int64."""
    return _narrowest(classes, (np.int32, np.int64))


def _shell_bounds(shell_q: np.ndarray) -> np.ndarray:
    """The filter bound of each shell: the smallest float32 at least
    q (1 + 1e-9), the smallest subnormal below the float32 range."""
    want = shell_q * _Q_MARGIN
    bound = want.astype(np.float32)
    # the cast rounds to nearest: step up where it rounded down
    return np.nextafter(bound, np.float32(np.inf), out=bound, where=bound < want)


@_lru_one_large(6, lambda sys: sys.ncls >= _PARALLEL_MIN_CLASSES)
def class_system(dim: int, theta: float, cutoff: float, /) -> ClassSystem:
    """ClassSystem(dim, theta, cutoff), kept for the six latest keys of
    systems under 2^16 classes and for the latest of the larger ones only:
    any miss lets that one go before it builds (_lru_one_large)."""
    return ClassSystem(dim, theta, cutoff)


@dataclass(frozen=True)
class ZonotopeSample:
    """One random zonotope: sign classes with multiplicities, plus its bounding box."""

    dim: int
    theta: float
    cutoff: float
    seed: int
    entries: tuple[tuple[ClassId, int], ...]
    endpoint: tuple[int, ...]
    direction_count: int


def _class_id(dim: int, class_id: ClassId) -> ClassId:
    """class_id as (tuple of ints, int), refused with ValueError unless it names
    a sign class in dim: dim coordinates, primitive, a sign index in range."""
    coords, j = class_id
    coords = _primitive(coords, dim, "class vector")
    j = operator.index(j)
    signed_representative(coords, j)  # rejects an out-of-range sign index
    return coords, j


def _check_seed(seed) -> int:
    """seed as an int; refused by name unless it is a nonnegative integer."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be a nonnegative integer, not {type(seed).__name__}") from None
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return seed


def _generator(seed: int) -> np.random.Generator:
    """default_rng(seed), the generator of the sample of that seed."""
    return np.random.default_rng(seed)


def _draw(sys: ClassSystem, seed: int, count: int = 1
          ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The samples of seeds seed .. seed + count - 1: where each one's hits
    start, then the hits' visit positions, their vectors' rows and their K.

    The hits of seed + i are [bounds[i]:bounds[i + 1]], visit positions
    ascending.  Each sample takes one uniform per class, in visit order, from
    default_rng(seed + i) (_generator).  K is floor(ln max(u, 1e-300) / ln q_v),
    evaluated only where u <= q_hi (numpy compares the double with the float32
    bound exactly, as doubles).  The uniforms are filled into the draw's own
    buffer of at most _CHUNK.  A run of seeds (count > 1) needs
    count * ncls <= _CHUNK: its samples fill one
    buffer one after another and share one compare, search, log and divide,
    and the K = 0 candidates are dropped only when there are any.  One seed
    on a larger system fills _CHUNK at a time: a double takes one PCG64
    output, so consecutive fills are the stream of one fill.
    """
    seed = _check_seed(seed)
    n = sys.ncls
    buf = np.empty(min(_CHUNK, n * count))
    hits, kept = [], []
    for lo in range(0, n or 1, _CHUNK):  # one empty chunk when ncls = 0
        width = min(_CHUNK, n - lo)
        u = buf[:count * width]
        for i in range(count):  # count > 1 only in the one chunk at lo = 0
            if not lo:
                gen = _generator(seed + i)
            gen.random(out=u[i * width:(i + 1) * width])
        # flat index i * ncls + position of every candidate; one seed
        # compares its chunk as the flat slice it is, with no broadcast
        q = sys.q_hi[lo:lo + width]
        f = (u <= q if count == 1 else (u.reshape(count, width) <= q).ravel()).nonzero()[0]
        kept.append(buf.take(f))
        if lo:
            f += lo
        hits.append(f)
    # a draw of one chunk copies nothing more
    f, x = (hits[0], kept[0]) if len(hits) == 1 else (np.concatenate(hits), np.concatenate(kept))
    # pos in first's type, or the search below copies all of first to the
    # wider type on every draw; a run's flat index i * ncls + position fits
    # int32, whose remainder is cheaper than int64's (a copy: f stays flat)
    pos = f.astype(sys.first.dtype)
    if count > 1:
        pos %= n
    # first[1:] holds the end of each row's classes: pos's row is the number
    # of ends at most pos
    row = sys.first[1:].searchsorted(pos, "right")
    np.log(np.maximum(x, _TINY_UNIFORM, out=x), out=x)
    # ln q_v is -theta ||v||_1 and ln u / ln q_v > 0, so the conversion's
    # truncation is the floor and K >= 0; take gathers faster than fancy
    # indexing does
    k = np.divide(x, sys.norm.take(row) * -sys.theta, out=x).astype(np.int64)
    if not k.all():  # a candidate between q_v and its bound: rare
        hit = k.nonzero()[0]
        f, pos, row, k = f[hit], pos[hit], row[hit], k[hit]
    return f.searchsorted(n * np.arange(count + 1)).tolist(), pos, row, k


def boltzmann_sample(dim: int, theta: float, cutoff: float = 1e-12,
                     seed: int = 0) -> ZonotopeSample:
    """Draw one zonotope; deterministic for fixed (dim, theta, cutoff, seed)."""
    sys = class_system(dim, theta, cutoff)
    _, pos, row, k = _draw(sys, seed)
    coords = sys.vecs[row]
    entries = tuple(((tuple(c), j), m) for c, j, m in zip(
        coords.tolist(), (pos - sys.first[row]).tolist(), k.tolist()))
    return ZonotopeSample(
        dim=dim, theta=sys.theta, cutoff=sys.cutoff, seed=seed, entries=entries,
        endpoint=tuple((k @ coords).tolist()), direction_count=len(entries),
    )


def expected_endpoint_truncated(dim: int, theta: float, cutoff: float) -> tuple[float, ...]:
    """Exact expected bounding box over the kept classes:
    component i is sum_v v_i q_v/(1-q_v) (geometric means per class)."""
    sys = class_system(dim, theta, cutoff)
    q = sys.q
    weights = np.diff(sys.first) * (q / (1.0 - q))
    return tuple(float(x) for x in weights @ sys.vecs)


def truncation_bias_estimate(dim: int, theta: float, cutoff: float) -> float:
    """Upper estimate of the discarded classes' mass, summed over the shell
    beyond the cutoff radius: sum_{n > l1_max} P_d(n) e^(-theta n).

    P_d(n) counts all integer vectors of 1-norm n with their sign-class
    weights, so this bounds the primitive-only discarded mass from above.
    """
    return _truncation_bias(class_system(dim, theta, cutoff))


def _truncation_bias(sys: ClassSystem) -> float:
    # Newton's forward series of P_d from N = l1_max + 1, with x = e^-theta:
    # sum_{n >= N} P_d(n) x^n = x^N sum_{k<d} Delta^k P_d(N) x^k / (1 - x)^(k+1).
    # Delta^k P_d(N) >= 0 for N >= 1, so no term cancels another.
    n0 = sys.l1_max + 1
    coeffs = pd_poly(sys.dim)
    diffs = [sum(c * n ** i for i, c in enumerate(coeffs)) for n in range(n0, n0 + sys.dim)]
    one_minus_x = -math.expm1(-sys.theta)
    acc = 0.0
    for k in range(sys.dim):
        acc += float(diffs[0]) * math.exp(-sys.theta * (n0 + k)) / one_minus_x ** (k + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return acc


@dataclass(frozen=True)
class TrackedClassStats:
    class_id: ClassId
    q: float
    mean: float
    variance: float
    stderr: float


@dataclass(frozen=True)
class SampleStats:
    """Monte-Carlo summary over seeded samples."""

    dim: int
    theta: float
    cutoff: float
    n_samples: int
    base_seed: int
    direction_mean: float
    direction_variance: float
    direction_stderr: float
    endpoint_mean: tuple[float, ...]
    endpoint_variance: tuple[float, ...]
    endpoint_stderr: tuple[float, ...]
    expected_directions: float
    bias_estimate: float
    tracked: dict


def sample_stats(dim: int, theta: float, cutoff: float, n_samples: int,
                 base_seed: int, tracked: Sequence[ClassId] = ()) -> SampleStats:
    """Empirical moments of direction count, endpoint, and tracked multiplicities.

    A tracked id that names no sign class in dim raises ValueError.  A class
    beyond the cutoff is never drawn: mean, variance and stderr 0, with
    q = e^(-theta ||v||_1)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    tracked_ids = [_class_id(dim, cid) for cid in tracked]
    _charge_rows(n_samples, _header(dim, tracked_ids))
    sys = class_system(dim, theta, cutoff)
    pos = [sys.index_of(cid) for cid in tracked_ids]
    q = [math.exp(-sys.theta * sum(coords)) if p is None
         else float(sys.shell_q[sum(coords)])
         for (coords, _), p in zip(tracked_ids, pos)]
    # one contiguous row per column: direction count, endpoint, tracked K
    cols = np.array(list(_rows(sys, n_samples, base_seed, pos)), dtype=np.float64)[:, 1:].T.copy()
    mean = cols.mean(axis=1).tolist()
    var = cols.var(axis=1, ddof=1 if n_samples > 1 else 0).tolist()
    stderr = [math.sqrt(v / n_samples) for v in var]
    tracked_out = {
        cid: TrackedClassStats(class_id=cid, q=q[j], mean=mean[1 + dim + j],
                               variance=var[1 + dim + j], stderr=stderr[1 + dim + j])
        for j, cid in enumerate(tracked_ids)}
    return SampleStats(
        dim=dim, theta=sys.theta, cutoff=sys.cutoff, n_samples=n_samples,
        base_seed=base_seed,
        direction_mean=mean[0],
        direction_variance=var[0],
        direction_stderr=stderr[0],
        endpoint_mean=tuple(mean[1:1 + dim]),
        endpoint_variance=tuple(var[1:1 + dim]),
        endpoint_stderr=tuple(stderr[1:1 + dim]),
        expected_directions=float(np.diff(sys.first) @ sys.q),
        bias_estimate=_truncation_bias(sys),
        tracked=tracked_out,
    )


def to_polygon(sample: ZonotopeSample) -> list[tuple[int, int]]:
    """Convex polygon realization of a planar sample, starting at the origin.

    Each entry contributes the edge mult * signed vector and its negative;
    edges are walked in angular order from the positive x-axis.
    """
    if sample.dim != 2:
        raise ValueError("polygon realization is defined for dim = 2 only")
    edges: list[tuple[int, int]] = []
    for (coords, sj), mult in sample.entries:
        rx, ry = signed_representative(coords, sj)
        edges.append((mult * rx, mult * ry))
        edges.append((-mult * rx, -mult * ry))
    if not edges:
        return [(0, 0)]
    edges.sort(key=lambda e: math.atan2(e[1], e[0]) % (2 * math.pi))
    verts = [(0, 0)]
    x = y = 0
    for ex, ey in edges[:-1]:
        x += ex
        y += ey
        verts.append((x, y))
    return verts


def sample_rows(dim: int, theta: float, cutoff: float, n_samples: int, base_seed: int,
                tracked: Sequence[ClassId] = ()) -> Iterator[list]:
    """Header row, then one row per seed base_seed, base_seed+1, ...: seed,
    direction count, endpoint, tracked multiplicities (column omega_<v>_c<j>
    for class (v, j); 0 for a class beyond the cutoff, which is never drawn,
    and ValueError for an id that names no sign class in dim)."""
    tracked_ids = [_class_id(dim, cid) for cid in tracked]
    sys = class_system(dim, theta, cutoff)
    yield _header(dim, tracked_ids)
    yield from _rows(sys, n_samples, base_seed, [sys.index_of(cid) for cid in tracked_ids])


def _header(dim: int, tracked_ids: Sequence[ClassId]) -> list[str]:
    """The column names of sample_rows."""
    return (["seed", "direction_count"]
            + [f"endpoint_{i}" for i in range(dim)]
            + ["omega_" + "_".join(map(str, c)) + f"_c{j}" for c, j in tracked_ids])


def _charge_rows(n_samples: int, header: Sequence[str]) -> None:
    """Charge the budget for n_samples rows of the columns `header`, held at once."""
    per_row = _ROW_BYTES + _CELL_BYTES * len(header) + _NAME_CHAR_BYTES * sum(map(len, header))
    _charge(n_samples * per_row, f"{_approx(n_samples)} sample rows of {len(header)} columns")


class _DrawMemo:
    """The latest draws of one class system, keyed by seed: direction count,
    endpoint, and the hits' visit positions and K.  At most _SEED_MEMO seeds
    and _CHUNK hits in all, oldest out first; locked, as threads share it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._draws: OrderedDict[int, tuple] = OrderedDict()
        self._hits = 0

    def get(self, seed: int, count: int) -> list[tuple] | None:
        """The draws of seeds seed .. seed + count - 1; None unless all are held."""
        with self._lock:
            draws = [self._draws.get(s) for s in range(seed, seed + count)]
        return None if None in draws else draws

    def put(self, seed: int, draws: Sequence[tuple]) -> None:
        """Keep the draws of seeds seed, seed + 1, ...: a system under the gate
        has fewer than _CHUNK classes, so the latest seed always stays."""
        # copies: a view would keep the whole run's hits alive
        kept = [(n, end, pos.copy(), k.copy()) for n, end, pos, k in draws[-_SEED_MEMO:]]
        with self._lock:
            for s, draw in enumerate(kept, seed + len(draws) - len(kept)):
                old = self._draws.pop(s, None)
                self._hits += draw[0] - (0 if old is None else old[0])
                self._draws[s] = draw
            while len(self._draws) > _SEED_MEMO or self._hits > _CHUNK:
                self._hits -= self._draws.popitem(last=False)[1][0]


def _rows(sys: ClassSystem, n_samples: int, base_seed: int,
          tracked_pos: Sequence[int | None]) -> Iterator[list]:
    """sample_rows without the header; tracked classes given by visit position."""
    base_seed = _check_seed(base_seed)
    # the draws of a system below the pool's gate are kept, and served again
    memo = sys.draws if sys.ncls < _PARALLEL_MIN_CLASSES else None

    def run(seed: int, count: int) -> list[list]:
        draws = None if memo is None else memo.get(seed, count)
        if draws is None:
            bounds, pos, rows, k = _draw(sys, seed, count)
            # the hits' rows cast to K's type once for the run, not per sample;
            # take gathers rows several times faster than fancy indexing does
            vecs = sys.vecs.take(rows, 0).astype(np.int64)
            draws = [(b - a, k[a:b].dot(vecs[a:b]).tolist(), pos[a:b], k[a:b])
                     for a, b in zip(bounds, bounds[1:])]
            if memo is not None:
                memo.put(seed, draws)
        return [[seed + i, n, *end, *(_multiplicity_at(pos, k, p) for p in tracked_pos)]
                for i, (n, end, pos, k) in enumerate(draws)]

    # runs of seeds whose uniforms fit one chunk; one seed each from 2^15 classes
    per_run = max(1, _CHUNK // max(sys.ncls, 1))
    end = base_seed + n_samples
    runs = ((seed, min(per_run, end - seed)) for seed in range(base_seed, end, per_run))
    pool = _pool() if n_samples > 1 and sys.ncls >= _PARALLEL_MIN_CLASSES else None
    if pool is None:
        for seed, count in runs:
            yield from run(seed, count)
        return
    from concurrent.futures import wait

    window: list = []  # the runs in flight, oldest first
    try:
        for seed, count in runs:
            if len(window) == _IN_FLIGHT_PER_WORKER * _cores():
                yield from window.pop(0).result()
            window.append(pool.submit(run, seed, count))
        while window:
            yield from window.pop(0).result()
    finally:
        # closed early or failed: drop the runs not started, let the rest end
        for future in window:
            future.cancel()
        wait(window)


@functools.cache
def _cores() -> int:
    """Cores available to the process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool():
    """The draw pool, one worker per core, made on first use; None on one core."""
    if _cores() < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_cores(), thread_name_prefix="zonocount-draw")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _multiplicity_at(pos: np.ndarray, k: np.ndarray, p: int | None) -> int:
    """K of the class at visit position p in a draw (pos, k); 0 if not drawn."""
    if p is None:
        return 0
    i = int(pos.searchsorted(p))
    return int(k[i]) if i < pos.size and pos[i] == p else 0


def write_sample_csv(path, dim: int, theta: float, cutoff: float, n_samples: int,
                     base_seed: int, tracked: Sequence[ClassId] = ()) -> None:
    """One row per sample: seed, direction count, endpoint, tracked multiplicities."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(sample_rows(dim, theta, cutoff, n_samples, base_seed, tracked))


def write_polygon_csv(path, sample: ZonotopeSample) -> None:
    """Vertex list of the planar realization, one vertex per row."""
    verts = to_polygon(sample)  # before the file is opened: it refuses d != 2
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("x", "y"), *verts])
