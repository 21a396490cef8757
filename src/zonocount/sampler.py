"""Boltzmann sampling of lattice zonotopes at a supplied parameter theta.

The generating function factors into independent geometric laws, one per sign
class: the class of a folded vector v has ratio q_v = exp(-theta ||v||_1) and
multiplicity law P(K = k) = (1 - q_v) q_v^k.  A sample visits every class
with q_v >= cutoff in a fixed order (lexicographic folded vector, then
sign-pattern index), draws K by inversion, K = floor(ln U / ln q_v), with one
uniform per class, and keeps the classes with K >= 1.  The visit order and
the one-uniform-per-class stream are part of the reproducibility contract;
PRNG is numpy's PCG64 (period 2^128), one generator per sample seed.

A class system stores each kept primitive vector once (the vector, ln q_v,
q_v and the visit position of its first class); the filter bound
q_v (1 + 1e-9) is the one per-class array.  The kept vectors are exactly the
primitive ones in the 1-norm ball of radius l1_max, the largest n with
e^(-theta n) >= cutoff.  class_system keeps the six latest systems in an LRU
cache.  A draw still takes all the uniforms, but inverts only those at most
the filter bound: the others give K = 0 under the same formula (see _draw).
It returns the visit positions with K >= 1, their vectors' rows and their
multiplicities; rows and statistics read them directly, and only
boltzmann_sample turns them into (class, multiplicity) entries.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .asympt import pd_poly
from .primitives import (
    _approx,
    _charge,
    class_weights,
    primitive_array,
    signed_representative,
)

ClassId = tuple[tuple[int, ...], int]

_TINY_UNIFORM = 1e-300
# Filter margin of a draw.  A uniform u a few ulps above q_v can still give
# K = 1, since ln u / ln q_v rounds to 1; beyond q_v (1 + 1e-9) the ratio is
# at most 1 - 1e-9/745 (|ln q_v| <= 745 for a double), so K = 0.
_Q_MARGIN = 1 + 1e-9


class ClassSystem:
    """All sign classes with q_v >= cutoff at parameter theta, in visit order.

    Each kept primitive vector is one row: vecs holds them lex ascending,
    log_q and q their ln q_v and q_v.  The classes of row r are the visit
    positions first[r], first[r] + 1, ..., first[r + 1] - 1, with sign-pattern
    index 0, 1, ...; first ends with ncls.  q_hi, the only per-class array, is
    q_v (1 + 1e-9), the bound beyond which a uniform gives K = 0.
    """

    def __init__(self, dim: int, theta: float, cutoff: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if not 0 < cutoff < 1:
            raise ValueError("cutoff must lie in (0, 1)")
        self.dim = dim
        self.theta = float(theta)
        self.cutoff = float(cutoff)
        radius = math.log(1.0 / cutoff) / theta
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
        # d + 4 words for each of the at most 2^(d-1) classes per lattice point
        # of the simplex ||v||_1 <= l1_max: a bound on the transient of the
        # enumeration below (about 2d + 4 words per lattice point), which
        # exceeds the arrays kept (one word per class, d + 3 per vector)
        _charge(math.comb(l1_max + dim, dim) * 2 ** (dim - 1) * 8 * (dim + 4),
                f"class system of 1-norm radius {_approx(l1_max)} in dim {dim}")
        self.vecs = primitive_array(dim, (l1_max,) * dim, l1_max)
        weight = class_weights(self.vecs)
        self.first = np.concatenate(([0], np.cumsum(weight)))
        self.ncls = int(self.first[-1])
        self.log_q = -self.theta * self.vecs.sum(axis=1).astype(np.float64)
        self.q = np.exp(self.log_q)
        self.q_hi = np.repeat(self.q * _Q_MARGIN, weight)
        self.l1_max = l1_max

    def index_of(self, class_id: ClassId) -> int:
        """Visit position of a class: one binary search per coordinate."""
        coords, j = class_id
        if len(coords) == self.dim:
            lo, hi = 0, len(self.vecs)
            for col, c in enumerate(coords):
                column = self.vecs[lo:hi, col]
                lo, hi = (lo + int(np.searchsorted(column, c, "left")),
                          lo + int(np.searchsorted(column, c, "right")))
            # rows lo..hi-1 are the vector, if kept; it has first[hi] - first[lo] classes
            if j in range(self.first[hi] - self.first[lo]):
                return int(self.first[lo]) + int(j)
        raise KeyError(f"class {class_id} not within cutoff")


@functools.lru_cache(maxsize=6)
def class_system(dim: int, theta: float, cutoff: float) -> ClassSystem:
    """ClassSystem(dim, theta, cutoff) of the six latest keys; call it
    positionally, as lru_cache keys keyword calls apart."""
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


def _draw(sys: ClassSystem, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit positions with K >= 1, ascending, their vectors' rows and their K.

    One uniform per class from default_rng(seed), in visit order; K is
    floor(ln max(u, 1e-300) / ln q_v), evaluated only where u <= q_hi.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    u = np.random.default_rng(seed).random(sys.ncls)
    pos = np.flatnonzero(u <= sys.q_hi)
    row = np.searchsorted(sys.first, pos, "right") - 1
    x = u[pos]
    np.log(np.maximum(x, _TINY_UNIFORM, out=x), out=x)
    k = np.floor(np.divide(x, sys.log_q[row], out=x), out=x).astype(np.int64)
    hit = k > 0
    return pos[hit], row[hit], k[hit]


def boltzmann_sample(dim: int, theta: float, cutoff: float = 1e-12,
                     seed: int = 0) -> ZonotopeSample:
    """Draw one zonotope; deterministic for fixed (dim, theta, cutoff, seed)."""
    sys = class_system(dim, theta, cutoff)
    pos, row, k = _draw(sys, seed)
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
    weights = np.diff(sys.first) * (sys.q / (1.0 - sys.q))
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
    coeffs = pd_poly(sys.dim).coeffs
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
    """Empirical moments of direction count, endpoint, and tracked multiplicities."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    sys = class_system(dim, theta, cutoff)
    tracked_ids = [(tuple(c), int(j)) for c, j in tracked]
    pos = [sys.index_of(cid) for cid in tracked_ids]  # KeyError beyond cutoff
    q = sys.q[np.searchsorted(sys.first, pos, "right") - 1]
    # one contiguous row per column: direction count, endpoint, tracked K
    cols = np.array(list(_rows(sys, n_samples, base_seed, pos)), dtype=np.float64)[:, 1:].T.copy()
    mean = cols.mean(axis=1).tolist()
    var = cols.var(axis=1, ddof=1 if n_samples > 1 else 0).tolist()
    stderr = [math.sqrt(v / n_samples) for v in var]
    tracked_out = {
        cid: TrackedClassStats(class_id=cid, q=float(q[j]), mean=mean[1 + dim + j],
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
    for class (v, j); 0 for a class beyond the cutoff)."""
    sys = class_system(dim, theta, cutoff)
    tracked_ids = [(tuple(c), int(j)) for c, j in tracked]
    yield (["seed", "direction_count"]
           + [f"endpoint_{i}" for i in range(dim)]
           + ["omega_" + "_".join(map(str, c)) + f"_c{j}" for c, j in tracked_ids])
    pos = []
    for cid in tracked_ids:
        try:
            pos.append(sys.index_of(cid))
        except KeyError:
            pos.append(None)
    yield from _rows(sys, n_samples, base_seed, pos)


def _rows(sys: ClassSystem, n_samples: int, base_seed: int,
          tracked_pos: Sequence[int | None]) -> Iterator[list]:
    """sample_rows without the header; tracked classes given by visit position."""
    for seed in range(base_seed, base_seed + n_samples):
        pos, row, k = _draw(sys, seed)
        yield [seed, pos.size, *(k @ sys.vecs[row]).tolist(),
               *(_multiplicity_at(pos, k, p) for p in tracked_pos)]


def _multiplicity_at(pos: np.ndarray, k: np.ndarray, p: int | None) -> int:
    """K of the class at visit position p in a draw (pos, k); 0 if not drawn."""
    if p is None:
        return 0
    i = int(np.searchsorted(pos, p))
    return int(k[i]) if i < pos.size and pos[i] == p else 0


def write_sample_csv(path, dim: int, theta: float, cutoff: float, n_samples: int,
                     base_seed: int, tracked: Sequence[ClassId] = ()) -> None:
    """One row per sample: seed, direction count, endpoint, tracked multiplicities."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(sample_rows(dim, theta, cutoff, n_samples, base_seed, tracked))


def write_polygon_csv(path, sample: ZonotopeSample) -> None:
    """Vertex list of the planar realization, one vertex per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in to_polygon(sample):
            writer.writerow([x, y])
