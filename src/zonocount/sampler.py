"""Boltzmann sampling of lattice zonotopes at a supplied parameter theta.

The generating function factors into independent geometric laws, one per sign
class: the class of a folded vector v has ratio q_v = exp(-theta ||v||_1) and
multiplicity law P(K = k) = (1 - q_v) q_v^k.  A sample visits every class
with q_v >= cutoff in a fixed order (lexicographic folded vector, then
sign-pattern index), draws K by inversion, K = floor(ln U / ln q_v), with one
uniform per class, and keeps the classes with K >= 1.  The visit order and
the one-uniform-per-class stream are part of the reproducibility contract;
PRNG is numpy's PCG64 (period 2^128), one generator per sample seed.

A class system is stored as numpy arrays only (folded vector, sign index,
1-norm, ln q_v, q_v per class).  A draw is the vector of multiplicities in
visit order; rows and statistics read it directly, and only boltzmann_sample
turns it into (class, multiplicity) entries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .asympt import pd_poly
from .exact import MemoryBudgetError, _memory_budget
from .primitives import _concat_aranges, primitive_l1_array

ClassId = tuple[tuple[int, ...], int]

_TINY_UNIFORM = 1e-300


def signed_representative(coords: Sequence[int], sign_idx: int) -> tuple[int, ...]:
    """Signed vector of a sign class: first nonzero coordinate kept positive,
    remaining nonzero coordinates flipped according to the bits of sign_idx."""
    coords = tuple(coords)
    nz = [i for i, c in enumerate(coords) if c]
    if not nz:
        raise ValueError("zero vector has no sign classes")
    if not 0 <= sign_idx < 1 << (len(nz) - 1):
        raise ValueError(f"sign index {sign_idx} out of range for {coords}")
    out = list(coords)
    for bit, pos in enumerate(nz[1:]):
        if sign_idx >> bit & 1:
            out[pos] = -out[pos]
    return tuple(out)


class ClassSystem:
    """All sign classes with q_v >= cutoff at parameter theta, in visit order.

    Class i is the folded vector coords[i] with sign-pattern index sign[i];
    l1, log_q and q are its 1-norm, ln q_v and q_v.
    """

    def __init__(self, dim: int, theta: float, cutoff: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if not 0 < cutoff < 1:
            raise ValueError("cutoff must lie in (0, 1)")
        self.dim = dim
        self.theta = float(theta)
        self.cutoff = float(cutoff)
        l1_max = int(math.log(1.0 / cutoff) / theta)
        # coords, sign, l1, log_q and q: d + 4 words per class, at most
        # 2^(d-1) classes per lattice point of the simplex ||v||_1 <= l1_max
        need = math.comb(l1_max + dim, dim) * 2 ** (dim - 1) * 8 * (dim + 4)
        budget = _memory_budget()
        if need > budget:
            raise MemoryBudgetError(
                f"class system of 1-norm radius {l1_max} in dim {dim} "
                f"(~{need / 1e9:.3g} GB) exceeds budget {budget / 1e9:.3g} GB")
        vecs = primitive_l1_array(dim, l1_max)
        norms = vecs.sum(axis=1)
        # only the norms that occur need the rounding check (at d = 1 that is one)
        kept = np.array([math.exp(-theta * n) >= cutoff for n in range(norms.max(initial=0) + 1)])
        vecs = vecs[kept[norms]]
        weight = 1 << (np.count_nonzero(vecs, axis=1) - 1)
        self.coords = np.repeat(vecs, weight, axis=0)
        self.sign = _concat_aranges(weight)
        self.ncls = len(self.sign)
        self.l1 = self.coords.sum(axis=1)
        self.log_q = -self.theta * self.l1.astype(np.float64)
        self.q = np.exp(self.log_q)
        self.l1_max = l1_max

    @property
    def class_ids(self) -> list[ClassId]:
        return list(zip(map(tuple, self.coords.tolist()), self.sign.tolist()))

    def index_of(self, class_id: ClassId) -> int:
        coords, j = class_id
        if len(coords) == self.dim:
            hit = np.flatnonzero((self.coords == coords).all(axis=1) & (self.sign == j))
            if hit.size:
                return int(hit[0])
        raise KeyError(f"class {class_id} not within cutoff")


_SYSTEM_CACHE: dict[tuple[int, float, float], ClassSystem] = {}


def class_system(dim: int, theta: float, cutoff: float) -> ClassSystem:
    key = (dim, float(theta), float(cutoff))
    sys = _SYSTEM_CACHE.get(key)
    if sys is None:
        sys = ClassSystem(dim, theta, cutoff)
        if len(_SYSTEM_CACHE) > 8:
            _SYSTEM_CACHE.clear()
        _SYSTEM_CACHE[key] = sys
    return sys


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

    def multiplicity(self, class_id: ClassId) -> int:
        cid = (tuple(class_id[0]), int(class_id[1]))
        for entry_id, mult in self.entries:
            if entry_id == cid:
                return mult
        return 0


def _multiplicities(sys: ClassSystem, seed: int) -> np.ndarray:
    """K for every class in visit order: one uniform each from default_rng(seed)."""
    u = np.random.default_rng(seed).random(sys.ncls)
    np.log(np.maximum(u, _TINY_UNIFORM, out=u), out=u)  # in place: one buffer per draw
    return np.floor(np.divide(u, sys.log_q, out=u), out=u).astype(np.int64)


def boltzmann_sample(dim: int, theta: float, cutoff: float = 1e-12, seed: int = 0,
                     system: ClassSystem | None = None) -> ZonotopeSample:
    """Draw one zonotope; deterministic for fixed (dim, theta, cutoff, seed)."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    sys = system if system is not None else class_system(dim, theta, cutoff)
    mult = _multiplicities(sys, seed)
    idx = np.flatnonzero(mult > 0)
    entries = tuple(((tuple(c), j), k) for c, j, k in zip(
        sys.coords[idx].tolist(), sys.sign[idx].tolist(), mult[idx].tolist()))
    return ZonotopeSample(
        dim=dim, theta=sys.theta, cutoff=sys.cutoff, seed=seed, entries=entries,
        endpoint=tuple((mult[idx] @ sys.coords[idx]).tolist()), direction_count=len(entries),
    )


def iter_samples(dim: int, theta: float, cutoff: float, n_samples: int,
                 base_seed: int) -> Iterator[ZonotopeSample]:
    """Samples with seeds base_seed, base_seed+1, ... (independent streams)."""
    sys = class_system(dim, theta, cutoff)
    for i in range(n_samples):
        yield boltzmann_sample(dim, theta, cutoff, base_seed + i, system=sys)


def expected_directions_truncated(dim: int, theta: float, cutoff: float) -> float:
    """Exact expected number of used directions over the kept classes:
    sum of q_v (each class is used with probability q_v)."""
    return float(class_system(dim, theta, cutoff).q.sum())


def expected_endpoint_truncated(dim: int, theta: float, cutoff: float) -> tuple[float, ...]:
    """Exact expected bounding box over the kept classes:
    component i is sum_v v_i q_v/(1-q_v) (geometric means per class)."""
    sys = class_system(dim, theta, cutoff)
    weights = sys.q / (1.0 - sys.q)
    return tuple(float(x) for x in weights @ sys.coords)


def truncation_bias_estimate(dim: int, theta: float, cutoff: float) -> float:
    """Upper estimate of the discarded classes' mass, summed over the shell
    beyond the cutoff radius: sum_{n > l1_max} P_d(n) e^(-theta n).

    P_d(n) counts all integer vectors of 1-norm n with their sign-class
    weights, so this bounds the primitive-only discarded mass from above.
    """
    sys = class_system(dim, theta, cutoff)
    poly = pd_poly(dim)
    acc = 0.0
    n = sys.l1_max + 1
    while True:
        term = float(poly(float(n))) * math.exp(-theta * n)
        acc += term
        n += 1
        if term < 1e-22 * (acc + 1e-300) or n > sys.l1_max + 200000:
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
    qs = [float(sys.q[sys.index_of(cid)]) for cid in tracked_ids]  # KeyError beyond cutoff
    rows = sample_rows(dim, theta, cutoff, n_samples, base_seed, tracked_ids)
    next(rows)  # header
    data = np.array(list(rows), dtype=np.float64)
    dirs, ends, omegas = data[:, 1], data[:, 2:2 + dim], data[:, 2 + dim:]
    ddof = 1 if n_samples > 1 else 0
    tracked_out = {}
    for j, cid in enumerate(tracked_ids):
        col = omegas[:, j]
        var = float(col.var(ddof=ddof))
        tracked_out[cid] = TrackedClassStats(
            class_id=cid,
            q=qs[j],
            mean=float(col.mean()),
            variance=var,
            stderr=math.sqrt(var / n_samples),
        )
    dvar = float(dirs.var(ddof=ddof))
    evar = ends.var(axis=0, ddof=ddof)
    return SampleStats(
        dim=dim, theta=sys.theta, cutoff=sys.cutoff, n_samples=n_samples,
        base_seed=base_seed,
        direction_mean=float(dirs.mean()),
        direction_variance=dvar,
        direction_stderr=math.sqrt(dvar / n_samples),
        endpoint_mean=tuple(float(x) for x in ends.mean(axis=0)),
        endpoint_variance=tuple(float(x) for x in evar),
        endpoint_stderr=tuple(math.sqrt(float(x) / n_samples) for x in evar),
        expected_directions=expected_directions_truncated(dim, theta, cutoff),
        bias_estimate=truncation_bias_estimate(dim, theta, cutoff),
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
    for seed in range(base_seed, base_seed + n_samples):
        mult = _multiplicities(sys, seed)
        idx = np.flatnonzero(mult > 0)
        yield [seed, idx.size, *(mult[idx] @ sys.coords[idx]).tolist(),
               *(0 if p is None else int(mult[p]) for p in pos)]


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
