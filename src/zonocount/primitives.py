"""Primitive integer vectors in the nonnegative orthant.

These index the factors of the zonotope generating function: a vector v with
d(v) nonzero coordinates carries 2^(d(v)-1) sign classes, so its factor weight
is 2^(d(v)-1).  Enumeration is in lexicographic order: streamed over a box
for the exact DP, and as one numpy array over an l1 ball for the sampler.  The
Moebius sieve count is the independent cross-check,

    #primitive <= b  =  sum_{k>=1} mu(k) (prod_i (floor(b_i/k) + 1) - 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class PrimVec:
    """A primitive direction in the nonnegative orthant with its class weight."""

    coords: tuple[int, ...]
    nonzero_count: int
    weight: int


def _validate_vector(v: Sequence[int], dim: int) -> tuple[int, ...]:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    vt = tuple(int(c) for c in v)
    if len(vt) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(vt)}")
    if any(c < 0 for c in vt):
        raise ValueError(f"coordinates must be >= 0, got {vt}")
    return vt


def is_primitive(v: Sequence[int], dim: int) -> bool:
    """True iff v is nonzero with coprime coordinates (gcd(0, x) = x convention)."""
    vt = _validate_vector(v, dim)
    return math.gcd(*vt) == 1


def enumerate_primitive(dim: int, bound: Sequence[int]) -> Iterator[PrimVec]:
    """Stream every primitive vector v <= bound componentwise, lex ascending.

    The order is part of the reproducibility contract for the coefficient DP
    and the sampler; consumers must not rely on materializing the sequence.
    """
    bt = _validate_vector(bound, dim)
    for v in itertools.product(*(range(b + 1) for b in bt)):
        if math.gcd(*v) == 1:
            nz = sum(1 for c in v if c)
            yield PrimVec(coords=v, nonzero_count=nz, weight=1 << (nz - 1))


def _concat_aranges(lengths: np.ndarray) -> np.ndarray:
    """arange(n) for each n in lengths, concatenated."""
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(starts.size, dtype=np.int64) - starts


def primitive_l1_array(dim: int, l1_max: int) -> np.ndarray:
    """Primitive vectors with ||v||_1 <= l1_max as rows of an int64 array, lex ascending.

    Same order as enumerate_primitive but pruned by the 1-norm; the sampler
    visits classes through this.  The lattice simplex is built one coordinate
    at a time (each prefix repeated once per value its next coordinate can
    take), so memory scales with C(l1_max + d, d), not with the cube.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if l1_max < 0:
        raise ValueError("l1_max must be >= 0")
    if dim == 1:  # only v = (1) is primitive; skip the segment 0..l1_max
        return np.ones((min(l1_max, 1), 1), dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([l1_max], dtype=np.int64)
    for _ in range(dim):
        col = _concat_aranges(budget + 1)
        rows = np.column_stack([np.repeat(rows, budget + 1, axis=0), col])
        budget = np.repeat(budget, budget + 1) - col
    g = np.gcd(rows[:, 0], rows[:, 1])
    for k in range(2, dim):  # column by column: about twice as fast as np.gcd.reduce(axis=1)
        np.gcd(g, rows[:, k], out=g)
    return rows[g == 1]


def _mobius_upto(n: int) -> list[int]:
    """mu(0..n) by sieve."""
    mu = [1] * (n + 1)
    if n >= 0:
        mu[0] = 0
    primes = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def count_primitive_moebius(dim: int, bound: Sequence[int]) -> int:
    """Moebius-sieve count of primitive vectors <= bound (enumeration oracle)."""
    bt = _validate_vector(bound, dim)
    bmax = max(bt)
    if bmax == 0:
        return 0
    mu = _mobius_upto(bmax)
    total = 0
    for k in range(1, bmax + 1):
        if mu[k] == 0:
            continue
        box = 1
        for b in bt:
            box *= b // k + 1
        total += mu[k] * (box - 1)
    return total
