"""Primitive integer vectors in the nonnegative orthant and their sign classes.

These index the factors of the zonotope generating function: a vector v with
d(v) nonzero coordinates carries 2^(d(v)-1) sign classes, so its factor weight
is 2^(d(v)-1).  One numpy enumerator serves every engine: the primitive
vectors of a box, cut by a 1-norm ball, as lexicographically ascending rows
(the exact DP and its oracle use the whole box, the sampler an l1 ball), and
one expansion turns them into sign classes in visit order.  The Moebius sieve
counts are the independent cross-check,

    #primitive <= b  =  sum_{k>=1} mu(k) (prod_i (floor(b_i/k) + 1) - 1),
    #classes   <= b  =  sum_{k>=1} mu(k) (prod_i (2 floor(b_i/k) + 1) - 1) / 2,

the second because the sign classes of v <= b are the primitive vectors of
the symmetric box [-b, b] up to sign.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

_DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3
_MEMORY_ENV = "ZONOCOUNT_MEMORY_BUDGET"


class MemoryBudgetError(RuntimeError):
    """Requested array would exceed the configured memory budget."""


def _approx(x: int, exp10: int = 0) -> str:
    """x / 10^exp10 to three significant digits, past the float range as a power of ten."""
    if x < 1e308:
        return f"{x / 10 ** exp10:.3g}"
    return f"1e+{math.log10(x) - exp10:.0f}"


def _charge(need: int, what: str) -> None:
    """Raise MemoryBudgetError naming `what` if `need` bytes exceed the budget."""
    raw = os.environ.get(_MEMORY_ENV)
    try:
        budget = _DEFAULT_MEMORY_BUDGET if raw is None else int(raw)
    except ValueError:
        budget = 0  # refused below, as a budget under one byte is
    if budget < 1:
        raise ValueError(f"{_MEMORY_ENV} must be a positive integer byte count, got {raw!r}")
    if need > budget:
        raise MemoryBudgetError(f"{what} (~{_approx(need, 9)} GB) exceeds budget "
                                f"{_approx(budget, 9)} GB; raise {_MEMORY_ENV} to override")


def _validate_vector(v: Sequence[int] | int, dim: int) -> tuple[int, ...]:
    """v as a tuple of dim ints >= 0; an int n stands for (n,) * dim."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    vt = (v,) * dim if isinstance(v, int) else tuple(int(c) for c in v)
    if len(vt) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(vt)}")
    if any(c < 0 for c in vt):
        raise ValueError(f"coordinates must be >= 0, got {vt}")
    return vt


def is_primitive(v: Sequence[int], dim: int) -> bool:
    """True iff v is nonzero with coprime coordinates (gcd(0, x) = x convention)."""
    vt = _validate_vector(v, dim)
    return math.gcd(*vt) == 1


def _concat_aranges(lengths: np.ndarray) -> np.ndarray:
    """arange(n) for each n in lengths, concatenated."""
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(starts.size, dtype=np.int64) - starts


def primitive_array(dim: int, bound: Sequence[int], l1_max: int) -> np.ndarray:
    """Primitive v <= bound with ||v||_1 <= l1_max as rows of an int64 array, lex ascending.

    The order is part of the reproducibility contract of the coefficient DP
    and the sampler.  The lattice points are built one coordinate at a time
    (each prefix repeated once per value its next coordinate can take, up to
    min(remaining norm, b_i)), so memory scales with the points of the box
    inside the ball, not with the cube of the larger of the two.
    """
    bt = _validate_vector(bound, dim)
    if l1_max < 0:
        raise ValueError("l1_max must be >= 0")
    if dim == 1:  # only v = (1) is primitive; skip the segment 0..b
        return np.ones((min(l1_max, bt[0], 1), 1), dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([l1_max], dtype=np.int64)
    for b in bt:
        span = np.minimum(budget, b) + 1
        col = _concat_aranges(span)
        rows = np.column_stack([np.repeat(rows, span, axis=0), col])
        budget = np.repeat(budget, span) - col
    g = np.gcd(rows[:, 0], rows[:, 1])
    for k in range(2, dim):  # column by column: about twice as fast as np.gcd.reduce(axis=1)
        np.gcd(g, rows[:, k], out=g)
    return rows[g == 1]


def class_weights(vecs: np.ndarray) -> np.ndarray:
    """The factor weight w_v = 2^(d(v)-1) of each primitive row: its number of sign classes."""
    return 1 << (np.count_nonzero(vecs, axis=1) - 1)


def sign_classes(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sign classes of primitive rows vecs, in visit order, as (coords, sign).

    Row v of vecs becomes its 2^(d(v)-1) classes: coords repeats v that many
    times and sign runs 0, 1, ... along them (see signed_representative).
    """
    weight = class_weights(vecs)
    return np.repeat(vecs, weight, axis=0), _concat_aranges(weight)


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


def _mobius_upto(n: int) -> np.ndarray:
    """mu(0..n) as int8, by sieving with the primes up to sqrt(n).

    rest[k] is k divided once by each such prime p | k; for squarefree k what
    is left is 1 or the one prime factor of k above sqrt(n), which flips mu.
    """
    rest_type = np.min_scalar_type(n)
    # mu, rest and the rest > 1 mask
    _charge((n + 1) * (2 + rest_type.itemsize), f"Moebius sieve up to {n}")
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(n + 1, dtype=rest_type)
    for p in range(2, math.isqrt(n) + 1):
        if rest[p] == p:  # p is prime: no smaller prime has divided it
            mu[::p] *= -1
            mu[::p * p] = 0
            rest[::p] //= p
    np.negative(mu, out=mu, where=rest > 1)
    return mu


def _moebius_sum(bt: tuple[int, ...], side) -> int:
    """sum_{k>=1} mu(k) (prod_i side(floor(b_i/k)) - 1).

    The sum runs over the blocks of k on which every floor(b_i/k) is
    constant, O(d sqrt(max b)) of them, each weighted by its sum of mu (a
    difference of Mertens values).
    """
    bmax = max(bt)
    mu = _mobius_upto(bmax)
    total, k = 0, 1
    while k <= bmax:
        hi = min(b // (b // k) for b in bt if b >= k)
        total += int(mu[k:hi + 1].sum()) * (math.prod(side(b // k) for b in bt) - 1)
        k = hi + 1
    return total


def count_primitive_moebius(dim: int, bound: Sequence[int]) -> int:
    """Moebius-sieve count of primitive vectors <= bound (enumeration oracle)."""
    return _moebius_sum(_validate_vector(bound, dim), lambda m: m + 1)


def count_classes_moebius(dim: int, bound: Sequence[int]) -> int:
    """Moebius-sieve count of the sign classes of primitive vectors <= bound."""
    return _moebius_sum(_validate_vector(bound, dim), lambda m: 2 * m + 1) // 2
