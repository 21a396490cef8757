"""Primitive integer vectors in the nonnegative orthant and their sign classes.

These index the factors of the zonotope generating function: a vector v with
d(v) nonzero coordinates carries 2^(d(v)-1) sign classes, so its factor weight
is w_v = 2^(d(v)-1).  One numpy enumerator, primitive_rows, serves every
engine: the primitive vectors of a box, cut by a 1-norm ball, as
lexicographically ascending rows with their 1-norms and their weights (the
exact oracles and the diameter numerators read the whole box as int64, the
sampler an l1 ball in the narrowest integer type).  The classes
of a row are its sign-pattern indices 0 .. w_v - 1, visited row by row.
Dimensions above 63 are refused before anything d-sized is made.  The
Moebius sieve counts are the independent cross-check,

    #primitive <= b  =  sum_{k>=1} mu(k) (prod_i (floor(b_i/k) + 1) - 1),
    #classes   <= b  =  sum_{k>=1} mu(k) (prod_i (2 floor(b_i/k) + 1) - 1) / 2,

the second because the sign classes of v <= b are the primitive vectors of
the symmetric box [-b, b] up to sign.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from collections import OrderedDict, namedtuple
from typing import Sequence

import numpy as np

_DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3
_MEMORY_ENV = "ZONOCOUNT_MEMORY_BUDGET"
# The largest dimension served: a class weight 2^(d(v)-1) is an int64, and a
# coefficient table has d + 1 numpy axes, of which numpy allows 64.
_MAX_DIM = 63


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


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _lru_one_large(maxsize: int, large):
    """Memoize a function of positional arguments as functools.lru_cache(maxsize)
    does, but hold at most one value that large(value) calls large: the
    latest, in a slot of its own, which every miss empties before it calls
    the function.  So two large values are never held here at once, and one
    no longer asked for goes before the next is made, unless a caller still
    holds it.  The small values stay in an LRU of maxsize.

    A hit takes no lock.  A miss takes one lock, looks again and calls the
    function under it, so threads build one value at a time.  cache_info()
    and cache_clear() are lru_cache's; currsize counts the large slot, and a
    hit racing another thread's hit may go uncounted."""
    def decorate(fn):
        small: OrderedDict = OrderedDict()  # least recently used first
        held = None  # (key, value) of the large value kept, or None
        hits = misses = 0
        lock = threading.Lock()

        def miss(key):
            nonlocal held, hits, misses
            with lock:
                value = small.get(key, small)  # the dict itself stands for no entry
                if value is small and held is not None and held[0] == key:
                    value = held[1]
                if value is not small:  # made by another thread while this one waited
                    hits += 1
                    return value
                misses += 1
                held = None  # let the large value go before the next is made
                value = fn(*key)
                if large(value):
                    held = (key, value)
                else:
                    small[key] = value
                    if len(small) > maxsize:
                        small.popitem(last=False)
                return value

        def cached(*key):
            nonlocal hits
            value = small.get(key, small)
            if value is not small:
                try:
                    small.move_to_end(key)
                except KeyError:  # evicted by another thread's miss since the get
                    pass
            else:
                entry = held
                if entry is None or entry[0] != key:
                    entry = None  # the miss must not keep the large value alive
                    return miss(key)
                value = entry[1]
            hits += 1
            return value

        def cache_info() -> _CacheInfo:
            return _CacheInfo(hits, misses, maxsize, len(small) + (held is not None))

        def cache_clear() -> None:
            nonlocal held, hits, misses
            with lock:
                small.clear()
                held = None
                hits = misses = 0

        def after_fork() -> None:  # a lock held by a thread the child lacks stays held
            nonlocal lock
            lock = threading.Lock()

        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=after_fork)
        cached.cache_info, cached.cache_clear = cache_info, cache_clear
        return functools.update_wrapper(cached, fn)

    return decorate


def _check_dim(dim: int) -> None:
    """Refuse a dimension below 1 or above _MAX_DIM, before anything d-sized is made."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim > _MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the largest supported, {_MAX_DIM}")


def _validate_vector(v: Sequence[int] | int, dim: int) -> tuple[int, ...]:
    """v as a tuple of dim ints >= 0, by operator.index; an integer n stands for (n,) * dim."""
    _check_dim(dim)
    vt = tuple(map(operator.index, (v,) * dim if isinstance(v, (int, np.integer)) else v))
    if len(vt) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(vt)}")
    if any(c < 0 for c in vt):
        raise ValueError(f"coordinates must be >= 0, got {vt}")
    return vt


def _primitive(v: Sequence[int], dim: int, name: str) -> tuple[int, ...]:
    """v as a tuple of dim ints (_validate_vector), refused by `name` unless primitive."""
    vt = _validate_vector(v, dim)
    if math.gcd(*vt) != 1:
        raise ValueError(f"{name} = {vt} is not primitive")
    return vt


def _concat_aranges(lengths: np.ndarray, dtype) -> np.ndarray:
    """arange(n) for each n >= 1 in lengths, concatenated, as `dtype`, which
    holds max(lengths) - 1: a running sum of ones that steps back to 0 at the
    start of each range."""
    steps = np.ones(int(lengths.sum()), dtype=dtype)
    steps[0] = 0
    steps[np.cumsum(lengths[:-1])] = 1 - lengths[:-1]
    return np.cumsum(steps, out=steps)


def primitive_rows(dim: int, bound: Sequence[int], l1_max: int,
                   dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primitive v <= bound with ||v||_1 <= l1_max, lex ascending: the rows
    and the 1-norms, both of the signed integer type `dtype`, which must hold
    l1_max, and the int64 class weights w_v = 2^(d(v)-1).

    The order is part of the reproducibility contract of the brute-force
    oracle and the sampler.  The lattice points are built one coordinate at a time:
    each prefix is repeated once per value its next coordinate can take, up
    to min(remaining norm, b_i), and carries its remaining norm, its nonzero
    count and its gcd.  A point of the last coordinate is kept if its gcd
    with its prefix's is 1, and only the kept points are written out as rows,
    so memory scales with the points of the box inside the ball, not with
    the cube of the larger of the two.
    """
    bt = _validate_vector(bound, dim)
    if l1_max < 0:
        raise ValueError("l1_max must be >= 0")
    if dim == 1:  # only v = (1) is primitive; skip the segment 0..b
        rows = np.ones((min(l1_max, bt[0], 1), 1), dtype=dtype)
        return rows, rows[:, 0].copy(), np.ones(len(rows), dtype=np.int64)
    rows = np.zeros((1, 0), dtype=dtype)
    budget = np.full(1, l1_max, dtype=dtype)  # the norm left for the later coordinates
    nnz = np.zeros(1, dtype=dtype)
    g = np.zeros(1, dtype=dtype)
    for b in bt[:-1]:
        span = np.minimum(budget, min(b, l1_max)).astype(np.int64) + 1
        col = _concat_aranges(span, dtype)
        rows = np.column_stack([np.repeat(rows, span, axis=0), col])
        budget = np.repeat(budget, span) - col
        nnz = np.repeat(nnz, span) + (col != 0)
        g = np.gcd(np.repeat(g, span), col)
    span = np.minimum(budget, min(bt[-1], l1_max)).astype(np.int64) + 1
    col = _concat_aranges(span, dtype)
    kept = np.gcd(np.repeat(g, span), col) == 1
    prefix = np.repeat(np.arange(span.size), span)[kept]
    last = col[kept]
    # take gathers rows several times faster than fancy indexing does
    return (np.column_stack([rows.take(prefix, 0), last]),
            (l1_max - budget).take(prefix) + last,
            np.left_shift(1, nnz.take(prefix) + (last != 0) - 1, dtype=np.int64))


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
