"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded by dynamic programming on a dense table of multi-precision
integers.  Let s = min_i floor(n_i / v_i) be the chain length of a primitive
vector v in the box, and w_v = 2^(d(v)-1) its number of sign classes.  Factors
commute and truncation to the box is a ring map, so the order in which they
are applied does not change the result.  The table at bound n then holds
[x^m] Zon_d for every m <= n simultaneously.

When s <= 2 the truncated factor is a short polynomial, and the vectors whose
first axis of chain length s is a form group a, applied as one product.  For
s = 1 (2v leaves the box: three in four vectors at d=2 n=96, nine in ten at
d=4 n=6) the factor is 1 + w_v x^v, and any two members of a group sum past
the box on axis a, so the group's whole factor is 1 + K1 with
K1 = sum_v w_v x^v.  For s = 2 (n_a / 3 < v_a <= n_a / 2) the factor is
1 + w_v x^v + C(w_v + 1, 2) x^(2v), and any three members sum past the box on
axis a, so the group's factor is 1 + K with

    K = K1 + (K1 K1 + W2) / 2,   W2 = sum_v w_v x^(2v).

The numerator is sum_v (w_v^2 + w_v) x^(2v) + 2 sum_(v < v') w_v w_v' x^(v+v'),
even because w^2 + w is; and since every member has 2 v_i <= n_i on every
axis, no term of K is truncated, so 1 + sum K = (S + 1)(S + 2) / 2 at
S = sum w_v.  Every a-degree of K is at least lo = floor(n_a / (s + 1)) + 1.
The sources in hyperplanes 0..n_a - lo are staged as float64 over the other
axes; for each a-degree k of K, those in 0..n_a - k times the Toeplitz
matrix of K's row k over the other axes are added to hyperplanes k..n_a.
Block (r, q) of that matrix is zero unless q >= r on every axis, so the
other axes are cut into tiles of at most 128 cells, and each tile offset
where K's row is nonzero is one matrix product (numpy @, BLAS) of every
source tile it reaches.  K1 K1 is computed by the same products, from K1's
rows as sources; its entries are small integers, so those products are
exact.  A chain-2 group takes the product only where a cost model, fitted
to measured builds, finds it cheaper than passes; tiny boxes and groups of
a few vectors stay on passes.  Chain-1 groups always take it, in parts where
the whole group's products cannot be made exact: any two members sum past
the box, so the parts' factors multiply to the group's.

The other vectors, s >= 3 and the chain-2 groups left on passes, are applied
as w_v cumulative-sum passes T[e] += T[e-v] in ascending index order, as
numpy slab adds over blocks of hyperplanes, so the Python-level cost is one
call per block, not one per cell.  The chain-2 group products run first, on
a table one limb wide; then the passes, by descending 1-norm: long vectors
have short chains and grow the entries least, so most passes run while the
table is one limb wide, and short vectors such as (1, 0) and (1, 1) come
last; then the chain-1 group products.

The table is one uint64 array of shape (k, *(n + 1)): cell e holds
sum_i data[i][e] << 32 i, with 32-bit limb payloads and lazy carries.  A
ceiling bounds every entry.  A cumulative pass of chain length s (at most
s + 1 entries summed into one) grows entries by the factor s + 1.  Before it,
if factor * ceiling would reach 2^64, the ceiling is first read from the
entries (the compounded bound runs far ahead of them), and only if the
product still reaches 2^64 does the table normalize (carry = data >> 32,
data &= 2^32 - 1, data[1:] += carry[:-1], with a new limb when the top one
carries), which leaves every entry below 2^33; then the ceiling is multiplied
by the factor.  No factor may exceed 2^31, so that product stays below 2^64.
The sum identity holds whether or not the limbs are normalized, so one
np.add per slab covers all k limbs and no per-block carry is needed.  A
group product is exact from two facts.  Each float64 product is an exact
integer, whatever order BLAS sums in: each limb is multiplied on its own,
and when the ceiling times the largest row sum of K (of K1 for s = 1) would
reach 2^53, the ceiling is read from the entries, and the table normalizes
if it still would.  The products are summed in uint64 and added limb by limb
after every product is taken, so sources that overlap targets (s = 2) are
read before any add, and the group grows entries at most (1 + sum K)-fold,
which goes through the same step as a cumulative pass.  A chain-2 group
whose products cannot be made exact, or whose factor exceeds 2^31, stays on
passes.

Exact first moments are kernel sums sum_f K[f] Z[n - f] over that one table,
each read by one weighted limb sum (CoeffTable._sum).  Marking generator
presence with u (factor 1 + u x^v/(1-x^v)) and differentiating at u = 1 gives
the kernel w_v on primitive v (the direction count).  Marking one class's
multiplicity with u^k (factor 1/(1-u x^v0)) gives the kernels 1 and 2k - 1 at
k v0, k >= 1.  An independent depth-first multiset enumeration serves as the
oracle for all of these on small boxes.

A build is charged to the memory budget once, up front, from its box alone
(_plan, remembered per box and budget setting by _planned).  A table at
bound B holds Z[e] for every e <= B, so the readers here and the CLI's
``count`` and ``compare`` share one table per dimension, the last one built
(``shared_table``), which answers every box inside it once that box is
charged; another box replaces it.  ``build_table`` is never cached.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .primitives import (
    MemoryBudgetError,
    _MEMORY_ENV,
    _approx,
    _charge,
    _primitive,
    _validate_vector,
    count_classes_moebius,
    primitive_rows,
)

# Payload bits of one limb.  A uint64 entry may hold up to 2 * _LIMB_BITS bits
# before its carry is pushed into the limb above.
_LIMB_BITS = 32

# float64 holds every integer below this exactly; each one-step group product
# stays below it
_FLOAT_EXACT = 1 << 53

_BRUTE_NODE_BUDGET = 10 ** 7


class EnumerationBudgetError(RuntimeError):
    """Brute-force enumeration exceeded its node budget (oracle is for small boxes)."""


def _check_memory(shape: tuple[int, ...], limbs: int, staging: int = 0) -> None:
    """Charge a table of `shape` in `limbs` limbs, its carry buffer and `staging`
    bytes (the primitive rows and one-step staging of a build)."""
    size = math.prod(shape)
    extra = " and one-step staging" if staging else ""
    _charge(2 * 8 * limbs * size + staging,
            f"table of {_approx(size)} cells in {limbs} limbs with its carry buffer{extra}")


class CoeffTable:
    """Dense table of nonnegative coefficients of a d-variate series, indexed by e <= bound.

    ``data`` holds the coefficients as uint64 limbs with lazy carries, shape
    (k, *(bound + 1)) (see the module docstring); ``ceiling`` bounds every
    entry.  Values become Python ints only where ``_sum`` reads them
    (``coefficient``, ``total`` and the moment numerators).
    """

    __slots__ = ("dim", "bound", "shape", "data", "ceiling")

    def __init__(self, dim: int, bound):
        self.bound = _validate_vector(bound, dim)
        self.dim = dim
        self.shape = tuple(b + 1 for b in self.bound)
        # one step of a pass multiplies the ceiling by s + 1 <= max(shape); one
        # normalization must leave room for it below 2^(2 * _LIMB_BITS)
        growth = max(self.shape)
        if growth > 1 << (_LIMB_BITS - 1):
            raise ValueError(f"a pass over bound {self.bound} in dim {dim} may grow entries "
                             f"{growth}-fold, above the limit 2^{_LIMB_BITS - 1}")
        _check_memory(self.shape, 1)
        self.data = np.zeros((1, *self.shape), dtype=np.uint64)
        self.data[(0,) * (dim + 1)] = 1
        self.ceiling = 1

    def _normalize(self) -> None:
        """Push every entry's carry into the limb above, adding a limb if the top one
        carries.  Values are unchanged; afterwards every entry is below 2^(_LIMB_BITS + 1)."""
        mask = (1 << _LIMB_BITS) - 1
        if (self.data[-1] >> _LIMB_BITS).any():
            self._add_limb()
        carry = self.data >> _LIMB_BITS
        self.data &= mask
        self.data[1:] += carry[:-1]
        self.ceiling = mask + (self.ceiling >> _LIMB_BITS)

    def _add_limb(self) -> None:
        _check_memory(self.shape, len(self.data) + 1)
        self.data = np.concatenate([self.data, np.zeros((1, *self.shape), np.uint64)])

    def _sum(self, index: tuple, weights: Sequence[int] | None = None) -> int:
        """Sum of the values at `index` over the cell axes (ints, slices or index
        arrays), times `weights` (ints, one per cell, flat) if given: one Python
        int sum per limb, shifted once, exact whether or not limbs are normalized."""
        limbs = self.data[(slice(None), *index)].reshape(len(self.data), -1).tolist()
        if weights is not None:
            limbs = [map(operator.mul, weights, cells) for cells in limbs]
        return sum(sum(cells) << (_LIMB_BITS * i) for i, cells in enumerate(limbs))

    def _index(self, e) -> tuple[int, ...]:
        et = _validate_vector(e, self.dim)
        if any(c > b for c, b in zip(et, self.bound)):
            raise ValueError(f"index {et} outside bound {self.bound}")
        return et

    def coefficient(self, e) -> int:
        return self._sum(self._index(e))

    def total(self, upto=None) -> int:
        """Sum of the coefficients at e <= upto; the whole table by default."""
        box = self.bound if upto is None else self._index(upto)
        return self._sum(tuple(slice(c + 1) for c in box))

    def _vector(self, v: Sequence[int]) -> tuple[int, ...]:
        """v as a tuple of ints, checked to be a nonzero pass vector of this table."""
        vt = _validate_vector(v, self.dim)
        if not any(vt):
            raise ValueError(f"pass vector {vt} is zero")
        return vt

    def _make_room(self, factor: int, limit: int) -> None:
        """Bring factor * ceiling below limit if it is not: read the ceiling
        from the entries (the compounded bound runs far ahead of them), and
        normalize only if that is not enough."""
        if factor * self.ceiling >= limit:
            self.ceiling = int(self.data.max())
            if factor * self.ceiling >= limit:
                self._normalize()

    def _grow(self, factor: int) -> None:
        """Let every entry grow to `factor` times the ceiling, making room below
        2^(2 * _LIMB_BITS) first."""
        if factor > 1 << (_LIMB_BITS - 1):
            raise ValueError(f"a step over bound {self.bound} may grow entries "
                             f"{factor}-fold, above the limit 2^{_LIMB_BITS - 1}")
        self._make_room(factor, 1 << (2 * _LIMB_BITS))
        self.ceiling *= factor

    def class_pass(self, v: Sequence[int], w: int) -> None:
        """In place, multiply by (1 - x^v)^(-w), the factor of the w = 2^(d(v)-1)
        sign classes of v.

        It runs w times T[e] += T[e - v] in ascending order: along the axis a of
        largest v_a, blocks of v_a consecutive hyperplanes are added one slab at
        a time, and a block reads only hyperplanes below it, which are final.
        """
        w = operator.index(w)
        if w < 1 or w & (w - 1) or w > 1 << (self.dim - 1):
            raise ValueError(f"class weight {w} is not a power of two up to 2^{self.dim - 1}")
        vt = self._vector(v)
        s = min([b // c for b, c in zip(self.bound, vt) if c])
        if s:
            self._cumulate(vt, w, s)

    def _cumulate(self, vt: tuple[int, ...], w: int, s: int) -> None:
        """w times T[e] += T[e - v] for v = vt of chain length s >= 1 (class_pass)."""
        a = vt.index(max(vt))
        step, top = vt[a], self.shape[a]
        dst = [slice(None), *[slice(c, None) for c in vt]]
        src = [slice(None), *[slice(n - c) for c, n in zip(vt, self.shape)]]
        blocks = []
        for lo in range(step, top, step):
            hi = min(lo + step, top)
            dst[a + 1], src[a + 1] = slice(lo, hi), slice(lo - step, hi - step)
            blocks.append((tuple(dst), tuple(src)))
        for _ in range(w):
            self._grow(s + 1)  # an entry becomes a sum of at most s + 1 entries
            for dst_idx, src_idx in blocks:
                block = self.data[dst_idx]
                np.add(block, self.data[src_idx], out=block)

    def _exact_room(self, weight: int) -> bool:
        """Whether entries times a kernel row of total `weight` stay exact
        float64 integers, making room first (_make_room)."""
        self._make_room(weight, _FLOAT_EXACT)
        return weight * self.ceiling < _FLOAT_EXACT

    def _one_step(self, a: int, kern: np.ndarray) -> None:
        """In place, multiply by 1 + K, where kern holds the rows of K at the
        a-degrees k = n_a - len(kern) + 1 .. n_a, laid out by _kernel.

        The sources in hyperplanes 0..n_a - lo (lo the lowest k) are staged as
        float64 before any add, since for chain length 2 they overlap the
        targets lo..n_a.  Their products with the Toeplitz matrices of the
        rows of K (_toeplitz_add) are exact because the ceiling (read from
        the entries, then normalized if need be) times the row's sum stays
        below 2^53.  The products are summed in a uint64 buffer and added
        last; entries grow at most (1 + sum K)-fold (_grow).
        """
        rows = len(kern)
        sums = [int(x) for x in kern.reshape(rows, -1).sum(axis=1).tolist()]
        if not self._exact_room(max(sums)):
            raise ValueError(f"a one-step group over bound {self.bound} sums {max(sums)} "
                             f"terms per cell, too many for exact float64 products")
        self._grow(1 + sum(sums))  # a normalization here only lowers the sources' bound
        perm = (a + 1, 0, *range(1, a + 1), *range(a + 2, self.dim + 1))
        view = self.data.transpose(perm)
        acc = _toeplitz_add(view[:rows], kern, rows, np.uint64)
        view = view[len(view) - rows:]
        view += acc

    def shifted_add(self, src: "CoeffTable", v: Sequence[int]) -> None:
        """self[e] += src[e - v] (multiplication of src by x^v, accumulated)."""
        if src.bound != self.bound:
            raise ValueError("table bounds differ")
        vt = self._vector(v)
        if any(c > b for c, b in zip(vt, self.bound)):
            return
        if self.ceiling + src.ceiling >= 1 << (2 * _LIMB_BITS):
            self._normalize()
            if src is not self:
                src._normalize()
        while len(self.data) < len(src.data):
            self._add_limb()
        self.ceiling += src.ceiling
        view = self.data[(slice(len(src.data)), *[slice(c, None) for c in vt])]
        # one slab; numpy buffers the read when src is self and the slabs overlap
        np.add(view, src.data[(slice(None), *[slice(n - c) for c, n in zip(vt, self.shape)])],
               out=view)


def _layout(shape: tuple[int, ...], a: int, chain: int) -> tuple:
    """The lowest a-degree lo, the kernel rows and the other axes of a group
    product along axis a for vectors of chain length `chain`."""
    lo = (shape[a] - 1) // (chain + 1) + 1  # every k = v_a > n_a / (chain + 1) is at least this
    rows = shape[a] - lo  # target hyperplanes lo..n_a, source hyperplanes 0..n_a - lo
    return lo, rows, shape[:a] + shape[a + 1:]


# The most cells of one tile (_tiling).  Summed over a box's group products,
# one BLAS thread, 2-core Xeon, caps of 64-512 were timed against the dense
# matrix of a hyperplane: 128 was never slower, 15-25% faster at d = 3
# n = 8-16 and d = 4 n = 5, a third at d = 4 n = 6 and d = 3 n = 24, and
# took 0.17 s for 18.6 s at d = 8 n = 3.  256 and 512 were up to 27% slower
# at d = 3 n = 14-16 and d = 4 n = 5-6, 64 10-15% slower at d = 3 n = 8-11.
_TILE_CELLS = 128


@functools.lru_cache(maxsize=256)
def _tiling(other: tuple[int, ...]) -> tuple:
    """The tiles a group product cuts the other axes into (_toeplitz_add):
    the first p axes into single hyperplanes, p the fewest for which the
    rest fits in _TILE_CELLS cells whole, or once its first axis is cut into
    the fewest equal tiles that fit.  The last axis is never cut, so at
    d = 2 a hyperplane is one tile.  Returns the cells of a tile, the tiles
    per cut axis, the axes padded to whole tiles, the index of the unpadded
    ones, and per tile offset delta the indices of one product: the kernel's
    window, the source tiles, the target tiles and their columns (a last
    tile may be short), the number of source tiles, and the matrix's rows
    and columns."""
    sides = (1,) * max(len(other) - 1, 0)
    for p in range(len(other) - 1):
        rest = math.prod(other[p + 1:])
        if rest <= _TILE_CELLS:
            cut = -(-other[p] // (_TILE_CELLS // rest))  # the fewest tiles that fit
            sides = (1,) * p + ((-(-other[p] // cut),) if cut > 1 else ())
            break
    grid = [-(-n // t) for n, t in zip(other, sides)]
    whole = [slice(None)] * (len(other) - len(sides))
    uncut = math.prod(other[len(sides):])
    steps = [((slice(None), *[slice(n - t + d * t, n - 1 + t + d * t)  # offsets d t - t + 1 .. d t + t - 1
                              for n, t, d in zip(other, sides, delta)]),
              (slice(None), *[slice(g - d) for g, d in zip(grid, delta)]),
              (slice(None), *[slice(d, g) for g, d in zip(grid, delta)],
               slice(uncut * math.prod(min(t, n - d * t) for n, t, d in zip(other, sides, delta)))),
              math.prod(g - d for g, d in zip(grid, delta)),
              (*map(slice, sides), *whole, *[slice(d * t, d * t + t) for t, d in zip(sides, delta)]))
             for delta in itertools.product(*map(range, grid))]
    padded = (*[g * t for g, t in zip(grid, sides)], *other[len(sides):])
    inside = (slice(None), slice(None), *map(slice, other[:len(sides)]))
    return math.prod(padded[len(sides):], start=math.prod(sides)), grid, padded, inside, steps


def _staging(shape: tuple[int, ...], a: int, limbs: int, chain: int) -> int:
    """The bytes a group product along axis a stages: the kernel, one tile's
    matrix, and the sources padded to whole tiles, their sums, one product
    and, where the axes are cut, one gathered block of sources; building a
    chain-2 kernel holds no more."""
    _, rows, other = _layout(shape, a, chain)
    cells, grid, padded, _, _ = _tiling(other)
    return 8 * (rows * math.prod(2 * n - 1 for n in other) + cells * cells
                + (3 + bool(grid)) * rows * limbs * math.prod(padded))


def _toeplitz_add(src: np.ndarray, kern: np.ndarray, targets: int, dtype) -> np.ndarray:
    """The sums out[i + j] = sum src[i] M_j in `dtype`, of shape (targets,
    *src.shape[1:]), over the rows j of kern and the hyperplanes i of src,
    whose first axis holds the limbs.  kern is nonnegative and laid out by
    _kernel; M_j, the Toeplitz matrix of its row j over the other axes, has
    entry K_j[q - r] in row r and column q, zero unless q >= r on every axis.
    So the axes are cut into tiles (_tiling), the sources padded with zeros
    to whole tiles, and for each tile offset where K_j is nonzero, every
    source tile it reaches times the matrix of K_j at that offset is one
    float64 matrix product (numpy @, BLAS), exact while its sums stay below
    2^53, summed in `dtype`."""
    sources, limbs, *other = src.shape
    cells, grid, padded, inside, steps = _tiling(src.shape[2:])
    staged = np.zeros((sources, limbs, *padded))
    staged[inside] = src
    out = np.zeros((targets, limbs, *padded), dtype)
    # a tile is one run of cells: view both as rows of limbs over the tiles
    src_tiles = staged.reshape(sources * limbs, *grid, cells)
    out_tiles = out.reshape(targets * limbs, *grid, cells)
    step = kern.strides[1:]
    matrices = np.ndarray((len(kern), *other, *other), kern.dtype, kern,
                          offset=sum((n - 1) * s for n, s in zip(other, step)),
                          strides=kern.strides[:1] + tuple(-s for s in step) + step)
    for near, reach, land, tiles, box in steps:
        # the rows of K nonzero on this window (on the whole kernel when there
        # is one tile: a chain-2 kernel has no rows between n_a / 2 and 2 lo)
        peaks = kern[near].max(axis=tuple(range(1, kern.ndim))).tolist()
        nonzero = [j for j, x in enumerate(peaks) if x]
        if not nonzero:
            continue
        # the source tiles delta reaches, gathered as the rows of one matrix
        # (a view when there is one tile), and the tiles they land on
        gathered, landing = src_tiles[reach].reshape(-1, cells), out_tiles[land]
        for j in nonzero:
            count = min(sources, targets - j) * limbs
            matrix = matrices[(j, *box)].reshape(cells, -1)
            block = landing[j * limbs:j * limbs + count]
            product = (gathered[:count * tiles] @ matrix).reshape(block.shape)
            np.add(block, product, out=block, dtype=dtype, casting="unsafe")
            del matrix, product  # the next ones are allocated before these names are rebound
        del gathered
    return out[inside]


def _kernel(shape: tuple[int, ...], a: int, vecs: np.ndarray, weights: np.ndarray,
            chain: int) -> np.ndarray:
    """The truncated factor 1 + K of a group, as _one_step takes it: the rows v
    of vecs, of weights w_v, all of chain length `chain` (1 or 2) whose first
    axis of that length is a.  K is K1 = sum_v w_v x^v for chain 1, and
    K1 + (K1 K1 + W2) / 2 with W2 = sum_v w_v x^(2v) for chain 2 (module
    docstring).  Row j holds K at a-degree lo + j (_layout), as
    float64 with its entry at u over the other axes at u + other - 1, so that
    the matrix of the row is a strided view of it (_toeplitz_add)."""
    lo, rows, other = _layout(shape, a, chain)
    at = [vecs[:, i] for i in range(len(shape)) if i != a]  # coordinates over the other axes
    kern = np.zeros((rows, *(2 * n - 1 for n in other)))
    kern[(vecs[:, a] - lo, *[c + (n - 1) for c, n in zip(at, other)])] = weights
    if chain == 2:
        # K1 K1 + W2 at a-degrees 2 lo..n_a, from K1's rows lo..n_a / 2 as
        # sources: products of small integers, so exact
        half = (shape[a] - 1) // 2 - lo + 1
        core = (slice(None), *[slice(n - 1, None) for n in other])
        pairs = _toeplitz_add(kern[:half][core][:, None], kern[:half], rows - lo, np.int64)[:, 0]
        pairs[(2 * (vecs[:, a] - lo), *[2 * c for c in at])] += weights
        assert not (pairs & 1).any(), "K1 K1 + W2 is even"
        kern[lo:][core] += pairs >> 1
    return kern


def _corner_limbs(n: tuple[int, ...]) -> int:
    """Limbs that hold Z[n], and so every partial product, for the nonzero axis
    lengths n of a box.  Over its d axes (d <= 1 keeps every cell at 1),
    ln Z[n] <= sum_i t_i n_i + sum_k F(z^k)/k for all z_i = e^(-t_i) < 1, where
    F(z) = sum_v w_v z^v over every v >= 0, v != 0, is
    (prod_i coth(t_i/2) - 1)/2.  Each monomial of F(z^(k+1)) is at most
    e^(-t_min) times its term in F(z^k), so the terms from k on add up to at
    most F(z^k)/(k (1 - e^(-t_min))).
    """
    d, bits = len(n), 0.0
    if d > 1:
        # t_i n_i = s on every axis minimizes sum_i t_i n_i + 2^(d-1)/prod_i t_i
        s = (2 ** (d - 1) * math.prod(n)) ** (1 / (d + 1))
        t = [s / n_i for n_i in n]
        f = [(math.prod(1 / math.tanh(k * t_i / 2) for t_i in t) - 1) / 2 / k
             for k in range(1, int(5 / min(t)) + 2)]
        bits = (d * s + sum(f[:-1]) + f[-1] / -math.expm1(-min(t))) / math.log(2)
    return int(bits) // _LIMB_BITS + 1  # _normalize adds a limb once a value reaches 2^(32 k)


def _plan(dim: int, bt: tuple[int, ...]) -> int:
    """Charge the budget for a build of the box bt from bt alone: one limb, the
    limbs of the corner (_corner_limbs), then those with the primitive rows
    and the largest group staging.  Returns the limbs."""
    shape = tuple(b + 1 for b in bt)
    _check_memory(shape, 1)
    nz = [a for a in range(dim) if bt[a]]
    limbs = _corner_limbs(tuple(bt[a] for a in nz))
    _check_memory(shape, limbs)
    # one nonzero axis holds e_a alone, in a group at n_a <= 2 only; at d > 1
    # an empty group never stages most
    if len(nz) > 1 or 0 < sum(bt) <= 2:
        # at most one primitive row per cell, held through the build with the
        # build's arrays per row: 2 d + 6 int64 in all
        rows = 8 * (2 * dim + 6) * math.prod(shape)
        # a chain-2 group along a needs n_a >= 2
        _check_memory(shape, limbs, rows + max(_staging(shape, a, limbs, chain)
                                               for a in nz for chain in (1, 2) if bt[a] >= chain))
    return limbs


# The cost of a chain-2 group in ns, fitted (least squares in relative error)
# to the times of _kernel plus _one_step and of the group's class_pass calls
# inside builds of 128 groups at d = 2 n <= 192, d = 3 n <= 32, d = 4
# n <= 14, d = 5 n <= 5, d = 6 n <= 4 and d = 7, 8 n = 2 (the products on the
# 118 whose dense whole-hyperplane matrices were at most 2^22 entries), one
# BLAS thread, 2-core Xeon.  A product: a fixed cost (fitted 0.11 ms, taken
# as 0.2 so that near a tie the group stays on passes, which stage nothing),
# then per matrix (a nonzero row of K1 or K) 7.7 us and per entry 1.3 ns,
# plus 1.3 ns per axis of the strided copy for each run of other[-1]
# entries.  Passes: per block 5.9 us, per cell 1.4 ns, plus 2.7 ns per axis
# for each run of the last axis.  The entries counted are now those of the
# tiles' matrices (tile cells times hyperplane cells), with these constants
# not refitted: timed on 100 groups at d = 2 n <= 64 through d = 9 n = 2,
# the model sends none to the product that passes apply faster, and keeps
# 12 near a tie on passes.
_PRODUCT_NS = (200_000, 7_700, 1.3, 1.3)
_PASS_NS = (5_900, 1.4, 2.7)


def _passes_at_most(shape: tuple[int, ...], a: int, total: float) -> float:
    """A bound from the box alone on the modelled cost of the passes of a
    chain-2 group along axis a whose weights sum to `total`: every v_a is at
    least lo and every v_i at most n_i / 2, so a pass has at most
    max(n) // lo blocks, off the lowest lo hyperplanes of axis a, in runs of
    at least n_last / 2 + 1."""
    per_block, per_cell, per_row = _PASS_NS
    lo = (shape[a] - 1) // 3 + 1
    cells = math.prod(shape) // shape[a] * (shape[a] - lo)
    return total * (per_block * ((max(shape) - 1) // lo) + cells * (
        per_cell + per_row * len(shape) / (shape[-1] - (shape[-1] - 1) // 2)))


def _product_pays(shape: tuple[int, ...], a: int, vecs: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the chain-2 group of rows vecs, of weights w_v, along axis a
    costs less as one group product than as cumulative passes, by the model
    above, from counts known before any work; never where the factor
    1 + sum K, which is (S + 1)(S + 2) / 2 at S = sum w_v, exceeds what
    _grow accepts."""
    total, d = int(weights.sum()), len(shape)
    other = _layout(shape, a, 2)[2]
    if (total + 1) * (total + 2) // 2 > 1 << (_LIMB_BITS - 1):
        return False
    fixed, per_matrix, per_entry, per_run = _PRODUCT_NS
    per_block, per_cell, per_row = _PASS_NS
    sides = np.array(shape) - vecs
    blocks = (np.array(shape)[vecs.argmax(axis=1)] - 1) // vecs.max(axis=1)
    passes = weights @ (per_block * blocks + sides.prod(axis=1) * (
        per_cell + per_row * d / sides[:, -1]))
    ks = set(vecs[:, a].tolist())
    # _kernel multiplies by the rows of K1, _one_step by those of K1 and K2
    matrices = 2 * len(ks) + len({k + j for k in ks for j in ks})
    entries = _tiling(other)[0] * math.prod(other)
    per_matrix += entries * (per_entry + (per_run * (d - 1) / other[-1] if other else 0))
    return fixed + matrices * per_matrix < passes


def _chain2_product(table: CoeffTable, a: int, vecs: np.ndarray, weights: np.ndarray) -> bool:
    """Apply the chain-2 group of rows vecs, of weights w_v, along axis a as one
    group product if it pays (_product_pays) and its products stay exact
    (CoeffTable._exact_room); whether it did."""
    if not _product_pays(table.shape, a, vecs, weights):
        return False
    kern = _kernel(table.shape, a, vecs, weights, 2)
    if not table._exact_room(int(kern.reshape(len(kern), -1).sum(axis=1).max())):
        return False
    table._one_step(a, kern)
    return True


def _chain1_products(table: CoeffTable, a: int, vecs: np.ndarray, weights: np.ndarray) -> None:
    """Apply the chain-1 group of rows vecs, of weights w_v, along axis a as
    one group product, or, where _one_step refuses that product (not exact,
    or a factor past 2^31; it refuses before any add), as the products of
    parts of weight below 2^20, which a normalized table's ceiling (below
    2^33) keeps below 2^53.  Any two members sum past the box on axis a, so
    (1 + K1') (1 + K1'') = 1 + K1' + K1'' and the parts give the same table."""
    kern = _kernel(table.shape, a, vecs, weights, 1)
    try:
        table._one_step(a, kern)
        return
    except ValueError:
        del kern
    # part i: the members whose running weight before them is in
    # [i, i + 1) * 2^19, less than 2^20 in all while w_v <= 2^19
    before = np.cumsum(weights) - weights
    part = before // (_FLOAT_EXACT >> (_LIMB_BITS + 2))
    for i in range(int(part.max()) + 1):
        table._one_step(a, _kernel(table.shape, a, vecs[part == i], weights[part == i], 1))


def _build(table: CoeffTable, vecs: np.ndarray, norms: np.ndarray,
           weights: np.ndarray) -> CoeffTable:
    """Multiply the table by the factor (1 - x^v)^(-w_v) of every primitive row
    v of vecs, with its 1-norm and weight w_v from primitive_rows.  A row of
    chain length s = min_i floor(n_i / v_i) belongs to the group of the first
    axis a that attains s.  First one group product per axis for s = 2 where
    it pays and stays exact (_chain2_product); then class_pass
    for the other rows with s >= 2, by descending 1-norm (ties in row order);
    then the group products for s = 1, axis 0 first (_chain1_products)."""
    dim = table.dim
    # v_i > floor(n_i / 2) means chain length 1 along axis i and
    # v_i > floor(n_i / 3) at most 2, so the first true entry of the two rows
    # of comparisons is the group: a for s = 1, dim + a for s = 2; 2 dim for
    # s >= 3
    cuts = [[n // k for n in table.bound] for k in (2, 3)]
    over = (vecs[:, None, :] > np.array(cuts)).reshape(len(vecs), 2 * dim)
    group = np.where(over.any(axis=1), over.argmax(axis=1), 2 * dim)
    del over
    # the chain-1 groups, then one block of every row with s >= 2, each by
    # descending 1-norm, ties in row order (lexsort is stable): the block is
    # the order of the passes
    order = np.lexsort((-norms, np.minimum(group, dim)))
    ends = [*np.bincount(group, minlength=2 * dim + 1)[:dim].cumsum().tolist(), len(vecs)]
    totals = np.bincount(group, weights, 2 * dim + 1)[dim:-1].tolist()  # of each chain-2 group
    vecs, weights = vecs[order], weights[order]
    spans = list(zip([0] + ends, ends))  # the rows of each chain-1 group, then the block
    rows = slice(*spans[-1])
    taken = []
    for a, total in enumerate(totals):
        if _passes_at_most(table.shape, a, total) > _PRODUCT_NS[0]:
            mine = np.flatnonzero(group[order[rows]] == dim + a) + rows.start
            if _chain2_product(table, a, vecs[mine], weights[mine]):
                taken.append(mine)
    if taken:
        keep = np.ones(rows.stop - rows.start, dtype=bool)
        keep[np.concatenate(taken) - rows.start] = False
        rows = np.flatnonzero(keep) + rows.start
    # row by row: a list of every row would hold ~100 bytes per vector
    for v, w in zip(vecs[rows], weights[rows].tolist()):
        table.class_pass(v.tolist(), w)
    for a, (start, stop) in enumerate(spans[:dim]):
        if start < stop:
            _chain1_products(table, a, vecs[start:stop], weights[start:stop])
    return table


def build_table(dim: int, bound) -> CoeffTable:
    """DP table of Zon_d coefficients over {e <= bound}.

    Each vector is applied once for its w_v = 2^(d(v)-1) sign classes (see
    _build): the chain-length-2 vectors as one group product per axis where
    that pays; then the other vectors with 2v inside the box, by descending
    1-norm (ties in lex order), each as w_v cumulative passes on one block
    plan (CoeffTable.class_pass); then the vectors with 2v outside the box as
    one group product per axis, axis 0 first.  The box is charged first
    (_planned), and not again if it was planned under the same budget
    setting; the table itself is never cached.
    """
    bt = _validate_vector(bound, dim)
    _planned(dim, bt, os.environ.get(_MEMORY_ENV))
    return _build(CoeffTable(dim, bt), *primitive_rows(dim, bt, sum(bt), np.int64))


# dim -> the last table shared_table built in that dimension
_SHARED: dict[int, CoeffTable] = {}


@functools.lru_cache(maxsize=256)
def _planned(dim: int, bt: tuple[int, ...], setting: str | None) -> int:
    """_plan(dim, bt) once per budget setting (the raw ZONOCOUNT_MEMORY_BUDGET),
    the one way build_table and shared_table charge a box: a plan that passes
    is remembered, one that raises is not.  Only the exact box is remembered,
    not the boxes inside it: the planned limbs are not monotone in the box
    (the corner limbs of (1, 133) exceed those of (2, 133))."""
    return _plan(dim, bt)


def shared_table(dim: int, bound) -> CoeffTable:
    """A table of Zon_d coefficients over a box covering {e <= bound}, shared
    by every caller in the process: read it, never change it.

    Every call is first charged like build_table(dim, bound), so it raises
    what that build raises; a box already planned under the same budget
    setting is not planned again (_planned), so a cold call plans its box
    once, build included.  Then the last table built here for dim answers
    when its bound covers `bound` on every axis; otherwise it is dropped
    first, so two tables are never held at once, and build_table(dim, bound)
    takes its place.  The values read at e <= bound are those of
    build_table(dim, bound).
    """
    bt = _validate_vector(bound, dim)
    _planned(dim, bt, os.environ.get(_MEMORY_ENV))
    table = _SHARED.get(dim)
    if table is not None and all(c <= b for c, b in zip(bt, table.bound)):
        return table
    del table  # drop both references to the old table before the build
    _SHARED.pop(dim, None)
    _SHARED[dim] = build_table(dim, bt)
    return _SHARED[dim]


def zon_coefficient(dim: int, n) -> int:
    """Exact number of lattice zonotopes with bounding box exactly n (comp.-wise)."""
    return shared_table(dim, n).coefficient(n)


@dataclass(frozen=True)
class MomentPair:
    """Coefficient-level numerators for a marked parameter at one box size."""

    count: int
    weighted: int
    weighted2: int | None = None

    @property
    def mean(self) -> Fraction:
        if self.count == 0:
            raise ZeroDivisionError("no zonotopes counted at this box size")
        return Fraction(self.weighted, self.count)

    @property
    def variance(self) -> Fraction:
        if self.weighted2 is None:
            raise ValueError("second moment not tracked for this parameter")
        m = self.mean
        return Fraction(self.weighted2, self.count) - m * m


def diameter_numerators(dim: int, n: int) -> MomentPair:
    """Count and summed direction count (graph diameter) over zonotopes at n*1.

    The direction-count numerator is sum over primitive v <= n of w_v Z[n - v],
    that is one term Z[n - v] per sign class.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = shared_table(dim, n)  # its memory guard runs before the box is enumerated
    weights, cells = _diameter_terms(dim, n)
    return MomentPair(count=z.coefficient(n), weighted=z._sum(cells, weights))


@functools.lru_cache(maxsize=16)
def _diameter_terms(dim: int, n: int) -> tuple[list[int], tuple[np.ndarray, ...]]:
    """The weights w_v and the cells n - v of the primitive v <= n*1, enumerated
    once per (dim, n)."""
    vecs, _, weights = primitive_rows(dim, (n,) * dim, dim * n, np.int64)
    return weights.tolist(), tuple(n - vecs.T)


def occurrence_numerators(dim: int, n: int, v0: Sequence[int]) -> MomentPair:
    """First and second moment numerators of the multiplicity of one sign class.

    The marked factor is geometric in u; its u-derivatives at u = 1 are
    q/(1-q) Zon and (q/(1-q) + 2 q^2/(1-q)^2) Zon with q = x^v0, whose
    coefficients at n are the chain sums sum_k Z[n - k v0] and
    sum_k (2k-1) Z[n - k v0] over k >= 1.
    """
    bt = _validate_vector(n, dim)
    v0t = _primitive(v0, dim, "v0")
    if any(c > b for c, b in zip(v0t, bt)):
        raise ValueError(f"v0 = {v0t} exceeds bound {bt}")
    z = shared_table(dim, bt)
    ks = np.arange(1, min(b // c for b, c in zip(bt, v0t) if c) + 1)
    chain = tuple(b - ks * c for b, c in zip(bt, v0t))
    return MomentPair(
        count=z.coefficient(bt),
        weighted=z._sum(chain),
        weighted2=z._sum(chain, range(1, 2 * len(ks), 2)),  # 2k - 1
    )


@dataclass
class BruteForceResult:
    count: int
    direction_count_sum: int
    # (coords, sign_index) -> [sum of multiplicities, sum of squared multiplicities]
    occurrence: dict
    nodes: int


def brute_force_count(dim: int, n) -> BruteForceResult:
    """Depth-first enumeration of all generator multisets with folded sum = n.

    Independent of the DP route; guarded at 10^7 nodes.  Tallies, per sign
    class, the total and squared-total multiplicity across all zonotopes.
    """
    bt = _validate_vector(n, dim)
    # The search visits at least one node per cell e <= bound (the paths through
    # the unit vectors) and one per class (the path that skips them all), so a
    # box with more of either cannot finish: refuse it before enumerating.  The
    # cells go first, which also keeps the Moebius sieve below the budget.
    if (math.prod(b + 1 for b in bt) > _BRUTE_NODE_BUDGET
            or count_classes_moebius(dim, bt) > _BRUTE_NODE_BUDGET):
        raise EnumerationBudgetError(
            f"box {bt} needs more than {_BRUTE_NODE_BUDGET} nodes; oracle is for small boxes")
    vecs, _, weights = primitive_rows(dim, bt, sum(bt), np.int64)
    classes = [(tuple(v), j) for v, w in zip(vecs.tolist(), weights.tolist()) for j in range(w)]
    ncls = len(classes)

    occurrence = {cls: [0, 0] for cls in classes}
    count = dirsum = nodes = 0
    used: list[tuple[tuple[tuple[int, ...], int], int]] = []
    # explicit-stack preorder: (class index, remainder, length of the parent's
    # path in used, the (class, multiplicity) this node adds to it or None)
    stack = [(0, bt, 0, None)]
    while stack:
        i, rem, depth, item = stack.pop()
        del used[depth:]
        if item is not None:
            used.append(item)
        nodes += 1
        if nodes > _BRUTE_NODE_BUDGET:
            raise EnumerationBudgetError(
                f"exceeded {_BRUTE_NODE_BUDGET} nodes at box {bt}; oracle is for small boxes")
        if not any(rem):
            count += 1
            dirsum += len(used)
            for cls, k in used:
                tally = occurrence[cls]
                tally[0] += k
                tally[1] += k * k
            continue
        if i == ncls:
            continue
        cls = classes[i]
        kmax = min((r // c for r, c in zip(rem, cls[0]) if c), default=0)
        children = [(i + 1, rem, len(used), None)]
        for k in range(1, kmax + 1):
            rem = tuple(r - c for r, c in zip(rem, cls[0]))
            children.append((i + 1, rem, len(used), (cls, k)))
        stack.extend(reversed(children))  # popped in ascending multiplicity
    return BruteForceResult(
        count=count,
        direction_count_sum=dirsum,
        occurrence={cls: tuple(t) for cls, t in occurrence.items()},
        nodes=nodes,
    )
