"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded on a dense table of multi-precision integers over the box
{e <= n}.  Truncation to the box is a ring map, so the table holds
[x^m] Zon_d for every m <= n at once.

The table is built by the Euler operator along one axis at a time, called
axis 0 here.  With theta_0 = x_0 d/dx_0, theta_0 Zon = H Zon for
H = theta_0 log Zon_d, and log Zon_d = sum_v w_v sum_(g >= 1) x^(g v) / g
gives, for f = g v,

    H[f] = 2^(d(f)-1) f_0 / gcd(f),   0 where f_0 = 0,

with no primitive enumeration.  Comparing coefficients hyperplane by
hyperplane (Z_i the hyperplane e_0 = i, a (d-1)-dimensional table),

    i Z_i = sum_(a=1..i) H_a * Z_(i-a),

where * is the convolution over the other axes truncated to the box, and
row 0 is the table of Zon_(d-1) over the other axes.  The products run
online, in the semi-relaxed order of van der Hoeven ("Relax, but don't be
too lazy", JSC 2002): once row j is final, for every k = 2^i dividing
j + 1, one block product (_toeplitz_add) multiplies rows j + 1 - k .. j by
kernel rows k .. 2k - 1 and adds it to the rows above.  Every (source row,
kernel row) pair is taken exactly once, before its target row is read
(_schedule).

Rows are held in limbs of b bits as uint64, b fixed from the box (_digits):
a product of a limb row and kernel row a sums at most (2^b - 1) sum H_a,
and a row's accumulator at most (2^b - 1) sum H, so
b = min(52 - bitlen(max_a sum H_a), 63 - bitlen(sum H)) keeps every
float64 product an exact integer below 2^53, whatever order BLAS sums in,
and every accumulator below 2^63, with room for the carries.  The sums are
bounded from the box alone, sum H_a <= a prod_(i>0) (1 + 2 n_i), one step
at a time.  A finished accumulator i Z_i is carried into b-bit digits and
divided by i exactly, top limb first (a remainder is below i, and
bitlen(i) <= bitlen(sum H) keeps the next dividend below 2^64); a nonzero
remainder, or a carry out of the top limb, raises.  The limbs hold i Z_i by
the corner bound (_corner_bits), and a block product multiplies only the
limbs in use so far, since Z grows along every axis; a row is carried and
divided only over those and the limbs their carries reach.

The schedule resumes from rows that are already final (_extend): with rows
0 .. r final, the block products whose targets all lie at or below r are
skipped, one that straddles r sums only its targets past r, and only the
rows past r are divided.  So a table grows to a larger box (_grow) one
axis at a time, each step a full-dimensional Euler step along that axis
over the other axes as the steps before left them, with the rows of the
box so far final (_growth).  A build is the growth from the seed, the cells
along the box's longest axis alone, which are all 1 (_seed): one step per
other axis, longest first, each with row 0 alone final.  A step lays out
the other axes shortest first by their lengths so far (_others); no box
or table is permuted beyond one step's rows.

The finished table is one uint64 array of shape (k, *(n + 1)): cell e holds
sum_i data[i][e] << 32 i, each limb 32 bits but the top one, which holds up
to 64 (_pack).  CoeffTable.class_pass, the factor (1 - x^v)^(-w) of one
class in Python ints, is over primitive_rows the tests' second oracle,
beside the Euler recurrence in Python ints and brute force; no build uses it.

Exact first moments are kernel sums sum_f K[f] Z[n - f] over that one table,
each read by one weighted limb sum (CoeffTable._sum).  Marking generator
presence with u (factor 1 + u x^v/(1-x^v)) and differentiating at u = 1 gives
the kernel w_v on primitive v (the direction count).  Marking one class's
multiplicity with u^k (factor 1/(1-u x^v0)) gives the kernels 1 and 2k - 1 at
k v0, k >= 1.  An independent depth-first multiset enumeration serves as the
oracle for all of these on small boxes.

A build is charged to the memory budget once, up front, from its box alone:
the peak of its growth from the seed (_plan, _peak; remembered per box and
budget setting by _planned).  A table at bound B holds Z[e] for every
e <= B, so the readers here and the CLI's ``count`` and ``compare`` share
one table per dimension, the last one made (``shared_table``), which
answers every box inside it once that box is charged.  A box around it
grows it where the growth's steps do less work than the build's steps from
the seed, counted from their boxes alone (_work), and the old table with
the growth's own peak fits the budget (_grows); any other box replaces it
by a build.  ``build_table`` is never cached.
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
    _lru_one_large,
    _primitive,
    _validate_vector,
    count_classes_moebius,
    primitive_rows,
)

# Bits of a table's limbs but the top one, which holds up to twice as many.
_LIMB_BITS = 32

_BRUTE_NODE_BUDGET = 10 ** 7


class EnumerationBudgetError(RuntimeError):
    """Brute-force enumeration exceeded its node budget (oracle is for small boxes)."""


def _check_memory(shape: tuple[int, ...]) -> None:
    """Charge a table of `shape` in one limb."""
    size = math.prod(shape)
    _charge(8 * size, f"table of {_approx(size)} cells in 1 limbs")


def _check_ints(shape: tuple[int, ...], arrays: int, bits: int) -> None:
    """Charge the pass oracle's `arrays` object arrays of ints of up to `bits`
    bits with a copy of one's pointers, an array of 64-bit ints and the limbs."""
    size = math.prod(shape)
    per = arrays * (36 + 4 * (bits // 30)) + 52 + 8 * _packed_limbs(bits)
    _charge(per * size, f"{arrays} arrays of {_approx(size)} Python ints of up to {bits} bits")


class CoeffTable:
    """Dense table of nonnegative coefficients of a d-variate series, indexed by e <= bound.

    ``data`` holds them as uint64 limbs, shape (k, *(bound + 1)): cell e is
    sum_i data[i][e] << 32 i.  Values become Python ints only where ``_sum``
    reads them and in the pass oracle (``class_pass``, ``shifted_add``).
    """

    __slots__ = ("dim", "bound", "shape", "data")

    def __init__(self, dim: int, bound, data: np.ndarray | None = None):
        """The series 1 over the box, or the limbs `data`, uint64 of shape (k >= 1, *shape)."""
        self.bound = _validate_vector(bound, dim)
        self.dim = dim
        self.shape = tuple(b + 1 for b in self.bound)
        if data is None:
            _check_memory(self.shape)
            data = np.zeros((1, *self.shape), dtype=np.uint64)
            data[(0,) * (dim + 1)] = 1
        elif (getattr(data, "dtype", None) != np.uint64 or data.shape[1:] != self.shape
              or not len(data)):
            raise ValueError(f"table data must be a uint64 array of shape (k >= 1, *{self.shape})")
        self.data = data

    def _sum(self, index: tuple, weights: Sequence[int] | None = None) -> int:
        """Sum of the values at `index` over the cell axes (ints, slices or index
        arrays), times `weights` (ints, one per cell, flat) if given: one Python
        int sum per limb, shifted once, exact whatever each limb holds."""
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

    def _ints(self) -> np.ndarray:
        """The cells as an object array of Python ints, shaped like the box."""
        cells = self.data[-1].astype(object)
        for limb in self.data[-2::-1]:
            cells <<= _LIMB_BITS
            cells += limb
        return cells

    def _store(self, cells: np.ndarray) -> None:
        """Make the Python ints `cells` the table's data, consuming them: the
        fewest limbs that hold the largest, 32 bits each but the top one (_pack)."""
        limbs = _packed_limbs(int(cells.max()).bit_length())
        self.data = data = np.empty((limbs, *self.shape), np.uint64)
        for limb in data[:-1]:
            limb[...] = cells & ((1 << _LIMB_BITS) - 1)
            cells >>= _LIMB_BITS
        data[-1] = cells

    def class_pass(self, v: Sequence[int], w: int) -> None:
        """In place, multiply by (1 - x^v)^(-w), the factor of the w = 2^(d(v)-1)
        sign classes of v, in Python ints.

        It runs w times T[e] += T[e - v] in ascending order, one slab a
        hyperplane along the axis a of largest v_a: a slab reads only the
        hyperplane v_a below it, which is final.
        """
        w = operator.index(w)
        if w < 1 or w & (w - 1) or w > 1 << (self.dim - 1):
            raise ValueError(f"class weight {w} is not a power of two up to 2^{self.dim - 1}")
        vt = self._vector(v)
        s = min([b // c for b, c in zip(self.bound, vt) if c])
        if not s:
            return
        # a cell of up to 32 (k + 1) + 1 bits grows (s + 1)-fold at most w times
        _check_ints(self.shape, 1, _LIMB_BITS * (len(self.data) + 1) + 1 + w * s.bit_length())
        cells = self._ints()
        a = vt.index(max(vt))
        dst = [slice(c, None) for c in vt]
        src = [slice(n - c) for c, n in zip(vt, self.shape)]
        for _ in range(w):
            for i in range(vt[a], self.shape[a]):
                dst[a], src[a] = i, i - vt[a]
                cells[tuple(dst)] += cells[tuple(src)]
        self._store(cells)

    def shifted_add(self, src: "CoeffTable", v: Sequence[int]) -> None:
        """self[e] += src[e - v] in Python ints (src times x^v, accumulated)."""
        if src.bound != self.bound:
            raise ValueError("table bounds differ")
        vt = self._vector(v)
        if any(c > b for c, b in zip(vt, self.bound)):
            return
        _check_ints(self.shape, 2, _LIMB_BITS * (max(len(self.data), len(src.data)) + 1) + 2)
        cells = self._ints()
        cells[tuple(slice(c, None) for c in vt)] += src._ints()[
            tuple(slice(n - c) for c, n in zip(vt, self.shape))]
        self._store(cells)


# The most cells of one tile (_tiling).  Whole builds, medians, one BLAS
# thread, 2-core Xeon, against caps of 64, 256 and 512 from d = 3 n = 8 to
# d = 8 n = 3: 128 was the fastest or within 2% of it everywhere but d = 3
# n = 8-12, where 256 was 7-14% faster; 256 and 512 were 23-143% slower
# from d = 3 n = 24, d = 4 n = 10 and d = 5 n = 5 on, 64 up to 39% slower.
_TILE_CELLS = 128


@functools.lru_cache(maxsize=256)
def _tiling(other: tuple[int, ...]) -> tuple:
    """The tiles a block product cuts the other axes into (_toeplitz_add):
    the first p axes into single hyperplanes, p the fewest for which the
    rest fits in _TILE_CELLS cells whole, or once its first axis is cut into
    the fewest equal tiles that fit.  The last axis is never cut, so at
    d = 2 a hyperplane is one tile.  Returns a tile's extent on each axis,
    which lays out the kernel too (_euler_kernel), the tiles per cut axis,
    the axes padded to whole tiles, the index of the unpadded ones, and per
    tile offset delta the indices of one product: the source tiles, the
    target tiles and their columns (a last tile may be short), the number
    of source tiles, and the matrix's columns on the cut axes."""
    sides = (1,) * max(len(other) - 1, 0)
    for p in range(len(other) - 1):
        rest = math.prod(other[p + 1:])
        if rest <= _TILE_CELLS:
            cut = -(-other[p] // (_TILE_CELLS // rest))  # the fewest tiles that fit
            sides = (1,) * p + ((-(-other[p] // cut),) if cut > 1 else ())
            break
    grid = [-(-n // t) for n, t in zip(other, sides)]
    tile, uncut = (*sides, *other[len(sides):]), math.prod(other[len(sides):])
    steps = [((slice(None), *[slice(g - d) for g, d in zip(grid, delta)]),
              (slice(None), *[slice(d, g) for g, d in zip(grid, delta)],
               slice(uncut * math.prod(min(t, n - d * t) for n, t, d in zip(other, sides, delta)))),
              math.prod(g - d for g, d in zip(grid, delta)),
              tuple(slice(d * t, d * t + t) for t, d in zip(sides, delta)))
             for delta in itertools.product(*map(range, grid))]
    padded = (*[g * t for g, t in zip(grid, sides)], *other[len(sides):])
    inside = (slice(None), slice(None), *map(slice, other[:len(sides)]))
    return tile, grid, padded, inside, steps


def _staging(other: tuple[int, ...], sources: int, targets: int, limbs: int) -> int:
    """The entries (8 bytes each) one _toeplitz_add over the other axes
    holds: one tile's matrix, the three buffers numpy adds a product into
    its targets through (a cast and strided views), and the sources padded
    to whole tiles, one product and, from two tiles on (one is a view), one
    gathered block of sources, and the targets' sums."""
    tile, grid, padded, _, _ = _tiling(other)
    sums, product = (limbs * math.prod(padded) * rows for rows in (targets, sources))
    gathered = math.prod(grid) > 1
    return math.prod(tile) ** 2 + 3 * min(np.getbufsize(), product) + (2 + gathered) * product + sums


def _toeplitz_add(src: np.ndarray, kern: np.ndarray, targets: int, first: int) -> np.ndarray:
    """The sums out[i + j - first] = sum src[i] M_j in uint64, of shape
    (targets - first, *src.shape[1:]), over the rows j of kern and the
    hyperplanes i of src, whose second axis holds the limbs, for the targets
    first <= i + j < targets.  kern is nonnegative, with its entry at u over
    the other axes at u + tile - 1 (_euler_kernel); M_j, the Toeplitz
    matrix of its row j over the other axes, has entry K_j[q - r] in row r
    and column q, zero unless q >= r on every axis.  So the axes are cut
    into tiles (_tiling), the sources padded with zeros to whole tiles, and
    for each tile offset, every source tile it reaches times the matrix of
    K_j at that offset is one float64 matrix product (numpy @, BLAS), exact
    while its sums stay below 2^53."""
    sources, limbs, *other = src.shape
    tile, grid, padded, inside, steps = _tiling(src.shape[2:])
    cells = math.prod(tile)
    staged = np.zeros((sources, limbs, *padded))
    staged[inside] = src
    out = np.zeros((targets - first, limbs, *padded), np.uint64)
    # a tile is one run of cells: view both as rows of limbs over the tiles
    src_tiles = staged.reshape(sources * limbs, *grid, cells)
    out_tiles = out.reshape((targets - first) * limbs, *grid, cells)
    step = kern.strides[1:]
    matrices = np.ndarray((len(kern), *tile, *other), kern.dtype, kern,
                          offset=sum((t - 1) * s for t, s in zip(tile, step)),
                          strides=kern.strides[:1] + tuple(-s for s in step) + step)
    rows = (slice(None),) * len(tile)
    for reach, land, tiles, columns in steps:
        # the source tiles delta reaches, gathered as the rows of one matrix
        # (a view when there is one tile), and the tiles they land on
        gathered, landing = src_tiles[reach].reshape(-1, cells), out_tiles[land]
        for j in range(len(kern)):
            low, high = max(first - j, 0) * limbs, min(sources, targets - j) * limbs
            if low >= high:
                continue
            matrix = np.ascontiguousarray(matrices[(j, *rows, *columns)]).reshape(cells, -1)
            block = landing[low + (j - first) * limbs:high + (j - first) * limbs]
            product = (gathered[low * tiles:high * tiles] @ matrix).reshape(block.shape)
            np.add(block, product, out=block, dtype=np.uint64, casting="unsafe")
            del matrix, product  # the next ones are allocated before these names are rebound
        del gathered
    return out[inside]


def _euler_kernel(shape: tuple[int, ...]) -> np.ndarray:
    """H = theta_0 log Zon over the box of `shape` as _toeplitz_add takes it,
    float64: row a holds H[a, u] = 2^(d(f)-1) a / gcd(f), f = (a, u), at
    u + tile - 1 (_tiling), and zeros at the tile's negative offsets and in
    row 0.  Every f has f_0 = a >= 1, so 2^(d(f)-1) is 2 to the nonzero u_i."""
    tile = _tiling(shape[1:])[0]
    kern = np.zeros((shape[0], *(n + t - 1 for n, t in zip(shape[1:], tile))))
    a, *u = np.ix_(np.arange(1, shape[0]), *map(np.arange, shape[1:]))
    kern[(slice(1, None), *[slice(t - 1, None) for t in tile])] = np.ldexp(
        a / functools.reduce(np.gcd, u, a), sum(c > 0 for c in u))
    return kern


def _schedule(n: int):
    """The semi-relaxed order of the block products over rows 0..n: once
    row j is final, for each k = 2^i dividing j + 1, rows j + 1 - k .. times
    kernel rows k .., m of each, m = min(k, n - j), summed into the targets
    j + 1 .. j + t, t = min(2m - 1, n - j): the rest would land past row n.
    Yields (j, [(k, m, t), ...]) for j = 0 .. n - 1."""
    for j in range(n):
        low = (j + 1) & -(j + 1)  # the largest power of two dividing j + 1
        yield j, [(1 << i, min(1 << i, n - j), min(2 << i, n - j + 1) - 1)
                  for i in range(low.bit_length())]


def _divide(row: np.ndarray, t: int, width: int) -> None:
    """In place, carry the accumulator row (limbs, *cells), which holds
    t Z_t, into width-bit digits and divide it by t, top limb first; raise
    unless the top limb keeps its carry and every remainder is 0."""
    row = row[..., None]  # every limb an array, where a row is one cell (d = 1)
    shift = np.uint64(width)
    for low, high in zip(row[:-1], row[1:]):
        high += low >> shift
        low &= np.uint64((1 << width) - 1)
    if (row[-1] >> shift).any():
        raise ArithmeticError(f"row {t} overflows its {len(row)} limbs of {width} bits")
    rest, value = np.zeros_like(row[0]), np.empty_like(row[0])
    for limb in row[::-1]:
        np.left_shift(rest, shift, out=value)
        value |= limb
        np.divmod(value, t, out=(limb, rest))
    if rest.any():
        raise ArithmeticError(f"row {t} is not {t} times an integer row: the build is not exact")


def _extend(rows: np.ndarray, r: int, width: int) -> None:
    """In place, rows r + 1 .. n, r < n, of the width-bit digit rows
    (n + 1, limbs, *other) of Z by the Euler recurrence along their first
    axis (module docstring), rows 0 .. r being final: the block products of
    _schedule whose targets all lie at or below r are skipped, one that
    straddles r sums only its targets past it, and only the rows past r are
    divided."""
    n, limbs = len(rows) - 1, rows.shape[1]
    kern = _euler_kernel(rows.shape[:1] + rows.shape[2:])
    # an accumulator of `used` limbs, each below 2^63, carries into at most
    # `room` more digits: only those are carried and divided
    room = -(-(64 - width) // width)
    # the limbs in use: Z grows along every axis, so the rows so far are zero
    # above the limbs of the last one
    used = 1
    for j, blocks in _schedule(n):
        while used < limbs and rows[j, used].any():
            used += 1
        for k, count, targets in blocks:
            first = max(r - j, 0)  # the targets j + 1 .. r are final
            if first < targets:
                # the first c sources and kernel rows reach no target past r
                c = max(first - count + 1, 0)
                view = rows[j + 1 + first:j + 1 + targets, :used]
                view += _toeplitz_add(rows[j + 1 - k + c:j + 1 - k + count, :used],
                                      kern[k + c:k + count], targets - 2 * c, first - 2 * c)
        if j >= r:
            _divide(rows[j + 1, :used + room], j + 1, width)


def _relimb(src, src_bits: int, out: np.ndarray, bits: int) -> np.ndarray:
    """Or into the zeros `out` the values the limbs src (along axis 0) hold,
    src_bits bits each but the top one, which holds up to 64, as limbs of
    `bits` bits each but the top one, which holds the rest; return out."""
    top = len(out) - 1
    for j, limb in enumerate(src):
        start = src_bits * j  # the bit the limb starts at
        end = start + (64 if j == len(src) - 1 else src_bits)
        for i in range(min(start // bits, top), min((end - 1) // bits, top) + 1):
            shift = start - bits * i
            piece = limb << np.uint64(shift) if shift >= 0 else limb >> np.uint64(-shift)
            if i < top:
                piece &= np.uint64((1 << bits) - 1)
            out[i] |= piece
    return out


def _pack(digits: np.ndarray, width: int) -> np.ndarray:
    """The width-bit digits (limbs, *cells) as a table's data: 32-bit limbs,
    shape (k, *cells), the top one holding up to 64 bits, k the fewest that
    hold the largest cell."""
    top = max(i for i in range(len(digits)) if digits[i].any())
    k = _packed_limbs(width * top + int(digits[top].max()).bit_length())
    return _relimb(digits[:top + 1], width, np.zeros((k, *digits.shape[1:]), np.uint64),
                   _LIMB_BITS)


def _packed_limbs(bits: int) -> int:
    """The fewest 32-bit limbs, the top one holding up to 64 bits, that hold
    a value of `bits` bits."""
    return max(1, -(-(bits - _LIMB_BITS) // _LIMB_BITS))


def _corner_bits(n: tuple[int, ...]) -> float:
    """A bound on the bits of Z[n], and so of every cell of the box, for the
    nonzero axis lengths n of a box.  Over its d axes (d <= 1 keeps every
    cell at 1), ln Z[n] <= sum_i t_i n_i + sum_k F(z^k)/k for all
    z_i = e^(-t_i) < 1, where F(z) = sum_v w_v z^v over every v >= 0, v != 0,
    is (prod_i coth(t_i/2) - 1)/2.  Each monomial of F(z^(k+1)) is at most
    e^(-t_min) times its term in F(z^k), so the terms from k on add up to at
    most F(z^k)/(k (1 - e^(-t_min))).  The lengths are taken in ascending
    order, so the float bound is the same in every order of the axes.
    """
    d, bits = len(n), 0.0
    if d > 1:
        # t_i n_i = s on every axis minimizes sum_i t_i n_i + 2^(d-1)/prod_i t_i
        s = (2 ** (d - 1) * math.prod(n)) ** (1 / (d + 1))
        t = [s / n_i for n_i in sorted(n)]
        f = [(math.prod(1 / math.tanh(k * t_i / 2) for t_i in t) - 1) / 2 / k
             for k in range(1, int(5 / min(t)) + 2)]
        bits = (d * s + sum(f[:-1]) + f[-1] / -math.expm1(-min(t))) / math.log(2)
    return bits


def _digits(bt: tuple[int, ...], steps) -> tuple[int, int]:
    """The limb width b and the limbs that hold every i Z_i over the box bt,
    from the box alone (module docstring), for the Euler steps of _extend
    that reach it (_growth): a step along an axis of rows 0 .. n has kernel
    rows a that sum at most a P, P the product of 1 + 2 c over the lengths c
    of the other axes, the sum of 2^(d(f)-1) over the cells f with f_0 = a,
    since a / gcd(f) <= a."""
    width = 52
    for a, _, now in steps:
        n, per = now[a], math.prod(1 + 2 * c for c in now) // (1 + 2 * now[a])
        width = min(width, 52 - (n * per).bit_length(), 63 - (n * (n + 1) // 2 * per).bit_length())
    bits = int(_corner_bits(tuple(b for b in bt if b))) + 1 + max(bt).bit_length()
    return width, max(1, -(-bits // width))


def _growth(old: tuple[int, ...], box: tuple[int, ...]) -> list[tuple]:
    """The steps (a, r, box after it) that grow a table of the box old to
    the box around it (_grow): one per longer axis, rows 0 .. r = old[a]
    final, the axes of largest box[a] + old[a] first, which makes the
    fewest pairs of rows times hyperplane cells; ties go to the shorter box[a]."""
    steps, now = [], list(old)
    for a in sorted((a for a, (r, n) in enumerate(zip(old, box)) if n > r),
                    key=lambda a: (-box[a] - old[a], box[a])):
        now[a] = box[a]
        steps.append((a, old[a], tuple(now)))
    return steps


def _seed(box: tuple[int, ...]) -> tuple[int, ...]:
    """The box a build of `box` grows from (build_table): its first longest
    axis alone, over which every cell of Zon_d is 1."""
    a = box.index(max(box))
    return tuple(b if i == a else 0 for i, b in enumerate(box))


def _others(a: int, now: tuple[int, ...]) -> list[int]:
    """The axes but a of the box `now`, in the order an Euler step along a
    lays them out behind its rows (_extend): shortest first, ties by index,
    so the axis _tiling never cuts is the longest so far."""
    return sorted((i for i in range(len(now)) if i != a), key=now.__getitem__)


def _step_peak(n: int, other: tuple[int, ...], work: int) -> int:
    """The entries (8 bytes each) an Euler step along an axis of rows
    0 .. n over the other axes of shape `other` holds beside its digit rows
    of `work` limbs (_extend): the kernel (_euler_kernel) with the arrays
    that make it, or with the staging of its largest block product (_staging)."""
    kern = (n + 1) * math.prod(c + t - 1 for c, t in zip(other, _tiling(other)[0]))
    most = kern + 4 * (n + 1) * math.prod(other)
    for k in (1 << i for i in range(n.bit_length())):
        count = min(k, n + 1 - k)
        most = max(most, kern + _staging(other, count, min(2 * count - 1, n + 1 - k), work))
    return most


def _peak(old: tuple[int, ...], box: tuple[int, ...], steps, limbs: int, work: int) -> int:
    """The entries (8 bytes each) the growth `steps` of a table of the box
    old to `box` (_grow), in `work` digit limbs packed into `limbs`, holds
    beside the old table: the digits so far with one shifted copy of a limb
    (_relimb), or the digit rows before and after a step, or after it with
    the step's kernel and staging (_step_peak) over the other axes as it
    lays them out (_others), or at the end the packed table with the rows
    and two limbs of shifted digits."""
    before = math.prod(c + 1 for c in old)
    peak = max(before * (work + 2), math.prod(b + 1 for b in box) * (limbs + work + 2))
    for a, r, now in steps:
        cells = math.prod(c + 1 for c in now)
        other = tuple(now[i] + 1 for i in _others(a, now))
        peak = max(peak, work * (before + cells), work * cells + _step_peak(now[a], other, work))
        before = cells
    return peak


def _plan(dim: int, bt: tuple[int, ...]) -> int:
    """Charge the budget for a build of the box bt from bt alone: the table
    in one limb, then the peak of the build's growth from the seed (_peak),
    and return the limbs _pack gives a cell of the corner's bits
    (_corner_bits)."""
    size = math.prod(b + 1 for b in bt)
    _check_memory((size,))
    limbs = _packed_limbs(int(_corner_bits(tuple(b for b in bt if b))) + 1)
    seed = _seed(bt)
    steps = _growth(seed, bt)
    width, work = _digits(bt, steps)
    if width < 1:
        raise ValueError(f"box {bt} in dim {dim}: its kernel rows sum past what float64 "
                         f"products hold exactly")
    _charge(8 * _peak(seed, bt, steps, limbs, work),
            f"table of {_approx(size)} cells in {limbs} limbs, built in {work} limbs "
            f"of {width} bits with its kernel and block staging")
    return limbs


def build_table(dim: int, bound) -> CoeffTable:
    """Table of Zon_d coefficients over {e <= bound}.

    Grown (_grow) in the axes as given from the seed, the cells along the
    longest axis alone, which are all 1 (_seed), by the Euler recurrence
    along each other axis, longest first, packed into 32-bit limbs (_pack).
    The box is charged first (_planned), and not again if it was planned
    under the same budget setting; the table itself is never cached.
    """
    bt = _validate_vector(bound, dim)
    _planned(dim, bt, os.environ.get(_MEMORY_ENV))
    seed = _seed(bt)
    return _grow(CoeffTable(dim, seed, np.ones((1, *(c + 1 for c in seed)), np.uint64)), bt)


def _work(steps) -> tuple[int, int]:
    """What the Euler steps of _extend (_growth) do, counted from their boxes
    alone: the (source row, kernel row) pairs they multiply times the cells
    of a hyperplane, and their block products times the tile offsets of a
    hyperplane (_tiling), each a loop of small matrix products whose fixed
    costs rule small boxes.  Along an axis of rows 0 .. n, the blocks with
    kernel rows k .. sit at the rows j = q k - 1, q = 1 .. n // k, and reach
    past r once j + 2k - 1 > r, that is from q = (r + 2) // k - 1 on."""
    cells = products = 0
    for a, r, now in steps:
        n, shape = now[a], tuple(now[i] + 1 for i in _others(a, now))
        cells += (n * (n + 1) - r * (r + 1)) // 2 * math.prod(shape)
        blocks = sum(max(0, n // k - max(1, (r + 2) // k - 1) + 1)
                     for k in (1 << i for i in range(n.bit_length())))
        products += blocks * len(_tiling(shape)[4])
    return cells, products


def _grows(table: CoeffTable, bt: tuple[int, ...], limbs: int) -> bool:
    """Whether shared_table grows `table` to the box bt (_grow), planned at
    `limbs` packed limbs, rather than build bt cold: only when the table's
    box lies inside bt, the growth's steps do less of both kinds of work
    _work counts than a build's steps from the seed, and the old table with
    the growth's own peak (_peak) fits the budget."""
    if any(o > b for o, b in zip(table.bound, bt)):
        return False
    steps = _growth(table.bound, bt)
    grown, cold = _work(steps), _work(_growth(_seed(bt), bt))
    if grown[0] >= cold[0] or grown[1] >= cold[1]:
        return False
    _, work = _digits(bt, steps)
    try:
        _charge(8 * (table.data.size + _peak(table.bound, bt, steps, limbs, work)),
                f"growth of a table of {table.bound} to {bt}")
    except MemoryBudgetError:
        return False
    return True


def _grow(table: CoeffTable, bt: tuple[int, ...]) -> CoeffTable:
    """The table of Zon_d over bt, d = table.dim, from `table`, which holds
    it over a box inside bt: its cells unpacked into the digits of bt, then
    one Euler step per longer axis (_growth) on digit rows with that axis in
    front and the others in _others' order, the rows of the box so far
    copied in and final (_extend), and the digits packed (_pack)."""
    steps = _growth(table.bound, bt)
    width, limbs = _digits(bt, steps)
    # the digits so far, shaped (limbs, *cells)
    cells = _relimb(table.data, _LIMB_BITS, np.zeros((limbs, *table.shape), np.uint64), width)
    for a, r, now in steps:
        others = _others(a, now)
        front = (1 + a, 0, *(1 + i for i in others))
        rows = np.zeros((now[a] + 1, limbs, *(now[i] + 1 for i in others)), np.uint64)
        rows[:r + 1] = cells.transpose(front)
        del cells
        _extend(rows, r, width)
        cells = rows.transpose(np.argsort(front))
        del rows
    data = _pack(cells, width)
    del cells
    return CoeffTable(table.dim, bt, data)


# dim -> the last table shared_table made in that dimension
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
    once, build included.  Then the last table made here for dim answers
    when its bound covers `bound` on every axis.  When `bound` covers it
    instead, and _grows finds the growth cheaper than a build and within
    the budget, a new table grown from it to `bound` (_grow) takes its
    place; the old one is left as it was, for any caller still holding it.
    Otherwise it is dropped first, so two tables are never held at once,
    and build_table(dim, bound) takes its place.  Either way the table
    equals build_table(dim, bound), limbs included.
    """
    bt = _validate_vector(bound, dim)
    limbs = _planned(dim, bt, os.environ.get(_MEMORY_ENV))
    table = _SHARED.get(dim)
    if table is not None and all(c <= b for c, b in zip(bt, table.bound)):
        return table
    if table is not None and _grows(table, bt, limbs):
        _SHARED[dim] = _grow(table, bt)
        return _SHARED[dim]
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


@_lru_one_large(16, lambda terms: len(terms[0]) >= 1 << 16)
def _diameter_terms(dim: int, n: int) -> tuple[list[int], tuple[np.ndarray, ...]]:
    """The weights w_v and the cells n - v of the primitive v <= n*1, enumerated
    once per (dim, n) for the 16 latest boxes of fewer than 2^16 vectors, and
    for the latest larger one only (_lru_one_large).

    The enumeration is charged 3d + 2 words per cell of the box before it
    runs (at d = 1 it makes the one row v = 1 alone): under tracemalloc it
    peaked at 5.4 words a cell at d = 2 (n = 600), 7.8 at d = 3 (n = 100),
    10 at d = 4, 14.9 at d = 6, 20.8 at d = 8 and 48.6 at d = 18 (n = 1),
    when the rows, the cells n - v and the weights are alive at once."""
    _charge(8 * (3 * dim + 2) * ((n + 1) ** dim if dim > 1 else 1),
            f"primitive vectors of [0, {n}]^{dim}")
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

    Independent of the Euler engine; guarded at 10^7 nodes.  Tallies, per sign
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
