"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded by dynamic programming on a dense table of multi-precision
integers.  Let s = min_i floor(n_i / v_i) be the chain length of a primitive
vector v in the box, and w_v = 2^(d(v)-1) its number of sign classes.  When
s >= 2 the factor (1 - x^v)^(-w_v) is applied as w_v cumulative-sum passes
T[e] += T[e-v] in ascending index order, as numpy slab adds over blocks of
hyperplanes, so its Python-level cost is one call per block, not one per
cell.  These passes run first; factors commute and truncation to the box is a
ring map, so the order does not change the result.  The table at bound n then
holds [x^m] Zon_d for every m <= n simultaneously.

When s = 1 (2v leaves the box: three in four vectors at d=2 n=96, nine in
ten at d=4 n=6) the factor truncates to 1 + w_v x^v.  Group a holds the
vectors whose first axis with 2 v_a > n_a is a; any two of them sum past the
box on that axis, so every cross term vanishes and the group's whole factor
is 1 + sum_{v in G_a} w_v x^v.  Its sources (hyperplanes below the smallest
v_a) and targets are disjoint.  For each k = v_a the sources of hyperplanes
0..n_a - k, as float64 rows over the other axes, times the Toeplitz
(block-Toeplitz for d >= 3) matrix of the kernel sum_u w_(k,u) y^u are one
matrix product (numpy @, BLAS), added to hyperplanes k..n_a.

The table is one uint64 array of shape (k, *(n + 1)): cell e holds
sum_i data[i][e] << 32 i, with 32-bit limb payloads and lazy carries.  A
ceiling bounds every entry.  A cumulative pass of chain length s (at most
s + 1 entries summed into one) grows entries by the factor s + 1; before it
the table normalizes if factor * ceiling would reach 2^64 (carry = data >>
32, data &= 2^32 - 1, data[1:] += carry[:-1], with a new limb when the top
one carries), which leaves every entry below 2^33, then multiplies the
ceiling by the factor; no factor may exceed 2^31, so that product stays
below 2^64.  The sum identity holds whether or not the limbs are
normalized, so one np.add per slab covers all k limbs and no per-block carry
is needed.  A group product is exact from two facts.  Each float64 product is
an exact integer, whatever order BLAS sums in: each limb is multiplied on its
own, and the table normalizes first when the ceiling times the largest weight
of one k would reach 2^53.  The products are summed in uint64 and added limb
by limb, and the group grows entries at most (1 + sum w_v)-fold, which goes
through the same normalize-and-multiply step as a cumulative pass.

Exact first moments are chain sums over that one table.  Marking generator
presence with u (factor 1 + u x^v/(1-x^v)) and differentiating at u = 1
multiplies Zon by the sum of x^v over sign classes, so the direction-count
numerator is sum_v w_v Z[n - v].  Marking one class's multiplicity with u^k
(factor 1/(1-u x^v0)) gives the occurrence numerators sum_k Z[n - k v0] and
sum_k (2k-1) Z[n - k v0].  An independent depth-first multiset enumeration
serves as the oracle for all of these on small boxes.

Since a table at bound B holds Z[e] for every e <= B, the readers here and
the CLI's ``count`` and ``compare`` share one table per dimension
(``shared_table``): the last one they built.  A box inside it is answered
from it once the memory budget admits that table's limbs and carry buffer
again; any other box, or a failed charge, drops it and builds the requested
box exactly, which then takes its place.  ``build_table`` is never cached: each
call returns a fresh table its caller may change.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .primitives import (
    MemoryBudgetError,
    _approx,
    _charge,
    _validate_vector,
    class_weights,
    count_classes_moebius,
    is_primitive,
    primitive_array,
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


class CoeffTable:
    """Dense table of nonnegative coefficients of a d-variate series, indexed by e <= bound.

    ``data`` holds the coefficients as uint64 limbs with lazy carries, shape
    (k, *(bound + 1)) (see the module docstring); ``ceiling`` bounds every
    entry.  Values become Python ints only where they are read
    (``coefficient``, ``total``, ``cells``).
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
        self._check_memory(1)
        self.data = np.zeros((1, *self.shape), dtype=np.uint64)
        self.data[(0,) * (dim + 1)] = 1
        self.ceiling = 1

    def _check_memory(self, limbs: int, staging: int = 0) -> None:
        """Budget for `limbs` limbs plus the normalization temporary of the same
        size, plus `staging` bytes of one-step group buffers."""
        size = math.prod(self.shape)
        extra = " and one-step staging" if staging else ""
        _charge(2 * 8 * limbs * size + staging,
                f"table of {_approx(size)} cells in {limbs} limbs with its carry buffer{extra}")

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
        self._check_memory(len(self.data) + 1)
        self.data = np.concatenate([self.data, np.zeros((1, *self.shape), np.uint64)])

    def _read(self, index: tuple) -> list[int]:
        """Python ints at `index` over the cell axes (ints, slices or index arrays), flat."""
        limbs = self.data[(slice(None), *index)].reshape(len(self.data), -1)
        values = limbs[-1].tolist()
        for row in limbs[-2::-1]:
            values = [(hi << _LIMB_BITS) + lo for hi, lo in zip(values, row.tolist())]
        return values

    def _index(self, e) -> tuple[int, ...]:
        et = _validate_vector(e, self.dim)
        if any(c > b for c, b in zip(et, self.bound)):
            raise ValueError(f"index {et} outside bound {self.bound}")
        return et

    @property
    def cells(self) -> list[int]:
        """Every coefficient, flat in row-major order."""
        return self._read(())

    def coefficient(self, e) -> int:
        return self._read(self._index(e))[0]

    def total(self, upto=None) -> int:
        """Sum of the coefficients at e <= upto; the whole table by default."""
        box = self.bound if upto is None else self._index(upto)
        sub = self.data[(slice(None), *(slice(c + 1) for c in box))]
        return sum(sum(limb.ravel().tolist()) << (_LIMB_BITS * i) for i, limb in enumerate(sub))

    def _vector(self, v: Sequence[int]) -> tuple[int, ...]:
        """v as a tuple of ints, checked to be a nonzero pass vector of this table."""
        vt = _validate_vector(v, self.dim)
        if not any(vt):
            raise ValueError(f"pass vector {vt} is zero")
        return vt

    def _grow(self, factor: int) -> None:
        """Let every entry grow to `factor` times the ceiling, normalizing first
        if that could reach 2^(2 * _LIMB_BITS)."""
        if factor > 1 << (_LIMB_BITS - 1):
            raise ValueError(f"a step over bound {self.bound} may grow entries "
                             f"{factor}-fold, above the limit 2^{_LIMB_BITS - 1}")
        if factor * self.ceiling >= 1 << (2 * _LIMB_BITS):
            self._normalize()
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

    def _one_step(self, a: int, vecs: np.ndarray, weights: np.ndarray) -> None:
        """In place, multiply by 1 + sum_v w_v x^v over the rows v of vecs, which
        lie in the box and all have 2 v_a > n_a (group a, module docstring).

        Per k = v_a, the sources in hyperplanes 0..n_a - k times the Toeplitz
        matrix of the kernel sum_u w_(k,u) y^u over the other axes is one
        float64 matrix product, exact because the ceiling times the weight of
        k stays below 2^53.  The products are summed in a uint64 buffer and
        added to hyperplanes k..n_a; the group grows entries at most
        (1 + sum w_v)-fold (_grow).  Sources and targets are disjoint, so the
        sources are staged once.
        """
        top = self.shape[a]
        lo = top // 2 + top % 2  # every k = v_a > n_a / 2 is at least this
        rows = top - lo  # target hyperplanes lo..n_a, source hyperplanes 0..n_a - lo
        other = self.shape[:a] + self.shape[a + 1:] or (1,)
        m = math.prod(other)
        at = vecs[:, a] - lo
        sums = [int(x) for x in np.bincount(at, weights, rows).tolist()]  # weight per k
        if max(sums) * self.ceiling >= _FLOAT_EXACT:
            self._normalize()
            if max(sums) * self.ceiling >= _FLOAT_EXACT:
                raise ValueError(f"a one-step group over bound {self.bound} sums {max(sums)} "
                                 f"terms per cell, too many for exact float64 products")
        self._grow(1 + sum(sums))  # a normalization here only lowers the sources' bound
        limbs = len(self.data)
        # The matrix of k is block upper triangular (u >= 0), so the block
        # columns whose first other coordinate is below c read only the block
        # rows below c: for d >= 3 two pieces, split along the first other
        # axis, skip a quarter of the products and halve the matrix held at
        # once.  At d = 2 the matrix is at most (n + 1)^2 and stays whole.
        inner = m // other[0]
        cut = other[0] // 2 if inner > 1 else 0
        pieces = [(c0, c1) for c0, c1 in ((0, cut), (cut, other[0])) if c0 < c1]
        pad = tuple(2 * n - 1 for n in other)
        # the kernels, the larger piece, the staged sources, their sums and one product
        self._check_memory(limbs, 8 * (rows * math.prod(pad) + m * (m - cut * inner)
                                       + 3 * rows * limbs * m))
        # kern[k - lo] holds w_(k,u) at u + other - 1, so the matrix of k, with
        # entry w_(k, q - r) in row r and column q, is a strided view of it
        kern = np.zeros((rows, *pad))
        kern[(at, *[vecs[:, i] + (self.shape[i] - 1) for i in range(self.dim) if i != a])] = weights
        step = kern.strides[1:]
        matrices = np.ndarray((rows, *other, *other), kern.dtype, kern,
                              offset=sum((n - 1) * t for n, t in zip(other, step)),
                              strides=kern.strides[:1] + tuple(-t for t in step) + step)
        whole = (slice(None),) * (len(other) - 1)
        perm = (a + 1, 0, *range(1, a + 1), *range(a + 2, self.dim + 1))
        view = self.data.transpose(perm)
        src = np.ascontiguousarray(view[:rows], dtype=np.float64).reshape(rows * limbs, m)
        acc = np.zeros((rows * limbs, m), dtype=np.uint64)
        for j, wk in enumerate(sums):
            if not wk:
                continue
            for c0, c1 in pieces:
                # a copy in C order for d >= 3; at d = 2 matmul copies the view
                toeplitz = matrices[(j, slice(c1), *whole, slice(c0, c1))].reshape(
                    c1 * inner, (c1 - c0) * inner)
                product = src[:(rows - j) * limbs, :c1 * inner] @ toeplitz
                block = acc[j * limbs:, c0 * inner:c1 * inner]
                np.add(block, product, out=block, dtype=np.uint64, casting="unsafe")
                del toeplitz, product  # the next ones are allocated before these names are rebound
        view = view[lo:]
        view += acc.reshape(view.shape)

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


def _build(table: CoeffTable, vecs: np.ndarray) -> CoeffTable:
    """Multiply the table by the factor (1 - x^v)^(-w_v) of every primitive row
    v of vecs: class_pass for the rows with 2v inside the box, in row order,
    then one group product per axis a for the rest, grouped by the first axis
    with 2 v_a > n_a."""
    weights = class_weights(vecs)
    over = 2 * vecs > np.array(table.bound)  # the axes along which 2v leaves the box
    # the group axis of each row, dim for the rows with 2v inside the box;
    # a stable sort keeps the row order within each group
    group = np.where(over.any(axis=1), over.argmax(axis=1), table.dim)
    order = group.argsort(kind="stable")
    ends = np.bincount(group, minlength=table.dim + 1).cumsum().tolist()
    vecs, weights = vecs[order], weights[order]
    # row by row: a list of every row would hold ~100 bytes per vector
    for v, w in zip(vecs[ends[-2]:], weights[ends[-2]:].tolist()):
        table.class_pass(v.tolist(), w)
    for a, (lo, hi) in enumerate(zip([0] + ends, ends[:-1])):
        if lo < hi:
            table._one_step(a, vecs[lo:hi], weights[lo:hi])
    return table


def build_table(dim: int, bound) -> CoeffTable:
    """DP table of Zon_d coefficients over {e <= bound}.

    Factor order is lexicographic in v.  Each vector is applied once for its
    w_v = 2^(d(v)-1) sign classes: w_v cumulative passes on one block plan
    when 2v fits in the box (CoeffTable.class_pass), else as part of its axis
    group's product (see _build).
    """
    bt = _validate_vector(bound, dim)
    table = CoeffTable(dim, bt)  # its memory guard runs before the box is enumerated
    vecs = primitive_array(dim, bt, sum(bt))
    return _build(table, vecs)


# dim -> the last table shared_table built in that dimension
_SHARED: dict[int, CoeffTable] = {}


def shared_table(dim: int, bound) -> CoeffTable:
    """A table of Zon_d coefficients over a box covering {e <= bound}, shared
    by every caller in the process: read it, never change it.

    The last table built here for dim answers when its bound covers `bound`
    on every axis and the memory budget admits its limbs and carry buffer,
    as a build of it charges them.  Otherwise it is dropped first, so two
    tables are never held at once, and build_table(dim, bound) takes its
    place.  The values read at e <= bound are those of build_table(dim, bound).
    """
    bt = _validate_vector(bound, dim)
    table = _SHARED.get(dim)
    if table is not None and all(c <= b for c, b in zip(bt, table.bound)):
        try:
            table._check_memory(len(table.data))
        except MemoryBudgetError:
            pass
        else:
            return table
    del table  # drop both references to the old table before the build
    _SHARED.pop(dim, None)
    _SHARED[dim] = build_table(dim, bt)
    return _SHARED[dim]


def zon_coefficient(dim: int, n) -> int:
    """Exact number of lattice zonotopes with bounding box exactly n (comp.-wise)."""
    bt = _validate_vector(n, dim)
    return shared_table(dim, bt).coefficient(bt)


def zon_cumulative(dim: int, n: int) -> int:
    """Exact number of lattice zonotopes whose bounding box fits inside [0,n]^d."""
    if n < 0:
        raise ValueError("n must be >= 0")
    box = (n,) * dim
    return shared_table(dim, box).total(box)


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
    vecs = primitive_array(dim, (n,) * dim, dim * n)
    terms = zip(class_weights(vecs).tolist(), z._read(tuple(n - vecs.T)))
    return MomentPair(count=z.coefficient(n), weighted=sum(w * t for w, t in terms))


def diameter_moment(dim: int, n: int) -> Fraction:
    """Exact mean diameter (= mean number of generators) at box n*1."""
    return diameter_numerators(dim, n).mean


def occurrence_numerators(dim: int, n: int, v0: Sequence[int]) -> MomentPair:
    """First and second moment numerators of the multiplicity of one sign class.

    The marked factor is geometric in u; its u-derivatives at u = 1 are
    q/(1-q) Zon and (q/(1-q) + 2 q^2/(1-q)^2) Zon with q = x^v0, whose
    coefficients at n are the chain sums sum_k Z[n - k v0] and
    sum_k (2k-1) Z[n - k v0] over k >= 1.
    """
    bt = _validate_vector(n, dim)
    v0t = tuple(int(c) for c in v0)
    if not is_primitive(v0t, dim):
        raise ValueError(f"v0 = {v0t} is not primitive")
    if any(c > b for c, b in zip(v0t, bt)):
        raise ValueError(f"v0 = {v0t} exceeds bound {bt}")
    z = shared_table(dim, bt)
    ks = np.arange(1, min(b // c for b, c in zip(bt, v0t) if c) + 1)
    chain = z._read(tuple(b - ks * c for b, c in zip(bt, v0t)))
    return MomentPair(
        count=z.coefficient(bt),
        weighted=sum(chain),
        weighted2=sum((2 * k - 1) * t for k, t in enumerate(chain, 1)),
    )


def occurrence_moments(dim: int, n: int, v0: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the multiplicity of sign class v0 at box n*1."""
    pair = occurrence_numerators(dim, n, v0)
    return pair.mean, pair.variance


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
    vecs = primitive_array(dim, bt, sum(bt))
    classes = [(tuple(v), j) for v, w in zip(vecs.tolist(), class_weights(vecs).tolist())
               for j in range(w)]
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
