"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded by dynamic programming on a dense table of multi-precision
integers, one pass per primitive vector v for the factor of all w_v =
2^(d(v)-1) of its sign classes.  Let s = min_i floor(n_i / v_i) be the
chain length of v in the box.  When s = 1 (2v leaves the box: three in four
vectors at d=2 n=96, nine in ten at d=4 n=6) the factor truncates to
1 + w_v x^v, and the pass is one slab add T[e] += T[e-v] << log2(w_v) over
every cell e >= v.  When s >= 2 it runs w_v cumulative-sum passes
T[e] += T[e-v] in ascending index order, as numpy slab adds over blocks of
hyperplanes, so its Python-level cost is one call per block, not one per
cell.  The table at bound n then holds [x^m] Zon_d for every m <= n
simultaneously.

The table is one uint64 array of shape (k, *(n + 1)): cell e holds
sum_i data[i][e] << 32 i, with 32-bit limb payloads and lazy carries.  A
ceiling bounds every entry.  A cumulative pass of chain length s (at most
s + 1 entries summed into one) grows entries by the factor s + 1, a one-step
pass by 1 + w_v.  Before either the table normalizes if factor * ceiling
would reach 2^64 (carry = data >> 32, data &= 2^32 - 1, data[1:] +=
carry[:-1], with a new limb when the top one carries), which leaves every
entry below 2^33, then multiplies the ceiling by the factor.  The sum
identity holds whether or not the limbs are normalized, and multiplying
every limb by w_v multiplies the value by w_v, so one np.add per slab covers
all k limbs and no per-block carry is needed.

Exact first moments are chain sums over that one table.  Marking generator
presence with u (factor 1 + u x^v/(1-x^v)) and differentiating at u = 1
multiplies Zon by the sum of x^v over sign classes, so the direction-count
numerator is sum_v w_v Z[n - v].  Marking one class's multiplicity with u^k
(factor 1/(1-u x^v0)) gives the occurrence numerators sum_k Z[n - k v0] and
sum_k (2k-1) Z[n - k v0].  An independent depth-first multiset enumeration
serves as the oracle for all of these on small boxes.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .primitives import (
    _MEMORY_ENV,
    MemoryBudgetError,
    _memory_budget,
    class_weights,
    count_classes_moebius,
    is_primitive,
    primitive_array,
    sign_classes,
)

CHECKPOINT_FORMAT = 1

# Payload bits of one limb.  A uint64 entry may hold up to 2 * _LIMB_BITS bits
# before its carry is pushed into the limb above.
_LIMB_BITS = 32

_BRUTE_NODE_BUDGET = 10 ** 7


class EnumerationBudgetError(RuntimeError):
    """Brute-force enumeration exceeded its node budget (oracle is for small boxes)."""


def _as_bound(dim: int, n) -> tuple[int, ...]:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if isinstance(n, int):
        bound = (n,) * dim
    else:
        bound = tuple(int(c) for c in n)
    if len(bound) != dim:
        raise ValueError(f"expected {dim} bound entries, got {len(bound)}")
    if any(b < 0 for b in bound):
        raise ValueError(f"bound entries must be >= 0, got {bound}")
    return bound


class CoeffTable:
    """Dense table of nonnegative coefficients of a d-variate series, indexed by e <= bound.

    ``data`` holds the coefficients as uint64 limbs with lazy carries, shape
    (k, *(bound + 1)) (see the module docstring); ``ceiling`` bounds every
    entry.  Values become Python ints only where they are read
    (``coefficient``, ``total``, ``cells``, the checkpoint).
    """

    __slots__ = ("dim", "bound", "shape", "data", "ceiling")

    def __init__(self, dim: int, bound, delta_at_origin: bool = True):
        self.bound = _as_bound(dim, bound)
        self.dim = dim
        self.shape = tuple(b + 1 for b in self.bound)
        # one step of a pass multiplies the ceiling by s + 1 <= max(shape), a
        # one-step pass by 1 + 2^(d-1); one normalization must leave room for
        # either below 2^(2 * _LIMB_BITS)
        growth = max(*self.shape, 1 + (1 << (dim - 1)))
        if growth > 1 << (_LIMB_BITS - 1):
            raise ValueError(f"a pass over bound {self.bound} in dim {dim} may grow entries "
                             f"{growth}-fold, above the limit 2^{_LIMB_BITS - 1}")
        self._check_memory(1)
        self.data = np.zeros((1, *self.shape), dtype=np.uint64)
        self.ceiling = 0
        if delta_at_origin:
            self.data[(0,) * (dim + 1)] = 1
            self.ceiling = 1

    def _check_memory(self, limbs: int) -> None:
        """Budget for `limbs` limbs plus the normalization temporary of the same size."""
        size = math.prod(self.shape)
        need = 2 * 8 * limbs * size
        budget = _memory_budget()
        if need > budget:
            raise MemoryBudgetError(
                f"table of {size} cells in {limbs} limbs (~{need / 1e9:.2f} GB with its "
                f"carry buffer) exceeds budget {budget / 1e9:.2f} GB; raise {_MEMORY_ENV} "
                f"to override")

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
        if isinstance(e, int):
            e = (e,) * self.dim
        if len(e) != self.dim:
            raise ValueError(f"index has {len(e)} entries, expected {self.dim}")
        if not all(0 <= c <= b for c, b in zip(e, self.bound)):
            raise ValueError(f"index {tuple(e)} outside bound {self.bound}")
        return tuple(int(c) for c in e)

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

    def _shift(self, v: Sequence[int]) -> tuple[tuple[int, ...], int, list, list]:
        """v as ints, its chain length s = min_i floor(b_i / v_i), and the index
        lists (limb axis first) of the cells e >= v and of their sources e - v."""
        vt = tuple(int(c) for c in v)
        if len(vt) != self.dim or any(c < 0 for c in vt) or not any(vt):
            raise ValueError(f"invalid pass vector {vt} for dim {self.dim}")
        dst = [slice(None)] + [slice(c, None) for c in vt]
        src = [slice(None)] + [slice(0, n - c) for c, n in zip(vt, self.shape)]
        return vt, min(b // c for b, c in zip(self.bound, vt) if c), dst, src

    def _grow(self, factor: int) -> None:
        """Let every entry grow to `factor` times the ceiling, normalizing first
        if that could reach 2^(2 * _LIMB_BITS)."""
        if factor * self.ceiling >= 1 << (2 * _LIMB_BITS):
            self._normalize()
        self.ceiling *= factor

    def class_pass(self, v: Sequence[int], w: int) -> None:
        """In place, multiply by (1 - x^v)^(-w), the factor of the w = 2^(d(v)-1)
        sign classes of v.

        With chain length s = 1 (2v outside the box) the factor truncates to
        1 + w x^v and no target cell is also a source, so the pass is one slab
        add over all limbs of the sources shifted left by log2(w).  Otherwise it
        runs w times T[e] += T[e - v] in ascending order: along the axis a of
        largest v_a, blocks of v_a consecutive hyperplanes are added one slab at
        a time, and a block reads only hyperplanes below it, which are final.
        """
        w = operator.index(w)
        if w < 1 or w & (w - 1) or w > 1 << (self.dim - 1):
            raise ValueError(f"class weight {w} is not a power of two up to 2^{self.dim - 1}")
        vt, s, dst, src = self._shift(v)
        if s == 1:
            self._grow(1 + w)
            view = self.data[tuple(dst)]
            np.add(view, self.data[tuple(src)] << (w.bit_length() - 1), out=view)
        elif s:
            a = vt.index(max(vt))
            step, top = vt[a], self.shape[a]
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

    def shifted_add(self, src: "CoeffTable", v: Sequence[int]) -> None:
        """self[e] += src[e - v] (multiplication of src by x^v, accumulated)."""
        if src.bound != self.bound:
            raise ValueError("table bounds differ")
        if src is self:
            return self.class_pass(v, 1)
        _, s, dst_idx, src_idx = self._shift(v)
        if not s:
            return
        if self.ceiling + src.ceiling >= 1 << (2 * _LIMB_BITS):
            self._normalize()
            src._normalize()
        while len(self.data) < len(src.data):
            self._add_limb()
        self.ceiling += src.ceiling
        dst_idx[0] = slice(len(src.data))
        view = self.data[tuple(dst_idx)]
        np.add(view, src.data[tuple(src_idx)], out=view)  # src is another table: one slab

    def dump_json(self, path) -> None:
        """Versioned checkpoint: {format, dim, bound, cells as decimal strings}."""
        doc = {
            "format": CHECKPOINT_FORMAT,
            "dim": self.dim,
            "bound": list(self.bound),
            "cells": [str(c) for c in self.cells],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load_json(cls, path) -> "CoeffTable":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
        out = cls(doc["dim"], doc["bound"], delta_at_origin=False)
        cells = [int(c) for c in doc["cells"]]
        if len(cells) != math.prod(out.shape):
            raise ValueError("checkpoint cell count does not match bound")
        if min(cells) < 0:
            raise ValueError("checkpoint cells must be >= 0")
        limbs = max(1, -(-max(cells).bit_length() // _LIMB_BITS))
        out._check_memory(limbs)
        mask = (1 << _LIMB_BITS) - 1
        out.data = np.array([[(c >> (_LIMB_BITS * i)) & mask for c in cells]
                             for i in range(limbs)], dtype=np.uint64).reshape(limbs, *out.shape)
        out.ceiling = int(out.data.max())
        return out


def _build(table: CoeffTable, vecs: np.ndarray) -> CoeffTable:
    """One pass per primitive row v of vecs, in row order, applying the factor
    (1 - x^v)^(-w_v) of all its sign classes at once."""
    # row by row: a list of every row would hold ~100 bytes per vector
    for v, w in zip(vecs, class_weights(vecs).tolist()):
        table.class_pass(v.tolist(), w)
    return table


def build_table(dim: int, bound, reverse: bool = False) -> CoeffTable:
    """DP table of Zon_d coefficients over {e <= bound}.

    Factor order is lexicographic in v (reverse only exercises commutativity
    in tests).  Each vector receives one pass for its w_v = 2^(d(v)-1) sign
    classes: a single shifted slab add when 2v leaves the box, else w_v
    cumulative passes on one block plan (CoeffTable.class_pass).
    """
    bt = _as_bound(dim, bound)
    table = CoeffTable(dim, bt)  # its memory guard runs before the box is enumerated
    vecs = primitive_array(dim, bt, sum(bt))
    return _build(table, vecs[::-1] if reverse else vecs)


def zon_coefficient(dim: int, n) -> int:
    """Exact number of lattice zonotopes with bounding box exactly n (comp.-wise)."""
    bt = _as_bound(dim, n)
    return build_table(dim, bt).coefficient(bt)


def zon_cumulative(dim: int, n: int) -> int:
    """Exact number of lattice zonotopes whose bounding box fits inside [0,n]^d."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return build_table(dim, (n,) * dim).total()


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
    table = CoeffTable(dim, (n,) * dim)  # memory guard first, as in build_table
    vecs = primitive_array(dim, table.bound, dim * n)
    z = _build(table, vecs)
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
    bt = _as_bound(dim, n)
    v0t = tuple(int(c) for c in v0)
    if not is_primitive(v0t, dim):
        raise ValueError(f"v0 = {v0t} is not primitive")
    if any(c > b for c, b in zip(v0t, bt)):
        raise ValueError(f"v0 = {v0t} exceeds bound {bt}")
    z = build_table(dim, bt)
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
    bt = _as_bound(dim, n)
    # The search visits at least one node per cell e <= bound (the paths through
    # the unit vectors) and one per class (the path that skips them all), so a
    # box with more of either cannot finish: refuse it before enumerating.  The
    # cells go first, which also keeps the Moebius sieve below the budget.
    if (math.prod(b + 1 for b in bt) > _BRUTE_NODE_BUDGET
            or count_classes_moebius(dim, bt) > _BRUTE_NODE_BUDGET):
        raise EnumerationBudgetError(
            f"box {bt} needs more than {_BRUTE_NODE_BUDGET} nodes; oracle is for small boxes")
    coords, sign = sign_classes(primitive_array(dim, bt, sum(bt)))
    classes = list(zip(map(tuple, coords.tolist()), sign.tolist()))
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
