"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded by dynamic programming on a dense table of multi-precision
integers: every sign class of v contributes one geometric factor, realized as
a cumulative-sum pass T[e] += T[e-v] in ascending index order.  A pass runs
as numpy slab adds over blocks of hyperplanes, so its Python-level cost is
one call per block, not one per cell.  The table at bound n then holds
[x^m] Zon_d for every m <= n simultaneously.

The table is one uint64 array of shape (k, *(n + 1)): cell e holds
sum_i data[i][e] << 32 i, with 32-bit limb payloads and lazy carries.  A
ceiling bounds every entry.  A pass whose chain length is s (at most s + 1
entries summed into one) first normalizes if (s + 1) * ceiling would reach
2^64 (carry = data >> 32, data &= 2^32 - 1, data[1:] += carry[:-1], with a
new limb when the top one carries), which leaves every entry below 2^33, then
multiplies the ceiling by s + 1.  The sum identity holds whether or not the
limbs are normalized, so one np.add per slab covers all k limbs and no
per-block carry is needed.

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
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .primitives import count_classes_moebius, is_primitive, primitive_array, sign_classes

CHECKPOINT_FORMAT = 1

_DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3
_MEMORY_ENV = "ZONOCOUNT_MEMORY_BUDGET"

# Payload bits of one limb.  A uint64 entry may hold up to 2 * _LIMB_BITS bits
# before its carry is pushed into the limb above.
_LIMB_BITS = 32

_BRUTE_NODE_BUDGET = 10 ** 7


class MemoryBudgetError(RuntimeError):
    """Requested table would exceed the configured memory budget."""


class EnumerationBudgetError(RuntimeError):
    """Brute-force enumeration exceeded its node budget (oracle is for small boxes)."""


def _memory_budget() -> int:
    raw = os.environ.get(_MEMORY_ENV)
    if raw is None:
        return _DEFAULT_MEMORY_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{_MEMORY_ENV} must be an integer byte count, got {raw!r}") from exc


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

    __slots__ = ("dim", "bound", "shape", "data", "ceiling", "_plan")

    def __init__(self, dim: int, bound, delta_at_origin: bool = True):
        self.bound = _as_bound(dim, bound)
        self.dim = dim
        self.shape = tuple(b + 1 for b in self.bound)
        # a pass multiplies the ceiling by at most max(shape); one normalization
        # must leave room for that below 2^(2 * _LIMB_BITS)
        if max(self.shape) > 1 << (_LIMB_BITS - 1):
            raise ValueError(f"bound entries must be below 2^{_LIMB_BITS - 1}, got {self.bound}")
        self._check_memory(1)
        self.data = np.zeros((1, *self.shape), dtype=np.uint64)
        self.ceiling = 0
        if delta_at_origin:
            self.data[(0,) * (dim + 1)] = 1
            self.ceiling = 1
        self._plan = None

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

    def _pass_plan(self, v: Sequence[int]) -> tuple[int, list]:
        """Chain length s = min_i floor(b_i / v_i) and the slab blocks of a pass of v.

        Along the axis a of largest v_a, blocks of v_a consecutive hyperplanes
        are added one slab (all limbs) at a time in ascending order; a block
        reads only hyperplanes below it, which are already final.  The plan of
        the last vector is kept, so the passes of its sign classes share it.
        """
        key = tuple(v)
        if self._plan is None or self._plan[0] != key:
            vt = tuple(int(c) for c in key)
            if len(vt) != self.dim or any(c < 0 for c in vt) or not any(vt):
                raise ValueError(f"invalid pass vector {vt} for dim {self.dim}")
            s = min(b // c for b, c in zip(self.bound, vt) if c)
            a = vt.index(max(vt))
            step, top = vt[a], self.shape[a] if s else 0  # s = 0: no cell has e >= v
            dst = [slice(None)] + [slice(c, None) for c in vt]
            src = [slice(None)] + [slice(0, n - c) for c, n in zip(vt, self.shape)]
            blocks = []
            for lo in range(step, top, step):
                hi = min(lo + step, top)
                dst[a + 1], src[a + 1] = slice(lo, hi), slice(lo - step, hi - step)
                blocks.append((tuple(dst), tuple(src)))
            self._plan = (key, s, blocks)
        return self._plan[1], self._plan[2]

    @staticmethod
    def _accumulate(out: np.ndarray, src: np.ndarray, blocks: list) -> None:
        """out[e] += src[e - v] over the blocks of a plan, equal to the ascending
        sequential recurrence even when src is out."""
        for dst_idx, src_idx in blocks:
            block = out[dst_idx]
            np.add(block, src[src_idx], out=block)

    def class_pass(self, v: Sequence[int]) -> None:
        """In place, multiply by the geometric factor of one sign class of v:
        T[e] += T[e - v] in ascending order."""
        s, blocks = self._pass_plan(v)
        if blocks:
            # an entry becomes a sum of at most s + 1 entries
            if (s + 1) * self.ceiling >= 1 << (2 * _LIMB_BITS):
                self._normalize()
            self.ceiling *= s + 1
            self._accumulate(self.data, self.data, blocks)

    def shifted_add(self, src: "CoeffTable", v: Sequence[int]) -> None:
        """self[e] += src[e - v] (multiplication of src by x^v, accumulated)."""
        if src.bound != self.bound:
            raise ValueError("table bounds differ")
        if src is self:
            return self.class_pass(v)
        _, blocks = self._pass_plan(v)
        if not blocks:
            return
        if self.ceiling + src.ceiling >= 1 << (2 * _LIMB_BITS):
            self._normalize()
            src._normalize()
        while len(self.data) < len(src.data):
            self._add_limb()
        self.ceiling += src.ceiling
        self._accumulate(self.data[:len(src.data)], src.data, blocks)

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


def _build(table: CoeffTable, coords: np.ndarray) -> CoeffTable:
    """One class pass per row of coords, in row order."""
    for v in coords:  # row by row: a list of every row would hold ~100 bytes per class
        table.class_pass(v.tolist())
    return table


def build_table(dim: int, bound, reverse: bool = False) -> CoeffTable:
    """DP table of Zon_d coefficients over {e <= bound}.

    Factor order is lexicographic in v (reverse only exercises commutativity
    in tests); each vector receives one pass per sign class.
    """
    bt = _as_bound(dim, bound)
    table = CoeffTable(dim, bt)  # its memory guard runs before the box is enumerated
    vecs = primitive_array(dim, bt, sum(bt))
    return _build(table, sign_classes(vecs[::-1] if reverse else vecs)[0])


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
    coords, _ = sign_classes(primitive_array(dim, table.bound, dim * n))
    z = _build(table, coords)
    return MomentPair(count=z.coefficient(n), weighted=sum(z._read(tuple(n - coords.T))))


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
    state = {"count": 0, "dirsum": 0, "nodes": 0}
    used: list[tuple[tuple[tuple[int, ...], int], int]] = []

    def rec(i: int, rem: tuple[int, ...]) -> None:
        state["nodes"] += 1
        if state["nodes"] > _BRUTE_NODE_BUDGET:
            raise EnumerationBudgetError(
                f"exceeded {_BRUTE_NODE_BUDGET} nodes at box {bt}; oracle is for small boxes")
        if not any(rem):
            state["count"] += 1
            state["dirsum"] += len(used)
            for cls, k in used:
                tally = occurrence[cls]
                tally[0] += k
                tally[1] += k * k
            return
        if i == ncls:
            return
        coords = classes[i][0]
        kmax = min((r // c for r, c in zip(rem, coords) if c), default=0)
        rec(i + 1, rem)
        cur = rem
        for k in range(1, kmax + 1):
            cur = tuple(r - c for r, c in zip(cur, coords))
            used.append((classes[i], k))
            rec(i + 1, cur)
            used.pop()

    rec(0, bt)
    return BruteForceResult(
        count=state["count"],
        direction_count_sum=state["dirsum"],
        occurrence={cls: tuple(t) for cls, t in occurrence.items()},
        nodes=state["nodes"],
    )
