"""Exact coefficient extraction for the zonotope generating function.

The generating function over primitive nonnegative directions v,

    Zon_d(x) = prod_v (1 - x^v)^(-2^(d(v)-1)),

is expanded by dynamic programming on a dense table of arbitrary-precision
integers: every sign class of v contributes one geometric factor, realized as
a cumulative-sum pass T[e] += T[e-v] in ascending index order.  A pass runs
as numpy slab adds over blocks of hyperplanes, so its Python-level cost is
one call per block, not one per cell.  The table at bound n then holds
[x^m] Zon_d for every m <= n simultaneously.

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

from .primitives import enumerate_primitive, is_primitive

CHECKPOINT_FORMAT = 1

_DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3
_BYTES_PER_CELL = 48  # small-int CPython object + list slot, rough
_MEMORY_ENV = "ZONOCOUNT_MEMORY_BUDGET"

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
    """Dense table of coefficients of a d-variate series, indexed by e <= bound.

    The coefficients are Python ints held in a numpy object array ``data`` of
    shape bound + 1; ``cells`` is the same table as a flat row-major list.
    """

    __slots__ = ("dim", "bound", "shape", "data")

    def __init__(self, dim: int, bound, delta_at_origin: bool = True):
        self.bound = _as_bound(dim, bound)
        self.dim = dim
        self.shape = tuple(b + 1 for b in self.bound)
        size = math.prod(self.shape)
        budget = _memory_budget()
        if size * _BYTES_PER_CELL > budget:
            raise MemoryBudgetError(
                f"table of {size} cells (~{size * _BYTES_PER_CELL / 1e9:.2f} GB) exceeds "
                f"budget {budget / 1e9:.2f} GB; raise {_MEMORY_ENV} to override")
        self.data = np.zeros(self.shape, dtype=object)
        if delta_at_origin:
            self.data[(0,) * dim] = 1

    @property
    def cells(self) -> list[int]:
        return self.data.ravel().tolist()

    def coefficient(self, e) -> int:
        if isinstance(e, int):
            e = (e,) * self.dim
        if len(e) != self.dim:
            raise ValueError(f"index has {len(e)} entries, expected {self.dim}")
        if not all(0 <= c <= b for c, b in zip(e, self.bound)):
            raise ValueError(f"index {tuple(e)} outside bound {self.bound}")
        return self.data[tuple(e)]

    def total(self) -> int:
        return self.data.sum()

    def copy(self) -> "CoeffTable":
        out = CoeffTable.__new__(CoeffTable)
        out.dim, out.bound, out.shape = self.dim, self.bound, self.shape
        out.data = self.data.copy()
        return out

    def _accumulate(self, src: np.ndarray, v: Sequence[int]) -> None:
        """self[e] += src[e - v] for every e >= v, equal to the ascending
        sequential recurrence even when src is self.data.

        Along the axis a of largest v_a, blocks of v_a consecutive hyperplanes
        are added one slab at a time in ascending order; a block reads only
        hyperplanes below it, which are already final.
        """
        vt = tuple(int(c) for c in v)
        if len(vt) != self.dim or any(c < 0 for c in vt) or not any(vt):
            raise ValueError(f"invalid pass vector {vt} for dim {self.dim}")
        if any(c > b for c, b in zip(vt, self.bound)):
            return  # no cell has e >= v
        a = vt.index(max(vt))
        step, top = vt[a], self.shape[a]
        dst_idx = [slice(c, None) for c in vt]
        src_idx = [slice(0, s - c) for c, s in zip(vt, self.shape)]
        for lo in range(step, top, step):
            hi = min(lo + step, top)
            dst_idx[a], src_idx[a] = slice(lo, hi), slice(lo - step, hi - step)
            block = self.data[tuple(dst_idx)]
            np.add(block, src[tuple(src_idx)], out=block)

    def class_pass(self, v: Sequence[int]) -> None:
        """In place, multiply by the geometric factor of one sign class of v:
        T[e] += T[e - v] in ascending order."""
        self._accumulate(self.data, v)

    def shifted_add(self, src: "CoeffTable", v: Sequence[int]) -> None:
        """self[e] += src[e - v] (multiplication of src by x^v, accumulated)."""
        if src.bound != self.bound:
            raise ValueError("table bounds differ")
        self._accumulate(src.data, v)

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
        if len(cells) != out.data.size:
            raise ValueError("checkpoint cell count does not match bound")
        out.data = np.array(cells, dtype=object).reshape(out.shape)
        return out


def build_table(dim: int, bound, reverse: bool = False) -> CoeffTable:
    """DP table of Zon_d coefficients over {e <= bound}.

    Factor order is lexicographic in v (reverse only exercises commutativity
    in tests); each vector receives weight-many passes, one per sign class.
    """
    bt = _as_bound(dim, bound)
    table = CoeffTable(dim, bt)
    vecs = enumerate_primitive(dim, bt)
    if reverse:
        vecs = reversed(list(vecs))
    for pv in vecs:
        for _ in range(pv.weight):
            table.class_pass(pv.coords)
    return table


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

    The direction-count numerator is sum over primitive v <= n of w_v Z[n - v].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bt = (n,) * dim
    z = build_table(dim, bt)
    weighted = sum(pv.weight * z.data[tuple(n - c for c in pv.coords)]
                   for pv in enumerate_primitive(dim, bt))
    return MomentPair(count=z.coefficient(bt), weighted=weighted)


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
    kmax = min(b // c for b, c in zip(bt, v0t) if c)
    chain = [z.data[tuple(b - k * c for b, c in zip(bt, v0t))] for k in range(1, kmax + 1)]
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
    classes: list[tuple[tuple[int, ...], int]] = []
    for pv in enumerate_primitive(dim, bt):
        for j in range(pv.weight):
            classes.append((pv.coords, j))
    ncls = len(classes)
    # coordinate support of the class suffix, for dead-end pruning
    suffix_support = [0] * (ncls + 1)
    for i in range(ncls - 1, -1, -1):
        mask = suffix_support[i + 1]
        for axis, c in enumerate(classes[i][0]):
            if c:
                mask |= 1 << axis
        suffix_support[i] = mask

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
        mask = 0
        for axis, r in enumerate(rem):
            if r:
                mask |= 1 << axis
        if mask & ~suffix_support[i]:
            return  # some leftover coordinate can never be consumed
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
