"""Optimisation over admissible successive covers of a support.

The primal norm and the rho upper iterates of the dual norm optimise over
tuples E_1 < ... < E_k (k >= 2) of successive blocks that a level's
family admits; best_cover serves both.  A support is a sorted entry tuple,
its blocks are slices entries[a:b], and the caller values a slice through
part(a, b), usually its own memoised recursion.  Levels are (index,
family, theta) triples, tried in order.

approximant is the one level-n iteration over best_cover, maximising
from the sup norm (fj_norm_level) or minimising from the l1 norm (rho).

Where admissibility depends only on the block count and the first index
(families.max_blocks is not None), a dynamic program over (block count,
start position) serves the level in time polynomial in the support size.
The enumerator of admissible partitions serves ExplicitFinite levels,
interval values (an interval caller's precision-doubling schedule follows
its sequence of certified comparisons) and cover_branches.  Both routes
keep the first optimum in enumeration order (level, start, block count,
then cut positions lexicographically), so their witnesses agree.

core.enumerate_partitions and the families functions are called through
their modules, so a wrapper bound over the module attribute sees every call.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from . import core, families
from .core import IndeterminateComparisonError, IntervalScalar


def _improves(cand, incumbent) -> bool:
    """Certified strict cand > incumbent; identical enclosures tie (False)."""
    if isinstance(cand, Fraction) and isinstance(incumbent, Fraction):
        return cand > incumbent
    c = IntervalScalar.coerce(cand)
    b = IntervalScalar.coerce(incumbent)
    r = b.certified_lt(c)
    if r is not None:
        return r
    if c.lo == b.lo and c.hi == b.hi:
        return False
    raise IndeterminateComparisonError(
        f"cannot order branch values {b} and {c}")


def best_cover(entries: tuple, levels, part, incumbent, maximise: bool):
    """The best admissible cover by k >= 2 blocks that strictly beats
    incumbent, or None when none does.

    maximise: the largest theta * sum(part over blocks) over covers of
    every support suffix; otherwise the smallest max(part over blocks) /
    theta over covers of the whole support.  Returns (value, level,
    bounds) with bounds = (start, c_1, ..., len(entries)) the slice
    boundaries of the winning blocks.  An IntervalScalar incumbent means
    interval values: every level is then enumerated, with certified
    comparisons (_improves).
    """
    m = len(entries)
    if m < 2:
        return None
    cache: dict = {}

    def val(a: int, b: int):
        v = cache.get((a, b))
        if v is None:
            v = cache[(a, b)] = part(a, b)
        return v

    def better(cand, incumbent) -> bool:
        return _improves(cand, incumbent) if maximise else cand < incumbent

    starts = range(m) if maximise else range(1)
    exhaustive = isinstance(incumbent, IntervalScalar)
    caps = [None if exhaustive else _start_caps(family, entries, starts)
            for _, family, _ in levels]
    kcap = max((c for cs in caps if cs is not None for c in cs), default=0)
    if kcap >= 2:
        table, cut = _cover_table(m, kcap, len(starts), val, maximise)
    best = (incumbent, None, None)
    for level, cs in zip(levels, caps):
        theta = level[2]
        if cs is None:
            for s in starts:
                for _, _, bounds in _admissible_covers(entries, (level,), s):
                    values = [val(a, b) for a, b in zip(bounds, bounds[1:])]
                    cand = (theta * sum(values[1:], values[0]) if maximise
                            else max(values) / theta)
                    if better(cand, best[0]):
                        best = (cand, level, bounds)
            continue
        for s in starts:
            for k in range(2, cs[s] + 1):
                cand = theta * table[k][s] if maximise else table[k][s] / theta
                if better(cand, best[0]):
                    bounds = [s]
                    for j in range(k, 1, -1):
                        bounds.append(cut[j][bounds[-1]])
                    best = (cand, level, tuple(bounds) + (m,))
    return None if best[1] is None else best


def approximant(levels, entries: tuple, n: int, memo: dict, maximise: bool) -> Fraction:
    """Level n at entries: level 0 is the largest entry (maximise) or the
    entry sum, level n the better of level n - 1 and best_cover over
    level-(n - 1) block values, memoised under (entries, n)."""
    if not entries or n == 0:
        values = [c for _, c in entries]
        return max(values, default=Fraction(0)) if maximise else sum(values, Fraction(0))
    value = memo.get((entries, n))
    if value is None:
        value = approximant(levels, entries, n - 1, memo, maximise)
        best = best_cover(entries, levels,
                          lambda a, b: approximant(levels, entries[a:b], n - 1, memo, maximise),
                          value, maximise)
        if best is not None:
            value = best[0]
        memo[(entries, n)] = value
    return value


def _start_caps(family, entries: tuple, starts):
    """Per start s, the most blocks an admissible cover of entries[s:] can
    have; None when the family has no such bound."""
    caps = [families.max_blocks(family, entries[s][0]) for s in starts]
    if caps[0] is None:
        return None
    return [min(len(entries) - s, c) for s, c in zip(starts, caps)]


def _cover_table(m: int, kcap: int, top: int, val, maximise: bool):
    """best[j][a]: the optimum over covers of entries[a:] by exactly j
    slices, combining slice values by sum (maximise) or by max (minimise);
    cut[j][a]: the first cut of the first optimiser, the smallest on ties.
    Row kcap is only filled for starts a < top.  Row 1 starts at 1, so
    the whole support is never valued as one of its own slices."""
    best = [None] * (kcap + 1)
    cut = [None] * (kcap + 1)
    best[1] = [None] + [val(a, m) for a in range(1, m)]
    for j in range(2, kcap + 1):
        sub = best[j - 1]
        row = [None] * m
        cuts = [None] * m
        stop = m - j + 1 if j < kcap else min(top, m - j + 1)
        for a in range(stop):
            b = bc = None
            for c in range(a + 1, m - j + 2):
                v = val(a, c)
                w = sub[c]
                if maximise:
                    v = v + w
                    if b is None or v > b:
                        b, bc = v, c
                else:
                    if w > v:
                        v = w
                    if b is None or v < b:
                        b, bc = v, c
            row[a] = b
            cuts[a] = bc
        best[j] = row
        cut[j] = cuts
    return best, cut


def cover_branches(entries: tuple, levels, part):
    """Yield (level index, blocks, max(part over blocks) / theta) for every
    admissible cover of the whole support by k >= 2 blocks, ordered by
    block count, then cut positions, then level."""
    for (index, _, theta), blocks, bounds in _admissible_covers(entries, levels, 0):
        yield index, blocks, max(part(a, b) for a, b in zip(bounds, bounds[1:])) / theta


def _admissible_covers(entries: tuple, levels, start: int):
    """(level, blocks, slice bounds) for every admissible cover of
    entries[start:] by k >= 2 blocks, in the order of cover_branches."""
    tail = tuple(i for i, _ in entries[start:])
    for k in range(2, len(tail) + 1):
        for P in core.enumerate_partitions(tail, k):
            bounds = tuple(itertools.accumulate((len(b) for b in P.blocks), initial=start))
            for level in levels:
                if families.is_admissible(level[1], P):
                    yield level, P.blocks, bounds
