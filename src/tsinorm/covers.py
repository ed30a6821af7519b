"""Optimisation over admissible successive covers of a support.

The primal norm and the rho upper iterates of the dual norm optimise over
tuples E_1 < ... < E_k (k >= 2) of successive blocks that a level's
family admits.  A support is a sorted entry tuple, its blocks are slices
entries[a:b], and levels are (index, family, theta) triples, tried in
order.

best_windows values every window of one support bottom-up, for the primal
norm: right ends in increasing order, starts in decreasing order, so each
window reads only windows already valued, from a list, with no memo.
best_cover optimises one support whose slices the caller values through
part(a, b); approximant is the one level-n iteration over it, maximising
from the sup norm (fj_norm_level) or minimising from the l1 norm (rho).

Where admissibility depends only on the block count and the first index
(families.max_blocks is not None), a suffix-cover table serves the level:
_fill computes, for one start s, the best cover of entries[s:end] by
exactly j slices for every j it needs, from the columns of later starts.
The table depends on the right end only, so best_windows shares one
across every window ending there, and best_cover builds one per call.
The enumerator of admissible partitions serves ExplicitFinite levels,
interval values (an interval caller's precision-doubling schedule follows
its sequence of certified comparisons) and cover_branches.  Both routes
keep the first optimum in enumeration order (level, start, block count,
then cut positions lexicographically), so their witnesses agree; _choose
walks that order for both callers.

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
    if not isinstance(cand, IntervalScalar) and not isinstance(incumbent, IntervalScalar):
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

    starts = range(m) if maximise else range(1)
    exhaustive = isinstance(incumbent, IntervalScalar)
    caps = [None if exhaustive else _start_caps(family, entries, starts)
            for _, family, _ in levels]
    cols = [[None, None] for _ in range(m)]
    cuts = [[None, None] for _ in range(m)]
    rows = _rows(caps, m)
    if max(rows) >= 2:
        for s in range(m - 1, -1, -1):
            _fill(cols, cuts, s, m, rows[s], val, maximise)
            if s:
                cols[s][1] = val(s, m)
    best = _choose(entries, starts, levels, caps, cols, cuts, val, incumbent, maximise)
    return None if best[1] is None else best


def best_windows(entries: tuple, levels, point, settle):
    """Value and witness of every window entries[a:b] of a nonempty
    support under a maximising recursion: the window's sup value, or the
    best theta * sum over an admissible cover of one of its suffixes by
    k >= 2 windows.

    Right ends b are visited in increasing order and starts a in
    decreasing order.  The suffix-cover table of entries[:b] depends on
    the right end only, so every window ending at b reads the same table;
    a window's value becomes the table's row 1 at its start before the
    next start is filled.  Levels are (index, family, weight) triples,
    compared as weight * (sum of window values); point(v) is a leaf value
    v on that scale and settle(c) turns a winning candidate back into a
    window value.  Interval values (point returns an IntervalScalar) run
    every level on the enumerator.

    Returns (value, choice): value[a][b] is the window's value, or the
    IndeterminateComparisonError that left it undecided, raised again
    only where another window reads it; choice[a][b] is the position of
    the leaf or the (level, bounds) of the winning cover.
    """
    m = len(entries)
    value = [[None] * (m + 1) for _ in range(m)]
    choice = [[None] * (m + 1) for _ in range(m)]

    def val(a: int, b: int):
        v = value[a][b]
        if isinstance(v, IndeterminateComparisonError):
            raise v.with_traceback(None)
        return v

    exhaustive = isinstance(point(entries[0][1]), IntervalScalar)
    caps = [None if exhaustive else _start_caps(family, entries, range(m))
            for _, family, _ in levels]
    rows = _rows(caps, m)
    for b in range(1, m + 1):
        head = entries[:b]
        cols = [[None, None] for _ in range(b)]
        cuts = [[None, None] for _ in range(b)]
        top, pos = entries[b - 1][1], b - 1  # a one-point window is its leaf
        value[pos][b] = cols[pos][1] = settle(point(top))
        choice[pos][b] = pos
        for a in range(b - 2, -1, -1):
            _fill(cols, cuts, a, b, min(b - a, rows[a]), val, True)
            if entries[a][1] >= top:
                top, pos = entries[a][1], a
            try:
                cand, level, bounds = _choose(head, range(a, b), levels, caps, cols, cuts,
                                              val, point(top), True)
                value[a][b] = cols[a][1] = settle(cand)
                choice[a][b] = pos if level is None else (level, bounds)
            except IndeterminateComparisonError as exc:
                value[a][b] = exc
    return value, choice


def _choose(entries: tuple, starts, levels, caps, cols, cuts, val, incumbent,
            maximise: bool):
    """The first optimum strictly better than incumbent over covers of
    entries[s:] for s in starts, in the order level, start, block count,
    cut positions: (value, level, bounds), or (incumbent, None, None).
    Levels with caps read the suffix table (cols, cuts); the others are
    enumerated."""
    end = len(entries)
    best = (incumbent, None, None)
    for level, cs in zip(levels, caps):
        weight = level[2]
        if cs is None:
            for s in starts:
                for _, _, bounds in _admissible_covers(entries, (level,), s):
                    values = [val(a, b) for a, b in zip(bounds, bounds[1:])]
                    cand = (weight * sum(values[1:], values[0]) if maximise
                            else max(values) / weight)
                    if _improves(cand, best[0]) if maximise else cand < best[0]:
                        best = (cand, level, bounds)
            continue
        for s in starts:
            col = cols[s]
            for k in range(2, min(end - s, cs[s]) + 1):
                cand = weight * col[k] if maximise else col[k] / weight
                if cand > best[0] if maximise else cand < best[0]:
                    bounds = [s]
                    for j in range(k, 1, -1):
                        bounds.append(cuts[bounds[-1]][j])
                    best = (cand, level, tuple(bounds) + (end,))
    return best


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
    """Per start s, the most blocks an admissible cover starting at s can
    have, however many points follow; None when the family has no such
    bound."""
    caps = [families.max_blocks(family, entries[s][0]) for s in starts]
    return None if caps[0] is None else caps


def _rows(caps, end: int) -> list:
    """Per position s < end, the most slices the suffix table must hold at
    s: the largest cap there, and one less than any cap at an earlier
    start, whose rows read the later columns; never more than the end - s
    points left.  For a shorter end b, min(b - s, rows[s]) is the bound."""
    rows = []
    carry = 0
    for s in range(end):
        here = max((cs[s] for cs in caps if cs is not None and s < len(cs)), default=0)
        rows.append(min(end - s, max(here, carry)))
        carry = max(carry, here - 1)
    return rows


def _fill(cols, cuts, s: int, end: int, rows: int, val, maximise: bool) -> None:
    """Column s of the suffix-cover table of entries[:end]: cols[s][j] is
    the optimum over covers of entries[s:end] by exactly j slices, 2 <= j
    <= rows, combining slice values by sum (maximise) or by max
    (minimise); cuts[s][j] is the first cut of the first optimiser, the
    smallest on ties.  Reads cols[c][j - 1] for c > s; row 1, the slice
    entries[c:end] itself, is the caller's."""
    col = cols[s]
    cut = cuts[s]
    for j in range(2, rows + 1):
        b = bc = None
        for c in range(s + 1, end - j + 2):
            v = val(s, c)
            w = cols[c][j - 1]
            if maximise:
                v = v + w
                if b is None or v > b:
                    b, bc = v, c
            else:
                if w > v:
                    v = w
                if b is None or v < b:
                    b, bc = v, c
        col.append(b)
        cut.append(bc)


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
