"""Optimisation over admissible successive covers of a support.

The primal norm, its level approximants, and the rho and sigma iterates
of the dual norm optimise over tuples E_1 < ... < E_k (k >= 2) of
successive blocks that a level's family admits.  A support is a sorted
entry tuple, its blocks are slices entries[a:b], and levels are (index,
family, theta) triples, tried in order.  Maximising starts from the sup
norm and adds theta * sum over covers of a suffix; minimising starts
from the l1 norm and takes max / theta over covers of the whole support.

best_windows is the one driver: it values every window of one support
bottom-up, right ends in increasing order and starts in decreasing
order, so each window reads only windows already valued, from a list,
with no memo.  Without a previous table that pass is the fixpoint
(mixed_norm, and fixpoint for sigma); with one it is a single level
step, and iterates yields levels 0, 1, 2, ... of a support
(fj_norm_level, rho) from one step per level.  Every caller values
windows in integer units (integer_units): rational weights give one
integer per window, interval weights (certified enclosures of symbolic
weights) a Span of two.

Where admissibility depends only on the block count and the first index
(families.max_blocks is not None), a suffix-cover table serves a level
with rational weights: _fill computes, for one start s, the best cover
of entries[s:end] by exactly j slices for every j it needs, from the
columns of later starts.  The table depends on the right end only, so
every window ending there shares one.  Interval values are instead
compared cover by cover (_walk_spans), since an interval caller's
precision-doubling schedule follows its sequence of certified
comparisons.  Covers are walked by _admissible_covers: for a bounded
family it walks the cut positions of at most max_blocks slices
directly; only ExplicitFinite levels (and cover_branches on spaces that
have one) enumerate BlockPartitions and ask families.is_admissible.
Every route keeps the first optimum in enumeration order (level, start,
block count, then cut positions lexicographically), so their witnesses
agree; _choose walks that order for all of them.

core.enumerate_partitions and the families functions are called through
their modules, so a wrapper bound over the module attribute sees every call.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import core, families
from .core import IndeterminateComparisonError, IntervalScalar, TsinormError


class Span:
    """A certified interval value [lo, hi] in integer units, 0 <= lo <= hi.

    Every value on the interval route is nonnegative, so a sum of spans
    adds their ends and a product multiplies lo by lo and hi by hi."""
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def enclosure(self, unit: int) -> IntervalScalar:
        """The span in units of 1/unit as an exact IntervalScalar."""
        return IntervalScalar(Fraction(self.lo, unit), Fraction(self.hi, unit))


def _improves(cand: Span, incumbent: Span, unit: int) -> bool:
    """Certified strict cand > incumbent of spans in units of 1/unit;
    identical spans tie (False), and overlapping ones raise."""
    if incumbent.hi < cand.lo:
        return True
    if incumbent.lo >= cand.hi:
        return False
    if cand.lo == incumbent.lo and cand.hi == incumbent.hi:
        return False
    raise IndeterminateComparisonError(
        f"cannot order branch values {incumbent.enclosure(unit)} and {cand.enclosure(unit)}")


def best_windows(entries: tuple, levels, point, settle, improves, maximise: bool = True,
                 prev=None):
    """Value and witness of every window entries[a:b] of a nonempty
    support under one step of a successive-cover recursion.

    Maximising, a window's value is the best of its leaf, the sup, and
    weight * (sum of block values) over admissible covers of its suffixes
    by k >= 2 windows; minimising, the best of its leaf, the entry sum,
    and weight * (max of block values) over covers of the whole window.
    With prev None the blocks are valued in this pass: the fixpoint.
    With prev a table from an earlier pass, the blocks and the incumbent
    are read from it: one level step, whose leaf is prev's own value.

    Right ends b are visited in increasing order and starts a in
    decreasing order.  The suffix-cover table of entries[:b] depends on
    the right end only, so every window ending at b reads the same table;
    its row 1 at a start is the block value there, filled before the next
    start.  Levels are (index, family, weight) triples; point(v) is a
    leaf value v on the candidate scale, improves(cand, incumbent) says
    whether a candidate strictly beats the incumbent, and settle(c) turns
    a winning candidate back into a window value.  Span values (point
    returns a Span) walk every cover of every level one by one.

    Returns (value, choice): value[a][b] is the window's value, or the
    IndeterminateComparisonError that left it undecided, raised again
    only where another window reads it; choice[a][b] is the position of
    the leaf (after a level step: prev's value was kept) or the (level,
    bounds) of the winning cover.
    """
    m = len(entries)
    value = [[None] * (m + 1) for _ in range(m)]
    choice = [[None] * (m + 1) for _ in range(m)]
    blocks = value if prev is None else prev

    def val(a: int, b: int):
        v = blocks[a][b]
        if isinstance(v, IndeterminateComparisonError):
            raise v.with_traceback(None)
        return v

    walk = isinstance(point(entries[0][1]), Span)
    caps = [None if walk else _start_caps(family, entries) for _, family, _ in levels]
    rows = _rows(caps, m)
    for b in range(1, m + 1):
        head = entries[:b]
        cols = [[None, None] for _ in range(b)]
        cuts = [[None, None] for _ in range(b)]
        leaf, pos = entries[b - 1][1], b - 1  # a one-point window is its leaf
        value[pos][b] = cols[pos][1] = settle(point(leaf))
        choice[pos][b] = pos
        for a in range(b - 2, -1, -1):
            _fill(cols, cuts, a, b, min(b - a, rows[a]), blocks[a], maximise)
            if not maximise:
                leaf += entries[a][1]
            elif entries[a][1] >= leaf:
                leaf, pos = entries[a][1], a
            try:
                cand, level, bounds = _choose(
                    head, range(a, b) if maximise else (a,), levels, caps, cols, cuts, val,
                    point(leaf if prev is None else prev[a][b]), improves, maximise, walk)
                value[a][b] = settle(cand)
                cols[a][1] = blocks[a][b]
                choice[a][b] = pos if level is None else (level, bounds)
            except IndeterminateComparisonError as exc:
                value[a][b] = exc
    return value, choice


def _choose(entries: tuple, starts, levels, caps, cols, cuts, val, incumbent, improves,
            maximise: bool, walk: bool):
    """The first optimum strictly better than incumbent over covers of
    entries[s:] for s in starts, in the order level, start, block count,
    cut positions: (value, level, bounds), or (incumbent, None, None).
    A cover's value is its level's weight times the sum (maximise) or the
    max of its block values.  Levels with caps read the suffix table
    (cols, cuts); the others are walked cover by cover
    (_admissible_covers), on spans when walk is set (_walk_spans)."""
    end = len(entries)
    best = (incumbent, None, None)
    for level, cs in zip(levels, caps):
        weight = level[2]
        if walk:
            best = _walk_spans(entries, starts, level, val, best, improves)
            continue
        if cs is None:
            for s in starts:
                for _, bounds in _admissible_covers(entries, (level,), s):
                    values = [val(a, b) for a, b in zip(bounds, bounds[1:])]
                    cand = weight * (sum(values[1:], values[0]) if maximise else max(values))
                    if improves(cand, best[0]):
                        best = (cand, level, bounds)
            continue
        for s in starts:
            col = cols[s]
            for k in range(2, min(end - s, cs[s]) + 1):
                cand = weight * col[k]
                if improves(cand, best[0]):
                    bounds = [s]
                    for j in range(k, 1, -1):
                        bounds.append(cuts[bounds[-1]][j])
                    best = (cand, level, tuple(bounds) + (end,))
    return best


def _walk_spans(entries: tuple, starts, level, val, best, improves):
    """_choose's walk of one level on spans: best, or the first cover of
    entries[s:] (s in starts) whose value strictly beats it.

    With weight [w_lo, w_hi] and a cover's block sum [lo, hi], the
    candidate [w_lo * lo, w_hi * hi] cannot beat the incumbent when
    w_hi * hi <= incumbent.lo, that is when hi <= incumbent.lo // w_hi.
    That bound is taken once per incumbent, so only the other covers are
    multiplied out and compared (improves)."""
    weight = level[2]
    keep = best[0].lo // weight.hi
    for s in starts:
        for _, bounds in _admissible_covers(entries, (level,), s):
            lo = hi = 0
            for a, b in zip(bounds, bounds[1:]):
                v = val(a, b)
                lo += v.lo
                hi += v.hi
            if hi <= keep:
                continue
            cand = Span(weight.lo * lo, weight.hi * hi)
            if improves(cand, best[0]):
                best = (cand, level, bounds)
                keep = cand.lo // weight.hi
    return best


def integer_units(entries: tuple, levels, maximise: bool):
    """The route of best_windows: (entries, levels, point, settle,
    improves, unit) with every window value an integer in units of
    1/unit or, when the weights are IntervalScalar enclosures (maximise
    only), a Span of two such integers.

    A cover multiplies its combined block value by theta (maximise) or
    1/theta (minimise).  With D the lcm of the entries' denominators, Q
    that of the factors' (of both ends of every enclosure) and m the
    support size, unit = D * Q^(m - 1): a window of l points is its leaf
    or one factor times windows of at most l - 1 points, so each end of
    its value is a multiple of 1/(D * Q^(l - 1)).  The scaled weights are
    factor * Q, so a candidate is in units of 1/(unit * Q), and only the
    winner is divided by Q (settle).
    """
    spans = any(isinstance(t, IntervalScalar) for _, _, t in levels)
    factors = [(t.lo, t.hi) if spans else (t if maximise else 1 / t,) for _, _, t in levels]
    d = math.lcm(*(c.denominator for _, c in entries))
    q = math.lcm(*(f.denominator for ends in factors for f in ends))
    unit = d * q ** (len(entries) - 1)
    scaled = tuple((i, c.numerator * (unit // c.denominator)) for i, c in entries)

    def settle(cand: int) -> int:
        v, r = divmod(cand, q)
        if r:
            raise TsinormError(f"internal: window value {cand}/{q} is not a multiple of 1/{unit}")
        return v

    ends = [[f.numerator * (q // f.denominator) for f in fs] for fs in factors]
    if not spans:
        weights = tuple((i, family, w) for (i, family, _), (w,) in zip(levels, ends))
        return (scaled, weights, lambda v: v * q, settle,
                operator.gt if maximise else operator.lt, unit)
    weights = tuple((i, family, Span(*w)) for (i, family, _), w in zip(levels, ends))
    return (scaled, weights, lambda v: Span(v * q, v * q),
            lambda c: Span(settle(c.lo), settle(c.hi)),
            functools.partial(_improves, unit=unit * q), unit)


def fixpoint(levels, entries: tuple, maximise: bool) -> Fraction:
    """The recursion's value at a support with rational weights, from
    one fixpoint pass of best_windows; the limit of iterates."""
    if not entries:
        return Fraction(0)
    scaled, weights, point, settle, improves, unit = integer_units(entries, levels, maximise)
    value, _ = best_windows(scaled, weights, point, settle, improves, maximise)
    return Fraction(value[0][-1], unit)


def iterates(levels, entries: tuple, maximise: bool):
    """Levels 0, 1, 2, ... of the recursion at a support with rational
    weights: level 0 is the largest entry (maximise) or the entry sum,
    level n the better of level n - 1 and the best cover over level-(n - 1)
    window values, one best_windows step per level.  A window of l points
    is stable from level l - 1, so from level m - 1 on, m the support
    size, the value repeats without further passes."""
    if not entries:
        yield from itertools.repeat(Fraction(0))
    scaled, weights, point, settle, improves, unit = integer_units(entries, levels, maximise)
    table, _ = best_windows(scaled, (), point, settle, improves, maximise)
    for _ in range(len(entries) - 1):
        yield Fraction(table[0][-1], unit)
        table, _ = best_windows(scaled, weights, point, settle, improves, maximise, table)
    yield from itertools.repeat(Fraction(table[0][-1], unit))


def _start_caps(family, entries: tuple):
    """Per start s, the most blocks an admissible cover starting at s can
    have, however many points follow; None when the family has no such
    bound."""
    caps = [families.max_blocks(family, i) for i, _ in entries]
    return None if caps[0] is None else caps


def _rows(caps, end: int) -> list:
    """Per position s < end, the most slices the suffix table must hold at
    s: the largest cap there, and one less than any cap at an earlier
    start, whose rows read the later columns; never more than the end - s
    points left.  For a shorter end b, min(b - s, rows[s]) is the bound."""
    bounded = [cs for cs in caps if cs is not None]
    rows = []
    carry = 0
    for s, here in enumerate(map(max, zip(*bounded)) if bounded else [0] * end):
        rows.append(min(end - s, max(here, carry)))
        carry = max(carry, here - 1)
    return rows


def _fill(cols, cuts, s: int, end: int, rows: int, starting, maximise: bool) -> None:
    """Column s of the suffix-cover table of entries[:end]: cols[s][j] is
    the optimum over covers of entries[s:end] by exactly j slices, 2 <= j
    <= rows, combining slice values by sum (maximise) or by max
    (minimise); cuts[s][j] is the first cut of the first optimiser, the
    smallest on ties.  Reads the first slice's value entries[s:c] as
    starting[c] and cols[c][j - 1] for c > s; row 1, the slice
    entries[c:end] itself, is the caller's."""
    col = cols[s]
    cut = cuts[s]
    for j in range(2, rows + 1):
        b = bc = None
        for c in range(s + 1, end - j + 2):
            v = starting[c]
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
    for (index, _, theta), bounds in _admissible_covers(entries, levels, 0):
        spans = tuple(zip(bounds, bounds[1:]))
        yield (index, tuple(tuple(i for i, _ in entries[a:b]) for a, b in spans),
               max(part(a, b) for a, b in spans) / theta)


def _admissible_covers(entries: tuple, levels, start: int):
    """(level, slice bounds) for every admissible cover of entries[start:]
    by k >= 2 blocks, in the order of cover_branches.  A family with a
    block-count bound (families.max_blocks) admits exactly the covers of
    at most that many blocks, so its cut positions are walked directly;
    an ExplicitFinite level asks families.is_admissible of each
    partition core.enumerate_partitions yields."""
    end = len(entries)
    if end - start < 2:
        return
    caps = [families.max_blocks(level[1], entries[start][0]) for level in levels]
    if None not in caps:
        for k in range(2, min(end - start, max(caps)) + 1):
            for cuts in itertools.combinations(range(start + 1, end), k - 1):
                bounds = (start,) + cuts + (end,)
                for level, cap in zip(levels, caps):
                    if k <= cap:
                        yield level, bounds
        return
    tail = tuple(i for i, _ in entries[start:])
    for k in range(2, len(tail) + 1):
        for P in core.enumerate_partitions(tail, k):
            bounds = tuple(itertools.accumulate((len(b) for b in P.blocks), initial=start))
            for level, cap in zip(levels, caps):
                if k <= cap if cap is not None else families.is_admissible(level[1], P):
                    yield level, bounds
