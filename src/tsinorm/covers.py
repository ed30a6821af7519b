"""Optimisation over admissible successive covers of a support.

The primal norm, its level approximants, and the rho and sigma iterates
of the dual norm optimise over tuples E_1 < ... < E_k (k >= 2) of
successive blocks that a level's family admits.  A support is a sorted
entry tuple, its blocks are slices entries[a:b], and levels are (index,
family, theta) triples, tried in order.  Maximising starts from the sup
norm and adds theta * sum over covers of a suffix; minimising starts
from the l1 norm and takes max / theta over covers of the whole support.

One column step (_Pass.column) values every window of a support that
ends at one right end, bottom-up, starts in decreasing order, so each
window reads only windows already valued, from a list, with no memo.
best_windows runs it for right ends in increasing order over one
support.  Without a previous table that pass is the fixpoint
(mixed_norm); with one it is a single level step, and iterates yields
levels 0, 1, 2, ... of a support (fj_norm_level, rho) from one step per
level.  A column depends on the entries up to its right end only, so
fixpoints values many supports (sigma: fixpoint is the batch of one,
the l1-variant falsifier its main caller) on one table, in sorted
order, each from the column past the prefix it shares with the one
before.  A pass works out its own integer units from its levels, the
entries' common denominator and the support size (_Pass): rational
weights give one integer per window, interval weights (certified
enclosures of symbolic weights) a Span of two.  best_windows takes
Fraction entries, and a window's value is read back as a Fraction or
an IntervalScalar (_Pass.scalar); fixpoints takes and returns ints in
its pass's unit.

Where admissibility depends only on the block count and the first index
(families.max_blocks is not None), a suffix-cover table serves a level
with rational weights: _fill computes, for one start s, the best cover
of entries[s:end] by exactly j slices for every j it needs, from the
columns of later starts.  The table depends on the right end only, so
every window ending there shares one.  Interval values instead walk
their covers in order (_Pass._walk_spans), since an interval caller's
precision-doubling schedule follows its sequence of certified
comparisons; _fill over the windows' hi ends bounds every cover from a
start, a block count or a prefix of cuts, and the walk skips the
groups that cannot beat the incumbent, so it compares exactly the
covers a full walk would.
Rational levels without a block-count bound are walked by
_admissible_covers.  Both walks take the cut positions in
lexicographic order, up to the most slices a level admits from the
cover's first index (families.part_bound): a bounded family admits the
covers of at most max_blocks slices, and an ExplicitFinite level asks
families.is_admissible of each walked cover within its bound.  Every
route keeps the first optimum in enumeration order (level, start,
block count, then cut positions lexicographically), so their
witnesses agree; _Pass._choose walks that order for all of them.

A rational cover of entries[s:b] reads windows inside it only, so its
value does not depend on the window start a <= s it is scored for.  A
maximising column therefore keeps a running first optimum per level
over the starts already visited, and each window scores only the
covers from its own start, merging them in with a tie going to that
start, which comes first.  Minimising passes read one start anyway.
Interval values keep the walk over every start: whether a certified
comparison raises, and so the precision-doubling schedule and the text
of an undecided comparison, depends on the incumbent it meets, which is
the window's own.

The families functions are called through their module, so a wrapper
bound over the module attribute sees every call.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import core, families
from .core import IndeterminateComparisonError, IntervalScalar, TsinormError


@functools.total_ordering
class _Unbounded:
    """The hi end of an undecided window: it absorbs sums and products and
    compares above every int, so no bound that reads it skips a cover."""
    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __mul__ = __add__

    def __gt__(self, other):
        return other is not self


_UNBOUNDED = _Unbounded()


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


def best_windows(entries: tuple, levels, maximise: bool = True, prev=None) -> "_Pass":
    """Value and witness of every window entries[a:b] of a nonempty
    support of (index, positive Fraction) entries under one step of a
    successive-cover recursion.

    Maximising, a window's value is the best of its leaf, the sup, and
    weight * (sum of block values) over admissible covers of its suffixes
    by k >= 2 windows; minimising, the best of its leaf, the entry sum,
    and weight * (max of block values) over covers of the whole window.
    With prev None the blocks are valued in this pass: the fixpoint.
    With prev the value table of an earlier pass over the same support
    and levels, the blocks and the incumbent are read from it: one level
    step, whose leaf is prev's own value.  Levels are (index, family,
    weight) triples, weights Fractions or (maximise only) IntervalScalar
    enclosures.  Right ends b are visited in increasing order, one
    _Pass.column each.

    Returns the filled _Pass: value[a][b] is the window's value in its
    integer units, or the IndeterminateComparisonError that left it
    undecided, raised again only where another window reads it, and
    scalar(a, b) the value as a Fraction or an IntervalScalar;
    choice[a][b] is the position of the leaf (after a level step: prev's
    value was kept) or the (level, bounds) of the winning cover.
    """
    table = _Pass(levels, maximise, math.lcm(*(c.denominator for _, c in entries)),
                  len(entries), prev)
    scaled = tuple((i, c.numerator * (table.unit // c.denominator)) for i, c in entries)
    for b in range(1, len(scaled) + 1):
        table.column(scaled[:b])
    return table


class _Pass:
    """The value and choice tables of one bottom-up pass over supports of
    at most size points whose entries are multiples of 1/den, filled one
    right end at a time, and the integer units they are kept in.

    A cover multiplies its combined block value by theta (maximise) or
    1/theta (minimise).  With q the lcm of the factors' denominators (of
    both ends of every enclosure), unit = den * q^(size - 1): a window of
    l points is its leaf or one factor times windows of at most l - 1
    points, so each end of its value is a multiple of 1/(den * q^(l - 1)).
    The scaled weights are factor * q, so a candidate is in units of
    1/(unit * q), and only the winner is divided by q (_settle).  With
    rational weights a window value is one int; with enclosures it is a
    Span of two, highs[a][b] its hi end (_UNBOUNDED while undecided),
    every level walks its covers (_walk_spans), and the suffix table of
    a column is _fill's over highs: the hi-end bounds.

    Column b (the windows entries[a:b], a < b) reads entries[:b], earlier
    columns, and the caps and rows at positions below b; a position's
    caps read its own index only, and its row the caps at and before it.
    So column b depends on entries[:b] alone, and a pass over a support
    that shares its first p entries with the support last filled keeps
    columns 1..p with their caps and rows (keep(p)) and fills the rest."""

    def __init__(self, levels, maximise: bool, den: int, size: int, prev=None):
        self.value = [[None] * (size + 1) for _ in range(size)]
        self.choice = [[None] * (size + 1) for _ in range(size)]
        self.blocks = self.value if prev is None else prev
        self.maximise, self.prev = maximise, prev
        self.spans = spans = any(isinstance(t, IntervalScalar) for _, _, t in levels)
        self.highs = [[_UNBOUNDED] * (size + 1) for _ in range(size)] if spans else None
        factors = [(t.lo, t.hi) if spans else (t if maximise else 1 / t,)
                   for _, _, t in levels]
        self.q = q = math.lcm(*(f.denominator for ends in factors for f in ends))
        self.unit = den * q ** (size - 1)
        ends = [[f.numerator * (q // f.denominator) for f in fs] for fs in factors]
        self.levels = tuple((i, family, Span(*w) if spans else w[0])
                            for (i, family, _), w in zip(levels, ends))
        self.improves = (functools.partial(_improves, unit=self.unit * q) if spans
                         else operator.gt if maximise else operator.lt)
        # per level, the most blocks a cover starting at each position may
        # have (families.max_blocks), or None when the family has no such
        # bound (or values are spans): such levels walk their covers
        self.caps = [None if spans else [] for _ in levels]
        # rows[s]: the most slices the suffix table holds at s, the largest
        # cap there or one less than any cap at an earlier start, whose
        # rows read the later columns; always used as min(b - s, rows[s]).
        # reach[s]: the largest cap at or before s.
        self.rows = []
        self.reach = []

    def scalar(self, a: int, b: int):
        """The value of window entries[a:b] as a Fraction or an
        IntervalScalar; an undecided window raises its error."""
        v = self.value[a][b]
        if isinstance(v, IndeterminateComparisonError):
            raise v.with_traceback(None)
        return v.enclosure(self.unit) if self.spans else Fraction(v, self.unit)

    def _point(self, v):
        """Window value v on the candidate scale, units of 1/(unit * q)."""
        v *= self.q
        return Span(v, v) if self.spans else v

    def _settle(self, cand):
        """A winning candidate back in window units."""
        if self.spans:
            return Span(self._divide(cand.lo), self._divide(cand.hi))
        return self._divide(cand)

    def _divide(self, cand: int) -> int:
        v, r = divmod(cand, self.q)
        if r:
            raise TsinormError(
                f"internal: window value {cand}/{self.q} is not a multiple of 1/{self.unit}")
        return v

    def keep(self, p: int) -> None:
        """Forget the caps and rows past position p, before columns p + 1
        on are filled for a support sharing only its first p entries."""
        del self.rows[p:], self.reach[p:]
        for cs in self.caps:
            if cs is not None:
                del cs[p:]

    def _grow(self, index: int) -> None:
        """Caps and rows at the next position, whose entry has index."""
        here = 0
        for n, ((_, family, _), cs) in enumerate(zip(self.levels, self.caps)):
            if cs is not None:
                cap = families.max_blocks(family, index)
                if cap is None:  # unbounded at every index, so at the first one
                    self.caps[n] = None
                else:
                    cs.append(cap)
                    here = max(here, cap)
        reach = self.reach[-1] if self.reach else 0
        self.rows.append(max(here, reach - 1))
        self.reach.append(max(here, reach))

    def _val(self, a: int, b: int):
        v = self.blocks[a][b]
        if isinstance(v, IndeterminateComparisonError):
            raise v.with_traceback(None)
        return v

    def column(self, head: tuple) -> None:
        """Fill column b = len(head), with caps and rows for its last entry.

        Starts a are visited in decreasing order.  The suffix-cover table
        of head depends on the right end only, so every window ending at b
        reads the same table; its row 1 at a start is the block value
        there, filled before the next start.  On spans the table is over
        the hi ends (highs) with every row, and tops[a] bounds every cover
        from a on."""
        b = len(head)
        self._grow(head[-1][0])
        value, choice, prev = self.value, self.choice, self.prev
        point, settle, maximise, rows = self._point, self._settle, self.maximise, self.rows
        spans, highs = self.spans, self.highs
        firsts = highs if spans else self.blocks  # the row-1 values the table reads
        cols = [[None, None] for _ in range(b)]
        cuts = [[None, None] for _ in range(b)]
        tops = [0] * b if spans else None
        # maximising on rational levels: per level, the first optimum over
        # the covers from the starts after a (_choose)
        running = [None] * len(self.levels) if maximise and not spans else None
        leaf, pos = head[b - 1][1], b - 1  # a one-point window is its leaf
        value[pos][b] = one = settle(point(leaf))
        if spans:
            highs[pos][b] = one.hi
        cols[pos][1] = firsts[pos][b]
        choice[pos][b] = pos
        for a in range(b - 2, -1, -1):
            _fill(cols, cuts, a, b, b - a if spans else min(b - a, rows[a]), firsts[a], maximise)
            if spans:
                tops[a] = max(tops[a + 1], *cols[a][2:])
            if not maximise:
                leaf += head[a][1]
            elif head[a][1] >= leaf:
                leaf, pos = head[a][1], a
            try:
                cand, level, bounds = self._choose(
                    head, a, cols, cuts, point(leaf if prev is None else prev[a][b]), tops,
                    running)
                value[a][b] = v = settle(cand)
                if spans:
                    highs[a][b] = v.hi
                choice[a][b] = pos if level is None else (level, bounds)
            except IndeterminateComparisonError as exc:
                value[a][b] = exc
            cols[a][1] = firsts[a][b]

    def _choose(self, entries: tuple, a: int, cols, cuts, incumbent, tops, running):
        """The first optimum strictly better than incumbent over covers of
        entries[s:], s >= a when maximising and s = a when minimising, in
        the order level, start, block count, cut positions: (value, level,
        bounds), or (incumbent, None, None).  A cover's value is its
        level's weight times the sum (maximise) or the max of its block
        values.  Levels with caps read the suffix table (cols, cuts); the
        others are walked cover by cover (_admissible_covers).

        A rational candidate from s depends on s and the right end only,
        not on a, so only the covers from a are scored here: running[n]
        holds level n's first optimum over the starts after a, as
        (candidate, bounds), or (candidate, (start, block count)) on the
        suffix table, whose cuts give the bounds of a winner.  The
        optimum from a replaces it unless the running one is strictly
        better (a comes first), and the result is kept for the next
        window.  A level then replaces the incumbent only when strictly
        better, which gives the first optimum of the whole order.

        On spans cols is the hi-end table and tops[s] its bound over
        every cover from s on: a level whose weight times that bound at a
        cannot beat the incumbent is skipped, and the others go to
        _walk_spans over every start.  The span route keeps that full
        walk: a certified comparison can raise, and its sequence sets the
        precision-doubling schedule, so it must compare each cover against
        the incumbent of a walk in order."""
        end = len(entries)
        improves, maximise, val = self.improves, self.maximise, self._val
        best = (incumbent, None, None)
        if self.spans:
            starts = range(a, end)
            for level in self.levels:
                if tops[a] * level[2].hi > best[0].lo:
                    best = self._walk_spans(entries, starts, level, best, cols, tops)
            return best
        pick = max if maximise else min  # the first optimum, as improves keeps
        read_cuts = False
        for n, (level, cs) in enumerate(zip(self.levels, self.caps)):
            weight = level[2]
            here = None  # the first optimum over the covers from a
            if cs is None:
                for _, bounds in _admissible_covers(entries, (level,), a):
                    values = [val(s, t) for s, t in zip(bounds, bounds[1:])]
                    cand = weight * (sum(values[1:], values[0]) if maximise else max(values))
                    if here is None or improves(cand, here[0]):
                        here = (cand, bounds)
            else:
                top = min(end - a, cs[a])
                if top >= 2:
                    col = cols[a]
                    k = 2 if top == 2 else pick(range(2, top + 1), key=col.__getitem__)
                    here = (weight * col[k], (a, k))  # its bounds are read if it wins
            if maximise:
                later = running[n]
                if here is None or later is not None and improves(later[0], here[0]):
                    here = later
                else:
                    running[n] = here
            if here is not None and improves(here[0], best[0]):
                best, read_cuts = (here[0], level, here[1]), cs is not None
        if read_cuts:
            cand, level, (s, k) = best
            bounds = [s]
            for j in range(k, 1, -1):
                bounds.append(cuts[bounds[-1]][j])
            best = (cand, level, tuple(bounds) + (end,))
        return best

    def _walk_spans(self, entries: tuple, starts, level, best, cols, tops):
        """_choose's walk of one level on spans: best, or the first cover
        of entries[s:] (s in starts) whose value strictly beats it.

        With weight [w_lo, w_hi] and a cover's block sum [lo, hi], the
        candidate [w_lo * lo, w_hi * hi] cannot beat the incumbent when
        w_hi * hi <= incumbent.lo, that is when hi <= keep =
        incumbent.lo // w_hi, so only the other covers are summed and
        compared (improves).  A skip leaves the incumbent as it is, so
        the walk skips whole groups of such covers by the hi-end table
        cols: the rest of the level once tops[s] <= keep, a block count k
        from s once cols[s][k] <= keep, and every cover under a prefix of
        cuts whose blocks' hi ends plus the table's bound on the rest come
        to at most keep, walking the cut positions depth-first in
        lexicographic order.  A cover that reads an undecided block is
        bounded by _UNBOUNDED, so it is never skipped: it raises where it
        is reached, on an ExplicitFinite level once
        families.is_admissible has accepted it.  So the walk makes the
        comparisons, and raises the errors, of a walk of every cover."""
        _, family, weight = level
        highs, val, improves = self.highs, self._val, self.improves
        end = len(entries)
        keep = best[0].lo // weight.hi

        def descend(x: int, left: int, prefix, bounds: tuple) -> None:
            # covers of entries[x:] by left slices, after the cuts bounds,
            # whose blocks' hi ends sum to prefix
            nonlocal best, keep
            row = highs[x]
            for c in range(x + 1, end - left + 2):
                upto = prefix + row[c]
                if upto + cols[c][left - 1] <= keep:
                    continue
                if left > 2:
                    descend(c, left - 1, upto, bounds + (c,))
                    continue
                cover = bounds + (c, end)
                if explicit and not families.is_admissible(family, core.BlockPartition(
                        tuple(index[a:b] for a, b in zip(cover, cover[1:])))):
                    continue
                lo = hi = 0
                for a, b in zip(cover, cover[1:]):
                    v = val(a, b)
                    lo += v.lo
                    hi += v.hi
                cand = Span(weight.lo * lo, weight.hi * hi)
                if improves(cand, best[0]):
                    best = (cand, level, cover)
                    keep = cand.lo // weight.hi

        try:
            for s in starts:
                if tops[s] <= keep:
                    break
                first = entries[s][0]
                explicit = families.max_blocks(family, first) is None
                index = tuple(i for i, _ in entries) if explicit else None
                for k in range(2, min(end - s, families.part_bound(family, first)) + 1):
                    if cols[s][k] > keep:
                        descend(s, k, 0, (s,))
        finally:
            del descend  # it calls itself through its closure: no cycle outlives the walk
        return best


def fixpoint(levels, entries: tuple) -> Fraction:
    """The minimising recursion's value at one support with rational
    weights: the batch of one (fixpoints); the limit of iterates."""
    if not entries:
        return Fraction(0)
    den = math.lcm(*(c.denominator for _, c in entries))
    (value,), unit = fixpoints(
        levels, (tuple((i, c.numerator * (den // c.denominator)) for i, c in entries),),
        den, len(entries))
    return Fraction(value, unit)


def fixpoints(levels, supports, den: int, size: int):
    """The minimising recursion's values at many supports with rational
    weights, from one shared fixpoint pass: (values, unit), values[n]
    the value at supports[n] in units of 1/unit (_Pass).

    A support is a sorted tuple of (index, c) pairs, each entry being
    c / den for a positive int c, and has at most size points; the empty
    support has value 0.  The supports are filled in sorted order on one
    _Pass, each from the column past the prefix it shares with the one
    before, so a support that extends or repeats an earlier one costs
    only its new columns."""
    table = _Pass(levels, False, den, size)
    scale = table.unit // den
    values = [0] * len(supports)
    last = ()
    for n in sorted(range(len(supports)), key=supports.__getitem__):
        entries = tuple((i, c * scale) for i, c in supports[n])
        shared = 0
        for p, q in zip(last, entries):
            if p != q:
                break
            shared += 1
        table.keep(shared)
        for b in range(shared + 1, len(entries) + 1):
            table.column(entries[:b])
        if entries:
            values[n] = table.value[0][len(entries)]
        last = entries
    return values, table.unit


def iterates(levels, entries: tuple, maximise: bool):
    """Levels 0, 1, 2, ... of the recursion at a support with rational
    weights: level 0 is the largest entry (maximise) or the entry sum,
    level n the better of level n - 1 and the best cover over level-(n - 1)
    window values, one best_windows step per level.  A window of l points
    is stable from level l - 1, so from level m - 1 on, m the support
    size, the value repeats without further passes.  The level-0 table
    holds the window maxima or sums in the unit of those passes."""
    if not entries:
        yield from itertools.repeat(Fraction(0))
    size = len(entries)
    unit = _Pass(levels, maximise, math.lcm(*(c.denominator for _, c in entries)), size).unit
    scaled = [c.numerator * (unit // c.denominator) for _, c in entries]
    combine = max if maximise else operator.add
    table = [[None] * (a + 1) + list(itertools.accumulate(scaled[a:], combine))
             for a in range(size)]
    for _ in range(size - 1):
        yield Fraction(table[0][-1], unit)
        table = best_windows(entries, levels, maximise, table).value
    yield from itertools.repeat(Fraction(table[0][-1], unit))


def _fill(cols, cuts, s: int, end: int, rows: int, starting, maximise: bool) -> None:
    """Column s of the suffix-cover table of entries[:end]: cols[s][j] is
    the optimum over covers of entries[s:end] by exactly j slices, 2 <= j
    <= rows, combining slice values by sum (maximise) or by max
    (minimise); cuts[s][j] is the first cut of the first optimiser, the
    smallest on ties.  Reads the first slice's value entries[s:c] as
    starting[c] and cols[c][j - 1] for c > s; row 1, the slice
    entries[c:end] itself, is the caller's.  Slice values are ints, or
    on spans hi ends, where an _UNBOUNDED one makes its optima so."""
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
    by k >= 2 blocks, in the order of cover_branches, from one walk over
    the cut positions, up to the most blocks a level admits from the first
    index (families.part_bound).  A family with a block-count bound
    (families.max_blocks) admits exactly the covers of at most that many
    blocks; an ExplicitFinite level asks families.is_admissible of each
    walked cover within its part bound."""
    end = len(entries)
    if end - start < 2:
        return
    caps = [families.max_blocks(level[1], entries[start][0]) for level in levels]
    explicit = None in caps
    parts = [families.part_bound(level[1], entries[start][0])
             for level in levels] if explicit else caps
    index = tuple(i for i, _ in entries) if explicit else None
    for k in range(2, min(end - start, max(parts)) + 1):
        for cuts in itertools.combinations(range(start + 1, end), k - 1):
            bounds = (start,) + cuts + (end,)
            if explicit:
                P = core.BlockPartition(tuple(index[a:b] for a, b in zip(bounds, bounds[1:])))
            for level, cap, most in zip(levels, caps, parts):
                if k <= most and (cap is not None or families.is_admissible(level[1], P)):
                    yield level, bounds
