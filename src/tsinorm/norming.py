"""Norming sets on a finite index window.

The dual ball of these norms is generated from the signed unit
functionals by bundling: an admissible successive tuple f_1 < ... < f_k
becomes the new functional theta_l * (f_1 + ... + f_k).  On a window
[1, N] the bundling closure over tuples with two or more parts is
finite, so it can be materialised in full, pruned to its coordinatewise
maximal elements, and then evaluated exactly by a scan.  One node rule,
_node, checks that step wherever a tree is read: a node's children
must be successive, and a level of weight theta must admit their
supports.  verify_norming_functional asks it of the level the node
names; _parse_tree, which reads the trees of exports and certificates,
asks it of every level and takes the first that admits.

Three structural facts shape the construction:

* Signs factor out.  Flipping leaf signs commutes with bundling over
  disjoint supports, so the closure is run on nonnegative
  representatives, and every built set is a union of whole sign
  classes: the flips of one representative, with one tree.
* Single-part bundles never matter.  theta*f is dominated by f, and any
  tree using a one-part node is dominated by the tree with that node
  contracted, so skipping k = 1 leaves the maximal set unchanged (the
  would-be chain theta*f, theta^2*f, ... also never stabilizes).
* Pruning waits for the fixpoint.  A dominated functional can sit in an
  admissible tuple where its wider-supported dominator does not fit, so
  dropping it mid-iteration could lose later combinations.  The loop
  runs the raw closure dry and prunes once.  The generation is the
  latest round that built a kept key: once all final maximal keys exist,
  every other key is dominated by one, so that round's maximal set is
  already final, and no earlier round's is.

Everything from the closure to the export runs in integers, and a built
set is kept as its sign classes.  Closure keys hold int coefficients in
one unit den**depth (_closure).  build_norming_set and
raw_norming_generation keep each class as its (int key, first-built
tree) pair, a key of s entries standing for its 2^s sign variants
(NormingSet).  Other objects are made only when asked for:

* export_norming_set writes every variant's line from the classes
  (_class_lines): a tree's variant texts are joined from its children's,
  so a shared subtree is written once, and vector texts are joined from
  one string per (index, coefficient).  cardinality counts 2^s per
  class, and tau pairs the int keys with |x| scaled to ints, making one
  Fraction per value.
* NormingSet.functionals is expanded on its first access, and
  norming_generators expands its patterns, by _expand_signs: a tree's
  variants are built from its children's, so they share every subtree,
  and each distinct coefficient and its negation become a Fraction once.
* The dual-norm programs read _maximal_patterns' int keys and trees;
  they make Fractions only for what a certificate prints.

_maximal_patterns is the one way to the maximal patterns: the dual-norm
programs, build_norming_set, norming_generators and the stabilized
import all read its bounded cache, so a repeated window or support runs
its closure once.  Each caller counts the sign variants against its own
budget and message (_check_sign_budget).  Only raw_norming_generation,
which keeps every key it builds, runs a closure of its own.
"""
from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Tuple, Union

from .core import (
    DEFAULT_NORMING_BUDGET,
    SEXPR_MAX_DEPTH,
    BlockPartition,
    BudgetExceededError,
    FinVec,
    TsinormError,
    format_scalar,
    format_vector,
    pairing,
    parse_number,
    parse_sexpr,
    parse_vector,
)
from .families import (
    MixedSpaceSpec,
    format_theta,
    is_admissible,
    max_blocks,
    part_bound,
    rational_levels,
    theta_is_rational,
)

Q = Fraction


# ---------------------------------------------------------------------------
# functional trees

@dataclass(frozen=True)
class FunctionalLeaf:
    """A signed unit functional sign * e*_index."""
    index: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"leaf sign must be +-1, got {self.sign!r}")
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"leaf index must be a positive integer, got {self.index!r}")


@dataclass(frozen=True)
class FunctionalNode:
    """A bundle theta * (children sum); level_index names the level used."""
    level_index: int
    theta: Fraction
    children: Tuple["FunctionalTree", ...]


FunctionalTree = Union[FunctionalLeaf, FunctionalNode]


@dataclass(frozen=True)
class NormingFunctional:
    """A dual-ball functional: its coordinate vector plus one build tree.

    Several trees can produce the same coordinate vector; only the first
    one constructed is kept.
    """
    coeffs: FinVec
    tree: FunctionalTree

    def __call__(self, x: FinVec) -> Fraction:
        return pairing(self.coeffs, x)


def _node(spec: MixedSpaceSpec, theta, columns, levels) -> tuple:
    """The one node rule: (level index, coordinate dict) for theta times
    the sum of the child coordinate dicts `columns`, the level being the
    first of the indices `levels` whose rational weight is theta and
    whose family admits the child supports.  Raises TsinormError for no
    children, children that are not successive, or no such level."""
    if not columns:
        raise TsinormError("node without children")
    try:
        P = BlockPartition(tuple(tuple(sorted(v)) for v in columns))
    except ValueError as exc:
        raise TsinormError(f"children are not successive: {exc}") from None
    for i in levels:
        level = spec.levels[i]
        if theta_is_rational(level.theta) and Q(level.theta) == theta \
                and is_admissible(level.family, P):
            return i, {j: theta * c for v in columns for j, c in v.items()}
    if len(levels) < len(spec.levels):
        raise TsinormError(
            f"level {' or '.join(map(str, levels))} of space {spec.name!r} does not "
            f"have weight {theta} or does not admit child supports {list(P.blocks)}")
    raise TsinormError(
        f"no level of space {spec.name!r} has weight {theta} and "
        f"admits child supports {list(P.blocks)}")


def _flip_tree(tree: FunctionalTree, signs: dict) -> FunctionalTree:
    if isinstance(tree, FunctionalLeaf):
        return FunctionalLeaf(tree.index, tree.sign * signs.get(tree.index, 1))
    return FunctionalNode(tree.level_index, tree.theta,
                          tuple(_flip_tree(c, signs) for c in tree.children))


def verify_norming_functional(spec: MixedSpaceSpec, f: NormingFunctional,
                              window: Optional[int] = None) -> None:
    """Re-check a functional against its tree; raise TsinormError if bad.

    Checks: the tree recomputes exactly the stored coordinate vector,
    every node passes _node at the level it names (matching rational
    theta, an admissible successive child tuple), and (optionally) the
    support stays inside [1, window].  One bottom-up walk (_recompute)
    recomputes every node once.
    """
    _check_column(f, _recompute(spec, f.tree), window)


def _recompute(spec: MixedSpaceSpec, tree: FunctionalTree) -> dict:
    """The coordinate dict of a tree, each node checked by _node at the
    level it names."""
    if isinstance(tree, FunctionalLeaf):
        return {tree.index: Q(tree.sign)}
    if not isinstance(tree, FunctionalNode):
        raise TsinormError(f"not a functional tree node: {tree!r}")
    if not 0 <= tree.level_index < len(spec.levels):
        raise TsinormError(f"level index {tree.level_index} out of range")
    return _node(spec, tree.theta, [_recompute(spec, child) for child in tree.children],
                 (tree.level_index,))[1]


def _check_column(f: NormingFunctional, vec: dict, window: Optional[int]) -> None:
    """f's stored coefficients must equal `vec`, the coordinates its tree
    recomputes, and (optionally) stay inside [1, window]."""
    if FinVec.from_items(vec).entries != f.coeffs.entries:
        raise TsinormError("tree does not recompute the stored coefficients")
    if window is not None:
        support = f.coeffs.support
        if support and support[-1] > window:
            raise TsinormError(
                f"functional support {support} leaves the window [1, {window}]")


# ---------------------------------------------------------------------------
# norming sets

class NormingSet:
    """An immutable batch of norming functionals over the window [1, N].

    For a built set, `generation` is the first closure round whose
    maximal set already equals the final one, and `stabilized` is True.
    A raw generation (raw_norming_generation) holds the rounds it ran,
    and its `stabilized` is always False: with one-part bundles the
    closure never reaches a fixpoint.

    A set built here keeps the closure's sign classes: nonnegative int
    keys over one unit, each with its first-built tree, a key of s
    entries standing for its 2^s sign variants.  `functionals` expands
    them through _expand_signs on first access; cardinality, tau and
    export_norming_set read the classes and never expand them.  A set
    constructed from its functionals (import, hand-built) holds them as
    given.  Equality, hashing and repr go through `functionals`.
    """

    def __init__(self, spec: MixedSpaceSpec, window: int,
                 functionals: Tuple[NormingFunctional, ...], generation: int,
                 stabilized: bool):
        self._init(spec, window, generation, stabilized, None, None)
        if not functionals:
            raise ValueError("a norming set needs at least one functional")
        vars(self)["functionals"] = functionals

    @classmethod
    def _of_classes(cls, spec: MixedSpaceSpec, window: int, classes: tuple,
                    unit: int, generation: int, stabilized: bool) -> "NormingSet":
        """A set of the (int key, tree) sign classes over `unit`."""
        vset = cls.__new__(cls)
        vset._init(spec, window, generation, stabilized, classes, unit)
        return vset

    def _init(self, spec, window, generation, stabilized, classes, unit) -> None:
        if window < 1:
            raise ValueError(f"window bound must be >= 1, got {window}")
        vars(self).update(spec=spec, window=window, generation=generation,
                          stabilized=stabilized, _classes=classes, _unit=unit)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @functools.cached_property
    def functionals(self) -> Tuple[NormingFunctional, ...]:
        return _expand_signs(self._classes, self._unit)

    def _fields(self) -> tuple:
        return (self.spec, self.window, self.functionals, self.generation, self.stabilized)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"NormingSet(spec={self.spec!r}, window={self.window!r}, "
                f"functionals={self.functionals!r}, generation={self.generation!r}, "
                f"stabilized={self.stabilized!r})")

    @property
    def cardinality(self) -> int:
        if self._classes is None:
            return len(self.functionals)
        return _sign_count(key for key, _ in self._classes)

    @functools.cached_property
    def _abs_reps(self) -> Optional[tuple]:
        """(keys, unit): the sign classes' nonnegative int keys over one
        unit, if every class holds its 2^s distinct sign variants (tau
        may then pair them with |x|), else None.  A built set's keys are
        its classes; a set given its functionals is grouped by absolute
        coefficients here, on tau's first call."""
        if self._classes is not None:
            return tuple(key for key, _ in self._classes), self._unit
        classes: dict = {}
        for f in self.functionals:
            classes.setdefault(f.coeffs.abs(), set()).add(f.coeffs)
        if any(len(signed) != 2 ** len(rep.entries) for rep, signed in classes.items()):
            return None
        unit = math.lcm(*(c.denominator for rep in classes for _, c in rep.entries))
        return tuple(tuple((i, c.numerator * (unit // c.denominator)) for i, c in rep.entries)
                     for rep in classes), unit


def tau(vset: NormingSet, x: FinVec) -> Fraction:
    """max f(x) over the stored functionals; supp(x) must fit the window.

    Over complete sign classes max f(x) is the max of key . |x|: |x| is
    scaled to ints once and one Fraction is made for the result."""
    support = x.support
    if support and support[-1] > vset.window:
        raise TsinormError(
            f"support {support} outside window [1, {vset.window}]")
    reps = vset._abs_reps
    if reps is None:
        return max(pairing(f.coeffs, x) for f in vset.functionals)
    keys, unit = reps
    scale = math.lcm(*(c.denominator for _, c in x.entries))
    xs = {i: abs(c.numerator) * (scale // c.denominator) for i, c in x.entries}
    best = max(sum(c * xs.get(i, 0) for i, c in key) for key in keys)
    return Q(best, unit * scale)


# ---------------------------------------------------------------------------
# closure construction

def _closure(spec: MixedSpaceSpec, indices: tuple, budget: int,
             max_rounds: Optional[int]):
    """Bundling closure over nonnegative representatives, in integer units.

    max_rounds sets the kind of run.  None runs the pruned closure to its
    fixpoint: bundles of two or more parts, in a unit fixed up front.  An
    int runs that many rounds of the raw generation: one-part bundles
    too, in a unit rescaled as the rounds go.

    `indices` is the strictly increasing tuple of coordinates to seed
    from; admissibility only ever looks at actual supports, so closing
    over a sub-index-set gives exactly the functionals of the full-window
    closure whose support lies inside it.

    A key is a tuple of (index, c) with c an int standing for c / unit.
    With den the lcm of the weights' denominators, a tree d bundles deep
    has coefficients in multiples of 1/den**d, so unit = den**depth holds
    every tree up to `depth` deep; a bundle's coefficient is
    c * theta.numerator // theta.denominator, and an inexact division
    raises TsinormError (an internal failure).  Without one-part bundles
    (max_rounds None) every node has two or more children, so depth =
    len(indices) - 1 is fixed before the first round.  One-part chains
    nest one level deeper per round without bound, so how deep a run
    goes is known only when max_rounds or the budget ends it.  A unit sized up front from the
    budget would hold a tree about budget // len(indices) deep, and on
    spaces whose key count grows faster than one per index and round
    every key would carry thousands of needless digits.  So depth starts
    at 0 and, each time the rounds run reach it, every key is rescaled to
    a unit that holds twice as deep (1, 2, 4, ...): depth stays at most
    one more than twice the rounds actually run, and the rescaling takes
    a logarithmic number of passes.  A positive unit keeps the order of
    the keys, so the enumeration, the first-built trees and the pruning
    are those of the rational coefficients.

    Returns (F, rounds, reached_fixpoint, unit): F maps keys to their
    first-constructed tree, and rounds counts the rounds that built a
    key.  Rounds are semi-naive: a tuple is only combined when at least
    one part is new since the previous round, so a key built in round r
    has a first-built tree of depth exactly r.  A kept set's generation
    is therefore the depth of its deepest tree; for the maximal keys that
    is the first round whose maximal set is final, as every other key is
    dominated by one.  The enumeration skips every branch whose tuples
    can have no frontier part (none chosen so far, and no frontier key
    starts after the last part's maximum); those would build nothing.
    A tuple stops growing at the most parts any level admits from its
    first part's minimum (families.part_bound): no longer one is admissible.

    What depends on one key alone is worked out once per key: where the
    keys that can follow it start in the sorted listing, and, per level,
    its coefficients times theta (_Bundled).  A level with a block bound
    admits a tuple by its part count (families.max_blocks); only an
    ExplicitFinite level builds the BlockPartition and asks is_admissible.
    """
    levels = rational_levels(spec, "norming sets need")
    if not indices:
        raise ValueError("need at least one index to seed from")
    den = math.lcm(*(theta.denominator for _, _, theta in levels))
    singletons = max_rounds is not None  # one-part bundles
    depth = 0 if singletons else len(indices) - 1
    unit = den ** depth
    F: dict = {}
    for i in indices:
        F[((i, unit),)] = FunctionalLeaf(i, 1)
    if len(F) > budget:
        raise BudgetExceededError(
            f"seeding {len(F)} unit functionals already exceeds budget {budget}")
    frontier = frozenset(F)
    # caps[i]: the most parts a tuple whose first part starts at i may have
    caps = {i: max(part_bound(family, i) for _, family, _ in levels) for i in indices}
    # per level, the parts it admits by first index, or None if its listed
    # sets decide (ExplicitFinite)
    bounds = [{i: max_blocks(family, i) for i in indices} for _, family, _ in levels]
    rounds = 0
    min_emit = 1 if singletons else 2
    bundled = [_Bundled(i, theta, unit) for i, _, theta in levels]

    while frontier and (max_rounds is None or rounds < max_rounds):
        if singletons and rounds == depth:
            step = max(depth, 1)
            factor = den ** step

            def scaled(key):
                return tuple((i, c * factor) for i, c in key)

            F = {scaled(key): tree for key, tree in F.items()}
            frontier = frozenset(map(scaled, frontier))
            depth += step
            unit *= factor
            bundled = [_Bundled(i, theta, unit) for i, _, theta in levels]
        listing = sorted(F)
        size = len(listing)
        minima = [key[0][0] for key in listing]
        # nexts[pos]: the first position whose key starts past listing[pos]
        nexts = [bisect_right(minima, key[-1][0]) for key in listing]
        fresh = [key in frontier for key in listing]
        # a frontier key sits at or after listing[pos] iff pos <= last
        last = bisect_left(listing, max(frontier))
        new: dict = {}

        def emit(parts):
            k = len(parts)
            first = parts[0][0][0]
            P = None
            for (level_index, family, theta), bound, scale in zip(levels, bounds, bundled):
                cap = bound[first]
                if cap is None:
                    if P is None:
                        P = BlockPartition(tuple(tuple(i for i, _ in key) for key in parts))
                    if not is_admissible(family, P):
                        continue
                elif k > cap:
                    continue
                ckey = ()
                for key in parts:
                    ckey += scale[key]
                if ckey in F or ckey in new:
                    continue
                new[ckey] = FunctionalNode(
                    level_index, theta, tuple(F[key] for key in parts))
                if len(F) + len(new) > budget:
                    raise BudgetExceededError(
                        f"norming closure exceeds the budget of {budget} functionals")

        def extend(parts, start, stop, has_frontier, cap):
            # each tuple parts + [listing[pos]], start <= pos < stop, then
            # its extensions; past `last` a tuple has no frontier part yet
            # and can gain none.  With no parts yet, cap is None and each
            # first part sets it.
            k = len(parts) + 1
            for pos in range(start, stop):
                parts.append(listing[pos])
                most = cap or caps[minima[pos]]
                if has_frontier or fresh[pos]:
                    if k >= min_emit:
                        emit(parts)
                    if k < most and nexts[pos] < size:
                        extend(parts, nexts[pos], size, True, most)
                elif k < most and nexts[pos] <= last:
                    extend(parts, nexts[pos], last + 1, False, most)
                parts.pop()

        try:
            extend([], 0, last + 1, False, None)
        finally:
            del extend  # it calls itself through its closure: no cycle outlives the round
        if not new:
            frontier = frozenset()
            break
        F.update(new)
        rounds += 1
        frontier = frozenset(new)

    return F, rounds, not frontier, unit


class _Bundled(dict):
    """key -> theta times the key, in the closure's int unit, worked out
    on a key's first use as a part at this level.  A coefficient that
    theta's denominator does not divide raises TsinormError (an internal
    failure: the unit is too coarse)."""

    def __init__(self, level_index: int, theta: Fraction, unit: int):
        super().__init__()
        self.level_index, self.theta, self.unit = level_index, theta, unit

    def __missing__(self, key):
        num, div = self.theta.numerator, self.theta.denominator
        if any(c % div for _, c in key):
            raise TsinormError(
                f"internal: a level-{self.level_index} bundle leaves the unit 1/{self.unit}")
        got = self[key] = tuple((i, c // div * num) for i, c in key)
        return got


def _maximal_keys(keys) -> frozenset:
    """Keys not coordinatewise dominated by a distinct key (all nonneg).

    A distinct key that dominates another has a strictly larger
    coefficient sum, and so does the maximal key above it; one pass in
    descending sum therefore only tests each key against those kept.
    Only a key whose support contains this one's can dominate it, so the
    kept keys are grouped by the bitmask of their indices and only the
    groups whose mask contains the key's are tested.  An index's bit is
    its position among the keys' indices, so a mask's size follows the
    support, not the largest index.
    """
    keys = sorted(keys, key=lambda k: sum(c for _, c in k), reverse=True)
    bits = {i: 1 << n for n, i in enumerate(sorted({i for key in keys for i, _ in key}))}
    out, kept = [], {}  # kept: support mask -> dicts of the kept keys
    for key in keys:
        mask = 0
        for i, _ in key:
            mask |= bits[i]
        if not _dominated(key, mask, kept):
            out.append(key)
            kept.setdefault(mask, []).append(dict(key))
    return frozenset(out)


def _dominated(key, mask: int, kept: dict) -> bool:
    for wider, group in kept.items():
        if wider & mask == mask:
            for od in group:
                for i, c in key:
                    if od[i] < c:
                        break
                else:
                    return True
    return False


def _sign_count(keys) -> int:
    """How many functionals the sign classes of `keys` hold."""
    return sum(2 ** len(key) for key in keys)


def _check_sign_budget(pairs, budget: int, context: str) -> None:
    """Raise BudgetExceededError, its message opened by `context`, if the
    sign variants of the (key, tree) pairs number more than `budget`."""
    total = _sign_count(key for key, _ in pairs)
    if total > budget:
        raise BudgetExceededError(
            f"{context}: sign expansion needs {total} functionals, budget {budget}")


def _expand_signs(patterns, unit: int) -> tuple:
    """Every sign variant of the (key, tree) pairs, sorted by coefficients.

    Keys are in the integer units of _closure.  A tree's variants are
    built from its children's variants, in the itertools.product order of
    the leaf signs, so every subtree object is shared by all the variants
    that contain it, across patterns too.  Each distinct coefficient and
    its negation become a Fraction once; the variants are sorted on their
    integer keys.  Callers check the budget first with _check_sign_budget.
    """
    variants: dict = {}
    scalars: dict = {}

    def pair(c):
        got = scalars.get(c)
        if got is None:
            q = Q(c, unit)
            got = scalars[c] = (q, -q)
        return got

    funcs = []
    for key, tree in patterns:
        ints = itertools.product(*[((i, c), (i, -c)) for i, c in key])
        coeffs = itertools.product(*[tuple((i, q) for q in pair(c)) for i, c in key])
        funcs.extend((k, NormingFunctional(FinVec(entries), t))
                     for k, entries, t in zip(ints, coeffs, _signed(tree, variants)))
    funcs.sort(key=itemgetter(0))
    return tuple(f for _, f in funcs)


def _signed(tree, variants: dict) -> tuple:
    """The sign variants of a tree, in the itertools.product order of its
    leaf signs; variants maps id(subtree) to those already built."""
    got = variants.get(id(tree))
    if got is None:
        if isinstance(tree, FunctionalLeaf):
            got = (tree, FunctionalLeaf(tree.index, -1))
        else:
            got = tuple(FunctionalNode(tree.level_index, tree.theta, children)
                        for children in itertools.product(
                            *[_signed(child, variants) for child in tree.children]))
        variants[id(tree)] = got
    return got


def build_norming_set(spec: MixedSpaceSpec, N: int,
                      budget: int = DEFAULT_NORMING_BUDGET) -> NormingSet:
    """Stabilized set of maximal functionals supported in [1, N].

    Runs the two-or-more-part bundling closure to its fixpoint, prunes
    everything coordinatewise absolutely dominated, and keeps the
    surviving patterns as sign classes (see NormingSet).  Requires
    rational weights on every level.  Needing more than `budget`
    functionals once sign-expanded raises BudgetExceededError rather
    than truncating.
    """
    if N < 1:
        raise ValueError(f"window bound must be >= 1, got {N}")
    pairs, unit = _maximal_patterns(spec, tuple(range(1, N + 1)), budget)
    _check_sign_budget(pairs, budget, f"norming set on window [1, {N}]")
    return NormingSet._of_classes(spec, N, pairs, unit,
                                  max(_depth(tree) for _, tree in pairs), stabilized=True)


# The dual-norm programs revisit the supports of a few dozen vectors and
# their sub-vectors; about 60 supports make up their largest working set.
# The norming-set builds and the stabilized import add the windows [1, N]
# they read.
_PATTERNS_KEPT = 128


@functools.lru_cache(maxsize=_PATTERNS_KEPT)
def _maximal_patterns(spec: MixedSpaceSpec, indices: tuple, budget: int) -> tuple:
    """(pairs, unit): the maximal nonnegative patterns supported inside
    the strictly increasing `indices`, as (int key, first-built tree)
    pairs sorted by key, the pattern being key / unit.  No Fraction is
    made here; the dual-norm programs run in this unit.

    The one way to the maximal patterns: results are kept in a bounded
    LRU cache keyed by (spec, indices, budget), so a repeated support or
    window returns the same tuple.  A closure over `budget` raises
    BudgetExceededError whatever was computed before; the sign variants
    are counted against the budget by each caller (_check_sign_budget),
    under its own message.  tsinorm.clear_caches() empties the cache."""
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise ValueError("indices must be strictly increasing")
    F, _, _, unit = _closure(spec, indices, budget, max_rounds=None)
    return tuple((key, F[key]) for key in sorted(_maximal_keys(F))), unit


def _generator_patterns(spec: MixedSpaceSpec, indices: tuple, budget: int) -> tuple:
    """_maximal_patterns, their sign variants counted against `budget`
    as norming_generators would build them."""
    patterns = _maximal_patterns(spec, indices, budget)
    _check_sign_budget(patterns[0], budget, f"norming generators on {list(indices)}")
    return patterns


def norming_generators(spec: MixedSpaceSpec, indices,
                       budget: int = DEFAULT_NORMING_BUDGET):
    """Maximal signed functionals whose support lies inside `indices`.

    Same construction as build_norming_set, seeded from an arbitrary
    strictly increasing index tuple instead of a full window:
    functionals supported outside a vector's support pair trivially with
    it, and filtering them is the same as closing over the support
    directly.  The dual-norm programs use the nonnegative patterns alone.
    """
    return _expand_signs(*_generator_patterns(spec, tuple(indices), budget))


def raw_norming_generation(spec: MixedSpaceSpec, N: int, generations: int,
                           budget: int = DEFAULT_NORMING_BUDGET) -> NormingSet:
    """The literal generation-n set: `generations` closure rounds from the
    signed units, one-part bundles included, nothing pruned.

    Mostly a diagnostic surface: evaluating against it reproduces the
    level-n approximation of the norm, and comparing it with the pruned
    set exhibits the pruning soundness property.
    """
    if generations < 0:
        raise ValueError(f"generation count must be >= 0, got {generations}")
    if N < 1:
        raise ValueError(f"window bound must be >= 1, got {N}")
    F, rounds, fixpoint, unit = _closure(spec, tuple(range(1, N + 1)), budget,
                                         max_rounds=generations)
    _check_sign_budget(F.items(), budget, f"raw generation {generations} on window [1, {N}]")
    return NormingSet._of_classes(spec, N, tuple(F.items()), unit,
                                  generation=rounds, stabilized=fixpoint)


# ---------------------------------------------------------------------------
# export / import

def _tree_writer(flip: bool):
    """write(tree) -> the texts of the tree's sign variants: with `flip`
    all 2^s of them, in the itertools.product order of _expand_signs,
    else the tree as it is (inside, such a writer keeps one str per
    subtree rather than a 1-tuple).

    A writer remembers every subtree it has written, so over one export
    the texts of a subtree that variants and classes share are joined
    once.  A tree nested deeper than parse_sexpr reads back raises
    TsinormError, so no export writes a tree its import refuses:
    heights are carried up with the texts, and the descent stops at the
    first node below that depth.
    """
    trees: dict = {}    # id(node) -> (variant texts, height)
    scalars: dict = {}  # id(theta) -> text

    def write(tree) -> tuple:
        if isinstance(tree, FunctionalLeaf):
            variants = _leaf_texts(tree, flip)
        else:
            variants, height = _node_texts(tree, 1, flip, trees, scalars)
            if height > SEXPR_MAX_DEPTH:
                raise _too_deep()
        return variants if flip else (variants,)

    return write


def _too_deep() -> TsinormError:
    return TsinormError(f"functional tree nested deeper than {SEXPR_MAX_DEPTH}")


def _leaf_texts(tree: FunctionalLeaf, flip: bool):
    """A leaf's text, with `flip` the pair (as it is, negated)."""
    text = f"e{tree.index}" if tree.sign > 0 else f"-e{tree.index}"
    if flip:
        return text, text[1:] if tree.sign < 0 else "-" + text
    return text


def _node_texts(tree: FunctionalNode, depth: int, flip: bool, trees: dict, scalars: dict):
    """(texts, height) of a node at `depth`, the writer's memos passed in
    (_tree_writer)."""
    got = trees.get(id(tree))
    if got is None:
        if depth > SEXPR_MAX_DEPTH:
            raise _too_deep()
        theta = scalars.get(id(tree.theta))
        if theta is None:
            theta = scalars[id(tree.theta)] = format_scalar(tree.theta)
        kids, height = [], 0
        for child in tree.children:
            if isinstance(child, FunctionalLeaf):
                kids.append(_leaf_texts(child, flip))
            else:
                variants, child_height = _node_texts(child, depth + 1, flip, trees, scalars)
                kids.append(variants)
                height = max(height, child_height)
        if flip:
            variants = tuple(f"({theta} {' '.join(combo)})"
                             for combo in itertools.product(*kids))
        else:
            variants = f"({theta} {' '.join(kids)})"
        got = trees[id(tree)] = variants, height + 1
    return got


def _class_lines(classes, unit: int, flip: bool) -> list:
    """(key, export line) for the sign variants of the (key, tree)
    classes, the key over `unit`: with `flip` all 2^s of them (see
    _tree_writer), else each class as it is.  Vector texts are joined
    from one string per (index, coefficient)."""
    write = _tree_writer(flip)
    signs = (1, -1) if flip else (1,)
    entries: dict = {}

    def entry(i, c):
        text = entries.get((i, c))
        if text is None:
            text = entries[(i, c)] = f"{i}:{format_scalar(Q(c, unit))}"
        return text

    out = []
    for key, tree in classes:
        keys = itertools.product(*[[(i, s * c) for s in signs] for i, c in key])
        vectors = itertools.product(*[[entry(i, s * c) for s in signs] for i, c in key])
        out.extend((k, f"{line}\t{' '.join(v)}")
                   for k, line, v in zip(keys, write(tree), vectors))
    return out


def export_norming_set(vset: NormingSet) -> str:
    """Serialize: metadata header lines, then one functional per line as
    `theta-tree s-expression <TAB> coefficient vector literal`.

    A built set's lines are written from its sign classes and sorted on
    their int keys, the order of its functionals; a set given its
    functionals writes them in their order, each as a class of one."""
    lines = [
        f"# norming-set space={vset.spec.name} window={vset.window} "
        f"generation={vset.generation} stabilized={str(vset.stabilized).lower()} "
        f"count={vset.cardinality}",
    ]
    for i, lev in enumerate(vset.spec.levels):
        lines.append(f"# level {i}: {lev.family} theta={format_theta(lev.theta)}")
    if vset._classes is None:
        rows = _class_lines([(f.coeffs.entries, f.tree) for f in vset.functionals], 1, False)
    else:
        rows = _class_lines(vset._classes, vset._unit, True)
        rows.sort(key=itemgetter(0))
    lines.extend(line for _, line in rows)
    return "\n".join(lines) + "\n"


def _parse_tree(node, spec: MixedSpaceSpec) -> tuple:
    """Rebuild one functional tree from a parse_sexpr node, as the pair
    (tree, coordinate dict).

    Each node goes to _node over every level of `spec`: the first level
    with the same rational theta whose family admits the children's
    supports.
    """
    if isinstance(node, str):
        sign, tok = (-1, node[1:]) if node.startswith("-") else (1, node)
        if not tok.startswith("e"):
            raise TsinormError(f"bad leaf token {node!r}: expected e<index>")
        index = parse_number(int, tok[1:], "leaf index")
        if index < 1:
            raise TsinormError(f"leaf index {index} out of range: must be >= 1")
        return FunctionalLeaf(index, sign), {index: Q(sign)}
    if not node:
        raise TsinormError("empty functional node")
    theta = parse_number(Q, node[0], "node weight")
    pairs = [_parse_tree(child, spec) for child in node[1:]]
    i, vec = _node(spec, theta, [v for _, v in pairs], range(len(spec.levels)))
    return FunctionalNode(i, theta, tuple(t for t, _ in pairs)), vec


def import_norming_set(text: str, spec: MixedSpaceSpec) -> NormingSet:
    """Parse an export and re-verify every functional against `spec`.

    The one header line must name spec and give window=, generation= and
    stabilized=, and may give count=, each once and no other field.  Each
    line's tree must recompute its vector column exactly, with admissible
    successive children at every node, supports inside the window, and no
    duplicate coefficient vectors.  The window
    must be the largest index in the lines and the generation the depth
    of the deepest tree, as in every set this module builds.  A stabilized
    set must list all 2^s sign variants of each functional of s entries,
    and its classes must be the maximal ones that build_norming_set finds
    on [1, window] (within the default budget), none missing and none
    extra.
    """
    header = None  # field -> value, once the header line is read
    named = f"norming-set space={spec.name}"
    level_lines = []
    funcs = []
    vectors = []
    seen = set()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("norming-set"):
                if header is not None:
                    raise TsinormError("norming-set export has a second header line")
                header = {}
                # the exporter writes the space name first, verbatim
                if body != named and not body.startswith(named + " "):
                    raise TsinormError(
                        f"export header {body!r} does not match space {spec.name!r}")
                for field in body[len(named):].split():
                    key, sep, value = field.partition("=")
                    if not sep or key == "space":
                        raise TsinormError(
                            f"export header {body!r} does not match space {spec.name!r}")
                    if key in header:
                        raise TsinormError(f"export header {body!r} repeats field {key!r}")
                    if key in ("window", "generation", "count"):
                        header[key] = parse_number(int, value, f"header {key}")
                    elif key == "stabilized":
                        if value not in ("true", "false"):
                            raise TsinormError(f"bad header stabilized {value!r}")
                        header[key] = value == "true"
                    else:
                        raise TsinormError(f"export header {body!r} has unknown field {key!r}")
            elif body.startswith("level"):
                level_lines.append(body)
            continue
        expr, sep, vec_text = line.partition("\t")
        if not sep:
            raise TsinormError(
                f"bad functional line {line!r}: expected tree<TAB>vector")
        tree, vec = _parse_tree(parse_sexpr(expr), spec)
        funcs.append(NormingFunctional(parse_vector(vec_text), tree))
        vectors.append(vec)

    if header is None or "window" not in header or "generation" not in header:
        raise TsinormError("missing norming-set metadata header")
    window, generation = header["window"], header["generation"]
    stabilized = header.get("stabilized")
    if stabilized is None:
        raise TsinormError("norming-set header has no stabilized= field")
    expected_levels = [f"level {i}: {lev.family} theta={format_theta(lev.theta)}"
                       for i, lev in enumerate(spec.levels)]
    if level_lines != expected_levels:
        raise TsinormError(
            f"export level metadata {level_lines!r} does not match space {spec.name!r}")
    count = header.get("count")
    if count is not None and count != len(funcs):
        raise TsinormError(
            f"header count {count} does not match {len(funcs)} functional lines")
    if not funcs:
        raise TsinormError("norming-set export has no functional lines")
    # _parse_tree already matched every node to an admissible level of spec
    for f, vec in zip(funcs, vectors):
        _check_column(f, vec, window)
        if f.coeffs.entries in seen:
            raise TsinormError(
                f"duplicate functional {format_vector(f.coeffs)!r}")
        seen.add(f.coeffs.entries)
    # a built set holds e_window, and its key born in round r has depth r
    top = max(f.coeffs.support[-1] for f in funcs)
    if window != top:
        raise TsinormError(f"header window {window} differs from the largest index {top}")
    depth = max(_depth(f.tree) for f in funcs)
    if generation != depth:
        raise TsinormError(
            f"header generation {generation} differs from the deepest tree's depth {depth}")
    # the lines are distinct, so a class of 2^s lines holds every sign variant
    classes = Counter(f.coeffs.abs() for f in funcs) if stabilized else {}
    if any(n != 2 ** len(rep.entries) for rep, n in classes.items()):
        raise TsinormError("stabilized=true export lacks a sign variant of some functional")
    if stabilized:
        # a stabilized set holds exactly the maximal classes on its window
        pairs, unit = _maximal_patterns(spec, tuple(range(1, window + 1)),
                                        DEFAULT_NORMING_BUDGET)
        _check_sign_budget(pairs, DEFAULT_NORMING_BUDGET, f"norming set on window [1, {window}]")
        built = {tuple((i, Q(c, unit)) for i, c in key) for key, _ in pairs}
        given = {rep.entries for rep in classes}
        if given != built:
            raise TsinormError(
                f"stabilized=true export does not hold the maximal classes on window "
                f"[1, {window}]: {len(built - given)} missing, {len(given - built)} extra")
    return NormingSet(spec, window, tuple(funcs), generation, stabilized)


def _depth(tree: FunctionalTree) -> int:
    if isinstance(tree, FunctionalLeaf):
        return 0
    return 1 + max(_depth(c) for c in tree.children)
