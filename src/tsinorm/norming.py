"""Norming sets on a finite index window.

The dual ball of these norms is generated from the signed unit
functionals by bundling: an admissible successive tuple f_1 < ... < f_k
becomes the new functional theta_l * (f_1 + ... + f_k).  On a window
[1, N] the bundling closure over tuples with two or more parts is
finite, so it can be materialised in full, pruned to its coordinatewise
maximal elements, and then evaluated exactly by a scan.

Three structural facts shape the construction:

* Signs factor out.  Flipping leaf signs commutes with bundling over
  disjoint supports, so the closure is run on nonnegative
  representatives and the sign variants are expanded once at the end.
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

Everything from the closure to the export runs in integers.  Closure
keys hold int coefficients in one unit den**depth (_closure), the sign
variants of a tree are built from its children's variants so that they
share every subtree (_expand_signs), and the export writes each shared
subtree and each scalar once (_tree_sexpr).  Fractions are made only for
public objects: one per distinct coefficient and its negation in the
expanded functionals, the coefficients of the kept patterns that the
dual-norm programs read, and the sign-class representatives tau pairs
with, which are built on its first call.
"""
from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
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


def _bundle(theta: Fraction, child_vectors) -> tuple:
    """The one node rule: theta times the sum of successive children, as
    (coordinate dict, partition of the child supports).  Raises
    TsinormError for no children or children that are not successive."""
    if not child_vectors:
        raise TsinormError("node without children")
    try:
        P = BlockPartition(tuple(tuple(sorted(v)) for v in child_vectors))
    except ValueError as exc:
        raise TsinormError(f"children are not successive: {exc}") from None
    return {i: theta * c for v in child_vectors for i, c in v.items()}, P


def _flip_tree(tree: FunctionalTree, signs: dict) -> FunctionalTree:
    if isinstance(tree, FunctionalLeaf):
        return FunctionalLeaf(tree.index, tree.sign * signs.get(tree.index, 1))
    return FunctionalNode(tree.level_index, tree.theta,
                          tuple(_flip_tree(c, signs) for c in tree.children))


def verify_norming_functional(spec: MixedSpaceSpec, f: NormingFunctional,
                              window: Optional[int] = None) -> None:
    """Re-check a functional against its tree; raise TsinormError if bad.

    Checks: the tree recomputes exactly the stored coordinate vector,
    every node uses a level of `spec` with matching rational theta and an
    admissible successive child tuple, and (optionally) the support stays
    inside [1, window].  One bottom-up walk recomputes every node once.
    """
    def walk(tree: FunctionalTree) -> dict:
        if isinstance(tree, FunctionalLeaf):
            return {tree.index: Q(tree.sign)}
        if not isinstance(tree, FunctionalNode):
            raise TsinormError(f"not a functional tree node: {tree!r}")
        if not 0 <= tree.level_index < len(spec.levels):
            raise TsinormError(f"level index {tree.level_index} out of range")
        level = spec.levels[tree.level_index]
        if not theta_is_rational(level.theta) or Q(level.theta) != tree.theta:
            raise TsinormError(
                f"node weight {tree.theta} does not match level {tree.level_index}")
        vec, P = _bundle(tree.theta, [walk(child) for child in tree.children])
        if not is_admissible(level.family, P):
            raise TsinormError(
                f"child supports {list(P.blocks)} are not admissible for level "
                f"{tree.level_index}")
        return vec

    _check_column(f, walk(f.tree), window)


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

@dataclass(frozen=True)
class NormingSet:
    """An immutable batch of norming functionals over the window [1, N].

    `generation` is the first closure round whose maximal set already
    equals the final one; `stabilized` records whether the construction
    actually ran to that fixpoint (the literal generation-n sets exported
    by raw_norming_generation leave it False when truncated).
    """
    spec: MixedSpaceSpec
    window: int
    functionals: Tuple[NormingFunctional, ...]
    generation: int
    stabilized: bool

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window bound must be >= 1, got {self.window}")
        if not self.functionals:
            raise ValueError("a norming set needs at least one functional")

    @property
    def cardinality(self) -> int:
        return len(self.functionals)

    @functools.cached_property
    def _abs_reps(self) -> Optional[tuple]:
        """The sign classes' nonnegative representatives, sorted by entries,
        if every class holds its 2^s distinct sign variants (tau may then
        pair them with |x|), else None.  Built on tau's first call."""
        classes: dict = {}
        for f in self.functionals:
            classes.setdefault(f.coeffs.abs(), set()).add(f.coeffs)
        if any(len(signed) != 2 ** len(rep.entries) for rep, signed in classes.items()):
            return None
        return tuple(sorted(classes, key=lambda v: v.entries))


def tau(vset: NormingSet, x: FinVec) -> Fraction:
    """max f(x) over the stored functionals; supp(x) must fit the window."""
    support = x.support
    if support and support[-1] > vset.window:
        raise TsinormError(
            f"support {support} outside window [1, {vset.window}]")
    reps = vset._abs_reps
    if reps is not None:
        xa = x.abs()
        return max(pairing(rep, xa) for rep in reps)
    return max(pairing(f.coeffs, x) for f in vset.functionals)


# ---------------------------------------------------------------------------
# closure construction

def _k_cap(levels: tuple, first_min: int) -> int:
    """Upper bound on the part count of any admissible tuple whose first
    part has minimum first_min.  Only a pruning bound; admissibility is
    re-checked exactly on emission."""
    cap = 1
    for _, family, _ in levels:
        c = max_blocks(family, first_min)
        if c is None:
            c = max((len(M) for M in family.sets if M[0] <= first_min), default=0)
        cap = max(cap, c)
    return cap


def _closure(spec: MixedSpaceSpec, indices: tuple, budget: int,
             include_singletons: bool, max_rounds: Optional[int]):
    """Bundling closure over nonnegative representatives, in integer units.

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
    every node has two or more children, so depth = len(indices) - 1 is
    fixed before the first round.  One-part chains nest one level deeper
    per round without bound, so with them depth starts at 0 and, each
    time the rounds run reach it, every key is rescaled to a unit that
    holds twice as deep (1, 2, 4, ...): depth stays at most one more than
    twice the rounds actually run, never max_rounds, and the rescaling
    takes a logarithmic number of passes.  A positive unit keeps the
    order of the keys, so the enumeration, the first-built trees and the
    pruning are those of the rational coefficients.

    Returns (F, rounds, reached_fixpoint, unit): F maps keys to their
    first-constructed tree, and rounds counts the rounds that built a
    key.  Rounds are semi-naive: a tuple is only combined when at least
    one part is new since the previous round, so a key built in round r
    has a first-built tree of depth exactly r.  A kept set's generation
    is therefore the depth of its deepest tree; for the maximal keys that
    is the first round whose maximal set is final, as every other key is
    dominated by one.
    """
    levels = rational_levels(spec, "norming sets need")
    if not indices:
        raise ValueError("need at least one index to seed from")
    den = math.lcm(*(theta.denominator for _, _, theta in levels))
    depth = 0 if include_singletons else len(indices) - 1
    unit = den ** depth
    F: dict = {}
    for i in indices:
        F[((i, unit),)] = FunctionalLeaf(i, 1)
    if len(F) > budget:
        raise BudgetExceededError(
            f"seeding {len(F)} unit functionals already exceeds budget {budget}")
    frontier = frozenset(F)
    cap_cache: dict = {}
    rounds = 0
    min_emit = 1 if include_singletons else 2

    while frontier and (max_rounds is None or rounds < max_rounds):
        if include_singletons and rounds == depth:
            step = max(depth, 1)
            factor = den ** step

            def scaled(key):
                return tuple((i, c * factor) for i, c in key)

            F = {scaled(key): tree for key, tree in F.items()}
            frontier = frozenset(map(scaled, frontier))
            depth += step
            unit *= factor
        listing = sorted(F)
        minima = [key[0][0] for key in listing]
        new: dict = {}

        def emit(parts, has_frontier):
            if not has_frontier:
                return
            supports = tuple(tuple(i for i, _ in key) for key in parts)
            P = BlockPartition(supports)
            for level_index, family, theta in levels:
                if not is_admissible(family, P):
                    continue
                num, div = theta.numerator, theta.denominator
                if any(c % div for key in parts for _, c in key):
                    raise TsinormError(
                        f"internal: a level-{level_index} bundle leaves the unit 1/{unit}")
                ckey = tuple((i, c // div * num) for key in parts for i, c in key)
                if ckey in F or ckey in new:
                    continue
                new[ckey] = FunctionalNode(
                    level_index, theta, tuple(F[key] for key in parts))
                if len(F) + len(new) > budget:
                    raise BudgetExceededError(
                        f"norming closure exceeds the budget of {budget} functionals")

        def extend(parts, last_max, has_frontier):
            k = len(parts)
            if k >= min_emit:
                emit(parts, has_frontier)
            if parts:
                first_min = parts[0][0][0]
                cap = cap_cache.get(first_min)
                if cap is None:
                    cap = _k_cap(levels, first_min)
                    cap_cache[first_min] = cap
                if k >= cap:
                    return
            for pos in range(bisect_right(minima, last_max), len(listing)):
                key = listing[pos]
                extend(parts + [key], key[-1][0],
                       has_frontier or key in frontier)

        extend([], 0, False)
        if not new:
            frontier = frozenset()
            break
        F.update(new)
        rounds += 1
        frontier = frozenset(new)

    return F, rounds, not frontier, unit


def _maximal_keys(keys) -> frozenset:
    """Keys not coordinatewise dominated by a distinct key (all nonneg).

    A distinct key that dominates another has a strictly larger
    coefficient sum, and so does the maximal key above it; one pass in
    descending sum therefore only tests each key against those kept.
    """
    out, kept = [], []
    for key in sorted(keys, key=lambda k: sum(c for _, c in k), reverse=True):
        if not any(len(od) >= len(key) and all(od.get(i, 0) >= c for i, c in key)
                   for od in kept):
            out.append(key)
            kept.append(dict(key))
    return frozenset(out)


def _check_sign_budget(keys, budget: int, context: str) -> None:
    total = sum(2 ** len(key) for key in keys)
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

    def signed(tree):
        got = variants.get(id(tree))
        if got is None:
            if isinstance(tree, FunctionalLeaf):
                got = (tree, FunctionalLeaf(tree.index, -1))
            else:
                got = tuple(FunctionalNode(tree.level_index, tree.theta, children)
                            for children in itertools.product(*map(signed, tree.children)))
            variants[id(tree)] = got
        return got

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
                     for k, entries, t in zip(ints, coeffs, signed(tree)))
    funcs.sort(key=itemgetter(0))
    return tuple(f for _, f in funcs)


def build_norming_set(spec: MixedSpaceSpec, N: int,
                      budget: int = DEFAULT_NORMING_BUDGET) -> NormingSet:
    """Stabilized set of maximal functionals supported in [1, N].

    Runs the two-or-more-part bundling closure to its fixpoint, prunes
    everything coordinatewise absolutely dominated, and sign-expands the
    surviving patterns.  Requires rational weights on every level.
    Exceeding `budget` materialised functionals raises
    BudgetExceededError rather than truncating.
    """
    if N < 1:
        raise ValueError(f"window bound must be >= 1, got {N}")
    pairs, unit = _maximal(spec, range(1, N + 1), budget,
                           f"norming set on window [1, {N}]")
    return NormingSet(spec, N, _expand_signs(pairs, unit),
                      max(_depth(tree) for _, tree in pairs), stabilized=True)


def _maximal(spec: MixedSpaceSpec, indices, budget: int,
             context: Optional[str] = None) -> tuple:
    """(pairs, unit): the maximal keys of the closure over `indices`, in
    its integer units and sorted, each paired with its first-built tree.

    Their sign variants are counted against `budget` as if expanded, so
    a caller working on the patterns alone keeps norming_generators'
    budget without building the variants; `context` opens the message of
    a budget overrun.
    """
    indices = tuple(indices)
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise ValueError("indices must be strictly increasing")
    F, _, _, unit = _closure(spec, indices, budget, include_singletons=False,
                             max_rounds=None)
    keys = sorted(_maximal_keys(F))
    _check_sign_budget(keys, budget, context or f"norming generators on {list(indices)}")
    return tuple((key, F[key]) for key in keys), unit


# The dual-norm programs revisit the supports of a few dozen vectors and
# their sub-vectors; about 60 supports make up their largest working set.
_PATTERNS_KEPT = 128


@functools.lru_cache(maxsize=_PATTERNS_KEPT)
def _maximal_patterns(spec: MixedSpaceSpec, indices: tuple, budget: int) -> tuple:
    """_maximal's (pairs, unit) for the maximal nonnegative patterns
    supported inside `indices`: (int key, first-built tree) pairs sorted
    by key, the pattern being key / unit.  No Fraction is made here; the
    dual-norm programs run in this unit.

    Results are kept in a bounded LRU cache keyed by (spec, indices,
    budget), so a repeated support returns the same tuple, and a budget
    too small for the closure raises BudgetExceededError whatever was
    computed before.  tsinorm.clear_caches() empties it."""
    return _maximal(spec, indices, budget)


def norming_generators(spec: MixedSpaceSpec, indices,
                       budget: int = DEFAULT_NORMING_BUDGET):
    """Maximal signed functionals whose support lies inside `indices`.

    Same construction as build_norming_set, seeded from an arbitrary
    strictly increasing index tuple instead of a full window:
    functionals supported outside a vector's support pair trivially with
    it, and filtering them is the same as closing over the support
    directly.  The dual-norm programs use the nonnegative patterns alone.
    """
    return _expand_signs(*_maximal(spec, indices, budget))


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
                                         include_singletons=True, max_rounds=generations)
    _check_sign_budget(F, budget, f"raw generation {generations} on window [1, {N}]")
    return NormingSet(spec, N, _expand_signs(F.items(), unit),
                      generation=rounds, stabilized=fixpoint)


# ---------------------------------------------------------------------------
# export / import

def _tree_sexpr(tree: FunctionalTree, depth: int = 1,
                memo: Optional[dict] = None) -> str:
    """The tree as text; nesting deeper than parse_sexpr reads back raises
    TsinormError, so no export writes a tree its import refuses.

    `memo`, kept for one export, holds the text of every scalar by id and
    of every subtree by (id, depth): the subtrees that sign variants
    share are written once per depth they sit at, so the guard still
    sees every depth a text lands at.
    """
    if isinstance(tree, FunctionalLeaf):
        return f"e{tree.index}" if tree.sign > 0 else f"-e{tree.index}"
    if depth > SEXPR_MAX_DEPTH:
        raise TsinormError(f"functional tree nested deeper than {SEXPR_MAX_DEPTH}")
    if memo is None:
        memo = {}
    key = (id(tree), depth)
    text = memo.get(key)
    if text is None:
        inner = " ".join(_tree_sexpr(c, depth + 1, memo) for c in tree.children)
        text = memo[key] = f"({_scalar_text(tree.theta, memo)} {inner})"
    return text


def _scalar_text(q: Fraction, memo: dict) -> str:
    text = memo.get(id(q))
    if text is None:
        text = memo[id(q)] = format_scalar(q)
    return text


def export_norming_set(vset: NormingSet) -> str:
    """Serialize: metadata header lines, then one functional per line as
    `theta-tree s-expression <TAB> coefficient vector literal`."""
    lines = [
        f"# norming-set space={vset.spec.name} window={vset.window} "
        f"generation={vset.generation} stabilized={str(vset.stabilized).lower()} "
        f"count={len(vset.functionals)}",
    ]
    for i, lev in enumerate(vset.spec.levels):
        lines.append(f"# level {i}: {lev.family} theta={format_theta(lev.theta)}")
    memo: dict = {}
    for f in vset.functionals:
        vector = " ".join([f"{i}:{_scalar_text(c, memo)}" for i, c in f.coeffs.entries])
        lines.append(f"{_tree_sexpr(f.tree, 1, memo)}\t{vector}")
    return "\n".join(lines) + "\n"


def _parse_tree(node, spec: MixedSpaceSpec) -> tuple:
    """Rebuild one functional tree from a parse_sexpr node, as the pair
    (tree, coordinate dict).

    Node weights are matched back to the first level of `spec` with the
    same rational theta whose family admits the children's supports.
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
    vec, P = _bundle(theta, [v for _, v in pairs])
    for i, lev in enumerate(spec.levels):
        if theta_is_rational(lev.theta) and Q(lev.theta) == theta \
                and is_admissible(lev.family, P):
            return FunctionalNode(i, theta, tuple(t for t, _ in pairs)), vec
    raise TsinormError(
        f"no level of space {spec.name!r} has weight {theta} and "
        f"admits child supports {list(P.blocks)}")


def import_norming_set(text: str, spec: MixedSpaceSpec) -> NormingSet:
    """Parse an export and re-verify every functional against `spec`.

    The header must name spec and give window=, generation= and
    stabilized=.  Each line's tree must recompute its vector column
    exactly, with admissible successive children at every node, supports
    inside the window, and no duplicate coefficient vectors.  The window
    must be the largest index in the lines and the generation the depth
    of the deepest tree, as in every set this module builds.
    """
    header = {}
    stabilized = None
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
                # the exporter writes the space name first, verbatim
                if body != named and not body.startswith(named + " "):
                    raise TsinormError(
                        f"export header {body!r} does not match space {spec.name!r}")
                for field in body[len(named):].split():
                    key, sep, value = field.partition("=")
                    if not sep or key == "space":
                        raise TsinormError(
                            f"export header {body!r} does not match space {spec.name!r}")
                    if key in ("window", "generation", "count"):
                        header[key] = parse_number(int, value, f"header {key}")
                    elif key == "stabilized":
                        if value not in ("true", "false"):
                            raise TsinormError(f"bad header stabilized {value!r}")
                        stabilized = value == "true"
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

    window, generation = header.get("window"), header.get("generation")
    if window is None or generation is None:
        raise TsinormError("missing norming-set metadata header")
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
    return NormingSet(spec, window, tuple(funcs), generation, stabilized)


def _depth(tree: FunctionalTree) -> int:
    if isinstance(tree, FunctionalLeaf):
        return 0
    return 1 + max(_depth(c) for c in tree.children)
