"""Dual norms computed exactly as the gauge of the generated ball.

The unit ball of the dual norm is the closed convex hull of the norming
functionals together with zero.  For a finitely supported x that gauge
is a linear program, and the value gets pinned from both sides:

* ball program: largest pairing of x against a vector of primal norm at
  most one (each such vector is a lower bound),
* hull side: least total weight writing x as a nonnegative combination
  of stored functionals (each such combination is an upper bound).

Both run over the maximal nonnegative patterns a, one per absolute value
class, never over their 2^|supp a| sign variants.  The dual ball is
unconditional (closed under sign flips), so the hull gauge is the
dominance program min sum(c_a) subject to sum(c_a * a) >= |x|, the LP
dual of the ball program.  Only the ball program is solved; its
KKT-verified duals are a dominance optimum, and the signed hull terms
are rebuilt from them by arithmetic: each term is cut down to the part
of |x| it covers, and the cut vector, a coordinatewise shrink r*a of a
with r in [0, 1], is a convex combination of at most |supp a| + 1 sign
flips of a (a staircase split).  Terms that miss x or the ball value are
an internal failure, never an answer.  The implicit-equation checker
reduces to these exact values.

The whole path runs in the norming closure's integer unit: the patterns
arrive as int keys over one unit, the ball program goes to
lp.solve_integer as integer rows (key . z <= unit, cost |x| times the
lcm of its denominators) and comes back over the tableau's denominator,
and the cut, the staircase split and the hull-sum check are int
operations.  Fractions are made only for what a certificate prints: the
value, the ball vector, and each hull term's weight and coefficients.

The rho upper iterates need no LP, and keep no state between calls.
rho_partition_upper, rho_chain and the parts of rho_with_splits_upper
read levels from covers.iterates, one bottom-up window pass per level,
minimising from the l1 norm; sigma_ell1_variant, their limit, is one
fixpoint pass (covers.fixpoint).  falsify_ell1_variant values the limit
at all its vectors, and then at each row of pair sums, in one shared
pass each (covers.fixpoints), and runs its pair loop on integer codes.
verify_implicit_equation walks every admissible cover one by one
(covers.cover_branches), because it reports the partition count and
every violating branch.

Patterns are built over supp(x) rather than the whole window [1, max
supp(x)]: admissibility only reads supports, so the closure over the
sub-index-set holds exactly the window functionals supported inside
supp(x), and the discarded ones pair with x through zero coordinates
only.  Pruning to maximal patterns is also harmless here: the sign
variants of a dominating pattern span a coordinate box that contains
every vector it dominates, so the convex hull is unchanged.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .core import (
    DEFAULT_NORMING_BUDGET,
    DEFAULT_THETA_PRECISION,
    BlockPartition,
    FinVec,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    check_precision,
    format_scalar,
    format_vector,
    pairing,
    parse_number,
    parse_sexpr,
    parse_vector,
    restrict,
)
from .covers import cover_branches, fixpoint, fixpoints, iterates
from .families import (
    Level,
    MixedSpaceSpec,
    rational_levels,
    resolve_theta,
    spec_from_config,
    spec_to_config,
    theta_is_rational,
)
# solve is not called here; the benchmark's tracing test reads it through
# this module, as it reads the witness parser through _sexpr_nodes.
from .lp import IntegerProgram, solve, solve_integer  # noqa: F401
from .norming import (
    NormingFunctional,
    _flip_tree,
    _maximal_patterns,
    _parse_tree as _parse_functional_tree,
    _tree_sexpr as _functional_sexpr,
    verify_norming_functional,
)
from .primal import (
    Leaf,
    PrimalCertificate,
    Split,
    mixed_norm,
    verify_primal_certificate,
)

Q = Fraction

# The implicit-equation and lemma checks revisit the sub-vectors and
# splits of x.  A sweep over all 4095 nonzero |x| with entries in
# {0, 1/2, 1, 2} on [1, 6] re-reads every one of them, so the cache holds
# twice that; an entry takes about 1 KB.
_VALUES_KEPT = 8192


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class HullTerm:
    weight: Fraction
    functional: NormingFunctional


@dataclass(frozen=True)
class DualCertificate:
    """Both optimal witnesses for one dual-norm value.

    The hull terms satisfy sum(weight * functional) = x with weights
    summing to the value; the ball vector y has primal norm at most one
    (its certificate attains that norm) and pairs with x to the value.
    """
    value: Fraction
    hull_terms: Tuple[HullTerm, ...]
    ball_vector: FinVec
    ball_certificate: PrimalCertificate


@dataclass(frozen=True)
class RhoIterate:
    n: int
    value: Fraction
    mode: str = "partition-only"


# Only the dual norm has an enclosure variant; the enumerators have none.
_BOUNDS_HINT = " (use dual_norm_bounds for enclosures)"


def _ball_program(pairs: tuple, unit: int, xa_entries: tuple) -> IntegerProgram:
    """max <|x|, z> over z >= 0 with a.z <= 1 for every nonnegative
    maximal pattern a, given as (key, tree) `pairs` in the closure's
    integer unit (a = key / unit), the _maximal_patterns of supp(x).  By
    sign completeness this equals the maximum of <x, y> over the whole
    dual-ball polar, and |x|'s best y is sign(x)*z.

    In integers: row a is key . z <= unit divided by the gcd g of unit and
    the key's entries, so its scale is unit / g, and the cost is |x| times
    the lcm of its denominators.  The gcd keeps the tableau's integers as
    small as reduced fractions would.
    """
    position = {i: k for k, (i, _) in enumerate(xa_entries)}
    blank = [0] * len(xa_entries)
    rows, scales = [], []
    for key, _ in pairs:
        g = math.gcd(unit, *(c for _, c in key))
        row = blank.copy()
        for i, c in key:
            row[position[i]] = c // g
        rows.append((tuple(row), "<=", unit // g))
        scales.append(unit // g)
    scale = math.lcm(*(c.denominator for _, c in xa_entries))
    cost = tuple(c.numerator * (scale // c.denominator) for _, c in xa_entries)
    return IntegerProgram(cost, tuple(rows), tuple(scales), scale)


def _solve_ball(pairs: tuple, unit: int, xa_entries: tuple):
    """Solve _ball_program.  Returns (value, z as dict, weights, den):
    weights[k] / den is the verified multiplier of pattern k's row
    a . z <= 1, and the weights are an optimum of the dominance program."""
    prog = _ball_program(pairs, unit, xa_entries)
    sol = solve_integer(prog)
    if sol.status != "optimal":
        raise TsinormError(
            f"ball program ended {sol.status}; this cannot happen for a "
            "seeded generator set")
    den = sol.den * prog.cost_scale
    z = {i: Q(v, sol.den) for (i, _), v in zip(xa_entries, sol.x) if v}
    weights = tuple(s * y for s, y in zip(prog.row_scale, sol.y))
    return Q(sol.value, den), z, weights, den


def _hull_terms(pairs: tuple, unit: int, x: FinVec, weights: tuple, den: int,
                value: Fraction) -> tuple:
    """Signed hull terms of total weight `value` that combine to x.

    weights[k] / den is the dominance weight c of pattern k in `pairs`
    (a = key / unit), the _maximal_patterns of supp(x).  With S the lcm
    of x's denominators, c * a_i is weights[k] * key_i * S and |x_i| is
    |x_i| * S * den * unit in the unit 1 / (S * den * unit), so a greedy
    pass over the patterns cuts each term c * a down to the part of |x|
    still uncovered by int compares.  The cut term is c * (r * a) with
    r_i = part_i / (weights[k] * key_i * S) in [0, 1]; _staircase_terms
    writes it as signed terms, with r_i scaled to shares over the lcm K
    of the used keys' entries.  Weights that are not a dominance optimum
    of value `value` raise TsinormError: the build itself is broken.
    Only the returned terms become Fractions.
    """
    scale = math.lcm(*(c.denominator for _, c in x.entries))
    uncovered = {i: abs(c.numerator) * (scale // c.denominator) * den * unit
                 for i, c in x.entries}
    signs = {i: (1 if c > 0 else -1) for i, c in x.entries}
    used = [(key, tree, w) for (key, tree), w in zip(pairs, weights, strict=True) if w]
    K = math.lcm(*(c for key, _, _ in used for _, c in key))
    raw = []
    for key, tree, w in used:
        top = w * scale
        shares = {}
        for i, c in key:
            part = min(top * c, uncovered[i])
            uncovered[i] -= part
            shares[i] = part * (K // c)
        raw.extend(_staircase_terms(top * K, key, tree, shares, signs))
    if any(uncovered.values()):
        raise TsinormError(
            f"internal consistency failure: hull terms leave part of |x| "
            f"uncovered for x = {x.to_dict()}")
    # a staircase weight t of pattern k stands for c * t / (2 * top * K),
    # that is t / weight_den
    weight_den = 2 * den * scale * K
    _check_hull_sum(x, value, [(t, coeffs) for t, coeffs, _ in raw], weight_den, unit)
    return tuple(HullTerm(Q(t, weight_den),
                          NormingFunctional(FinVec(tuple((i, Q(c, unit)) for i, c in coeffs)),
                                            tree))
                 for t, coeffs, tree in raw)


def _check_hull_sum(x: FinVec, value: Fraction, terms, weight_den: int,
                    coeff_den: int) -> None:
    """Raise TsinormError unless the weights sum to value and the
    weighted functionals to x.  terms holds (weight, coefficients) pairs
    in integers: a weight w stands for w / weight_den and a coefficient
    (i, c) for c / coeff_den, so every comparison is an int compare."""
    total = 0
    combo: dict = {}
    for w, coeffs in terms:
        total += w
        for i, c in coeffs:
            combo[i] = combo.get(i, 0) + w * c
    if total * value.denominator != value.numerator * weight_den:
        raise TsinormError(
            f"hull weights sum to {Q(total, weight_den)}, certificate claims {value}")
    unit = weight_den * coeff_den
    combo = {i: c for i, c in combo.items() if c}
    if combo.keys() != {i for i, _ in x.entries} or any(
            combo[i] * q.denominator != q.numerator * unit for i, q in x.entries):
        raise TsinormError("hull combination does not reproduce x")


def _staircase_terms(top: int, key: tuple, tree, shares: dict, signs: dict) -> list:
    """sign(x) * (shares / top) * key as signed terms on sign flips of key.

    Coordinate i is taken positive with probability
    p_i = (1 + shares[i] / top) / 2, whose expected sign is
    r_i = shares[i] / top in [0, 1].  With the coordinates ordered by p
    descending, vertex k is positive on the first k of them and carries
    p_(k) - p_(k+1) (p_(0) = 1, p_(n+1) = 0), so the weights sum to one and
    every coordinate is positive with its own probability.  In integers,
    2 * top * p_(k) is top + shares_(k), so vertex k gets the integer
    weight shares_(k) - shares_(k+1) with shares_(0) = top and
    shares_(n+1) = -top, of total 2 * top.  Zero weights are dropped,
    leaving at most |supp key| + 1 (weight, signed key, flipped tree)
    triples.
    """
    order = sorted(shares, key=lambda i: -shares[i])
    steps = [top] + [shares[i] for i in order] + [-top]
    terms = []
    for k in range(len(order) + 1):
        w = steps[k] - steps[k + 1]
        if w == 0:
            continue
        flips = {i: signs[i] if pos < k else -signs[i] for pos, i in enumerate(order)}
        terms.append((w, tuple((i, flips[i] * c) for i, c in key), _flip_tree(tree, flips)))
    return terms


def dual_norm_value(spec: MixedSpaceSpec, x: FinVec,
                    budget: int = DEFAULT_NORMING_BUDGET) -> Fraction:
    """Exact dual norm, ball program only (no certificate assembled).

    The fast path for the iterators and checkers that need many values;
    dual_norm solves the same program and also rebuilds the hull terms
    from its duals.  The norm only depends on absolute values, so values
    are kept in a bounded LRU cache keyed by (spec, |x|, budget), shared
    across sign patterns; a budget too small for the closure raises
    BudgetExceededError whatever was computed before.
    """
    rational_levels(spec, "dual_norm needs", _BOUNDS_HINT)
    if x.is_zero:
        return Q(0)
    return _ball_value(spec, x.abs().entries, budget)


@functools.lru_cache(maxsize=_VALUES_KEPT)
def _ball_value(spec: MixedSpaceSpec, xa_entries: tuple, budget: int) -> Fraction:
    """The ball program's value at |x|, given as its entries."""
    support = tuple(i for i, _ in xa_entries)
    return _solve_ball(*_maximal_patterns(spec, support, budget), xa_entries)[0]


def dual_norm(spec: MixedSpaceSpec, x: FinVec,
              budget: int = DEFAULT_NORMING_BUDGET):
    """Exact dual norm with a doubly-witnessed certificate.

    Returns (value, DualCertificate).  One ball program gives the value,
    the ball vector and, through its verified duals, the hull terms;
    terms that do not reproduce x at that value raise TsinormError since
    they would mean the build itself is broken.  The ball witness is fed
    back through the primal recursion to certify it really lies in the
    unit ball.
    """
    rational_levels(spec, "dual_norm needs", _BOUNDS_HINT)
    if x.is_zero:
        value, cert = mixed_norm(spec, FinVec.zero())
        return Q(0), DualCertificate(Q(0), (), FinVec.zero(), cert)
    pairs, unit = _maximal_patterns(spec, x.support, budget)
    value, z, weights, den = _solve_ball(pairs, unit, x.abs().entries)
    terms = _hull_terms(pairs, unit, x, weights, den, value)
    signs = {i: (1 if c > 0 else -1) for i, c in x.entries}
    y = FinVec.from_items({i: signs[i] * v for i, v in z.items()})
    return value, DualCertificate(value, terms, y, _ball_certificate(spec, x, y, value))


def verify_dual_certificate(spec: MixedSpaceSpec, x: FinVec,
                            cert: DualCertificate) -> None:
    """Re-check a dual certificate; raise TsinormError on any defect.

    The hull side is pure arithmetic plus tree admissibility, and proves
    the value from above.  The ball side re-runs the primal recursion on
    the witness (no linear programming) and proves it from below.
    """
    for term in cert.hull_terms:
        if term.weight <= 0:
            raise TsinormError(f"hull weight {term.weight} is not positive")
        verify_norming_functional(spec, term.functional)
    weight_den = math.lcm(*(t.weight.denominator for t in cert.hull_terms))
    coeff_den = math.lcm(*(c.denominator for t in cert.hull_terms
                           for _, c in t.functional.coeffs.entries))
    _check_hull_sum(x, cert.value, [
        (t.weight.numerator * (weight_den // t.weight.denominator),
         tuple((i, c.numerator * (coeff_den // c.denominator))
               for i, c in t.functional.coeffs.entries))
        for t in cert.hull_terms], weight_den, coeff_den)

    verify_primal_certificate(spec, cert.ball_vector, cert.ball_certificate)
    _ball_certificate(spec, x, cert.ball_vector, cert.value)


def _ball_certificate(spec: MixedSpaceSpec, x: FinVec, y: FinVec,
                      value: Fraction) -> PrimalCertificate:
    """The primal certificate of ball witness y; raise TsinormError unless
    y lies in the unit ball and pairs with x to `value`."""
    ball_norm, ball_cert = mixed_norm(spec, y)
    if ball_norm > 1:
        raise TsinormError(
            f"ball witness has primal norm {ball_norm}, outside the unit ball")
    paired = pairing(x, y)
    if paired != value:
        raise TsinormError(
            f"ball witness pairs to {paired}, certificate claims {value}")
    return ball_cert


def dual_norm_bounds(spec: MixedSpaceSpec, x: FinVec,
                     precision: Optional[int] = None,
                     budget: int = DEFAULT_NORMING_BUDGET) -> IntervalScalar:
    """Sound enclosure of the dual norm for specs with symbolic weights.

    Every generator coefficient is a product of level weights, so the
    ball constraints tighten and the gauge drops as any weight grows:
    the value is antitone in theta.  Substituting the rational upper
    bounds of all enclosures therefore gives a lower bound of the norm,
    and vice versa.  Rational specs come back as a point interval.
    """
    if precision is None:
        precision = DEFAULT_THETA_PRECISION
    check_precision(precision)
    if x.is_zero:
        return IntervalScalar.point(0)
    if not spec.has_symbolic_theta:
        return IntervalScalar.point(dual_norm_value(spec, x, budget))

    lo_levels = []
    hi_levels = []
    for lev in spec.levels:
        if theta_is_rational(lev.theta):
            lo_levels.append(lev)
            hi_levels.append(lev)
            continue
        enc = resolve_theta(lev.theta, precision)
        if not (0 < enc.lo and enc.hi < 1):
            raise PrecisionExhaustedError(
                f"weight enclosure [{enc.lo}, {enc.hi}] at precision "
                f"{precision} leaves (0, 1)")
        lo_levels.append(Level(lev.family, enc.lo))
        hi_levels.append(Level(lev.family, enc.hi))
    spec_lo = MixedSpaceSpec(spec.name + "-theta-lo", tuple(lo_levels))
    spec_hi = MixedSpaceSpec(spec.name + "-theta-hi", tuple(hi_levels))
    value_lo = dual_norm_value(spec_hi, x, budget)
    value_hi = dual_norm_value(spec_lo, x, budget)
    if value_lo > value_hi:
        raise TsinormError(
            "internal consistency failure: dual bounds came back inverted")
    return IntervalScalar(value_lo, value_hi)


# ---------------------------------------------------------------------------
# rho iteration (upper bounds only)

def rho_partition_upper(spec: MixedSpaceSpec, x: FinVec, n: int) -> Fraction:
    """Partition-only upper iterate: level 0 is the l1 norm, each next
    level takes the best admissible covering partition, never worse than
    the previous level.  Always >= the dual norm."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    levels = rational_levels(spec, "rho_partition_upper needs")
    return next(itertools.islice(iterates(levels, x.abs().entries, False), n, None))


def rho_chain(spec: MixedSpaceSpec, x: FinVec, n_max: int) -> Tuple[RhoIterate, ...]:
    """The iterates 0..n_max as a tuple; handy for tables and checks."""
    if n_max < 0:
        return ()
    levels = rational_levels(spec, "rho_partition_upper needs")
    return tuple(RhoIterate(n, value) for n, value in
                 zip(range(n_max + 1), iterates(levels, x.abs().entries, False)))


def support_bipartitions(x: FinVec) -> tuple:
    """All unordered splits of x by support, as (y, x - y) pairs.

    The first support point always stays in y, so each split appears
    once; the trivial split (x, 0) is included.
    """
    support = x.support
    if not support:
        return ()
    rest = support[1:]
    out = []
    for r in range(len(rest) + 1):
        for picked in itertools.combinations(rest, r):
            part = (support[0],) + picked
            y = restrict(x, part)
            out.append((y, x - y))
    return tuple(out)


def rho_with_splits_upper(spec: MixedSpaceSpec, x: FinVec, n: int,
                          candidates: Iterable = ()) -> Fraction:
    """The rho iterate with the infimum branch restricted to the given
    decompositions x = w1 + w2 (evaluated at x itself; deeper recursion
    levels see only the partition branch).  An upper bound that can only
    improve as candidates are added; empty candidates reduce it to
    rho_partition_upper."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    levels = rational_levels(spec, "rho_with_splits_upper needs")
    cands = []
    for w1, w2 in candidates:
        if (w1 + w2).entries != x.entries:
            raise TsinormError(
                f"split candidate does not sum to x: {w1.to_dict()} + {w2.to_dict()}")
        cands.append((w1, w2))
    if x.is_zero:
        return Q(0)
    chain = iterates(levels, x.abs().entries, False)
    # None marks a part equal to x, whose level is x's own previous value,
    # the only one that sees the splits
    parts = [[None if w.entries == x.entries else iterates(levels, w.abs().entries, False)
              for w in pair] for pair in cands]
    value = next(chain)
    for _ in range(n):
        # x's chain never exceeds rho, so this adds exactly x's cover branch
        below = [sum(value if g is None else next(g) for g in pair) for pair in parts]
        value = min(value, next(chain), *below)
    return value


# ---------------------------------------------------------------------------
# implicit equation

@dataclass(frozen=True)
class BranchEvaluation:
    """One inequality instance: kind "partition" carries (level_index,
    blocks), kind "split" carries (y, z).  slack = value - norm."""
    kind: str
    detail: tuple
    value: Fraction
    slack: Fraction


@dataclass(frozen=True)
class ImplicitEquationReport:
    x: FinVec
    norm: Fraction
    ok: bool
    minimizing: Optional[BranchEvaluation]
    violations: Tuple[BranchEvaluation, ...]
    partition_count: int
    split_count: int


def verify_implicit_equation(spec: MixedSpaceSpec, x: FinVec,
                             budget: int = DEFAULT_NORMING_BUDGET) -> ImplicitEquationReport:
    """Check the fixed-point inequalities of the dual norm at x.

    (a) every admissible covering partition at every level satisfies
    (1/theta) * max_i ||E_i x|| >= ||x||, and (b) every support split
    y + z = x satisfies ||y|| + ||z|| >= ||x||.  Returns the branch of
    least slack (trivial splits excluded, they are always exact) and any
    violations, which a correct build never produces.
    """
    levels = rational_levels(spec, "verify_implicit_equation needs")
    norm = dual_norm_value(spec, x, budget)
    branches = []
    partition_count = 0
    for level_index, blocks, value in cover_branches(
            x.entries, levels,
            lambda a, b: dual_norm_value(spec, FinVec(x.entries[a:b]), budget)):
        partition_count += 1
        branches.append(BranchEvaluation(
            "partition", (level_index, blocks), value, value - norm))

    split_count = 0
    for y, z in support_bipartitions(x):
        value = dual_norm_value(spec, y, budget) + dual_norm_value(spec, z, budget)
        trivial = y.is_zero or z.is_zero
        if not trivial:
            split_count += 1
            branches.append(BranchEvaluation("split", (y, z), value, value - norm))
        elif value < norm:
            branches.append(BranchEvaluation("split", (y, z), value, value - norm))

    violations = tuple(b for b in branches if b.value < norm)
    minimizing = None
    for b in branches:
        if minimizing is None or b.slack < minimizing.slack:
            minimizing = b
    return ImplicitEquationReport(
        x=x, norm=norm, ok=not violations, minimizing=minimizing,
        violations=violations, partition_count=partition_count,
        split_count=split_count)


# ---------------------------------------------------------------------------
# l1-variant falsifier

@dataclass(frozen=True)
class FalsifierWitness:
    x: FinVec
    y: FinVec
    sigma_x: Fraction
    sigma_y: Fraction
    sigma_sum: Fraction


@dataclass(frozen=True)
class FalsifierResult:
    status: str  # "counterexample" or "exhausted"
    pairs_checked: int
    cap_hits: int
    witness: Optional[FalsifierWitness] = None


def sigma_ell1_variant(spec: MixedSpaceSpec, x: FinVec,
                       iteration_cap: int = 32):
    """The l1-variant iterate: the rho recursion with the infimum branch
    replaced by the l1 norm, run to its per-vector fixpoint.  That is
    rho_partition_upper's recursion.

    Returns (value, converged).  Levels count as iterated until two
    agree, but never before the support size: a level can stall for one
    step while its blocks still improve underneath.  A window of l
    points is stable from level l - 1, so the fixpoint is reached by
    level |supp(x)| + 1 and comes from one fixpoint pass; a cap of at
    most |supp(x)| gives level iteration_cap with converged=False.
    """
    levels = rational_levels(spec, "sigma_ell1_variant needs")
    if iteration_cap < 1:
        raise ValueError(f"iteration cap must be >= 1, got {iteration_cap}")
    entries = x.abs().entries
    if iteration_cap > len(entries):
        return fixpoint(levels, entries), True
    return next(itertools.islice(iterates(levels, entries, False), iteration_cap, None)), False


# the search visits (|G| + 1)^N vectors and every pair of them
_FALSIFIER_SUPPORT_CAP = 8


def falsify_ell1_variant(spec: MixedSpaceSpec, N: int, G: Sequence,
                         iteration_cap: int = 32) -> FalsifierResult:
    """Search for a triangle-inequality failure of the l1 variant.

    Enumerates every nonzero vector with support in [1, N] and entries
    from G, then every unordered pair; addition commutes, so this covers
    the full ordered search and pairs_checked counts each unordered pair
    once.  The first pair with sigma(x + y) > sigma(x) + sigma(y) comes
    back as a witness, re-verified from scratch by sigma_ell1_variant.  A
    vector (or pair sum) of at least iteration_cap points, whose sigma
    iteration hits the cap, is skipped and counted as a cap hit, never
    silently trusted; its capped level is never computed.

    Entries are scaled to integers c / D, D the grid's common denominator
    (sigma is positively homogeneous), and a vector is coded as the
    signed-digit integer sum c_i * B^(i - 1) with B > 4 max |c|, so the
    code of x + y is code(x) + code(y) and a pair costs one addition and
    one dict read.  Sigma depends on |x| only; the sigmas of all vectors
    are valued in one covers.fixpoints pass, and each outer row of the
    pair loop values its sums not yet seen in one more, so an early
    counterexample never pays for later rows.  Every sigma is an integer
    in the one unit of those passes, D * Q^(N - 1) (covers._Pass).
    """
    levels = rational_levels(spec, "falsify_ell1_variant needs")
    if not 1 <= N <= _FALSIFIER_SUPPORT_CAP:
        raise ValueError(f"support bound {N} outside [1, {_FALSIFIER_SUPPORT_CAP}]")
    values = sorted({Q(g) for g in G} - {Q(0)})
    if not values:
        raise ValueError("entry grid is empty")
    if iteration_cap < 1:
        raise ValueError(f"iteration cap must be >= 1, got {iteration_cap}")
    denom = math.lcm(*(v.denominator for v in values))
    scaled = tuple(sorted(int(v * denom) for v in values))
    base = 4 * max(abs(c) for c in scaled) + 1
    vectors = sorted(
        combo for combo in itertools.product((0,) + scaled, repeat=N)
        if any(combo))

    def code(dense) -> int:
        return sum(c * base ** i for i, c in enumerate(dense))

    def to_vec(dense):
        return FinVec.from_items(
            {i + 1: Q(c, denom) for i, c in enumerate(dense) if c})

    sigma: dict = {}  # code -> sigma in units of 1/unit, None when capped
    by_support: dict = {}  # |x| as sorted (index, |c|) pairs -> sigma

    def value(fresh: dict) -> int:
        """Fill sigma for every (code, dense vector) in fresh; the unit."""
        supports = {n: tuple((i + 1, abs(c)) for i, c in enumerate(dense) if c)
                    for n, dense in fresh.items()}
        new = [s for s in dict.fromkeys(supports.values())
               if len(s) < iteration_cap and s not in by_support]
        got, unit = fixpoints(levels, new, denom, N)
        by_support.update(zip(new, got))
        for n, s in supports.items():
            sigma[n] = by_support.get(s)
        return unit

    codes = {code(combo): combo for combo in vectors}
    unit = value(codes)
    usable = []
    cap_hits = 0
    for n, combo in codes.items():
        if sigma[n] is None:
            cap_hits += 1
        else:
            usable.append((combo, n, sigma[n]))

    pairs_checked = 0
    for a, (xa, cx, sx) in enumerate(usable):
        row = usable[a:]
        fresh = {cx + cy: tuple(map(operator.add, xa, yb))
                 for yb, cy, _ in row if cx + cy not in sigma}
        if fresh:
            value(fresh)
        for yb, cy, sy in row:
            ssum = sigma[cx + cy]
            if ssum is None:
                cap_hits += 1
                continue
            pairs_checked += 1
            if ssum > sx + sy:
                xv, yv = to_vec(xa), to_vec(yb)
                sx, sy, ssum = (Q(v, unit) for v in (sx, sy, ssum))
                again, converged = sigma_ell1_variant(spec, xv + yv, iteration_cap)
                if not (converged and again == ssum and again - sx - sy > 0):
                    raise TsinormError(
                        "internal consistency failure: falsifier witness "
                        "did not re-verify")
                return FalsifierResult(
                    "counterexample", pairs_checked, cap_hits,
                    FalsifierWitness(xv, yv, sx, sy, ssum))
    return FalsifierResult("exhausted", pairs_checked, cap_hits)


# ---------------------------------------------------------------------------
# certificate documents

def _witness_sexpr(witness) -> str:
    if isinstance(witness, Leaf):
        return f"(leaf {witness.index if witness.index is not None else '-'})"
    blocks = " ".join(
        "(" + " ".join(str(i) for i in blk) + ")" for blk in witness.partition.blocks)
    children = " ".join(_witness_sexpr(c.witness) for c in witness.children)
    return (f"(split {witness.level_index} {format_scalar(witness.theta)} "
            f"({blocks}) {children})")


def _witness_from_sexpr(node, y: FinVec, spec: MixedSpaceSpec) -> PrimalCertificate:
    """Rebuild a primal certificate bottom-up; values are recomputed from
    the ball vector, so a tampered document cannot smuggle them in."""
    if not isinstance(node, list) or not node:
        raise TsinormError(f"bad witness node {node!r}")
    if node[0] == "leaf":
        if len(node) != 2 or isinstance(node[1], list):
            raise TsinormError("leaf witness needs exactly one index")
        if node[1] == "-":
            return PrimalCertificate(Q(0), Leaf(None))
        index = parse_number(int, node[1], "leaf index")
        return PrimalCertificate(abs(y.coeff(index)), Leaf(index))
    if node[0] != "split" or len(node) < 5:
        raise TsinormError(f"bad witness node {node!r}")
    level_index = parse_number(int, node[1], "split level")
    theta = parse_number(Q, node[2], "split weight")
    raw_blocks = node[3]
    if not isinstance(raw_blocks, list) or \
            not all(isinstance(b, list) for b in raw_blocks):
        raise TsinormError("split witness needs a block list")
    blocks = tuple(tuple(parse_number(int, i, "block index") for i in b)
                   for b in raw_blocks)
    children = tuple(_witness_from_sexpr(c, y, spec) for c in node[4:])
    if len(children) != len(blocks):
        raise TsinormError("split witness has mismatched blocks and children")
    try:
        partition = BlockPartition.of(*blocks)
    except ValueError as exc:
        raise TsinormError(f"bad witness partition: {exc}") from None
    value = theta * sum((c.value for c in children), Q(0))
    return PrimalCertificate(value, Split(level_index, theta, partition, children))


# Witness lines are read through this name outside the package too.
_sexpr_nodes = parse_sexpr


def _certificate_fields(cert: DualCertificate) -> dict:
    """The certificate's value, hull terms, ball vector and ball witness
    as text fields, shared by documents and `norm dual --certify`."""
    return {
        "value": format_scalar(cert.value),
        "hull": [{"weight": format_scalar(t.weight),
                  "tree": _functional_sexpr(t.functional.tree)}
                 for t in cert.hull_terms],
        "ball_vector": format_vector(cert.ball_vector),
        "ball_witness": _witness_sexpr(cert.ball_certificate.witness),
    }


def _certificate_lines(fields: dict) -> list:
    """The hull, ball-vector and ball-witness lines of _certificate_fields."""
    return [f"hull {h['weight']}: {h['tree']}" for h in fields["hull"]] + [
        f"ball-vector: {fields['ball_vector']}",
        f"ball-witness: {fields['ball_witness']}",
    ]


def export_dual_certificate(spec: MixedSpaceSpec, x: FinVec,
                            cert: DualCertificate) -> str:
    """One re-checkable text document: space config, vector, value, hull
    terms as weight-plus-tree lines, ball vector, ball witness tree."""
    lines = [
        "tsinorm-certificate",
        "space: " + json.dumps(spec_to_config(spec)),
        f"vector: {format_vector(x)}",
        f"value: {format_scalar(cert.value)}",
    ]
    return "\n".join(lines + _certificate_lines(_certificate_fields(cert))) + "\n"


def import_dual_certificate(text: str):
    """Parse an exported certificate and re-verify it in full.

    Returns (spec, x, cert) only if the hull arithmetic, the functional
    trees, the ball witness, and the claimed value all check out; any
    defect raises TsinormError.
    """
    space_doc = vector_line = value_line = ball_vec_line = ball_wit_line = None
    hull_lines = []
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "tsinorm-certificate":
        raise TsinormError("not a certificate document (missing magic line)")
    for line in lines[1:]:
        if line.startswith("space: "):
            space_doc = line[len("space: "):]
        elif line.startswith("vector: ") or line == "vector:":
            vector_line = line[len("vector: "):] if line != "vector:" else ""
        elif line.startswith("value: "):
            value_line = line[len("value: "):]
        elif line.startswith("hull "):
            hull_lines.append(line[len("hull "):])
        elif line.startswith("ball-vector: ") or line == "ball-vector:":
            ball_vec_line = line[len("ball-vector: "):] if line != "ball-vector:" else ""
        elif line.startswith("ball-witness: "):
            ball_wit_line = line[len("ball-witness: "):]
        else:
            raise TsinormError(f"unrecognized certificate line {line!r}")
    if space_doc is None or vector_line is None or value_line is None \
            or ball_vec_line is None or ball_wit_line is None:
        raise TsinormError("certificate document is missing required lines")
    try:
        spec = spec_from_config(json.loads(space_doc))
    except (TypeError, ValueError) as exc:
        raise TsinormError(f"bad space config in certificate: {exc}") from None
    x = parse_vector(vector_line)
    value = parse_number(Q, value_line, "certificate value")
    terms = []
    for body in hull_lines:
        weight_text, sep, tree_text = body.partition(": ")
        if not sep:
            raise TsinormError(f"bad hull line {body!r}")
        weight = parse_number(Q, weight_text, "hull weight")
        tree, coeffs = _parse_functional_tree(parse_sexpr(tree_text), spec)
        terms.append(HullTerm(weight, NormingFunctional(FinVec.from_items(coeffs), tree)))
    y = parse_vector(ball_vec_line)
    ball_cert = _witness_from_sexpr(parse_sexpr(ball_wit_line), y, spec)
    cert = DualCertificate(value, tuple(terms), y, ball_cert)
    verify_dual_certificate(spec, x, cert)
    return spec, x, cert
