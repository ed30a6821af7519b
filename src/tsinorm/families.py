"""Admissibility families and mixed-space specifications.

A family decides which successive block tuples may be combined at a given
level; a MixedSpaceSpec is a finite list of (family, weight) levels.  The
built-in presets are the classic single-level space (first Schreier family,
weight 1/2) and the Schlumprecht space (cardinality families with irrational
weights 1/log2(l+1), handled as certified intervals).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .core import (
    DEFAULT_THETA_PRECISION,
    BlockPartition,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    VectorParseError,
    as_scalar,
    format_scalar,
)


@dataclass(frozen=True)
class Schreier1:
    """First Schreier family: tuples of k successive sets with k <= min E_1."""

    def __str__(self):
        return "schreier1"


@dataclass(frozen=True)
class CardinalityAtMost:
    """Family A_n: index sets of cardinality at most n."""
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"cardinality bound must be a positive integer, got {self.n!r}")

    def __str__(self):
        return f"card<={self.n}"


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite list of finite index sets, read hereditarily.

    The family is every subset of a listed set, so a k-block tuple is
    admissible when some listed set has a k-element subset that
    interleaves it; like the structural families it is then closed under
    subsets.  The singletons {1}..{_top}, _top the largest listed index,
    belong to it too, so single-block tuples are always admissible.
    `sets` keeps the listed sets of two or more members (no spreading is
    assumed).
    """
    sets: tuple = ()
    _top: int = field(default=1, init=False, repr=False)

    def __post_init__(self):
        canon = set()
        top = 1
        for s in self.sets:
            fs = tuple(sorted(set(s)))
            if not fs:
                raise ValueError("empty set in explicit family")
            if fs[0] < 1 or not all(isinstance(m, int) for m in fs):
                raise ValueError(f"bad family member {s!r}")
            if len(fs) > 1:
                canon.add(fs)
            top = max(top, fs[-1])
        object.__setattr__(self, "sets", tuple(sorted(canon, key=lambda t: (len(t), t))))
        object.__setattr__(self, "_top", top)

    def __str__(self):
        return f"explicit({self._top + len(self.sets)} sets)"


AdmissibilityFamily = Union[Schreier1, CardinalityAtMost, ExplicitFinite]


def max_blocks(family: AdmissibilityFamily, first_index: int) -> Optional[int]:
    """The most blocks an admissible tuple whose first block starts at
    first_index can have, when that bound alone decides admissibility:
    first_index for Schreier1, n for CardinalityAtMost(n).  None for
    ExplicitFinite, whose listed sets also constrain the later blocks."""
    if isinstance(family, Schreier1):
        return first_index
    if isinstance(family, CardinalityAtMost):
        return family.n
    if isinstance(family, ExplicitFinite):
        return None
    raise TypeError(f"unknown family {family!r}")


def is_admissible(family: AdmissibilityFamily, P: BlockPartition) -> bool:
    """Is there M = {m_1 < ... < m_k} in the family with
    m_1 <= E_1 < m_2 <= E_2 < ... < m_k <= E_k?

    For Schreier1 this reduces to k <= min E_1 (take m_i = min E_i), for
    CardinalityAtMost(n) to k <= n (take the same m_i, any k minima work).
    ExplicitFinite asks whether a listed set meets every gap
    (max E_(i-1), min E_i], with max E_0 = 0: one member per gap is a
    k-element subset that interleaves the blocks.
    """
    k = P.k
    cap = max_blocks(family, P.blocks[0][0])
    if cap is not None:
        return k <= cap
    if k == 1:  # through the implicit singleton {1}
        return True
    gaps = tuple(zip((0,) + tuple(b[-1] for b in P.blocks[:-1]), P.block_minima()))
    for M in family.sets:
        if len(M) < k:
            continue
        pos = 0
        for lo, hi in gaps:
            # the least member past lo; the gaps ascend, so the scan of M
            # goes on where the previous gap left it
            while pos < len(M) and M[pos] <= lo:
                pos += 1
            if pos == len(M) or M[pos] > hi:
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class SchlumprechtWeight:
    """Symbolic weight 1/log2(level+1); resolved to an interval on demand."""
    level: int

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 2:
            # level 1 would mean weight 1/log2(2) = 1, outside (0, 1)
            raise ValueError(f"symbolic weight needs level >= 2, got {self.level!r}")

    def __str__(self):
        return f"1/log2({self.level + 1})"


Theta = Union[Fraction, SchlumprechtWeight]

# A call resolves one enclosure per symbolic level and precision step,
# so a few distinct (m, precision) pairs serve a whole session.
_ENCLOSURES_KEPT = 256


def _prime_factors(n: int) -> list:
    """The prime factors of n >= 1 with multiplicity, ascending."""
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=_ENCLOSURES_KEPT)
def _log2_enclosure(m: int, precision: int) -> IntervalScalar:
    """Certified enclosure of log2(m), width <= Omega(m) * 2^-precision,
    Omega(m) counting m's odd prime factors with multiplicity.

    For m = 2^a * p_1 * ... * p_k (odd primes, k >= 2) the enclosure is a
    plus the sum of the p_i's own enclosures at the same precision, the
    power of two exact.  So equal reals built from the same primes get
    identical enclosures (that of log2 9 is exactly twice that of
    log2 3), and a tie between them is decided as a tie.  A power of two
    is exact.  Otherwise (k = 1) log2(m) is extracted bit by bit in
    integer fixed point: square the mantissa interval, emit 1 and halve
    when the whole interval clears 2, emit 0 when it stays below.  A
    straddle means the working precision cannot certify the bit; retry
    wider.  Every emitted bit is a true bit of the binary expansion, so
    the enclosure has exact dyadic endpoints and width 2^-precision; its
    mantissa is that of p_1, so it equals a plus the enclosure of p_1.

    Results are kept in a bounded LRU cache keyed by (m, precision);
    tsinorm.clear_caches() empties it.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    twos = (m & -m).bit_length() - 1
    odd_primes = _prime_factors(m >> twos)
    if len(odd_primes) > 1:
        return sum((_log2_enclosure(p, precision) for p in odd_primes),
                   IntervalScalar.point(twos))
    e = m.bit_length() - 1
    if m == 1 << e:
        q = Fraction(e)
        return IntervalScalar(q, q)
    work = max(2 * precision, precision + 32)
    for _attempt in range(16):
        lo = hi = m << (work - e)
        two = 1 << (work + 1)
        bits = 0
        ok = True
        for _ in range(precision):
            lo = (lo * lo) >> work
            hi = -((-hi * hi) >> work)  # ceiling division by 2^work
            if lo >= two:
                bits = bits * 2 + 1
                lo >>= 1
                hi = -(-hi >> 1)
            elif hi < two:
                bits = bits * 2
            else:
                ok = False
                break
        if ok:
            scale = 1 << precision
            return IntervalScalar(e + Fraction(bits, scale), e + Fraction(bits + 1, scale))
        work *= 2
    raise PrecisionExhaustedError(f"log2({m}) bit extraction stalled at working width {work}")


def schlumprecht_theta(l: int, precision: int = DEFAULT_THETA_PRECISION) -> IntervalScalar:
    """Interval of width <= 2^-precision containing 1/log2(l+1).

    Exact point for l+1 a power of two.  The log enclosure has width at
    most Omega * 2^-precision for Omega odd prime factors of l+1, and its
    reciprocal divides that by lo * hi >= max(1, 1.5 * Omega)^2 (each odd
    prime's enclosure starts at 1.5 or above), so the weight's width stays
    within 2^-precision.
    """
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"level must be a positive integer, got {l!r}")
    if precision < 1:
        raise ValueError("precision must be positive")
    return _log2_enclosure(l + 1, precision).reciprocal()


def theta_is_rational(theta: Theta) -> bool:
    return isinstance(theta, Fraction)


def rational_levels(spec: MixedSpaceSpec, needs: str, hint: str = "") -> tuple:
    """(index, family, theta) per level of spec; a symbolic weight raises
    TsinormError, its message beginning with `needs` and ending with hint."""
    if spec.has_symbolic_theta:
        raise TsinormError(f"{needs} rational weights at every level; space "
                           f"{spec.name!r} has a symbolic one{hint}")
    return tuple((i, lev.family, lev.theta) for i, lev in enumerate(spec.levels))


def resolve_theta(theta: Theta, precision: int = DEFAULT_THETA_PRECISION) -> IntervalScalar:
    """Weight as an interval: a point for rational weights."""
    if isinstance(theta, Fraction):
        return IntervalScalar(theta, theta)
    return schlumprecht_theta(theta.level, precision)


def format_theta(theta: Theta) -> str:
    if isinstance(theta, Fraction):
        return format_scalar(theta)
    return str(theta)


# ---------------------------------------------------------------------------
# space specifications

@dataclass(frozen=True)
class Level:
    family: AdmissibilityFamily
    theta: Theta

    def __post_init__(self):
        if isinstance(self.theta, int):
            object.__setattr__(self, "theta", Fraction(self.theta))
        if isinstance(self.theta, Fraction):
            if not (0 < self.theta < 1):
                raise ValueError(f"rational weight must lie in (0, 1), got {self.theta}")
        elif not isinstance(self.theta, SchlumprechtWeight):
            raise TypeError(f"weight must be Fraction or SchlumprechtWeight, got {self.theta!r}")


@dataclass(frozen=True)
class MixedSpaceSpec:
    name: str
    levels: Tuple[Level, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("a space needs at least one level")
        for lv in self.levels:
            if not isinstance(lv, Level):
                raise TypeError(f"levels must be Level instances, got {lv!r}")

    @property
    def has_symbolic_theta(self) -> bool:
        return any(not theta_is_rational(lv.theta) for lv in self.levels)


def tsirelson_spec() -> MixedSpaceSpec:
    """Single level: first Schreier family with weight 1/2."""
    return MixedSpaceSpec("tsirelson", (Level(Schreier1(), Fraction(1, 2)),))


def schlumprecht_spec(max_level: int = 8) -> MixedSpaceSpec:
    """Cardinality families A_l with weights 1/log2(l+1), l = 2..max_level.

    Level 1 is omitted: its weight would be 1/log2(2) = 1, which the
    weight constraint 0 < theta < 1 excludes, and an A_1 level only admits
    single-block tuples, which never win the maximization anyway.  Levels
    beyond the support size of a given vector are dropped per vector by
    levels_needed, so max_level only has to be at least the largest
    support the caller plans to use.
    """
    if max_level < 2:
        raise ValueError("schlumprecht preset needs max_level >= 2")
    levels = tuple(Level(CardinalityAtMost(l), SchlumprechtWeight(l))
                   for l in range(2, max_level + 1))
    return MixedSpaceSpec("schlumprecht", levels)


PRESETS = {
    "tsirelson": tsirelson_spec,
    "schlumprecht": schlumprecht_spec,
}


# ---------------------------------------------------------------------------
# per-vector level truncation

def _covers(a: AdmissibilityFamily, b: AdmissibilityFamily, S: tuple) -> bool:
    """True when every a-admissible partition of every subset of S is
    b-admissible.  Conservative: False when unsure.

    The subset quantifier matters: the norm recursion partitions
    sub-supports too, so a level may only be dropped if it is redundant
    on all of them.  Blocks starting at support point S[i] (0-based) can
    have at most N-i parts, which bounds the reachable block counts.
    """
    N = len(S)
    if isinstance(a, CardinalityAtMost) and isinstance(b, CardinalityAtMost):
        return min(a.n, N) <= b.n
    if isinstance(a, CardinalityAtMost) and isinstance(b, Schreier1):
        return all(min(a.n, N - i) <= S[i] for i in range(N))
    if isinstance(a, Schreier1) and isinstance(b, CardinalityAtMost):
        return all(min(S[i], N - i) <= b.n for i in range(N))
    if isinstance(a, Schreier1) and isinstance(b, Schreier1):
        return True
    return a == b


def _theta_ge(tb: Theta, ta: Theta) -> bool:
    """Certified tb >= ta; False when the enclosures cannot tell."""
    if isinstance(tb, Fraction) and isinstance(ta, Fraction):
        return tb >= ta
    if isinstance(tb, SchlumprechtWeight) and isinstance(ta, SchlumprechtWeight):
        return tb.level <= ta.level  # 1/log2(l+1) decreases in l
    ib = resolve_theta(tb)
    ia = resolve_theta(ta)
    return ib.lo >= ia.hi


def levels_needed(spec: MixedSpaceSpec, support: Sequence[int]):
    """Split spec levels into (kept, dropped) for vectors on this support.

    A level is dropped exactly when another level admits everything it
    admits on every subset of the support with a weight at least as
    large; dropping it then provably changes no norm value in the
    recursion.  Ties keep the earlier level.  Returns the kept levels and
    a tuple of (level, reason) pairs for the metadata trail.
    """
    S = tuple(sorted(set(support)))
    if not S:
        return (spec.levels[:1], tuple((lv, "zero vector: single level suffices")
                                       for lv in spec.levels[1:]))
    kept = []
    dropped = []
    for idx, lv in enumerate(spec.levels):
        reason = None
        for jdx, other in enumerate(spec.levels):
            if jdx == idx:
                continue
            if not (_theta_ge(other.theta, lv.theta) and _covers(lv.family, other.family, S)):
                continue
            mutual = _theta_ge(lv.theta, other.theta) and _covers(other.family, lv.family, S)
            if mutual and jdx > idx:
                continue  # symmetric pair: the earlier level wins
            reason = (f"level {idx} ({lv.family}, theta {format_theta(lv.theta)}) is covered by "
                      f"level {jdx} ({other.family}, theta {format_theta(other.theta)}) "
                      f"on support {list(S)}")
            break
        if reason is None:
            kept.append(lv)
        else:
            dropped.append((lv, reason))
    return tuple(kept), tuple(dropped)


# ---------------------------------------------------------------------------
# config documents

CONFIG_SCHEMA_NOTE = (
    "space config: {'name': str, 'levels': [{'family': 'schreier1' | "
    "{'card_at_most': n} | {'explicit': [[int, ...], ...]}, "
    "'theta': 'p/q' | 'schlumprecht' | {'schlumprecht': level}}]}"
)


def spec_to_config(spec: MixedSpaceSpec) -> dict:
    levels = []
    for lv in spec.levels:
        fam = lv.family
        if isinstance(fam, Schreier1):
            fdoc = "schreier1"
        elif isinstance(fam, CardinalityAtMost):
            fdoc = {"card_at_most": fam.n}
        else:
            # the singleton [top] keeps _top when no larger set reaches it
            fdoc = {"explicit": [list(s) for s in fam.sets] + [[fam._top]]}
        if isinstance(lv.theta, Fraction):
            tdoc = format_scalar(lv.theta)
        else:
            tdoc = {"schlumprecht": lv.theta.level}
        levels.append({"family": fdoc, "theta": tdoc})
    return {"name": spec.name, "levels": levels}


def _config_int(value, what: str) -> int:
    # JSON true/false arrive as bool and 2.0 as float; neither is an integer
    if type(value) is not int:
        raise TsinormError(f"{what} must be an integer, got {value!r}; {CONFIG_SCHEMA_NOTE}")
    return value


def spec_from_config(doc: dict) -> MixedSpaceSpec:
    if not isinstance(doc, dict):
        raise TsinormError(f"space config must be a mapping; {CONFIG_SCHEMA_NOTE}")
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise TsinormError(f"space config 'name' must be a string, got {name!r}")
    raw_levels = doc.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise TsinormError(f"space config needs a nonempty 'levels' list; {CONFIG_SCHEMA_NOTE}")
    levels = []
    for pos, item in enumerate(raw_levels):
        try:
            fdoc = item["family"]
            tdoc = item["theta"]
        except (TypeError, KeyError):
            raise TsinormError(f"level {pos}: need 'family' and 'theta'") from None
        try:
            if fdoc == "schreier1":
                fam: AdmissibilityFamily = Schreier1()
            elif isinstance(fdoc, dict) and "card_at_most" in fdoc:
                fam = CardinalityAtMost(
                    _config_int(fdoc["card_at_most"], f"level {pos}: card_at_most"))
            elif isinstance(fdoc, dict) and "explicit" in fdoc:
                sets = fdoc["explicit"]
                if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
                    raise TsinormError(
                        f"level {pos}: explicit family must be a list of integer lists")
                fam = ExplicitFinite(tuple(
                    tuple(_config_int(m, f"level {pos}: explicit member") for m in s)
                    for s in sets))
            else:
                raise TsinormError(f"level {pos}: unknown family {fdoc!r}; {CONFIG_SCHEMA_NOTE}")
            if tdoc == "schlumprecht":
                if not isinstance(fam, CardinalityAtMost):
                    raise TsinormError(
                        f"level {pos}: bare 'schlumprecht' weight needs a card_at_most family "
                        "to infer its level; use {'schlumprecht': l} otherwise")
                theta: Theta = SchlumprechtWeight(fam.n)
            elif isinstance(tdoc, dict) and "schlumprecht" in tdoc:
                theta = SchlumprechtWeight(
                    _config_int(tdoc["schlumprecht"], f"level {pos}: schlumprecht level"))
            elif isinstance(tdoc, str):
                theta = as_scalar(tdoc)
            else:
                raise TsinormError(f"level {pos}: unknown theta {tdoc!r}; {CONFIG_SCHEMA_NOTE}")
            levels.append(Level(fam, theta))
        except VectorParseError:  # a bad theta literal, already a TsinormError
            raise
        except ValueError as exc:
            raise TsinormError(f"level {pos}: {exc}") from None
    return MixedSpaceSpec(name, tuple(levels))
