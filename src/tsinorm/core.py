"""Exact scalars, certified intervals, sparse rational vectors,
successive block partitions, and the readers of the text formats.

Everything in this module is an immutable value; all arithmetic is exact
(stdlib Fraction).  IntervalScalar exists only because some coefficient
weights are irrational: its comparisons are certified, returning None
whenever the enclosures genuinely overlap.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

# Working-precision defaults for irrational weights (bits after the point).
DEFAULT_THETA_PRECISION = 64
PRECISION_CAP = 256

# Guard against combinatorial blowup when building norming sets.
DEFAULT_NORMING_BUDGET = 10 ** 6


class TsinormError(Exception):
    """Base class for every error this library raises on purpose."""


class VectorParseError(TsinormError, ValueError):
    """A vector literal failed to parse."""


class BudgetExceededError(TsinormError):
    """A configured resource budget (functional count, table size) ran out."""


class PrecisionExhaustedError(TsinormError):
    """Interval comparisons stayed indeterminate at the precision cap."""


class IndeterminateComparisonError(TsinormError):
    """A certified comparison was forced to a decision it cannot make."""


def check_precision(bits: int) -> None:
    """Refuse a working precision below 1 with ValueError and one above
    PRECISION_CAP with PrecisionExhaustedError."""
    if bits < 1:
        raise ValueError(f"precision must be >= 1, got {bits}")
    if bits > PRECISION_CAP:
        raise PrecisionExhaustedError(f"precision {bits} exceeds the cap {PRECISION_CAP}")


def _read_rational(token) -> Fraction:
    """Fraction(token), refused when its numerator or denominator has
    more digits than int-to-str conversion allows
    (sys.get_int_max_str_digits(); 0 lifts the limit), so every value
    read can be printed back.  A decimal exponent is bounded before
    Fraction builds its power of ten: past the limit plus the mantissa's
    length it could only overflow it, so 12 bytes cannot stall the
    reader.  Raises ValueError, TypeError or ZeroDivisionError as
    Fraction does."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and isinstance(token, str):
        mantissa, sep, exponent = token.lower().partition("e")
        if sep:
            try:
                exp = int(exponent)
            except ValueError:
                exp = 0  # malformed; Fraction rejects it below
            if abs(exp) > limit + len(mantissa):
                raise ValueError("decimal exponent out of range")
    q = Fraction(token)
    if limit:
        big = max(abs(q.numerator), q.denominator)
        if big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise ValueError(f"more than {limit} digits")
    return q


def as_scalar(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, Fraction, or `p/q` string to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _read_rational(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise VectorParseError(f"bad rational literal {value!r}: {exc}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")


def format_scalar(q: Fraction) -> str:
    """Render a rational as `p` or `p/q`, always in lowest terms."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def scalar_to_decimal(q: Fraction, digits: int = 20) -> str:
    """Decimal rendering for display, round-to-nearest, `digits` significant
    digits.  Never used in computations."""
    if q == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(q.numerator) / Decimal(q.denominator)
        return str(d)


# ---------------------------------------------------------------------------
# intervals

IntervalLike = Union["IntervalScalar", Fraction, int]


@dataclass(frozen=True)
class IntervalScalar:
    """Rational enclosure [lo, hi] of a real number, outward rounded.

    For rational inputs embedded as points, every operation returns the
    point interval of the exact result, so the exact path is a special
    case of this one.
    """
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            object.__setattr__(self, "lo", as_scalar(self.lo))
            object.__setattr__(self, "hi", as_scalar(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, q: Union[int, Fraction]) -> "IntervalScalar":
        q = as_scalar(q)
        return cls(q, q)

    @classmethod
    def coerce(cls, v: IntervalLike) -> "IntervalScalar":
        if isinstance(v, IntervalScalar):
            return v
        return cls.point(as_scalar(v))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, q: Union[int, Fraction]) -> bool:
        q = as_scalar(q)
        return self.lo <= q <= self.hi

    def encloses(self, other: "IntervalScalar") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other: IntervalLike) -> "IntervalScalar":
        o = IntervalScalar.coerce(other)
        return IntervalScalar(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "IntervalScalar":
        return IntervalScalar(-self.hi, -self.lo)

    def __sub__(self, other: IntervalLike) -> "IntervalScalar":
        return self + (-IntervalScalar.coerce(other))

    def __rsub__(self, other: IntervalLike) -> "IntervalScalar":
        return IntervalScalar.coerce(other) + (-self)

    def __mul__(self, other: IntervalLike) -> "IntervalScalar":
        o = IntervalScalar.coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return IntervalScalar(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "IntervalScalar":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"interval [{self.lo}, {self.hi}] straddles zero")
        return IntervalScalar(1 / self.hi, 1 / self.lo)

    def hull(self, other: "IntervalScalar") -> "IntervalScalar":
        return IntervalScalar(min(self.lo, other.lo), max(self.hi, other.hi))

    # Certified comparisons.  True/False only when the enclosures decide
    # the question; None means "cannot tell at this precision".
    def certified_lt(self, other: IntervalLike):
        o = IntervalScalar.coerce(other)
        if self.hi < o.lo:
            return True
        if self.lo >= o.hi:
            return False
        return None

    def certified_le(self, other: IntervalLike):
        o = IntervalScalar.coerce(other)
        if self.hi <= o.lo:
            return True
        if self.lo > o.hi:
            return False
        return None

    def __str__(self):
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"


# ---------------------------------------------------------------------------
# sparse vectors

@dataclass(frozen=True)
class FinVec:
    """Finitely supported vector: sorted tuple of (index, nonzero coeff).

    Indices are 1-based.  The zero vector is the empty tuple.
    """
    entries: tuple = ()

    def __post_init__(self):
        last = 0
        for pair in self.entries:
            i, c = pair
            if not isinstance(i, int) or isinstance(i, bool) or i < 1:
                raise ValueError(f"bad index {i!r}: need integer >= 1")
            if not isinstance(c, Fraction):
                raise ValueError(f"coefficient at {i} is {type(c).__name__}, not Fraction")
            if c == 0:
                raise ValueError(f"zero coefficient stored at index {i}")
            if i <= last:
                raise ValueError("entries not strictly sorted by index")
            last = i

    @classmethod
    def from_items(cls, items: Union[Mapping[int, object], Iterable]) -> "FinVec":
        if isinstance(items, Mapping):
            items = items.items()
        acc = {}
        for i, c in items:
            c = as_scalar(c)
            if i in acc:
                acc[i] += c
            else:
                acc[i] = c
        return cls(tuple((i, c) for i, c in sorted(acc.items()) if c != 0))

    @classmethod
    def zero(cls) -> "FinVec":
        return cls()

    @classmethod
    def basis(cls, k: int, coeff: Union[int, Fraction] = 1) -> "FinVec":
        return cls.from_items([(k, coeff)])

    @property
    def support(self) -> tuple:
        return tuple(i for i, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def coeff(self, i: int) -> Fraction:
        for j, c in self.entries:
            if j == i:
                return c
            if j > i:
                break
        return Fraction(0)

    def items(self):
        return iter(self.entries)

    def to_dict(self) -> dict:
        return dict(self.entries)

    def __add__(self, other: "FinVec") -> "FinVec":
        acc = dict(self.entries)
        for i, c in other.entries:
            s = acc.get(i, Fraction(0)) + c
            if s == 0:
                acc.pop(i, None)
            else:
                acc[i] = s
        return FinVec(tuple(sorted(acc.items())))

    def __neg__(self) -> "FinVec":
        return FinVec(tuple((i, -c) for i, c in self.entries))

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def scale(self, factor: Union[int, Fraction]) -> "FinVec":
        factor = as_scalar(factor)
        if factor == 0:
            return FinVec()
        return FinVec(tuple((i, c * factor) for i, c in self.entries))

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def abs(self) -> "FinVec":
        return FinVec(tuple((i, abs(c)) for i, c in self.entries))

    def restrict(self, E: Iterable[int]) -> "FinVec":
        keep = E if isinstance(E, (set, frozenset)) else frozenset(E)
        return FinVec(tuple(p for p in self.entries if p[0] in keep))

    def __str__(self):
        return format_vector(self)


def restrict(x: FinVec, E: Iterable[int]) -> FinVec:
    """The vector agreeing with x on E and zero elsewhere."""
    return x.restrict(E)


def ell1_norm(x: FinVec) -> Fraction:
    return sum((abs(c) for _, c in x.entries), Fraction(0))


def sup_norm(x: FinVec) -> Fraction:
    return max((abs(c) for _, c in x.entries), default=Fraction(0))


def pairing(x: FinVec, y: FinVec) -> Fraction:
    """Coordinatewise dual pairing sum(x_i * y_i)."""
    if len(y.entries) < len(x.entries):
        x, y = y, x
    yd = dict(y.entries)
    total = Fraction(0)
    for i, c in x.entries:
        v = yd.get(i)
        if v is not None:
            total += c * v
    return total


# Vector literal grammar: whitespace-separated `index:value` pairs, value a
# rational `p/q` or integer.  The empty string is the zero vector.

def parse_vector(text: str) -> FinVec:
    entries = {}
    for token in text.split():
        head, sep, tail = token.partition(":")
        if not sep or not head or not tail:
            raise VectorParseError(f"bad token {token!r}: expected index:value")
        try:
            idx = int(head)
        except ValueError:
            raise VectorParseError(f"bad index in {token!r}") from None
        if idx < 1:
            raise VectorParseError(f"index {idx} out of range: must be >= 1")
        if idx in entries:
            raise VectorParseError(f"duplicate index {idx}")
        try:
            val = _read_rational(tail)
        except (ValueError, ZeroDivisionError):
            raise VectorParseError(f"bad value in {token!r}") from None
        entries[idx] = val
    return FinVec.from_items(entries)


def format_vector(x: FinVec) -> str:
    return " ".join(f"{i}:{format_scalar(c)}" for i, c in x.entries)


# Tree grammar of certificates and norming-set exports: an atom, or a
# parenthesised group of trees.  Nesting deeper than this is rejected so
# that the recursive walkers of a parsed tree, which may nest one walk
# inside another, stay inside the interpreter's recursion limit.
SEXPR_MAX_DEPTH = 256


def parse_number(kind, token, what: str):
    """token read as kind (int or Fraction); TsinormError if it is none."""
    try:
        return _read_rational(token) if kind is Fraction else kind(token)
    except (TypeError, ValueError, ZeroDivisionError):
        raise TsinormError(f"bad {what} {token!r}") from None


def parse_sexpr(text: str):
    """One tree as an atom string or nested lists of atoms and lists.

    Reads with an explicit stack, never recursing; empty, unbalanced or
    trailing input and nesting deeper than SEXPR_MAX_DEPTH raise
    TsinormError.
    """
    stack = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == ")":
            if len(stack) == 1:
                raise TsinormError("unbalanced parentheses in expression")
            group = stack.pop()
            stack[-1].append(group)
        elif len(stack) == 1 and stack[0]:
            raise TsinormError("trailing tokens after expression")
        elif token == "(":
            if len(stack) > SEXPR_MAX_DEPTH:
                raise TsinormError(f"expression nested deeper than {SEXPR_MAX_DEPTH}")
            stack.append([])
        else:
            stack[-1].append(token)
    if len(stack) != 1:
        raise TsinormError("unbalanced parentheses in expression")
    if not stack[0]:
        raise TsinormError("empty expression")
    return stack[0][0]


# ---------------------------------------------------------------------------
# successive block partitions

@dataclass(frozen=True)
class BlockPartition:
    """Ordered successive nonempty index sets E_1 < ... < E_k."""
    blocks: tuple

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a partition needs at least one block")
        prev_max = 0
        for blk in self.blocks:
            if not blk:
                raise ValueError("empty block")
            if any(b <= prev_max for b in blk):
                raise ValueError("blocks are not successive")
            prev_max = max(blk)

    @classmethod
    def of(cls, *blocks: Iterable[int]) -> "BlockPartition":
        return cls(tuple(tuple(sorted(b)) for b in blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_minima(self) -> tuple:
        return tuple(b[0] for b in self.blocks)

    def covered(self) -> tuple:
        return tuple(itertools.chain.from_iterable(self.blocks))


def enumerate_partitions(S: Sequence[int], k: int) -> Iterator[BlockPartition]:
    """All partitions of the ordered support S into k consecutive blocks.

    Choosing k-1 cut points in the len(S)-1 gaps gives every such
    partition exactly once: C(|S|-1, k-1) of them.  k > |S| yields
    nothing; k < 1 is a caller bug.
    """
    S = tuple(S)
    if not S:
        raise ValueError("empty support")
    if any(S[i] >= S[i + 1] for i in range(len(S) - 1)):
        raise ValueError("support must be strictly increasing")
    if k < 1:
        raise ValueError(f"block count {k} < 1")
    n = len(S)
    if k > n:
        return
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield BlockPartition(tuple(S[bounds[j]:bounds[j + 1]] for j in range(k)))
