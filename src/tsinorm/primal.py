"""Recursive norm evaluation on finitely supported vectors, with certificates.

The norm solves
    N(x) = max( max_i |x_i|,  max_l  theta_l * max sum_i N(E_i x) )
where the inner max runs over tuples E_1 < ... < E_k (k >= 2) of successive
sets admissible for level l's family.  Only covers of support *suffixes* are
considered: a skipped interior or trailing support point can always be
absorbed into a neighbouring block without losing admissibility or value,
but a skipped prefix matters, because the first block's minimum gates
admissibility.  Single-block tuples contribute theta * N(E_1 x) < N(x) and
are never optimal, so they are skipped.

One call evaluates every window entries[a:b] of |x| once, bottom-up
(covers.best_windows): right ends in increasing order, starts in
decreasing order, so each window reads only windows already valued.  The
inner max reads a suffix-cover table shared by all windows with the same
right end for Schreier and cardinality levels with rational weights.
Under symbolic weights every level, and explicit levels always, are
compared cover by cover in the order of their cut positions; the
precision-doubling schedule follows that order.  Both routes give the same
certificates.  fj_norm is mixed_norm on tsirelson_spec(), and
fj_norm_level reads level n of the same recursion from covers.iterates,
one window pass per level.

The window pass keeps its values as Python integers in units it works
out itself, one per window with rational weights and two (the ends of
a certified enclosure) with symbolic ones.  Fractions and
IntervalScalars are built only when the certificate is assembled, and
for the text of an undecided comparison.

Norms here are 1-unconditional: every value depends only on |x|, so
certificates describe |x|; they verify against any sign pattern because
leaf evaluation takes absolute values.

No call keeps state: each call's tables end with it, and concurrent
calls share nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .core import (
    DEFAULT_THETA_PRECISION,
    PRECISION_CAP,
    BlockPartition,
    FinVec,
    IndeterminateComparisonError,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    check_precision,
    restrict,
    sup_norm,
)
from .covers import best_windows, iterates
from .families import (
    Level,
    MixedSpaceSpec,
    is_admissible,
    levels_needed,
    resolve_theta,
    theta_is_rational,
    tsirelson_spec,
)

Scalar = Union[Fraction, IntervalScalar]


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Leaf:
    """Sup-norm witness: value is |x[index]|; index None for the zero vector."""
    index: Optional[int]


@dataclass(frozen=True)
class Split:
    """One admissible split: value is theta * sum of the children's values."""
    level_index: int
    theta: Scalar
    partition: BlockPartition
    children: Tuple["PrimalCertificate", ...]


@dataclass(frozen=True)
class PrimalCertificate:
    value: Scalar
    witness: Union[Leaf, Split]


def _abs_entries(x: FinVec) -> tuple:
    return tuple((i, abs(c)) for i, c in x.entries)


# ---------------------------------------------------------------------------
# evaluation

_FJ_LEVELS = tuple((i, lv.family, lv.theta) for i, lv in enumerate(tsirelson_spec().levels))


def fj_norm(x: FinVec):
    """Exact norm for the Schreier family at weight 1/2, with certificate.

    Returns (value, certificate).  The certificate's split nodes refer to
    level 0 of the single-level space returned by tsirelson_spec().
    """
    return mixed_norm(tsirelson_spec(), x)


def fj_norm_level(x: FinVec, n: int) -> Fraction:
    """n-th approximant: level 0 is the sup norm, each level adds one split."""
    if n < 0:
        raise ValueError(f"level {n} < 0")
    return next(itertools.islice(iterates(_FJ_LEVELS, _abs_entries(x), True), n, None))


def _certificate(entries: tuple, kept: tuple) -> PrimalCertificate:
    """Certificate of the norm of the positive entries from one bottom-up
    pass over their windows (covers.best_windows); kept are (index,
    family, theta) with theta the weight the certificate records, a
    Fraction or an IntervalScalar enclosure."""
    return _tree(best_windows(entries, kept), entries,
                 {i: theta for i, _, theta in kept}, 0, len(entries))


def _tree(table, entries: tuple, thetas: dict, a: int, b: int) -> PrimalCertificate:
    """The certificate of window entries[a:b] from the pass's choices."""
    value = table.scalar(a, b)
    c = table.choice[a][b]
    if isinstance(c, int):
        return PrimalCertificate(value, Leaf(entries[c][0]))
    (index, _, _), bounds = c
    spans = tuple(zip(bounds, bounds[1:]))
    return PrimalCertificate(value, Split(
        index, thetas[index],
        BlockPartition(tuple(tuple(i for i, _ in entries[s:t]) for s, t in spans)),
        tuple(_tree(table, entries, thetas, s, t) for s, t in spans)))


def mixed_norm(spec: MixedSpaceSpec, x: FinVec, *,
               precision: Optional[int] = None,
               precision_cap: Optional[int] = None):
    """Norm of x in the mixed space, with certificate.

    Exact Fraction when every level relevant to supp(x) has a rational
    weight; otherwise a certified IntervalScalar enclosure, produced with
    the working precision doubled until every branch comparison is
    decided (or the cap is hit, raising PrecisionExhaustedError).  On
    every space, a precision or precision_cap below 1 is refused with
    ValueError and one above PRECISION_CAP with PrecisionExhaustedError.
    """
    for bits in (precision, precision_cap):
        if bits is not None:
            check_precision(bits)
    kept = levels_needed(spec, x.support)
    entries = _abs_entries(x)
    exact = all(theta_is_rational(theta) for _, _, theta in kept)
    if not entries:
        zero = Fraction(0) if exact else IntervalScalar.point(0)
        return zero, PrimalCertificate(zero, Leaf(None))
    if exact:
        cert = _certificate(entries, kept)
        return cert.value, cert

    p = precision if precision is not None else DEFAULT_THETA_PRECISION
    cap = precision_cap if precision_cap is not None else PRECISION_CAP
    if p > cap:
        cap = p
    while True:
        try:
            cert = _certificate(entries, tuple((i, family, resolve_theta(theta, p))
                                               for i, family, theta in kept))
            return cert.value, cert
        except IndeterminateComparisonError as exc:
            if p >= cap:
                raise PrecisionExhaustedError(
                    f"branch comparison undecided at precision cap {cap}: {exc}"
                ) from exc
            p = min(p * 2, cap)


# ---------------------------------------------------------------------------
# certificate verification

def _scalar_eq(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    a = IntervalScalar.coerce(a)
    b = IntervalScalar.coerce(b)
    return a.lo == b.lo and a.hi == b.hi


def _check_theta(level: Level, stored: Scalar) -> None:
    if theta_is_rational(level.theta):
        if not isinstance(stored, Fraction) or stored != level.theta:
            raise TsinormError(
                f"certificate weight {stored} differs from the level's {level.theta}")
        return
    if not isinstance(stored, IntervalScalar):
        raise TsinormError("symbolic level needs an interval weight in the certificate")
    if not (0 < stored.lo and stored.hi < 1):
        raise TsinormError(f"certificate weight {stored} outside (0, 1)")
    # Cross-check against a fresh enclosure tight enough to catch a lie:
    # any two valid enclosures of the same weight intersect.
    width = stored.width
    p = DEFAULT_THETA_PRECISION
    while p < PRECISION_CAP and width != 0 and Fraction(1, 2 ** p) >= width:
        p *= 2
    fresh = resolve_theta(level.theta, min(p, PRECISION_CAP))
    if stored.hi < fresh.lo or fresh.hi < stored.lo:
        raise TsinormError(
            f"certificate weight {stored} does not intersect a fresh enclosure {fresh}")


def _reverify(spec: MixedSpaceSpec, y: FinVec, cert: PrimalCertificate) -> None:
    w = cert.witness
    if isinstance(w, Leaf):
        if w.index is None:
            if not y.is_zero:
                raise TsinormError("zero-vector leaf on a nonzero vector")
            recomputed: Scalar = Fraction(0)
        else:
            c = abs(y.coeff(w.index))
            if c == 0:
                raise TsinormError(f"leaf index {w.index} outside the support")
            if c != sup_norm(y):
                raise TsinormError(
                    f"leaf at {w.index} does not attain the sup norm of {y}")
            recomputed = c
        if not _scalar_eq(cert.value, recomputed):
            raise TsinormError(
                f"leaf value {cert.value} does not match recomputed {recomputed}")
        return
    if not isinstance(w, Split):
        raise TsinormError(f"unknown witness node {w!r}")
    if not 0 <= w.level_index < len(spec.levels):
        raise TsinormError(f"level index {w.level_index} out of range")
    level = spec.levels[w.level_index]
    if not is_admissible(level.family, w.partition):
        raise TsinormError(
            f"partition {w.partition.blocks} is not admissible for level {w.level_index}")
    if w.partition.k < 2:
        raise TsinormError("split with fewer than two blocks")
    if len(w.children) != w.partition.k:
        raise TsinormError("child count differs from block count")
    _check_theta(level, w.theta)
    total: Optional[Scalar] = None
    for blk, child in zip(w.partition.blocks, w.children):
        _reverify(spec, restrict(y, blk), child)
        total = child.value if total is None else total + child.value
    recomputed = w.theta * total
    if not _scalar_eq(cert.value, recomputed):
        raise TsinormError(
            f"split value {cert.value} does not match recomputed {recomputed}")


def verify_primal_certificate(spec: MixedSpaceSpec, x: FinVec,
                              cert: PrimalCertificate) -> None:
    """Re-evaluate the witness tree bottom-up; raise on any mismatch.

    Checks value reproduction, admissibility of every split, weight
    integrity per level, and sup-norm attainment at every leaf.  Uses no
    solver machinery: plain arithmetic only.
    """
    _reverify(spec, x, cert)


def verify_fj_certificate(x: FinVec, cert: PrimalCertificate) -> None:
    verify_primal_certificate(tsirelson_spec(), x, cert)
