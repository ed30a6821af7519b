import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import tsinorm
from tsinorm import dualnorm, primal
from tsinorm.core import (
    DEFAULT_THETA_PRECISION,
    PRECISION_CAP,
    FinVec,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    parse_vector,
)
from tsinorm.families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    Schreier1,
    SchlumprechtWeight,
    levels_needed,
    resolve_theta,
    schlumprecht_spec,
    tsirelson_spec,
)
from tsinorm.covers import Span, _improves
from tsinorm.primal import (
    Leaf,
    PrimalCertificate,
    Split,
    fj_norm,
    fj_norm_level,
    mixed_norm,
    verify_fj_certificate,
    verify_primal_certificate,
)

from frozen_values import (
    FJ_BLOCK_GOLDENS,
    FJ_GOLDENS,
    FJ_LEVEL_GOLDENS,
    MIXED_CARD_GOLDENS,
    MIXED_CARD_LEVELS,
    SCHLUMPRECHT_M2_BOUNDS,
    SCHLUMPRECHT_M3,
    ones,
)
from oracles import (
    Undecided,
    brute_block_norm,
    brute_block_norm_level,
    brute_mixed_norm,
    memo_mixed_norm,
)


def vec(d) -> FinVec:
    return FinVec.from_items(d)


GRID = [Q(0), Q(1), Q(-1), Q(1, 2), Q(2)]


def grid_vectors(indices, grid=GRID):
    for values in itertools.product(grid, repeat=len(indices)):
        yield vec({i: v for i, v in zip(indices, values) if v != 0})


def random_vec(rng, max_index=6, grid=(Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2))):
    n = rng.randint(0, max_index)
    idx = rng.sample(range(1, max_index + 1), n)
    return vec({i: rng.choice(grid) for i in idx})


class TestFjGoldens:
    @pytest.mark.parametrize("x,expected", FJ_GOLDENS)
    def test_frozen(self, x, expected):
        value, cert = fj_norm(vec(x))
        assert value == expected
        assert cert.value == expected
        verify_fj_certificate(vec(x), cert)

    @pytest.mark.parametrize("n,expected", FJ_BLOCK_GOLDENS)
    def test_blocks(self, n, expected):
        x = vec(ones(*range(n, 2 * n)))
        value, _ = fj_norm(x)
        assert value == expected

    def test_unit_vectors(self):
        for k in range(1, 21):
            value, cert = fj_norm(FinVec.basis(k))
            assert value == 1
            assert cert.witness == Leaf(k)

    def test_zero(self):
        value, cert = fj_norm(FinVec.zero())
        assert value == 0 and cert.witness == Leaf(None)

    def test_suffix_split_beats_sup(self):
        # no admissible tuple covers a support containing 1, but the norm
        # must still see the {3,4,5} suffix block
        x = vec({1: Q(1, 2), 2: Q(1), 3: Q(1), 4: Q(1), 5: Q(1)})
        value, cert = fj_norm(x)
        assert value == Q(3, 2)
        assert isinstance(cert.witness, Split)
        verify_fj_certificate(x, cert)

    def test_singleton_split_certificate(self):
        _, cert = fj_norm(vec(ones(3, 4, 5)))
        w = cert.witness
        assert isinstance(w, Split)
        assert w.partition.blocks == ((3,), (4,), (5,))
        assert all(isinstance(ch.witness, Leaf) for ch in w.children)

    def test_tie_prefers_leaf(self):
        # split ({2},{3}) also attains 1; the leaf must win the tie
        _, cert = fj_norm(vec(ones(2, 3)))
        assert cert.witness == Leaf(2)


class TestFjOracle:
    def test_exhaustive_small(self):
        for x in grid_vectors((1, 2, 3, 4)):
            value, cert = fj_norm(x)
            assert value == brute_block_norm(x.to_dict()), str(x)
            verify_fj_certificate(x, cert)

    def test_random_window_six(self):
        rng = random.Random(20260816)
        for _ in range(120):
            x = random_vec(rng)
            value, _ = fj_norm(x)
            assert value == brute_block_norm(x.to_dict()), str(x)


class TestFjLevels:
    @pytest.mark.parametrize("x,n,expected", FJ_LEVEL_GOLDENS)
    def test_frozen(self, x, n, expected):
        assert fj_norm_level(vec(x), n) == expected

    def test_monotone_and_stabilizes(self):
        rng = random.Random(7)
        for _ in range(40):
            x = random_vec(rng, max_index=5)
            full, _ = fj_norm(x)
            prev = Q(0)
            for n in range(len(x.support) + 2):
                cur = fj_norm_level(x, n)
                assert prev <= cur <= full
                prev = cur
            assert prev == full

    def test_oracle_agreement(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_vec(rng, max_index=5)
            for n in range(4):
                assert fj_norm_level(x, n) == brute_block_norm_level(x.to_dict(), n)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            fj_norm_level(FinVec.basis(1), -1)


class TestMixedTsirelson:
    def test_agrees_with_fj_route(self):
        spec = tsirelson_spec()
        rng = random.Random(99)
        for _ in range(150):
            x = random_vec(rng)
            fj_value, fj_cert = fj_norm(x)
            mx_value, mx_cert = mixed_norm(spec, x)
            assert isinstance(mx_value, Q)
            assert mx_value == fj_value, str(x)
            verify_primal_certificate(spec, x, mx_cert)
            verify_primal_certificate(spec, x, fj_cert)

    def test_norm_is_its_last_level(self):
        # the fixpoint pass against the level iterates, which are stable
        # from level |supp x| - 1
        spec = tsirelson_spec()
        rng = random.Random(5)
        for _ in range(25):
            x = random_vec(rng, max_index=5)
            value = mixed_norm(spec, x)[0]
            assert fj_norm(x)[0] == value
            for n in range(max(len(x.support) - 1, 0), len(x.support) + 2):
                assert fj_norm_level(x, n) == value


class TestMixedCard:
    def spec(self):
        levels = tuple(Level(CardinalityAtMost(l), th)
                       for _, l, th in MIXED_CARD_LEVELS)
        return MixedSpaceSpec("card-mix", levels)

    def test_frozen_prefixes(self):
        spec = self.spec()
        for items, expected in MIXED_CARD_GOLDENS:
            x = vec(items)
            value, cert = mixed_norm(spec, x)
            assert value == expected
            verify_primal_certificate(spec, x, cert)

    def test_oracle_agreement(self):
        spec = self.spec()
        levels = tuple(MIXED_CARD_LEVELS)
        rng = random.Random(31)
        for _ in range(60):
            x = random_vec(rng, max_index=5)
            value, _ = mixed_norm(spec, x)
            assert value == brute_mixed_norm(x.to_dict(), levels), str(x)


class TestSchlumprecht:
    def test_point_golden(self):
        spec = schlumprecht_spec()
        x = vec(ones(1, 2, 3))
        value, cert = mixed_norm(spec, x)
        assert isinstance(value, IntervalScalar)
        assert value.width <= Q(1, 2 ** 20)
        assert value.contains(SCHLUMPRECHT_M3)
        verify_primal_certificate(spec, x, cert)
        w = cert.witness
        assert isinstance(w, Split) and w.partition.k == 3

    def test_irrational_enclosure(self):
        lo, hi = SCHLUMPRECHT_M2_BOUNDS
        value, _ = mixed_norm(schlumprecht_spec(), vec(ones(2, 3)))
        assert isinstance(value, IntervalScalar)
        assert value.width <= Q(1, 2 ** 20)
        # both enclose 2/log2(3), so they must intersect
        assert value.lo <= hi and lo <= value.hi

    def test_unit_vector_is_point_one(self):
        value, cert = mixed_norm(schlumprecht_spec(), FinVec.basis(7))
        assert isinstance(value, IntervalScalar)
        assert value.is_point and value.lo == 1
        assert cert.witness == Leaf(7)

    def test_equal_enclosure_tie_keeps_first(self):
        # both 2-splits of e2+e3+e4 evaluate to the identical interval
        spec = MixedSpaceSpec("one-level",
                              (Level(CardinalityAtMost(2), SchlumprechtWeight(2)),))
        x = vec(ones(2, 3, 4))
        _, cert = mixed_norm(spec, x)
        w = cert.witness
        assert isinstance(w, Split)
        assert w.partition.blocks == ((2,), (3, 4))

    def test_precision_exhaustion(self):
        spec = MixedSpaceSpec("coarse",
                              (Level(Schreier1(), SchlumprechtWeight(6)),))
        # sup branch is 9; the singleton split gives 25/log2(7) = 8.905...,
        # and the precision-4 weight enclosure [16/45, 4/11] stretches the
        # branch to [80/9, 100/11] which straddles 9
        x = vec({3: Q(9), 4: Q(8), 5: Q(8)})
        with pytest.raises(PrecisionExhaustedError):
            mixed_norm(spec, x, precision=4, precision_cap=4)
        value, _ = mixed_norm(spec, x)
        assert isinstance(value, IntervalScalar)
        assert value.is_point and value.lo == 9

    @pytest.mark.parametrize("kwargs", [{"precision": 257}, {"precision_cap": 300},
                                        {"precision": 16000, "precision_cap": 4}])
    def test_precision_above_the_cap_refused(self, kwargs):
        bits = max(kwargs.values())
        for spec in (schlumprecht_spec(), tsirelson_spec()):
            with pytest.raises(PrecisionExhaustedError) as exc:
                mixed_norm(spec, vec({1: Q(1), 2: Q(1, 2), 3: Q(2)}), **kwargs)
            assert str(exc.value) == f"precision {bits} exceeds the cap {PRECISION_CAP}"
        value, _ = mixed_norm(schlumprecht_spec(), vec({1: Q(1), 2: Q(1, 2), 3: Q(2)}),
                              precision=PRECISION_CAP)
        assert value.width <= Q(1, 2 ** 200)

    @pytest.mark.parametrize("kwargs", [{"precision": 0}, {"precision": -5},
                                        {"precision_cap": -3},
                                        {"precision": 8, "precision_cap": 0}])
    def test_precision_below_one_refused(self, kwargs):
        bits = min(kwargs.values())
        for spec in (schlumprecht_spec(), tsirelson_spec()):
            with pytest.raises(ValueError) as exc:
                mixed_norm(spec, vec({1: Q(1), 2: Q(1, 2), 3: Q(2)}), **kwargs)
            assert str(exc.value) == f"precision must be >= 1, got {bits}"

    def test_improves_raises_on_overlap(self):
        from tsinorm.core import IndeterminateComparisonError
        # spans in units of 1/2: [1, 3] and [2, 4] overlap
        a = Span(2, 6)
        with pytest.raises(IndeterminateComparisonError) as exc:
            _improves(Span(4, 8), a, 2)
        assert str(exc.value) == "cannot order branch values [1, 3] and [2, 4]"
        assert _improves(Span(7, 9), a, 2)
        assert not _improves(a, Span(6, 7), 2)
        assert not _improves(Span(2, 6), a, 2)  # identical spans tie


CARD_DEMO = MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                         Level(CardinalityAtMost(2), Q(1, 3))))
CARD_MIX = MixedSpaceSpec("card-mix", tuple(Level(CardinalityAtMost(l), th)
                                            for _, l, th in MIXED_CARD_LEVELS))
EXPLICIT = MixedSpaceSpec("explicit-mix", (
    Level(ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9), (5, 6, 7))), Q(2, 3)),
    Level(CardinalityAtMost(2), Q(1, 2)),
    Level(ExplicitFinite(((1, 4), (2, 4, 6))), Q(3, 4))))
MIXED_INTERVAL = MixedSpaceSpec("mixed-interval", (
    Level(Schreier1(), SchlumprechtWeight(5)),
    Level(CardinalityAtMost(2), SchlumprechtWeight(2)),
    Level(ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9))), SchlumprechtWeight(3))))
RATIONAL_AND_SYMBOLIC = MixedSpaceSpec("rational-and-symbolic", (
    Level(Schreier1(), Q(1, 2)),
    Level(CardinalityAtMost(3), SchlumprechtWeight(2)),
    Level(ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9))), SchlumprechtWeight(4))))
ORACLE_GRID = (Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2), Q(3, 4), Q(5, 3))


def _oracle_levels(spec, x, precision=None):
    """The levels mixed_norm keeps for x, as oracle tuples, with weights
    resolved at precision when given; and the kept levels' indices."""
    kept = levels_needed(spec, x.support)
    levels = []
    for _, family, theta in kept:
        if isinstance(family, Schreier1):
            kind, param = "schreier", 0
        elif isinstance(family, CardinalityAtMost):
            kind, param = "card", family.n
        else:
            kind, param = "explicit", family.sets
        if precision is not None:
            enclosure = resolve_theta(theta, precision)
            theta = (enclosure.lo, enclosure.hi)
        levels.append((kind, param, theta))
    return levels, [i for i, _, _ in kept]


def _as_oracle(cert, indices):
    """A certificate in the oracle's tuple form."""
    def scalar(v):
        return (v.lo, v.hi) if isinstance(v, IntervalScalar) else v
    w = cert.witness
    if isinstance(w, Leaf):
        return scalar(cert.value), ("leaf", w.index)
    return scalar(cert.value), ("split", indices.index(w.level_index), scalar(w.theta),
                                w.partition.blocks,
                                tuple(_as_oracle(c, indices) for c in w.children))


def _oracle_interval(spec, x, precision, cap):
    """memo_mixed_norm under mixed_norm's precision-doubling schedule;
    the Undecided it raised at the cap when that leaves a comparison
    undecided."""
    p = precision
    while True:
        levels, _ = _oracle_levels(spec, x, p)
        try:
            return memo_mixed_norm(x.to_dict(), levels)
        except Undecided as exc:
            if p >= cap:
                return exc
            p = min(p * 2, cap)


class TestWindowPassOracle:
    """The bottom-up window pass gives the value and witness tree of the
    memoised top-down recursion it replaced (oracles.memo_mixed_norm)."""

    @pytest.mark.parametrize("spec,max_points,seed", [
        (tsirelson_spec(), 18, 101), (CARD_DEMO, 10, 102), (CARD_MIX, 10, 103),
        (EXPLICIT, 8, 104)])
    def test_exact_spaces(self, spec, max_points, seed):
        rng = random.Random(seed)
        for n in range(1, max_points + 1):
            for _ in range(2):
                idx = rng.sample(range(1, max_points + 7), n)
                x = vec({i: rng.choice(ORACLE_GRID) for i in idx})
                levels, indices = _oracle_levels(spec, x)
                value, cert = mixed_norm(spec, x)
                assert _as_oracle(cert, indices) == memo_mixed_norm(x.to_dict(), levels), str(x)
                assert isinstance(value, Q)

    @pytest.mark.parametrize("precision,cap", [
        (DEFAULT_THETA_PRECISION, PRECISION_CAP), (4, PRECISION_CAP), (4, 4)])
    def test_schlumprecht(self, precision, cap):
        exhausted = self._interval_oracle(schlumprecht_spec(9), precision, cap,
                                          random.Random(precision + cap))
        assert exhausted == 0 or cap == 4

    @pytest.mark.parametrize("precision,cap", [
        (DEFAULT_THETA_PRECISION, PRECISION_CAP), (4, PRECISION_CAP), (4, 4)])
    def test_mixed_interval(self, precision, cap):
        # a start-dependent Schreier cap, a card cap and an explicit level,
        # all at symbolic weights; each level wins some split at precision 64
        exhausted = self._interval_oracle(MIXED_INTERVAL, precision, cap,
                                          random.Random(7 * precision + cap))
        assert exhausted == 0 or cap == 4

    @pytest.mark.parametrize("precision,cap", [
        (DEFAULT_THETA_PRECISION, PRECISION_CAP), (4, PRECISION_CAP), (4, 4)])
    def test_rational_and_symbolic(self, precision, cap):
        # a rational level on the interval route, beside two symbolic ones
        exhausted = self._interval_oracle(RATIONAL_AND_SYMBOLIC, precision, cap,
                                          random.Random(11 * precision + cap))
        assert exhausted == 0 or cap == 4

    @staticmethod
    def _interval_oracle(spec, precision, cap, rng) -> int:
        """Seeded vectors of 1 to 9 points, and the tie vector of the
        README, against the oracle under the same precision schedule;
        returns how many ran out of precision on both sides.  An
        exhausted pass names the comparison the oracle left undecided."""
        exhausted = 0
        vectors = [vec({i: rng.choice(ORACLE_GRID) for i in rng.sample(range(1, 11), n)})
                   for n in range(1, 10) for _ in range(3)]
        vectors.append(parse_vector("1:2 2:1 3:2 4:2 5:2 6:1 7:2 8:4"))
        for x in vectors:
            _, indices = _oracle_levels(spec, x)
            want = _oracle_interval(spec, x, precision, cap)
            if isinstance(want, Undecided):
                exhausted += 1
                with pytest.raises(PrecisionExhaustedError) as exc:
                    mixed_norm(spec, x, precision=precision, precision_cap=cap)
                assert str(exc.value) == (
                    f"branch comparison undecided at precision cap {cap}: {want}"), str(x)
                continue
            _, cert = mixed_norm(spec, x, precision=precision, precision_cap=cap)
            assert _as_oracle(cert, indices) == want, str(x)
        return exhausted

    def test_precision_exhaustion_vector(self):
        spec = MixedSpaceSpec("coarse", (Level(Schreier1(), SchlumprechtWeight(6)),))
        x = vec({3: Q(9), 4: Q(8), 5: Q(8)})
        assert str(_oracle_interval(spec, x, 4, 4)) == (
            "cannot order branch values [9, 9] and [80/9, 100/11]")
        with pytest.raises(PrecisionExhaustedError) as exc:
            mixed_norm(spec, x, precision=4, precision_cap=4)
        assert str(exc.value) == ("branch comparison undecided at precision cap 4: "
                                  "cannot order branch values [9, 9] and [80/9, 100/11]")
        _, indices = _oracle_levels(spec, x)
        _, cert = mixed_norm(spec, x, precision=4, precision_cap=8)
        assert _as_oracle(cert, indices) == _oracle_interval(spec, x, 4, 8)


def test_norm_calls_leave_module_state_unchanged():
    def entries(table):
        return len(table) + sum(entries(v) for v in table.values() if isinstance(v, dict))

    def sizes():
        return {f"{module.__name__}.{name}": entries(value)
                for module in (primal, dualnorm) for name, value in vars(module).items()
                if isinstance(value, dict) and not name.startswith("__")}
    before = sizes()
    rng = random.Random(3)
    for _ in range(20):
        x = random_vec(rng, max_index=9)
        fj_norm(x)
        mixed_norm(CARD_DEMO, x)
        mixed_norm(EXPLICIT, x)
        fj_norm_level(x, 2)
        for spec in (tsirelson_spec(), CARD_DEMO, EXPLICIT):
            dualnorm.rho_partition_upper(spec, x, 2)
            dualnorm.rho_chain(spec, x, 3)
            dualnorm.rho_with_splits_upper(spec, x, 2, dualnorm.support_bipartitions(x))
            dualnorm.sigma_ell1_variant(spec, x)
            dualnorm.sigma_ell1_variant(spec, x, iteration_cap=1)
    mixed_norm(schlumprecht_spec(), vec(ones(2, 3, 5)))
    assert sizes() == before


class TestProperties:
    @given(st.lists(st.tuples(st.integers(1, 6),
                              st.fractions(min_value=-3, max_value=3)),
                    max_size=5))
    @settings(deadline=None, max_examples=60)
    def test_homogeneity_and_signs(self, items):
        x = vec({i: v for i, v in items if v != 0})
        base, _ = fj_norm(x)
        assert fj_norm(x.scale(-2))[0] == 2 * base
        flipped = FinVec(tuple((i, -c if i % 2 else c) for i, c in x.entries))
        assert fj_norm(flipped)[0] == base

    @given(st.lists(st.tuples(st.integers(1, 6),
                              st.fractions(min_value=-3, max_value=3)),
                    max_size=5))
    @settings(deadline=None, max_examples=60)
    def test_sandwich(self, items):
        x = vec({i: v for i, v in items if v != 0})
        value, _ = fj_norm(x)
        assert max((abs(c) for _, c in x.entries), default=Q(0)) <= value
        assert value <= sum(abs(c) for _, c in x.entries)

    def test_lattice_monotonicity_sample(self):
        rng = random.Random(13)
        for _ in range(80):
            x = random_vec(rng, max_index=5)
            y = vec({i: c * rng.choice((Q(0), Q(1, 2), Q(1)))
                     for i, c in x.entries})
            assert fj_norm(y)[0] <= fj_norm(x)[0]

    def test_triangle_sample(self):
        rng = random.Random(17)
        for _ in range(60):
            x = random_vec(rng, max_index=5)
            y = random_vec(rng, max_index=5)
            assert fj_norm(x + y)[0] <= fj_norm(x)[0] + fj_norm(y)[0]


class TestCertificateTampering:
    def test_forged_value(self):
        x = vec(ones(3, 4, 5))
        _, cert = fj_norm(x)
        bad = PrimalCertificate(cert.value + 1, cert.witness)
        with pytest.raises(TsinormError):
            verify_fj_certificate(x, bad)

    def test_wrong_leaf_index(self):
        x = vec({2: Q(1), 3: Q(2)})
        bad = PrimalCertificate(Q(1), Leaf(2))
        with pytest.raises(TsinormError):
            verify_fj_certificate(x, bad)

    def test_inadmissible_partition(self):
        x = vec(ones(1, 2))
        good_children = tuple(fj_norm(FinVec.basis(k))[1] for k in (1, 2))
        from tsinorm.core import BlockPartition
        bad = PrimalCertificate(
            Q(1),
            Split(0, Q(1, 2), BlockPartition.of((1,), (2,)), good_children))
        with pytest.raises(TsinormError):
            verify_fj_certificate(x, bad)

    def test_wrong_theta(self):
        x = vec(ones(3, 4, 5))
        _, cert = fj_norm(x)
        w = cert.witness
        assert isinstance(w, Split)
        bad = PrimalCertificate(
            Q(3),
            Split(w.level_index, Q(1), w.partition, w.children))
        with pytest.raises(TsinormError):
            verify_fj_certificate(x, bad)

    def test_zero_leaf_on_nonzero(self):
        with pytest.raises(TsinormError):
            verify_fj_certificate(FinVec.basis(1), PrimalCertificate(Q(0), Leaf(None)))


def test_clear_caches_roundtrip():
    x = vec(ones(3, 4, 5))
    before, _ = fj_norm(x)
    tsinorm.clear_caches()
    after, _ = fj_norm(x)
    assert before == after


def test_package_clear_caches_empties_every_memo():
    import importlib
    import pkgutil
    import re

    x = vec(ones(2, 3, 4))
    mixed_norm(schlumprecht_spec(), vec(ones(2, 3, 5)))
    fj_norm_level(x, 2)
    tsinorm.dual_norm_value(tsirelson_spec(), x)
    tsinorm.sigma_ell1_variant(tsirelson_spec(), x)
    memo_name = re.compile(r"^_[A-Z0-9_]*(MEMO|CACHE)S?$")
    caches = {}
    for info in pkgutil.iter_modules(tsinorm.__path__):
        module = importlib.import_module(f"tsinorm.{info.name}")
        for name, value in vars(module).items():
            assert not (memo_name.match(name) and isinstance(value, dict)), name
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    assert set(caches) == {"norming._maximal_patterns", "dualnorm._ball_value",
                           "families._log2_enclosure", "families._log2_bits"}
    assert all(f.cache_info().maxsize is not None for f in caches.values())
    assert all(f.cache_info().currsize for f in caches.values())
    tsinorm.clear_caches()
    assert {name: f.cache_info().currsize for name, f in caches.items()
            if f.cache_info().currsize} == {}
