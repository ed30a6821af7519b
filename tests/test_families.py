import itertools
from fractions import Fraction as Q

import pytest

from oracles import log2_between
from tsinorm.core import BlockPartition, IntervalScalar, enumerate_partitions
from tsinorm.families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    Schreier1,
    SchlumprechtWeight,
    TsinormError,
    _log2_enclosure,
    _prime_factors,
    is_admissible,
    levels_needed,
    resolve_theta,
    schlumprecht_spec,
    schlumprecht_theta,
    spec_from_config,
    spec_to_config,
    tsirelson_spec,
)


def all_partitions_within(N):
    for size in range(1, N + 1):
        for S in itertools.combinations(range(1, N + 1), size):
            for k in range(1, size + 1):
                yield from enumerate_partitions(S, k)


def schreier_truncation(N):
    sets = [s for size in range(1, N + 1)
            for s in itertools.combinations(range(1, N + 1), size)
            if size <= s[0]]
    return ExplicitFinite(tuple(sets))


def card_truncation(n, N):
    sets = [s for size in range(1, n + 1)
            for s in itertools.combinations(range(1, N + 1), size)]
    return ExplicitFinite(tuple(sets))


class TestAdmissibility:
    def test_spec_cases(self):
        assert is_admissible(Schreier1(), BlockPartition.of((3,), (4,), (5,)))
        assert not is_admissible(Schreier1(), BlockPartition.of((2,), (3,), (4,)))
        assert is_admissible(CardinalityAtMost(2), BlockPartition.of((1,), (5, 6)))

    def test_singletons_always_admissible(self):
        P = BlockPartition.of((7, 9))
        assert is_admissible(Schreier1(), P)
        assert is_admissible(CardinalityAtMost(1), P)
        assert is_admissible(ExplicitFinite(((2, 5),)), P)

    def test_explicit_interleaving(self):
        fam = ExplicitFinite(((2, 5),))
        # need m1=2 <= E1 < m2=5 <= E2
        assert is_admissible(fam, BlockPartition.of((2, 3), (5, 9)))
        assert not is_admissible(fam, BlockPartition.of((2, 3), (4,)))  # m2=5 > min E2
        assert not is_admissible(fam, BlockPartition.of((2, 5), (6,)))  # E1 reaches past m2
        assert not is_admissible(fam, BlockPartition.of((1,), (5,)))    # m1=2 > min E1

    def test_schreier_fast_path_matches_truncation(self):
        fam = schreier_truncation(8)
        for P in all_partitions_within(8):
            assert is_admissible(Schreier1(), P) == is_admissible(fam, P), P

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_card_fast_path_matches_truncation(self, n):
        fam = card_truncation(n, 8)
        for P in all_partitions_within(8):
            assert is_admissible(CardinalityAtMost(n), P) == is_admissible(fam, P), P
            assert is_admissible(CardinalityAtMost(n), P) == (P.k <= n)

    def test_widening_preserves_admissibility(self):
        small = schreier_truncation(6)
        big = ExplicitFinite(small.sets + ((1, 2),))
        for P in all_partitions_within(6):
            if is_admissible(small, P):
                assert is_admissible(big, P)


class TestTheta:
    def test_power_of_two_points(self):
        assert resolve_theta(SchlumprechtWeight(3)).is_point
        assert schlumprecht_theta(3).lo == Q(1, 2)
        assert schlumprecht_theta(7).lo == Q(1, 3)

    def test_level_one_symbol_rejected(self):
        with pytest.raises(ValueError):
            SchlumprechtWeight(1)

    @pytest.mark.parametrize("l,precision", [(2, 12), (2, 18), (4, 16), (5, 18), (9, 16)])
    def test_enclosure_certified_by_integer_powers(self, l, precision):
        # oracle certification needs m^(2^precision), so keep precision small here;
        # higher precisions are covered by the nesting test below
        enc = schlumprecht_theta(l, precision)
        assert enc.width <= Q(1, 2 ** precision)
        assert log2_between(l + 1, 1 / enc.hi, 1 / enc.lo)

    @pytest.mark.parametrize("precision", [8, 64, 256])
    def test_enclosures_compose_over_odd_prime_factors(self, precision):
        def enc(m):
            return _log2_enclosure(m, precision)
        three, five = enc(3), enc(5)
        # two or more odd prime factors: the sum of the primes' enclosures
        assert enc(9) == three + three and enc(9).width == 2 * three.width
        assert enc(45) == three + three + five
        assert enc(36) == three + three + 2
        assert enc(45).width <= Q(3, 2 ** precision)
        # one odd prime factor: extracted directly, and equal to the same sum
        assert enc(12) == three + 2 and enc(40) == five + 3
        assert enc(12).width == Q(1, 2 ** precision)
        assert enc(64) == IntervalScalar.point(6)

    @pytest.mark.parametrize("m", [9, 15, 27, 45, 63, 105])
    def test_composed_enclosure_certified_by_integer_powers(self, m):
        enc = _log2_enclosure(m, 10)
        assert enc.width <= Q(len(_prime_factors(m)), 2 ** 10)
        assert log2_between(m, enc.lo, enc.hi)

    def test_high_precision_width(self):
        enc = schlumprecht_theta(2, 128)
        assert enc.width <= Q(1, 2 ** 128)
        assert schlumprecht_theta(2, 18).encloses(enc)

    def test_nested_precision(self):
        coarse = schlumprecht_theta(2, 16)
        fine = schlumprecht_theta(2, 48)
        assert coarse.encloses(fine)

    def test_rational_theta_point(self):
        assert resolve_theta(Q(1, 2)).is_point


class TestSpecs:
    def test_presets(self):
        t = tsirelson_spec()
        assert t.name == "tsirelson" and len(t.levels) == 1
        assert not t.has_symbolic_theta
        s = schlumprecht_spec(6)
        assert [lv.family.n for lv in s.levels] == [2, 3, 4, 5, 6]
        assert s.has_symbolic_theta

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            Level(Schreier1(), Q(1))
        with pytest.raises(ValueError):
            Level(Schreier1(), Q(0))
        with pytest.raises(ValueError):
            MixedSpaceSpec("empty", ())

    def test_config_round_trip(self):
        for spec in (tsirelson_spec(), schlumprecht_spec(5),
                     MixedSpaceSpec("custom", (
                         Level(CardinalityAtMost(2), Q(2, 3)),
                         Level(ExplicitFinite(((2, 5), (3, 6))), Q(1, 4)),
                         Level(ExplicitFinite(((2, 5), (9,), (1, 4))), Q(1, 3)),
                     ))):
            doc = spec_to_config(spec)
            back = spec_from_config(doc)
            assert back.name == spec.name
            assert back == spec

    def test_explicit_config_lists_one_singleton(self):
        spec = MixedSpaceSpec("custom", (
            Level(ExplicitFinite(((2, 5), (3, 6))), Q(1, 4)),
            Level(ExplicitFinite(((2, 5), (9,), (1,), (1, 4))), Q(1, 3))))
        assert [lv["family"] for lv in spec_to_config(spec)["levels"]] == [
            {"explicit": [[2, 5], [3, 6], [6]]},
            {"explicit": [[1, 4], [2, 5], [9]]}]

    def test_config_rejects_garbage(self):
        with pytest.raises(TsinormError):
            spec_from_config({"levels": []})
        with pytest.raises(TsinormError):
            spec_from_config({"levels": [{"family": "nope", "theta": "1/2"}]})
        with pytest.raises(TsinormError):
            spec_from_config({"levels": [{"family": "schreier1", "theta": "schlumprecht"}]})
        with pytest.raises(TsinormError):
            spec_from_config({"levels": [{"family": "schreier1", "theta": "3/2"}]})


class TestLevelsNeeded:
    def test_high_cardinality_levels_dropped(self):
        spec = schlumprecht_spec(8)
        kept, dropped = levels_needed(spec, (1, 2, 3))
        # on 3 support points, A_l for l >= 3 all admit the same partitions;
        # the smallest such l has the largest weight and absorbs the rest
        assert [lv.family.n for lv in kept] == [2, 3]
        assert len(dropped) == 5

    def test_duplicate_levels_deduped(self):
        lv = Level(Schreier1(), Q(1, 2))
        spec = MixedSpaceSpec("twice", (lv, lv))
        kept, dropped = levels_needed(spec, (1, 2, 3, 4))
        assert len(kept) == 1 and len(dropped) == 1

    def test_schreier_dominates_small_cards_high_support(self):
        # on support {5,...,10} Schreier admits any k <= 5 blocks, so a
        # card<=3 level with no larger weight is redundant
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(3), Q(1, 2)),
        ))
        kept, dropped = levels_needed(spec, (5, 6, 7, 8, 9, 10))
        assert kept == (spec.levels[0],)
        assert dropped[0][0] == spec.levels[1]

    def test_low_support_keeps_card_level(self):
        # the subset {1,10} admits the 2-block split ({1},{10}) under card<=2
        # but not under Schreier (k=2 > min E_1 = 1), so the card level stays
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(2), Q(1, 2)),
        ))
        kept, _ = levels_needed(spec, (1, 10, 11, 12))
        assert len(kept) == 2

    def test_support_from_two_drops_card_level(self):
        # without support point 1 every k<=2 split is Schreier-admissible,
        # so the same card level is redundant here
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(2), Q(1, 2)),
        ))
        kept, _ = levels_needed(spec, (2, 10, 11, 12))
        assert kept == (spec.levels[0],)

    def test_truncation_never_loses_weight(self):
        # a dropped level's weight never exceeds its coverer's
        spec = schlumprecht_spec(8)
        kept, dropped = levels_needed(spec, (1, 2, 3, 4))
        assert kept and dropped
        for lv, reason in dropped:
            assert "covered by" in reason
