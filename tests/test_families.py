import itertools
import json
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from oracles import log2_between
from test_dualnorm import EDITS, mutate
from tsinorm import families, primal
from tsinorm.core import (
    BlockPartition,
    IntervalScalar,
    enumerate_partitions,
    format_vector,
    parse_vector,
)
from tsinorm.families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    Schreier1,
    SchlumprechtWeight,
    TsinormError,
    _covers,
    _log2_enclosure,
    _prime_factors,
    _theta_ge,
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

    def test_huge_mantissa_fits_the_working_width(self):
        # log2 m = 301.58... is wider than the default working width
        assert _log2_enclosure(3 * 2 ** 300, 64) == _log2_enclosure(3, 64) + 300

    def test_trial_division_is_bounded(self):
        # 65537 is past the trial-division bound, so its square is left
        # whole; below 2^32 every factor is still prime
        assert _prime_factors(3 * 65537 ** 2) == [3, 65537 ** 2]
        assert _prime_factors(65521 * 65519 * 4) == [2, 2, 65519, 65521]
        m = 2 ** 200 + 1
        factors = _prime_factors(m)
        assert factors[:-1] == [257, 1601, 25601] and factors[-1] * 257 * 1601 * 25601 == m
        enc = _log2_enclosure(m, 8)
        assert enc.width <= Q(len(factors), 2 ** 8)
        assert log2_between(m, enc.lo, enc.hi)

    def test_fresh_enclosure_factors_once(self, monkeypatch):
        # 2^200 + 2 = 2 * 3 * a 198-bit cofactor with no prime factor
        # below the trial-division bound: each odd factor is enclosed as
        # given, never factored again
        calls = []
        monkeypatch.setattr(families, "_prime_factors",
                            lambda n: calls.append(n) or _prime_factors(n))
        _log2_enclosure.cache_clear()
        m = 2 ** 200 + 2
        enc = _log2_enclosure(m, 64)
        assert calls == [m >> 1]
        assert enc.width <= Q(len(_prime_factors(m >> 1)), 2 ** 64)

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


# untrusted input: three space configs (as JSON text, one level a line)
# and vector literals
CONFIG_TEXTS = (
    '{"name": "card-demo", "levels": [\n{"family": "schreier1", "theta": "1/2"},\n'
    '{"family": {"card_at_most": 2}, "theta": "1/3"}]}',
    '{"name": "explicit", "levels": [\n{"family": {"explicit": [[2, 4], [3, 5, 7]]}, '
    '"theta": "1/2"},\n{"family": {"card_at_most": 2}, "theta": "2/3"}]}',
    '{"name": "s", "levels": [\n{"family": {"card_at_most": 3}, "theta": {"schlumprecht": 3}}]}',
)
VECTOR_TEXTS = ("1:1/2 3:-1 5:2", "2:3/4 4:-1/3 7:1", "1:-5")
INPUT_TOKEN = re.compile(r'"[^"]*"|[{}\[\],:]|[^\s{}\[\],:"]+')
INPUT_JUNK = ("0", "-1", "1/0", "2.5", "1e999", "x", "null", "true", '""', '"1/2"',
              '"schreier1"', "{", "}", "[", "]", ",", ":")


@given(which=st.integers(0, len(CONFIG_TEXTS) + len(VECTOR_TEXTS) - 1),
       at=st.integers(0, 10 ** 6), op=st.sampled_from(EDITS),
       other=st.one_of(st.sampled_from(INPUT_JUNK), st.integers(0, 10 ** 6)))
@settings(deadline=None, max_examples=1000)
def test_mutated_input_rejected_or_round_trips(which, at, op, other):
    """One edit of a space config or vector literal (mutate): a token
    replaced (by a junk token or one from the inputs), deleted,
    duplicated or wrapped in brackets, a character replaced, deleted or
    inserted, or two lines swapped: the reader raises TsinormError (a
    config that is not JSON is refused before spec_from_config, as the
    command line does), or what it returns round-trips through its
    writer."""
    texts = CONFIG_TEXTS + VECTOR_TEXTS
    if isinstance(other, int):
        pool = sorted({t for d in texts for t in INPUT_TOKEN.findall(d)})
        other = pool[other % len(pool)]
    mutated = mutate(texts[which], INPUT_TOKEN, at, op, other, "[]")
    if which < len(CONFIG_TEXTS):
        try:
            doc = json.loads(mutated)
        except ValueError:
            return
        read, write = spec_from_config, spec_to_config
    else:
        doc, read, write = mutated, parse_vector, format_vector
    try:
        value = read(doc)
    except TsinormError:
        return
    assert read(write(value)) == value


class TestLevelsNeeded:
    def test_high_cardinality_levels_dropped(self):
        spec = schlumprecht_spec(8)
        kept = levels_needed(spec, (1, 2, 3))
        # on 3 support points, A_l for l >= 3 all admit the same partitions;
        # the smallest such l has the largest weight and absorbs the rest
        assert kept == tuple((i, lv.family, lv.theta)
                             for i, lv in enumerate(spec.levels[:2]))
        assert [family.n for _, family, _ in kept] == [2, 3]

    def test_duplicate_levels_deduped(self, monkeypatch):
        lv = Level(Schreier1(), Q(1, 2))
        spec = MixedSpaceSpec("twice", (lv, lv))
        kept = levels_needed(spec, (1, 2, 3, 4))
        assert kept == ((0, lv.family, lv.theta),)
        # mixed_norm's window pass reads these triples, so it walks the level once
        seen = []
        real = primal.best_windows

        def spy(entries, levels, *args):
            seen.append(levels)
            return real(entries, levels, *args)

        monkeypatch.setattr(primal, "best_windows", spy)
        primal.mixed_norm(spec, parse_vector("1:1 2:1 3:1 4:1"))
        assert seen == [kept]

    def test_zero_vector_keeps_first_level(self):
        spec = schlumprecht_spec(4)
        lv = spec.levels[0]
        assert levels_needed(spec, ()) == ((0, lv.family, lv.theta),)

    def test_schreier_dominates_small_cards_high_support(self):
        # on support {5,...,10} Schreier admits any k <= 5 blocks, so a
        # card<=3 level with no larger weight is redundant
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(3), Q(1, 2)),
        ))
        assert levels_needed(spec, (5, 6, 7, 8, 9, 10)) == ((0, Schreier1(), Q(1, 2)),)

    def test_low_support_keeps_card_level(self):
        # the subset {1,10} admits the 2-block split ({1},{10}) under card<=2
        # but not under Schreier (k=2 > min E_1 = 1), so the card level stays
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(2), Q(1, 2)),
        ))
        assert levels_needed(spec, (1, 10, 11, 12)) == (
            (0, Schreier1(), Q(1, 2)), (1, CardinalityAtMost(2), Q(1, 2)))

    def test_support_from_two_drops_card_level(self):
        # without support point 1 every k<=2 split is Schreier-admissible,
        # so the same card level is redundant here
        spec = MixedSpaceSpec("mix", (
            Level(Schreier1(), Q(1, 2)),
            Level(CardinalityAtMost(2), Q(1, 2)),
        ))
        assert levels_needed(spec, (2, 10, 11, 12)) == ((0, Schreier1(), Q(1, 2)),)

    def test_truncation_never_loses_weight(self):
        # every level left out has a kept level of no smaller weight whose
        # family covers it on the support
        spec = schlumprecht_spec(8)
        for support in ((1, 2, 3), (1, 2, 3, 4), (2, 5, 6, 9, 12)):
            kept = levels_needed(spec, support)
            indices = {i for i, _, _ in kept}
            left_out = [lv for i, lv in enumerate(spec.levels) if i not in indices]
            assert kept and left_out
            for lv in left_out:
                assert any(_theta_ge(theta, lv.theta) and _covers(lv.family, family, support)
                           for _, family, theta in kept)

    def test_dropped_levels_admit_nothing_a_kept_one_refuses(self):
        # checked partition by partition through is_admissible, not by
        # _covers: every partition into 2 or more successive blocks of
        # every nonempty subset of the support that a left-out level
        # admits, a kept level of no smaller weight admits too
        rng = random.Random(20261020)
        fams = (Schreier1(), CardinalityAtMost(1), CardinalityAtMost(2), CardinalityAtMost(3),
                CardinalityAtMost(5), ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9))),
                ExplicitFinite(((1, 4), (2, 4, 6))))
        thetas = (Q(1, 2), Q(1, 3), Q(2, 3), SchlumprechtWeight(2), SchlumprechtWeight(3),
                  SchlumprechtWeight(7))
        dropped = 0
        for _ in range(300):
            levels = [Level(rng.choice(fams), rng.choice(thetas))
                      for _ in range(rng.randint(1, 3))]
            support = tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 6))))
            kept = levels_needed(MixedSpaceSpec("random", levels), support)
            indices = {i for i, _, _ in kept}
            partitions = [P for size in range(2, len(support) + 1)
                          for T in itertools.combinations(support, size)
                          for k in range(2, size + 1) for P in enumerate_partitions(T, k)]
            for lv in (lv for i, lv in enumerate(levels) if i not in indices):
                dropped += 1
                assert any(_theta_ge(theta, lv.theta) and all(
                    is_admissible(family, P) for P in partitions if is_admissible(lv.family, P))
                    for _, family, theta in kept), (levels, support)
        assert dropped > 50
