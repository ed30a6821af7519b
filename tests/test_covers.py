"""The successive-cover engine: its dynamic program against the cover
walk, the walk against the partition enumerator, and the interval route
that must stay on the walk."""
import functools
import itertools
import random
import types
from fractions import Fraction as Q

import pytest

import tsinorm
from tsinorm import core, covers, families
from tsinorm.core import FinVec, IntervalScalar, parse_vector
from tsinorm.dualnorm import rho_partition_upper, sigma_ell1_variant
from tsinorm.families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    Schreier1,
    schlumprecht_spec,
    tsirelson_spec,
)
from tsinorm.primal import fj_norm, mixed_norm

from frozen_values import MIXED_CARD_LEVELS
from test_dualnorm import ORACLE_SPACES

CARD_DEMO = MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                         Level(CardinalityAtMost(2), Q(1, 3))))
CARD_MIX = MixedSpaceSpec("card-mix", tuple(Level(CardinalityAtMost(l), th)
                                            for _, l, th in MIXED_CARD_LEVELS))
EXPLICIT = MixedSpaceSpec("explicit-mix", (
    Level(ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9))), Q(2, 3)),
    Level(CardinalityAtMost(2), Q(1, 2)),
    Level(Schreier1(), Q(1, 3))))
SPACES = (tsirelson_spec(), CARD_DEMO, CARD_MIX)
GRID = (Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2), Q(3, 4))


def random_vector(rng, max_index, max_size):
    idx = rng.sample(range(1, max_index + 1), rng.randint(0, max_size))
    return FinVec.from_items({i: rng.choice(GRID) for i in idx})


@pytest.fixture
def enumerator_only(monkeypatch):
    """Make every family look unbounded to the engine, so each level walks
    its covers one by one; admissibility itself is unchanged."""
    def install():
        monkeypatch.setattr(covers, "families", types.SimpleNamespace(
            max_blocks=lambda family, first_index: None,
            part_bound=families.part_bound,
            is_admissible=families.is_admissible))
    return install


def test_max_blocks():
    assert families.max_blocks(Schreier1(), 4) == 4
    assert families.max_blocks(CardinalityAtMost(3), 9) == 3
    assert families.max_blocks(families.ExplicitFinite(((2, 3),)), 2) is None


@functools.lru_cache(maxsize=None)
def _tuples_from(first: int) -> tuple:
    """Every successive block tuple inside [first, 10] whose first block
    starts at first."""
    rest = range(first + 1, 11)
    return tuple(P for size in range(len(rest) + 1)
                 for S in itertools.combinations(rest, size)
                 for k in range(1, size + 2)
                 for P in core.enumerate_partitions((first,) + S, k))


# EXPLICIT's explicit level is that of ORACLE_SPACES["explicit"]; the other
# two explicit families have a set reaching 1 and the sets of 6 consecutive
# indices inside [1, 10]
@pytest.mark.parametrize("family", [
    Schreier1(), CardinalityAtMost(1), CardinalityAtMost(2), CardinalityAtMost(3),
    EXPLICIT.levels[0].family, ExplicitFinite(((1, 4), (2, 4, 6))),
    ExplicitFinite(tuple(tuple(range(i, i + 6)) for i in range(1, 6)))], ids=str)
def test_part_bound_against_is_admissible(family):
    for first in range(1, 9):
        bound = families.part_bound(family, first)
        most = max(P.k for P in _tuples_from(first) if families.is_admissible(family, P))
        assert most <= bound
        cap = families.max_blocks(family, first)
        if cap is not None:
            assert bound == cap
        elif any(M[0] <= first for M in family.sets):
            assert most == bound
        else:
            assert bound == 1


def test_cover_walk_asks_within_part_bound(monkeypatch):
    # the walk never asks is_admissible about a cover with more blocks
    # than the part bound of the level it asks for
    asked = []

    def admissible(family, P):
        asked.append(P.k <= families.part_bound(family, P.blocks[0][0]))
        return families.is_admissible(family, P)

    monkeypatch.setattr(covers, "families", types.SimpleNamespace(
        max_blocks=families.max_blocks, part_bound=families.part_bound,
        is_admissible=admissible))
    rng = random.Random(53)
    for spec in (EXPLICIT, ORACLE_SPACES["explicit"][0]):
        for _ in range(30):
            x = random_vector(rng, 10, 8)
            mixed_norm(spec, x)
            rho_partition_upper(spec, x, 2)
    assert asked and all(asked)


def test_dp_matches_enumerator(enumerator_only):
    rng = random.Random(41)
    cases = [(spec, random_vector(rng, 9, 7)) for spec in SPACES for _ in range(25)]
    tsinorm.clear_caches()
    dp = [(mixed_norm(spec, x),
           [rho_partition_upper(spec, x, n) for n in range(4)],
           sigma_ell1_variant(spec, x)) for spec, x in cases]
    fj = [fj_norm(x) for spec, x in cases if spec.name == "tsirelson"]
    enumerator_only()
    tsinorm.clear_caches()
    enumerated = [(mixed_norm(spec, x),
                   [rho_partition_upper(spec, x, n) for n in range(4)],
                   sigma_ell1_variant(spec, x)) for spec, x in cases]
    tsinorm.clear_caches()
    assert dp == enumerated
    assert fj == [e[0] for (spec, _), e in zip(cases, enumerated)
                  if spec.name == "tsirelson"]


def test_bounded_cover_walk_matches_enumerator(monkeypatch):
    # the cut positions walked for every family give exactly the
    # is_admissible-filtered partitions of the enumerator, in the order
    # block count, cuts, level; bounded families ask is_admissible nothing
    rng = random.Random(43)
    cases = [(spec, random_vector(rng, 9, 7)) for spec in SPACES + (EXPLICIT,)
             for _ in range(20)]
    cases += [(spec, FinVec(())) for spec in SPACES + (EXPLICIT,)]
    enumerated = []
    partitions = core.enumerate_partitions
    monkeypatch.setattr(core, "enumerate_partitions",
                        lambda S, k: enumerated.append(S) or partitions(S, k))

    def part(entries):
        return lambda a, b: sum(c for _, c in entries[a:b])

    def reference(entries, levels):
        out = []
        support = tuple(i for i, _ in entries)
        sums = dict(entries)
        for k in range(2, len(support) + 1):
            for P in partitions(support, k):
                for index, family, theta in levels:
                    if families.is_admissible(family, P):
                        out.append((index, P.blocks,
                                    max(sum(sums[i] for i in b) for b in P.blocks) / theta))
        return out

    walked = []
    expected = []
    for spec, x in cases:
        entries = x.abs().entries
        levels = tuple((i, lv.family, lv.theta) for i, lv in enumerate(spec.levels))
        before = len(enumerated)
        got = list(covers.cover_branches(entries, levels, part(entries)))
        walked.append((spec is EXPLICIT, len(enumerated) - before, got))
        expected.append(reference(entries, levels))

    assert [n for explicit, n, _ in walked if not explicit] == [0] * (3 * 21)
    assert [b for _, _, b in walked] == expected
    assert sum(len(b) for _, _, b in walked) > 400


def test_interval_route_stays_on_the_enumerator():
    # the dynamic program, comparing these intervals with _improves, gives
    # the wider (still valid) [47360/20851, 331264/145395] here
    x = parse_vector("2:-1/2 3:1/2 4:1 5:-1 6:1 9:-1/2 10:-2")
    value, _ = mixed_norm(schlumprecht_spec(), x, precision=4)
    assert value == IntervalScalar(Q(43442372608, 19110866159), Q(339392512, 149301393))


def test_interval_walk_skips_covers_that_cannot_win(monkeypatch):
    # a walk of every admissible cover of every window and level meets 1849
    # covers here, and 6 of them reach a certified comparison; the hi-end
    # table skips the covers that cannot beat the incumbent, so the pass
    # reads few block values and makes the same 6 comparisons
    x = parse_vector("1:-1/2 2:-1/2 3:1 4:1/2 5:2 6:-1/2 7:-1/2")
    entries = x.abs().entries
    kept = families.levels_needed(schlumprecht_spec(), x.support)
    met = sum(1 for b in range(2, 8) for a in range(b - 1) for level in kept
              for s in range(a, b) for _ in covers._admissible_covers(entries[:b], (level,), s))
    assert met == 1849
    reads, compared = [], []

    class Counted(list):  # the block table, counting the rows read from it
        def __getitem__(self, a):
            reads.append(a)
            return list.__getitem__(self, a)

    init, improves = covers._Pass.__init__, covers._improves

    def counted(self, *args):
        init(self, *args)
        self.blocks = Counted(self.blocks)

    monkeypatch.setattr(covers._Pass, "__init__", counted)
    monkeypatch.setattr(covers, "_improves",
                        lambda *args, **kwargs: compared.append(args) or improves(*args, **kwargs))
    value, _ = mixed_norm(schlumprecht_spec(), x)
    assert value == IntervalScalar.point(2)
    assert len(compared) == 6
    assert 0 < len(reads) < met // 10


@pytest.mark.parametrize("spec", SPACES + (EXPLICIT,), ids=lambda s: s.name)
def test_batched_fixpoints_match_fixpoint(spec):
    # supports sharing prefixes, repeated and shuffled, valued in one pass
    rng = random.Random(47)
    levels = tuple((i, lv.family, lv.theta) for i, lv in enumerate(spec.levels))
    supports = [()]
    for _ in range(12):
        base = tuple(sorted((i, rng.randint(1, 6))
                            for i in rng.sample(range(1, 10), rng.randint(1, 7))))
        cut = rng.randint(0, len(base))
        tail = tuple((i, rng.randint(1, 6)) for i in range(base[cut - 1][0] + 1 if cut else 1, 10)
                     if rng.random() < 0.3)
        supports += [base, base[:cut], base[:cut] + tail[:7 - cut], base]
    rng.shuffle(supports)
    values, unit = covers.fixpoints(levels, supports, 4, 7)
    # each against the single-support fixpoint pass
    assert [Q(v, unit) for v in values] == [
        covers.best_windows(tuple((i, Q(c, 4)) for i, c in s), levels, False).scalar(0, len(s))
        if s else 0 for s in supports]
    assert len(set(supports)) < len(supports) and max(map(len, supports)) == 7
