"""Norming set construction, evaluation, pruning, and serialization."""
import hashlib
import itertools
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import tsinorm
from tsinorm import cli
from tsinorm.core import (
    BudgetExceededError,
    FinVec,
    TsinormError,
    pairing,
)
from tsinorm.families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    Schreier1,
    schlumprecht_spec,
    tsirelson_spec,
)
from tsinorm.norming import (
    FunctionalLeaf,
    FunctionalNode,
    NormingFunctional,
    NormingSet,
    _closure,
    _maximal_keys,
    _maximal_patterns,
    build_norming_set,
    export_norming_set,
    import_norming_set,
    norming_generators,
    raw_norming_generation,
    tau,
    verify_norming_functional,
)
from tsinorm.dualnorm import (
    dual_norm,
    dual_norm_value,
    export_dual_certificate,
    import_dual_certificate,
)
from tsinorm.primal import fj_norm, fj_norm_level, mixed_norm

from oracles import TSIRELSON_LEVELS, brute_raw_functionals, brute_tau, reference_closure
from test_dualnorm import ORACLE_SPACES

TS = tsirelson_spec()
CARD_DEMO = MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                         Level(CardinalityAtMost(2), Q(1, 3))))
EXPLICIT = MixedSpaceSpec("explicit-demo", (
    Level(ExplicitFinite(((1, 2), (2, 3, 4), (3, 5), (1, 4, 5), (2, 5, 6))), Q(2, 3)),
    Level(Schreier1(), Q(1, 2))))

_ORACLE_RAW = {}


def oracle_raw(N, generations):
    """Cached literal oracle sets; the k=1 chains make them pricey to build."""
    key = (N, generations)
    if key not in _ORACLE_RAW:
        _ORACLE_RAW[key] = brute_raw_functionals(
            TSIRELSON_LEVELS, range(1, N + 1), generations)
    return _ORACLE_RAW[key]


def vec(d):
    return FinVec.from_items({i: Q(c) for i, c in d.items()})


def coeff_vectors(vset):
    return {f.coeffs.entries for f in vset.functionals}


def reference_maximal(keys):
    """All-pairs reference: the keys no distinct key dominates."""
    return frozenset(
        key for key in keys
        if not any(other != key and all(dict(other).get(i, 0) >= c for i, c in key)
                   for other in keys))


def grid_vectors(indices, grid):
    """All nonzero vectors over the index tuple with coefficients in grid."""
    out = []
    for combo in itertools.product(grid, repeat=len(indices)):
        d = {i: c for i, c in zip(indices, combo) if c != 0}
        if d:
            out.append(vec(d))
    return out


class TestSpecExamples:
    def test_window_one_is_signed_units(self):
        vs = build_norming_set(TS, 1)
        assert coeff_vectors(vs) == {((1, Q(1)),), ((1, Q(-1)),)}
        assert vs.stabilized
        assert vs.generation == 0

    def test_window_three_pair_present_singleton_pruned(self):
        vs = build_norming_set(TS, 3)
        vecs = coeff_vectors(vs)
        assert ((2, Q(1, 2)), (3, Q(1, 2))) in vecs
        # theta*e*_3 alone is dominated by e*_3 and must have been pruned
        assert ((3, Q(1, 2)),) not in vecs
        assert vs.generation == 1

    def test_window_five_triple_present(self):
        vs = build_norming_set(TS, 5)
        assert ((3, Q(1, 2)), (4, Q(1, 2)), (5, Q(1, 2))) in coeff_vectors(vs)

    def test_units_always_survive_pruning(self):
        vs = build_norming_set(TS, 6)
        vecs = coeff_vectors(vs)
        for k in range(1, 7):
            assert ((k, Q(1)),) in vecs
            assert ((k, Q(-1)),) in vecs


class TestAgainstOracle:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_maximal_set_matches_literal_recursion(self, N):
        # The multi-part closure on [1, N] is complete after N-2 productive
        # rounds; everything the literal recursion adds later (one-part
        # chains and bundles over them) is dominated.  So the maximal
        # elements of the oracle set at generation N-2 are the maximal
        # elements overall, and must reproduce the built set.
        raw = oracle_raw(N, max(N - 2, 1))
        abs_patterns = {}
        for f in raw:
            fa = tuple(sorted((i, abs(c)) for i, c in f))
            abs_patterns.setdefault(fa, []).append(f)
        pats = [dict(p) for p in abs_patterns]
        maximal_pats = set()
        for fa in pats:
            key = tuple(sorted(fa.items()))
            if not any(dict(g) != fa
                       and all(dict(g).get(i, Q(0)) >= c for i, c in fa.items())
                       for g in abs_patterns):
                maximal_pats.add(key)
        maximal = {tuple(sorted(f)) for pat, fs in abs_patterns.items()
                   if pat in maximal_pats for f in fs}
        assert coeff_vectors(build_norming_set(TS, N)) == maximal

    def test_tau_matches_oracle_on_random_vectors(self):
        vs = build_norming_set(TS, 5)
        raw = oracle_raw(5, 3)
        rng = random.Random(20260816)
        grid = [Q(0), Q(1), Q(-1), Q(1, 2), Q(3, 2)]
        for _ in range(120):
            d = {i: rng.choice(grid) for i in range(1, 6)}
            x = vec({i: c for i, c in d.items() if c != 0})
            assert tau(vs, x) == brute_tau(raw, x.to_dict())


class TestTauGoldens:
    def test_triple_block(self):
        vs = build_norming_set(TS, 5)
        assert tau(vs, vec({3: 1, 4: 1, 5: 1})) == Q(3, 2)

    def test_first_unit(self):
        for N in (1, 2, 5):
            assert tau(build_norming_set(TS, N), FinVec.basis(1)) == 1

    def test_negative_unit(self):
        assert tau(build_norming_set(TS, 2), FinVec.basis(2, -1)) == 1

    def test_zero_vector(self):
        assert tau(build_norming_set(TS, 3), FinVec.zero()) == 0

    def test_support_outside_window_rejected(self):
        vs = build_norming_set(TS, 3)
        with pytest.raises(TsinormError, match="window"):
            tau(vs, FinVec.basis(4))


class TestSignClasses:
    @pytest.mark.parametrize("repeat", [False, True], ids=["missing", "repeated"])
    def test_incomplete_class_scans_every_functional(self, repeat):
        # without -e1 the class of e1 holds one of its two sign variants;
        # repeating e1 gives it two members but still one distinct vector
        built = build_norming_set(TS, 3)
        funcs = [f for f in built.functionals if f.coeffs != vec({1: -1})]
        assert len(funcs) == len(built.functionals) - 1
        if repeat:
            funcs += [f for f in funcs if f.coeffs == vec({1: 1})]
        vset = NormingSet(TS, 3, tuple(funcs), built.generation, built.stabilized)
        for x in grid_vectors((1, 2, 3), [Q(0), Q(1), Q(-1), Q(1, 2), Q(-2)]):
            assert tau(vset, x) == max(pairing(f.coeffs, x) for f in vset.functionals)
        assert tau(vset, vec({1: -1})) == 0

    def test_class_table_waits_for_tau(self):
        built = build_norming_set(TS, 4)
        sets = [built, raw_norming_generation(TS, 4, 2),
                import_norming_set(export_norming_set(built), TS)]
        x = vec({1: -1, 3: 2})
        for vset in sets:
            assert "_abs_reps" not in vars(vset)
            value = tau(vset, x)
            table = vars(vset)["_abs_reps"]
            assert table is not None
            assert tau(vset, x) == value
            assert vars(vset)["_abs_reps"] is table


class TestDetermination:
    def test_exhaustive_window_four(self):
        vs = build_norming_set(TS, 4)
        for x in grid_vectors((1, 2, 3, 4), [Q(0), Q(1), Q(-1), Q(1, 2), Q(2)]):
            value, _ = fj_norm(x)
            assert tau(vs, x) == value

    def test_random_window_six(self):
        vs = build_norming_set(TS, 6)
        rng = random.Random(606)
        grid = [Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(5, 3)]
        for _ in range(150):
            d = {i: rng.choice(grid) for i in range(1, 7)}
            x = vec({i: c for i, c in d.items() if c != 0})
            if x.is_zero:
                continue
            value, _ = fj_norm(x)
            assert tau(vs, x) == value

    def test_mixed_cardinality_space(self):
        # determination is not special to the Schreier family
        spec = MixedSpaceSpec("mixed-card", (
            Level(CardinalityAtMost(2), Q(1, 2)),
            Level(CardinalityAtMost(3), Q(1, 3)),
        ))
        vs = build_norming_set(spec, 4)
        for x in grid_vectors((1, 2, 3, 4), [Q(0), Q(1), Q(-1), Q(2)]):
            value, _ = mixed_norm(spec, x)
            assert tau(vs, x) == value


class TestLevelAgreement:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_raw_generation_matches_norm_level(self, n):
        raw = raw_norming_generation(TS, 5, n)
        rng = random.Random(1000 + n)
        grid = [Q(0), Q(1), Q(-1), Q(1, 2), Q(2)]
        samples = [vec({i: Q(1) for i in range(1, 6)}),
                   vec({1: Q(1, 2), 2: 1, 3: 1, 4: 1, 5: 1}),
                   vec({3: 1, 4: 1, 5: 1})]
        for _ in range(60):
            d = {i: rng.choice(grid) for i in range(1, 6)}
            x = vec({i: c for i, c in d.items() if c != 0})
            if not x.is_zero:
                samples.append(x)
        for x in samples:
            assert tau(raw, x) == fj_norm_level(x, n)

    def test_raw_sizes_match_oracle(self):
        for n in (0, 1, 2, 3):
            raw = raw_norming_generation(TS, 5, n)
            assert coeff_vectors(raw) == {tuple(sorted(f))
                                          for f in oracle_raw(5, n)}

    def test_raw_is_not_marked_stabilized_when_truncated(self):
        assert raw_norming_generation(TS, 5, 2).stabilized is False


class TestPruningSoundness:
    def test_raw_and_pruned_tau_agree(self):
        # the two-or-more-part closure on [1, 5] is complete after 3
        # productive rounds; the raw set still carries every dominated
        # functional (one-part chains included)
        raw = raw_norming_generation(TS, 5, 3)
        pruned = build_norming_set(TS, 5)
        assert len(pruned.functionals) < len(raw.functionals)
        for x in grid_vectors((1, 2, 3, 4, 5), [Q(0), Q(1), Q(1, 2), Q(2)]):
            assert tau(raw, x) == tau(pruned, x)


class TestDualBound:
    def test_every_functional_stays_below_the_norm(self):
        vs = build_norming_set(TS, 5)
        rng = random.Random(77)
        grid = [Q(0), Q(1), Q(-1), Q(1, 2), Q(2), Q(-3, 2)]
        for _ in range(80):
            d = {i: rng.choice(grid) for i in range(1, 6)}
            x = vec({i: c for i, c in d.items() if c != 0})
            if x.is_zero:
                continue
            value, _ = fj_norm(x)
            for f in vs.functionals:
                assert f(x) <= value


class TestRestrictionClosure:
    @pytest.mark.parametrize("N", [4, 5, 6])
    def test_interval_restrictions_are_dominated(self, N):
        vs = build_norming_set(TS, N)
        abs_reps = {f.coeffs.abs().entries for f in vs.functionals}
        reps = [dict(r) for r in abs_reps]
        for f in reps:
            for a in range(1, N + 1):
                for b in range(a, N + 1):
                    r = {i: c for i, c in f.items() if a <= i <= b}
                    if not r:
                        continue
                    assert any(
                        all(g.get(i, Q(0)) >= c for i, c in r.items())
                        for g in reps), (f, a, b)


class TestInvariantsAndStructure:
    def test_functional_trees_verify(self):
        vs = build_norming_set(TS, 5)
        for f in vs.functionals:
            verify_norming_functional(TS, f, window=5)

    def test_stabilization_generations(self):
        # closure depth grows with the window
        assert build_norming_set(TS, 1).generation == 0
        assert build_norming_set(TS, 3).generation == 1
        assert build_norming_set(TS, 5).generation == 3
        assert build_norming_set(TS, 6).generation == 4

    def test_functionals_are_sorted_and_deduplicated(self):
        vs = build_norming_set(TS, 5)
        entries = [f.coeffs.entries for f in vs.functionals]
        assert entries == sorted(entries)
        assert len(entries) == len(set(entries))

    def test_sign_variants_share_subtrees(self):
        def signs(tree):
            if isinstance(tree, FunctionalLeaf):
                return (tree.sign,)
            return tuple(s for c in tree.children for s in signs(c))

        groups = {}
        for f in build_norming_set(TS, 6).functionals:
            groups.setdefault(f.coeffs.abs().entries, []).append(f.tree)
        shared = 0
        for trees in groups.values():
            for a, b in itertools.combinations(trees, 2):
                if isinstance(a, FunctionalLeaf):
                    continue
                for ca, cb in zip(a.children, b.children):
                    assert (ca is cb) == (signs(ca) == signs(cb))
                    shared += ca is cb
        assert shared

    def test_symbolic_theta_rejected(self):
        with pytest.raises(TsinormError, match="rational"):
            build_norming_set(schlumprecht_spec(), 3)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            build_norming_set(TS, 0)

    def test_budget_exhaustion_is_an_error(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            build_norming_set(TS, 6, budget=10)

    def test_budget_applies_to_sign_expansion(self):
        # 39 nonneg maximal patterns on [1, 6] fit, their 524 sign variants do not
        with pytest.raises(BudgetExceededError, match="sign expansion"):
            build_norming_set(TS, 6, budget=100)


class TestExplicitHeredity:
    def test_tau_equals_mixed_norm(self):
        # a bundle under a listed set may leave some of its points out of
        # a vector's support; the primal recursion reaches it only when
        # the family holds the subsets of its listed sets
        vset = build_norming_set(EXPLICIT, 6)
        rng = random.Random(33)
        grid = (1, -1, Q(1, 2), Q(-1, 2), 2, -2)
        for _ in range(400):
            z = vec({i: rng.choice(grid) for i in range(1, 7) if rng.random() < 0.6})
            assert tau(vset, z) == mixed_norm(EXPLICIT, z)[0], z.to_dict()


class TestGeneration:
    @pytest.mark.parametrize("spec, top", [(CARD_DEMO, 4), (EXPLICIT, 4), (TS, 5)],
                             ids=["card-demo", "explicit", "tsirelson"])
    def test_first_raw_round_with_the_final_maximal_set(self, spec, top):
        # the one-part bundles of the raw rounds are dominated by their
        # contractions, so raw round n has the built set's maximal
        # patterns exactly from the built set's generation on
        for N in range(1, top + 1):
            built = build_norming_set(spec, N)
            final = {f.coeffs.abs().entries for f in built.functionals}
            first = next(
                (n for n in range(built.generation + 2)
                 if reference_maximal({f.coeffs.abs().entries for f in
                                       raw_norming_generation(spec, N, n).functionals})
                 == final), None)
            assert first == built.generation, N


KEY = st.dictionaries(st.integers(1, 6),
                      st.sampled_from((Q(1), Q(1, 2), Q(1, 3), Q(2, 3), Q(1, 4))),
                      min_size=1, max_size=4)


@given(base=st.lists(KEY, min_size=1, max_size=12),
       derived=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5),
                                  st.sampled_from((Q(1), Q(1, 2))), st.booleans()),
                        max_size=12))
@settings(deadline=None, max_examples=300)
def test_maximal_keys_match_all_pairs(base, derived):
    # derived keys are either shifted copies (equal coefficient sums) or
    # copies with one index dropped and coefficients scaled (nested below
    # the key they came from)
    keys = {tuple(sorted(d.items())) for d in base}
    for which, drop, factor, shift in derived:
        d = base[which % len(base)]
        if shift:
            d = {i + 1: c for i, c in d.items()}
        else:
            d = {i: c * factor for i, c in d.items()
                 if len(d) == 1 or i != sorted(d)[drop % len(d)]}
        keys.add(tuple(sorted(d.items())))
    assert _maximal_keys(keys) == reference_maximal(keys)


class TestExportImport:
    def test_round_trip(self):
        vs = build_norming_set(TS, 5)
        text = export_norming_set(vs)
        back = import_norming_set(text, TS)
        assert back.window == 5
        assert back.generation == vs.generation
        assert back.stabilized
        assert coeff_vectors(back) == coeff_vectors(vs)
        for x in grid_vectors((2, 3, 5), [Q(0), Q(1), Q(-1, 2)]):
            assert tau(back, x) == tau(vs, x)

    def test_export_is_deterministic(self):
        a = export_norming_set(build_norming_set(TS, 4))
        b = export_norming_set(build_norming_set(TS, 4))
        assert a == b

    def test_tampered_coefficient_rejected(self):
        text = export_norming_set(build_norming_set(TS, 3))
        bad = text.replace("2:1/2 3:1/2", "2:1/2 3:1/4", 1)
        with pytest.raises(TsinormError, match="recompute"):
            import_norming_set(bad, TS)

    def test_tampered_weight_rejected(self):
        text = export_norming_set(build_norming_set(TS, 3))
        bad = text.replace("(1/2 e2 e3)", "(1/3 e2 e3)", 1)
        with pytest.raises(TsinormError):
            import_norming_set(bad, TS)

    @pytest.mark.parametrize("old, new, message", [
        ("(1/2 -e2 (1/2 -e3 -e4 -e5))\t2:-1/2 3:-1/4 4:-1/4 5:-1/4",
         "(1/2 -e2 (1/2 -e3 -e4 -e5))\t2:-1/2 3:-1/4 4:-1/4 5:1/4",
         "tree does not recompute the stored coefficients"),
        ("window=5", "window=4",
         "functional support (2, 3, 4, 5) leaves the window [1, 4]"),
    ], ids=["nested-column-sign", "window-too-small"])
    def test_column_checked_against_parsed_tree(self, old, new, message):
        text = export_norming_set(build_norming_set(TS, 5))
        assert old in text
        with pytest.raises(TsinormError, match=re.escape(message)):
            import_norming_set(text.replace(old, new, 1), TS)

    def test_inadmissible_tree_rejected(self):
        # two blocks starting at index 1 break the Schreier condition
        text = ("# norming-set space=tsirelson window=2 generation=0 "
                "stabilized=true count=1\n"
                "# level 0: schreier1 theta=1/2\n"
                "(1/2 e1 e2)\t1:1/2 2:1/2\n")
        with pytest.raises(TsinormError, match="admits"):
            import_norming_set(text, TS)

    def test_duplicate_functional_rejected(self):
        text = ("# norming-set space=tsirelson window=1 generation=0 "
                "stabilized=true count=2\n"
                "# level 0: schreier1 theta=1/2\n"
                "e1\t1:1\n"
                "e1\t1:1\n")
        with pytest.raises(TsinormError, match="duplicate"):
            import_norming_set(text, TS)

    def test_missing_header_rejected(self):
        with pytest.raises(TsinormError, match="metadata"):
            import_norming_set("e1\t1:1\n", TS)

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("(1/2 e2 e3)", "(1/2 " * 3000 + "e2 e3" + ")" * 3000),
        lambda t: t.replace("e2\t", "e\u00b2\t"),
        lambda t: t.replace("\t1:1", "\t0:1"),
        lambda t: t.replace("window=3", "window=x"),
        lambda t: t.replace("count=10", "count=x"),
        lambda t: t.replace("stabilized=true", "stabilized=maybe"),
        lambda t: "".join(t.replace("count=10", "count=0").splitlines(True)[:2]),
        lambda t: t.replace(" stabilized=true", ""),
        lambda t: t.replace("space=tsirelson", "space=halves"),
        lambda t: t.replace("space=tsirelson", "space=tsirelson2"),
        lambda t: t.replace("count=10", "count=10 space=halves"),
        lambda t: t.replace("window=3", "window=4"),
        lambda t: t.replace("generation=1", "generation=0"),
        lambda t: t.replace("generation=1", "generation=2"),
    ], ids=["deep-tree", "superscript-leaf-index", "zero-index-column",
            "window-not-a-number", "count-not-a-number", "stabilized-maybe",
            "header-only", "no-stabilized", "other-space-name", "space-name-prefix",
            "second-space-name", "window-above-largest-index", "generation-too-low",
            "generation-too-high"])
    def test_malformed_export_rejected(self, mutate):
        text = export_norming_set(build_norming_set(TS, 3))
        bad = mutate(text)
        assert bad != text
        with pytest.raises(TsinormError):
            import_norming_set(bad, TS)

    @pytest.mark.parametrize("old, new, message", [
        ("window=3", "window=9 window=3", "repeats field 'window'"),
        ("generation=1", "generation=1 generation=1", "repeats field 'generation'"),
        ("count=10", "count=10 count=10", "repeats field 'count'"),
        ("stabilized=true", "stabilized=true stabilized=false", "repeats field 'stabilized'"),
        ("count=10", "count=10 bogus=1", "has unknown field 'bogus'"),
    ], ids=["window", "generation", "count", "stabilized", "unknown"])
    def test_header_field_given_once(self, old, new, message):
        text = export_norming_set(build_norming_set(TS, 3))
        assert old in text
        with pytest.raises(TsinormError, match=re.escape(message)):
            import_norming_set(text.replace(old, new, 1), TS)

    def test_second_header_line_rejected(self):
        text = export_norming_set(build_norming_set(TS, 3))
        header = text.splitlines(True)[0]
        for bad in (header + text, text + header.replace("window=3", "window=9")):
            with pytest.raises(TsinormError, match="second header line"):
                import_norming_set(bad, TS)

    def test_comments_and_no_count_accepted(self):
        vs = build_norming_set(TS, 3)
        text = export_norming_set(vs).replace(" count=10", "", 1)
        back = import_norming_set("# written by hand\n" + text + "# end\n", TS)
        assert coeff_vectors(back) == coeff_vectors(vs)

    def test_stabilized_set_missing_sign_variants_rejected(self):
        # the nonnegative lines alone would make tau(-x) negative
        lines = export_norming_set(build_norming_set(TS, 4)).splitlines(True)
        header = [line for line in lines if line.startswith("#")]
        kept = [line for line in lines if not line.startswith("#") and "-" not in line]
        assert len(lines) - len(header) == 36 and len(kept) == 9
        header[0] = header[0].replace("count=36", "count=9")
        text = "".join(header + kept)
        with pytest.raises(TsinormError, match="sign variant"):
            import_norming_set(text, TS)
        back = import_norming_set(text.replace("stabilized=true", "stabilized=false"), TS)
        assert tau(back, vec({1: -1, 2: -1, 3: -1, 4: -1})) == -1

    @pytest.mark.parametrize("drop, add, message", [
        (("e1\t1:1\n", "-e1\t1:-1\n"), (), "1 missing, 0 extra"),
        ((), ("(1/2 e1)\t1:1/2\n", "(1/2 -e1)\t1:-1/2\n"), "0 missing, 1 extra"),
    ], ids=["whole-sign-class-missing", "dominated-class-added"])
    def test_stabilized_set_must_hold_the_maximal_classes(self, drop, add, message):
        # every class is complete in its signs, so only the maximal
        # classes of the window tell that tau would be wrong: without
        # the class of e1, tau(e1) would read 0 where the norm is 1
        lines = export_norming_set(build_norming_set(TS, 4)).splitlines(True)
        assert all(line in lines for line in drop)
        body = [line for line in lines[2:] if line not in drop] + list(add)
        header = lines[0].replace("count=36", f"count={len(body)}")
        text = "".join([header, lines[1]] + body)
        with pytest.raises(TsinormError, match=re.escape(message)):
            import_norming_set(text, TS)
        back = import_norming_set(text.replace("stabilized=true", "stabilized=false"), TS)
        assert back.cardinality == len(body)

    @staticmethod
    def one_part_chain(depth):
        """A window-1 set holding (1/2)^depth e1 as a one-part chain."""
        tree = FunctionalLeaf(1, 1)
        for _ in range(depth):
            tree = FunctionalNode(0, Q(1, 2), (tree,))
        f = NormingFunctional(FinVec.from_items({1: Q(1, 2 ** depth)}), tree)
        return NormingSet(TS, 1, (f,), generation=depth, stabilized=False)

    def test_export_refuses_what_import_refuses(self):
        text = export_norming_set(self.one_part_chain(256))
        back = import_norming_set(text, TS)
        assert coeff_vectors(back) == coeff_vectors(self.one_part_chain(256))
        with pytest.raises(TsinormError, match="nested deeper than 256"):
            export_norming_set(self.one_part_chain(257))

    def test_depth_guard_sees_shared_subtrees(self):
        # the export writes a shared subtree once per depth it sits at;
        # reusing the text of its shallow copy would hide the deep one
        shallow = self.one_part_chain(200).functionals[0]
        tree = shallow.tree
        for _ in range(57):
            tree = FunctionalNode(0, Q(1, 2), (tree,))
        deep = NormingFunctional(FinVec.from_items({1: Q(1, 2 ** 257)}), tree)
        vset = NormingSet(TS, 1, (shallow, deep), generation=257, stabilized=False)
        with pytest.raises(TsinormError, match="nested deeper than 256"):
            export_norming_set(vset)

    def test_depth_guard_on_sign_classes(self):
        # a built set is written from its classes, and its one-part
        # chains nest one level per round
        with pytest.raises(TsinormError, match="nested deeper than 256"):
            export_norming_set(raw_norming_generation(TS, 1, 257))
        vset = raw_norming_generation(TS, 1, 256)
        back = import_norming_set(export_norming_set(vset), TS)
        assert coeff_vectors(back) == coeff_vectors(vset)

    def test_space_name_with_blanks_round_trips(self):
        spec = MixedSpaceSpec("two words", TS.levels)
        text = export_norming_set(build_norming_set(spec, 3))
        assert coeff_vectors(import_norming_set(text, spec)) == coeff_vectors(
            build_norming_set(TS, 3))
        with pytest.raises(TsinormError, match="does not match"):
            import_norming_set(text, MixedSpaceSpec("two", TS.levels))

    def test_wrong_space_rejected(self):
        text = export_norming_set(build_norming_set(TS, 3))
        other = MixedSpaceSpec("halves", (Level(CardinalityAtMost(2), Q(1, 2)),))
        with pytest.raises(TsinormError, match="does not match"):
            import_norming_set(text, other)


class TestVerifier:
    def test_rejects_wrong_coefficients(self):
        f = NormingFunctional(vec({2: Q(1, 2), 3: Q(1, 3)}),
                              FunctionalNode(0, Q(1, 2), (
                                  FunctionalLeaf(2, 1), FunctionalLeaf(3, 1))))
        with pytest.raises(TsinormError, match="recompute"):
            verify_norming_functional(TS, f)

    def test_rejects_out_of_range_level(self):
        f = NormingFunctional(vec({2: Q(1, 2), 3: Q(1, 2)}),
                              FunctionalNode(5, Q(1, 2), (
                                  FunctionalLeaf(2, 1), FunctionalLeaf(3, 1))))
        with pytest.raises(TsinormError, match="level index"):
            verify_norming_functional(TS, f)

    @pytest.mark.parametrize("inner, coeffs", [
        ((FunctionalLeaf(5, 1), FunctionalLeaf(5, 1)), {3: Q(1, 2), 4: Q(1, 4), 5: Q(1, 8)}),
        ((FunctionalLeaf(6, 1), FunctionalLeaf(5, 1)),
         {3: Q(1, 2), 4: Q(1, 4), 5: Q(1, 8), 6: Q(1, 8)}),
    ], ids=["overlap", "out-of-order"])
    def test_rejects_bad_children_two_levels_down(self, inner, coeffs):
        # coeffs are what a walk that skipped the successive check would
        # recompute, so only that check can reject these trees
        h = Q(1, 2)
        tree = FunctionalNode(0, h, (FunctionalLeaf(3, 1), FunctionalNode(0, h, (
            FunctionalLeaf(4, 1), FunctionalNode(0, h, inner)))))
        with pytest.raises(TsinormError):
            verify_norming_functional(TS, NormingFunctional(vec(coeffs), tree))

    def test_rejects_window_escape(self):
        f = NormingFunctional(vec({4: Q(1)}), FunctionalLeaf(4, 1))
        with pytest.raises(TsinormError, match="window"):
            verify_norming_functional(TS, f, window=3)


# two levels of one weight: the reader gives a node the first level whose
# family admits its children, as the closure does when it builds one
EQUAL_WEIGHTS = {
    "card-then-schreier": MixedSpaceSpec("card-then-schreier", (
        Level(CardinalityAtMost(2), Q(1, 2)), Level(Schreier1(), Q(1, 2)))),
    "explicit-then-card": MixedSpaceSpec("explicit-then-card", (
        Level(ExplicitFinite(((2, 4), (3, 5, 7))), Q(1, 2)),
        Level(CardinalityAtMost(2), Q(1, 2)))),
}


def tree_levels(tree) -> set:
    if isinstance(tree, FunctionalLeaf):
        return set()
    return {tree.level_index}.union(*map(tree_levels, tree.children))


class TestEqualWeights:
    @pytest.mark.parametrize("name, x", [
        ("card-then-schreier", {3: 1, 4: -1, 5: 2, 6: 1}),
        ("explicit-then-card", {2: 1, 3: -1, 4: 1, 5: 2, 7: 1}),
    ])
    def test_certificate_keeps_hull_levels(self, name, x):
        spec = EQUAL_WEIGHTS[name]
        _, cert = dual_norm(spec, vec(x))
        trees = [t.functional.tree for t in cert.hull_terms]
        assert set().union(*map(tree_levels, trees)) == {0, 1}
        _, _, back = import_dual_certificate(export_dual_certificate(spec, vec(x), cert))
        assert [t.functional.tree for t in back.hull_terms] == trees

    @pytest.mark.parametrize("name", EQUAL_WEIGHTS)
    def test_export_round_trip(self, name):
        spec = EQUAL_WEIGHTS[name]
        built = build_norming_set(spec, 5)
        assert set().union(*(tree_levels(f.tree) for f in built.functionals)) == {0, 1}
        assert import_norming_set(export_norming_set(built), spec) == built

    @pytest.mark.parametrize("name, children, coeffs", [
        # card<=2 cannot take three parts; schreier1 takes them from 3 on
        ("card-then-schreier", (3, 4, 5), {3: Q(1, 2), 4: Q(1, 2), 5: Q(1, 2)}),
        # no listed set meets both gaps of ({2}, {3})
        ("explicit-then-card", (2, 3), {2: Q(1, 2), 3: Q(1, 2)}),
    ])
    def test_verifier_reads_the_named_level(self, name, children, coeffs):
        spec = EQUAL_WEIGHTS[name]
        leaves = tuple(FunctionalLeaf(i, 1) for i in children)
        good, bad = (NormingFunctional(vec(coeffs), FunctionalNode(level, Q(1, 2), leaves))
                     for level in (1, 0))
        verify_norming_functional(spec, good)
        with pytest.raises(TsinormError, match=(
                rf"^level 0 of space '{name}' does not have weight 1/2 or does not "
                rf"admit child supports \[\(\d+,\)")):
            verify_norming_functional(spec, bad)


TWO_LEVEL = MixedSpaceSpec("two-level", (Level(Schreier1(), Q(3, 7)),
                                         Level(CardinalityAtMost(3), Q(2, 3))))
PIN_GRID = (Q(-2), Q(-1), Q(-1, 2), Q(0), Q(0), Q(1, 3), Q(1), Q(3, 2))


def set_digest(vset):
    """sha1 of the export, repr(functionals) and tau on 20 seeded vectors."""
    rng = random.Random(vset.window)
    xs = [FinVec.from_items({i: rng.choice(PIN_GRID) for i in range(1, vset.window + 1)})
          for _ in range(20)]
    h = hashlib.sha1(export_norming_set(vset).encode())
    h.update(repr(vset.functionals).encode())
    h.update(repr([tau(vset, x) for x in xs]).encode())
    return h.hexdigest()


class TestIdentityPins:
    """Digests recorded from the construction over Fraction keys; the
    integer-unit closure, the shared-subtree sign expansion and the
    memoised export must reproduce every byte."""

    @pytest.mark.parametrize("spec, N, digest", [
        (TS, 1, "0a22eb4f3d081f77a1a4d16b224e562971fbf5ed"),
        (TS, 2, "ac3cdea5e2846140e891e9f2e330dbf1a6a73931"),
        (TS, 3, "7caaa32c5a7454744adb2de0f37e4829812cd04f"),
        (TS, 4, "a7986f1b8247854c7e94910638f23e792438f2ac"),
        (TS, 5, "72a92b268aacecfae4f9a4787e77ff2d8832acda"),
        (TS, 6, "0d271ce582b9594a266f1e2ed13b6667c033dbe5"),
        (TS, 7, "ce64fa6b84034cf0a9a59b102869697cc3266c59"),
        (CARD_DEMO, 1, "6126eb3dcf8b2efd2ccf451d001eaa643ea7590a"),
        (CARD_DEMO, 2, "d2ffef74a25f3361e703e729c002a3f00cadbdf4"),
        (CARD_DEMO, 3, "a6f56cba16a200661ffdec13e3cb87d4b173c321"),
        (CARD_DEMO, 4, "143f929982132e7a4a2db47beb01f82721aaff7f"),
        (CARD_DEMO, 5, "102454c209cfa1174506d86dee5b51033d4af460"),
        (TWO_LEVEL, 1, "75d0fa527bb8260fb799ae54e6d2b9cdad00ae8c"),
        (TWO_LEVEL, 2, "b04dbc7ce52151c05202187c7d1bfe6ab183fcd7"),
        (TWO_LEVEL, 3, "0c50215b05c83d4369a8af345cf416910a4765fa"),
        (TWO_LEVEL, 4, "f918cc287fb78837853af7a827f4e348d3d291f9"),
        (TWO_LEVEL, 5, "0fb9c93d78006376df37f2f80c8d110d1b37c53b"),
    ], ids=lambda v: v.name if isinstance(v, MixedSpaceSpec) else None)
    def test_built_sets(self, spec, N, digest):
        assert set_digest(build_norming_set(spec, N)) == digest

    @pytest.mark.parametrize("spec, indices, digest", [
        (TS, (2, 3, 5, 7, 8), "161c2cb7b62a7f2b0b8eacff9f9460f9dc6a2202"),
        (CARD_DEMO, (1, 3, 4, 6), "04ae28afef7e4db33c5158bd399c647dfdf19856"),
        (TWO_LEVEL, (2, 3, 4, 6, 7), "654cee44d9842c678ad4388b01ce73da9b92eeac"),
    ], ids=["tsirelson", "card-demo", "two-level"])
    def test_generators(self, spec, indices, digest):
        got = norming_generators(spec, indices)
        assert hashlib.sha1(repr(got).encode()).hexdigest() == digest

    @pytest.mark.parametrize("N, rounds, digest", [
        (4, 0, "388e2747a23e63196ff6051c34bde8a0531b2980"),
        (4, 1, "fae1e9dbdf558f59079002fe6fd1954f44b748e3"),
        (4, 2, "132fe1fe0bcb8f0c32fce9e1128a378b6f91fdb6"),
        (4, 3, "bd17dd16f4705d6d36d46d82dddbc88193ef98f1"),
        (2, 5, "913e42df3609bc786d3dc837c3f39b18d1e09045"),
    ])
    def test_raw_generations(self, N, rounds, digest):
        # window 2 over 5 rounds nests one-part chains deeper than N - 1
        assert set_digest(raw_norming_generation(TS, N, rounds)) == digest

    def test_raw_unit_follows_the_rounds_run(self):
        # one-part chains never reach a fixpoint, so only the budget ends
        # this run; a unit sized from the requested rounds would never
        # finish
        with pytest.raises(BudgetExceededError,
                           match=r"^norming closure exceeds the budget of 2000 functionals$"):
            raw_norming_generation(TS, 2, 10 ** 9, budget=2000)


WRITER_SETS = ([(spec, N, None) for spec, top in ((TS, 7), (CARD_DEMO, 5), (TWO_LEVEL, 5))
                for N in range(1, top + 1)]
               + [(TS, 4, rounds) for rounds in range(4)] + [(TS, 2, 5)])


def make_set(spec, N, rounds):
    if rounds is None:
        return build_norming_set(spec, N)
    return raw_norming_generation(spec, N, rounds)


class TestSignClassSets:
    """Built sets keep their sign classes; one writer serves them and
    sets given their functionals."""

    @pytest.mark.parametrize("spec, N, rounds", WRITER_SETS,
                             ids=lambda v: v.name if isinstance(v, MixedSpaceSpec) else None)
    def test_one_writer_two_inputs(self, spec, N, rounds):
        built = make_set(spec, N, rounds)
        x = FinVec.from_items({i: Q((-1) ** i * i, 2) for i in range(1, N + 1)})
        text, card, value = export_norming_set(built), built.cardinality, tau(built, x)
        assert "functionals" not in vars(built)
        functionals = built.functionals
        assert vars(built)["functionals"] is functionals
        given = NormingSet(spec, N, functionals, built.generation, built.stabilized)
        assert export_norming_set(given) == text
        assert given.cardinality == card == len(functionals)
        assert tau(given, x) == value == max(pairing(f.coeffs, x) for f in functionals)
        assert given == built and hash(given) == hash(built)

    def test_cli_writes_without_expanding(self, monkeypatch, capsys):
        built = []

        def build(*args, **kwargs):
            built.append(build_norming_set(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_norming_set", build)
        assert cli.main(["norming-set", "5"]) == 0
        (vset,) = built
        assert "functionals" not in vars(vset)
        assert capsys.readouterr().out == export_norming_set(vset)

    def test_sets_stay_immutable(self):
        vset = build_norming_set(TS, 3)
        with pytest.raises(AttributeError):
            vset.window = 4
        with pytest.raises(AttributeError):
            del vset.generation
        assert vset.window == 3 and vset.generation == 1


def tree_form(tree):
    """A closure tree in reference_closure's form."""
    if isinstance(tree, FunctionalLeaf):
        return ("e", tree.index)
    return (tree.level_index,) + tuple(tree_form(c) for c in tree.children)


# each space with its levels in the oracle's (kind, param, theta) form
CLOSURE_SPACES = {
    "tsirelson": (TS, TSIRELSON_LEVELS),
    "card-demo": (CARD_DEMO, (("schreier", 0, Q(1, 2)), ("card", 2, Q(1, 3)))),
    "two-level": (TWO_LEVEL, (("schreier", 0, Q(3, 7)), ("card", 3, Q(2, 3)))),
    "explicit": ORACLE_SPACES["explicit"],
}


class TestPrunedClosure:
    """_closure skips the branches whose tuples can have no part built in
    the previous round; the reference walks every tuple."""

    @pytest.mark.parametrize("name", CLOSURE_SPACES)
    # max_rounds None is the pruned run, an int the raw generation with
    # one-part bundles; the ids keep the names the cases had when the
    # run kind was a separate singletons argument
    @pytest.mark.parametrize("indices, rounds", [
        pytest.param((1, 2, 3, 4, 5, 6), None, id="indices0-False-None"),
        pytest.param((2, 3, 5, 7, 8), None, id="indices1-False-None"),
        pytest.param((1, 2, 3), 4, id="indices3-True-4"),
        pytest.param((2, 3, 4, 5), 2, id="indices4-True-2"),
    ])
    def test_matches_reference(self, name, indices, rounds):
        spec, levels = CLOSURE_SPACES[name]
        F, built, fixpoint, unit = _closure(spec, indices, 10 ** 6, rounds)
        ref, ref_built, ref_fixpoint, ref_unit = reference_closure(
            levels, indices, rounds is not None, rounds)
        got = [(tuple((i, Q(c, unit)) for i, c in key), tree_form(tree))
               for key, tree in F.items()]
        assert got == list(ref.items())
        assert (built, fixpoint, unit) == (ref_built, ref_fixpoint, ref_unit)

    @pytest.mark.parametrize("name, N", [
        ("tsirelson", 4), ("card-demo", 2), ("two-level", 2), ("explicit", 3)])
    @pytest.mark.parametrize("rounds", [3, 5, 6])
    def test_raw_generation_matches_reference(self, name, N, rounds):
        # rounds that are not powers of two end between two rescalings;
        # values only, test_matches_reference pins the unit
        spec, levels = CLOSURE_SPACES[name]
        vset = raw_norming_generation(spec, N, rounds)
        assert vset.generation == rounds and vset.stabilized is False
        ref, _, _, _ = reference_closure(levels, range(1, N + 1), True, rounds)
        got = [(tuple((i, Q(c, vset._unit)) for i, c in key), tree_form(tree))
               for key, tree in vset._classes]
        assert got == list(ref.items())

    def test_unit_follows_the_rounds_a_budget_allows(self):
        # card-demo adds far more than one key per index and round, so the
        # budget ends this run after a few rounds; the unit it worked in
        # must follow those rounds, not the rounds the budget could allow
        with pytest.raises(BudgetExceededError) as info:
            raw_norming_generation(CARD_DEMO, 3, 10 ** 9, budget=20000)
        (run,) = [entry.locals for entry in info.traceback if entry.name == "_closure"]
        assert 0 < run["rounds"] < 20
        assert run["unit"] <= run["den"] ** (2 * run["rounds"] + 1)


class TestCachedPatterns:
    """build_norming_set, norming_generators, the stabilized import and
    the dual programs read the maximal patterns through the one bounded
    cache, _maximal_patterns; each caller counts their sign variants
    against its budget under its own message."""

    def test_each_caller_keeps_its_sign_budget_text(self):
        tail = "sign expansion needs 524 functionals, budget 100"
        window = re.escape(f"norming set on window [1, 6]: {tail}")
        support = re.escape(f"norming generators on [1, 2, 3, 4, 5, 6]: {tail}")
        ones = vec({i: 1 for i in range(1, 7)})
        tsinorm.clear_caches()
        for _ in range(2):  # the second round finds the closure cached
            with pytest.raises(BudgetExceededError, match=f"^{window}$"):
                build_norming_set(TS, 6, budget=100)
            with pytest.raises(BudgetExceededError, match=f"^{support}$"):
                norming_generators(TS, range(1, 7), budget=100)
            with pytest.raises(BudgetExceededError, match=f"^{support}$"):
                dual_norm_value(TS, ones, 100)
        info = _maximal_patterns.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        tsinorm.clear_caches()

    def test_builds_generators_and_the_import_share_one_closure(self):
        tsinorm.clear_caches()
        text = export_norming_set(build_norming_set(TS, 6))
        hits = _maximal_patterns.cache_info().hits
        assert export_norming_set(build_norming_set(TS, 6)) == text
        assert _maximal_patterns.cache_info().hits == hits + 1
        norming_generators(TS, range(1, 7))
        assert _maximal_patterns.cache_info().hits == hits + 2
        assert export_norming_set(import_norming_set(text, TS)) == text
        info = _maximal_patterns.cache_info()
        assert (info.misses, info.hits) == (1, hits + 3)
        tsinorm.clear_caches()

    @pytest.mark.parametrize("spec, N", [
        (TS, 7), (CARD_DEMO, 6), (ORACLE_SPACES["explicit"][0], 6)],
        ids=["tsirelson", "card-demo", "explicit"])
    def test_the_budget_raises_at_the_last_key(self, spec, N):
        indices = tuple(range(1, N + 1))
        F = _closure(spec, indices, 10 ** 6, None)[0]
        assert list(_closure(spec, indices, len(F), None)[0].items()) == list(F.items())
        budget = len(F) - 1
        with pytest.raises(BudgetExceededError,
                           match=f"^norming closure exceeds the budget of {budget} functionals$"
                           ) as info:
            _closure(spec, indices, budget, None)
        # the closure stops as it builds the key it would have built last
        (emit,) = [entry.locals for entry in info.traceback if entry.name == "emit"]
        assert emit["ckey"] == list(F)[-1]
