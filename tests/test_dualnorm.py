"""Dual norm via LP gauge, rho upper bounds, implicit equation, falsifier."""
import functools
import itertools
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import tsinorm
from tsinorm import dualnorm
from tsinorm.core import (
    DEFAULT_NORMING_BUDGET,
    BudgetExceededError,
    FinVec,
    PrecisionExhaustedError,
    TsinormError,
    ell1_norm,
    pairing,
    sup_norm,
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
from tsinorm.dualnorm import (
    DualCertificate,
    FalsifierResult,
    HullTerm,
    dual_norm,
    dual_norm_bounds,
    dual_norm_value,
    export_dual_certificate,
    falsify_ell1_variant,
    import_dual_certificate,
    rho_chain,
    rho_partition_upper,
    rho_with_splits_upper,
    sigma_ell1_variant,
    support_bipartitions,
    verify_dual_certificate,
    verify_implicit_equation,
)
from tsinorm.lp import Constraint, LinearProgram, solve as lp_solve
from tsinorm.norming import (
    FunctionalLeaf,
    _flip_tree,
    _maximal_patterns,
    build_norming_set,
    export_norming_set,
    import_norming_set,
    norming_generators,
)
from tsinorm.primal import mixed_norm

from frozen_values import DUAL_GOLDENS, MIXED_CARD_LEVELS, RHO_CHAIN_E345, SIGMA_GOLDENS
from oracles import (
    TSIRELSON_LEVELS,
    brute_rho_upper,
    brute_sigma,
    oracle_dual_norm,
    reference_falsify,
)

TS = tsirelson_spec()
SCH = schlumprecht_spec()


def vec(items):
    return FinVec.from_items(items)


def e(*indices):
    return FinVec.from_items({i: Q(1) for i in indices})


GRID_ENTRIES = (Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2))


def random_vector(rng, indices, density=0.7, entries=GRID_ENTRIES):
    items = {i: rng.choice(entries) for i in indices if rng.random() < density}
    return vec(items)


class TestDualGoldens:
    def test_frozen_values(self):
        for items, want in DUAL_GOLDENS:
            value, cert = dual_norm(TS, vec(items))
            assert value == want
            verify_dual_certificate(TS, vec(items), cert)

    def test_unit_vectors_normalized(self):
        # window [1, k] never needs a closure wider than supp = {k}
        for k in range(1, 21):
            assert dual_norm_value(TS, e(k)) == 1

    def test_zero_vector(self):
        value, cert = dual_norm(TS, FinVec.zero())
        assert value == 0
        assert cert.hull_terms == ()
        assert cert.ball_vector.is_zero
        verify_dual_certificate(TS, FinVec.zero(), cert)

    def test_spec_ball_witness_is_optimal_for_e345(self):
        # (2/3)(e3+e4+e5) lies in the primal unit ball and pairs to 2
        x = e(3, 4, 5)
        y = x.scale(Q(2, 3))
        norm_y, _ = mixed_norm(TS, y)
        assert norm_y == 1
        assert pairing(x, y) == dual_norm_value(TS, x)

    def test_value_route_matches_certified_route(self):
        rng = random.Random(4031)
        for _ in range(20):
            x = random_vector(rng, range(1, 6))
            value, cert = dual_norm(TS, x)
            assert value == dual_norm_value(TS, x)
            assert cert.value == value

    def test_symbolic_spec_rejected(self):
        with pytest.raises(TsinormError, match="dual_norm_bounds"):
            dual_norm(SCH, e(1, 2))

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            dual_norm(TS, e(2, 3, 4, 5, 6), budget=3)

    @pytest.mark.parametrize("call", [
        dual_norm_value,
        lambda spec, x, budget: dual_norm(spec, x, budget)[0],
        lambda spec, x, budget: dual_norm_bounds(spec, x, budget=budget).hi,
    ], ids=["dual_norm_value", "dual_norm", "dual_norm_bounds"])
    def test_budget_holds_after_a_warm_call(self, call):
        # the closure on {1..5} outgrows 5 functionals; a value cached at
        # the default budget must not answer a call with a smaller one
        x = e(1, 2, 3, 4, 5)
        tsinorm.clear_caches()
        with pytest.raises(BudgetExceededError) as cold:
            call(TS, x, 5)
        assert call(TS, x, DEFAULT_NORMING_BUDGET) == 4
        with pytest.raises(BudgetExceededError) as warm:
            call(TS, x, 5)
        assert str(warm.value) == str(cold.value)


class TestOracleAgreement:
    def test_small_vectors_match_certified_oracle(self):
        rng = random.Random(20260816)
        checked = 0
        while checked < 8:
            x = random_vector(rng, range(1, 6), density=0.55)
            if x.is_zero or len(x.support) > 4:
                continue
            assert dual_norm_value(TS, x) == oracle_dual_norm(
                x.to_dict(), TSIRELSON_LEVELS)
            checked += 1

    def test_five_point_support_matches_oracle(self):
        x = vec({1: Q(1), 2: Q(-1), 3: Q(1, 2), 4: Q(2), 5: Q(1)})
        assert dual_norm_value(TS, x) == oracle_dual_norm(
            x.to_dict(), TSIRELSON_LEVELS)


class TestCertificates:
    def test_hull_weights_positive_and_sum_to_value(self):
        x = vec({2: Q(1), 3: Q(-1, 2), 5: Q(2)})
        value, cert = dual_norm(TS, x)
        assert all(t.weight > 0 for t in cert.hull_terms)
        assert sum(t.weight for t in cert.hull_terms) == value

    def test_tampered_value_rejected(self):
        x = e(3, 4, 5)
        value, cert = dual_norm(TS, x)
        bad = DualCertificate(value + 1, cert.hull_terms,
                              cert.ball_vector, cert.ball_certificate)
        with pytest.raises(TsinormError):
            verify_dual_certificate(TS, x, bad)

    def test_tampered_hull_combination_rejected(self):
        x = e(1, 2)
        value, cert = dual_norm(TS, x)
        with pytest.raises(TsinormError, match="reproduce"):
            verify_dual_certificate(TS, e(1, 3), cert)

    def test_escaped_ball_witness_rejected(self):
        x = e(1, 2)
        value, cert = dual_norm(TS, x)
        bad = DualCertificate(value, cert.hull_terms,
                              cert.ball_vector.scale(2), cert.ball_certificate)
        with pytest.raises(TsinormError):
            verify_dual_certificate(TS, x, bad)

    def test_wrong_pairing_rejected(self):
        x = e(2, 3)
        value, cert = dual_norm(TS, x)
        flipped = FinVec.from_items(
            {i: -c for i, c in cert.ball_vector.items()})
        bad = DualCertificate(value, cert.hull_terms, flipped,
                              cert.ball_certificate)
        with pytest.raises(TsinormError):
            verify_dual_certificate(TS, x, bad)

    def test_import_walks_each_hull_tree_once(self, monkeypatch):
        # parsing puts every hull node through the node rule, so the
        # importer does not walk the trees again; an in-memory
        # certificate has no parse, so its verification walks them
        walked = []
        real = dualnorm.verify_norming_functional
        monkeypatch.setattr(dualnorm, "verify_norming_functional",
                            lambda spec, f: walked.append(f) or real(spec, f))
        x = vec({2: 1, 3: Q(-1, 2), 4: 1, 5: 2})
        _, cert = dual_norm(TS, x)
        doc = export_dual_certificate(TS, x, cert)
        walked.clear()
        _, _, back = import_dual_certificate(doc)
        assert walked == [] and back == cert
        verify_dual_certificate(TS, x, cert)
        assert walked == [t.functional for t in cert.hull_terms]

    @pytest.mark.parametrize("i", [10**6, 10**18 + 7])
    def test_huge_indices(self, i):
        # the closure's support masks follow the support size, not the
        # largest index: a mask with bit 10^18 cannot be allocated
        x = vec({i: 1, i + 1: Q(1, 2), i + 5: -2})
        assert dual_norm_value(TS, x) == 3
        value, cert = dual_norm(TS, x)
        assert value == 3
        verify_dual_certificate(TS, x, cert)


DOC_TOKEN = re.compile(r"[()]|[^\s()]+")
JUNK_TOKENS = ("0", "-1", "1/0", "x", "e\u00b2", "e0", "-e9", "(", ")")
EDITS = ("replace", "delete", "duplicate", "wrap",
         "replace-char", "delete-char", "insert-char", "swap-lines")


def mutate(text: str, token, at: int, op: str, other: str, wrap: str) -> str:
    """text with one edit at the site chosen by at: a token (a match of
    the regex token) replaced by other, deleted, duplicated, or wrapped
    in the bracket pair wrap; one character replaced by, or preceded by,
    a character of other, or deleted; or two lines swapped."""
    if op == "swap-lines":
        lines = text.split("\n")
        i, j = at % len(lines), at // len(lines) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    if op.endswith("-char"):
        a = at % len(text)
        char = other[at % len(other)]
        new = {"replace-char": char, "delete-char": "",
               "insert-char": char + text[a]}[op]
        return text[:a] + new + text[a + 1:]
    spans = [m.span() for m in token.finditer(text)]
    a, b = spans[at % len(spans)]
    new = {"replace": other, "delete": "", "duplicate": f"{text[a:b]} {text[a:b]}",
           "wrap": f"{wrap[0]}{text[a:b]}{wrap[1]}"}[op]
    return text[:a] + new + text[b:]


@functools.lru_cache(maxsize=None)
def exported_documents():
    """Two certificates and a window-3 norming-set export, as text."""
    card_demo = MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                             Level(CardinalityAtMost(2), Q(1, 3))))
    docs = []
    for spec, x in ((TS, vec({3: 1, 4: 1, 5: 1})),
                    (card_demo, vec({1: 1, 2: Q(-1, 2), 3: 1}))):
        docs.append(export_dual_certificate(spec, x, dual_norm(spec, x)[1]))
    docs.append(export_norming_set(build_norming_set(TS, 3)))
    return tuple(docs)


@given(which=st.integers(0, 2), at=st.integers(0, 10 ** 6), op=st.sampled_from(EDITS),
       other=st.one_of(st.sampled_from(JUNK_TOKENS), st.integers(0, 10 ** 6)))
@settings(deadline=None, max_examples=1000)
def test_mutated_document_rejected_or_sound(which, at, op, other):
    """One edit of an exported document (mutate): a token replaced (by a
    junk token or one from the documents), deleted, duplicated or wrapped
    in parentheses, a character replaced, deleted or inserted, or two
    lines swapped: the import raises TsinormError, or what it returns is
    still true."""
    docs = exported_documents()
    if isinstance(other, int):
        pool = sorted({t for d in docs for t in DOC_TOKEN.findall(d)})
        other = pool[other % len(pool)]
    mutated = mutate(docs[which], DOC_TOKEN, at, op, other, "()")
    try:
        if which < 2:
            spec, x, cert = import_dual_certificate(mutated)
        else:
            vset = import_norming_set(mutated, TS)
    except TsinormError:
        return
    if which < 2:
        assert cert.value == dual_norm(spec, x)[0]
    else:
        for f in vset.functionals:  # every functional lies in the dual ball
            signs = vec({i: 1 if c > 0 else -1 for i, c in f.coeffs.entries})
            assert f(signs) <= mixed_norm(TS, signs)[0]
        assert vset.window == max(f.coeffs.support[-1] for f in vset.functionals)
        assert vset.generation == max(tree_depth(f.tree) for f in vset.functionals)


def tree_depth(tree) -> int:
    if isinstance(tree, FunctionalLeaf):
        return 0
    return 1 + max(tree_depth(c) for c in tree.children)


class TestNormAxioms:
    def test_sandwich(self):
        rng = random.Random(77)
        for _ in range(30):
            x = random_vector(rng, range(1, 7))
            value = dual_norm_value(TS, x)
            assert sup_norm(x) <= value <= ell1_norm(x)

    def test_triangle(self):
        rng = random.Random(78)
        for _ in range(25):
            x = random_vector(rng, range(1, 7))
            y = random_vector(rng, range(1, 7))
            assert dual_norm_value(TS, x + y) <= \
                dual_norm_value(TS, x) + dual_norm_value(TS, y)

    def test_homogeneity(self):
        rng = random.Random(79)
        for lam in (Q(2), Q(-1), Q(1, 3), Q(-5, 2), Q(0)):
            for _ in range(6):
                x = random_vector(rng, range(1, 6))
                assert dual_norm_value(TS, x.scale(lam)) == \
                    abs(lam) * dual_norm_value(TS, x)

    def test_lattice_monotonicity(self):
        rng = random.Random(80)
        for _ in range(25):
            x = random_vector(rng, range(1, 7))
            shrunk = {i: c * rng.choice((Q(1), Q(1, 2), Q(0), Q(-1, 3)))
                      for i, c in x.items()}
            y = vec(shrunk)
            assert dual_norm_value(TS, y) <= dual_norm_value(TS, x)

    def test_pairing_bounded_by_norm_product(self):
        rng = random.Random(81)
        for _ in range(20):
            x = random_vector(rng, range(1, 6))
            y = random_vector(rng, range(1, 6))
            bound = dual_norm_value(TS, x) * mixed_norm(TS, y)[0]
            assert abs(pairing(x, y)) <= bound

    def test_pairing_basics(self):
        assert pairing(e(3, 4, 5), e(3, 4, 5)) == 3
        assert pairing(e(1, 2), FinVec.zero()) == 0


class TestBallClosure:
    def test_combined_functionals_stay_in_ball(self):
        # theta * (f1 + ... + fk) for admissible successive stored tuples
        gens = norming_generators(TS, tuple(range(1, 6)))
        theta = TS.levels[0].theta
        rng = random.Random(90)
        combos = 0
        while combos < 20:
            f1, f2 = rng.sample(gens, 2)
            s1, s2 = f1.coeffs.support, f2.coeffs.support
            if not s1 or not s2 or s1[-1] >= s2[0] or len(s1) < 2:
                continue  # needs successive supports, schreier needs 2 <= min
            g = (f1.coeffs + f2.coeffs).scale(theta)
            assert dual_norm_value(TS, g) <= 1
            combos += 1

    def test_domination_preserves_membership(self):
        gens = norming_generators(TS, tuple(range(1, 6)))
        rng = random.Random(91)
        for f in rng.sample(gens, 15):
            dominated = vec({i: c * rng.choice((Q(1), Q(1, 2), Q(0)))
                             for i, c in f.coeffs.items()})
            assert dual_norm_value(TS, dominated) <= 1


class TestRhoIteration:
    def test_frozen_chain(self):
        x = e(3, 4, 5)
        got = [rho_partition_upper(TS, x, n) for n in range(4)]
        assert got == RHO_CHAIN_E345

    def test_singleton_partition_example(self):
        assert rho_partition_upper(TS, e(3, 4, 5), 0) == 3
        assert rho_partition_upper(TS, e(3, 4, 5), 1) == 2

    def test_unit_vectors(self):
        for n in range(4):
            assert rho_partition_upper(TS, e(7), n) == 1

    def test_matches_oracle(self):
        rng = random.Random(92)
        for _ in range(12):
            x = random_vector(rng, range(1, 6))
            for n in range(4):
                assert rho_partition_upper(TS, x, n) == \
                    brute_rho_upper(x.to_dict(), n, TSIRELSON_LEVELS)

    def test_chain_nonincreasing_and_above_dual(self):
        rng = random.Random(93)
        for _ in range(10):
            x = random_vector(rng, range(1, 7))
            value = dual_norm_value(TS, x)
            chain = rho_chain(TS, x, 6)
            assert all(it.mode == "partition-only" for it in chain)
            for a, b in zip(chain, chain[1:]):
                assert a.value >= b.value
            assert all(it.value >= value for it in chain)

    def test_levels_past_the_support_read_the_last_one(self, monkeypatch):
        # a window of l points is stable from level l - 1, so a level
        # count past the support size reads level |supp x| + 1 at once, or
        # past the largest support of a split part, which may be larger
        # (no support here exceeds 8 points)
        real = dualnorm.iterates

        def bounded(levels, entries, maximise):
            for n, value in enumerate(real(levels, entries, maximise)):
                assert n <= 9, "read a level past the largest support + 1"
                yield value

        rng = random.Random(96)
        xs = [vec({1: 1, 2: 1, 3: 1}), e(3, 4, 5), FinVec.zero()]
        xs += [random_vector(rng, range(1, 7)) for _ in range(6)]
        for x in xs:
            m = len(x.support)
            bipartitions = support_bipartitions(x)
            # a split whose parts reach outside supp(x)
            reach = [(x + e(9, 10), -e(9, 10))]
            want = [rho_partition_upper(TS, x, m + 1),
                    rho_with_splits_upper(TS, x, m + 1, bipartitions),
                    rho_with_splits_upper(TS, x, m + 4, reach)]
            monkeypatch.setattr(dualnorm, "iterates", bounded)
            assert [rho_partition_upper(TS, x, 10 ** 12),
                    rho_with_splits_upper(TS, x, 10 ** 12, bipartitions),
                    rho_with_splits_upper(TS, x, 10 ** 12, reach)] == want
            monkeypatch.undo()

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            rho_partition_upper(TS, e(1), -1)

    def test_zero_vector(self):
        assert rho_partition_upper(TS, FinVec.zero(), 3) == 0

    @pytest.mark.parametrize("call, name", [
        (lambda x: rho_partition_upper(SCH, x, 2), "rho_partition_upper"),
        (lambda x: rho_chain(SCH, x, 2), "rho_chain"),
    ], ids=["partition-upper", "chain"])
    def test_symbolic_spec_names_the_call(self, call, name):
        with pytest.raises(TsinormError, match=re.escape(
                f"{name} needs rational weights at every level; space "
                f"'schlumprecht' has a symbolic one")):
            call(e(1))


class TestRhoWithSplits:
    def test_empty_candidates_equal_partition_only(self):
        rng = random.Random(94)
        for _ in range(10):
            x = random_vector(rng, range(1, 6))
            for n in range(3):
                assert rho_with_splits_upper(TS, x, n) == \
                    rho_partition_upper(TS, x, n)

    def test_support_splits_example(self):
        x = e(1, 2)
        splits = support_bipartitions(x)
        assert rho_with_splits_upper(TS, x, 2, splits) == 2
        # partition-only never improves on l1 here: no admissible cover
        assert rho_partition_upper(TS, x, 2) == 2

    def test_splits_can_beat_partitions(self):
        # support touches 1, so covers are all inadmissible, but the
        # bipartition e1 | e3+e4+e5 drops the bound from 4 to 3
        x = e(1, 3, 4, 5)
        assert rho_partition_upper(TS, x, 2) == 4
        assert rho_with_splits_upper(TS, x, 2, support_bipartitions(x)) == 3

    def test_nonincreasing_in_candidate_set(self):
        x = e(1, 3, 4, 5)
        all_splits = support_bipartitions(x)
        some = all_splits[:2]
        for n in range(3):
            full = rho_with_splits_upper(TS, x, n, all_splits)
            part = rho_with_splits_upper(TS, x, n, some)
            none = rho_with_splits_upper(TS, x, n)
            assert full <= part <= none

    def test_bad_candidate_rejected(self):
        x = e(1, 2)
        with pytest.raises(TsinormError, match="sum"):
            rho_with_splits_upper(TS, x, 1, [(e(1), e(3))])

    def test_cross_level_subadditivity(self):
        # rho_{n+1}(x+y) <= rho_n(x) + rho_n(y) once the split (x, y) is
        # a candidate; right sides evaluated partition-only, matching the
        # recursion the left side applies below the top level
        rng = random.Random(95)
        for _ in range(10):
            x = random_vector(rng, range(1, 7), density=0.5)
            y = random_vector(rng, range(1, 7), density=0.5)
            s = x + y
            if s.is_zero:
                continue
            for n in range(3):
                lhs = rho_with_splits_upper(TS, s, n + 1, [(x, y)])
                assert lhs <= rho_partition_upper(TS, x, n) + \
                    rho_partition_upper(TS, y, n)

    def test_support_bipartitions_shape(self):
        x = e(2, 4, 5)
        pairs = support_bipartitions(x)
        assert len(pairs) == 4  # 2^(3-1): first support point stays left
        for y, z in pairs:
            assert (y + z).entries == x.entries
        assert support_bipartitions(FinVec.zero()) == ()


class TestImplicitEquation:
    def test_equality_case_e345(self):
        report = verify_implicit_equation(TS, e(3, 4, 5))
        assert report.ok
        assert report.norm == 2
        assert report.minimizing.kind == "partition"
        assert report.minimizing.value == 2
        assert report.minimizing.slack == 0
        level_index, blocks = report.minimizing.detail
        assert blocks == ((3,), (4,), (5,))

    def test_single_point_passes(self):
        report = verify_implicit_equation(TS, e(1))
        assert report.ok
        assert report.partition_count == 0
        assert report.split_count == 0

    def test_vacuous_partition_branch(self):
        # no admissible cover puts coordinate 1 in a k >= 2 first block
        report = verify_implicit_equation(TS, e(1, 2))
        assert report.ok
        assert report.partition_count == 0
        assert report.minimizing.kind == "split"
        assert report.minimizing.slack == 0

    def test_corpus_sample_passes(self):
        rng = random.Random(96)
        for _ in range(12):
            x = random_vector(rng, range(1, 7), density=0.6)
            if x.is_zero:
                continue
            report = verify_implicit_equation(TS, x)
            assert report.ok, (x.to_dict(), report.violations)
            if report.minimizing is not None:
                assert report.minimizing.slack >= 0

    def test_zero_vector(self):
        report = verify_implicit_equation(TS, FinVec.zero())
        assert report.ok
        assert report.minimizing is None


class TestSigma:
    def test_frozen_goldens(self):
        for items, want in SIGMA_GOLDENS:
            value, converged = sigma_ell1_variant(TS, vec(items))
            assert converged and value == want

    def test_matches_oracle(self):
        rng = random.Random(97)
        for _ in range(15):
            x = random_vector(rng, range(1, 7))
            value, converged = sigma_ell1_variant(TS, x)
            assert converged
            assert value == brute_sigma(x.to_dict(), TSIRELSON_LEVELS)

    def test_low_support_pins_sigma_to_ell1(self):
        # coordinate 1 in the support kills every admissible cover
        x = vec({1: Q(1), 3: Q(1), 4: Q(1), 5: Q(1)})
        value, converged = sigma_ell1_variant(TS, x)
        assert converged and value == 4

    def test_homogeneity(self):
        x = e(3, 4, 5)
        doubled, _ = sigma_ell1_variant(TS, x.scale(2))
        single, _ = sigma_ell1_variant(TS, x)
        assert doubled == 2 * single

    def test_tiny_cap_reports_nonconvergence(self):
        x = e(2, 3, 4, 5, 6, 7)
        value, converged = sigma_ell1_variant(TS, x, iteration_cap=2)
        assert not converged
        full, ok = sigma_ell1_variant(TS, x)
        assert ok and full <= value


# each space with its levels in the oracle's (kind, param, theta) form
ORACLE_SPACES = {
    "tsirelson": (TS, TSIRELSON_LEVELS),
    "card-demo": (MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                               Level(CardinalityAtMost(2), Q(1, 3)))),
                  (("schreier", 0, Q(1, 2)), ("card", 2, Q(1, 3)))),
    "card-mix": (MixedSpaceSpec("card-mix", tuple(Level(CardinalityAtMost(l), th)
                                                  for _, l, th in MIXED_CARD_LEVELS)),
                 MIXED_CARD_LEVELS),
    "explicit": (MixedSpaceSpec("explicit", (
        Level(ExplicitFinite(((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9))), Q(2, 3)),
        Level(CardinalityAtMost(2), Q(1, 2)))),
        (("explicit", ((2, 3), (3, 5, 8), (4, 6), (2, 5, 7, 9)), Q(2, 3)),
         ("card", 2, Q(1, 2)))),
}


class TestIteratesOracle:
    """rho, its chain and sigma against the brute-force recursions, on
    every kind of level."""

    @pytest.mark.parametrize("name,seed", [("tsirelson", 111), ("card-demo", 112),
                                           ("card-mix", 113), ("explicit", 114)])
    def test_levels_and_fixpoint(self, name, seed):
        spec, levels = ORACLE_SPACES[name]
        rng = random.Random(seed)
        for _ in range(10):
            x = random_vector(rng, range(1, 7))
            m = len(x.support)
            brute = [brute_rho_upper(x.to_dict(), n, levels) for n in range(m + 1)]
            assert [rho_partition_upper(spec, x, n) for n in range(m + 1)] == brute
            assert [it.value for it in rho_chain(spec, x, m)] == brute
            assert rho_chain(spec, x, -1) == ()
            assert sigma_ell1_variant(spec, x) == (brute_sigma(x.to_dict(), levels), True)
            for cap in range(1, m + 1):
                assert sigma_ell1_variant(spec, x, iteration_cap=cap) == (brute[cap], False)

    @pytest.mark.parametrize("name,seed", [("tsirelson", 131), ("card-demo", 132),
                                           ("explicit", 133)])
    def test_sigma_at_most_ell1(self, name, seed):
        # the recursion minimises from the l1 norm, at every level; the
        # falsifier's pair bounds rest on this
        spec, _ = ORACLE_SPACES[name]
        rng = random.Random(seed)
        for _ in range(12):
            x = random_vector(rng, range(1, 9))
            for cap in range(1, len(x.support) + 2):
                assert sigma_ell1_variant(spec, x, cap)[0] <= ell1_norm(x), (x.to_dict(), cap)

    def test_last_level_still_improves(self):
        # m points can improve up to level m - 1 (weight 2/3 > 1/2 lets
        # two points beat their l1 norm), and no further
        spec, levels = ORACLE_SPACES["explicit"]
        for x in (e(2, 3), e(2, 4, 6), vec({1: 1, 2: Q(1, 2), 4: Q(1, 2), 6: Q(1, 2)})):
            m = len(x.support)
            chain = [it.value for it in rho_chain(spec, x, m + 1)]
            assert chain == [brute_rho_upper(x.to_dict(), n, levels) for n in range(m + 2)]
            assert chain[m - 1] < chain[m - 2]
            assert chain[m - 1] == chain[m + 1] == sigma_ell1_variant(spec, x)[0]
            assert sigma_ell1_variant(spec, x, iteration_cap=m - 1) == (chain[m - 1], False)


class TestExplicitHeredity:
    def test_generators_norm_like_the_primal(self):
        # the index set reaches the tops 8 and 9 of the listed sets, so the
        # closure may bundle on points where a vector is zero; read
        # hereditarily, the primal recursion covers what it bundles
        spec, _ = ORACLE_SPACES["explicit"]
        support = (2, 3, 5, 7, 8, 9)
        generators = norming_generators(spec, support)
        rng = random.Random(115)
        for _ in range(150):
            z = random_vector(rng, support, density=0.6)
            assert max(pairing(f.coeffs, z) for f in generators) == \
                mixed_norm(spec, z)[0], z.to_dict()


class TestFalsifier:
    def test_small_grid_exhausts(self):
        result = falsify_ell1_variant(TS, 4, [Q(1), Q(-1)])
        assert result.status == "exhausted"
        assert result.witness is None
        # 3^4 - 1 vectors, every unordered pair including the diagonal
        assert result.pairs_checked == 80 * 81 // 2
        assert result.cap_hits == 0

    def test_counterexample_found_and_reverified(self):
        result = falsify_ell1_variant(TS, 5, [Q(1), Q(-1)])
        assert result.status == "counterexample"
        w = result.witness
        sx, okx = sigma_ell1_variant(TS, w.x)
        sy, oky = sigma_ell1_variant(TS, w.y)
        ssum, oks = sigma_ell1_variant(TS, w.x + w.y)
        assert okx and oky and oks
        assert (sx, sy, ssum) == (w.sigma_x, w.sigma_y, w.sigma_sum)
        assert ssum - sx - sy > 0

    def test_fractional_grid_counterexample(self):
        result = falsify_ell1_variant(TS, 5, [Q(1), Q(-1), Q(1, 2), Q(-1, 2)])
        assert result.status == "counterexample"
        w = result.witness
        assert w.sigma_sum > w.sigma_x + w.sigma_y

    def test_single_cell_grid(self):
        result = falsify_ell1_variant(TS, 1, [Q(1)])
        assert result.status == "exhausted"
        assert result.pairs_checked == 1  # only e1 paired with itself

    @pytest.mark.parametrize("name,seed", [("tsirelson", 121), ("card-demo", 122),
                                           ("explicit", 123)])
    def test_matches_reference_loop(self, name, seed):
        # the batched sigmas and coded pair loop against the per-vector
        # loop, on grids with fractions and mixed signs, caps 1 to N + 1
        spec, _ = ORACLE_SPACES[name]
        rng = random.Random(seed)
        entries = (Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(3, 4), Q(-3, 2))

        def sigma(x, cap):
            return sigma_ell1_variant(spec, vec(x), cap)

        statuses = set()
        for N in range(1, 6):
            for _ in range(3):
                grid = rng.sample(entries, rng.randint(1, {1: 5, 2: 4, 3: 3}.get(N, 2)))
                cap = rng.randint(1, N + 1)
                result = falsify_ell1_variant(spec, N, grid, iteration_cap=cap)
                witness = result.witness and (
                    result.witness.x.to_dict(), result.witness.y.to_dict(),
                    result.witness.sigma_x, result.witness.sigma_y, result.witness.sigma_sum)
                assert (result.status, result.pairs_checked, result.cap_hits, witness) == \
                    reference_falsify(sigma, N, grid, cap), (N, grid, cap)
                statuses.add((result.status, result.cap_hits > 0))
        assert len(statuses) >= 2

    def test_l1_bounds_spare_every_pair_sum(self, monkeypatch):
        # for N <= 4 every Tsirelson vector has sigma equal to its l1 norm,
        # so the l1 bound settles every pair: only the 80 vectors are valued
        given_supports = []
        fixpoints = dualnorm.fixpoints

        def counting(levels, supports, den, size):
            given_supports.extend(supports)
            return fixpoints(levels, supports, den, size)

        monkeypatch.setattr(dualnorm, "fixpoints", counting)
        result = falsify_ell1_variant(TS, 4, [Q(1), Q(1, 2)])
        assert (result.status, result.pairs_checked, result.cap_hits) == ("exhausted", 3240, 0)
        # entries over the common denominator 2
        vectors = {tuple((i + 1, c) for i, c in enumerate(combo) if c)
                   for combo in itertools.product((0, 1, 2), repeat=4) if any(combo)}
        assert len(given_supports) == len(vectors) == 80
        assert set(given_supports) == vectors

    @pytest.mark.parametrize("N,grid,cap,status,pairs,cap_hits", [
        (5, "1,-1", 32, "counterexample", 109, 0),
        (5, "1,-1,1/2,-1/2", 32, "counterexample", 1282, 0),
        (5, "1,-1,1/2", 3, "exhausted", 1650, 4833),
        (6, "1,-1", 32, "counterexample", 244, 0),
        (4, "1,-1,1/2,-1/2,2", 32, "exhausted", 839160, 0),
    ])
    def test_larger_searches_pinned(self, N, grid, cap, status, pairs, cap_hits):
        result = falsify_ell1_variant(TS, N, [Q(g) for g in grid.split(",")], cap)
        assert (result.status, result.pairs_checked, result.cap_hits) == (status, pairs, cap_hits)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            falsify_ell1_variant(TS, 0, [Q(1)])
        with pytest.raises(ValueError, match=r"support bound 9 outside \[1, 8\]"):
            falsify_ell1_variant(TS, 9, [Q(1)])
        with pytest.raises(ValueError):
            falsify_ell1_variant(TS, 3, [Q(0)])

    def test_symbolic_spec_rejected(self):
        # no enclosure variant exists, so the message points to none
        with pytest.raises(TsinormError, match="symbolic one$"):
            falsify_ell1_variant(SCH, 3, [Q(1)])


class TestDualBounds:
    def test_rational_spec_gives_point(self):
        enc = dual_norm_bounds(TS, e(3, 4, 5))
        assert enc.is_point and enc.lo == 2

    def test_unit_vectors(self):
        for k in (1, 2, 5):
            enc = dual_norm_bounds(SCH, e(k), 20)
            assert enc.lo == enc.hi == 1

    def test_schlumprecht_pairing_lower_bound(self):
        # y = e1+e2+e3 has mixed norm 3/2, so the dual value is >= 2
        x = e(1, 2, 3)
        norm_y, _ = mixed_norm(SCH, x)
        assert norm_y.lo == norm_y.hi == Q(3, 2)
        enc = dual_norm_bounds(SCH, x, 24)
        assert enc.hi >= pairing(x, x) / Q(3, 2)

    def test_nesting_in_precision(self):
        x = vec({1: Q(1), 2: Q(1, 2), 3: Q(1), 4: Q(1)})
        wide = dual_norm_bounds(SCH, x, 16)
        tight = dual_norm_bounds(SCH, x, 48)
        assert wide.lo <= tight.lo <= tight.hi <= wide.hi

    def test_zero_vector(self):
        enc = dual_norm_bounds(SCH, FinVec.zero(), 10)
        assert enc.is_point and enc.lo == 0

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            dual_norm_bounds(SCH, e(1), 0)
        with pytest.raises(PrecisionExhaustedError):
            dual_norm_bounds(SCH, e(1, 2), copy_cap := 257)


class TestMixedSpecs:
    def test_determination_against_mixed_norm_dual(self):
        # two-level rational spec: dual value still pinned by both LPs
        spec = MixedSpaceSpec("two-level", (
            Level(CardinalityAtMost(2), Q(1, 2)),
            Level(CardinalityAtMost(3), Q(1, 3)),
        ))
        rng = random.Random(98)
        for _ in range(8):
            x = random_vector(rng, range(1, 5))
            if x.is_zero:
                continue
            value, cert = dual_norm(spec, x)
            verify_dual_certificate(spec, x, cert)
            assert sup_norm(x) <= value <= ell1_norm(x)

    def test_implicit_equation_on_mixed_spec(self):
        spec = MixedSpaceSpec("two-level", (
            Level(CardinalityAtMost(2), Q(1, 2)),
            Level(CardinalityAtMost(3), Q(1, 3)),
        ))
        report = verify_implicit_equation(spec, e(1, 2, 3))
        assert report.ok


class TestPatternHull:
    """The hull program runs over absolute maximal patterns; its signed
    terms are rebuilt by a staircase split of each pattern."""

    CARD_DEMO = MixedSpaceSpec("card-demo", (Level(Schreier1(), Q(1, 2)),
                                             Level(CardinalityAtMost(2), Q(1, 3))))
    EXPLICIT = MixedSpaceSpec("explicit-demo", (
        Level(ExplicitFinite(((1, 2), (2, 3, 4), (3, 5), (1, 4, 5), (2, 5, 6))),
              Q(2, 3)),
        Level(Schreier1(), Q(1, 2))))
    ORACLE_LEVELS = {"tsirelson": TSIRELSON_LEVELS,
                     "card-demo": TSIRELSON_LEVELS + (("card", 2, Q(1, 3)),)}

    @staticmethod
    def signed_hull_optimum(spec, x):
        """min sum(c_f) over c >= 0 with sum(c_f * f) = x, one column per
        signed maximal functional: the program before the reduction."""
        columns = [f.coeffs.to_dict() for f in norming_generators(spec, x.support)]
        xd = x.to_dict()
        rows = tuple(Constraint(tuple(col.get(i, Q(0)) for col in columns), "=", xd[i])
                     for i in x.support)
        sol = lp_solve(LinearProgram(tuple(Q(1) for _ in columns), rows), "min")
        assert sol.status == "optimal"
        return sol.value

    def vectors(self):
        rng = random.Random(20261018)
        out = []
        for spec, top, sizes in ((TS, 8, (2, 3, 4, 5)), (self.CARD_DEMO, 6, (2, 3, 4)),
                                 (self.EXPLICIT, 6, (2, 3, 4, 5))):
            for _ in range(20):
                support = rng.sample(range(1, top + 1), rng.choice(sizes))
                out.append((spec, vec({i: rng.choice(GRID_ENTRIES) for i in support})))
        return out

    def test_agrees_with_signed_hull_and_oracle(self):
        oracle_checked = 0
        for spec, x in self.vectors():
            patterns = _maximal_patterns(spec, x.support, DEFAULT_NORMING_BUDGET)
            pairs, unit = patterns
            value, _, weights, den = dualnorm._solve_ball(patterns, x.abs().entries)
            terms = dualnorm._hull_terms(pairs, unit, x, weights, den, value)
            assert value == self.signed_hull_optimum(spec, x)
            assert value == dual_norm_value(spec, x)
            levels = self.ORACLE_LEVELS.get(spec.name)
            if levels is not None and len(x.support) <= 3:
                assert value == oracle_dual_norm(x.to_dict(), levels)
                oracle_checked += 1

            patterns = {tuple((i, Q(c, unit)) for i, c in key): tree for key, tree in pairs}
            per_pattern = {}
            for term in terms:
                assert term.weight > 0
                a = term.functional.coeffs.abs().entries
                assert a in patterns
                flips = {i: 1 if c > 0 else -1 for i, c in term.functional.coeffs.entries}
                assert term.functional.tree == _flip_tree(patterns[a], flips)
                per_pattern[a] = per_pattern.get(a, 0) + 1
            assert all(n <= len(a) + 1 for a, n in per_pattern.items())
            assert sum(t.weight for t in terms) == value

            got, cert = dual_norm(spec, x)
            assert got == value and cert.hull_terms == terms
            verify_dual_certificate(spec, x, cert)
        assert oracle_checked >= 15

    def test_staircase_split(self):
        # a = (1/2, 1/2, 1/2) of weight 2 needed at shares (1, 0, 1/2),
        # given over top = 2 as (2, 0, 1), with x's signs (+, -, +)
        pairs, unit = _maximal_patterns(TS, (3, 4, 5), DEFAULT_NORMING_BUDGET)
        key, tree = pairs[0]
        half = Q(1, 2)
        assert {i: Q(c, unit) for i, c in key} == {3: half, 4: half, 5: half}
        raw = dualnorm._staircase_terms(2, key, tree, {3: 2, 4: 0, 5: 1},
                                        {3: 1, 4: -1, 5: 1})
        # integer weights total 2 * top = 4 parts of the pattern's weight 2
        assert sum(w for w, _, _ in raw) == 4
        terms = [(Q(2) * w / 4, FinVec(tuple((i, Q(c, unit)) for i, c in coeffs)), flipped)
                 for w, coeffs, flipped in raw]
        # P(+) is 1, 3/4, 1/2 on e3, e5, e4; vertex 0 (all flipped) weighs 0
        assert [(weight, coeffs.to_dict()) for weight, coeffs, _ in terms] == [
            (Q(1, 2), {3: half, 4: half, 5: -half}),
            (Q(1, 2), {3: half, 4: half, 5: half}),
            (Q(1), {3: half, 4: -half, 5: half}),
        ]
        for _, coeffs, flipped in terms:
            assert flipped == _flip_tree(tree, {i: 1 if c > 0 else -1 for i, c in coeffs.entries})
        # the combination is 2 * sign(x) * (shares * a)
        combo = sum((coeffs.scale(weight) for weight, coeffs, _ in terms), FinVec.zero())
        assert combo.to_dict() == {3: Q(1), 5: Q(1, 2)}

    def test_bad_weights_are_internal_failures(self, monkeypatch):
        x = vec({3: Q(1), 4: Q(-1, 2), 5: Q(3, 4)})
        budget = DEFAULT_NORMING_BUDGET
        patterns = _maximal_patterns(TS, x.support, budget)
        pairs, unit = patterns
        value, _, weights, den = dualnorm._solve_ball(patterns, x.abs().entries)
        with pytest.raises(TsinormError, match="uncovered"):
            dualnorm._hull_terms(pairs, unit, x, (0,) * len(weights), den, value)
        # still dominating |x|, but heavier than the optimum
        heavier = (weights[0] + den,) + weights[1:]
        with pytest.raises(TsinormError, match="sum to"):
            dualnorm._hull_terms(pairs, unit, x, heavier, den, value)
        # right weights, every term on the all-plus sign pattern
        staircase = dualnorm._staircase_terms
        monkeypatch.setattr(
            dualnorm, "_staircase_terms",
            lambda top, key, tree, shares, signs: staircase(
                top, key, tree, shares, {i: 1 for i in signs}))
        with pytest.raises(TsinormError, match="does not reproduce x"):
            dualnorm._hull_terms(pairs, unit, x, weights, den, value)

    def test_one_ball_program_per_dual_norm(self, monkeypatch):
        senses = []
        lp = dualnorm.solve_integer

        def counting(program, sense="max"):
            senses.append(sense)
            return lp(program, sense)

        monkeypatch.setattr(dualnorm, "solve_integer", counting)
        for spec, x in self.vectors()[::6]:
            tsinorm.clear_caches()
            senses.clear()
            value, cert = dual_norm(spec, x)
            assert senses == ["max"]
            verify_dual_certificate(spec, x, cert)
            senses.clear()
            assert dual_norm(spec, x)[0] == value and senses == ["max"]

    def test_one_pattern_lookup_per_dual_norm(self):
        for spec, x in self.vectors()[::6]:
            before = _maximal_patterns.cache_info()
            dual_norm(spec, x)
            after = _maximal_patterns.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 1

    def test_only_the_two_memos_hold_state(self):
        caches = {"patterns": _maximal_patterns, "values": dualnorm._ball_value}

        def module_dicts():
            return {name: dict(value) for name, value in vars(dualnorm).items()
                    if isinstance(value, dict) and not name.startswith("__")}

        for call, written in ((dual_norm, {"patterns"}),
                              (dual_norm_value, {"patterns", "values"})):
            tsinorm.clear_caches()
            before = module_dicts()
            for spec, x in self.vectors()[::6]:
                call(spec, x)
            assert module_dicts() == before
            assert {name for name, f in caches.items() if f.cache_info().currsize} == written
        tsinorm.clear_caches()
