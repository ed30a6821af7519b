"""End-to-end acceptance checks, one class per criterion (AC01..AC10).

The working corpus is every vector with support in [1, 6] and entries
drawn from {0, 1, -1, 1/2, -1/2, 2, -2}: 7^6 = 117649 vectors counting
zero.  Exhaustive passes run where a full sweep fits the time budget
(AC03, AC06 over absolute patterns, AC07, AC08); the expensive
double-LP criterion AC04 samples with a fixed reported seed.  Setting
TSINORM_FULL=1 upgrades the sampled sweeps to the literal full corpus.

Every norm value in the package is a function of the absolute entry
pattern alone (the dual memo is keyed on x.abs(), restriction and
splitting commute with taking absolute values), so sweeping the 4^6
absolute patterns decides sign-dependent claims too; signed samples
still run everywhere to exercise the signed code paths themselves.
"""
import itertools
import os
import random
from fractions import Fraction as Q

import pytest

from frozen_values import (
    DUAL_GOLDENS,
    FJ_BLOCK_GOLDENS,
    FJ_GOLDENS,
    RHO_CHAIN_E345,
    ones,
)
from oracles import brute_mixed_norm, oracle_lp_solve
from tsinorm import (
    CardinalityAtMost,
    Constraint,
    FinVec,
    IntervalScalar,
    Level,
    LinearProgram,
    MixedSpaceSpec,
    build_norming_set,
    dual_norm,
    dual_norm_value,
    ell1_norm,
    fj_norm,
    mixed_norm,
    parse_vector,
    rho_chain,
    schlumprecht_spec,
    sigma_ell1_variant,
    solve,
    sup_norm,
    tau,
    tsirelson_spec,
    verify_dual_certificate,
    verify_implicit_equation,
    verify_solution,
)
from tsinorm import dualnorm
from tsinorm.cli import main

TS = tsirelson_spec()
ENTRIES = (Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2))
ABS_ENTRIES = (Q(0), Q(1, 2), Q(1), Q(2))
ACCEPTANCE_SEED = 20260816
FULL = os.environ.get("TSINORM_FULL") == "1"

CARD_SPEC = MixedSpaceSpec(
    "card-mix",
    tuple(Level(CardinalityAtMost(l), Q(1, l + 1)) for l in range(1, 5)))


def vec(combo, offset=1):
    return FinVec.from_items(
        {i + offset: c for i, c in enumerate(combo) if c})


def signed_corpus(bound=6):
    for combo in itertools.product(ENTRIES, repeat=bound):
        yield vec(combo)


def abs_corpus(bound=6):
    for combo in itertools.product(ABS_ENTRIES, repeat=bound):
        yield vec(combo)


def random_signed(rng, bound=6):
    while True:
        x = vec(tuple(rng.choice(ENTRIES) for _ in range(bound)))
        if not x.is_zero:
            return x


@pytest.fixture(scope="module")
def vset6():
    return build_norming_set(TS, 6)


@pytest.fixture(scope="module")
def abs_values():
    """Dual value of every absolute pattern on [1, 6]; 4095 ball programs."""
    return {x.entries: dual_norm_value(TS, x)
            for x in abs_corpus() if not x.is_zero}


def read_dual_values_from(abs_values, monkeypatch):
    """Serve every tsirelson dual value whose absolute pattern is in the
    table from it, so that a sweep reading the values of vectors and of
    their blocks and splits takes a time that does not depend on what
    the value cache holds."""
    computed = dualnorm.dual_norm_value

    def tabled(spec, x, budget):
        key = x.abs().entries
        if spec == TS and key in abs_values:
            return abs_values[key]
        return computed(spec, x, budget)

    monkeypatch.setattr(dualnorm, "dual_norm_value", tabled)


class TestAC01:
    """Unit vectors are normalized on both routes, across a long window."""

    def test_fj_units(self):
        for k in range(1, 21):
            assert fj_norm(FinVec.basis(k))[0] == 1

    def test_dual_units(self):
        for k in range(1, 21):
            value, cert = dual_norm(TS, FinVec.basis(k))
            assert value == 1
            verify_dual_certificate(TS, FinVec.basis(k), cert)


class TestAC02:
    """Frozen golden values for both norms."""

    def test_fj_goldens(self):
        for items, want in FJ_GOLDENS:
            assert fj_norm(FinVec.from_items(items))[0] == want

    def test_fj_block_goldens(self):
        for n, want in FJ_BLOCK_GOLDENS:
            x = FinVec.from_items({i: Q(1) for i in range(n, 2 * n)})
            assert fj_norm(x)[0] == want

    def test_dual_goldens(self):
        for items, want in DUAL_GOLDENS:
            assert dual_norm(TS, FinVec.from_items(items))[0] == want
        assert dual_norm(TS, FinVec.from_items(ones(1, 2)))[0] == 2
        assert dual_norm(TS, FinVec.from_items(ones(3, 4, 5)))[0] == 2


class TestAC03:
    """Norming-set evaluation equals the primal recursion on the full
    117649-vector corpus (exhaustive, no sampling)."""

    def test_determination_full_corpus(self, vset6):
        checked = 0
        for x in signed_corpus():
            assert tau(vset6, x) == fj_norm(x)[0], x.to_dict()
            checked += 1
        assert checked == 7 ** 6


class TestAC04:
    """Hull and ball programs agree and both certificates re-verify.

    dual_norm already solves the two programs independently and raises
    on any mismatch; this sweep re-verifies the assembled certificate
    and pins the ball-only evaluator to the same value.  Sampled with
    seed ACCEPTANCE_SEED (TSINORM_FULL=1 sweeps the whole corpus).
    """

    def test_dual_routes_agree(self):
        if FULL:
            sample = (x for x in signed_corpus() if not x.is_zero)
        else:
            rng = random.Random(ACCEPTANCE_SEED)
            sample = (random_signed(rng) for _ in range(100))
        n = 0
        for x in sample:
            value, cert = dual_norm(TS, x)
            verify_dual_certificate(TS, x, cert)
            assert dual_norm_value(TS, x) == value
            n += 1
        print(f"seed={ACCEPTANCE_SEED} sampled={n}")
        assert n >= 100

    def test_goldens_both_routes(self):
        for items, want in DUAL_GOLDENS:
            x = FinVec.from_items(items)
            value, cert = dual_norm(TS, x)
            assert value == want == dual_norm_value(TS, x)
            verify_dual_certificate(TS, x, cert)


class TestAC05:
    """Norm axioms for the dual: sandwich, homogeneity, lattice
    monotonicity, triangle inequality, zero."""

    def test_zero(self):
        assert dual_norm_value(TS, FinVec.zero()) == 0

    def test_sandwich_all_abs_patterns(self, abs_values):
        for entries, value in abs_values.items():
            x = FinVec.from_items(dict(entries))
            assert sup_norm(x) <= value <= ell1_norm(x)

    def test_lattice_monotonicity_all_abs_patterns(self, abs_values):
        # one grid step down per coordinate; transitivity of <= closes
        # every coordinatewise-comparable pair inside the grid, and
        # values depend only on absolute patterns, so this decides the
        # signed claim as well
        step_down = {Q(2): Q(1), Q(1): Q(1, 2), Q(1, 2): Q(0)}
        for entries, value in abs_values.items():
            d = dict(entries)
            for i in d:
                lowered = dict(d)
                lowered[i] = step_down[lowered[i]]
                key = FinVec.from_items(lowered).entries
                assert abs_values.get(key, Q(0)) <= value

    def test_homogeneity(self):
        rng = random.Random(ACCEPTANCE_SEED + 5)
        for _ in range(300):
            x = random_signed(rng, bound=4)
            base = dual_norm_value(TS, x)
            for lam in (Q(2), Q(-1, 2), Q(3), Q(0)):
                assert dual_norm_value(TS, x.scale(lam)) == abs(lam) * base

    def test_triangle_10k_pairs(self):
        rng = random.Random(ACCEPTANCE_SEED + 55)
        nonzero = tuple(c for c in ENTRIES if c)
        for _ in range(10_000):
            x = FinVec.from_items({i: rng.choice(nonzero)
                                   for i in range(1, 6)
                                   if rng.random() < 0.65})
            y = FinVec.from_items({i: rng.choice(nonzero)
                                   for i in range(1, 6)
                                   if rng.random() < 0.65})
            assert dual_norm_value(TS, x + y) <= \
                dual_norm_value(TS, x) + dual_norm_value(TS, y)


class TestAC06:
    """The dual norm satisfies its implicit fixed-point equation.

    Exhaustive over all 4095 absolute patterns (which determine every
    compared quantity), plus a large seeded signed sample to run the
    branch enumeration on signed inputs; TSINORM_FULL=1 makes the
    signed pass exhaustive too.
    """

    def test_all_abs_patterns(self, abs_values, monkeypatch):
        read_dual_values_from(abs_values, monkeypatch)
        for entries in abs_values:
            x = FinVec.from_items(dict(entries))
            assert verify_implicit_equation(TS, x).ok, x.to_dict()

    def test_signed_vectors(self, abs_values, monkeypatch):
        read_dual_values_from(abs_values, monkeypatch)
        if FULL:
            sample = (x for x in signed_corpus() if not x.is_zero)
            for x in sample:
                assert verify_implicit_equation(TS, x).ok, x.to_dict()
            return
        rng = random.Random(ACCEPTANCE_SEED + 6)
        for _ in range(10_000):
            x = random_signed(rng)
            assert verify_implicit_equation(TS, x).ok, x.to_dict()

    def test_e345_tight_partition(self):
        report = verify_implicit_equation(TS, parse_vector("3:1 4:1 5:1"))
        assert report.ok
        assert report.minimizing is not None
        assert report.minimizing.kind == "partition"
        assert report.minimizing.slack == 0
        assert report.minimizing.detail[1] == ((3,), (4,), (5,))


class TestAC07:
    """The partition-only iterates decrease monotonically to a bound
    that never undercuts the dual norm."""

    def test_chains_all_abs_patterns(self, abs_values):
        for entries, value in abs_values.items():
            x = FinVec.from_items(dict(entries))
            chain = rho_chain(TS, x, 6)
            values = [it.value for it in chain]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[-1] >= value

    def test_chains_signed_sample(self):
        rng = random.Random(ACCEPTANCE_SEED + 7)
        for _ in range(2000):
            x = random_signed(rng)
            chain = rho_chain(TS, x, 6)
            values = [it.value for it in chain]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[-1] >= dual_norm_value(TS, x)

    def test_frozen_chain_e345(self):
        x = parse_vector("3:1 4:1 5:1")
        chain = rho_chain(TS, x, 3)
        assert [it.value for it in chain] == RHO_CHAIN_E345
        assert chain[1].value == 2


class TestAC08:
    """Mixed-space evaluation: the one-level preset reproduces the
    primal recursion, the symbolic preset gives tight enclosures, and
    a genuinely mixed space passes the dual fixed-point check."""

    def test_tsirelson_mixed_equals_fj_full_corpus(self):
        # fj_norm is mixed_norm on the tsirelson preset, so both are
        # checked against the brute-force recursion, valued once per
        # absolute pattern
        expected = {}
        for combo in itertools.product(ABS_ENTRIES, repeat=6):
            x = vec(combo)
            expected[x.entries] = brute_mixed_norm(x.to_dict())
            assert fj_norm(x)[0] == expected[x.entries]
        for x in signed_corpus():
            assert mixed_norm(TS, x)[0] == expected[x.abs().entries]

    def test_schlumprecht_enclosure(self):
        value, cert = mixed_norm(schlumprecht_spec(), parse_vector("1:1 2:1 3:1"))
        assert isinstance(value, IntervalScalar)
        assert value.width <= Q(1, 2 ** 20)
        assert value.contains(Q(3, 2))

    def test_card_mix_implicit_equation(self):
        for combo in itertools.product(ABS_ENTRIES, repeat=5):
            x = vec(combo)
            if x.is_zero:
                continue
            assert verify_implicit_equation(CARD_SPEC, x).ok, x.to_dict()

    def test_card_mix_signed_spot(self):
        rng = random.Random(ACCEPTANCE_SEED + 8)
        nonzero = tuple(c for c in ENTRIES if c)
        for _ in range(200):
            x = FinVec.from_items({i: rng.choice(nonzero)
                                   for i in range(1, 6)
                                   if rng.random() < 0.5})
            if x.is_zero:
                continue
            assert verify_implicit_equation(CARD_SPEC, x).ok

    def test_card_mix_dual_certificates(self):
        for literal in ("1:1 2:1", "2:1 3:-1 4:1/2", "1:2 3:1"):
            x = parse_vector(literal)
            value, cert = dual_norm(CARD_SPEC, x)
            verify_dual_certificate(CARD_SPEC, x, cert)
            assert sup_norm(x) <= value <= ell1_norm(x)


class TestAC09:
    """The falsifier command completes its search and any counterexample
    it prints re-verifies exactly."""

    def test_search_completes_and_reverifies(self, capsys):
        code = main(["check", "ell1-falsify", "--support", "5",
                     "--entries", "1,-1,1/2,-1/2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        if lines[0] == "counterexample":
            data = dict(l.split(" = ") for l in lines[1:])
            x = parse_vector(data["x"])
            y = parse_vector(data["y"])
            sx, ok_x = sigma_ell1_variant(TS, x)
            sy, ok_y = sigma_ell1_variant(TS, y)
            ss, ok_s = sigma_ell1_variant(TS, x + y)
            assert ok_x and ok_y and ok_s
            assert sx == Q(data["sigma(x)"])
            assert sy == Q(data["sigma(y)"])
            assert ss == Q(data["sigma(x+y)"])
            assert ss > sx + sy
        else:
            assert lines[0].startswith("exhausted after ")

    def test_exhausted_is_not_a_failure(self, capsys):
        code = main(["check", "ell1-falsify", "--support", "4",
                     "--entries", "1,-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("exhausted after 3240 pairs")


class TestAC10:
    """The exact simplex agrees with brute vertex enumeration on seeded
    random programs, and strong duality holds at every optimum."""

    def test_200_random_lps(self):
        grid = [Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2)]
        rng = random.Random(ACCEPTANCE_SEED + 10)
        optimal = 0
        for trial in range(200):
            n = rng.randint(1, 6)
            m = rng.randint(0, 6)
            obj = [rng.choice(grid) for _ in range(n)]
            rows = []
            n_eq = 0
            for _ in range(m):
                rel = rng.choice(["<=", "<=", ">=", "="])
                if rel == "=" and n_eq >= 2:
                    rel = "<="
                n_eq += rel == "="
                rows.append(([rng.choice(grid) for _ in range(n)],
                             rel, rng.choice(grid)))
            want_status, want_value, _ = oracle_lp_solve("max", obj, rows)
            prog = LinearProgram(
                tuple(obj),
                tuple(Constraint(tuple(c), rel, rhs) for c, rel, rhs in rows))
            got = solve(prog, "max")
            assert got.status == want_status, (trial, obj, rows)
            if got.status == "optimal":
                assert got.value == want_value, (trial, obj, rows)
                verify_solution(prog, "max", got)
                dual_value = sum(y * r[2] for y, r in zip(got.duals, rows))
                assert dual_value == got.value
                optimal += 1
        assert optimal >= 40
