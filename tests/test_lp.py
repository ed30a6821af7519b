import contextlib
import random
from dataclasses import replace
from fractions import Fraction as Q
from unittest import mock

import pytest

from oracles import FractionTableau, oracle_lp_solve
from tsinorm import clear_caches, dualnorm, lp as lp_module
from tsinorm.core import DEFAULT_NORMING_BUDGET, FinVec
from tsinorm.families import spec_from_config, tsirelson_spec
from tsinorm.norming import _maximal_patterns
from tsinorm.lp import (
    Constraint,
    LinearProgram,
    LpError,
    LpSolution,
    check_integer_solution,
    solve,
    solve_integer,
    verify_solution,
)


def lp(obj, rows):
    return LinearProgram(tuple(obj),
                         tuple(Constraint(tuple(c), rel, rhs) for c, rel, rhs in rows))


class TestBasics:
    def test_single_upper(self):
        s = solve(lp([1], [([1], "<=", Q(3, 2))]), "max")
        assert s.status == "optimal" and s.value == Q(3, 2)

    def test_min_on_simplex(self):
        s = solve(lp([1, 1], [([1, 1], "=", 1)]), "min")
        assert s.status == "optimal" and s.value == 1

    def test_unbounded(self):
        assert solve(lp([1], []), "max").status == "unbounded"
        assert solve(lp([1, 0], [([0, 1], "<=", 5)]), "max").status == "unbounded"

    def test_infeasible(self):
        s = solve(lp([1], [([1], "<=", -1)]), "max")
        assert s.status == "infeasible"
        s = solve(lp([1, 1], [([1, 1], "=", 1), ([1, 1], "=", 2)]), "max")
        assert s.status == "infeasible"

    def test_degenerate_redundant_equalities(self):
        # duplicated equality rows exercise the redundant-row cleanup
        s = solve(lp([1, 2], [([1, 1], "=", 1), ([2, 2], "=", 2)]), "max")
        assert s.status == "optimal" and s.value == 2

    def test_mixed_relations(self):
        s = solve(lp([2, 3], [([1, 1], "<=", 4), ([1, 0], ">=", 1), ([0, 1], ">=", 1)]), "max")
        assert s.status == "optimal" and s.value == 2 + 9

    def test_duals_on_tight_rows(self):
        s = solve(lp([1, 1], [([1, 0], "<=", 2), ([0, 1], "<=", 3)]), "max")
        assert s.duals == (1, 1) and s.value == 5

    def test_beale_cycling_instance_terminates(self):
        # classic cycling example for Dantzig pricing; Bland must finish
        rows = [
            ([Q(1, 4), -60, Q(-1, 25), 9], "<=", 0),
            ([Q(1, 2), -90, Q(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]
        s = solve(lp([Q(3, 4), -150, Q(1, 50), -6], rows), "max")
        assert s.status == "optimal" and s.value == Q(1, 20)


class TestVerification:
    def test_forged_value_caught(self):
        good = solve(lp([1], [([1], "<=", 1)]), "max")
        forged = LpSolution("optimal", Q(2), good.assignment, good.duals)
        with pytest.raises(LpError):
            verify_solution(lp([1], [([1], "<=", 1)]), "max", forged)

    def test_forged_dual_caught(self):
        prog = lp([1], [([1], "<=", 1)])
        good = solve(prog, "max")
        forged = LpSolution("optimal", good.value, good.assignment, (Q(0),))
        with pytest.raises(LpError):
            verify_solution(prog, "max", forged)

    # max x0 + x1 with x0 <= 2, x1 <= 3: x = (2, 3), y = (1, 1), value 5
    @pytest.mark.parametrize("value, assignment, duals, message", [
        (Q(5), (Q(2), Q(4)), (Q(1), Q(1)), "row 1 violated"),
        (Q(1), (Q(2), Q(-1)), (Q(1), Q(1)), r"x\[1\] = -1 is negative"),
        (Q(4), (Q(2), Q(2)), (Q(1), Q(1)), "complementary slackness broken on row 1"),
        (Q(5), (Q(2), Q(3)), (Q(1), Q(-1)), "dual sign wrong on <= row 1"),
        (Q(5), (Q(2), Q(3)), (Q(1), Q(0)), "reduced cost 1 on variable 1"),
        (Q(6), (Q(2), Q(3)), (Q(1), Q(1)), "reported value 6"),
    ], ids=["infeasible-assignment", "negative-assignment", "suboptimal-assignment",
            "wrong-sign-dual", "missing-dual", "wrong-value"])
    def test_corrupted_solution_caught(self, value, assignment, duals, message):
        prog = lp([1, 1], [([1, 0], "<=", 2), ([0, 1], "<=", 3)])
        assert solve(prog, "max") == LpSolution("optimal", Q(5), (Q(2), Q(3)), (Q(1), Q(1)))
        with pytest.raises(LpError, match=message):
            verify_solution(prog, "max", LpSolution("optimal", value, assignment, duals))


class TestIntegerKkt:
    """check_integer_solution on a real tsirelson ball program, built from
    the closure's integer keys as dual_norm builds it, with one KKT
    condition broken at a time."""

    @pytest.fixture(scope="class")
    def ball(self):
        x = FinVec.from_items({2: 1, 3: Q(-1, 2), 4: 2, 5: 1, 6: Q(1, 2)})
        patterns = _maximal_patterns(tsirelson_spec(), x.support, DEFAULT_NORMING_BUDGET)
        prog = dualnorm._ball_program(patterns, x.abs().entries)
        sol = solve_integer(prog)
        assert sol.status == "optimal" and len(prog.rows) > 20
        activity = [sum(a * v for a, v in zip(coeffs, sol.x)) for coeffs, _, _ in prog.rows]
        tight = [r for r, (lhs, (_, _, rhs)) in enumerate(zip(activity, prog.rows))
                 if lhs == rhs * sol.den]
        priced = [r for r, y in enumerate(sol.y) if y]
        assert priced and set(priced) <= set(tight) and len(tight) < len(prog.rows)
        return prog, sol, tight, priced

    @staticmethod
    def forged_duals(sol, r, y):
        return replace(sol, y=sol.y[:r] + (y,) + sol.y[r + 1:])

    def test_the_optimum_passes(self, ball):
        prog, sol, _, priced = ball
        check_integer_solution(prog, "max", sol)
        # the same multipliers have the wrong sign for a minimum
        with pytest.raises(LpError, match=rf"dual sign wrong on <= row {priced[0]}: "):
            check_integer_solution(prog, "min", sol)

    def test_violated_row(self, ball):
        prog, sol, _, _ = ball
        j = next(j for j, v in enumerate(sol.x) if v)
        x = sol.x[:j] + (sol.x[j] + sol.den,) + sol.x[j + 1:]
        first = next(r for r, (coeffs, _, rhs) in enumerate(prog.rows)
                     if sum(a * v for a, v in zip(coeffs, x)) > rhs * sol.den)
        with pytest.raises(LpError, match=rf"^row {first} violated: .* > 1$"):
            check_integer_solution(prog, "max", replace(sol, x=x))

    def test_negative_dual(self, ball):
        prog, sol, _, priced = ball
        r = priced[0]
        with pytest.raises(LpError, match=rf"dual sign wrong on <= row {r}: -"):
            check_integer_solution(prog, "max", self.forged_duals(sol, r, -sol.y[r]))

    def test_broken_complementary_slackness(self, ball):
        prog, sol, tight, _ = ball
        r = next(r for r in range(len(prog.rows)) if r not in tight)
        with pytest.raises(LpError, match=rf"complementary slackness broken on row {r}$"):
            check_integer_solution(prog, "max", self.forged_duals(sol, r, 1))

    def test_reduced_cost_of_the_wrong_sign(self, ball):
        prog, sol, _, priced = ball
        r = priced[0]
        # a dual dropped leaves a positive reduced cost, one raised on a
        # tight row a negative one on a variable in use
        with pytest.raises(LpError, match=r"reduced cost \d+(/\d+)? on variable \d+ has no "):
            check_integer_solution(prog, "max", self.forged_duals(sol, r, 0))
        with pytest.raises(LpError, match=r"reduced cost -\d+(/\d+)? on variable \d+ needs it "):
            check_integer_solution(prog, "max", self.forged_duals(sol, r, sol.y[r] + sol.den))

    def test_wrong_value(self, ball):
        prog, sol, _, _ = ball
        with pytest.raises(LpError, match=r"^reported value .* != c\.x = "):
            check_integer_solution(prog, "max", replace(sol, value=sol.value + 1))


GRID = [Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(2)]


def random_lp(rng, max_vars=4, max_rows=5):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    obj = [rng.choice(GRID) for _ in range(n)]
    rows = []
    n_eq = 0
    for _ in range(m):
        coeffs = [rng.choice(GRID) for _ in range(n)]
        rel = rng.choice(["<=", "<=", ">=", "="])
        if rel == "=":
            if n_eq >= 2:
                rel = "<="
            else:
                n_eq += 1
        rows.append((coeffs, rel, rng.choice(GRID)))
    return obj, rows


class TestAgainstOracle:
    def test_random_lps_match_vertex_enumeration(self):
        rng = random.Random(1009)
        optimal = 0
        for trial in range(120):
            obj, rows = random_lp(rng)
            want_status, want_value, _ = oracle_lp_solve("max", obj, rows)
            got = solve(lp(obj, rows), "max")
            assert got.status == want_status, (trial, obj, rows)
            if want_status == "optimal":
                assert got.value == want_value, (trial, obj, rows)
                optimal += 1
        assert optimal > 30  # the generator must actually exercise the solver

    def test_random_min_sense(self):
        rng = random.Random(77)
        for trial in range(60):
            obj, rows = random_lp(rng)
            want_status, want_value, _ = oracle_lp_solve("min", obj, rows)
            got = solve(lp(obj, rows), "min")
            assert got.status == want_status, (trial, obj, rows)
            if want_status == "optimal":
                assert got.value == want_value, (trial, obj, rows)

    def test_strong_duality_identity(self):
        # verify_solution already runs inside solve; this re-checks the
        # headline identity explicitly
        rng = random.Random(4242)
        seen = 0
        for _ in range(80):
            obj, rows = random_lp(rng)
            got = solve(lp(obj, rows), "max")
            if got.status != "optimal":
                continue
            dual_value = sum(y * Q(r[2]) for y, r in zip(got.duals, rows))
            assert dual_value == got.value
            seen += 1
        assert seen > 20


# ---------------------------------------------------------------------------
# the fraction-free kernel against the Fraction tableau it replaced

@contextlib.contextmanager
def recorded_pivots(tableau, label):
    """Record every pivot of `tableau`: its (row, column label), with
    label(tableau, column) the label of the column it pivots on, and
    whether it was degenerate (zero right-hand side) and whether its
    entry was negative (only the phase-1 drive-out takes those).  Yields
    (pivots, kinds)."""
    pivots, kinds = [], []
    original = tableau._pivot

    def recording(self, r, j):
        pivots.append((r, label(self, j)))
        kinds.append((self.b[r] == 0, self.T[r][j] < 0))
        return original(self, r, j)

    with mock.patch.object(tableau, "_pivot", recording):
        yield pivots, kinds


def oracle_solve(prog, sense):
    """The Fraction tableau driven as lp.solve drove it before the kernel
    went to integers: phase 1, then phase 2 on the objective signed for
    the sense, with the point and the duals read off the final tableau.
    Returns the solution, the pivots, their kinds, and whether a row was
    deleted as redundant."""
    sgn = 1 if sense == "max" else -1
    n = len(prog.objective)
    with recorded_pivots(FractionTableau, lambda tab, j: j) as (pivots, kinds):
        tab = FractionTableau(n, [(con.coeffs, con.relation, con.rhs)
                                  for con in prog.constraints])
        if not tab.phase1():
            sol = LpSolution("infeasible")
        elif tab.phase2([sgn * c for c in prog.objective]) == "unbounded":
            sol = LpSolution("unbounded")
        else:
            x = tuple(tab.column_values()[:n])
            sol = LpSolution("optimal", sum((c * v for c, v in zip(prog.objective, x)), Q(0)),
                             x, tuple(sgn * tab.row_dual(r) for r in range(len(prog.constraints))))
    return sol, pivots, kinds, any(tab.deleted)


def condensed_pivots():
    """recorded_pivots on lp._Tableau, whose stored column j is the
    full-tableau column labels[j]."""
    return recorded_pivots(lp_module._Tableau, lambda tab, j: tab.labels[j])


def assert_same_run(prog, sense):
    want, want_pivots, kinds, deleted = oracle_solve(prog, sense)
    with condensed_pivots() as (got_pivots, _):
        got = solve(prog, sense)
    assert got == want
    assert got_pivots == want_pivots
    return want.status, kinds, deleted


def random_general_lp(rng):
    """A small LP with every row relation, negative right-hand sides, and
    some rows repeated as multiples of another (redundant, so phase 1
    deletes one of them)."""
    obj, rows = random_lp(rng, max_vars=5, max_rows=6)
    if rows and rng.random() < 0.3:
        coeffs, rel, rhs = rng.choice(rows)
        k = rng.choice([Q(2), Q(-1, 3), Q(3, 2)])
        rel = {"<=": ">=", ">=": "<=", "=": "="}[rel] if k < 0 else rel
        rows.append(([k * c for c in coeffs], rel, k * rhs))
    return lp(obj, rows)


class TestFractionFreeKernel:
    def test_same_pivots_and_optimum_on_seeded_corpus(self):
        rng = random.Random(20_240_607)
        statuses, degenerate, negative, deleted = set(), 0, 0, 0
        for _ in range(600):
            prog = random_general_lp(rng)
            for sense in ("max", "min"):
                status, kinds, dropped = assert_same_run(prog, sense)
                statuses.add(status)
                degenerate += sum(d for d, _ in kinds)
                negative += sum(n for _, n in kinds)
                deleted += dropped
        # the corpus must reach every status and every special pivot
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert degenerate > 0 and negative > 0 and deleted > 0

    def test_same_pivots_on_cycling_instance(self):
        rows = [
            ([Q(1, 4), -60, Q(-1, 25), 9], "<=", 0),
            ([Q(1, 2), -90, Q(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]
        status, kinds, _ = assert_same_run(lp([Q(3, 4), -150, Q(1, 50), -6], rows), "max")
        assert status == "optimal" and any(d for d, _ in kinds)

    def test_same_pivots_on_ball_programs(self):
        card_demo = spec_from_config(
            {"name": "card-demo",
             "levels": [{"family": "schreier1", "theta": "1/2"},
                        {"family": {"card_at_most": 2}, "theta": "1/3"}]})
        rng = random.Random(5)
        grid = [Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2)]
        tsirelson_supports = [
            (2, 3, 4), (2, 5, 7), (3, 4, 5), (1, 2, 3, 4), (1, 3, 5, 6),
            (2, 3, 4, 5), (2, 3, 5, 7), (2, 4, 5, 6), (2, 4, 6, 7), (3, 4, 5, 6),
            (3, 4, 6, 7), (3, 5, 6, 7), (1, 2, 3, 4, 5), (1, 2, 4, 6, 7),
            (1, 3, 4, 5, 7)]
        card_supports = [(2, 4, 6), (3, 4, 5), (2, 3, 5), (3, 5, 7), (1, 3, 5)]
        cases = [(tsirelson_spec(), {i: rng.choice(grid) for i in s})
                 for s in tsirelson_supports for _ in range(2)]
        cases += [(card_demo, {i: rng.choice(grid) for i in s}) for s in card_supports]
        cases.append((tsirelson_spec(), {i: Q(1) for i in range(2, 9)}))

        programs = []

        def recording_solve(prog, sense="max"):
            programs.append((prog, sense))
            return solve_integer(prog, sense)

        clear_caches()
        with mock.patch.object(dualnorm, "solve_integer", recording_solve):
            for spec, x in cases:
                dualnorm.dual_norm(spec, FinVec.from_items(x))
        clear_caches()
        assert len(programs) == len(cases)
        assert max(len(prog.rows) for prog, _ in programs) == 202
        for prog, sense in programs:
            # the oracle solves the program in the caller's rationals:
            # pattern rows a . z <= 1 and the objective |x|
            rational = LinearProgram(
                tuple(Q(c, prog.cost_scale) for c in prog.cost),
                tuple(Constraint(tuple(Q(a, s) for a in coeffs), rel, Q(rhs, s))
                      for (coeffs, rel, rhs), s in zip(prog.rows, prog.row_scale)))
            want, want_pivots, _, _ = oracle_solve(rational, sense)
            with condensed_pivots() as (got_pivots, _):
                got = solve_integer(prog, sense)
            assert want.status == "optimal"
            assert lp_module._rational_solution(prog, got) == want
            assert got_pivots == want_pivots
