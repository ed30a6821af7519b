"""Exact rational linear programming over x >= 0.

Rows are <=, = or >= constraints with any rational right-hand side; every
variable is nonnegative and has no upper bound.  Two-phase primal simplex
with Bland's rule, so termination is guaranteed and every optimum is
exact.  Dual multipliers are read off the final tableau from each row's
initial unit column, and every optimal result is KKT-verified before it
is returned.

The engine runs on integer programs (IntegerProgram).  solve() scales
each row of a LinearProgram by the lcm of its denominators, and the
objective by the lcm of its own, once; a caller that already holds
integer rows (the dual-norm ball program) hands them to solve_integer()
directly.  Both doors run the one tableau and the one KKT check, and the
check is in integers too: x and y share the tableau's denominator, so
every comparison is an int comparison.  Rationals are made only for the
answer solve() returns and for the message of a failed check.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968; as in exact LP
solvers such as QSopt_ex): every entry is stored as d times its true
value, an integer, where d is the absolute determinant of the current
basis.  A pivot does integer products and one exact division per entry,
where Fraction arithmetic would take a gcd per operation.  It is also
condensed: a basic column is d times a unit vector, so only the nonbasic
columns are stored, each labelled by its index in the full tableau
(structural, then slack or surplus, then artificial), and a pivot hands
the entering column's place to the leaving one.  On a ball program with
one row per pattern and one column per support point that stores m*n
entries where the full tableau stores m*(n+m).  The row scalings are
positive and Bland's rule runs over the labels, so every reduced-cost
sign, ratio order and tie-break is the one the full Fraction tableau
sees: the same pivots end at the same vertex with the same duals, which
keeps ball vectors and certificates unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .core import TsinormError, as_scalar

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(TsinormError):
    """Solver-internal inconsistency (a bug, never a caller error)."""


@dataclass(frozen=True)
class Constraint:
    coeffs: Tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_scalar(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", as_scalar(self.rhs))
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective . x subject to rows, over x >= 0."""
    objective: Tuple[Fraction, ...]
    constraints: Tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(as_scalar(c) for c in self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        for row in self.constraints:
            if len(row.coeffs) != n:
                raise ValueError(f"constraint has {len(row.coeffs)} coeffs, expected {n}")


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Fraction] = None
    assignment: Optional[Tuple[Fraction, ...]] = None
    duals: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class IntegerProgram:
    """cost . x subject to rows, over x >= 0, in integers.

    rows holds (coeffs, relation, rhs) with integer coefficients and
    right-hand side.  Row r is row_scale[r] > 0 times the caller's row r,
    and cost is cost_scale > 0 times the caller's objective; the scales
    only turn answers and error messages back into the caller's units.
    """
    cost: Tuple[int, ...]
    rows: Tuple[tuple, ...]
    row_scale: Tuple[int, ...]
    cost_scale: int


@dataclass(frozen=True)
class IntegerSolution:
    """An optimum of an IntegerProgram over one denominator den > 0:
    x[j] / den is the point, y[r] / den the multiplier of integer row r,
    and value / den the optimal cost . x.  The caller's multiplier of row
    r is row_scale[r] * y[r] / (cost_scale * den), and its optimum
    value / (cost_scale * den)."""
    status: str
    x: Optional[Tuple[int, ...]] = None
    y: Optional[Tuple[int, ...]] = None
    value: Optional[int] = None
    den: int = 1


def solve(lp: LinearProgram, sense: str = "max") -> LpSolution:
    """Exact optimum with a verified dual certificate.

    Statuses infeasible/unbounded are results, not errors.  An optimal
    solution that fails the exact KKT check raises LpError; that cannot
    happen short of a solver bug.
    """
    prog = _integer_program(lp)
    return _rational_solution(prog, solve_integer(prog, sense))


def _rational_solution(prog: IntegerProgram, sol: IntegerSolution) -> LpSolution:
    """sol in the units of the caller whose program prog scales."""
    if sol.status != OPTIMAL:
        return LpSolution(sol.status)
    den, cost_den = sol.den, sol.den * prog.cost_scale
    return LpSolution(OPTIMAL, Fraction(sol.value, cost_den),
                      tuple(Fraction(v, den) for v in sol.x),
                      tuple(Fraction(s * y, cost_den) for s, y in zip(prog.row_scale, sol.y)))


def solve_integer(prog: IntegerProgram, sense: str = "max") -> IntegerSolution:
    """solve() for a program already in integers; the optimum is
    KKT-verified in integers before it is returned."""
    sgn = _sense_sign(sense)
    tab = _Tableau(len(prog.cost), prog.rows)
    if not tab.phase1(prog.row_scale):
        return IntegerSolution(INFEASIBLE)
    if tab.phase2([sgn * c for c in prog.cost]) == UNBOUNDED:
        return IntegerSolution(UNBOUNDED)
    sol = IntegerSolution(OPTIMAL, tab.column_values(),
                          tuple(sgn * y for y in tab.row_duals()), sgn * tab.objval, tab.d)
    check_integer_solution(prog, sense, sol)
    return sol


def _sense_sign(sense: str) -> int:
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    return 1 if sense == "max" else -1


def _integer_program(lp: LinearProgram) -> IntegerProgram:
    rows, scales = [], []
    for con in lp.constraints:
        s = lcm(con.rhs.denominator, *(a.denominator for a in con.coeffs))
        rows.append((tuple(a.numerator * (s // a.denominator) for a in con.coeffs),
                     con.relation, con.rhs.numerator * (s // con.rhs.denominator)))
        scales.append(s)
    c = lcm(*(cj.denominator for cj in lp.objective))
    cost = tuple(cj.numerator * (c // cj.denominator) for cj in lp.objective)
    return IntegerProgram(cost, tuple(rows), tuple(scales), c)


class _Tableau:
    """Condensed fraction-free simplex tableau in the z_j - c_j convention.

    The full tableau has the structural columns, then one slack/surplus
    per row that needs it, then one artificial per =/>= row; those
    indices are the column labels.  Only the nonbasic columns are stored:
    T[r][k] and obj[k] belong to column labels[k], and basis[r] is the
    label of row r's basic column.  Each input row keeps the label of its
    initial unit column so its dual can be read from the final objective
    row.  Artificial columns are never allowed to re-enter in phase 2.

    Rows are integers; a row with negative right-hand side is negated
    and its relation flipped.  Every stored entry, the objective row
    included, is d times the true tableau entry, where d > 0 is the
    absolute determinant of the current basis.  A pivot on (r, k) is the
    Bareiss update (p*a - f*q) // d with p the pivot entry; the division
    is exact and d becomes |p|.  The leaving column was d times the unit
    vector of row r, so the update turns it into -f in every other row
    and keeps d in row r; it takes the entering column's place k.
    """

    def __init__(self, nstruct, rows):
        self.nstruct = nstruct
        self.flip = []
        T, b, rels = [], [], []
        for coeffs, rel, rhs in rows:
            flip = rhs < 0
            self.flip.append(flip)
            T.append([-a for a in coeffs] if flip else list(coeffs))
            b.append(-rhs if flip else rhs)
            rels.append(_FLIPPED[rel] if flip else rel)
        m = len(T)
        self.m = m
        self.unit_col = [None] * m   # the label whose reduced cost is this row's dual
        self.artificial = set()
        self.basis = [None] * m
        self.labels = list(range(nstruct))
        ncols = nstruct
        for r, rel in enumerate(rels):
            if rel == "<=":
                self.unit_col[r] = self.basis[r] = ncols
                ncols += 1
            elif rel == ">=":
                # the surplus column -e_r starts nonbasic, so it is stored
                self.labels.append(ncols)
                for r2, line in enumerate(T):
                    line.append(-1 if r2 == r else 0)
                ncols += 1
        for r, rel in enumerate(rels):
            if rel != "<=":
                self.unit_col[r] = self.basis[r] = ncols
                self.artificial.add(ncols)
                ncols += 1
        self.T = T
        self.b = b
        self.d = 1
        self.ncols = ncols
        self.obj = None
        self.deleted = [False] * m

    def _pivot(self, r, k):
        T, b, d = self.T, self.b, self.d
        prow, brow = T[r], b[r]
        p = prow[k]
        # the leaving column's entry in row r
        e = d
        if p < 0:
            # keep d positive: store the pivot row negated, which negates
            # every row the update below produces
            prow = T[r] = [-q for q in prow]
            brow = b[r] = -brow
            p, e = -p, -d
        for r2 in range(self.m):
            if r2 == r or self.deleted[r2]:
                continue
            line = T[r2]
            f = line[k]
            if f:
                line = T[r2] = [(p * a - f * q) // d for a, q in zip(line, prow)]
                line[k] = -f if e > 0 else f
                b[r2] = (p * b[r2] - f * brow) // d
            elif p != d:
                T[r2] = [p * a // d for a in line]
                b[r2] = p * b[r2] // d
        f = self.obj[k]
        self.obj = [(p * a - f * q) // d for a, q in zip(self.obj, prow)]
        self.obj[k] = -f if e > 0 else f
        self.objval = (p * self.objval - f * brow) // d
        prow[k] = e
        self.d = p
        self.labels[k], self.basis[r] = self.basis[r], self.labels[k]

    def _run(self, banned):
        # Bland: entering = lowest-label improving column, leaving = lowest
        # basis label among minimum ratios.  Guarantees termination.  With
        # d > 0, b[r] / a < b[best] / a_best iff b[r] * a_best < b[best] * a
        # for a, a_best > 0.
        T, b, labels = self.T, self.b, self.labels
        while True:
            enter, first = -1, self.ncols
            for k, c in enumerate(self.obj):
                if c < 0 and labels[k] < first and labels[k] not in banned:
                    enter, first = k, labels[k]
            if enter < 0:
                return OPTIMAL
            leave = -1
            for r in range(self.m):
                if self.deleted[r]:
                    continue
                a = T[r][enter]
                if a > 0:
                    if leave < 0:
                        leave, best_b, best_a = r, b[r], a
                        continue
                    lhs, rhs = b[r] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave, best_b, best_a = r, b[r], a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _set_objective(self, cost):
        # rebuild the z_j - c_j row, times d, for integer costs by label
        # over the current basis
        d = self.d
        obj = [-d * cost[label] for label in self.labels]
        objval = 0
        for r in range(self.m):
            if self.deleted[r]:
                continue
            cb = cost[self.basis[r]]
            if cb:
                obj = [a + cb * t for a, t in zip(obj, self.T[r])]
                objval += cb * self.b[r]
        self.obj = obj
        self.objval = objval

    def phase1(self, row_scale) -> bool:
        # maximize minus the sum of the caller's artificials: row r is
        # row_scale[r] times the caller's row, so its artificial costs
        # 1/row_scale[r], times the lcm of those scales
        art_rows = [r for r in range(self.m) if self.unit_col[r] in self.artificial]
        scale = lcm(*(row_scale[r] for r in art_rows))
        cost = [0] * self.ncols
        for r in art_rows:
            cost[self.unit_col[r]] = -(scale // row_scale[r])
        self._set_objective(cost)
        status = self._run(banned=frozenset())
        if status != OPTIMAL or self.objval != 0:
            return False
        # Remove artificials from the basis: pivot them out where the row
        # still carries structural content, delete the row where it does not
        # (the constraint was linearly dependent).  Every other basic column
        # is zero in row r, so the stored columns hold all its content.
        for r in range(self.m):
            if self.deleted[r] or self.basis[r] not in self.artificial:
                continue
            row = self.T[r]
            content = [(label, k) for k, label in enumerate(self.labels)
                       if label not in self.artificial and row[k] != 0]
            if content:
                self._pivot(r, min(content)[1])
            else:
                self.deleted[r] = True
        return True

    def phase2(self, cost) -> str:
        self._set_objective(list(cost) + [0] * (self.ncols - self.nstruct))
        return self._run(banned=self.artificial)

    def column_values(self) -> tuple:
        """Structural values at the current basis, times d."""
        vals = [0] * self.nstruct
        for r in range(self.m):
            if not self.deleted[r] and self.basis[r] < self.nstruct:
                vals[self.basis[r]] = self.b[r]
        return tuple(vals)

    def row_duals(self) -> tuple:
        """Row multipliers, times d.  Row r's is the reduced cost of its
        initial unit column, which was zero-cost and carried the identity
        at the start: zero while that column is basic.  Deleted rows were
        redundant; zero is a valid multiplier for them."""
        where = {label: k for k, label in enumerate(self.labels)}
        out = []
        for r in range(self.m):
            k = where.get(self.unit_col[r])
            y = 0 if self.deleted[r] or k is None else self.obj[k]
            out.append(-y if self.flip[r] else y)
        return tuple(out)


def verify_solution(lp: LinearProgram, sense: str, sol: LpSolution) -> None:
    """Exact KKT check of an optimal solution; raises LpError on failure.

    The program and the solution go to integers over common denominators
    and through check_integer_solution, the check solve() runs.
    """
    if sol.status != OPTIMAL:
        raise LpError("verify_solution needs an optimal solution")
    prog = _integer_program(lp)
    duals = [Fraction(y) * prog.cost_scale / s for y, s in zip(sol.duals, prog.row_scale)]
    value = Fraction(sol.value) * prog.cost_scale
    den = lcm(value.denominator, *(q.denominator for q in sol.assignment),
              *(q.denominator for q in duals))

    def scaled(q):
        return q.numerator * (den // q.denominator)
    check_integer_solution(prog, sense, IntegerSolution(
        OPTIMAL, tuple(map(scaled, sol.assignment)), tuple(map(scaled, duals)),
        scaled(value), den))


def check_integer_solution(prog: IntegerProgram, sense: str, sol: IntegerSolution) -> None:
    """Exact KKT check of an optimal IntegerSolution; raises LpError.

    Checks primal feasibility, dual sign conditions, complementary
    slackness, and the strong-duality value identity, every one on ints
    times den.  Sums skip zero products: row activities run over supp(x),
    reduced costs over the rows with y_i != 0.  Messages report values
    in the caller's units.
    """
    if sol.status != OPTIMAL:
        raise LpError("check_integer_solution needs an optimal solution")
    sgn = _sense_sign(sense)
    x, y, den = sol.x, sol.y, sol.den
    cost_den = den * prog.cost_scale

    for j, v in enumerate(x):
        if v < 0:
            raise LpError(f"x[{j}] = {Fraction(v, den)} is negative")
    support = [(j, v) for j, v in enumerate(x) if v]
    for i, ((coeffs, rel, rhs), s, yi) in enumerate(zip(prog.rows, prog.row_scale, y)):
        lhs = sum(coeffs[j] * v for j, v in support if coeffs[j])
        bound = rhs * den
        if rel == "<=" and lhs > bound:
            raise LpError(f"row {i} violated: {Fraction(lhs, den * s)} > {Fraction(rhs, s)}")
        if rel == ">=" and lhs < bound:
            raise LpError(f"row {i} violated: {Fraction(lhs, den * s)} < {Fraction(rhs, s)}")
        if rel == "=" and lhs != bound:
            raise LpError(f"row {i} violated: {Fraction(lhs, den * s)} != {Fraction(rhs, s)}")
        if not yi:
            continue
        # multiplier sign: for max, <= rows take y >= 0 and >= rows y <= 0;
        # everything reverses for min
        if rel == "<=" and sgn * yi < 0:
            raise LpError(f"dual sign wrong on <= row {i}: {Fraction(s * yi, cost_den)}")
        if rel == ">=" and sgn * yi > 0:
            raise LpError(f"dual sign wrong on >= row {i}: {Fraction(s * yi, cost_den)}")
        if lhs != bound:
            raise LpError(f"complementary slackness broken on row {i}")

    value_check = sum(prog.cost[j] * v for j, v in support if prog.cost[j])
    if value_check != sol.value:
        raise LpError(f"reported value {Fraction(sol.value, cost_den)} != "
                      f"c.x = {Fraction(value_check, cost_den)}")

    active = [(yi, row) for yi, row in zip(y, prog.rows) if yi]
    dual_value = sum(yi * rhs for yi, (_, _, rhs) in active if rhs)
    # a reduced cost may only keep its variable at zero, never push it up
    for j, cj in enumerate(prog.cost):
        d = cj * den - sum(yi * coeffs[j] for yi, (coeffs, _, _) in active if coeffs[j])
        if sgn * d > 0:
            raise LpError(f"reduced cost {Fraction(d, cost_den)} on variable {j} "
                          "has no upper bound to hold it")
        if sgn * d < 0 and x[j]:
            raise LpError(f"reduced cost {Fraction(d, cost_den)} on variable {j} "
                          "needs it at zero")
    if dual_value != sol.value:
        raise LpError(f"strong duality broken: dual value {Fraction(dual_value, cost_den)} "
                      f"!= {Fraction(sol.value, cost_den)}")
