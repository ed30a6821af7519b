"""Exact rational linear programming over x >= 0.

Rows are <=, = or >= constraints with any rational right-hand side; every
variable is nonnegative and has no upper bound.  Two-phase primal simplex
with Bland's rule, so termination is guaranteed and every optimum is
exact.  Dual multipliers are read off the final tableau from each row's
initial unit column, and every optimal result is KKT-verified in
Fraction arithmetic before being returned.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968; as in exact LP
solvers such as QSopt_ex): each row is scaled to integers, and every
entry is stored as d times its true value, an integer, where d is the
absolute determinant of the current basis.  A pivot does integer products
and one exact division per entry, where Fraction arithmetic would take a
gcd per operation.  The scalings are positive, so every reduced-cost sign
and every ratio order is the one the Fraction tableau would see.  Bland's
rule therefore takes the same pivots and ends at the same vertex with the
same duals, which keeps ball vectors and certificates unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .core import TsinormError, as_scalar

RELATIONS = ("<=", "=", ">=")

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


def solve(lp: LinearProgram, sense: str = "max") -> LpSolution:
    """Exact optimum with a verified dual certificate.

    Statuses infeasible/unbounded are results, not errors.  An optimal
    solution that fails the exact KKT check raises LpError; that cannot
    happen short of a solver bug.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    sol = _solve_max(lp) if sense == "max" else _negate(_solve_max(_flip_objective(lp)))
    if sol.status == OPTIMAL:
        verify_solution(lp, sense, sol)
    return sol


def _flip_objective(lp: LinearProgram) -> LinearProgram:
    return LinearProgram(tuple(-c for c in lp.objective), lp.constraints)


def _negate(sol: LpSolution) -> LpSolution:
    if sol.status != OPTIMAL:
        return sol
    return LpSolution(OPTIMAL, -sol.value, sol.assignment,
                      tuple(-y for y in sol.duals))


def _solve_max(lp: LinearProgram):
    n = len(lp.objective)
    tab = _Tableau(n, [(con.coeffs, con.relation, con.rhs) for con in lp.constraints])
    if not tab.phase1():
        return LpSolution(INFEASIBLE)
    if tab.phase2(lp.objective) == UNBOUNDED:
        return LpSolution(UNBOUNDED)
    assignment = tuple(tab.column_values()[:n])
    duals = tuple(tab.row_dual(r) for r in range(len(lp.constraints)))
    value = sum((c * x for c, x in zip(lp.objective, assignment) if c and x), Fraction(0))
    return LpSolution(OPTIMAL, value, assignment, duals)


class _Tableau:
    """Fraction-free simplex tableau in the z_j - c_j convention.

    Columns: structural, then one slack/surplus per row that needs it,
    then one artificial per =/>= row.  Each input row keeps a pointer to
    its initial unit column so duals can be read from the final objective
    row.  Artificial columns are never allowed to re-enter.

    Row r is multiplied by scale[r], the lcm of its denominators, and its
    slack, surplus and artificial columns are divided by scale[r], so every
    entry is an integer and the starting basis is the identity.  Costs are
    multiplied by the lcm of theirs.  Every stored entry, the objective row
    included, is d times the true tableau entry, where d > 0 is the
    absolute determinant of the current basis.  A pivot on (r, j) is the
    Bareiss update (p*a - f*q) // d with p the pivot entry; the division
    is exact and d becomes |p|.  All of these scalings are positive, so
    every reduced-cost sign and every ratio order is the true one, and
    Bland's rule takes the pivots of the plain Fraction tableau.
    """

    def __init__(self, nstruct, rows):
        self.nstruct = nstruct
        self.flip = []
        self.scale = []
        matrix = []
        rhs = []
        rels = []
        for coeffs, rel, b in rows:
            sign = 1
            if b < 0:
                sign = -1
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            self.flip.append(sign < 0)
            s = lcm(b.denominator, *(a.denominator for a in coeffs))
            matrix.append([sign * a.numerator * (s // a.denominator) for a in coeffs])
            rhs.append(sign * b.numerator * (s // b.denominator))
            rels.append(rel)
            self.scale.append(s)
        m = len(matrix)
        self.m = m
        self.unit_col = [None] * m   # the column whose reduced cost is this row's dual
        self.artificial = set()
        basis = [None] * m
        extra = [[] for _ in range(m)]   # (column, entry) past the structural ones
        ncols = nstruct
        for r, rel in enumerate(rels):
            if rel == "<=":
                extra[r].append((ncols, 1))
                self.unit_col[r] = ncols
                basis[r] = ncols
                ncols += 1
            elif rel == ">=":
                extra[r].append((ncols, -1))
                ncols += 1
        for r, rel in enumerate(rels):
            if rel in ("=", ">="):
                extra[r].append((ncols, 1))
                self.unit_col[r] = ncols
                self.artificial.add(ncols)
                basis[r] = ncols
                ncols += 1
        for line, cells in zip(matrix, extra):
            line.extend([0] * (ncols - nstruct))
            for col, value in cells:
                line[col] = value
        self.T = matrix
        self.b = rhs
        self.d = 1
        self.basis = basis
        self.ncols = ncols
        self.obj = None
        self.cost_scale = 1
        self.deleted = [False] * m

    def _pivot(self, r, j):
        T, b, d = self.T, self.b, self.d
        prow, brow = T[r], b[r]
        p = prow[j]
        if p < 0:
            # keep d positive: store the pivot row negated, which negates
            # every row the update below produces
            prow = T[r] = [-q for q in prow]
            brow = b[r] = -brow
            p = -p
        for r2 in range(self.m):
            if r2 == r or self.deleted[r2]:
                continue
            line = T[r2]
            f = line[j]
            if f:
                T[r2] = [(p * a - f * q) // d for a, q in zip(line, prow)]
                b[r2] = (p * b[r2] - f * brow) // d
            elif p != d:
                T[r2] = [p * a // d for a in line]
                b[r2] = p * b[r2] // d
        f = self.obj[j]
        self.obj = [(p * a - f * q) // d for a, q in zip(self.obj, prow)]
        self.objval = (p * self.objval - f * brow) // d
        self.d = p
        self.basis[r] = j

    def _run(self, banned):
        # Bland: entering = lowest-index improving column, leaving = lowest
        # basis index among minimum ratios.  Guarantees termination.  With
        # d > 0, b[r] / a < b[best] / a_best iff b[r] * a_best < b[best] * a
        # for a, a_best > 0.
        T, b = self.T, self.b
        while True:
            obj = self.obj
            enter = -1
            for j in range(self.ncols):
                if obj[j] < 0 and j not in banned:
                    enter = j
                    break
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
        # rebuild the z_j - c_j row, times d, for integer costs over the
        # current basis
        d = self.d
        obj = [-d * c for c in cost]
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

    def phase1(self) -> bool:
        # maximize minus the sum of the artificials, in the scaled columns
        # where row r's artificial counts 1/scale[r] of the original one
        art_rows = [r for r in range(self.m) if self.unit_col[r] in self.artificial]
        self.cost_scale = lcm(*(self.scale[r] for r in art_rows))
        cost = [0] * self.ncols
        for r in art_rows:
            cost[self.unit_col[r]] = -(self.cost_scale // self.scale[r])
        self._set_objective(cost)
        status = self._run(banned=frozenset())
        if status != OPTIMAL or self.objval != 0:
            return False
        # Remove artificials from the basis: pivot them out where the row
        # still carries structural content, delete the row where it does not
        # (the constraint was linearly dependent).
        for r in range(self.m):
            if self.deleted[r] or self.basis[r] not in self.artificial:
                continue
            pivot_col = next((j for j in range(self.ncols)
                              if j not in self.artificial and self.T[r][j] != 0), None)
            if pivot_col is None:
                self.deleted[r] = True
            else:
                self._pivot(r, pivot_col)
        return True

    def phase2(self, c) -> str:
        self.cost_scale = lcm(*(cj.denominator for cj in c))
        cost = [cj.numerator * (self.cost_scale // cj.denominator) for cj in c]
        self._set_objective(cost + [0] * (self.ncols - len(c)))
        return self._run(banned=frozenset(self.artificial))

    def column_values(self):
        """Values of the structural columns at the current basis."""
        vals = [Fraction(0)] * self.nstruct
        for r in range(self.m):
            if not self.deleted[r] and self.basis[r] < self.nstruct:
                vals[self.basis[r]] = Fraction(self.b[r], self.d)
        return vals

    def row_dual(self, r) -> Fraction:
        # The reduced cost of row r's initial unit column equals y_r because
        # that column is zero-cost and carried the identity at the start.
        # The stored column is the original one divided by scale[r], so its
        # reduced cost is y_r / scale[r], times d and the cost scale.
        # Deleted rows were redundant; zero is a valid multiplier for them.
        if self.deleted[r]:
            return Fraction(0)
        if self.unit_col[r] is None:
            raise LpError("row lost its unit column")
        y = Fraction(self.obj[self.unit_col[r]] * self.scale[r],
                     self.d * self.cost_scale)
        return -y if self.flip[r] else y


def verify_solution(lp: LinearProgram, sense: str, sol: LpSolution) -> None:
    """Exact KKT check of an optimal solution; raises LpError on failure.

    Checks primal feasibility, dual sign conditions, complementary
    slackness, and the strong-duality value identity.  Sums skip zero
    products: row activities run over supp(x), reduced costs over the
    rows with y_i != 0.
    """
    if sol.status != OPTIMAL:
        raise LpError("verify_solution needs an optimal solution")
    x = sol.assignment
    y = sol.duals
    sgn = 1 if sense == "max" else -1

    for j, v in enumerate(x):
        if v < 0:
            raise LpError(f"x[{j}] = {v} is negative")
    support = [(j, v) for j, v in enumerate(x) if v]
    for i, con in enumerate(lp.constraints):
        coeffs = con.coeffs
        lhs = sum(coeffs[j] * v for j, v in support if coeffs[j])
        if con.relation == "<=" and lhs > con.rhs:
            raise LpError(f"row {i} violated: {lhs} > {con.rhs}")
        if con.relation == ">=" and lhs < con.rhs:
            raise LpError(f"row {i} violated: {lhs} < {con.rhs}")
        if con.relation == "=" and lhs != con.rhs:
            raise LpError(f"row {i} violated: {lhs} != {con.rhs}")
        if not y[i]:
            continue
        # multiplier sign: for max, <= rows take y >= 0 and >= rows y <= 0;
        # everything reverses for min
        if con.relation == "<=" and sgn * y[i] < 0:
            raise LpError(f"dual sign wrong on <= row {i}: {y[i]}")
        if con.relation == ">=" and sgn * y[i] > 0:
            raise LpError(f"dual sign wrong on >= row {i}: {y[i]}")
        if lhs != con.rhs:
            raise LpError(f"complementary slackness broken on row {i}")

    value_check = sum(lp.objective[j] * v for j, v in support if lp.objective[j])
    if value_check != sol.value:
        raise LpError(f"reported value {sol.value} != c.x = {value_check}")

    active = [(yi, con) for yi, con in zip(y, lp.constraints) if yi]
    dual_value = sum(yi * con.rhs for yi, con in active if con.rhs)
    # a reduced cost may only keep its variable at zero, never push it up
    for j, cj in enumerate(lp.objective):
        d = cj - sum(yi * con.coeffs[j] for yi, con in active if con.coeffs[j])
        if sgn * d > 0:
            raise LpError(f"reduced cost {d} on variable {j} has no upper bound to hold it")
        if sgn * d < 0 and x[j]:
            raise LpError(f"reduced cost {d} on variable {j} needs it at zero")
    if dual_value != sol.value:
        raise LpError(f"strong duality broken: dual value {dual_value} != {sol.value}")
