"""Independent brute-force oracles used to derive and re-check expected values.

Everything here is written directly from the defining recursions, with no
memoization, no pruning, and no shared code with the package under test.
Deliberately slow and simple; only run on tiny inputs.

Conventions: vectors are plain dicts {index: Fraction} with no zero values,
indices >= 1.  A "level" is a tuple (kind, param, theta) where kind is
"schreier" (param ignored, blocks k admissible iff k <= first index of the
first block), "card" (admissible iff k <= param) or "explicit" (param a
tuple of sorted index sets, read hereditarily: admissible iff a k-element
subset of one of them interleaves with the blocks) and theta is a
Fraction, or for interval evaluation a (lo, hi) pair of Fractions.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Vec = dict
Q = Fraction

TSIRELSON_LEVELS = (("schreier", 0, Q(1, 2)),)


def _chunkings(support: Sequence[int], k: int) -> Iterator[list[tuple[int, ...]]]:
    """All ways to cut the sorted support into k nonempty consecutive runs."""
    n = len(support)
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield [tuple(support[bounds[i]:bounds[i + 1]]) for i in range(k)]


def _branch_chunkings(support: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """All k >= 2 chunkings of every suffix of the support.

    Admissible set families need not touch every support point.  Skipping a
    prefix can matter (a low first index blocks Schreier admissibility), while
    skipped interior or trailing points could always be absorbed into a
    neighbouring block without hurting admissibility or the (monotone) value.
    """
    for start in range(len(support)):
        tail = support[start:]
        for k in range(2, len(tail) + 1):
            yield from _chunkings(tail, k)


def _admissible(kind: str, param: int, chunks: list[tuple[int, ...]]) -> bool:
    k = len(chunks)
    if kind == "schreier":
        return k <= chunks[0][0]
    if kind == "card":
        return k <= param
    if kind == "explicit":
        # param lists the sets M, read hereditarily (every subset of a
        # listed set belongs, singletons up to the largest index too); a
        # subset m interleaves with the chunks when m_1 <= min E_1 and
        # max E_(i-1) < m_i <= min E_i
        return k == 1 or any(
            m[0] <= chunks[0][0]
            and all(chunks[i - 1][-1] < m[i] <= chunks[i][0] for i in range(1, k))
            for M in param for m in itertools.combinations(sorted(M), k))
    raise ValueError(kind)


def brute_mixed_norm(x: Vec, levels=TSIRELSON_LEVELS) -> Q:
    """max(sup-norm, max over levels and admissible chunkings of theta * sum of parts)."""
    if not x:
        return Q(0)
    best = max(abs(v) for v in x.values())
    for chunks in _branch_chunkings(sorted(x)):
        for kind, param, theta in levels:
            if _admissible(kind, param, chunks):
                total = sum(brute_mixed_norm({i: x[i] for i in c}, levels)
                            for c in chunks)
                cand = theta * total
                if cand > best:
                    best = cand
    return best


def brute_block_norm(x: Vec) -> Q:
    return brute_mixed_norm(x, TSIRELSON_LEVELS)


def brute_block_norm_level(x: Vec, n: int) -> Q:
    """Approximation sequence: level 0 is the sup norm, each next level allows
    one more layer of admissible splitting with weight 1/2."""
    if not x:
        return Q(0)
    if n == 0:
        return max(abs(v) for v in x.values())
    best = brute_block_norm_level(x, n - 1)
    for chunks in _branch_chunkings(sorted(x)):
        if len(chunks) <= chunks[0][0]:
            cand = Q(1, 2) * sum(
                brute_block_norm_level({i: x[i] for i in c}, n - 1) for c in chunks)
            if cand > best:
                best = cand
    return best


def brute_rho_upper(x: Vec, n: int, levels=TSIRELSON_LEVELS) -> Q:
    """Partition-only upper recursion: level 0 is the l1 norm, each next level
    takes min over admissible chunkings of (1/theta) * max of parts, capped by
    the previous level."""
    if not x:
        return Q(0)
    if n == 0:
        return sum(abs(v) for v in x.values())
    best = brute_rho_upper(x, n - 1, levels)
    support = sorted(x)
    for k in range(2, len(support) + 1):
        for chunks in _chunkings(support, k):
            for kind, param, theta in levels:
                if _admissible(kind, param, chunks):
                    cand = (1 / theta) * max(
                        brute_rho_upper({i: x[i] for i in c}, n - 1, levels)
                        for c in chunks)
                    if cand < best:
                        best = cand
    return best


def brute_sigma(x: Vec, levels=TSIRELSON_LEVELS) -> Q:
    """l1-variant of the implicit recursion: min(l1, min over admissible
    chunkings of (1/theta) * max of parts).  Well founded because chunks with
    k >= 2 have strictly smaller support."""
    if not x:
        return Q(0)
    best = sum(abs(v) for v in x.values())
    support = sorted(x)
    for k in range(2, len(support) + 1):
        for chunks in _chunkings(support, k):
            for kind, param, theta in levels:
                if _admissible(kind, param, chunks):
                    cand = (1 / theta) * max(
                        brute_sigma({i: x[i] for i in c}, levels) for c in chunks)
                    if cand < best:
                        best = cand
    return best


def reference_falsify(sigma, N: int, G: Sequence, cap: int) -> tuple:
    """The l1-variant falsifier's search, one sigma call per distinct |x|
    of a vector or pair sum: sigma(x, cap) -> (value, converged) for a
    vector dict x.  Vectors with support in [1, N] and entries from G are
    visited in sorted order of their integer-scaled dense tuples, then
    every unordered pair (x, y), y not before x; a capped vector or sum
    is a cap hit, and the first sum with sigma(x + y) > sigma(x) +
    sigma(y) ends the search.

    Returns (status, pairs checked, cap hits, witness), the witness None
    or (x, y, sigma x, sigma y, sigma x + y)."""
    values = sorted({Q(g) for g in G} - {Q(0)})
    denom = math.lcm(*(v.denominator for v in values))
    scaled = sorted(int(v * denom) for v in values)
    vectors = sorted(c for c in itertools.product([0] + scaled, repeat=N) if any(c))

    def to_dict(dense):
        return {i + 1: Q(c, denom) for i, c in enumerate(dense) if c}

    memo = {}

    def sigma_dense(dense):
        key = tuple(abs(c) for c in dense)
        if key not in memo:
            memo[key] = sigma(to_dict(dense), cap)
        return memo[key]

    usable = []
    cap_hits = 0
    for dense in vectors:
        value, converged = sigma_dense(dense)
        if converged:
            usable.append((dense, value))
        else:
            cap_hits += 1
    pairs = 0
    for a, (x, sx) in enumerate(usable):
        for y, sy in usable[a:]:
            ssum, converged = sigma_dense(tuple(p + q for p, q in zip(x, y)))
            if not converged:
                cap_hits += 1
                continue
            pairs += 1
            if ssum > sx + sy:
                return "counterexample", pairs, cap_hits, (to_dict(x), to_dict(y), sx, sy, ssum)
    return "exhausted", pairs, cap_hits, None


# ---------------------------------------------------------------------------
# raw functional sets (literal set recursion, no pruning)

def brute_raw_functionals(levels, window: Sequence[int], generations: int) -> set:
    """Literal set recursion: start from +-unit functionals on the window, then
    `generations` times add theta * (f1 + ... + fk) over admissible successive
    tuples (k >= 1 allowed).  Functionals are frozensets of (index, coeff)."""
    window = sorted(window)
    current: set = set()
    for i in window:
        current.add(frozenset({(i, Q(1))}))
        current.add(frozenset({(i, Q(-1))}))
    for _ in range(generations):
        listing = sorted(current, key=lambda f: (min(i for i, _ in f), sorted(f)))
        new = set(current)

        def extend(tuples_so_far, last_max):
            k = len(tuples_so_far)
            if k >= 1:
                chunks = [tuple(sorted(i for i, _ in f)) for f in tuples_so_far]
                for kind, param, theta in levels:
                    if _admissible(kind, param, chunks):
                        combined = {}
                        for f in tuples_so_far:
                            for i, c in f:
                                combined[i] = theta * c
                        new.add(frozenset(combined.items()))
            if k == len(window):
                return
            for f in listing:
                lo = min(i for i, _ in f)
                hi = max(i for i, _ in f)
                if lo > last_max:
                    extend(tuples_so_far + [f], hi)

        extend([], 0)
        if new == current:
            break
        current = new
    return current


def reference_closure(levels, indices: Sequence[int], include_singletons: bool,
                      max_rounds: Optional[int] = None) -> tuple:
    """The bundling closure over nonnegative representatives, round by
    round, walking every successive tuple of the functionals known so far.

    Each round enumerates the tuples depth first, parts in sorted key
    order, and bundles, level by level, every admissible tuple of two or
    more parts (one or more with include_singletons) that holds a part
    built in the previous round; a functional keeps the first tree that
    built it.  Keys are sorted tuples of (index, Fraction); trees are
    ("e", i) for a unit and (level position, child trees...) for a bundle.

    Returns (F, rounds, fixpoint, unit): F in insertion order, the rounds
    that built a key, whether a round built nothing, and den**depth for
    den the lcm of the weights' denominators, where depth is one less
    than the index count without one-part bundles, and with them starts
    at 0 and grows by max(depth, 1) whenever a round starts with as many
    rounds built as depth.
    """
    window = sorted(indices)
    den = math.lcm(*(theta.denominator for _, _, theta in levels))
    depth = 0 if include_singletons else len(window) - 1
    min_parts = 1 if include_singletons else 2
    F = {((i, Q(1)),): ("e", i) for i in window}
    frontier = set(F)
    rounds, fixpoint = 0, False
    while max_rounds is None or rounds < max_rounds:
        if include_singletons and rounds == depth:
            depth += max(depth, 1)
        listing = sorted(F)
        new: dict = {}

        def extend(parts, last_max):
            if len(parts) >= min_parts and any(p in frontier for p in parts):
                chunks = [tuple(i for i, _ in p) for p in parts]
                for pos, (kind, param, theta) in enumerate(levels):
                    if _admissible(kind, param, chunks):
                        key = tuple((i, theta * c) for p in parts for i, c in p)
                        if key not in F and key not in new:
                            new[key] = (pos,) + tuple(F[p] for p in parts)
            if len(parts) == len(window):
                return
            for f in listing:
                if f[0][0] > last_max:
                    extend(parts + [f], f[-1][0])

        extend([], 0)
        if not new:
            fixpoint = True
            break
        F.update(new)
        rounds += 1
        frontier = set(new)
    return F, rounds, fixpoint, den ** depth


def brute_tau(functionals: Iterable, x: Vec) -> Q:
    best = Q(0)
    for f in functionals:
        val = sum(c * x.get(i, Q(0)) for i, c in f)
        if val > best:
            best = val
    return best


# ---------------------------------------------------------------------------
# exact linear programming by vertex enumeration (all variables >= 0)

def _gauss_solve(rows: list[list[Q]], rhs: list[Q]) -> Optional[list[Q]]:
    """Solve a square exact system; None if singular."""
    n = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def oracle_lp_solve(
    sense: str,
    objective: Sequence[Q],
    rows: Sequence[tuple[Sequence[Q], str, Q]],
) -> tuple[str, Optional[Q], Optional[list[Q]]]:
    """Solve max/min c.x subject to rows (coeffs, relation, rhs) and x >= 0 by
    enumerating basic points.  Returns (status, value, argpoint).

    Feasible region is pointed (x >= 0), so: no feasible vertex means
    infeasible; unboundedness is decided by enumerating the recession
    directions with c.d normalized to 1.
    """
    n = len(objective)
    sign = 1 if sense == "max" else -1

    def vertices(ineqs: list[tuple[list[Q], Q]], eqs: list[tuple[list[Q], Q]]):
        # every n-subset of all rows is tried as a candidate active set; the
        # feasibility filter below enforces the equality rows regardless, so
        # linearly dependent equality rows cannot hide a vertex
        seen = set()
        pool = ineqs + eqs
        found = []
        for combo in itertools.combinations(range(len(pool)), n):
            mat = [pool[i][0] for i in combo]
            rhs = [pool[i][1] for i in combo]
            pt = _gauss_solve(mat, rhs)
            if pt is None:
                continue
            if all(sum(a * v for a, v in zip(coeffs, pt)) <= b for coeffs, b in ineqs) and \
               all(sum(a * v for a, v in zip(coeffs, pt)) == b for coeffs, b in eqs):
                key = tuple(pt)
                if key not in seen:
                    seen.add(key)
                    found.append(pt)
        return found

    # constraint pools in <= / == form, plus x >= 0 as -x_i <= 0
    ineqs: list[tuple[list[Q], Q]] = []
    eqs: list[tuple[list[Q], Q]] = []
    for coeffs, rel, rhs in rows:
        coeffs = list(coeffs)
        if rel == "<=":
            ineqs.append((coeffs, rhs))
        elif rel == ">=":
            ineqs.append(([-c for c in coeffs], -rhs))
        elif rel == "=":
            eqs.append((coeffs, rhs))
        else:
            raise ValueError(rel)
    for i in range(n):
        ineqs.append(([Q(0)] * i + [Q(-1)] + [Q(0)] * (n - i - 1), Q(0)))

    feas = vertices(ineqs, eqs)
    if not feas:
        return "infeasible", None, None

    # recession directions with objective progress normalized to 1
    dir_ineqs: list[tuple[list[Q], Q]] = []
    dir_eqs: list[tuple[list[Q], Q]] = []
    for coeffs, rel, rhs in rows:
        coeffs = list(coeffs)
        if rel == "<=":
            dir_ineqs.append((coeffs, Q(0)))
        elif rel == ">=":
            dir_ineqs.append(([-c for c in coeffs], Q(0)))
        else:
            dir_eqs.append((coeffs, Q(0)))
    for i in range(n):
        dir_ineqs.append(([Q(0)] * i + [Q(-1)] + [Q(0)] * (n - i - 1), Q(0)))
    dir_eqs.append(([sign * c for c in objective], Q(1)))
    if vertices(dir_ineqs, dir_eqs):
        return "unbounded", None, None

    best = None
    best_pt = None
    for pt in feas:
        val = sum(c * v for c, v in zip(objective, pt))
        if best is None or sign * val > sign * best:
            best, best_pt = val, pt
    return "optimal", best, best_pt


# ---------------------------------------------------------------------------
# reference simplex tableau: same interface as tsinorm.lp._Tableau

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LpError(Exception):
    """An inconsistency inside the reference tableau."""


class FractionTableau:
    """Dense simplex tableau in the z_j - c_j convention, over Fraction.

    The package's solver before its fraction-free kernel, kept unchanged
    as the reference: `tsinorm.lp` must take the same pivots and return
    the same optimum when this class stands in for `lp._Tableau`.

    Columns: structural, then one slack/surplus per row that needs it,
    then one artificial per =/>= row.  Each input row keeps a pointer to
    its initial unit column so duals can be read from the final objective
    row.  Artificial columns are never allowed to re-enter.
    """

    def __init__(self, nstruct, rows):
        self.nstruct = nstruct
        self.flip = []
        matrix = []
        rhs = []
        rels = []
        for coeffs, rel, b in rows:
            if b < 0:
                coeffs = [-a for a in coeffs]
                b = -b
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                self.flip.append(True)
            else:
                self.flip.append(False)
            matrix.append(list(coeffs))
            rhs.append(b)
            rels.append(rel)
        m = len(matrix)
        self.m = m
        self.unit_col = [None] * m   # the column whose reduced cost is this row's dual
        self.artificial = set()
        basis = [None] * m
        ncols = nstruct
        for r, rel in enumerate(rels):
            if rel == "<=":
                self._append_column(matrix, r, Fraction(1))
                self.unit_col[r] = ncols
                basis[r] = ncols
                ncols += 1
            elif rel == ">=":
                self._append_column(matrix, r, Fraction(-1))
                ncols += 1
        for r, rel in enumerate(rels):
            if rel in ("=", ">="):
                self._append_column(matrix, r, Fraction(1))
                self.unit_col[r] = ncols
                self.artificial.add(ncols)
                basis[r] = ncols
                ncols += 1
        self.T = matrix
        self.b = rhs
        self.basis = basis
        self.ncols = ncols
        self.obj = None
        self.deleted = [False] * m

    @staticmethod
    def _append_column(matrix, row, value):
        for r, line in enumerate(matrix):
            line.append(value if r == row else Fraction(0))

    def _pivot(self, r, j):
        T, b, obj = self.T, self.b, self.obj
        piv = T[r][j]
        inv = 1 / piv
        T[r] = [a * inv for a in T[r]]
        b[r] *= inv
        prow = T[r]
        brow = b[r]
        for r2 in range(self.m):
            if r2 == r or self.deleted[r2]:
                continue
            f = T[r2][j]
            if f:
                line = T[r2]
                T[r2] = [a - f * p for a, p in zip(line, prow)]
                b[r2] -= f * brow
        f = obj[j]
        if f:
            self.obj = [a - f * p for a, p in zip(obj, prow)]
            self.objval -= f * brow
        self.basis[r] = j

    def _run(self, banned):
        # Bland: entering = lowest-index improving column, leaving = lowest
        # basis index among minimum ratios.  Guarantees termination.
        while True:
            enter = -1
            for j in range(self.ncols):
                if j in banned:
                    continue
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for r in range(self.m):
                if self.deleted[r]:
                    continue
                a = self.T[r][enter]
                if a > 0:
                    ratio = self.b[r] / a
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[r] < self.basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _set_objective(self, c):
        # rebuild the z_j - c_j row for cost vector c over the current basis
        obj = [-cj for cj in c] + [Fraction(0)] * (self.ncols - len(c))
        objval = Fraction(0)
        for r in range(self.m):
            if self.deleted[r]:
                continue
            cb = c[self.basis[r]] if self.basis[r] < len(c) else Fraction(0)
            if cb:
                row = self.T[r]
                obj = [a + cb * t for a, t in zip(obj, row)]
                objval += cb * self.b[r]
        self.obj = obj
        self.objval = objval

    def phase1(self) -> bool:
        cost = [Fraction(0)] * self.ncols
        for j in self.artificial:
            cost[j] = Fraction(-1)
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
        cost = list(c) + [Fraction(0)] * (self.ncols - len(c))
        self._set_objective(cost)
        return self._run(banned=frozenset(self.artificial))

    def column_values(self):
        vals = [Fraction(0)] * self.ncols
        for r in range(self.m):
            if not self.deleted[r]:
                vals[self.basis[r]] = self.b[r]
        return vals

    def row_dual(self, r) -> Fraction:
        # The reduced cost of row r's initial unit column equals y_r because
        # that column is zero-cost and carried the identity at the start.
        # Deleted rows were redundant; zero is a valid multiplier for them.
        if self.deleted[r]:
            return Fraction(0)
        if self.unit_col[r] is None:
            raise LpError("row lost its unit column")
        y = self.obj[self.unit_col[r]]
        return -y if self.flip[r] else y


# ---------------------------------------------------------------------------
# dual norm oracle: ball maximization over a generation-capped functional set,
# certified from below by the brute primal recursion.

def oracle_dual_norm(x: Vec, levels=TSIRELSON_LEVELS, generations: int = 3) -> Q:
    """Certified dual norm for tiny vectors.

    Upper bound: max <|x|, y> over y >= 0 with <a, y> <= 1 for every nonneg
    functional a supported inside supp(x) (fewer constraints than the full
    set, so the optimum can only be too large).  Lower bound: the optimal y is
    fed back through the brute primal recursion; brute_norm(y) <= 1 proves the
    pairing is attainable.  The two meeting certifies the exact value.
    """
    if not x:
        return Q(0)
    support = sorted(x)
    raw = brute_raw_functionals(levels, support, generations)
    nonneg = []
    seen = set()
    for f in raw:
        if all(c > 0 for _, c in f):
            d = dict(f)
            key = tuple(sorted(d.items()))
            if key not in seen:
                seen.add(key)
                nonneg.append(d)
    # a row coordinatewise below another is implied by it on y >= 0;
    # dropping such rows leaves the feasible set untouched and keeps the
    # vertex enumeration below tractable
    nonneg = [a for a in nonneg
              if not any(b is not a and
                         all(b.get(i, Q(0)) >= v for i, v in a.items())
                         for b in nonneg)]
    xabs = {i: abs(v) for i, v in x.items()}
    rows = []
    for a in nonneg:
        rows.append(([a.get(i, Q(0)) for i in support], "<=", Q(1)))
    status, value, point = oracle_lp_solve(
        "max", [xabs[i] for i in support], rows)
    assert status == "optimal", status
    y = {i: v for i, v in zip(support, point) if v != 0}
    assert brute_block_norm(y) <= 1 if levels == TSIRELSON_LEVELS else \
        brute_mixed_norm(y, levels) <= 1, "ball witness escaped the unit ball"
    assert sum(xabs[i] * y.get(i, Q(0)) for i in support) == value
    return value


# ---------------------------------------------------------------------------
# integer-power checks for logarithm bounds

def log2_between(m: int, lo: Q, hi: Q) -> bool:
    """Exact check that lo <= log2(m) <= hi using only integer powers."""
    # lo = p/q <= log2 m  <=>  2^p <= m^q   (q > 0)
    ok_lo = 2 ** lo.numerator <= m ** lo.denominator if lo.numerator >= 0 else True
    ok_hi = m ** hi.denominator <= 2 ** hi.numerator
    return ok_lo and ok_hi


def brute_mixed_norm_interval(x: Vec, levels) -> tuple[Q, Q]:
    """Interval version for levels whose theta is a (lo, hi) Fraction pair.
    Max over branches is taken as the hull, which soundly encloses the norm."""
    if not x:
        return (Q(0), Q(0))
    sup = max(abs(v) for v in x.values())
    lo_best, hi_best = sup, sup
    for chunks in _branch_chunkings(sorted(x)):
        for kind, param, theta in levels:
            if _admissible(kind, param, chunks):
                    tl, th = theta
                    plo = sum(brute_mixed_norm_interval({i: x[i] for i in c}, levels)[0]
                              for c in chunks)
                    phi = sum(brute_mixed_norm_interval({i: x[i] for i in c}, levels)[1]
                              for c in chunks)
                    clo, chi = tl * plo, th * phi
                    if clo > lo_best:
                        lo_best = clo
                    if chi > hi_best:
                        hi_best = chi
    return (lo_best, hi_best)


# ---------------------------------------------------------------------------
# the memoised top-down recursion that the bottom-up window pass replaced

class Undecided(Exception):
    """Two interval branch values overlap without being identical."""


def _iv_mul(a: tuple, b: tuple) -> tuple:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _iv_improves(cand: tuple, incumbent: tuple) -> bool:
    """Certified strict cand > incumbent; identical enclosures tie."""
    if incumbent[1] < cand[0]:
        return True
    if incumbent[0] >= cand[1]:
        return False
    if cand == incumbent:
        return False
    raise Undecided("cannot order branch values "
                    f"[{incumbent[0]}, {incumbent[1]}] and [{cand[0]}, {cand[1]}]")


def memo_mixed_norm(x: Vec, levels) -> tuple:
    """Norm of x by the memoised top-down recursion over sub-windows of
    |x|: each window keeps its sup value unless a cover of one of its
    suffixes by k >= 2 sub-windows strictly beats it.  Candidates are
    tried by level, start, block count, then cut positions, and the first
    optimum is kept.  Schreier and card levels with rational weights read
    a per-window table of best suffix covers; explicit levels, and every
    level when the weights are (lo, hi) pairs, are enumerated, and
    interval candidates are compared by _iv_improves, so the first
    undecided comparison in evaluation order raises Undecided.

    Returns (value, witness); a witness is ("leaf", index) (index None for
    the zero vector) or ("split", level position, theta, blocks, children)
    with children (value, witness) pairs.  Interval values are (lo, hi).
    """
    interval = any(isinstance(theta, tuple) for _, _, theta in levels)
    entries = tuple(sorted((i, abs(c)) for i, c in x.items()))
    return _memo_window(entries, tuple(levels), {}, interval)


def _memo_window(entries: tuple, levels: tuple, memo: dict, interval: bool) -> tuple:
    if entries in memo:
        return memo[entries]
    if not entries:
        zero = (Q(0), Q(0)) if interval else Q(0)
        return memo.setdefault(entries, (zero, ("leaf", None)))
    m = len(entries)
    sup = max(c for _, c in entries)
    best = (sup, sup) if interval else sup
    won = None
    values: dict = {}

    def part(a: int, b: int):
        if (a, b) not in values:
            values[(a, b)] = _memo_window(entries[a:b], levels, memo, interval)[0]
        return values[(a, b)]

    bound = {"schreier": lambda param, first: first, "card": lambda param, first: param}
    caps = [None if interval or kind not in bound
            else [min(m - s, bound[kind](param, entries[s][0])) for s in range(m)]
            for kind, param, _ in levels]
    kcap = max((c for cs in caps if cs is not None for c in cs), default=0)
    if m >= 2 and kcap >= 2:
        table, cut = _memo_suffix_table(m, kcap, part)
    for pos, ((kind, param, theta), cs) in enumerate(zip(levels, caps)):
        if m < 2:
            break
        if cs is None:
            for s in range(m):
                n = m - s
                for k in range(2, n + 1):
                    for cuts in itertools.combinations(range(s + 1, m), k - 1):
                        bounds = (s,) + cuts + (m,)
                        chunks = [tuple(i for i, _ in entries[a:b])
                                  for a, b in zip(bounds, bounds[1:])]
                        if not _admissible(kind, param, chunks):
                            continue
                        parts = [part(a, b) for a, b in zip(bounds, bounds[1:])]
                        if interval:
                            total = (sum(p[0] for p in parts), sum(p[1] for p in parts))
                            cand = _iv_mul(theta, total)
                            better = _iv_improves(cand, best)
                        else:
                            cand = theta * sum(parts)
                            better = cand > best
                        if better:
                            best, won = cand, (pos, bounds)
            continue
        for s in range(m):
            for k in range(2, cs[s] + 1):
                cand = theta * table[k][s]
                if cand > best:
                    bounds = [s]
                    for j in range(k, 1, -1):
                        bounds.append(cut[j][bounds[-1]])
                    best, won = cand, (pos, tuple(bounds) + (m,))
    if won is None:
        witness = ("leaf", next(i for i, c in entries if c == sup))
    else:
        pos, bounds = won
        segments = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
        witness = ("split", pos, levels[pos][2],
                   tuple(tuple(i for i, _ in seg) for seg in segments),
                   tuple(_memo_window(seg, levels, memo, interval) for seg in segments))
    return memo.setdefault(entries, (best, witness))


def _memo_suffix_table(m: int, kcap: int, part):
    """best[j][a]: the largest sum over covers of the window's suffix
    [a, m) by exactly j slices; cut[j][a] the smallest first cut of an
    optimiser.  Row 1 starts at 1: the window is not its own slice."""
    best = {1: [None] + [part(a, m) for a in range(1, m)]}
    cut = {}
    for j in range(2, kcap + 1):
        best[j], cut[j] = [None] * m, [None] * m
        for a in range(m - j + 1):
            for c in range(a + 1, m - j + 2):
                v = part(a, c) + best[j - 1][c]
                if best[j][a] is None or v > best[j][a]:
                    best[j][a], cut[j][a] = v, c
    return best, cut
