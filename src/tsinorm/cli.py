"""Command-line front end.

Subcommands: norm (evaluate one vector), table (growth CSV), check
(property suites), norming-set (build and export), certify (write or
re-check a dual-norm certificate document).

Exit codes: 0 success, 1 property violation or failed verification,
2 usage error, 3 budget or precision exhaustion.  All output is
deterministic given the command line, the config, and the seed;
rationals print as p/q and decimals are 20-significant-digit renderings
that always accompany an exact value, never replace it.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction as Q

from .core import (
    DEFAULT_NORMING_BUDGET,
    BudgetExceededError,
    FinVec,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    VectorParseError,
    as_scalar,
    ell1_norm,
    format_scalar,
    format_vector,
    parse_vector,
    scalar_to_decimal,
    sup_norm,
)
from .families import (
    PRESETS,
    MixedSpaceSpec,
    spec_from_config,
)
from .norming import _maximal_patterns, build_norming_set, export_norming_set
from .primal import fj_norm, mixed_norm
from . import dualnorm
from .dualnorm import (
    dual_norm,
    dual_norm_bounds,
    dual_norm_value,
    export_dual_certificate,
    falsify_ell1_variant,
    import_dual_certificate,
    verify_dual_certificate,
    verify_implicit_equation,
    _witness_sexpr,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GRID_ENTRIES = (Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2))


class UsageError(Exception):
    pass


def _load_space(ref: str) -> MixedSpaceSpec:
    maker = PRESETS.get(ref)
    if maker is not None:
        return maker()
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read space config {ref!r}: {exc}") from None
        try:
            return spec_from_config(doc)
        except TsinormError as exc:
            raise UsageError(str(exc)) from None
    presets = ", ".join(sorted(PRESETS))
    raise UsageError(
        f"unknown space {ref!r}: not a preset ({presets}) and not a config file")


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        value = args.budget
    else:
        env = os.environ.get("TSINORM_BUDGET")
        if env is None:
            return DEFAULT_NORMING_BUDGET
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"TSINORM_BUDGET must be an integer, got {env!r}") from None
    if value < 1:
        raise UsageError(f"budget must be positive, got {value}")
    return value


def _decimal(q: Q) -> str:
    return scalar_to_decimal(q, 20)


def _value_json(value):
    if isinstance(value, IntervalScalar):
        return {"lo": format_scalar(value.lo), "hi": format_scalar(value.hi),
                "lo_decimal": _decimal(value.lo), "hi_decimal": _decimal(value.hi)}
    return format_scalar(value)


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# norm

def cmd_norm(args) -> int:
    spec = _load_space(args.space)
    x = parse_vector(args.vector)
    certificate = None
    if args.kind == "fj":
        if args.space != "tsirelson":
            raise UsageError("fj is the tsirelson primal norm; "
                             "use 'mixed' to evaluate other spaces")
        value, certificate = fj_norm(x)
    elif args.kind == "mixed":
        try:
            value, certificate = mixed_norm(
                spec, x, precision=args.precision, precision_cap=args.precision_cap)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif args.kind == "dual":
        if spec.has_symbolic_theta:
            raise UsageError(
                "dual needs rational weights at every level; "
                "use dual-bounds for an enclosure")
        value, certificate = dual_norm(spec, x, _budget(args))
    else:  # dual-bounds
        if args.certify:
            raise UsageError("dual-bounds emits an enclosure, not a certificate")
        try:
            value = dual_norm_bounds(spec, x, args.precision, _budget(args))
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    cert_fields = None
    if args.certify and certificate is not None:
        if args.kind == "dual":
            cert_fields = dualnorm._certificate_fields(certificate)
        else:
            if isinstance(certificate.value, IntervalScalar):
                raise UsageError(
                    "--certify needs rational weights; interval witnesses "
                    "have no text form")
            cert_fields = {
                "value": format_scalar(certificate.value),
                "witness": _witness_sexpr(certificate.witness),
            }

    if args.format == "json":
        doc = {
            "command": "norm",
            "kind": args.kind,
            "space": spec.name,
            "vector": format_vector(x),
            "value": _value_json(value),
        }
        if not isinstance(value, IntervalScalar):
            doc["decimal"] = _decimal(value)
        if cert_fields is not None:
            doc["certificate"] = cert_fields
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [str(value)]
        if cert_fields is not None:
            if "witness" in cert_fields:
                lines.append(f"witness: {cert_fields['witness']}")
            else:
                lines.extend(dualnorm._certificate_lines(cert_fields))
        _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table

def _table_vector(kind: str, n: int) -> FinVec:
    if kind == "basis-growth":
        return FinVec.from_items({i: Q(1) for i in range(n, 2 * n)})
    return FinVec.from_items({i: Q(1) for i in range(1, n + 1)})


def cmd_table(args) -> int:
    spec = _load_space(args.space)
    if spec.has_symbolic_theta:
        raise UsageError("growth tables need rational weights; "
                         "interval values have no single rational column")
    if args.start < 1:
        raise UsageError(f"table range must start at 1 or later, got {args.start}")
    rows = []
    for n in range(args.start, args.end + 1):
        value, _ = mixed_norm(spec, _table_vector(args.kind, n))
        rows.append((n, value))
    if args.format == "json":
        doc = {"command": "table", "kind": args.kind, "space": spec.name,
               "rows": [{"n": n, "value": format_scalar(v),
                         "decimal": _decimal(v)} for n, v in rows]}
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["n,value,decimal"]
        for n, v in rows:
            lines.append(f"{n},{format_scalar(v)},{_decimal(v)}")
        _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def _sample_vectors(rng, support_bound: int, count: int):
    out = []
    for _ in range(count):
        items = {i: rng.choice(GRID_ENTRIES) for i in range(1, support_bound + 1)}
        out.append(FinVec.from_items({i: c for i, c in items.items() if c}))
    return out


def _full_vectors(support_bound: int):
    out = []
    for combo in itertools.product(GRID_ENTRIES, repeat=support_bound):
        if any(combo):
            out.append(FinVec.from_items(
                {i + 1: c for i, c in enumerate(combo) if c}))
    return out


def _corpus(args, rng):
    """The suite's vectors: every grid vector with --full, else a sample."""
    if args.full:
        return _full_vectors(args.support)
    return _sample_vectors(rng, args.support, args.sample)


def _suite_lemmas(spec, args, rng, budget):
    vectors = _corpus(args, rng)
    results = []

    violations = []
    for x in vectors:
        value = dual_norm_value(spec, x, budget)
        if not (sup_norm(x) <= value <= ell1_norm(x)):
            violations.append(f"sandwich broken at {format_vector(x)}")
    results.append(("sup-ell1-sandwich", len(vectors), violations))

    violations = []
    scalars = (Q(2), Q(-1), Q(1, 2), Q(-3, 2), Q(0))
    for x in vectors[:max(len(vectors) // len(scalars), 1)]:
        for lam in scalars:
            if dual_norm_value(spec, x.scale(lam), budget) != \
                    abs(lam) * dual_norm_value(spec, x, budget):
                violations.append(
                    f"homogeneity broken at {format_vector(x)} scale {lam}")
    results.append(("scale-homogeneity",
                    len(vectors[:max(len(vectors) // len(scalars), 1)]) * len(scalars),
                    violations))

    violations = []
    for _ in range(args.pairs):
        x = _sample_vectors(rng, args.support, 1)[0]
        y = _sample_vectors(rng, args.support, 1)[0]
        if dual_norm_value(spec, x + y, budget) > \
                dual_norm_value(spec, x, budget) + dual_norm_value(spec, y, budget):
            violations.append(
                f"triangle broken at {format_vector(x)} + {format_vector(y)}")
    results.append(("triangle-inequality", args.pairs, violations))

    violations = []
    for x in vectors:
        shrunk = FinVec.from_items(
            {i: c * rng.choice((Q(1), Q(1, 2), Q(0))) for i, c in x.items()})
        if dual_norm_value(spec, shrunk, budget) > dual_norm_value(spec, x, budget):
            violations.append(
                f"monotonicity broken at {format_vector(x)} vs {format_vector(shrunk)}")
    results.append(("lattice-monotonicity", len(vectors), violations))
    return results, {}


def _suite_duality(spec, args, rng, budget):
    vectors = _corpus(args, rng)
    violations = []
    max_patterns = 0
    for x in vectors:
        if x.is_zero:
            continue
        try:
            value, cert = dual_norm(spec, x, budget)
            verify_dual_certificate(spec, x, cert)
        except TsinormError as exc:
            violations.append(f"{format_vector(x)}: {exc}")
            continue
        # one hull column and one ball row per maximal pattern
        max_patterns = max(max_patterns,
                           len(_maximal_patterns(spec, x.support, budget)[0]))
    extras = {"max_hull_columns": max_patterns, "max_ball_rows": max_patterns}
    return [("lp-duality-and-certificates", len(vectors), violations)], extras


def _suite_implicit_eq(spec, args, rng, budget):
    vectors = _corpus(args, rng)
    violations = []
    checked = 0
    for x in vectors:
        if x.is_zero:
            continue
        checked += 1
        report = verify_implicit_equation(spec, x, budget)
        if not report.ok:
            first = report.violations[0]
            violations.append(
                f"{format_vector(x)}: {first.kind} branch at value "
                f"{format_scalar(first.value)} under norm {format_scalar(report.norm)}")
    return [("implicit-equation", checked, violations)], {}


def cmd_check(args) -> int:
    spec = _load_space(args.space)
    budget = _budget(args)
    rng = random.Random(args.seed)
    if spec.has_symbolic_theta:
        raise UsageError(f"{args.suite} needs rational weights at every level")

    if args.suite == "ell1-falsify":
        try:
            entries = [as_scalar(t) for t in args.entries.split(",") if t.strip()]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad entry grid {args.entries!r}") from None
        try:
            result = falsify_ell1_variant(spec, args.support, entries,
                                          iteration_cap=args.cap)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if args.format == "json":
            doc = {"command": "check", "suite": args.suite, "space": spec.name,
                   "status": result.status, "pairs_checked": result.pairs_checked,
                   "cap_hits": result.cap_hits}
            if result.witness is not None:
                w = result.witness
                doc["witness"] = {
                    "x": format_vector(w.x), "y": format_vector(w.y),
                    "sigma_x": format_scalar(w.sigma_x),
                    "sigma_y": format_scalar(w.sigma_y),
                    "sigma_sum": format_scalar(w.sigma_sum),
                }
            _write_out(args, json.dumps(doc, indent=2) + "\n")
        elif result.witness is None:
            _write_out(args, f"exhausted after {result.pairs_checked} pairs "
                             f"(cap hits: {result.cap_hits})\n")
        else:
            w = result.witness
            _write_out(args, "\n".join([
                "counterexample",
                f"x = {format_vector(w.x)}",
                f"y = {format_vector(w.y)}",
                f"sigma(x) = {format_scalar(w.sigma_x)}",
                f"sigma(y) = {format_scalar(w.sigma_y)}",
                f"sigma(x+y) = {format_scalar(w.sigma_sum)}",
                f"excess = {format_scalar(w.sigma_sum - w.sigma_x - w.sigma_y)}",
            ]) + "\n")
        # the search reports what it finds; either outcome is a completed run
        return EXIT_OK

    for flag, got, least in (("support", args.support, 1), ("sample", args.sample, 0),
                             ("pairs", args.pairs, 0)):
        if got < least:
            raise UsageError(f"--{flag} must be >= {least}, got {got}")

    suite_fn = {"lemmas": _suite_lemmas, "duality": _suite_duality,
                "implicit-eq": _suite_implicit_eq}[args.suite]
    results, extras = suite_fn(spec, args, rng, budget)
    failed = any(v for _, _, v in results)
    if args.format == "json":
        doc = {"command": "check", "suite": args.suite, "space": spec.name,
               "seed": args.seed, "status": "fail" if failed else "pass",
               "properties": [
                   {"name": name, "checked": checked,
                    "status": "fail" if viol else "pass",
                    "violations": viol[:5]}
                   for name, checked, viol in results]}
        doc.update(extras)
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = []
        for name, checked, viol in results:
            if viol:
                lines.append(f"FAIL {name} (checked {checked}): {viol[0]}")
            else:
                lines.append(f"PASS {name} (checked {checked})")
        for key, val in extras.items():
            lines.append(f"{key.replace('_', '-')}: {val}")
        lines.append(f"seed: {args.seed}")
        _write_out(args, "\n".join(lines) + "\n")
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# norming-set

def cmd_norming_set(args) -> int:
    spec = _load_space(args.space)
    if spec.has_symbolic_theta:
        raise UsageError("norming-set needs rational weights at every level")
    if args.window < 1:
        raise UsageError(f"window must be >= 1, got {args.window}")
    vset = build_norming_set(spec, args.window, budget=_budget(args))
    text = export_norming_set(vset)
    summary = (f"cardinality={vset.cardinality} generation={vset.generation} "
               f"stabilized={str(vset.stabilized).lower()}")
    if args.format == "json":
        doc = {"command": "norming-set", "space": spec.name,
               "window": args.window, "cardinality": vset.cardinality,
               "generation": vset.generation, "stabilized": vset.stabilized,
               "export": text}
        _write_out(args, json.dumps(doc, indent=2) + "\n")
    else:
        _write_out(args, text)
        (sys.stdout if args.out else sys.stderr).write(summary + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify

def cmd_certify(args) -> int:
    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.check!r}: {exc}") from None
        try:
            spec, x, cert = import_dual_certificate(text)
        except TsinormError as exc:
            if args.format == "json":
                _write_out(args, json.dumps(
                    {"command": "certify", "status": "rejected",
                     "reason": str(exc)}, indent=2) + "\n")
            else:
                _write_out(args, f"certificate rejected: {exc}\n")
            return EXIT_VIOLATION
        if args.format == "json":
            _write_out(args, json.dumps(
                {"command": "certify", "status": "ok", "space": spec.name,
                 "vector": format_vector(x),
                 "value": format_scalar(cert.value)}, indent=2) + "\n")
        else:
            _write_out(args, f"certificate ok: space={spec.name} "
                             f"vector={format_vector(x)!r} "
                             f"value={format_scalar(cert.value)}\n")
        return EXIT_OK

    if args.vector is None:
        raise UsageError("certify needs a vector literal or --check FILE")
    spec = _load_space(args.space)
    if spec.has_symbolic_theta:
        raise UsageError("certificates need rational weights at every level")
    x = parse_vector(args.vector)
    value, cert = dual_norm(spec, x, _budget(args))
    doc = export_dual_certificate(spec, x, cert)
    _write_out(args, doc)
    if args.out:
        sys.stdout.write(f"certificate written: value={format_scalar(value)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsinorm",
        description="Exact norms of finitely supported vectors in "
                    "Tsirelson-type sequence spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("human", "json")):
        p.add_argument("--space", default="tsirelson",
                       help="preset name or JSON config file path")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--budget", type=int, default=None,
                       help="norming-set size cap (default: TSINORM_BUDGET or "
                            f"{DEFAULT_NORMING_BUDGET})")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("norm", help="evaluate one norm")
    p.add_argument("kind", choices=("fj", "mixed", "dual", "dual-bounds"))
    p.add_argument("vector", help='vector literal like "3:1 4:1 5:1" ("" = 0)')
    p.add_argument("--certify", action="store_true",
                   help="print the optimality witness too")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--precision-cap", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("table", help="growth table as CSV")
    p.add_argument("kind", choices=("schreier-block-growth", "basis-growth"))
    p.add_argument("--start", type=int, default=2)
    p.add_argument("--end", type=int, default=6)
    common(p, formats=("csv", "json"))
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=("lemmas", "duality", "implicit-eq",
                                     "ell1-falsify"))
    p.add_argument("--support", type=int, default=5,
                   help="support bound for corpus vectors")
    p.add_argument("--sample", type=int, default=200,
                   help="sampled corpus size (seeded)")
    p.add_argument("--full", action="store_true",
                   help="exhaust the whole grid instead of sampling")
    p.add_argument("--pairs", type=int, default=500,
                   help="sampled pair count for the triangle inequality")
    p.add_argument("--entries", default="1,-1,1/2,-1/2",
                   help="entry grid for ell1-falsify")
    p.add_argument("--cap", type=int, default=32,
                   help="iteration cap for the ell1-variant recursion")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("norming-set", help="build and export a norming set")
    p.add_argument("window", type=int, help="support window bound N")
    common(p)
    p.set_defaults(fn=cmd_norming_set)

    p = sub.add_parser("certify", help="write or re-check a dual certificate")
    p.add_argument("vector", nargs="?", default=None)
    p.add_argument("--check", default=None, metavar="FILE",
                   help="re-verify an existing certificate document")
    common(p)
    p.set_defaults(fn=cmd_certify)
    return parser


# Built on the first call to main() and reused: the parser holds no
# per-call state (TSINORM_BUDGET is read in _budget at call time).
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (BudgetExceededError, PrecisionExhaustedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except VectorParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except TsinormError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
