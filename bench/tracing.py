"""Per-layer tracing for the benchmark's traced passes.

The wrappers live in the benchmark, not in the package.  The package's
modules import each other's functions by name (``from .lp import solve``),
so a wrapper is bound over every module attribute that refers to the wrapped
function, not only in the defining module.  Spans are kept in memory and
reduced to the per-layer metrics when the pass ends.

Self time is a span's duration minus the time its child spans cover; the
wrappers' own bookkeeping after a child returns is counted as child time,
so it does not inflate the parent.  Hot functions (admissibility tests,
partition enumeration, weight resolution) get counters, not spans.
"""
from __future__ import annotations

import collections
import functools
import inspect
import re
import time

_now = time.perf_counter_ns

MODULES = ("cli", "core", "families", "lp", "norming", "primal", "dualnorm")

# Functions that get a span named "<module>.<function>"; lp.solve is named
# "lp.hull" (sense "min") or "lp.ball" (sense "max") instead.
SPANS = {
    "cli": ("main",),
    "primal": ("fj_norm", "mixed_norm", "verify_primal_certificate"),
    "norming": ("norming_generators", "build_norming_set", "export_norming_set"),
    "lp": ("solve", "verify_solution"),
    "dualnorm": ("dual_norm", "dual_norm_value", "dual_norm_bounds",
                 "verify_dual_certificate", "export_dual_certificate",
                 "import_dual_certificate", "rho_partition_upper", "rho_chain",
                 "rho_with_splits_upper", "verify_implicit_equation",
                 "sigma_ell1_variant", "falsify_ell1_variant"),
}
ENUMERATION = ("dualnorm.rho_partition_upper", "dualnorm.rho_chain",
               "dualnorm.rho_with_splits_upper", "dualnorm.verify_implicit_equation",
               "dualnorm.sigma_ell1_variant", "dualnorm.falsify_ell1_variant")
CERTIFICATE_IO = ("dualnorm.export_dual_certificate", "dualnorm.import_dual_certificate",
                  "dualnorm.verify_dual_certificate")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("lp.hull.calls", "count", "lower"),
    ("lp.hull.self_ms", "ms", "lower"),
    ("lp.hull.cols_max", "count", "lower"),
    ("lp.hull.cells", "count", "lower"),
    ("lp.ball.calls", "count", "lower"),
    ("lp.ball.self_ms", "ms", "lower"),
    ("lp.ball.rows_max", "count", "lower"),
    ("lp.ball.cells", "count", "lower"),
    ("lp.verify_solution_ms", "ms", "lower"),
    ("lp.coeff_bits_max", "bits", "lower"),
    ("norming.generators.calls", "count", "lower"),
    ("norming.generators.self_ms", "ms", "lower"),
    ("norming.generators.out", "count", "lower"),
    ("norming.generators.hit_ratio", "ratio", "higher"),
    ("norming.build.self_ms", "ms", "lower"),
    ("norming.build.out", "count", "lower"),
    ("core.partitions.yielded", "count", "lower"),
    ("families.is_admissible.calls", "count", "lower"),
    ("families.is_admissible.accept_ratio", "ratio", "higher"),
    ("primal.mixed_norm.calls", "count", "lower"),
    ("primal.mixed_norm.self_ms", "ms", "lower"),
    ("primal.fj_norm.self_ms", "ms", "lower"),
    ("families.resolve_theta.calls", "count", "lower"),
    ("families.resolve_theta.max_precision", "bits", "lower"),
    ("dualnorm.dual_norm.self_ms", "ms", "lower"),
    ("dualnorm.dual_norm_value.calls", "count", "lower"),
    ("dualnorm.certificate_io_ms", "ms", "lower"),
    ("dualnorm.enumeration.self_ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("primal.memo_entries", "count", "lower"),
    ("dualnorm.memo_entries", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_MEMO_NAME = re.compile(r"^_[A-Z0-9_]*(MEMO|CACHE)S?$")


def _bound_arg(fn, name):
    """Reader of argument `name` from a call's (args, kwargs), defaults
    applied, whichever way the caller passed it."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.request = -1
        # (request, name, start_ns, end_ns, self_ns, parent span index)
        self.spans = []
        self._stack = []  # [span index, ns covered by finished children]
        self.counts = collections.Counter()
        self.maxima = collections.Counter()

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `name` may be a function of (args, kwargs).
        `after(tracer, name, args, kwargs, result)` records shape counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0]
            self.spans.append(None)
            self._stack.append(frame)
            ok = False
            start = _now()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _now()
                self._stack.pop()
                self.spans[index] = (self.request, label, start, end,
                                     end - start - frame[1], parent)
                if ok and after is not None:
                    after(self, label, args, kwargs, result)
                if self._stack:
                    self._stack[-1][1] += _now() - start
            return result
        return traced

    # -- counters ---------------------------------------------------------

    def count_admissible(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(family, P):
            ok = fn(family, P)
            counts["families.is_admissible.calls"] += 1
            if ok:
                counts["families.is_admissible.accepted"] += 1
            return ok
        return counted

    def count_partitions(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for P in fn(*args, **kwargs):
                counts["core.partitions.yielded"] += 1
                yield P
        return counted

    def count_theta(self, fn):
        precision_of = _bound_arg(fn, "precision")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["families.resolve_theta.calls"] += 1
            p = precision_of(args, kwargs)
            if p > self.maxima["families.resolve_theta.max_precision"]:
                self.maxima["families.resolve_theta.max_precision"] = p
            return fn(*args, **kwargs)
        return counted

    # -- reduction --------------------------------------------------------

    def metrics(self, package) -> dict:
        """The per-layer metrics of LAYER_METRICS, except the overhead
        ratio, which needs the untraced pass."""
        calls = collections.Counter()
        self_ns = collections.Counter()
        io_ns = 0
        for _, name, start, end, own, parent in self.spans:
            calls[name] += 1
            self_ns[name] += own
            if name in CERTIFICATE_IO and not self._has_ancestor(parent, CERTIFICATE_IO):
                io_ns += end - start

        def ms(ns):
            return ns / 1e6

        lp_solves = calls["lp.hull"] + calls["lp.ball"]
        closures = calls["norming.norming_generators"]
        admissible = self.counts["families.is_admissible.calls"]
        return {
            "lp.hull.calls": calls["lp.hull"],
            "lp.hull.self_ms": ms(self_ns["lp.hull"]),
            "lp.hull.cols_max": self.maxima["lp.hull.cols"],
            "lp.hull.cells": self.counts["lp.hull.cells"],
            "lp.ball.calls": calls["lp.ball"],
            "lp.ball.self_ms": ms(self_ns["lp.ball"]),
            "lp.ball.rows_max": self.maxima["lp.ball.rows"],
            "lp.ball.cells": self.counts["lp.ball.cells"],
            "lp.verify_solution_ms": ms(self_ns["lp.verify_solution"]),
            "lp.coeff_bits_max": self.maxima["lp.coeff_bits"],
            "norming.generators.calls": closures,
            "norming.generators.self_ms": ms(self_ns["norming.norming_generators"]),
            "norming.generators.out": self.counts["norming.generators.out"],
            "norming.generators.hit_ratio": 1 - closures / lp_solves if lp_solves else 0.0,
            "norming.build.self_ms": ms(self_ns["norming.build_norming_set"]),
            "norming.build.out": self.counts["norming.build.out"],
            "core.partitions.yielded": self.counts["core.partitions.yielded"],
            "families.is_admissible.calls": admissible,
            "families.is_admissible.accept_ratio":
                self.counts["families.is_admissible.accepted"] / admissible if admissible else 0.0,
            "primal.mixed_norm.calls": calls["primal.mixed_norm"],
            "primal.mixed_norm.self_ms": ms(self_ns["primal.mixed_norm"]),
            "primal.fj_norm.self_ms": ms(self_ns["primal.fj_norm"]),
            "families.resolve_theta.calls": self.counts["families.resolve_theta.calls"],
            "families.resolve_theta.max_precision":
                self.maxima["families.resolve_theta.max_precision"],
            "dualnorm.dual_norm.self_ms": ms(self_ns["dualnorm.dual_norm"]),
            "dualnorm.dual_norm_value.calls": calls["dualnorm.dual_norm_value"],
            "dualnorm.certificate_io_ms": ms(io_ns),
            "dualnorm.enumeration.self_ms": ms(sum(self_ns[n] for n in ENUMERATION)),
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_ms": ms(self_ns["cli.main"]),
            "primal.memo_entries": memo_entries(package.primal),
            "dualnorm.memo_entries": memo_entries(package.dualnorm),
        }

    def _has_ancestor(self, index, names) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[1] in names:
                return True
            index = span[5]
        return False


def _lp_shape(tracer, label, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = len(lp.constraints), len(lp.objective)
    tracer.counts[label + ".cells"] += rows * cols
    for what, size in (("rows", rows), ("cols", cols)):
        if size > tracer.maxima[f"{label}.{what}"]:
            tracer.maxima[f"{label}.{what}"] = size
    bits = max(_bits(q) for row in lp.constraints for q in row.coeffs + (row.rhs,)) \
        if lp.constraints else 0
    bits = max([bits] + [_bits(q) for q in lp.objective])
    if bits > tracer.maxima["lp.coeff_bits"]:
        tracer.maxima["lp.coeff_bits"] = bits


def _count_out(key, size):
    def after(tracer, label, args, kwargs, result):
        tracer.counts[key] += size(result)
    return after


def memo_entries(module) -> int:
    """Entries in a module's memo tables: module-level dicts named
    _*MEMO*/_*CACHE*; a table of tables counts its inner entries."""
    total = 0
    for name, value in vars(module).items():
        if not (_MEMO_NAME.match(name) and isinstance(value, dict)):
            continue
        inner = list(value.values())
        if inner and all(isinstance(v, dict) for v in inner):
            total += sum(len(v) for v in inner)
        else:
            total += len(value)
    return total


def install(tracer: Tracer, package):
    """Bind the tracer's wrappers over every reference in the package's
    modules; returns a function that restores the originals.  Raises
    AttributeError if a traced function no longer exists."""
    wrappers = {}

    def add(original, wrapper):
        wrappers[id(original)] = (original, wrapper)

    for modname, names in SPANS.items():
        module = getattr(package, modname)
        for fname in names:
            original = getattr(module, fname)
            if (modname, fname) == ("lp", "solve"):
                sense_of = _bound_arg(original, "sense")
                add(original, tracer.span(
                    lambda a, k, s=sense_of: "lp.hull" if s(a, k) == "min" else "lp.ball",
                    original, _lp_shape))
                continue
            after = None
            if fname == "norming_generators":
                after = _count_out("norming.generators.out", len)
            elif fname == "build_norming_set":
                after = _count_out("norming.build.out", lambda s: s.cardinality)
            add(original, tracer.span(f"{modname}.{fname}", original, after))
    add(package.families.is_admissible,
        tracer.count_admissible(package.families.is_admissible))
    add(package.core.enumerate_partitions,
        tracer.count_partitions(package.core.enumerate_partitions))
    add(package.families.resolve_theta, tracer.count_theta(package.families.resolve_theta))

    patched = []
    for module in [package] + [getattr(package, m) for m in MODULES]:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)
    return restore
