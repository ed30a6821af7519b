"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py --workload W --seed S --trace 0|1
       --spawned-at T

Imports tsinorm from the checkout's src/, builds the pass's corpus, loads
the references, then sends every request in order, one at a time, in this
process (a closed loop with one caller).  A request is one in-process
``tsinorm.cli.main(argv)`` call with stdout captured, or one library call.
After the timed loop every answer is checked.  The last stdout line is a
JSON summary of the pass.

A fresh interpreter per pass matters: ``tsinorm.clear_caches()`` misses
``families._LOG2_CACHE``, so passes sharing a process would start with warm
Schlumprecht weight enclosures, and peak RSS would mix passes.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import corpus  # noqa: E402  (bench/ is sys.path[0] when run as a script)

REFERENCES = HERE / "references.json"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import tsinorm
    from tsinorm import cli  # noqa: F401  (binds tsinorm.cli)
    origin = Path(tsinorm.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: imported tsinorm from {origin}, not from {ROOT / 'src'}")
    return tsinorm


def load_references() -> dict:
    """{request key: answer} recorded from the default-seed corpora."""
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["answers"]


class WrongAnswer(Exception):
    pass


def _require(condition, message) -> None:
    if not condition:
        raise WrongAnswer(message)


class Pass:
    """Runs one corpus and checks its answers."""

    def __init__(self, tsinorm, requests, workdir: Path):
        self.ts = tsinorm
        self.requests = requests
        self.workdir = workdir
        self.card_path = workdir / "card-demo.json"
        self.card_path.write_text(json.dumps(corpus.CARD_DEMO), encoding="utf-8")
        self.card_spec = tsinorm.spec_from_config(corpus.CARD_DEMO)
        self.imported = {}  # norming-set export text -> imported set

    def _path(self, token: str) -> str:
        if token == "@CARD":
            return str(self.card_path)
        if token.startswith("@DOC"):
            return str(self.workdir / f"doc{token[4:]}.txt")
        return token

    def send(self, req):
        """Returns (exit code, stdout).  Exceptions propagate."""
        if req.call == "rho_chain":
            space, vector, n_max = req.argv
            chain = self.ts.rho_chain(self.ts.PRESETS[space](), self.ts.parse_vector(vector),
                                      int(n_max))
            return 0, " ".join(self.ts.format_scalar(it.value) for it in chain) + "\n"
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.ts.cli.main([self._path(a) for a in req.argv])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def doc_text(self, n: int) -> str:
        return (self.workdir / f"doc{n}.txt").read_text(encoding="utf-8")

    # -- answers and checks ------------------------------------------------

    @staticmethod
    def answer(req, out: str) -> str:
        """The exact value(s) a response states, as compared with the
        references; certificate text is deliberately left out."""
        if req.cls.startswith("certify") or req.cls == "check":
            return out.rsplit("value=", 1)[-1].strip()
        if req.argv[:1] == ("norm",):
            return out.split("\n", 1)[0]
        return out.strip()

    def check(self, req, out: str, values: dict):
        """Raises (WrongAnswer, TsinormError, ...) if the response is wrong."""
        ts = self.ts
        cls = req.cls
        if cls in ("fj", "mixed-tsirelson", "mixed-card"):
            value_line, witness_line = out.splitlines()[:2]
            spec = self.card_spec if cls == "mixed-card" else ts.tsirelson_spec()
            x = ts.parse_vector(req.argv[-2])
            value = ts.as_scalar(value_line)
            _require(witness_line.startswith("witness: "), witness_line)
            d = ts.dualnorm
            cert = d._witness_from_sexpr(d._sexpr_nodes(witness_line[len("witness: "):]),
                                         x, spec)
            ts.verify_primal_certificate(spec, x, cert)
            _require(cert.value == value, f"witness value {cert.value} != {value}")
            if cls == "mixed-tsirelson":
                _require(ts.fj_norm(x)[0] == value, "mixed tsirelson disagrees with fj_norm")
        elif cls in ("mixed-schlumprecht", "dual-bounds", "dual-bounds-4"):
            x = ts.parse_vector(req.argv[-1])
            lo, hi = (ts.as_scalar(t) for t in out.strip()[1:-1].split(", "))
            _require(lo <= hi, "inverted enclosure")
            _require(ts.sup_norm(x) <= hi and lo <= ts.ell1_norm(x), "enclosure outside [sup, l1]")
        elif cls == "table":
            lines = out.strip().splitlines()
            _require(lines[0] == "n,value,decimal", lines[0])
            start, end = int(req.argv[3]), int(req.argv[5])
            _require(len(lines) == end - start + 2, "row count")
            for line in lines[1:]:
                n, value, _ = line.split(",")
                x = ts.FinVec.from_items({i: 1 for i in range(int(n), 2 * int(n))})
                _require(ts.fj_norm(x)[0] == ts.as_scalar(value), f"table row {line}")
        elif cls.startswith("certify"):
            spec, x, cert = ts.import_dual_certificate(self.doc_text(req.doc))
            _require(ts.format_vector(x) == ts.format_vector(ts.parse_vector(req.argv[-3])),
                     "certificate vector differs from the request")
            _require(out.startswith("certificate written: value="), out)
            _require(ts.format_scalar(cert.value) == self.answer(req, out), "value differs")
            values[req.doc] = cert.value
        elif cls == "check":
            _require(out.startswith("certificate ok: "), out)
            _require(ts.as_scalar(self.answer(req, out)) == values[req.checks],
                     "checked value differs from the certified one")
        elif cls.startswith("implicit-eq") or cls == "lemmas":
            lines = out.strip().splitlines()
            _require(all(line.startswith("PASS ") for line in lines[:-1]), out)
            _require(lines[-1].startswith("seed: "), out)
        elif cls == "falsify":
            if out.startswith("counterexample"):
                fields = dict(line.split(" = ") for line in out.splitlines()[1:])
                spec = ts.tsirelson_spec()
                x, y = ts.parse_vector(fields["x"]), ts.parse_vector(fields["y"])
                sx, _ = ts.sigma_ell1_variant(spec, x)
                sy, _ = ts.sigma_ell1_variant(spec, y)
                sxy, _ = ts.sigma_ell1_variant(spec, x + y)
                _require(sxy > sx + sy, "counterexample does not re-verify")
                _require(ts.as_scalar(fields["excess"]) == sxy - sx - sy, "excess")
            else:
                _require(out.startswith("exhausted after "), out)
        elif cls.startswith("norming-set"):
            window = int(req.argv[1])
            text = self.doc_text(req.doc)
            if text not in self.imported:  # equal exports import equally
                self.imported[text] = ts.import_norming_set(text, ts.tsirelson_spec())
            vset = self.imported[text]
            _require(vset.window == window and vset.stabilized, "bad export header")
            _require(out.strip() == (f"cardinality={vset.cardinality} "
                                     f"generation={vset.generation} stabilized=true"), out)
        elif cls == "rho":
            x = ts.parse_vector(req.argv[1])
            chain = [ts.as_scalar(t) for t in out.split()]
            _require(chain[0] == ts.ell1_norm(x), "level 0 is not the l1 norm")
            _require(all(a >= b for a, b in zip(chain, chain[1:])), "chain increases")
            _require(chain[-1] >= ts.sup_norm(x), "chain below the sup norm")
        else:
            raise WrongAnswer(f"no check for request class {cls!r}")

    def digest(self, req, code, out: str) -> str:
        """Hash of everything a request produced, output files included."""
        h = hashlib.sha1(f"{code}\n{out}".encode())
        if req.doc >= 0:
            try:
                h.update(self.doc_text(req.doc).encode())
            except FileNotFoundError:
                h.update(b"no document")
        return h.hexdigest()[:16]


def run_requests(bench: Pass, tracer=None):
    """The timed loop: send every request in order, and time the host
    kernel after each one, outside the request's latency.  Returns
    (responses, latencies in ms, kernel times in ms); a crashed request
    has exit code None."""
    responses = []
    latencies = []
    host_ms = []
    for i, req in enumerate(bench.requests):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            responses.append(bench.send(req))
        except Exception as exc:  # a crash is a failed request, not a failed pass
            responses.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append((time.perf_counter() - t0) * 1e3)
        host_ms.append(time_host_kernel())
    return responses, latencies, host_ms


def time_host_kernel() -> float:
    """Milliseconds one fixed stdlib Fraction-and-dict loop takes now.

    The loop never touches tsinorm, so its time tracks only the host's
    current speed; the collector is off so the program's heap cannot
    trigger a collection inside it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        seen = {}
        for i in range(1, 600):
            total += Fraction(i % 97, i % 13 + 1)
            seen[(i, total.numerator % 1000)] = total
        return (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def evaluate(bench: Pass, responses, references: dict, require_all: bool) -> dict:
    """Check every response; a wrong one is counted, never raised.

    A request whose key has a reference must state exactly that answer;
    with require_all, a request without one is a failure too."""
    failures = []
    wrong_references = 0
    answers = {}
    digests = []
    values = {}
    for req, (code, out) in zip(bench.requests, responses):
        problem = None
        if code != 0:
            problem = f"exit code {code}: {out.strip()[-200:]}"
        else:
            try:
                bench.check(req, out, values)
            except Exception as exc:  # every wrong answer is counted, none aborts
                problem = f"check failed: {type(exc).__name__}: {exc}"
        got = bench.answer(req, out)
        answers[req.key] = got
        want = references.get(req.key)
        if problem is None and (want is not None and want != got
                                or want is None and require_all):
            problem = f"reference mismatch: got {got!r}, want {want!r}"
            wrong_references += 1
        if problem is not None:
            failures.append(f"{req.key}: {problem}")
        digests.append(bench.digest(req, code, out) if code is not None else "")
    return {"failed": len(failures), "failures": failures[:10],
            "wrong_references": wrong_references, "answers": answers, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)

    tsinorm = _import_package()
    requests = corpus.build(args.workload, args.seed)
    references = load_references()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Pass(tsinorm, requests, workdir)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, tsinorm)
        first_request_at = time.monotonic()
        responses, latencies, host_ms = run_requests(bench, tracer)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = None
        if tracer is not None:
            restore()
            layers = tracer.metrics(tsinorm)
        result = evaluate(bench, responses, references,
                          require_all=args.seed == corpus.DEFAULT_SEED)
        result.update({
            "first_request_at": first_request_at,
            "latencies_ms": latencies,
            "host_ms": host_ms,
            "attempted": len(requests),
            "rss_kib": rss_kib,
            "layers": layers,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
