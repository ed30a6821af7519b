"""Seeded request streams for the benchmark workloads.

A corpus is the ordered list of requests that one pass sends.  It depends
only on (workload, seed), so the same seed always gives the same argv
lists.  Each workload fixes how many requests of each class a pass
holds and which supports and sizes they cycle through; the seed picks the
entries, the samplers' seeds and the order.  Fixing the class mix is what keeps
throughput and percentiles steady from one seed to the next, because single
requests differ in cost by two orders of magnitude.

Entries come from the CLI grid {+-1, +-1/2, +-2}.  The placeholders "@CARD"
(the card-demo space config) and "@DOC<n>" (the n-th output file of a pass)
are replaced with paths by the worker; keys never contain paths.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Tuple

WORKLOADS = ("primal", "dual-certify", "analysis")
DEFAULT_SEED = 0
MIN_REQUESTS = 100

GRID = ("1", "-1", "1/2", "-1/2", "2", "-2")

# The two-level space from the README, written to a file at set-up.
CARD_DEMO = {"name": "card-demo",
             "levels": [{"family": "schreier1", "theta": "1/2"},
                        {"family": {"card_at_most": 2}, "theta": "1/3"}]}

# Tsirelson certify supports inside [1, 7].  The hull program has one
# column per signed generator: 10-36 for the small supports, 88-102 for the
# medium ones, whose warm certify takes 55-120 ms on a 2-core x86 box.  Its
# simplex pivots depend on the signs and sizes of the entries, so one
# support's cost varies with a coefficient of variation of about 0.4; many
# medium requests per corpus keep the corpus total steady across seeds.
SMALL_SUPPORTS = ((2, 3, 4), (2, 5, 7), (3, 4, 5), (1, 2, 3, 4), (1, 3, 5, 6))
MEDIUM_SUPPORTS = ((2, 3, 4, 5), (2, 3, 5, 7), (2, 4, 5, 6), (2, 4, 6, 7), (3, 4, 5, 6),
                   (3, 4, 6, 7), (3, 5, 6, 7), (1, 2, 3, 4, 5), (1, 2, 4, 6, 7),
                   (1, 3, 4, 5, 7))
# card-demo certify supports: 3 points, 8-12 ms (5 points take seconds).
CARD_SUPPORTS = ((2, 4, 6), (3, 4, 5), (2, 3, 5), (3, 5, 7), (1, 3, 5))
# Schlumprecht dual-bounds supports: 3 points run in tens of ms.
BOUNDS_SUPPORTS_3 = ((1, 2, 3), (2, 3, 4), (2, 4, 6), (3, 4, 5), (1, 3, 5))
FALSIFY_GRIDS = ((3, "1,-1"), (3, "1,-1,1/2"), (3, "1,1/2,2"),
                 (4, "1,-1"), (4, "1,1/2"), (4, "1,2"))


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv (call "cli") or a library call ("rho_chain",
    argv = (space, vector, n_max)).  `key` names the request in the
    references; `doc` is the output-file number it writes, if any, and
    `checks` the number of the certify request whose document it re-checks."""
    cls: str
    key: str
    argv: Tuple[str, ...]
    call: str = "cli"
    doc: int = -1
    checks: int = -1


def _vector(rng: random.Random, indices) -> str:
    return " ".join(f"{i}:{rng.choice(GRID)}" for i in indices)


def _spread(count: int, low: int, high: int):
    """count sizes covering low..high evenly, so every pass holds the same
    size mix whatever the seed."""
    span = high - low + 1
    return [low + (i * span) // count for i in range(count)]


def _cli(cls: str, argv, **kw) -> Request:
    key = " ".join("@DOC" if a.startswith("@DOC") else a for a in argv)
    return Request(cls, key, tuple(argv), **kw)


def _primal(rng: random.Random):
    units = []
    for i, m in enumerate(_spread(20, 8, 18)):
        start = 1 + i % 3
        units.append([_cli("fj", ["norm", "fj", _vector(rng, range(start, start + m)),
                                  "--certify"])])
    for space, cls in (("tsirelson", "mixed-tsirelson"), ("@CARD", "mixed-card")):
        for i, m in enumerate(_spread(20, 6, 10)):
            start = 1 + i % 3
            units.append([_cli(cls, ["norm", "mixed", "--space", space,
                                     _vector(rng, range(start, start + m)),
                                     "--certify"])])
    for i, m in enumerate(_spread(20, 4, 7)):
        start = 1 + i % 2
        units.append([_cli("mixed-schlumprecht",
                           ["norm", "mixed", "--space", "schlumprecht",
                            _vector(rng, range(start, start + m))])])
    for i in range(20):
        start = 1 + i % 3
        end = start + 3 + i % 5
        units.append([_cli("table", ["table", "basis-growth", "--start", str(start),
                                     "--end", str(end)])])
    return units


def _dual_certify(rng: random.Random):
    units = []
    docs = itertools.count()

    def certify(cls, argv_head, support):
        n = next(docs)
        return _cli(cls, argv_head + [_vector(rng, support), "--out", f"@DOC{n}"], doc=n)

    # Every support is used a fixed number of times, so the generator cache
    # misses once per support and hits on the repeats, whatever the seed.
    for support in MEDIUM_SUPPORTS:
        for i in range(6):
            cert = certify("certify-medium", ["certify"], support)
            unit = [cert]
            if i < 2:
                unit.append(Request("check", "check " + cert.key,
                                    ("certify", "--check", f"@DOC{cert.doc}"),
                                    checks=cert.doc))
            units.append(unit)
    # The checks (2-4 ms) and the small certifies (6-20 ms) make the fast
    # 60 %, so p50 falls inside the small band and p90 inside the medium one.
    for support in SMALL_SUPPORTS * 10:
        units.append([certify("certify-small", ["certify"], support)])
    for support in CARD_SUPPORTS * 4:
        units.append([certify("certify-card", ["certify", "--space", "@CARD"], support)])
    return units


def _analysis(rng: random.Random):
    units = []
    docs = itertools.count()
    for i, m in enumerate(_spread(20, 4, 7)):
        start = 1 + i % 3
        vector = _vector(rng, range(start, start + m))
        units.append([Request("rho", f"rho_chain tsirelson {vector} 3",
                              ("tsirelson", vector, "3"), call="rho_chain")])
    for i, support in enumerate(_spread(12, 4, 5)):
        sample = 1 + i % 3
        units.append([_cli("implicit-eq", ["check", "implicit-eq", "--support", str(support),
                                           "--sample", str(sample),
                                           "--seed", str(rng.randrange(10 ** 6))])])
    for i in range(6):
        units.append([_cli("implicit-eq-card",
                           ["check", "implicit-eq", "--space", "@CARD", "--support", "4",
                            "--sample", str(1 + i % 2),
                            "--seed", str(rng.randrange(10 ** 6))])])
    for i in range(12):
        size = 3 + i % 4
        units.append([_cli("lemmas", ["check", "lemmas", "--support", "4",
                                      "--sample", str(size), "--pairs", str(size),
                                      "--seed", str(rng.randrange(10 ** 6))])])
    for support, grid in FALSIFY_GRIDS + FALSIFY_GRIDS:
        units.append([_cli("falsify", ["check", "ell1-falsify", "--support", str(support),
                                       "--entries", grid])])
    for support in BOUNDS_SUPPORTS_3 * 3:
        units.append([_cli("dual-bounds", ["norm", "dual-bounds", "--space", "schlumprecht",
                                           _vector(rng, support)])])
    # Norming-set builds have no memo, so each window costs the same every
    # time: the window-5 builds (about 9 ms) fill the band where p50 falls,
    # the window-6 builds (about 70 ms) the band where p90 falls.
    for window in (5,) * 25 + (6,) * 14 + (7,):
        n = next(docs)
        units.append([_cli(f"norming-set-{window}",
                           ["norming-set", str(window), "--out", f"@DOC{n}"], doc=n)])
    return units


_BUILDERS = {"primal": _primal, "dual-certify": _dual_certify, "analysis": _analysis}


def build(workload: str, seed: int):
    """The requests of one pass, in the order they are sent.  Units (a
    certify and the check of its document) stay adjacent when shuffled."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    units = _BUILDERS[workload](rng)
    rng.shuffle(units)
    return [req for unit in units for req in unit]
