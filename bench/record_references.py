"""Record the default-seed reference answers into bench/references.json.

Usage, from the root of a checkout:

    python3 bench/record_references.py

Runs the default-seed corpus of every workload once and stores the exact
answer of every request.  Later commits must reproduce these answers
on the default seed.  Refuses to record if any request fails a check other
than the reference comparison itself, so record only on a commit whose
answers are trusted.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import corpus
import run
import worker


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    answers = {}
    for workload in corpus.WORKLOADS:
        summary = run.spawn(workload, corpus.DEFAULT_SEED, False,
                            time.monotonic() + run.RUN_LIMIT_S)
        if summary["failed"] != summary["wrong_references"]:
            print(f"error: {workload} has failing requests:", file=sys.stderr)
            print("\n".join(summary["failures"]), file=sys.stderr)
            return 1
        answers.update(summary["answers"])
    with open(worker.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"seed": corpus.DEFAULT_SEED, "answers": dict(sorted(answers.items()))},
                  fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
