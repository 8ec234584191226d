"""Corpus times: per-document compute time of two gradex source trees.

    python tests/corpus_times.py OLD_SRC NEW_SRC [--runs N] [WORKLOAD ...]

runs every seed-0 document of ``bench/corpus.py`` (all workloads, or
the ones named) ``--runs`` times under each tree, each run in a fresh
interpreter, alternating which tree goes first.  A run imports
``gradex.cli`` from its tree, turns ``gc`` off and times one
``gradex.cli.run`` on the document; interpreter start and imports are
not timed.  It prints, per document, the median and interquartile range
of each tree in ms, and the difference of the medians.  A report that
is not the one stored in ``bench/expected`` stops the script.  For
example

    python tests/corpus_times.py ../parent/src src --runs 11 homological

checks that no document of the homological workload got slower.  pytest
does not collect this file, and the suite never runs it.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import corpus  # noqa: E402

# the child prints the seconds of one cli.run, then the report
CHILD = """\
import contextlib, gc, io, sys, time
import gradex.cli
argv = sys.argv[1:]
out = io.StringIO()
gc.collect()
gc.disable()
with contextlib.redirect_stdout(out):
    t0 = time.perf_counter()
    code = gradex.cli.run(argv)
    dt = time.perf_counter() - t0
print(dt)
sys.stdout.write(out.getvalue())
"""


def run_once(src, doc, workdir):
    """Seconds of one cli.run on doc under the tree src, and its report."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-c", CHILD] + doc["argv"],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, check=True)
    seconds, _, report = proc.stdout.partition("\n")
    return float(seconds), report


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="src directory of the tree to compare to")
    ap.add_argument("new", help="src directory of the tree to measure")
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"one of {', '.join(corpus.WORKLOADS)} "
                         f"(default: all)")
    args = ap.parse_intermixed_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2, for quartiles")
    unknown = set(args.workloads) - set(corpus.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    trees = [args.old, args.new]
    print(f"{'document':<32}{'old ms':>9}{'IQR':>15}{'new ms':>9}"
          f"{'IQR':>15}{'new-old':>9}")
    for workload in args.workloads or corpus.WORKLOADS:
        expected = json.loads((BENCH / "expected" / f"{workload}.json")
                              .read_text())
        docs = corpus.corpus(workload, corpus.DEFAULT_SEED)
        with tempfile.TemporaryDirectory() as workdir:
            for doc in docs:
                for name, text in doc["files"].items():
                    pathlib.Path(workdir, name).write_text(text)
            for doc in sorted(docs, key=lambda d: d["id"]):
                times = {src: [] for src in trees}
                for r in range(args.runs):
                    for src in trees[::-1] if r % 2 else trees:
                        dt, report = run_once(src, doc, workdir)
                        if not corpus.matches(expected[doc["id"]], report,
                                              corpus.DEFAULT_SEED):
                            sys.exit(f"{src}: {doc['id']} printed another "
                                     f"report")
                        times[src].append(dt * 1000)
                (o1, o, o3), (n1, n, n3) = (quartiles(times[src])
                                            for src in trees)
                print(f"{doc['id']:<32}{o:9.2f}{f'{o1:.2f}-{o3:.2f}':>15}"
                      f"{n:9.2f}{f'{n1:.2f}-{n3:.2f}':>15}{n - o:+9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
