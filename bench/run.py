"""End-to-end benchmark of the gradex command line.

    python3 bench/run.py --workload rings-q --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --list

Run from the root of a checkout.  Each document of the workload's
corpus (bench/corpus.py) is handed to a fresh ``python -m gradex.cli``
process, one at a time: a closed loop with one client, interpreter
start included.  Passes over the corpus repeat until ``--seconds`` is
used up, and never fewer than it takes to give the 90th percentile ten
samples beyond it.  Every report is checked against bench/expected/.
Times are scaled to a reference machine speed measured by a probe run
around every process (see REFERENCE_PROBE_S).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which each document runs under
bench/tracer.py, and prints the per-layer metrics of the traced passes
together with the tracing overhead.  The last line of standard output
is the JSON result; a result file with provenance goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 3        # fresh-interpreter imports timed per round
MIN_SAMPLES = 100       # per-document samples, so p90 has 10 beyond it
DOC_TIMEOUT_S = 30      # a document running longer counts as failed
HARD_LIMIT_S = 150      # no document starts after this, whatever --seconds

# Every timed process is bracketed by speed probes (a fixed pure-Python
# loop); times are reported scaled to a machine on which the probe takes
# REFERENCE_PROBE_S.  See "Speed normalisation" in bench/README.md.
SPEED_PROBE_LOOPS = 60_000
REFERENCE_PROBE_S = 0.004

# name, unit, better, bound (share of the parent's median a change may
# lose before it counts as a regression)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.2),
    ("doc_s.p50", "s", "lower", 0.24),
    ("doc_s.p90", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_frac", "frac", "higher", 0.01),
]

LAYERS = ("cli", "abgroups", "exactla", "gcore", "gfunct", "gmod", "ghom",
          "oracles")

_PARSE = ("_load", "schema_validate", "group_from_json",
          "hom_from_json", "field_from_json", "_degrees_from_json",
          "_sparse_tensor", "ring_from_json", "monoid_algebra_from_json",
          "module_from_json", "principal_from_json")
_EMIT = ("_emit", "scalar_out", "group_to_json", "hom_to_json",
         "field_to_json", "ring_to_json", "module_to_json", "_hilbert_json",
         "_betti_json")

# per-layer metric prefix -> (spans it sums, statistics reported).  A
# prefix names one function unless it lists the helpers the function
# delegates to inside its own module.
FUNCTIONS = {
    "exactla.mat_mul": (("exactla.mat_mul",), ("calls", "self_s", "cells")),
    "exactla.rref": (("exactla.rref",), ("calls", "self_s", "cells")),
    "exactla.det": (("exactla.det",), ("calls",)),
    "exactla.solve_linear": (("exactla.solve_linear",), ("calls",)),
    "exactla.kernel_basis": (("exactla.kernel_basis",), ("calls",)),
    "gcore.nilradical": (("gcore.nilradical",), ("calls", "self_s")),
    "gcore.algebra_init": (("gcore.GradedAlgebra.__init__",),
                           ("calls", "self_s")),
    "gmod.module_init": (("gmod.GradedModule.__init__",),
                         ("calls", "self_s")),
    "gcore.classify_element": (("gcore.classify_element",),
                               ("calls", "self_s")),
    "gcore.classify_ring": (("gcore.classify_ring",), ("calls",)),
    "gcore.quotient_ring": (("gcore.quotient_ring",), ("calls",)),
    **{f"gmod.{f}": ((f"gmod.{f}",), ("calls", "self_s"))
       for f in ("kernel", "cokernel", "graded_hom", "tensor",
                 "radical_submodule", "freeness", "is_monogeneous")},
    **{f"ghom.{f}": ((f"ghom.{f}",), ("calls", "self_s"))
       for f in ("resolution", "minimal_cover", "dimension",
                 "schanuel_glue")},
    "ghom.verify": (("ghom.FreeResolution.verify",), ("calls", "self_s")),
    "gfunct.coarsen": (("gfunct.coarsen", "gfunct.coarsen_algebra"),
                       ("self_s",)),
    "gfunct.restrict": (("gfunct.restrict", "gfunct.restrict_with_indices"),
                        ("self_s",)),
    "gfunct.corestrict": (("gfunct.corestrict",), ("self_s",)),
    "gfunct.adjunction_check": (
        ("gfunct.adjunction_check", "gfunct.triangle_identities",
         "gfunct.hom_bijection_check", "gfunct.laurent_tensor_witness"),
        ("self_s",)),
    "abgroups.smith_normal_form": (("abgroups.smith_normal_form",),
                                   ("calls", "self_s")),
    "abgroups.kernel_data": (("abgroups.kernel_data",), ("calls", "self_s")),
    "oracles.oracle_ring_class": (("oracles.oracle_ring_class",),
                                  ("self_s",)),
    "oracles.enumerate_morphisms": (("oracles.enumerate_morphisms",),
                                    ("self_s",)),
    "cli.parse": (tuple(f"cli.{f}" for f in _PARSE), ("self_s",)),
    "cli.emit": (tuple(f"cli.{f}" for f in _EMIT), ("self_s",)),
    "cli.ring_from_json": (("cli.ring_from_json",), ("calls",)),
}

UNITS = {"calls": "count", "self_s": "s", "cells": "count"}

# computed per-layer metrics that are not a sum over spans
DERIVED = [
    ("gcore.nilradical.calls_per_doc", "ratio"),
    ("gcore.size_guard.refusals", "count"),
    ("exactla.invertible_intertwiner.samples_used", "count"),
    ("exactla.invertible_intertwiner.found_per_sample", "ratio"),
    ("trace.traced_pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]

HIGHER_IS_BETTER = {"exactla.invertible_intertwiner.found_per_sample",
                    "trace.coverage"}

PER_LAYER = [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
             for name, unit in
             [(f"{layer}.{stat}", UNITS[stat]) for layer in LAYERS
              for stat in ("calls", "self_s")]
             + [(f"{prefix}.{stat}", UNITS[stat])
                for prefix, (_, stats) in FUNCTIONS.items()
                for stat in stats]
             + DERIVED]


# ---------------------------------------------------------------------------
# running one document
# ---------------------------------------------------------------------------

def child_env():
    """The environment every gradex process gets: the checkout's
    sources, a fixed hash seed, and nothing that changes gradex's own
    seed or stops bytecode caching."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for key in ("GRADEX_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def run_process(argv, cwd, env, timeout=DOC_TIMEOUT_S):
    """Run one process to completion: (wall_s, exit code or None when
    it timed out and was killed, stdout, rusage).  The rusage is this
    child's own, read with wait4."""
    timed_out = False
    with open(cwd / ".stdout", "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)

        def expire(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return wall, None if timed_out else proc.returncode, stdout, usage


def speed_probe():
    """Seconds a fixed pure-Python loop takes, fastest of three tries:
    how fast the machine runs Python right now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(SPEED_PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def gradex_argv(doc):
    return [sys.executable, "-m", "gradex.cli"] + doc["argv"]


def traced_argv(doc, spans_path):
    # run as a module, so that its bytecode is cached like gradex's
    return [sys.executable, "-m", "tracer", str(spans_path),
            doc["id"]] + doc["argv"]


def run_pass(docs, expected, seed, workdir, env, hard_deadline,
             traced=False, timeout=DOC_TIMEOUT_S):
    """One pass over the corpus in order.  Returns (samples, spans) where
    samples are {"id", "wall_s", "probe_s", "ok", "rss_kb"} and spans the
    traced documents' span records; None when the hard deadline cut the
    pass.  ``probe_s`` is the mean of the speed probes just before and
    just after the document."""
    samples, spans = [], []
    spans_path = workdir / ".spans"
    if traced:
        env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"],
                                                    str(BENCH)]))
    probe = speed_probe()
    for doc in docs:
        if time.perf_counter() > hard_deadline:
            return None
        argv = traced_argv(doc, spans_path) if traced else gradex_argv(doc)
        wall, code, stdout, usage = run_process(argv, workdir, env, timeout)
        before, probe = probe, speed_probe()
        ok = code == 0 and corpus.matches(expected[doc["id"]], stdout, seed)
        samples.append({"id": doc["id"], "wall_s": wall,
                        "probe_s": (before + probe) / 2, "ok": ok,
                        "rss_kb": usage.ru_maxrss})
        if traced and spans_path.exists():
            with open(spans_path, "rb") as fh:
                spans.append(dict(marshal.load(fh),
                                  probe_s=samples[-1]["probe_s"]))
            spans_path.unlink()
    return samples, spans


def failed_frac(samples):
    """Share of document runs whose exit code or report was wrong,
    timeouts included, against the runs attempted."""
    return sum(not s["ok"] for s in samples) / len(samples)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def scaled(sample):
    """A sample's wall time at the reference machine speed."""
    return sample["wall_s"] * REFERENCE_PROBE_S / sample["probe_s"]


def median_pass(passes):
    return statistics.median(sum(scaled(s) for s in p) for p in passes)


def end_to_end_metrics(setup, passes):
    samples = [s for p in passes for s in p]
    walls = [scaled(s) for s in samples]
    return {
        "setup_s": statistics.median(scaled(s) for s in setup),
        "pass_s": median_pass(passes),
        "doc_s.p50": statistics.median(walls),
        "doc_s.p90": statistics.quantiles(walls, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": max(s["rss_kb"] for s in samples) / 1024,
        "ok_frac": 1 - failed_frac(samples),
    }


def span_totals(records):
    """Per span name: calls, self time (at the reference machine speed)
    and summed extras over the span records of many documents."""
    totals = {}
    for rec in records:
        spans = rec["spans"]
        speed = REFERENCE_PROBE_S / rec["probe_s"]
        child = [0.0] * len(spans)
        for name, start, end, parent, extra in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, extra), inner in zip(spans, child):
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "cells": 0, "samples": 0,
                                         "found": 0})
            t["calls"] += 1
            t["self_s"] += ((end - start) - inner) * speed
            for key, value in (extra or {}).items():
                t[key] += value
    return totals


def per_layer_metrics(records, traced_passes, untraced_passes, setup):
    """Per-layer metrics, each per traced pass over the corpus.  The
    coverage compares means: the set-up probes run between the passes,
    so machine noise inflates its numerator and denominator alike."""
    n_passes, n_docs = len(traced_passes), len(traced_passes[0])
    totals = span_totals(records)
    covered = sum(t["self_s"] for t in totals.values()) / n_passes
    out = {}
    for layer in LAYERS:
        mine = [t for name, t in totals.items()
                if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(t["calls"] for t in mine) / n_passes
        out[f"{layer}.self_s"] = sum(t["self_s"] for t in mine) / n_passes
    empty = {"calls": 0, "self_s": 0.0, "cells": 0, "samples": 0, "found": 0}
    for prefix, (names, stats) in FUNCTIONS.items():
        for stat in stats:
            out[f"{prefix}.{stat}"] = sum(totals.get(n, empty)[stat]
                                          for n in names) / n_passes
    tw = totals.get("exactla.invertible_intertwiner", empty)
    traced = median_pass(traced_passes)
    untraced = median_pass(untraced_passes)
    out.update({
        "gcore.nilradical.calls_per_doc":
            out["gcore.nilradical.calls"] / n_docs,
        "gcore.size_guard.refusals": sum(
            r["counters"].get("gcore.size_guard.refusals", 0)
            for r in records) / n_passes,
        "exactla.invertible_intertwiner.samples_used":
            tw["samples"] / n_passes,
        "exactla.invertible_intertwiner.found_per_sample":
            tw["found"] / tw["samples"] if tw["samples"] else 0.0,
        "trace.traced_pass_s": traced,
        "trace.untraced_pass_s": untraced,
        "trace.overhead_ratio": traced / untraced,
        "trace.coverage": (covered + n_docs * statistics.mean(
            scaled(s) for s in setup)) / statistics.mean(
                sum(scaled(s) for s in p) for p in traced_passes),
    })
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "gradex").glob("*.py")))


def provenance(args, counts):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "src_gradex_lines": src_lines(), **counts}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def list_metrics():
    print("end-to-end (--trace 0), one value per run:")
    for name, unit, better, bound in END_TO_END:
        print(f"  {name:44s} {unit:6s} {better} is better "
              f"(regression bound {bound:.0%})")
    print("per-layer (--trace 1), per traced pass over the corpus:")
    for name, unit, better in PER_LAYER:
        print(f"  {name:44s} {unit:6s} {better} is better")


def setup_times(workdir, env):
    """Samples {"wall_s", "probe_s"} of a fresh interpreter importing
    gradex.cli, bracketed by speed probes like the documents."""
    times = []
    probe = speed_probe()
    for _ in range(SETUP_PROBES):
        wall, code, _, _ = run_process(
            [sys.executable, "-c", "import gradex.cli"], workdir, env)
        if code != 0:
            raise RuntimeError("gradex.cli does not import")
        before, probe = probe, speed_probe()
        times.append({"wall_s": wall, "probe_s": (before + probe) / 2})
    return times


def measure(docs, expected, args, workdir, env, t_start):
    """Repeat rounds until --seconds is used up: set-up probes, then a
    pass (trace 1: an untraced and a traced pass).  Spreading the probes
    over the run keeps a slow moment at its start from deciding
    setup_s.  Returns (setup samples, untraced passes, traced passes,
    span records)."""
    hard_deadline = t_start + HARD_LIMIT_S
    # warm the file cache and bytecode before timing
    run_pass(docs[:1], expected, args.seed, workdir, env, hard_deadline)
    deadline = time.perf_counter() + args.seconds
    min_rounds = 1 if args.trace else math.ceil(MIN_SAMPLES / len(docs))
    setup, plain, traced, records, rounds = [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        setup += setup_times(workdir, env)
        got = run_pass(docs, expected, args.seed, workdir, env,
                       hard_deadline)
        if got is None:
            break
        plain.append(got[0])
        if args.trace:
            got = run_pass(docs, expected, args.seed, workdir, env,
                           hard_deadline, traced=True)
            if got is None:
                break
            traced.append(got[0])
            records.extend(got[1])
        rounds.append(time.perf_counter() - t0)
        now = time.perf_counter()
        estimate = statistics.median(rounds)
        if now + estimate > hard_deadline:
            break
        if len(rounds) >= min_rounds and now + estimate > deadline:
            break
    return setup, plain, traced, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every metric with its unit and direction")
    args = ap.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    t_start = time.perf_counter()
    if not (SRC / "gradex" / "cli.py").is_file():
        print(f"no gradex sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected" / f"{args.workload}.json")
                          .read_text())
    docs = corpus.corpus(args.workload, args.seed)
    missing = [d["id"] for d in docs if d["id"] not in expected]
    if missing:
        print(f"no expected report for {missing}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for d in docs:
            for name, text in d["files"].items():
                (workdir / name).write_text(text)
        setup, plain, traced, records = measure(
            docs, expected, args, workdir, env=child_env(), t_start=t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for p in plain + traced for s in p]
    if not plain or (args.trace and not traced):
        print("no complete pass before the hard time limit", file=sys.stderr)
        return 2
    if args.trace:
        metrics = per_layer_metrics(records, traced, plain, setup)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(setup, plain)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    counts = {"documents": len(docs), "untraced_passes": len(plain),
              "traced_passes": len(traced), "document_runs": len(samples),
              "setup_probes": len(setup)}
    failures = sorted({s["id"] for s in samples if not s["ok"]})
    result = {"correct": not failures, "attempted": len(samples),
              "failed": sum(not s["ok"] for s in samples),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "provenance": provenance(args, counts),
        "failed_frac": failed_frac(samples),
        "failed_documents": failures,
        "setup_samples": setup,
        "samples": samples,
        **result}, indent=1))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(records))

    print(f"gradex {args.workload} seed={args.seed} " + " ".join(
        f"{k}={v}" for k, v in counts.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if failures:
        print(f"failed documents: {', '.join(failures)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
