"""Write bench/expected/<workload>.json: the report gradex prints for
every document of the default seed, byte for byte.

    python3 bench/snapshot.py [WORKLOAD ...]

A document that does not exit 0 stops the script: the corpus holds only
calls that succeed.  Rerun it only when a change is meant to alter a
report, and review the diff of the snapshot like code.
"""

from __future__ import annotations

import json
import shutil
import sys

import corpus
import run


def snapshot(workload):
    docs = corpus.corpus(workload, corpus.DEFAULT_SEED)
    workdir = run.BENCH / ".work" / f"snapshot-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reports = {}
    try:
        for d in docs:
            for name, text in d["files"].items():
                (workdir / name).write_text(text)
            wall, code, stdout, _ = run.run_process(
                run.gradex_argv(d), workdir, run.child_env())
            if code != 0:
                raise SystemExit(f"{workload}/{d['id']}: exit {code}")
            reports[d["id"]] = stdout
            print(f"{workload:14s} {d['id']:32s} {wall:6.2f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = run.BENCH / "expected" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(dict(sorted(reports.items())), indent=1) + "\n")


if __name__ == "__main__":
    for w in sys.argv[1:] or sorted(corpus.WORKLOADS):
        snapshot(w)
