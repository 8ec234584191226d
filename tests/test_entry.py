"""The console entry ``python -m gradex.cli`` as a process.

``main`` flushes stdout and stderr and ends the process with
``os._exit``, so these tests run it in a subprocess (calling it here
would end pytest) and hold its output to that of the in-process
``run``.  Every case runs with stdout block-buffered (PYTHONUNBUFFERED
unset) and unbuffered (set)."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import gradex.cli as cli
from gradex.exactla import QQ
import samples as S
from test_cli import (HELP_TEXTS, MODULE_QX4_X2, MODULE_R, PSI_Z_TO_0,
                      RING_F5X2, RING_QX2)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PIPE_ERROR = {"error": "[Errno 32] Broken pipe", "kind": "validation"}


@pytest.fixture(params=[None, "1"], ids=["buffered", "unbuffered"])
def env(request):
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    if request.param:
        env["PYTHONUNBUFFERED"] = request.param
    return env


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("entry")
    files = {"ring.json": RING_QX2, "f5x2.json": RING_F5X2,
             "R.json": MODULE_R, "psi0.json": PSI_Z_TO_0,
             "x64.json": cli.ring_to_json(
                 S.truncated_polynomial_algebra(QQ, 64))}
    for name, doc in files.items():
        (d / name).write_text(json.dumps(doc))
    (d / "broken.json").write_text("{oops")
    return d


def gradex(argv, env, **kw):
    kw.setdefault("stdout", subprocess.PIPE)
    kw.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "gradex.cli", *argv],
                          env=env, timeout=60, **kw)


def in_process(argv, capsys):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def into_closed_pipe(argv, env, stream="stdout", **kw):
    """Run with stdout (or stderr) a pipe whose read end is already
    closed."""
    r, w = os.pipe()
    os.close(r)
    try:
        return gradex(argv, env, **{stream: w}, **kw)
    finally:
        os.close(w)


def one_json_line(err):
    assert b"Traceback" not in err
    text = err.decode()
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


SUBCOMMANDS = [
    ["classify", "ring.json", "--text"],
    ["coarsen", "ring.json", "--psi", "psi0.json"],
    ["module", "R.json", "--seed", "7"],
    ["resolve", "R.json"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_stdout_is_byte_identical_to_run(argv, docs, env, capsys,
                                         monkeypatch):
    monkeypatch.chdir(docs)
    proc = gradex(argv, env, cwd=docs)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        in_process(argv, capsys)


def test_large_report_arrives_whole_through_a_pipe(docs, env, capsys):
    argv = ["coarsen", str(docs / "x64.json"), "--psi",
            str(docs / "psi0.json"), "--text"]
    proc = gradex(argv, env)
    code, out, _ = in_process(argv, capsys)
    assert proc.returncode == code == 0 and proc.stderr == b""
    assert len(out) > 64 * 1024 and proc.stdout == out


FAILURES = [
    (["frobnicate", "x.json"], 1, None),
    (["classify", "broken.json"], 2, "validation"),
    (["spec", "f5x2.json"], 3, "size-guard"),
    # argv errors
    (["classify", "ring.json", "--field", "Q"], 2, "validation"),
    (["coarsen", "ring.json"], 2, "validation"),
    (["resolve", "R.json", "--cutoff", "x"], 2, "validation"),
    (["classify", "ring.json", "--json", "--text"], 2, "validation"),
    (["classify", "ring.json", "extra.json"], 2, "validation"),
    (["coarsen", "ring.json", "--psi=--"], 2, "validation"),
]


@pytest.mark.parametrize("argv, code, kind", FAILURES)
def test_failures_print_one_json_line(argv, code, kind, docs, env):
    proc = gradex(argv, env, cwd=docs)
    assert proc.returncode == code and proc.stdout == b""
    err = one_json_line(proc.stderr)
    assert err.get("kind") == kind and err["error"]


@pytest.mark.parametrize("closed", ["pipe", "descriptor"])
@pytest.mark.parametrize("argv, code, kind", FAILURES)
def test_failure_code_survives_a_closed_stderr(argv, code, kind, closed,
                                               docs, env):
    # the JSON error line has nowhere to go; the exit code stays, and
    # with fd 2 closed the line does not land on stdout instead
    if closed == "pipe":
        proc = into_closed_pipe(argv, env, stream="stderr", cwd=docs)
    else:
        proc = gradex(argv, env, cwd=docs, stderr=None,
                      preexec_fn=lambda: os.close(2))
    assert proc.returncode == code and proc.stdout == b""


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]],
                         ids=" ".join)
def test_help_texts(argv, env):
    proc = gradex(argv, env)
    assert proc.returncode == 0 and proc.stderr == b""
    key = tuple("-h" if a == "--help" else a for a in argv)
    assert proc.stdout.decode() == HELP_TEXTS[key]


def test_small_report_into_closed_pipe_is_a_validation_error(docs, env):
    # with stdout block-buffered, the report is still in the buffer when
    # run returns: the entry's own flush is what meets the closed pipe
    proc = into_closed_pipe(["classify", str(docs / "ring.json")], env)
    assert proc.returncode == 2
    assert one_json_line(proc.stderr) == PIPE_ERROR


def test_large_report_into_closed_pipe_is_a_validation_error(docs, env):
    proc = into_closed_pipe(["coarsen", str(docs / "x64.json"), "--psi",
                             str(docs / "psi0.json"), "--text"], env)
    assert proc.returncode == 2
    assert one_json_line(proc.stderr) == PIPE_ERROR


def test_closed_stdout_descriptor_exits_zero(docs, env):
    # with fd 1 closed, sys.stdout is None and print writes nothing
    proc = gradex(["classify", str(docs / "ring.json")], env,
                  stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr == b""


def test_schanuel_refuses_a_long_glue_at_once(env):
    # --n 32 over Q[X]/(X^4) modulo <X^2>: dim K_32 = 2 * 3^32 on the
    # non-minimal side, refused before either resolution is built
    t0 = time.perf_counter()
    proc = gradex(["schanuel", json.dumps(MODULE_QX4_X2), "--n", "32"], env)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 3 and proc.stdout == b""
    assert json.loads(proc.stderr)["kind"] == "size-guard"
