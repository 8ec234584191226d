"""What ``import gradex.cli`` loads into a fresh interpreter.

Every CLI call is one process, so every module the import pulls in is
paid for by every document.  These tests read ``sys.modules`` and the
``atexit`` registry, never a clock."""

import json
import os
import pathlib
import subprocess
import sys

from test_cli import RING_QX2

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import gradex.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def newly_loaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert {"dataclasses", "inspect"} & newly_loaded() == set()


def test_cli_import_loads_neither_fractions_nor_decimal_nor_numbers():
    assert {"fractions", "decimal", "numbers"} & newly_loaded() == set()


def test_cli_import_loads_no_argument_parser():
    assert {"argparse", "gettext", "locale"} & newly_loaded() == set()


def test_cli_import_loads_only_gradex_and_the_standard_library():
    outside = {name for name in newly_loaded()
               if name != "gradex" and not name.startswith("gradex.")
               and name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


ATEXIT_PROBE = """
import atexit, json, sys
before = atexit._ncallbacks()
import gradex.cli
code = gradex.cli.run(sys.argv[1:])
print(json.dumps([before, atexit._ncallbacks(), code]))
"""


def test_cli_registers_no_atexit_hook():
    # the console entry ends with os._exit, which runs no atexit hook: an
    # import or a run that registered one would lose it silently
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, "classify",
                          json.dumps(RING_QX2)], env=env,
                         capture_output=True, text=True, check=True)
    before, after, code = json.loads(out.stdout.splitlines()[-1])
    assert code == 0 and after == before


RUN_PROBE = """
import json, sys
before = set(sys.modules)
import gradex.cli
code = gradex.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def test_classify_run_loads_no_argument_parser():
    # argparse (with gettext and locale) only renders --help texts
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", RUN_PROBE, "classify",
                          json.dumps(RING_QX2), "--oracle"], env=env,
                         capture_output=True, text=True, check=True)
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert {"argparse", "gettext", "locale"} & set(loaded) == set()


def test_cli_import_loads_every_module_of_the_package():
    # the package is what the CLI reaches: a module that only the tests
    # use belongs under tests/
    package = {"gradex"} | {f"gradex.{p.stem}" for p in
                            (SRC / "gradex").glob("*.py")
                            if p.stem != "__init__"}
    assert package - newly_loaded() == set()
