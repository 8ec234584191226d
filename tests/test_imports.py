"""What ``import gradex.cli`` loads into a fresh interpreter.

Every CLI call is one process, so every module the import pulls in is
paid for by every document.  These tests read ``sys.modules``, never a
clock."""

import json
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_loads_only_gradex_and_the_standard_library():
    outside = {name for name in newly_loaded()
               if name != "gradex" and not name.startswith("gradex.")
               and name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
