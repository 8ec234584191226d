"""Reach map: the functions of src/gradex that a pytest run never calls.

    python tests/reach_map.py [PYTEST ARGS ...]

runs pytest in this process under a ``sys.setprofile`` hook, then
prints every function and method defined in src/gradex that no call
reached, one ``file:line qualname`` a line.  For example

    python tests/reach_map.py -q -p no:cacheprovider \\
        tests/test_cli.py tests/test_snapshot.py tests/test_entry.py

maps what the CLI tests reach.  Code that only a subprocess runs (the
console entry ``cli.main``) is listed as never called.  The hook slows
every Python call, so the wall-time budget tests may fail under it:
pytest does not collect this file, and the suite never runs it.  The
exit code is pytest's.
"""

import os
import pathlib
import sys
from inspect import CO_NEWLOCALS  # set on functions, not on class bodies

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def defined_functions():
    """Every function code object compiled from src/gradex, comprehension
    and lambda bodies left out."""
    out = []
    for path in sorted((SRC / "gradex").glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            for c in code.co_consts:
                if isinstance(c, type(code)):
                    todo.append(c)
                    if c.co_flags & CO_NEWLOCALS and \
                            not c.co_name.startswith("<"):
                        out.append(c)
    return out


def key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno


def main(args):
    sys.path.insert(0, str(SRC))
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
    sys.setprofile(hook)
    try:
        code = pytest.main(args)
    finally:
        sys.setprofile(None)
    called = {key(c) for c in seen}
    unreached = [c for c in defined_functions() if key(c) not in called]
    unreached.sort(key=lambda c: (c.co_filename, c.co_firstlineno))
    print(f"never called: {len(unreached)} functions of src/gradex")
    for c in unreached:
        name = getattr(c, "co_qualname", c.co_name)
        print(f"{pathlib.Path(c.co_filename).name}:{c.co_firstlineno} "
              f"{name}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
