"""Span recorder for one traced gradex call, run in its own process
with src/ and bench/ on PYTHONPATH:

    python -m tracer SPANS_OUT DOC_ID SUBCOMMAND ARGS...

It imports gradex, wraps every public function a ``gradex.*`` module
defines (in every module namespace that binds it, so ``from .gcore
import nilradical`` inside ``gmod`` is traced too), the private helpers
in PRIVATE_SPANS, and the ``__init__`` and ``verify`` methods of its
classes, then runs ``gradex.cli.run`` on the arguments.  Other private
helpers get no span: their time counts toward the public function of
their own module that called them.  Spans [name, start, end, parent
index, extra] stay in memory and are written to SPANS_OUT, under the
document id, in ``marshal`` format when the call returns.  The exit
code and standard output are gradex's own.

Generator functions are not wrapped: a span around one would close
before any of its work ran.  Their time counts toward the caller.
"""

from __future__ import annotations

import functools
import marshal
import sys
import time
import types

WRAPPED_METHODS = ("__init__", "verify")
CO_GENERATOR = 0x20     # inspect.CO_GENERATOR, without importing inspect

# private helpers that get a span of their own: the CLI's parse and emit
# steps, and the one gmod helper that ghom calls directly (without a
# span its time would count toward ghom)
PRIVATE_SPANS = {"cli._load", "cli._degrees_from_json", "cli._sparse_tensor",
                 "cli._emit", "cli._hilbert_json", "cli._betti_json",
                 "gmod._submodule_span"}


def _cells(args):
    """Entries of the (first) matrix argument: rows x cols, and for
    mat_mul(field, A, B) the product size n*k*m."""
    A = args[1]
    if len(args) > 2 and isinstance(args[2], list):
        B = args[2]
        return len(A) * len(B) * (len(B[0]) if B else 0)
    return len(A) * (len(A[0]) if A else 0)


def _intertwiner(result):
    return {"samples": result.samples_used, "found": result.status == "found"}


# span name -> what to record besides the times: f(args, result)
EXTRA = {
    "exactla.mat_mul": lambda args, result: {"cells": _cells(args)},
    "exactla.rref": lambda args, result: {"cells": _cells(args)},
    "exactla.invertible_intertwiner":
        lambda args, result: _intertwiner(result),
}


class Recorder:
    """Spans of one document, in call order; ``stack`` holds the indices
    of the spans still open."""

    def __init__(self, doc_id):
        self.doc_id = doc_id
        self.spans = []
        self.stack = []
        self.counters = {}

    def wrap(self, name, fn):
        extra = EXTRA.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[4] = extra(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def count(self, key):
        self.counters[key] = self.counters.get(key, 0) + 1

    def dump(self, path):
        # marshal: a traced document can hold thousands of spans, and
        # json.dump would add tens of milliseconds to its process
        with open(path, "wb") as fh:
            marshal.dump({"doc": self.doc_id, "counters": self.counters,
                          "spans": self.spans}, fh)


def span_name(fn):
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__.replace('.<locals>.', '.')}"


def install(recorder, modules):
    """Replace every gradex function in every namespace that binds it
    (module globals and module-level dispatch dicts) by one traced
    wrapper, and count size-guard refusals."""
    by_file = {m.__file__ for m in modules if getattr(m, "__file__", None)}
    wrappers = {}

    def wrapped(fn):
        # plain functions whose code lives in a gradex module's file:
        # this skips generated dataclass methods and imported helpers
        if (not isinstance(fn, types.FunctionType)
                or fn.__code__.co_filename not in by_file
                or fn.__code__.co_flags & CO_GENERATOR):
            return None
        name = span_name(fn)
        if fn.__name__.startswith("_") and fn.__name__ not in \
                WRAPPED_METHODS and name not in PRIVATE_SPANS:
            return None
        if fn not in wrappers:
            wrappers[fn] = recorder.wrap(name, fn)
        return wrappers[fn]

    for module in modules:
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    w = wrapped(v)
                    if w is not None:
                        value[k] = w
            elif isinstance(value, type) and value.__module__ == \
                    module.__name__:
                for meth in WRAPPED_METHODS:
                    w = wrapped(value.__dict__.get(meth))
                    if w is not None:
                        setattr(value, meth, w)
            else:
                w = wrapped(value)
                if w is not None:
                    setattr(module, key, w)

    from gradex.gcore import SizeGuardExceeded

    def refused(self, *args):
        recorder.count("gcore.size_guard.refusals")
        RuntimeError.__init__(self, *args)
    SizeGuardExceeded.__init__ = refused


def main(argv):
    spans_out, doc_id, cli_args = argv[0], argv[1], argv[2:]
    import gradex.cli
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "gradex" or name.startswith("gradex.")]
    recorder = Recorder(doc_id)
    install(recorder, modules)
    try:
        code = gradex.cli.run(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
