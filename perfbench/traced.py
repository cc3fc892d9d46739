"""Traced entry point: run one qortho CLI command with every call that
crosses a module boundary timed.

    PYTHONPATH=src python3 perfbench/traced.py TRACE_OUT -- verify --q 0.5 ...

A qortho module that imports a function from another qortho module holds
its own reference to it.  That reference is replaced, in the importing
module's namespace, by a timing wrapper, so a span starts exactly where one
layer calls into another; calls inside a module resolve through its own
globals and stay untimed.  Classes are left alone, since a wrapper would
break isinstance checks, so time spent in their methods counts to the
caller.  The wrap list comes from introspection (`wrap_list`), so a new
cross-module import is traced without touching this file.

The command's output and exit code pass through unchanged; the aggregate
trace is written to TRACE_OUT as JSON when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "qortho"

# Calls to these are recorded under "<prefix>.<first argument>", one key
# per identity family, instead of under the function's own name.
KEY_BY_FIRST_ARG = {"orthogonality.run_identity_checks": "orthogonality.family"}
# How many distinct argument tuples reach these: repeats are wasted work.
COUNT_DISTINCT_ARGS = {"polynomials.spectral_sequence"}
# Sum of len(result): the eigenvalues a call computed.
COUNT_RESULT_ITEMS = {"operators.eig_tridiagonal"}


def layer_modules() -> dict:
    """Every submodule of the package, keyed by its short name.  `__main__`
    is skipped: it is a launcher, not a layer."""
    package = importlib.import_module(PACKAGE)
    return {
        info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("__")
    }


def wrap_list(modules: dict) -> list:
    """(importing layer, name, defining layer) for every function that one
    layer's namespace holds and another layer defines."""
    prefix = PACKAGE + "."
    out = []
    for layer, module in sorted(modules.items()):
        for name, value in sorted(vars(module).items()):
            home = getattr(value, "__module__", None) or ""
            if inspect.isfunction(value) and home.startswith(prefix) and home != module.__name__:
                out.append((layer, name, home[len(prefix):]))
    return out


class Tracer:
    """Aggregates boundary spans in memory: calls and inclusive seconds per
    callee key, and self seconds per layer (a span's duration minus the
    part its child spans cover)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.items: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._child_time: list = []
        self._active: Counter = Counter()

    def call(self, key: str, layer: str, fn, args: tuple, kwargs: dict):
        if key in COUNT_DISTINCT_ARGS:
            self.distinct[key].add(repr((args, sorted(kwargs.items()))))
        self._child_time.append(0.0)
        self._active[key] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if key in COUNT_RESULT_ITEMS:
                self.items[key] += len(result)
            return result
        finally:
            duration = perf_counter() - t0
            child = self._child_time.pop()
            self._active[key] -= 1
            self.calls[key] += 1
            # a key already open further up the stack has its time counted there
            if not self._active[key]:
                self.seconds[key] += duration
            self.self_seconds[layer] += duration - child
            if self._child_time:
                self._child_time[-1] += duration

    def _wrapper(self, key: str, layer: str, fn):
        prefix = KEY_BY_FIRST_ARG.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_key = f"{prefix}.{args[0]}" if prefix else key
            return self.call(span_key, layer, fn, args, kwargs)

        return traced

    def install(self, modules: dict) -> int:
        entries = wrap_list(modules)
        for importer, name, home in entries:
            fn = getattr(modules[importer], name)
            setattr(modules[importer], name, self._wrapper(f"{home}.{name}", home, fn))
        return len(entries)

    def as_dict(self, wrapped: int) -> dict:
        return {
            "wrapped": wrapped,
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "items": dict(self.items),
            "distinct": {key: len(seen) for key, seen in self.distinct.items()},
        }


def main(argv: list) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: traced.py TRACE_OUT -- <qortho arguments>", file=sys.stderr)
        return 64
    out_path, cli_args = argv[1], argv[3:]
    modules = layer_modules()
    tracer = Tracer()
    wrapped = tracer.install(modules)
    try:
        return tracer.call(f"cli.{cli_args[0]}", "cli", modules["cli"].main, (cli_args,), {})
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.as_dict(wrapped), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
