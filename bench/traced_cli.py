"""Run one butson CLI command with a span around every call into a layer.

    python3 bench/traced_cli.py TRACE_JSON -- CLI_ARGS...

The layers are the package's modules.  Each public module-level function of
a layer, and each public method of ``rings.ChainRing`` (the rings layer's
interface), is wrapped before ``butson.cli.main`` runs.  Spans are kept in
memory, aggregated per function and per (caller, callee) pair, and written to
TRACE_JSON when the command ends, whether it returns, fails or raises.  The
package itself is not modified: the wrappers live only in this file.

TRACE_JSON holds::

    root_s         duration of the cli.main span
    funcs          "layer.name" -> [calls, total_s, self_s]
    edges          "caller>callee" -> [calls, total_s]; the caller of a
                   top-level span is "-"
    bytes_read     characters returned by Path.read_text
    bytes_written  characters passed to Path.write_text
    groups_built   groups whose Cayley table was built (groups._finish)
    table_cells    sum of order**2 over those groups
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import sys
import time

LAYERS = ("cli", "fileio", "groups", "rings", "sums", "cyclotomic", "construct", "verify", "arrays")


class Tracer:
    def __init__(self) -> None:
        self.funcs: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.stack: list[list] = []  # [key, time covered by child spans]
        self.counters = {"bytes_read": 0, "bytes_written": 0, "groups_built": 0, "table_cells": 0}

    def wrap(self, key: str, fn):
        stats = self.funcs.setdefault(key, [0, 0.0, 0.0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    caller = stack[-1][0]
                else:
                    caller = "-"
                edge = edges.get((caller, key))
                if edge is None:
                    edge = edges[(caller, key)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt

        return span

    def install(self) -> None:
        mods = {name: importlib.import_module(f"butson.{name}") for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        # rebind every name that refers to a wrapped function, so calls made
        # through `from .x import f` bindings in other modules are seen too
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "butson":
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        ring_cls = mods["rings"].ChainRing
        for name, obj in list(vars(ring_cls).items()):
            if not name.startswith("_") and callable(obj):
                setattr(ring_cls, name, self.wrap(f"rings.ChainRing.{name}", obj))
        self._count_io_and_tables(mods["groups"])

    def _count_io_and_tables(self, groups) -> None:
        counters = self.counters
        read_text, write_text, finish = pathlib.Path.read_text, pathlib.Path.write_text, groups._finish

        def counted_read(path, *args, **kwargs):
            text = read_text(path, *args, **kwargs)
            counters["bytes_read"] += len(text)
            return text

        def counted_write(path, data, *args, **kwargs):
            counters["bytes_written"] += len(data)
            return write_text(path, data, *args, **kwargs)

        def counted_finish(table, *args, **kwargs):
            counters["groups_built"] += 1
            counters["table_cells"] += len(table) ** 2
            return finish(table, *args, **kwargs)

        pathlib.Path.read_text = counted_read
        pathlib.Path.write_text = counted_write
        groups._finish = counted_finish

    def dump(self, path: str) -> None:
        root = self.funcs.get("cli.main", [0, 0.0, 0.0])
        payload = {
            "root_s": root[1],
            "funcs": self.funcs,
            "edges": {f"{a}>{b}": v for (a, b), v in self.edges.items()},
            **self.counters,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_cli.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    from butson import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
