#!/usr/bin/env python3
"""Compare the cold start of butson CLI commands between two source trees.

    python3 scripts/coldstart.py OLD_SRC NEW_SRC --rounds 10 \\
        --command "ring-info --family galois --p 2 --d 1 --n 1" --importtime

Each command runs in a fresh interpreter with PYTHONPATH set to one tree's
`src` directory and the rest of the environment inherited, so a setting such
as PYTHONDONTWRITEBYTECODE applies as it does to users.  A round runs every
command once on each side, and the side that runs first alternates from
round to round.  Wall and CPU (user + sys) time and peak memory (ru_maxrss)
come from `os.wait4`, for the child alone.  For each command the script
prints each side's median and quartiles, in ms or MB, and in how many pairs
NEW_SRC was faster or smaller (ties count for neither side).  Each round
also runs the bare interpreter (`python -c pass`, with the same flags and
environment), and the report ends with its medians and quartiles as one
row: the floor no change to the package can go below.  That row also gives
the launcher's own peak memory: a child starts as a copy of the launcher,
so a peak at or below it is the launcher's, not the command's.  With
--importtime it first runs each command once more per side under `python
-X importtime` and prints whether it imported numpy, the butson modules it
imported, in order, and the number and total self time of all modules
imported.
Commands run in the current directory; files they name are resolved there.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

CLI = ["-c", "import sys; from butson.cli import main; sys.exit(main())"]
BARE = ["-c", "pass"]
TRIVIAL = "ring-info --family galois --p 2 --d 1 --n 1"
# name, unit, scale from the sample, and the words for a lower and a higher new reading
METRICS = (("wall", "ms", 1000.0, "faster", "slower"), ("cpu", "ms", 1000.0, "faster", "slower"),
           ("rss", "MB", 1.0, "smaller", "larger"))
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| *(\S+)")


def run(src: Path, args: list[str], *flags: str) -> tuple[int, float, float, float, str]:
    """Exit code, wall s, CPU s, peak MB and stderr of `python *flags *args` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *flags, *args], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, err


def import_report(src: Path, argv: list[str]) -> str:
    """Whether one call imports numpy, the butson modules it imports, in order, and totals over all its imports."""
    *_, err = run(src, [*CLI, *argv], "-X", "importtime")
    found = [IMPORT_LINE.match(line) for line in err.splitlines()]
    found = [m for m in found if m]
    own = [m[2] for m in found if m[2].startswith("butson.")]
    numpy = "yes" if any(m[2] == "numpy" for m in found) else "no"
    self_ms = sum(int(m[1]) for m in found) / 1000.0
    return f"{len(found)} modules, {self_ms:.1f} ms self; numpy: {numpy}; butson: {' '.join(own) or '-'}"


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="src directory of the tree to compare against")
    ap.add_argument("new", type=Path, help="src directory of the tree under test")
    ap.add_argument("--rounds", type=int, default=10, help="pairs of calls per command (default 10)")
    ap.add_argument("--command", action="append", default=None,
                    help=f"CLI arguments of one command, quoted; repeatable (default {TRIVIAL!r})")
    ap.add_argument("--importtime", action="store_true", help="also list each command's imports")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for src in sides.values():
        if not (src / "butson" / "cli.py").is_file():
            ap.error(f"no butson sources under {src}")
    commands = [shlex.split(c) for c in args.command or [TRIVIAL]]
    for side, src in sides.items():
        print(f"{side}: {src}")

    if args.importtime:
        for argv in commands:
            print(f"$ butson {shlex.join(argv)}")
            for side, src in sides.items():
                print(f"  {side}: {import_report(src, argv)}")

    # samples[command][side] = ([wall s], [cpu s], [peak MB]); codes collects every exit code
    samples = [{side: ([], [], []) for side in sides} for _ in commands]
    codes = [{side: set() for side in sides} for _ in commands]
    bare = ([], [], [])  # wall s, cpu s, peak MB of `python -c pass`
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for i, argv in enumerate(commands):
            for side in order:
                code, *sample, _ = run(sides[side], [*CLI, *argv])
                for xs, x in zip(samples[i][side], sample):
                    xs.append(x)
                codes[i][side].add(code)
        for xs, x in zip(bare, run(sides["new"], BARE)[1:4]):
            xs.append(x)

    for i, argv in enumerate(commands):
        print(f"$ butson {shlex.join(argv)}")
        print(f"  exit codes: old {sorted(codes[i]['old'])}, new {sorted(codes[i]['new'])}")
        for k, (name, unit, scale, better, worse) in enumerate(METRICS):
            old, new = (samples[i][side][k] for side in sides)
            stats = {}
            for side, xs in (("old", old), ("new", new)):
                q1, med, q3 = stats[side] = tuple(scale * q for q in quartiles(xs))
                print(f"  {name:<4} {side}: median {med:8.1f} {unit}  quartiles {q1:8.1f} {q3:8.1f}")
            wins = sum(b < a for a, b in zip(old, new))
            losses = sum(b > a for a, b in zip(old, new))
            gain, spread = stats["old"][1] - stats["new"][1], stats["old"][2] - stats["old"][0]
            print(f"  {name:<4} new {better} in {wins} of {len(old)} pairs, {worse} in {losses};"
                  f" median gain {gain:.1f} {unit}, old quartile spread {spread:.1f} {unit}")
    (w1, w2, w3), (c1, c2, c3), (_, m2, _) = (
        tuple(scale * q for q in quartiles(xs)) for xs, (_, _, scale, _, _) in zip(bare, METRICS))
    launcher = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"floor ({shlex.join(['python', *BARE])}): wall median {w2:.1f} ms quartiles {w1:.1f} {w3:.1f};"
          f" cpu median {c2:.1f} ms quartiles {c1:.1f} {c3:.1f}; rss median {m2:.1f} MB;"
          f" launcher peak {launcher:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
