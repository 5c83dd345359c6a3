#!/usr/bin/env python3
"""Run the chain-ring commands of the CLI over a grid of rings and print each outcome.

    PYTHONPATH=src python3 scripts/census.py [--max-square 5000] > census.txt

The grid is both ring families with p in {2, 3, 5}, d and n in {1, 2, 3}
and |R|^2 at most --max-square.  Each ring gets `ring-info` (text and JSON),
then, for each h in 2, 3, 4, 5, 6, 10, 12, `construct local-lines` and
`construct local-partition` for each t in 1..d, unseeded and with --seed 7.
Every call runs `butson.cli.main` in this process and prints one
tab-separated line: the arguments, the exit code, the sha256 of stdout, and
the first line of stderr.  An exception that escapes `main` prints exit code
1 and the exception in place of the stderr line, as the traceback of a real
call would end.  Two source trees are compared by running the script under
each one's `src` and diffing the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex

from butson import cli

FAMILIES = ("galois", "truncated")
PRIMES = (2, 3, 5)
DEGREES = (1, 2, 3)
LENGTHS = (1, 2, 3)
ORDERS = (2, 3, 4, 5, 6, 10, 12)
SEED = 7


def cases(max_square: int):
    """The argument lists of the census, rings in grid order."""
    for family in FAMILIES:
        for p in PRIMES:
            for d in DEGREES:
                for n in LENGTHS:
                    if p ** (2 * d * n) > max_square:
                        continue
                    ring = ["--family", family, "--p", str(p), "--d", str(d), "--n", str(n)]
                    yield ["ring-info", *ring]
                    yield ["ring-info", *ring, "--format", "json"]
                    for h in ORDERS:
                        yield ["construct", "local-lines", *ring, "--h", str(h)]
                        for t in range(1, d + 1):
                            argv = ["construct", "local-partition", *ring, "--t", str(t), "--h", str(h)]
                            yield argv
                            yield [*argv, "--seed", str(SEED)]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, sha256 of stdout and first stderr line of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback exits 1; record it
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    first = err.getvalue().partition("\n")[0]
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), first


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-square", type=int, default=5000, help="largest |R|^2 in the grid")
    args = ap.parse_args()
    for argv in cases(args.max_square):
        code, digest, first = run(argv)
        print(f"{shlex.join(argv)}\t{code}\t{digest}\t{first}", flush=True)


if __name__ == "__main__":
    main()
