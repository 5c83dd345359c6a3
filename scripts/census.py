#!/usr/bin/env python3
"""Run CLI commands over a grid of rings and of abelian groups and print each outcome.

    PYTHONPATH=src python3 scripts/census.py [--max-square 5000] [--max-order 0] > census.txt

The ring grid is both ring families with p in {2, 3, 5}, d and n in
{1, 2, 3} and |R|^2 at most --max-square (0 skips it).  Each ring gets
`ring-info` (text and JSON), then, for each h in 2, 3, 4, 5, 6, 10, 12,
`construct local-lines` and `construct local-partition` for each t in 1..d,
unseeded and with --seed 7.

The group grid, up to order --max-order (0, the default, skips it), is every
`cyclic:n`, every `abelian:` list of non-decreasing factors > 1, in
invariant-factor form or not, and every valid `semidirect:m,k,t` with k >= 2
(0 <= t < m, gcd(t, m) = 1, t^k = 1 mod m), each with h = min_h(n) and
2 min_h(n); the semidirect groups run with the multiplier 1 and, where
gcd(5, n) = 1, also with --m 5.  Each gets `construct group` to stdout and,
after exit 0, `verify` of that matrix, `export-array` (the digest is that of
the written .arr; a semidirect group exits 2 there and stops),
`verify-array`, and `verify-array` of a copy with one seeded entry shifted.

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
import math
import os
import random
import shlex
import tempfile
from pathlib import Path

from butson import cli, fileio
from butson.construct import min_h
from butson.groups import Unimodular

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


def factor_lists(order: int, least: int = 2):
    """The non-decreasing lists of factors >= least whose product is order."""
    for f in range(least, order + 1):
        if order % f == 0:
            if f == order:
                yield (f,)
            for rest in factor_lists(order // f, f):
                yield (f, *rest)


def groups(max_order: int):
    """The group descriptors of the census, by order: cyclic, abelian, then semidirect."""
    for n in range(1, max_order + 1):
        yield n, f"cyclic:{n}"
        for factors in factor_lists(n):
            yield n, "abelian:" + ",".join(map(str, factors))
        for k in (k for k in range(2, n + 1) if n % k == 0):
            m = n // k
            for t in range(m):
                if math.gcd(t, m) == 1 and pow(t, k, m) == 1 % m:
                    yield n, f"semidirect:{m},{k},{t}"


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and first stderr line of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback exits 1; record it
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    first = err.getvalue().partition("\n")[0]
    return code, out.getvalue(), first


def report(argv: list[str], written: str | None = None) -> tuple[int, str]:
    """Run argv, print its line and return its exit code and stdout.

    After exit 0, the line's digest is of the file `written`, if given.
    """
    code, out, first = run(argv)
    digested = Path(written).read_text() if written and code == 0 else out
    digest = hashlib.sha256(digested.encode()).hexdigest()
    print(f"{shlex.join(argv)}\t{code}\t{digest}\t{first}", flush=True)
    return code, out


def group_case(n: int, spec: str, h: int, m: int = 1) -> None:
    """`construct group` over spec; after exit 0, the checks of its matrix and array."""
    multiplier = ["--m", str(m)] if m != 1 else []
    code, out = report(["construct", "group", "--order", str(n), "--h", str(h), "--group", spec, *multiplier])
    if code != 0:
        return
    Path("g.bh").write_text(out)
    report(["verify", "g.bh"])
    if report(["export-array", "g.bh", "--out", "g.arr"], "g.arr")[0] != 0:
        return
    report(["verify-array", "g.arr"])
    if h > 1:  # shift one seeded entry by a nonzero amount
        D = fileio.read_array("g.arr")
        rng = random.Random(f"{spec} {h}")
        i = rng.randrange(D.e.size)
        e = D.e.copy()
        e[i] = (int(e[i]) + rng.randrange(1, h)) % h  # in Python ints: a narrow e[i] + shift would wrap
        Path("m.arr").write_text(fileio.format_array(Unimodular(D.group, h, e)))
        report(["verify-array", "m.arr"])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-square", type=int, default=5000, help="largest |R|^2 in the ring grid")
    ap.add_argument("--max-order", type=int, default=0, help="largest group order in the group grid")
    args = ap.parse_args()
    for argv in cases(args.max_square):
        report(argv)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the group grid's files have the same short names in every run
        try:
            for n, spec in groups(args.max_order):
                # semidirect groups also run with the multiplier 5 where it is coprime to n
                multipliers = (1, 5) if spec.startswith("semidirect:") and math.gcd(5, n) == 1 else (1,)
                for m in multipliers:
                    for h in (min_h(n), 2 * min_h(n)):
                        group_case(n, spec, h, m)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
