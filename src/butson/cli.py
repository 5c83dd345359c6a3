"""Command-line frontend: construct, verify, and export in batch runs.

Each command is one short process, so start-up and exit are most of its cost
at small orders.  A handler imports the modules it runs when it runs, and
`pathlib` only where it names a path: `ring-info` loads `rings` and `poly`
but not `cyclotomic` or `groups`, `verify` loads no construction, ring or
array code, and `construct group` no ring or sum code.  Every report goes
through `_print`, one JSON line under `--format json` and text otherwise,
which loads `json` only for the former.  numpy is imported only by the
modules and kernels that build arrays, so `ring-info` and `solve-sum` never
load it.  Where Python writes no bytecode cache, every module a command
imports is also compiled again on each call.

When `main` reads the process's own command line, it ends the process
itself.  It runs the atexit handlers, flushes stdout and stderr, and leaves
by `os._exit` with the command's exit code, so the interpreter does not tear
down numpy's objects and modules one by one.  If a flush fails, `main`
returns the code instead and Python's normal shutdown reports the failure as
it would have.  Usage errors and `--help` exit through argparse as before.
In-process callers pass `argv` and get the code back.

numpy runs with one BLAS thread unless OPENBLAS_NUM_THREADS is already set.
"""

from __future__ import annotations

import os

# No code path in the package calls BLAS, yet OpenBLAS starts one spinning
# thread per core when numpy loads; the handlers import numpy after this.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import atexit
import sys

from .errors import ButsonError, SelfCheckFailed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2


def _add_ring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=["galois", "truncated"])
    p.add_argument("--p", type=int, required=True, help="characteristic prime")
    p.add_argument("--d", type=int, required=True, help="residue field degree")
    p.add_argument("--n", type=int, required=True, help="chain length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butson",
        description="Construct and verify group-invariant Butson Hadamard matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="run one of the three constructions")
    csub = con.add_subparsers(dest="construction", required=True)

    cg = csub.add_parser("group", help="blocks along a normal cyclic subgroup")
    cg.add_argument("--order", type=int, required=True)
    cg.add_argument("--h", type=int, required=True)
    cg.add_argument("--m", type=int, default=1, help="multiplier coprime to the order")
    cg.add_argument("--group", default=None, help="cyclic:n | abelian:n1,n2 | semidirect:m,k,t | table:file")
    _add_out_flags(cg)

    cp = csub.add_parser("local-partition", help="partition of R x R over a chain ring")
    _add_ring_flags(cp)
    cp.add_argument("--t", type=int, required=True)
    cp.add_argument("--h", type=int, required=True)
    cp.add_argument("--seed", type=int, default=None, help="shuffle the partition")
    _add_out_flags(cp)

    cl = csub.add_parser("local-lines", help="line family of R x R over a chain ring")
    _add_ring_flags(cl)
    cl.add_argument("--h", type=int, required=True)
    _add_out_flags(cl)

    v = sub.add_parser("verify", help="verify a matrix file")
    v.add_argument("file")
    v.add_argument(
        "--full",
        action="store_true",
        help="check every row pair (all-pairs oracle); do not stop at the first failure",
    )
    v.add_argument("--format", choices=["text", "json"], default="text")

    ea = sub.add_parser("export-array", help="convert an abelian matrix to an array")
    ea.add_argument("file")
    ea.add_argument("--out", required=True)

    va = sub.add_parser("verify-array", help="verify perfect autocorrelation")
    va.add_argument("file")
    va.add_argument("--format", choices=["text", "json"], default="text")

    ss = sub.add_parser("solve-sum", help="vanishing or unit sums of roots of unity")
    ss.add_argument("--length", type=int, required=True)
    ss.add_argument("--order", type=int, required=True)
    ss.add_argument("--target", type=int, default=None)
    ss.add_argument("--format", choices=["text", "json"], default="text")

    ri = sub.add_parser("ring-info", help="inspect a supported chain ring")
    _add_ring_flags(ri)
    ri.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output matrix file (default stdout)")


def _write_out(path: str, text: str) -> None:
    from pathlib import Path

    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ButsonError(f"cannot write {path}: {exc.strerror or exc}") from None


def _print(args, payload: dict, text: str) -> None:
    """A command's report: `payload` as one JSON line under `--format json`, else `text`."""
    if args.format == "json":
        import json

        print(json.dumps(payload))
    else:
        print(text)


def _emit_matrix(args, D) -> int:
    from . import fileio
    from .verify import materialize

    # constructors check D D^(-1) = |G|: verify_bh's test of this matrix's column 0
    text = fileio.format_matrix(materialize(D.group, D))
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_construct_group(args) -> int:
    from pathlib import Path

    from . import construct, fileio

    spec = args.group or f"cyclic:{args.order}"
    G = fileio.parse_group_spec(spec, base_dir=Path.cwd())
    if G.order != args.order:
        raise ButsonError(f"group has order {G.order}, expected {args.order}")
    k = construct.block_count(G.order, construct.min_h(G.order))
    gen = construct.find_normal_cyclic_generator(G, G.order // k)
    D = construct.construct_group_bh(G, gen, args.h, m=args.m)
    return _emit_matrix(args, D)


def _cmd_local_partition(args) -> int:
    from . import construct, groups
    from .rings import chain_ring
    from .sums import zero_sum

    R = chain_ring(args.family, args.p, args.d, args.n)
    construct.check_t(R, args.t)  # before the sum of p^t roots is built
    etas = list(zero_sum(args.p**args.t, args.h).exps)
    groups.check_table_fits(construct.ring_square_group(R))  # the matrix is n x n; before R's tables
    D = construct.construct_partition_bh(R, args.t, etas, args.h, seed=args.seed)
    return _emit_matrix(args, D)


def _cmd_local_lines(args) -> int:
    from . import construct, groups
    from .rings import chain_ring

    R = chain_ring(args.family, args.p, args.d, args.n)
    if R.n >= 2:  # a shorter chain is refused first, by solve_coefficient_scheme
        groups.check_table_fits(construct.ring_square_group(R))
    scheme = construct.solve_coefficient_scheme(R, args.h)
    D = construct.construct_line_bh(R, scheme)
    return _emit_matrix(args, D)


def _cmd_verify(args) -> int:
    from . import fileio
    from .verify import verify_bh

    report = verify_bh(fileio.read_matrix(args.file), full=args.full)
    status = "ok" if report.ok else f"FAILED at {report.first_failure}"
    _print(args, vars(report), f"bh={report.is_bh} invariant={report.is_invariant} {status}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_export_array(args) -> int:
    from . import fileio
    from .groups import Unimodular
    from .verify import invariance_witness

    M = fileio.read_matrix(args.file)
    if invariance_witness(M) is not None:
        print("matrix is not group-invariant; no array exists", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    # the coefficient of g is the matrix entry at (g, identity)
    D = Unimodular(M.group, M.h, M.E[:, 0])
    _write_out(args.out, fileio.format_array(D))
    return EXIT_OK


def _cmd_verify_array(args) -> int:
    from . import fileio
    from .verify import verify_group_ring

    D = fileio.read_array(args.file)
    ok = verify_group_ring(D)  # the array is perfect iff D D^(-1) = |G|
    _print(args, {"is_perfect": ok, "dims": list(D.group.abelian_factors), "h": D.h}, f"perfect={ok}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_solve_sum(args) -> int:
    from .sums import unit_sum, zero_sum

    if args.target is None:
        w = zero_sum(args.length, args.order)
    else:
        w = unit_sum(args.length, args.order, args.target)
    _print(args, {"h": w.h, "exponents": list(w.exps), "target": w.target}, " ".join(str(e) for e in w.exps))
    return EXIT_OK


def _cmd_ring_info(args) -> int:
    from .rings import chain_ring

    R = chain_ring(args.family, args.p, args.d, args.n)
    info = {
        "ring": R.describe(),
        "order": R.size,
        "units": R.size - R.p ** (R.d * (R.n - 1)),
        "ideal_sizes": [R.p ** (R.d * (R.n - t)) for t in range(R.n + 1)],  # |I^t|
        "additive_type": list(R.additive_factors),
    }
    _print(args, info, f"ring:          {info['ring']}\n"
                       f"order:         {info['order']}\n"
                       f"units:         {info['units']}\n"
                       f"ideal sizes:   {info['ideal_sizes']}\n"
                       f"additive type: Z_" + " x Z_".join(str(f) for f in info["additive_type"]))
    return EXIT_OK


# keyed by (command, construction); only `construct` has a construction
_HANDLERS = {
    ("construct", "group"): _cmd_construct_group,
    ("construct", "local-partition"): _cmd_local_partition,
    ("construct", "local-lines"): _cmd_local_lines,
    ("verify", None): _cmd_verify,
    ("export-array", None): _cmd_export_array,
    ("verify-array", None): _cmd_verify_array,
    ("solve-sum", None): _cmd_solve_sum,
    ("ring-info", None): _cmd_ring_info,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[(args.command, getattr(args, "construction", None))]
    try:
        code = handler(args)
    except SelfCheckFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        code = EXIT_VERIFY_FAILED
    except ButsonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_BAD_PARAMS
    except MemoryError as exc:  # numpy's _ArrayMemoryError too: no check ran, so none failed
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        code = EXIT_BAD_PARAMS
    if argv is None:
        _end_process(code)
    return code


def _end_process(code: int) -> None:
    """End the process with `code`, skipping interpreter teardown; return only if a flush fails.

    The steps are those of a normal shutdown, in its order: atexit handlers,
    then the flush of stdout and stderr.  The CLI starts no Python threads,
    so there are none to wait for.
    """
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # any failure: the normal shutdown flushes again and reports it
        return
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
