"""Benchmark of the butson CLI pipeline, one fresh process per CLI call.

    python3 bench/run.py --workload chain-ring --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads and metrics are described in bench/README.md.

A pass takes every instance of the workload through construct -> verify ->
verify seeded single-entry mutants (each must exit 1) -> export-array ->
verify-array (abelian instances only), then runs the workload's probes.
Outputs are checked after each call, outside the timed region.  Passes repeat
until --seconds have elapsed (at least one), and each metric is the median
over passes.  With --trace 1 every pass is run twice, untraced and then with
spans around calls into each layer (bench/traced_cli.py), and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # SIGALRM stops a run that would overrun 180 s

CLI = ["-c", "import sys; from butson.cli import main; sys.exit(main())"]
TRIVIAL = ["ring-info", "--family", "galois", "--p", "2", "--d", "1", "--n", "1"]

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "construct_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "peak_rss_mb": "MB",
}
TIMED_KINDS = ("construct", "verify", "reject", "array")
# Printed but kept out of the JSON line (and BENCHMARK.json): each is a time
# that is exactly 0 on some workload, as no arrays are made on nonabelian and
# no chain ring or root-of-unity sum is built outside chain-ring.
PRINT_ONLY = {"array_s", "rings.self_s", "rings.build_s", "sums.self_s", "sums.s",
              "arrays.self_s", "arrays.verify_perfect_s"}

LAYERS = ("cli", "fileio", "groups", "rings", "sums", "cyclotomic", "construct", "verify", "arrays")
GROUP_BUILDS = {f"groups.{f}" for f in ("make_abelian", "make_cyclic", "make_semidirect", "make_from_table")}
FILE_READS = {f"fileio.{f}" for f in ("read_matrix", "read_array", "parse_group_spec")}
FILE_WRITES = {f"fileio.{f}" for f in ("format_matrix", "write_matrix", "format_array", "write_array")}


class Op(NamedTuple):
    """Outcome of one CLI call: exit code, wall and CPU seconds, peak RSS."""

    code: int
    wall: float
    cpu: float
    rss_kb: int
    out: str
    err: str


def run_cli(argv: list[str], workdir: Path, trace_file: Path | None = None) -> Op:
    """Run one CLI command in a fresh interpreter and wait for it to end."""
    if trace_file is None:
        cmd = [sys.executable, *CLI, *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
    return Op(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
              out_path.read_text(), err_path.read_text())


class Pass:
    """Totals of one pass over a workload."""

    def __init__(self) -> None:
        self.wall = dict.fromkeys(TIMED_KINDS, 0.0)
        self.cpu = 0.0
        self.rss_kb = 0
        self.attempted = self.failed = self.selfcheck_failures = 0
        self.correct = True
        self.traces: list[dict] = []
        self.setup: list[float] = []  # cold starts of the trivial command

    def record(self, kind: str, op: Op) -> None:
        self.wall[kind] += op.wall
        self.cpu += op.cpu
        self.rss_kb = max(self.rss_kb, op.rss_kb)

    def outcome(self, ok: bool, known_defect: bool = False) -> bool:
        """Count one attempted operation.  A failure clears `correct` unless it
        is the known defect the probes exist to count."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and known_defect
        return ok

    def e2e(self) -> dict[str, float]:
        return {
            "pipeline_s": sum(self.wall.values()),
            "pipeline_cpu_s": self.cpu,
            "construct_s": self.wall["construct"],
            "verify_s": self.wall["verify"],
            "reject_s": self.wall["reject"],
            "array_s": self.wall["array"],
            "peak_rss_mb": self.rss_kb / 1024.0,
        }


def run_pass(instances, probes, checker, workdir: Path, traced: bool) -> Pass:
    p = Pass()
    trace_file = workdir / "trace.json"

    def call(kind: str, argv: list[str]) -> Op:
        if not traced:
            # set-up is sampled next to every timed call, so that it sees the
            # same machine state as the calls rather than one moment of it
            p.setup.append(run_cli(TRIVIAL, workdir).wall)
        trace_file.unlink(missing_ok=True)  # a child that writes none fails the run
        op = run_cli(argv, workdir, trace_file if traced else None)
        p.record(kind, op)
        if traced:
            p.traces.append(json.loads(trace_file.read_text()))
        return op

    for inst in instances:
        checked = None
        if inst.construct is not None:
            op = call("construct", inst.construct)
            checked = checker.matrix(inst.matrix, inst.h) if op.code == 0 else None
            if not p.outcome(checked is not None):
                rest = 1 + len(inst.mutants) + 2 * inst.arrays  # the chain cannot go on
                p.attempted += rest
                p.failed += rest
                continue
        op = call("verify", ["verify", inst.matrix])
        p.outcome(op.code == 0 and op.out.strip() == "bh=True invariant=True ok")
        for i in range(len(inst.mutants)):
            inst.write_mutant(i, workdir)
            op = call("reject", ["verify", inst.mutant_file(i)])
            p.outcome(op.code == 1)
        if inst.arrays:
            G, col0 = checked
            op = call("array", ["export-array", inst.matrix, "--out", inst.array_file])
            p.outcome(op.code == 0 and checker.array(inst.array_file, inst.h, G, col0))
            op = call("array", ["verify-array", inst.array_file])
            p.outcome(op.code == 0 and op.out.strip() == "perfect=True")
    # probes are untimed and untraced: they count only as operations
    for probe in probes:
        op = run_cli(probe.argv, workdir)
        if op.code == 0:
            p.outcome(checker.matrix(probe.matrix, probe.h) is not None)
        else:
            p.outcome(False, known_defect=True)
            p.selfcheck_failures += "AssertionError" in op.err
    return p


def layer_metrics(p: Pass, untraced: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its CLI calls."""
    funcs: dict[str, list] = {}
    edges: dict[str, list] = {}
    counters = dict.fromkeys(("bytes_read", "bytes_written", "groups_built", "table_cells"), 0)
    root = 0.0
    for t in p.traces:
        root += t["root_s"]
        for key, (calls, total, self_s) in t["funcs"].items():
            acc = funcs.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, (calls, total) in t["edges"].items():
            acc = edges.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += total
        for key in counters:
            counters[key] += t[key]

    def total(key: str) -> float:
        return funcs.get(key, [0, 0.0, 0.0])[1]

    def calls(key: str) -> int:
        return funcs.get(key, [0, 0.0, 0.0])[0]

    def self_of(keys) -> float:
        return sum(v[2] for k, v in funcs.items() if k in keys)

    def entered_s(callees, callers=None) -> float:
        """Time in calls into `callees` from outside them (or from `callers`)."""
        out = 0.0
        for key, (_, t) in edges.items():
            caller, callee = key.split(">")
            if callee in callees and (caller in callers if callers else caller not in callees):
                out += t
        return out

    def ratio(a: float, b: float, scale: float) -> float:
        return a / b * scale if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of({k for k in funcs if k.split(".")[0] == layer})
    traced_s = sum(p.wall.values())
    m["cli.uncovered_s"] = traced_s - root
    m["trace.pipeline_s"] = traced_s
    m["trace.overhead_s"] = traced_s - sum(untraced.wall.values())

    is_zero_calls, is_zero_s = calls("cyclotomic.is_zero"), total("cyclotomic.is_zero")
    m["cyclotomic.is_zero_calls"] = is_zero_calls
    m["cyclotomic.is_zero_s"] = is_zero_s
    m["cyclotomic.us_per_is_zero"] = ratio(is_zero_s, is_zero_calls, 1e6)

    verify_bh_s = total("verify.verify_bh")
    row_pairs = edges.get("verify.verify_bh>cyclotomic.is_zero", [0, 0.0])[0]
    m["verify.verify_bh_s"] = verify_bh_s
    m["verify.row_pairs"] = row_pairs
    m["verify.us_per_row_pair"] = ratio(verify_bh_s, row_pairs, 1e6)
    m["verify.materialize_s"] = total("verify.materialize")

    build_s = entered_s(GROUP_BUILDS)
    m["groups.build_s"] = build_s
    m["groups.builds"] = counters["groups_built"]
    m["groups.table_cells"] = counters["table_cells"]
    m["groups.ns_per_table_cell"] = ratio(build_s, counters["table_cells"], 1e9)
    m["groups.gr_mul_s"] = total("groups.gr_mul")

    m["fileio.read_s"] = self_of(FILE_READS)
    m["fileio.write_s"] = self_of(FILE_WRITES)
    m["fileio.bytes_read"] = counters["bytes_read"]
    m["fileio.bytes_written"] = counters["bytes_written"]

    constructors = {k for k in funcs if k.startswith("construct.")}
    m["construct.selfcheck_s"] = entered_s({"verify.verify_group_ring"}, constructors)
    m["construct.selfcheck_failures"] = p.selfcheck_failures

    m["arrays.verify_perfect_s"] = total("arrays.verify_perfect")
    m["arrays.shifts"] = edges.get("arrays.verify_perfect>arrays.autocorrelation", [0, 0.0])[0]

    m["rings.build_s"] = total("rings.chain_ring")
    m["rings.mul_calls"] = calls("rings.ChainRing.mul")
    m["sums.s"] = entered_s({k for k in funcs if k.startswith("sums.")})
    m["array_s"] = untraced.wall["array"]
    return m


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if ".us_per" in name:
        return "us"
    if ".ns_per" in name:
        return "ns"
    return "bytes" if ".bytes_" in name else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "butson" / "cli.py").is_file():
        print(f"error: no butson sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    def stop(signum, frame):
        # unwinds through run_cli, which kills and reaps the running child
        raise SystemExit(f"stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(RUN_LIMIT_S)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        warm = run_cli(TRIVIAL, workdir)  # also writes the bytecode caches
        if warm.code != 0:
            print(f"error: the CLI does not start:\n{warm.err}", file=sys.stderr)
            return 1

        instances, probes = workloads.build(args.workload, args.seed, workdir)
        checker = workloads.Checker(workdir)
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(instances, probes, checker, workdir, traced=False))
            if args.trace:
                traced.append(run_pass(instances, probes, checker, workdir, traced=True))
            if time.perf_counter() - start >= args.seconds:
                break
    signal.alarm(0)
    try:
        scratch.rmdir()
    except OSError:
        pass

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    e2e = median_of([p.e2e() for p in plain])
    e2e["setup_s"] = statistics.median(t for p in plain for t in p.setup)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{' (+ traced)' if traced else ''}  attempted {attempted}  failed {failed}"
          f"  error_rate {failed / attempted:.4f}")
    for name in (*END_TO_END, "array_s"):
        print(f"  {name:<16} {e2e[name]:12.4f} {END_TO_END.get(name, 's')}")
    if traced:
        layers = median_of([layer_metrics(t, u) for t, u in zip(traced, plain)])
        for name, value in layers.items():
            print(f"  {name:<30} {value:14.6f} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items() if k not in PRINT_ONLY}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    correct = all(p.correct for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
