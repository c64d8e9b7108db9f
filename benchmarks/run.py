"""Benchmark of thresholdgame: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``, one process at a time (a closed loop with one client), and
every output is checked (``checks.py``).  A run repeats its workload's round
of operations until ``--seconds`` have passed, at least once.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one round plain and the same round traced, and reports the per-layer split.
It prints each metric by name with its unit, writes the full record,
environment included, to ``.bench_out/``, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics listed in
``BENCHMARK.json``.  ``NOTES.md`` says why each workload and metric is here.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORKER = str(Path(__file__).resolve().parent / "worker.py")
OUT = ROOT / ".bench_out"

CLI_CALLS = (
    ("optimal", "same"),
    ("optimal", "iid"),
    ("optimal", "correlated", "--n", "5"),
    ("equilibrium", "--a", "0", "--b", "0.79", "--dump-cdf", "101"),
    ("inversion", "--rule", "iid:eq"),
    ("inversion", "--rule", "iid:eq:0,0.79"),
    ("inversion", "--rule", "iid:uniform:0.25,0.75"),
    ("inversion", "--rule", "fixed:0.1,0.3,0.5,0.7,0.9"),
    ("verify", "--rule", "iid:eq"),
    ("verify", "--rule", "iid:eq:0,0.79"),
    ("poa",),
)
SEARCH = {"resolution": 0.01, "refine": True}
MC_FIELD = (("iid:eq", 3), ("fixed:0.1,0.3,0.5,0.7,0.9", 5), ("iid:uniform:0.25,0.75", 8))
MC_FIELD_TRIALS = 1 << 20
MC_PAIR = (("iid:eq", 2), ("iid:eq:0,0.79", 2),
           ("indep:step:0.2928932;step:0.7071068", 2), ("same:0.5", 2))
MC_PAIR_TRIALS = 10_000_000
WORKLOADS = ("cli_cold", "search", "mc_field", "mc_pair")

SETUP_SAMPLES = 3
#: Children still running this long after the run started are killed.
RUN_LIMIT_S = 170.0

#: Functions whose calls, elements and self time the traced run reports; a
#: name also covers its split spans (``inversion_iid.<family>``, ``simulate.n<k>``).
LAYER_FUNCTIONS = (
    ("dists.cdf", True), ("dists.cdf_integral", True), ("dists.left_limit", True),
    ("dists.inverse", True), ("dists.support_contains", False),
    ("equilibrium.equilibrium_interval", False), ("equilibrium.verify_equilibrium", False),
    ("equilibrium.selection_probabilities", True),
    ("inversion.inversion_iid", False), ("analysis.search_best_interval", False),
    ("engine.simulate", False), ("cli.main", False),
)
IID_FAMILIES = ("uniform", "eq_unrestricted", "eq_interval", "step")
FIRM_COUNTS = (2, 3, 5, 8)


def round_plan(workload: str, rng: random.Random) -> dict:
    """Inputs of one round; the seed fixes the order and the Monte Carlo seeds."""
    if workload == "cli_cold":
        ops = [list(argv) for argv in rng.sample(CLI_CALLS, len(CLI_CALLS))]
    elif workload == "search":
        ops = [dict(SEARCH)]
    else:
        rules, trials = ((MC_FIELD, MC_FIELD_TRIALS) if workload == "mc_field"
                         else (MC_PAIR, MC_PAIR_TRIALS))
        ops = [{"rule": rule, "n": n, "trials": trials, "seed": rng.randrange(2**32)}
               for rule, n in rng.sample(rules, len(rules))]
    return {"workload": workload, "ops": ops}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    start: float
    end: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kib: int


class Children:
    """Starts the run's child processes one at a time, each with ``src`` on
    ``PYTHONPATH``; a child still running at the run's deadline is killed."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                       if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def run(self, cmd: list) -> Proc:
        """Run ``cmd`` to completion; times are ``time.monotonic`` at spawn and exit."""
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timeout = max(self.deadline - start, 0.0)
                    if not select.select([pidfd], [], [], timeout)[0]:
                        proc.kill()
                finally:
                    os.close(pidfd)
                end = time.monotonic()
                # wait4 rather than Popen.wait: it also returns the child's rusage.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(start, end, proc.returncode, out.read().decode(),
                        err.read().decode(), usage.ru_maxrss)


def import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, module = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                times.setdefault(module.strip(), int(cumulative) * 1e-6)
    return times


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Op:
    label: str
    latency: float
    ok: bool
    reason: str | None
    trials: int = 0


@dataclass
class Round:
    ops: list
    wall: float
    maxrss_kib: int
    setup: float | None = None
    plan: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    import_times: list = field(default_factory=list)


def cli_round(plan: dict, children: Children, trace_dir: Path | None) -> Round:
    ops, procs = [], []
    for i, argv in enumerate(plan["ops"]):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "thresholdgame.cli", *argv]
        else:
            prefix = str(trace_dir / f"op{i}")
            cmd = [sys.executable, "-X", "importtime", WORKER, "cli", prefix, *argv]
        proc = children.run(cmd)
        procs.append(proc)
        reason = checks.check_cli(argv, proc.returncode, proc.stdout)
        ops.append(Op(" ".join(argv), proc.end - proc.start, reason is None, reason))
    result = Round(ops, procs[-1].end - procs[0].start, max(p.maxrss_kib for p in procs))
    if trace_dir is not None:
        result.traces = [str(trace_dir / f"op{i}.json") for i in range(len(procs))]
        result.import_times = [import_times(p.stderr) for p in procs]
    return result


def worker_round(plan: dict, children: Children, trace_dir: Path | None) -> Round:
    cmd = [sys.executable, WORKER, "round", json.dumps(plan)]
    if trace_dir is not None:
        cmd[1:1] = ["-X", "importtime"]
        cmd.append(str(trace_dir / "round"))
    proc = children.run(cmd)
    labels = [_op_label(op) for op in plan["ops"]]
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
        results = report["ops"]
    except (IndexError, ValueError, KeyError):
        reason = f"worker exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return Round([Op(label, math.nan, False, reason) for label in labels],
                     math.nan, proc.maxrss_kib)
    check = checks.check_search if plan["workload"] == "search" else checks.check_simulate
    ops = []
    for label, op, res in zip(labels, plan["ops"], results):
        reason = res["error"] or check(op, res["output"])
        ops.append(Op(label, res["end"] - res["start"], reason is None, reason,
                      op.get("trials", 0)))
    result = Round(ops, results[-1]["end"] - results[0]["start"], proc.maxrss_kib,
                   setup=report["ready"] - proc.start)
    if trace_dir is not None:
        result.traces = [str(trace_dir / "round.json")]
        result.import_times = [import_times(proc.stderr)]
    return result


def _op_label(op: dict) -> str:
    if "rule" in op:
        return f"simulate {op['rule']} n={op['n']} trials={op['trials']} seed={op['seed']}"
    return f"search_best_interval resolution={op['resolution']} refine={op['refine']}"


def run_round(plan: dict, children: Children, trace_dir: Path | None = None) -> Round:
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    runner = cli_round if plan["workload"] == "cli_cold" else worker_round
    result = runner(plan, children, trace_dir)
    result.plan = plan
    return result


def setup_probe(plan: dict, children: Children) -> float | str:
    """Seconds from spawning an interpreter until the plan's inputs are built,
    or the reason the probe failed."""
    proc = children.run([sys.executable, WORKER, "setup", json.dumps(plan)])
    try:
        return json.loads(proc.stdout)["ready"] - proc.start
    except (ValueError, KeyError):
        return f"set-up probe exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple[float | None, str]:
    """Highest percentile with at least 10 samples beyond it, and its label."""
    n = len(samples)
    if n < 11:
        return None, f"undefined, n={n} < 11"
    return sorted(samples)[n - 11], f"p{100 * (n - 10) / n:.0f} of n={n}"


def end_to_end(workload: str, rounds: list, setups: list) -> dict:
    ops = [op for r in rounds for op in r.ops]
    latencies = [op.latency for op in ops]
    failed = sum(not op.ok for op in ops)
    tail_value, tail_note = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s",
                   f"median of {len(rounds)} round(s) of {len(rounds[0].ops)} operations"),
        "op_p50_s": (statistics.median(latencies), "s", f"n={len(latencies)}"),
        "op_tail_s": (tail_value, "s", tail_note),
        "peak_rss_mib": (max(r.maxrss_kib for r in rounds) / 1024, "MiB",
                         "largest child process"),
        "fail_frac": (failed / len(ops), "1", f"{failed} of {len(ops)} operations"),
    }
    if workload.startswith("mc_"):
        rates = [sum(op.trials for op in r.ops) / sum(op.latency for op in r.ops)
                 for r in rounds]
        metrics["trials_per_s"] = (statistics.median(rates), "1/s",
                                   f"simulate time only, median of {len(rates)} round(s)")
    return metrics


def per_layer(traced: Round, plain: Round) -> dict:
    spans: dict = {}
    for path in traced.traces:
        if not os.path.exists(path):  # the child failed; its operations already count
            continue
        with open(path) as fh:
            for name, stats in json.load(fh).items():
                total = spans.setdefault(name, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    total[key] += value

    def stat(prefix, key):
        return sum(s[key] for name, s in spans.items()
                   if name == prefix or name.startswith(prefix + "."))

    metrics = {}
    for name, elementwise in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count", "")
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s", "")
        if elementwise:
            elems = stat(name, "elems")
            metrics[f"{name}.elems"] = (elems, "count", "array elements passed in")
            if elems:
                metrics[f"{name}.ns_per_elem"] = (1e9 * stat(name, "self_s") / elems, "ns", "")
    for family in IID_FAMILIES:
        name = f"inversion.inversion_iid.{family}"
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count", "")
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s", "")
    sim = "engine.simulate"
    metrics["engine.chunks"] = (stat(sim, "elems"), "count", "chunks of CHUNK_TRIALS trials")
    for n in FIRM_COUNTS:
        chunks = stat(f"{sim}.n{n}", "elems")
        if chunks:
            metrics[f"engine.chunk_ms.n{n}"] = (1e3 * stat(f"{sim}.n{n}", "total_s") / chunks,
                                                "ms", f"{chunks} chunks")
    for module, key in (("thresholdgame", "thresholdgame_s"),
                        ("scipy.optimize", "scipy_optimize_s")):
        samples = [t.get(module, 0.0) for t in traced.import_times]
        metrics[f"cli.import.{key}"] = (statistics.median(samples), "s",
                                        f"-X importtime, median of {len(samples)}")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s",
                                   f"traced wall {traced.wall:.3f} s - plain {plain.wall:.3f} s")
    return metrics


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions, "git_sha": sha}


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thresholdgame" / "__init__.py").is_file():
        print(f"no thresholdgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    OUT.mkdir(exist_ok=True)
    children = Children(time.monotonic() + RUN_LIMIT_S)
    rng = random.Random(args.seed)
    errors = []

    if args.trace:
        plan = round_plan(args.workload, rng)
        plain = run_round(plan, children)
        traced = run_round(plan, children, OUT / "spans" / args.workload)
        rounds = [plain, traced]
        metrics = per_layer(traced, plain)
        gated = declared["per_layer"]
    else:
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(run_round(round_plan(args.workload, rng), children))
        setups = [r.setup for r in rounds if r.setup is not None]
        probe_plan = round_plan(args.workload, random.Random(args.seed))
        while len(setups) < SETUP_SAMPLES:
            probe = setup_probe(probe_plan, children)
            if isinstance(probe, str):
                errors.append(probe)
                break
            setups.append(probe)
        metrics = end_to_end(args.workload, rounds, setups or [math.nan])
        gated = declared["end_to_end"]

    ops = [op for r in rounds for op in r.ops]
    failed = sum(not op.ok for op in ops)
    errors += [f"{op.label}: {op.reason}" for op in ops if not op.ok]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "rounds": [{"inputs": r.plan["ops"], "wall_s": _finite(r.wall), "setup_s": r.setup,
                    "maxrss_kib": r.maxrss_kib,
                    "operations": [{"label": op.label, "latency_s": _finite(op.latency),
                                    "ok": op.ok, "reason": op.reason} for op in r.ops]}
                   for r in rounds],
        "errors": errors,
        "metrics": {name: {"value": _finite(v), "unit": u, "note": note}
                    for name, (v, u, note) in metrics.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({record['environment']['nproc']} CPUs, {record['environment']['cpu']})")
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<46} {shown:>12} {unit:<6} {note}")
    for line in errors:
        print(f"  FAILED {line}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not errors, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": _finite(metrics[m["name"]][0]), "unit": m["unit"]}
                    for m in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
