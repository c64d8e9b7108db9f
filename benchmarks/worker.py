"""One fresh interpreter of the benchmark: set up, run operations, report.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python benchmarks/worker.py setup PLAN_JSON
    python benchmarks/worker.py round PLAN_JSON [TRACE_PREFIX]
    python benchmarks/worker.py cli TRACE_PREFIX ARGV...

``setup`` imports the package and builds the inputs of the plan, prints
``{"ready": t}`` with ``t`` on ``time.monotonic`` and exits.  ``round`` does
the same set-up, then runs the plan's operations and prints one JSON line
with each operation's start, end and output.  ``cli`` runs the CLI's
``main`` on ``ARGV``.  With a ``TRACE_PREFIX``, spans of the package's public
functions are recorded and written to ``TRACE_PREFIX.npz`` and
``TRACE_PREFIX.json``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _summary_dict(summary) -> dict:
    return {
        "n_firms": summary.n_firms,
        "trials": summary.trials,
        "seed": summary.seed,
        "inversion_mean": summary.inversion_mean,
        "inversion_std_error": summary.inversion_std_error,
        "win_rates": list(summary.win_rates),
    }


def build(workload: str, ops: list) -> list:
    """Build the workload's inputs; return one zero-argument call per operation."""
    if workload == "cli_cold":
        from thresholdgame import cli

        cli.build_parser()
        return []
    if workload == "search":
        from thresholdgame import analysis

        return [lambda op=op: analysis.search_best_interval(
            resolution=op["resolution"], refine=op["refine"]).to_dict() for op in ops]
    from thresholdgame import engine

    calls = []
    for op in ops:
        rule = engine.parse_rule(op["rule"])
        calls.append(lambda op=op, rule=rule: _summary_dict(engine.simulate(
            rule, n_firms=op["n"], trials=op["trials"], seed=op["seed"])))
    return calls


def run_plan(mode: str, plan: dict, trace_prefix: str | None) -> dict:
    if plan["workload"] == "cli_cold":
        import thresholdgame.cli  # noqa: F401  (the CLI's own import)
    else:
        import thresholdgame  # noqa: F401
    tracer = None
    if trace_prefix is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = build(plan["workload"], plan["ops"])
    ready = time.monotonic()
    if mode == "setup":
        return {"ready": ready}
    results = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op_id = i
        output = error = None
        start = time.perf_counter()
        try:
            output = call()
        except Exception:
            error = traceback.format_exc(limit=4)
        end = time.perf_counter()
        results.append({"start": start, "end": end, "output": output, "error": error})
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_prefix)
    return {"ready": ready, "ops": results}


def run_cli(trace_prefix: str, argv: list) -> int:
    from thresholdgame import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_prefix)


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    if mode not in ("setup", "round"):
        raise SystemExit(f"unknown mode {mode!r}")
    plan = json.loads(argv[1])
    trace_prefix = argv[2] if len(argv) > 2 else None
    print(json.dumps(run_plan(mode, plan, trace_prefix)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
