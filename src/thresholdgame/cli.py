"""Command-line frontend.

Every computation in the library is reachable from a subcommand, with seeded
reproducibility for the stochastic ones: identical argv plus seed produce
byte-identical output.  Floats are serialized with 12 significant digits;
values that are exact rationals additionally appear as "p/q" strings.

Exit codes: 0 on success, 1 when a ``verify`` run rejects its candidate,
2 on argument errors.

Modules load on first use: importing this module loads neither numpy nor
any other module of the package, and each handler imports what it needs,
so ``optimal same`` and ``optimal correlated`` run without numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

DEFAULT_GRID = 10_000
DEFAULT_TOL = 1e-8


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _frac_str(f) -> str:
    """The ``Fraction`` ``f`` as "p/q"."""
    return f"{f.numerator}/{f.denominator}"


def _emit(payload: dict, fmt: str, rows_key: str | None = None) -> str:
    payload = _round12(payload)
    if fmt == "json":
        return json.dumps(payload)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows_key is not None:
            header, rows = payload[rows_key]["header"], payload[rows_key]["rows"]
            writer.writerow(header)
            for row in rows:
                writer.writerow(["" if v is None else v for v in row])
        else:
            writer.writerow(["key", "value"])
            for key, value in _flatten(payload):
                writer.writerow([key, value])
        return buf.getvalue().rstrip("\n")
    lines = []
    if rows_key is not None:
        header = payload[rows_key]["header"]
        lines.append("  ".join(str(h) for h in header))
        for row in payload[rows_key]["rows"]:
            lines.append("  ".join("null" if v is None else str(v) for v in row))
        payload = {k: v for k, v in payload.items() if k != rows_key}
    for key, value in _flatten(payload):
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _flatten(payload, prefix=""):
    items = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            items.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, list):
        items.append((prefix.rstrip("."), json.dumps(payload)))
    else:
        items.append((prefix.rstrip("."), payload))
    return items


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_optimal(args) -> int:
    from thresholdgame import optimal

    if args.which == "same":
        theta, value = optimal.optimal_same_test()
        payload = {
            "theta": float(theta),
            "value": float(value),
            "theta_exact": _frac_str(theta),
            "value_exact": _frac_str(value),
        }
    elif args.which == "iid":
        dist = optimal.optimal_iid()
        payload = {
            "dist": dist.to_dict(),
            "value": float(optimal.OPTIMAL_IID_VALUE),
            "value_exact": _frac_str(optimal.OPTIMAL_IID_VALUE),
        }
    else:
        thresholds, value = optimal.optimal_correlated(args.n)
        payload = {
            "thresholds": [float(t) for t in thresholds],
            "value": float(value),
            "thresholds_exact": [_frac_str(t) for t in thresholds],
            "value_exact": _frac_str(value),
        }
    print(_emit(payload, args.format))
    return 0


def _cmd_equilibrium(args) -> int:
    import numpy as np

    from thresholdgame import equilibrium

    if args.a == 0.0 and args.b == 1.0:
        sol = equilibrium.equilibrium_unrestricted()
    else:
        sol = equilibrium.equilibrium_interval(args.a, args.b)
    payload = sol.to_dict()
    rows_key = None
    if args.dump_cdf:
        k = args.dump_cdf
        if k < 2:
            raise ValueError("--dump-cdf needs at least 2 points")
        thetas = np.linspace(0.0, 1.0, k)
        rows = []
        for t in thetas:
            t = float(t)
            rows.append([t, sol.dist.cdf(t), sol.dist.pdf(t)])
        payload["cdf_dump"] = {"header": ["theta", "cdf", "pdf"], "rows": rows}
        rows_key = "cdf_dump"
    print(_emit(payload, args.format, rows_key=rows_key))
    return 0


def _trials(args, engine) -> int:
    """``--trials``, or ``engine.DEFAULT_TRIALS`` when it is not given."""
    return engine.DEFAULT_TRIALS if args.trials is None else args.trials


def _cmd_inversion(args) -> int:
    from dataclasses import asdict

    from thresholdgame import engine, inversion

    rule = engine.parse_rule(args.rule)
    engine._rule_firm_count(rule, args.n_firms)
    if args.mc:
        est = engine.mc_inversion(rule, n_firms=args.n_firms, trials=_trials(args, engine),
                                  seed=args.seed)
    else:
        est = inversion.inversion_rule(rule)
    payload = {"rule": args.rule, **asdict(est)}
    print(_emit(payload, args.format))
    return 0


def _cmd_verify(args) -> int:
    from thresholdgame import engine, equilibrium

    rule = engine.parse_rule(args.rule)
    if not isinstance(rule, engine.IidRule):
        raise ValueError("verify applies to iid rules only (e.g. iid:eq:0,0.79)")
    family = rule.dist.family or (None,)
    # A restricted equilibrium is checked on its own interval, from its cdf
    # alone, so the candidate reports what the equilibrium would.
    interval = family[1:] if family[0] == "eq_interval" else (0.0, 1.0)
    sol = equilibrium.candidate_solution(rule.dist, interval)
    report = equilibrium.verify_equilibrium(sol, grid_size=args.grid, tol=args.tol)
    payload = {"rule": args.rule, "interval": list(sol.interval), **report.to_dict()}
    print(_emit(payload, args.format))
    return 0 if report.passed else 1


def _cmd_poa(args) -> int:
    from thresholdgame import analysis

    report = analysis.poa_report(n=args.n, run_search=args.search,
                                 resolution=args.resolution)
    if args.format == "text":
        best = report.eq_restricted_best
        entries = sorted([
            (report.correlated, f"correlated optimum (n={report.n})"),
            (report.iid_opt, "iid optimum"),
            (best.value, f"restricted equilibrium [{best.a:.2f}, {best.b:.2f}]"),
            (report.eq_unrestricted, "unrestricted equilibrium"),
            (report.same_test, "same test"),
        ])
        lines = [f"{value:.12f}  {label}" for value, label in entries]
        lines.append(f"poa_vs_iid = {report.poa_vs_iid:.12g}")
        lines.append(f"poa_vs_correlated = {report.poa_vs_correlated:.12g}")
        print("\n".join(lines))
        return 0
    from dataclasses import asdict

    print(_emit(asdict(report), args.format))
    return 0


def _cmd_search(args) -> int:
    from dataclasses import asdict

    from thresholdgame import analysis

    result = analysis.search_best_interval(refine=not args.no_refine,
                                           resolution=args.resolution)
    print(_emit(asdict(result), args.format))
    return 0


def _cmd_simulate(args) -> int:
    from dataclasses import asdict

    from thresholdgame import engine

    rule = engine.parse_rule(args.rule)
    summary = engine.simulate(rule, n_firms=args.n_firms, trials=_trials(args, engine),
                              seed=args.seed)
    payload = {"rule": args.rule, **asdict(summary)}
    print(_emit(payload, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_RESOLUTION_HELP = "grid step of the interval search, in [0.001, 1] (default 0.01)"


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thresholdgame",
        description="Threshold-test selection games: optima, equilibria, PoA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimal", help="principal-optimal strategies")
    opt_sub = p_opt.add_subparsers(dest="which", required=True)
    for name in ("same", "iid"):
        p = opt_sub.add_parser(name)
        _add_format(p)
        p.set_defaults(handler=_cmd_optimal)
    p = opt_sub.add_parser("correlated")
    p.add_argument("--n", type=int, default=2)
    _add_format(p)
    p.set_defaults(handler=_cmd_optimal)

    p = sub.add_parser("equilibrium", help="equilibrium distribution for [a, b]")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--dump-cdf", type=int, metavar="K", default=0,
                   help="emit K equally spaced (theta, cdf, pdf) rows")
    _add_format(p)
    p.set_defaults(handler=_cmd_equilibrium)

    p = sub.add_parser("inversion", help="error probability of a rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--mc", action="store_true", help="estimate by simulation")
    p.add_argument("--trials", type=int)  # None: engine.DEFAULT_TRIALS
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-firms", type=int, default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_inversion)

    p = sub.add_parser("verify", help="check the equilibrium property of an iid rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("poa", help="five-regime comparison and PoA ratios")
    p.add_argument("--n", type=int, default=2,
                   help="firm count of the correlated optimum; the equilibrium "
                        "entries and the PoA numerators stay two-firm values")
    p.add_argument("--search", action="store_true",
                   help="search for the best restriction interval")
    p.add_argument("--resolution", type=float, default=0.01, help=_RESOLUTION_HELP)
    _add_format(p)
    p.set_defaults(handler=_cmd_poa)

    p = sub.add_parser("search", help="best restriction interval for the principal")
    p.add_argument("--resolution", type=float, default=0.01, help=_RESOLUTION_HELP)
    p.add_argument("--no-refine", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("simulate", help="seeded game simulation summary")
    p.add_argument("--rule", required=True)
    p.add_argument("--trials", type=int)  # None: engine.DEFAULT_TRIALS
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-firms", type=int, default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
