"""Correctness checks for every operation the benchmark runs.

Each check decides from the operation's inputs alone -- a CLI argv, or the
rule, firm count and trial count of a simulation -- what the output must be,
never from the workload that ran it.  A check returns ``None`` when the
output is right and a one-line reason when it is not.

Reference values:

* exact rationals for the closed forms (1/4, 5/24, the correlated optimum
  ``(5n - 4) / (12 (2n - 1))`` and the pairwise fixed-threshold formula);
* the quadrature values of the two-firm error for i.i.d. tests, to 1e-9;
* for Monte Carlo, the mean must lie within ``MC_SIGMAS`` standard errors of
  the closed form.  With i.i.d. tests the n-firm misordered fraction has the
  two-firm value for any n, because the ranking orders each pair on its own.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

QUAD_TOL = 1e-9
EXACT_TOL = 1e-12
MC_SIGMAS = 4.0

#: Two-firm error probability of i.i.d. tests drawn from ``<dist>``.
IID_VALUES = {
    "eq": 0.2305261584,
    "eq:0,0.79": 0.2297710300,
    "uniform:0.25,0.75": Fraction(5, 24),
}

#: Best restriction interval (a, b) and its error, with tolerances.
SEARCH_OPTIMUM = (0.0147, 0.7997, 0.2296835)
SEARCH_TOL = (5e-5, 5e-5, 5e-8)


def fixed_value(thresholds) -> Fraction:
    """Misordered-pair fraction for deterministic thresholds (exact)."""
    ts = sorted(Fraction(t) for t in thresholds)
    pairs = [(lo, hi) for i, lo in enumerate(ts) for hi in ts[i + 1:]]
    total = sum(lo * lo + (hi - lo) ** 2 + (1 - hi) ** 2 for lo, hi in pairs)
    return total / (2 * len(pairs))


def correlated_value(n: int) -> Fraction:
    return Fraction(5 * n - 4, 12 * (2 * n - 1))


def rule_value(spec: str):
    """Expected misordered fraction of a rule spec, or None when unknown."""
    head, _, rest = spec.partition(":")
    if head == "iid":
        return IID_VALUES.get(rest)
    if head == "fixed":
        return fixed_value(rest.split(","))
    if head == "same":
        t = Fraction(rest)
        return (t * t + (1 - t) ** 2) / 2
    if head == "indep":
        parts = rest.split(";")
        if all(p.startswith("step:") for p in parts):
            return fixed_value(p[len("step:"):] for p in parts)
    return None


def _off(name, got, want, tol):
    if not isinstance(got, (int, float)) or not abs(got - float(want)) <= tol:
        return f"{name} = {got!r}, expected {float(want)!r} +- {tol:g}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _options(argv) -> dict:
    return {k[2:]: v for k, v in zip(argv, argv[1:]) if k.startswith("--")}


# ---------------------------------------------------------------------------
# CLI processes
# ---------------------------------------------------------------------------


def check_cli(argv, returncode: int, stdout: str):
    """Check one ``python -m thresholdgame.cli <argv>`` process."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    opts = _options(argv)
    try:
        if argv[0] == "optimal":
            return _check_optimal(argv[1], opts, out)
        if argv[0] == "equilibrium":
            return _check_equilibrium(opts, out)
        if argv[0] == "inversion":
            want = rule_value(opts["rule"])
            if want is None:
                return f"no reference value for {opts['rule']}"
            tol = QUAD_TOL if opts["rule"].startswith("iid:") else EXACT_TOL
            return _off("value", out["value"], want, tol)
        if argv[0] == "verify":
            _, _, interval = opts["rule"].partition(":eq:")
            want = [float(v) for v in interval.split(",")] if interval else [0.0, 1.0]
            if out["pass"] is not True or out["interval"] != want:
                return f"verify reported pass={out['pass']} on {out['interval']}"
            return None
        if argv[0] == "poa":
            return _check_poa(int(opts.get("n", 2)), out)
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks {exc}"
    return f"no check for command {argv[0]!r}"


def _check_optimal(which, opts, out):
    if which == "same":
        if (out["theta_exact"], out["value_exact"]) != ("1/2", "1/4"):
            return f"optimal same gave {out['theta_exact']}, {out['value_exact']}"
        return None
    if which == "iid":
        uniform = {"segments": [{"kind": "uniform", "lo": 0.25, "hi": 0.75}], "atoms": []}
        if out["value_exact"] != "5/24" or out["dist"] != uniform:
            return f"optimal iid gave {out['value_exact']} with {out['dist']}"
        return None
    n = int(opts.get("n", 2))
    want = correlated_value(n)
    thresholds = [str(Fraction(n + 2 * i, 4 * n - 2)) for i in range(n)]
    if out["value_exact"] != str(want) or out["thresholds_exact"] != thresholds:
        return f"optimal correlated n={n} gave {out['value_exact']}, expected {want}"
    return None


def _check_equilibrium(opts, out):
    """The interval equilibrium's closed form: an arc from a to the cut point,
    a plateau up to b, and the remaining mass as an atom at b."""
    a, b = float(opts.get("a", 0.0)), float(opts.get("b", 1.0))
    if out["interval"] != [a, b]:
        return f"interval {out['interval']} != {[a, b]}"
    if (1.0 - a) * b <= 0.5:
        return _first(_off("atom_b", out["atom_b"], 1.0, EXACT_TOL),
                      _off("failure_prob", out["failure_prob"], b, EXACT_TOL))
    phi = 1.0 / (2.0 * (1.0 - a))
    atom = (1 - a * (1 - b) - b * (1 - a)) / ((1 - a) * ((1 - b) ** 2 + b * b))
    cut = b if atom <= 1e-15 else (1 - a - 2 * b + 4 * a * b - 2 * a * b * b) / (
        1 - 4 * (1 - a) * b + 2 * (1 - 2 * a) * b * b)
    reason = _first(_off("failure_prob", out["failure_prob"], phi, EXACT_TOL),
                    _off("atom_b", out["atom_b"], atom, QUAD_TOL),
                    _off("cut_point", out["cut_point"], cut, QUAD_TOL))
    if reason or "dump-cdf" not in opts:
        return reason
    rows = out["cdf_dump"]["rows"]
    k = int(opts["dump-cdf"])
    if len(rows) != k:
        return f"{len(rows)} cdf rows, expected {k}"
    spread = math.sqrt(a * a + (1 - a) ** 2)
    previous = 0.0
    for i, (theta, cdf, _pdf) in enumerate(rows):
        t = i / (k - 1)
        if t < a:
            want = 0.0
        elif t < cut:
            want = phi * (1 - 2 * a) + phi * spread * (2 * t - 1) / math.hypot(t, 1 - t)
        elif t < b:
            want = 1.0 - atom
        else:
            want = 1.0
        reason = _first(_off(f"theta[{i}]", theta, t, EXACT_TOL),
                        _off(f"cdf({t:g})", cdf, want, QUAD_TOL))
        if reason:
            return reason
        if cdf < previous:
            return f"cdf decreases at {t:g}"
        previous = cdf
    return None


def _check_poa(n, out):
    eq = IID_VALUES["eq"]
    best = out["eq_restricted_best"]
    return _first(
        _off("same_test", out["same_test"], 0.25, EXACT_TOL),
        _off("correlated", out["correlated"], correlated_value(n), EXACT_TOL),
        _off("iid_opt", out["iid_opt"], Fraction(5, 24), EXACT_TOL),
        _off("eq_unrestricted", out["eq_unrestricted"], eq, QUAD_TOL),
        _off("eq_restricted_best.a", best["a"], 0.0, 0.0),
        _off("eq_restricted_best.b", best["b"], 0.79, 0.0),
        _off("eq_restricted_best.value", best["value"], IID_VALUES["eq:0,0.79"], QUAD_TOL),
        _off("poa_vs_iid", out["poa_vs_iid"], eq / (5 / 24), 10 * QUAD_TOL),
        _off("poa_vs_correlated", out["poa_vs_correlated"],
             eq / float(correlated_value(n)), 10 * QUAD_TOL),
    )


# ---------------------------------------------------------------------------
# Library calls
# ---------------------------------------------------------------------------


def check_simulate(op: dict, out: dict):
    """Check one ``simulate(parse_rule(rule), n, trials, seed)`` summary."""
    want = rule_value(op["rule"])
    if want is None:
        return f"no reference value for {op['rule']}"
    for key, name in (("n", "n_firms"), ("trials", "trials"), ("seed", "seed")):
        if out[name] != op[key]:
            return f"{name} = {out[name]}, expected {op[key]}"
    se = out["inversion_std_error"]
    if not se > 0.0:
        return f"standard error {se!r} is not positive"
    return _first(
        _off("inversion_mean", out["inversion_mean"], want, MC_SIGMAS * se),
        _off("sum of win_rates", math.fsum(out["win_rates"]), 1.0, EXACT_TOL),
    )


def check_search(op: dict, out: dict):
    """Check one ``search_best_interval`` result against the known optimum."""
    if (op["resolution"], op["refine"]) != (0.01, True):
        return f"no reference optimum for {op}"
    return _first(*(_off(key, out[key], want, tol) for key, want, tol
                    in zip(("a", "b", "value"), SEARCH_OPTIMUM, SEARCH_TOL)))
