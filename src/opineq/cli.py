"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = an inequality check failed,
2 = usage or input error. Every subcommand accepts --json for
machine-parseable output on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .harness import SweepConfig, run_suite, summary_to_dict, write_report
from .linalg import load_matrix, numerical_radius, spectral_norm
from .operators import angle_profile, kittaneh_bound
from .scalars import (
    check_reverse_triangle,
    check_triangle_refinement,
    gamma,
    mu,
    segment_mean_abs,
    segment_mean_abs_quadrature,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like '-1,0' (negative RE,IM pairs)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RE,IM - got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected RE,IM - got {text!r}: {err}") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _emit_chain(args, rep) -> int:
    """Print a three-term chain report lhs <= mid <= rhs; exit 1 if it fails."""
    (_, lhs), (_, mid), (_, rhs) = rep.terms
    payload = {
        "lhs": lhs,
        "mid": mid,
        "rhs": rhs,
        "slack_low": mid - lhs,
        "slack_high": rhs - mid,
        "holds": rep.holds,
    }
    labels = ("lhs ", "mid ", "rhs ", "slack_low ", "slack_high", "holds")  # padded to align
    human = "\n".join(f"{label} = {value!r}" for label, value in zip(labels, payload.values()))
    _emit(args, payload, human)
    return 0 if rep.holds else 1


def _cmd_mu(args) -> int:
    theta = math.radians(args.theta) if args.degrees else args.theta
    value = mu(theta)
    _emit(args, {"theta": theta, "mu": value}, repr(value))
    return 0


def _cmd_gamma(args) -> int:
    theta = math.radians(args.theta) if args.degrees else args.theta
    value = gamma(args.t, theta)
    _emit(args, {"t": args.t, "theta": theta, "gamma": value}, repr(value))
    return 0


def _cmd_segment(args) -> int:
    closed = segment_mean_abs(args.c, args.d)
    payload = {"closed": closed}
    human = f"closed = {closed!r}"
    if args.quadrature is not None:
        approx = segment_mean_abs_quadrature(args.c, args.d, args.quadrature)
        payload["quadrature"] = approx
        payload["nodes"] = args.quadrature
        human += f"\nquadrature[{args.quadrature}] = {approx!r}"
    _emit(args, payload, human)
    return 0


def _cmd_triangle(args) -> int:
    return _emit_chain(args, check_triangle_refinement(args.c, args.d))


def _cmd_reverse_triangle(args) -> int:
    return _emit_chain(args, check_reverse_triangle(args.c, args.d, args.t))


def _cmd_radius(args) -> int:
    w = numerical_radius(load_matrix(args.input))
    _emit(args, {"radius": w}, repr(w))
    return 0


def _cmd_bounds(args) -> int:
    A = load_matrix(args.input)
    norm = spectral_norm(A)
    w = numerical_radius(A)
    kb = kittaneh_bound(A)
    weighted = kittaneh_bound(A, args.v)
    payload = {
        "spectral_norm": norm,
        "numerical_radius": w,
        "kittaneh_bound": kb,
        "weighted_bound": weighted,
        "v": args.v,
    }
    human = (
        f"spectral_norm    = {norm!r}\n"
        f"numerical_radius = {w!r}\n"
        f"kittaneh_bound   = {kb!r}\n"
        f"weighted_bound   = {weighted!r}   (v={args.v:g})"
    )
    _emit(args, payload, human)
    return 0


def _cmd_angle_profile(args) -> int:
    A = load_matrix(args.input)
    prof = angle_profile(A, args.v, args.samples, args.seed)
    payload = {
        "v": prof.v,
        "samples": prof.samples,
        "skipped": prof.skipped,
        "theta_min": prof.theta_min,
        "theta_max": prof.theta_max,
        "histogram": [list(b) for b in prof.histogram],
    }
    lines = [
        f"v = {prof.v:g}  samples = {prof.samples}  skipped = {prof.skipped}",
        f"theta_min = {prof.theta_min!r}",
        f"theta_max = {prof.theta_max!r}",
        "histogram (bin center, count):",
    ]
    lines += [f"  {center:.6f}  {count}" for center, count in prof.histogram if count]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    config = SweepConfig(
        seed=args.seed,
        trials=args.trials,
        operator_trials=args.operator_trials,
    )
    summary = run_suite(config, suite=args.suite)
    if args.out:
        write_report(summary, args.out, format="json")
    if args.csv:
        write_report(summary, args.csv, format="csv")
    total_fail = sum(c.n_fail for c in summary.checks)
    if args.json:
        print(json.dumps(summary_to_dict(summary), sort_keys=True))
    else:
        header = f"{'check':28s} {'pass':>8s} {'fail':>6s} {'undef':>6s} {'skip':>6s}  worst_slack"
        print(header)
        for c in summary.checks:
            worst = "-" if c.worst_slack is None else f"{c.worst_slack:.3e}"
            print(f"{c.name:28s} {c.n_pass:8d} {c.n_fail:6d} {c.n_undefined:6d} "
                  f"{c.n_skipped:6d}  {worst}")
        print(f"total failures: {total_fail}   wall: {summary.wall_ms:.0f} ms")
    return 0 if total_fail == 0 else 1


@functools.cache  # built once per process: parsing mutates no parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opineq",
        description="Refined triangle / Cauchy-Schwarz / numerical-radius inequality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        return p

    p = add("mu", _cmd_mu, "evaluate the refinement factor mu(theta)")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")

    p = add("gamma", _cmd_gamma, "evaluate the reverse factor gamma_t(theta)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")

    p = add("segment", _cmd_segment, "segment average of |s*c + (1-s)*d| on [0, 1]")
    p.add_argument("--c", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--d", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--quadrature", type=int, default=None, metavar="N",
                   help="also print the N-node Gauss-Legendre value")

    p = add("triangle", _cmd_triangle, "check |c+d|/2 <= I(c,d) <= (|c|+|d|)/2")
    p.add_argument("--c", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--d", type=_parse_complex, required=True, metavar="RE,IM")

    p = add("reverse-triangle", _cmd_reverse_triangle, "check the reverse triangle bound")
    p.add_argument("--c", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--d", type=_parse_complex, required=True, metavar="RE,IM")
    p.add_argument("--t", type=float, required=True)

    p = add("radius", _cmd_radius, "numerical radius of a matrix from JSON")
    p.add_argument("--input", required=True, metavar="M.json")

    p = add("bounds", _cmd_bounds, "norm, radius, and radius upper bounds")
    p.add_argument("--input", required=True, metavar="M.json")
    p.add_argument("--v", type=float, required=True,
                   help="weight of the bound || |A|^2v + |A*|^2(1-v) || / 2")

    p = add("angle-profile", _cmd_angle_profile, "sampled distribution of theta_x")
    p.add_argument("--input", required=True, metavar="M.json")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("check", _cmd_check, "run the property-check suite")
    p.add_argument("--suite", choices=("scalar", "operator", "all"), default="all")
    defaults = SweepConfig()
    p.add_argument("--trials", type=int, default=defaults.trials)
    p.add_argument("--operator-trials", type=int, default=defaults.operator_trials,
                   dest="operator_trials")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", default=None, metavar="report.json")
    p.add_argument("--csv", default=None, metavar="report.csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
