"""Command-line surface: eval | reduce | verify | surject.

Defaults come from MPLKIT_* environment variables when set; explicit flags
always win.  Output files are written to a temporary sibling and renamed,
so a failing command never leaves a partial file behind.  The library's
exceptions map to exit codes in one table, FAILURES, applied by `main`.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .coalgebra import (
    GroupElement,
    InfeasibleWeights,
    RootCapExceeded,
    construct_preimage,
    verify_preimage,
)
from .numeval import (
    Composition,
    CutoffOverflow,
    DivergentRequest,
    EvalRequest,
    eval_li,
)
from .reduction import reduce_li
from .serialize import (
    format_float,
    generator_combination_dumps,
    identity_dumps,
    identity_loads,
    identity_to_latex,
    preimage_report_dumps,
    report_dumps,
)
from .verify import ConvergenceViolation, VerificationPlan, verify_identity

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CUTOFF = 3
EXIT_VERIFY_FAILED = 4
EXIT_CAP = 5

# exception class -> (exit code, message prefix); the nearest class in the
# raised exception's MRO wins
FAILURES = {
    DivergentRequest: (EXIT_PRECONDITION, "divergent request"),
    ConvergenceViolation: (EXIT_PRECONDITION, "convergence violation"),
    InfeasibleWeights: (EXIT_PRECONDITION, "infeasible weights"),
    ValueError: (EXIT_PRECONDITION, "error"),
    CutoffOverflow: (EXIT_CUTOFF, "cutoff overflow"),
    RootCapExceeded: (EXIT_CAP, "cap exceeded"),
}


def _env(name: str, default, cast):
    raw = os.environ.get(f"MPLKIT_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise SystemExit(f"bad MPLKIT_{name} value {raw!r}")


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mplkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _plan_from_args(args) -> VerificationPlan:
    return VerificationPlan(
        seed=args.seed,
        point_count=args.points,
        radius=args.radius,
        tolerance=args.tol,
        allow_complex=not args.real,
    )


def _print_report_summary(report) -> None:
    print(f"points:       {len(report.points)}")
    print(f"max residual: {format_float(report.max_relative_residual)} (relative)")
    print(f"tolerance:    {format_float(report.plan.tolerance)}")
    print(f"result:       {'pass' if report.passed else 'FAIL'}")


def _print_report_table(report) -> None:
    print(f"{'point':>5}  {'|lhs - rhs|':>12}  {'l1 mass':>12}  {'relative':>12}")
    for i, rec in enumerate(report.points, start=1):
        print(
            f"{i:>5}  {rec.residual:>12.4e}  {rec.l1_mass:>12.4e}  "
            f"{rec.relative_residual:>12.4e}"
        )


def cmd_eval(args) -> int:
    parts = tuple(int(p) for p in args.indices.split(","))
    values = tuple(complex(a) for a in args.args.split(","))
    result = eval_li(EvalRequest(Composition(parts), values, args.prec))
    v = result.value
    print(f"value:      {format_float(v.real)} + {format_float(v.imag)}j")
    print(f"cutoff:     {result.cutoff}")
    print(f"tail bound: {format_float(result.tail_bound)}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.k < 1 or args.l < 1 or args.k + args.l > 8:
        raise ValueError("need k, l >= 1 and k + l <= 8")
    plan = _plan_from_args(args) if args.verify else None
    identity = reduce_li(args.k, args.l)
    text = (
        identity_to_latex(identity) + "\n"
        if args.emit == "latex"
        else identity_dumps(identity)
    )
    # verify before writing, so a failed precondition or cutoff leaves no file
    report = verify_identity(identity, plan) if args.verify else None
    _emit(text, args.out)
    if report is None:
        return EXIT_OK
    _print_report_summary(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    plan = _plan_from_args(args)
    try:
        with open(args.file) as handle:
            identity = identity_loads(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = verify_identity(identity, plan)
    if args.report:
        write_atomic(args.report, report_dumps(report))
    _print_report_table(report)
    _print_report_summary(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_surject(args) -> int:
    weights = tuple(int(w) for w in args.weights.split(","))
    if len(weights) > 3 or sum(weights) > 8:
        raise ValueError("need depth <= 3 and total weight <= 8")
    gens = tuple(
        GroupElement.generator(f"a{i + 1}") for i in range(len(weights))
    )
    combo = construct_preimage(weights, gens)
    report = verify_preimage(combo, weights, gens)
    _emit(generator_combination_dumps(combo), args.out)
    if args.report:
        write_atomic(args.report, preimage_report_dumps(report))
    print(f"terms:   {len(combo.terms)}")
    print(f"matched: {report.matched}")
    if not report.matched:
        print(f"residual: {report.residual}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplkit",
        description=(
            "generate, manipulate and numerically verify "
            "multiple-polylogarithm identities"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one multiple polylogarithm")
    p_eval.add_argument("--indices", required=True, help="comma-separated, e.g. 3,1")
    p_eval.add_argument("--args", required=True, help="comma-separated complex values")
    p_eval.add_argument(
        "--prec",
        type=float,
        default=_env("PREC", 1e-12, float),
        help="absolute error target (default 1e-12)",
    )
    p_eval.set_defaults(func=cmd_eval)

    def add_plan_flags(p) -> None:
        p.add_argument("--seed", type=int, default=_env("SEED", 42, int))
        p.add_argument("--points", type=int, default=_env("POINTS", 20, int))
        p.add_argument("--radius", type=float, default=_env("RADIUS", 0.7, float))
        p.add_argument("--tol", type=float, default=_env("TOL", 1e-9, float))
        p.add_argument(
            "--real", action="store_true", help="sample real points instead of complex"
        )

    p_reduce = sub.add_parser(
        "reduce", help="emit the identity reducing Li_{k,l} to Li_{n-1,1} and Li_n"
    )
    p_reduce.add_argument("--k", type=int, required=True)
    p_reduce.add_argument("--l", type=int, required=True)
    p_reduce.add_argument("--emit", choices=("json", "latex"), default="json")
    p_reduce.add_argument("--out", help="output file (default: stdout)")
    p_reduce.add_argument(
        "--verify", action="store_true", help="numerically verify before exiting"
    )
    add_plan_flags(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", help="verify an identity file numerically")
    p_verify.add_argument("file", help="identity JSON file")
    p_verify.add_argument("--report", help="write the full report JSON here")
    add_plan_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_surject = sub.add_parser(
        "surject",
        help="construct the generator combination mapping onto a tensor word",
    )
    p_surject.add_argument(
        "--weights", required=True, help="comma-separated slot weights, e.g. 3,2"
    )
    p_surject.add_argument("--out", help="output file (default: stdout)")
    p_surject.add_argument("--report", help="write the exact check report here")
    p_surject.set_defaults(func=cmd_surject)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, prefix = next(FAILURES[c] for c in type(exc).__mro__ if c in FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
