"""Command-line front end.

Subcommands:
    upper          refined upper bound for one exponent pair
    lower          trial-field lower bound
    rough          closed-form rough upper bound
    asymptotics    closed-form large-p lower bound and its asymptote
    limits         p-th roots of the rough bounds along a list of p values
    verify-tables  recompute published table rows and compare
    oracle         randomized spectral cross-checks

Exit codes: 0 success, 2 regime/argument error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from typing import Callable

from . import __version__
from .envelopes import ProblemParams
from .errors import InvalidArgumentError, NsconstError, OutOfRegimeError
from .flatsums import thread_count
from .lower import (
    asymptote_log,
    asymptotic_lower,
    asymptotic_lower_log,
    g_lower_optimize,
    k_lower_combined,
    limit_probe,
)
from .reports import (
    cache_get,
    cache_put,
    emit,
    job_key,
    lower_report_dict,
    report_json,
    upper_report_dict,
)
from .tables import TABLE_C, TABLE_D, desk_rows
from .upper import (
    TruncationConfig,
    rough_upper,
    rough_upper_log,
    rough_upper_root,
    upper_bound,
)
from .verify import (
    Check,
    arb_anchor_checks,
    envelope_c_checks,
    table_e_checks,
    table_f_checks,
    upper_row_checks,
    upper_row_report,
)


def _add_common(sp: argparse.ArgumentParser, need_p: bool = True) -> None:
    sp.add_argument("--kind", required=True, choices=["K", "G"])
    if need_p:
        sp.add_argument("--p", required=True, type=float)
    sp.add_argument("--n", required=True, type=float)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sp.add_argument("--csv", metavar="PATH", help="write the CSV row here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nsconst", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    up = sub.add_parser("upper", help="refined upper bound")
    _add_common(up)
    up.add_argument("--rho", required=True, type=float)
    up.add_argument("--mu", type=float, default=2.0)
    up.add_argument("--order", "-m", type=int, default=6, dest="m")
    up.add_argument("--threads", type=int)
    up.add_argument(
        "--no-symmetry",
        action="store_true",
        help="scan every frequency instead of one per symmetry orbit (cross-check)",
    )
    up.add_argument("--no-cache", action="store_true")
    up.add_argument("--cache-dir", metavar="DIR")

    lo = sub.add_parser("lower", help="trial-field lower bound")
    _add_common(lo)
    lo.add_argument("--no-cache", action="store_true")
    lo.add_argument("--cache-dir", metavar="DIR")

    ro = sub.add_parser("rough", help="closed-form rough upper bound")
    _add_common(ro)
    ro.add_argument("--log-domain", action="store_true", help="report logarithms only")

    asym = sub.add_parser("asymptotics", help="closed-form large-p lower bound")
    _add_common(asym)
    asym.add_argument("--log-domain", action="store_true", help="report logarithms only")

    lim = sub.add_parser("limits", help="p-th roots of the bounds along p")
    lim.add_argument("--kind", required=True, choices=["K", "G"])
    lim.add_argument("--n", required=True, type=float)
    lim.add_argument("--d", type=int, default=3)
    lim.add_argument("--p-list", default="100,1000,10000,100000")

    ver = sub.add_parser("verify-tables", help="recompute published rows and compare")
    ver.add_argument("--selection", choices=["desk", "extended"], default="desk")
    ver.add_argument(
        "--tables", default="C,D,E,F", help="comma list from C,D,E,F,anchors"
    )
    ver.add_argument("--threads", type=int)

    orc = sub.add_parser("oracle", help="randomized spectral cross-checks")
    orc.add_argument("--d", type=int, default=3)
    orc.add_argument("--samples", type=int, default=50)
    orc.add_argument("--seed", type=int, default=0)
    return ap


def _finish(report: dict, args) -> None:
    sys.stdout.write(report_json(report))
    if getattr(args, "json", None):
        emit(report, "json", args.json)
    if getattr(args, "csv", None):
        emit(report, "csv", args.csv)


# the arguments that decide a report (not output paths, threads or cache flags)
_JOB_FIELDS = ("command", "kind", "p", "n", "d", "rho", "mu", "m", "no_symmetry")


def _cached_report(args, compute: Callable[[], dict]) -> dict:
    """The cached report of this job, else ``compute()`` stored in the cache."""
    if args.no_cache:
        return compute()
    key = job_key({name: getattr(args, name, None) for name in _JOB_FIELDS})
    report = cache_get(key, args.cache_dir)
    if report is None:
        report = compute()
        cache_put(key, report, args.cache_dir)
    return report


def cmd_upper(args) -> int:
    def compute() -> dict:
        res = upper_bound(
            args.kind,
            ProblemParams(args.p, args.n, args.d),
            TruncationConfig(args.rho, args.mu, args.m),
            threads=args.threads,
            use_symmetry=not args.no_symmetry,
        )
        return upper_report_dict(res, thread_count(args.threads))

    _finish(_cached_report(args, compute), args)
    return 0


def cmd_lower(args) -> int:
    def compute() -> dict:
        params = ProblemParams(args.p, args.n, args.d)
        res = k_lower_combined(params) if args.kind == "K" else g_lower_optimize(params)
        return lower_report_dict(res, 1)

    _finish(_cached_report(args, compute), args)
    return 0


def _finish_closed_form(result: dict, args) -> int:
    meta = {"kind": args.kind, "p": args.p, "n": args.n, "d": args.d, "version": __version__}
    _finish({"meta": meta, "result": result}, args)
    return 0


def cmd_rough(args) -> int:
    params = ProblemParams(args.p, args.n, args.d)
    result = {
        "log_rough_upper": rough_upper_log(args.kind, params),
        "pth_root": rough_upper_root(args.kind, params),
    }
    if not args.log_domain:
        result = {"rough_upper": rough_upper(args.kind, params), **result}
    return _finish_closed_form(result, args)


def cmd_asymptotics(args) -> int:
    params = ProblemParams(args.p, args.n, args.d)
    lg = asymptotic_lower_log(args.kind, params)
    result = {
        "log_lower": lg,
        "pth_root": math.exp(lg / args.p),
        "asymptote_ratio": math.exp(lg - asymptote_log(args.kind, params)),
    }
    if not args.log_domain:
        result = {"lower": asymptotic_lower(args.kind, params), **result}
    return _finish_closed_form(result, args)


def cmd_limits(args) -> int:
    p_list = [float(tok) for tok in args.p_list.split(",") if tok]
    rows = limit_probe(args.kind, args.n, args.d, p_list)
    print(f"# kind={args.kind} n={args.n} d={args.d}")
    print("p,lower_root,upper_root")
    for p, lo, hi in rows:
        print(f"{p:g},{lo:.6f},{hi:.6f}")
    return 0


def cmd_oracle(args) -> int:
    from .checks import run_spectral_checks

    failed = 0
    for res in run_spectral_checks(args.d, args.samples, args.seed):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: worst deviation {res.worst:.3e} (tol {res.tol:g})")
        failed += 0 if res.passed else 1
    return 3 if failed else 0


# -- table verification -------------------------------------------------------

_TABLE_NAMES = {"C", "D", "E", "F", "ANCHORS"}


def _print_checks(checks: list[Check], tally: Counter) -> None:
    for c in checks:
        tally[c.ok] += 1
        if c.ok:
            print(f"[PASS] {c.where} {c.field}")
        else:
            print(f"[FAIL] {c.where} {c.field}: expected {c.expected}, got {c.got}")


def cmd_verify_tables(args) -> int:
    wanted = {tok.strip().upper() for tok in args.tables.split(",") if tok.strip()}
    if not wanted or not wanted <= _TABLE_NAMES:
        raise InvalidArgumentError(
            f"--tables takes names from C,D,E,F,anchors, got {args.tables!r}"
        )
    tally: Counter = Counter()
    for name, kind, table in (("C", "K", TABLE_C), ("D", "G", TABLE_D)):
        if name in wanted:
            for row in desk_rows(table) if args.selection == "desk" else table:
                rep = upper_row_report(kind, row, args.threads)
                _print_checks(upper_row_checks(rep, row), tally)
    if "E" in wanted:
        _print_checks(table_e_checks(), tally)
    if "F" in wanted:
        _print_checks(table_f_checks(), tally)
    if "ANCHORS" in wanted or args.selection == "extended":
        _print_checks(arb_anchor_checks() + envelope_c_checks(), tally)
    print(f"# {tally[True]} passed, {tally[False]} failed")
    return 3 if tally[False] else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "upper": cmd_upper,
        "lower": cmd_lower,
        "rough": cmd_rough,
        "asymptotics": cmd_asymptotics,
        "limits": cmd_limits,
        "verify-tables": cmd_verify_tables,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except OutOfRegimeError as exc:
        print(f"error: out of regime: {exc}", file=sys.stderr)
        return 2
    except NsconstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
