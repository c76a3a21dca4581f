"""nsconst benchmark: one workload per run, timed from outside the program.

    python3 bench/run.py --workload desk-row --seed 0 --seconds 5 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and nowhere else; without it the run exits 2 and prints no
result.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # first statement: set-up is timed from here

import os


def _age_at_start() -> float:
    """Seconds from the start of this process to ``T_START``, as far as the
    kernel's 10 ms start stamp resolves it."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        return max(0.0, age - (time.perf_counter() - T_START))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


STARTUP_S = _age_at_start()

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import nsconst from this checkout's src/, pinned to 2 threads."""
    for var in ("NSCONST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "2"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nsconst
    except ImportError as exc:
        _fail(f"cannot import nsconst from {src}: {exc}")
    if src.resolve() not in Path(nsconst.__file__).resolve().parents:
        _fail(f"nsconst was imported from {nsconst.__file__}, not from {src}")
    import workloads
    import tracer

    return workloads, tracer


def _memo_caches() -> list:
    """The package's functools caches, cleared before each round so that
    every round does the whole work."""
    found = []
    for key, mod in list(sys.modules.items()):
        if key.startswith("nsconst."):
            found += [obj for obj in vars(mod).values()
                      if callable(getattr(obj, "cache_clear", None)) and obj not in found]
    return found


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(wl, cache_dir: str):
    """One round of the workload's operations; returns outputs and failures."""
    outputs, failed = {}, 0
    for name, op in wl.ops(cache_dir):
        try:
            outputs[name] = op()
        except Exception:  # a failing program call is counted, not fatal
            failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc()
    return outputs, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="rounds repeat until their solve time reaches this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, tracer_mod = _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    caches = _memo_caches()
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    tr = tracer_mod.Tracer() if args.trace else None
    setup_s = STARTUP_S + time.perf_counter() - T_START

    solve, cpu, rounds = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    try:
        if tr is not None:
            tr.install()
        while not rounds or sum(solve) < args.seconds:
            for cache in caches:
                cache.cache_clear()
            cache_dir = tempfile.mkdtemp(dir=scratch)  # fresh: no cache hits
            first_span = len(tr.spans) if tr else 0
            t0, c0 = time.perf_counter(), _cpu()
            outputs, n_failed = run_round(wl, cache_dir)
            solve.append(time.perf_counter() - t0)
            cpu.append(_cpu() - c0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += len(outputs) + n_failed
            failed += n_failed
            rounds.append((first_span, len(tr.spans) if tr else 0))
            layer_out = _pipeline_values(tr, first_span) if tr else None
            problems += wl.check(outputs, layer_out)
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    if tr is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(solve), "s"),
            "cpu_s": (statistics.median(cpu), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tr, rounds, statistics.median(solve), wl)
        tr.write(OUT / f"{args.workload}-seed{args.seed}.trace.json", T_START)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if not problems else 1


def _pipeline_values(tr, first: int) -> dict:
    """Outputs of the layer calls made by this round's upper_bound."""
    out = {}
    for s in tr.spans[first:]:
        parent, info = s["parent"], s.get("info")
        if info and parent is not None and tr.spans[parent]["name"] == "upper.upper_bound":
            out[s["name"]] = info["value"]
    return out


# per-layer metric -> traced functions whose self time it sums
LAYER_TIMES = {
    "farfield.max_s": ("farfield.farfield_detail",),
    "farfield.moments_s": ("farfield.sphere_polys",),
    "flatsums.scan_s": ("flatsums.ball_scan",),
    "flatsums.oracle_s": ("flatsums.full_sum_oracle_batch",),
    "spectral.checks_s": ("checks.check_mean_and_divergence", "checks.check_leray_properties",
                          "checks.check_k_trial_closed_forms",
                          "checks.check_g_trial_closed_forms"),
    "lower.tables_s": ("lower.k_lower_combined", "lower.g_lower_optimize"),
    "envelopes.s": ("envelopes.envelope_max", "envelopes.tail_delta"),
    "series.remainder_s": ("series.remainder_max",),
    "lattice.ball_s": ("lattice.nonzero_ball", "flatsums.canonical_points"),
    "cli.report_s": ("cli.main",),
}


def _layer_metrics(tr, rounds, traced_solve: float, wl) -> dict:
    import reference as ref
    import nsconst.flatsums
    from nsconst.envelopes import ProblemParams

    own = tr.self_times()
    n = len(rounds)
    times = dict.fromkeys(LAYER_TIMES, 0.0)
    scan_cells = oracle_cells = 0
    for first, end in rounds:
        for i in range(first, end):
            s = tr.spans[i]
            for metric, names in LAYER_TIMES.items():
                if s["name"] in names:
                    times[metric] += own[i]
            info = s.get("info") or {}
            if s["name"] == "flatsums.ball_scan" and info:
                scan_cells += info["points"] * (ref.ball_count(info["d"], info["rho"]) - 1)
            if s["name"] == "flatsums.full_sum_oracle_batch" and info:
                oracle_cells += info["ks"] * ref.ball_count(info["d"], info["big_radius"])
    times = {k: v / n for k, v in times.items()}
    scan_cells //= n
    oracle_cells //= n

    def rate(cells, seconds):
        return cells / seconds / 1e6 if seconds > 0 else 0.0

    one_thread = 0.0
    if wl.single_thread_scan is not None:
        rho, mu = wl.single_thread_scan
        params = ProblemParams(wl.p, wl.n, wl.d)
        t0 = time.perf_counter()
        res = nsconst.flatsums.ball_scan(wl.kind, params, rho, mu, threads=1)
        one_thread = rate(res.points_scanned * (ref.ball_count(wl.d, rho) - 1),
                          time.perf_counter() - t0)
    m = {k: (v, "s") for k, v in times.items()}
    m["flatsums.scan_cells"] = (scan_cells, "count")
    m["flatsums.scan_mcells_per_s"] = (rate(scan_cells, times["flatsums.scan_s"]), "Mcells/s")
    m["flatsums.scan_1thread_mcells_per_s"] = (one_thread, "Mcells/s")
    m["flatsums.oracle_cells"] = (oracle_cells, "count")
    m["flatsums.oracle_mcells_per_s"] = (rate(oracle_cells, times["flatsums.oracle_s"]),
                                         "Mcells/s")
    m["trace.solve_s"] = (traced_solve, "s")
    m["trace.overhead_s"] = (tr.overhead / n, "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
