"""The benchmark's workloads: the program calls each one times, the inputs
it draws from the seed, and the checks of the outputs.

A workload's ``ops`` are the timed operations of one round; ``check`` runs
after the timing and returns the list of failed checks.  In a traced run it
also gets ``layers``, the values the traced layer calls of the round's
``upper_bound`` returned.  Every call into the program goes through a module
attribute looked up at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random

import nsconst.checks
import nsconst.cli
import nsconst.lower
import nsconst.upper
from nsconst.envelopes import ProblemParams
from nsconst.lower import TrialParams

import reference as ref

THREADS = 2  # scan and oracle workers, pinned: the reference box has 2 cores
MAX_DEV = 1e-10  # largest deviation a spectral cross-check may report
REL_EQ = 1e-12  # reference sum at the argmax versus the reported maximum


class OpFailed(Exception):
    """A program call ended in an error."""


def run_cli(argv: list[str]) -> str:
    """Run the ``nsconst`` entry point in this process; return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nsconst.cli.main(argv)
    if code != 0:
        raise OpFailed(f"nsconst {' '.join(argv)} exited {code}")
    return buf.getvalue()


def paper_raw(d: int, ball_max: float, farfield: float, delta: float) -> float:
    """The refined bound before rounding:
    (2 pi)^(-d/2) sqrt(max(scan maximum, far-field bound) + delta)."""
    return (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(max(ball_max, farfield) + delta)


def _fmt(x: float) -> str:
    return format(x, "g")


class Row:
    """One refined upper bound through ``nsconst upper`` and the trial-field
    lower bound of the same exponents through ``nsconst lower``."""

    def __init__(self, name, kind, p, n, d, rho, published=None, samples=3,
                 single_thread_scan=None):
        self.name = name
        self.kind, self.p, self.n, self.d, self.rho = kind, p, n, d, rho
        self.mu, self.m = 2.0, 6
        self.published = published
        self.samples = samples  # reference points inside and beyond the scan ball
        # (rho, mu) of a threads=1 ball_scan the traced run adds, or None
        self.single_thread_scan = single_thread_scan
        self._ref_sums: dict[tuple[int, ...], float] = {}  # k -> reference sum

    def prepare(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        r_scan = self.mu * self.rho
        self.inside = _sample_shell(rng, self.d, 0.0, r_scan, self.samples)
        self.beyond = _sample_shell(rng, self.d, r_scan, 1.5 * r_scan, self.samples)

    def ops(self, cache_dir: str):
        common = ["--kind", self.kind, "--p", _fmt(self.p), "--n", _fmt(self.n),
                  "--d", str(self.d)]
        upper = ["upper", *common, "--rho", _fmt(self.rho), "--mu", _fmt(self.mu),
                 "--order", str(self.m), "--threads", str(THREADS), "--cache-dir", cache_dir]
        lower = ["lower", *common, "--cache-dir", cache_dir]
        return [
            ("upper", lambda: json.loads(run_cli(upper))),
            ("lower", lambda: json.loads(run_cli(lower))),
        ]

    def check(self, out: dict, layers=None) -> list[str]:
        bad: list[str] = []
        rep, low = out.get("upper"), out.get("lower")
        if rep is not None:
            bad += self._check_upper(rep, layers)
        if rep is not None and low is not None:
            if not low["result"]["raw"] <= rep["result"]["raw"]:
                bad.append(f"lower bound {low['result']['raw']} above upper {rep['result']['raw']}")
        return bad

    def _check_upper(self, rep: dict, layers) -> list[str]:
        bad = []
        inter, raw = rep["intermediates"], rep["result"]["raw"]
        ball_max, ff_bound = inter["ball_max"], inter["farfield_bound"]
        if rep["meta"]["threads"] != THREADS:
            bad.append(f"ran on {rep['meta']['threads']} threads, not {THREADS}")
        if paper_raw(self.d, ball_max, ff_bound, inter["delta"]) != raw:
            bad.append("raw bound differs from the formula applied to the report's parts")
        if layers is not None:
            traced = paper_raw(self.d, layers["flatsums.ball_scan"],
                               layers["farfield.farfield_detail"], layers["envelopes.tail_delta"])
            if traced != raw:
                bad.append(f"bound assembled from traced layer calls {traced!r} != {raw!r}")
        final = ref.sig3(raw, "up")
        if float(final) != rep["result"]["rounded"]:
            bad.append(f"rounded final {rep['result']['rounded']} is not {final}")
        pub = self.published
        if pub is not None:
            if final != pub["final"]:
                bad.append(f"final {final} != published {pub['final']}")
            if tuple(inter["kmax"]) != pub["kmax"]:
                bad.append(f"kmax {inter['kmax']} != published {pub['kmax']}")
            for key, got, rel in (("max_flat", ball_max, ref.REL_FLAT),
                                  ("delta", inter["delta"], ref.REL_FLAT),
                                  ("farfield", inter["farfield"], ref.REL_FARFIELD)):
                if not ref.rel_close(got, pub[key], rel):
                    bad.append(f"{key} {got} != published {pub[key]} (rel {rel:g})")
        at_max = self._ref_sum(inter["kmax"])
        if not ref.rel_close(at_max, ball_max, REL_EQ):
            bad.append(f"reference sum {at_max!r} at kmax != ball_max {ball_max!r}")
        for k in self.inside:
            v = self._ref_sum(k)
            if v > ball_max * (1.0 + REL_EQ):
                bad.append(f"reference sum {v!r} at {k} exceeds ball_max {ball_max!r}")
        for k in self.beyond:
            v = self._ref_sum(k)
            if v > ff_bound:
                bad.append(f"reference sum {v!r} at {k} exceeds farfield_bound {ff_bound!r}")
        return bad

    def _ref_sum(self, k) -> float:
        """The reference two-ball sum at ``k``, evaluated once per ``k`` in
        a process: later rounds check their outputs against the same sums."""
        k = tuple(int(x) for x in k)
        if k not in self._ref_sums:
            self._ref_sums[k] = ref.two_ball_sum(
                self.kind, self.p, self.n, self.rho, k, self._ball)
        return self._ref_sums[k]

    @functools.cached_property
    def _ball(self):
        return ref.ball(self.d, self.rho)


def _sample_shell(rng: random.Random, d: int, r_lo: float, r_hi: float, count: int):
    """``count`` distinct nonzero lattice points with r_lo <= |k| < r_hi."""
    lo, hi = r_lo * r_lo, r_hi * r_hi
    lim = math.ceil(r_hi)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        k = tuple(rng.randint(-lim, lim) for _ in range(d))
        ksq = sum(x * x for x in k)
        if ksq and lo <= ksq < hi and k not in out:
            out.append(k)
    return out


class Verify:
    """The cross-checks a researcher runs before trusting a bound: the
    sandwich against the unfolded oracle, the spectral identities, and the
    lower-bound tables E and F."""

    name = "verify"
    single_thread_scan = None

    big_radius = 100.0  # oracle ball
    frequencies = 8  # sandwich frequencies per kind
    spectral_samples = 8

    def __init__(self):
        self.sandwich = (("K", ProblemParams(2.0, 2.0, 3)), ("G", ProblemParams(3.0, 3.0, 3)))
        self.cfg = nsconst.upper.TruncationConfig(20.0, 2.0, 6)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        # frequencies inside the scan ball |k| < 2 rho = 40
        self.ks = {kind: _sample_shell(rng, 3, 0.0, 30.0, self.frequencies)
                   for kind, _ in self.sandwich}

    def ops(self, cache_dir: str):
        def sandwich(kind, params):
            return lambda: nsconst.upper.sandwich_check(
                kind, params, self.cfg, self.ks[kind], big_radius=self.big_radius)

        def spectral():
            # run_spectral_checks less its two orthogonality checks, which
            # raise on some seeds (see README.md); same sizes and seeds
            c, n, s = nsconst.checks, self.spectral_samples, self.seed
            return [
                c.check_mean_and_divergence(3, n, s + 2),
                c.check_leray_properties(3, min(n, 20), s + 3),
                c.check_k_trial_closed_forms(3, max(n // 2, 5), s + 4),
                c.check_g_trial_closed_forms(3, max(n // 2, 5), s + 5),
            ]

        def table_e():
            lo = nsconst.lower
            out = {}
            for p, n in ref.TABLE_E:
                params = ProblemParams(float(p), float(n), 3)
                out[p, n] = (lo.k_lower_simple(params), lo.k_family_sup(params)[0],
                             lo.k_lower_combined(params).raw_value)
            return out

        def table_f():
            lo = nsconst.lower
            out = {}
            for (p, n), (theta, _) in ref.TABLE_F.items():
                params = ProblemParams(float(p), float(n), 3)
                out[p, n] = (lo.g_lower_eval(params, TrialParams(*theta)),
                             lo.g_lower_optimize(params).raw_value)
            return out

        return [
            *((f"sandwich-{kind}", sandwich(kind, params)) for kind, params in self.sandwich),
            ("spectral", spectral),
            ("verify-tables", lambda: run_cli(["verify-tables", "--tables", "E,F"])),
            ("table-E", table_e),
            ("table-F", table_f),
        ]

    def check(self, out: dict, layers=None) -> list[str]:
        bad = []
        for kind, _ in self.sandwich:
            rec = out.get(f"sandwich-{kind}")
            if rec is None:
                continue
            if rec.checked != self.frequencies or not rec.strict_lower_checked:
                bad.append(f"sandwich {kind} checked {rec.checked} frequencies")
            if not (rec.worst_lower_margin > 0.0 and rec.worst_upper_margin >= 0.0):
                bad.append(f"sandwich {kind} margins {rec.worst_lower_margin}, "
                           f"{rec.worst_upper_margin}")
        for res in out.get("spectral", ()):
            if not res.worst <= MAX_DEV:
                bad.append(f"spectral check '{res.name}' deviates by {res.worst:g}")
        text = out.get("verify-tables")
        if text is not None and not text.rstrip().endswith(" passed, 0 failed"):
            bad.append("verify-tables: " + text.rstrip().splitlines()[-1])
        for (p, n), values in out.get("table-E", {}).items():
            got = tuple(ref.sig3(v, "down") for v in values)
            if got != ref.TABLE_E[p, n]:
                bad.append(f"table E ({p},{n}) {got} != published {ref.TABLE_E[p, n]}")
            if values[2] > float(ref.TABLE_C_FINAL[p, n]):
                bad.append(f"K lower bound ({p},{n}) {values[2]} above the upper final")
        for (p, n), (at_point, best) in out.get("table-F", {}).items():
            printed = ref.TABLE_F[p, n][1]
            if ref.sig3(at_point, "down") != printed:
                bad.append(f"table F ({p},{n}) {at_point} does not round to {printed}")
            if best < float(printed):
                bad.append(f"optimized Kato bound ({p},{n}) {best} below printed {printed}")
            if best > float(ref.TABLE_D_FINAL[p, n]):
                bad.append(f"G lower bound ({p},{n}) {best} above the upper final")
        return bad


WORKLOADS = {
    "desk-row": lambda: Row("desk-row", "G", 4.0, 3.0, 3, 20.0, published=ref.TABLE_D_43),
    "planar-row": lambda: Row("planar-row", "K", 3.0, 2.0, 2, 100.0, samples=8,
                              single_thread_scan=(50.0, 2.0)),
    "verify": Verify,
}
