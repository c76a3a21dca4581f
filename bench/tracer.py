"""Spans around calls into the layers of ``nsconst``, recorded from outside.

``Tracer.install`` replaces each traced public function, in every loaded
``nsconst`` module that binds it, by a wrapper that records a span (name,
start, end, parent) and passes the call through unchanged.  Calls the
program makes internally, such as ``farfield_detail`` calling
``remainder_max``, therefore show as child spans, and a layer's self time
leaves its children out, so no time is counted twice.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

# traced functions, as "module.function" of the package, in pipeline order
TRACED = (
    "cli.main",
    "upper.upper_bound",
    "envelopes.envelope_max",
    "envelopes.tail_delta",
    "flatsums.ball_scan",
    "lattice.nonzero_ball",
    "flatsums.canonical_points",
    "farfield.farfield_detail",
    "farfield.sphere_polys",
    "series.remainder_max",
    "upper.sandwich_check",
    "flatsums.full_sum_oracle_batch",
    "checks.check_mean_and_divergence",
    "checks.check_leray_properties",
    "checks.check_k_trial_closed_forms",
    "checks.check_g_trial_closed_forms",
    "lower.k_lower_combined",
    "lower.g_lower_optimize",
)


def _info(name: str, args, result):
    """The few facts of a call that the per-layer metrics need."""
    if name == "flatsums.ball_scan":
        return {"points": result.points_scanned, "d": args[1].d, "rho": args[2],
                "value": result.max_value}
    if name == "flatsums.full_sum_oracle_batch":
        return {"ks": len(args[1]), "d": args[2].d, "big_radius": args[3]}
    if name == "farfield.farfield_detail":
        return {"value": result.value}
    if name == "envelopes.tail_delta":
        return {"value": result}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.overhead = 0.0  # seconds spent in the wrappers, outside the calls
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident()}
            idx = len(self.spans)
            self.spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span["start"], span["end"] = t0, t1
            span["info"] = _info(name, args, result)
            self.overhead += (t0 - t_in) + (time.perf_counter() - t1)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "nsconst" or key.startswith("nsconst.")]
        for name in TRACED:
            mod, attr = name.split(".")
            original = getattr(sys.modules[f"nsconst.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Self time of each span: its duration less the durations of its
        direct children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSON, times in seconds after ``origin``."""
        own = self.self_times()
        rows = [
            {"name": s["name"], "parent": s["parent"], "thread": s["thread"],
             "start": s["start"] - origin, "end": s["end"] - origin,
             "self": own[i], "info": s.get("info")}
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "overhead_s": self.overhead}, indent=1))
