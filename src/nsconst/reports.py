"""Report serialization (JSON and CSV) and the on-disk result cache.

JSON reports keep a fixed key order and full-precision floats, so a report
round-trips exactly and identical jobs produce byte-identical files.  The
cache stores the serialized report keyed by a content hash of the job
settings, the package version and a digest of the package sources; large
scans are therefore free to re-run, and a code change invalidates them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any

from . import __version__
from .lower import LowerReport
from .rounding import sig_str
from .upper import UpperReport


def upper_report_dict(report: UpperReport, threads: int) -> dict[str, Any]:
    p = report.params
    c = report.config
    return {
        "meta": {
            "kind": report.kind,
            "p": p.p,
            "n": p.n,
            "d": p.d,
            "rho": c.rho,
            "mu": c.mu,
            "m": c.m,
            "version": __version__,
            "threads": threads,
            "seconds": round(report.seconds, 3),
        },
        "intermediates": {
            "ball_max": report.ball_max,
            "kmax": list(report.ball_argmax),
            "farfield": report.farfield,
            "farfield_bound": report.farfield_bound,
            "delta": report.tail_delta,
            "envelope": report.envelope.value,
            "envelope_argmax": list(report.envelope.argmax),
            "remainder_bound": report.remainder_bound,
            "tail_sum": report.tail_sum,
            "points_scanned": report.points_scanned,
            "quality": report.quality,
        },
        "result": {"raw": report.raw_final, "rounded": report.final_bound},
    }


def lower_report_dict(report: LowerReport, threads: int) -> dict[str, Any]:
    p = report.params
    return {
        "meta": {
            "kind": report.kind,
            "p": p.p,
            "n": p.n,
            "d": p.d,
            "rho": None,
            "mu": None,
            "m": None,
            "version": __version__,
            "threads": threads,
            "seconds": round(report.seconds, 3),
        },
        "intermediates": dict(report.components),
        "result": {"raw": report.raw_value, "rounded": report.value},
    }


def _csv_num(x: float) -> str:
    return f"{x:.6g}"


def report_csv(report: dict[str, Any]) -> str:
    """One-row CSV in the published table layout for the report's flavor."""
    meta = report["meta"]
    inter = report["intermediates"]
    final = sig_str(report["result"]["rounded"])
    if "ball_max" in inter:
        kmax = "(" + " ".join(str(int(v)) for v in inter["kmax"]) + ")"
        header = "p,n,rho,max_flat,kmax,farfield,delta,final"
        row = ",".join(
            [
                _csv_num(meta["p"]),
                _csv_num(meta["n"]),
                _csv_num(meta["rho"]),
                _csv_num(inter["ball_max"]),
                kmax,
                _csv_num(inter["farfield"]),
                _csv_num(inter["delta"]),
                final,
            ]
        )
    elif "family_sup" in inter:
        header = "p,n,k_simple,k_family,final"
        row = ",".join(
            [
                _csv_num(meta["p"]),
                _csv_num(meta["n"]),
                _csv_num(inter["simple"]),
                _csv_num(inter["family_sup"]),
                final,
            ]
        )
    else:
        header = "p,n,ell,lam,mu,nu,final"
        row = ",".join(
            [
                _csv_num(meta["p"]),
                _csv_num(meta["n"]),
                str(int(inter["ell"])),
                _csv_num(inter["lam"]),
                _csv_num(inter["mu"]),
                _csv_num(inter["nu"]),
                final,
            ]
        )
    return header + "\n" + row + "\n"


def report_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2) + "\n"


def emit(report: dict[str, Any], fmt: str, path: str | Path) -> Path:
    """Write the report in the requested format; returns the path written."""
    path = Path(path)
    if fmt == "json":
        text = report_json(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# -- cache ------------------------------------------------------------------


def cache_dir(explicit: str | Path | None = None) -> Path:
    """``explicit`` if given, else NSCONST_CACHE_DIR, else ~/.cache/nsconst."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("NSCONST_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nsconst"


@functools.cache
def source_digest() -> str:
    """SHA-256 of the package's ``*.py`` sources in sorted path order.

    Part of every cache key, so that a report computed by other code is never
    served.  Computed at the first ``job_key`` call, not at import.
    """
    root = Path(__file__).parent
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        h.update(rel.encode() + b"\0")
        h.update((root / rel).read_bytes())
    return h.hexdigest()


def job_key(settings: dict[str, Any]) -> str:
    """Content hash of the numeric job settings, the code version and the
    source digest."""
    payload = dict(sorted(settings.items()))
    payload["version"] = __version__
    payload["source"] = source_digest()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def cache_get(key: str, base: str | Path | None = None) -> dict[str, Any] | None:
    path = cache_dir(base) / f"{key}.json"
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_put(key: str, report: dict[str, Any], base: str | Path | None = None) -> None:
    base = cache_dir(base)
    base.mkdir(parents=True, exist_ok=True)
    text = report_json(report)
    fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, base / f"{key}.json")
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
