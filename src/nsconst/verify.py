"""Checks that a build reproduces the published table rows.

This module owns the reproduction policy: which fields of a recomputed
row are compared with the anchors in ``tables``, and at which tolerance
class.  Every check becomes one plain record; the ``verify-tables``
command prints the records and the acceptance suite asserts on them, so
both answer "does this build reproduce the tables?" the same way.

Upper rows are checked against an ``UpperReport`` the caller made, so a
caller that already holds the report (a memoized test fixture, say) does
not pay for a second far-field search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .envelopes import ProblemParams, envelope_max
from .flatsums import k_flat
from .lattice import canonicalize
from .lower import (
    TrialParams,
    g_lower_eval,
    g_lower_optimize,
    k_family_sup,
    k_lower_combined,
    k_lower_simple,
)
from .rounding import round_sig, sig_str
from .tables import (
    ARB_ANCHOR_52,
    ENVELOPE_C_ANCHORS,
    REL_FARFIELD,
    REL_FLAT,
    TABLE_E,
    TABLE_F,
    UpperAnchor,
)
from .upper import TruncationConfig, UpperReport, rough_upper, upper_bound


@dataclass(frozen=True)
class Check:
    where: str
    field: str
    ok: bool
    expected: Any
    got: Any


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _lower_str(value: float) -> str:
    return sig_str(round_sig(value, 3, "down"))


def upper_row_report(kind: str, row: UpperAnchor, threads: int | None = None) -> UpperReport:
    """Recompute a published upper row at the tables' settings
    (d = 3, mu = 2, m = 6)."""
    params = ProblemParams(float(row.p), float(row.n), 3)
    return upper_bound(kind, params, TruncationConfig(row.rho, 2.0, 6), threads=threads)


def upper_row_checks(rep: UpperReport, row: UpperAnchor) -> list[Check]:
    """Table C (kind K) or D (kind G) row against the report ``rep``."""
    where = f"table {'C' if rep.kind == 'K' else 'D'} ({row.p},{row.n}) rho={row.rho:g}"
    kmax = canonicalize(row.kmax)
    final = sig_str(rep.final_bound)
    rough = rough_upper(rep.kind, rep.params)
    return [
        Check(where, "max_flat", _close(rep.ball_max, row.max_flat, REL_FLAT),
              row.max_flat, rep.ball_max),
        Check(where, "kmax", rep.ball_argmax == kmax, kmax, rep.ball_argmax),
        Check(where, "delta", _close(rep.tail_delta, row.delta, REL_FLAT),
              row.delta, rep.tail_delta),
        Check(where, "farfield", _close(rep.farfield, row.farfield, REL_FARFIELD),
              row.farfield, rep.farfield),
        Check(where, "final", final == row.final, row.final, final),
        Check(where, "rough>=refined", rough >= rep.raw_final, f">= {rep.raw_final}", rough),
    ]


def table_e_checks() -> list[Check]:
    """Basic-inequality lower bounds: the three printed columns, and the
    combined column as the larger of the other two."""
    out = []
    for row in TABLE_E:
        params = ProblemParams(float(row.p), float(row.n), 3)
        where = f"table E ({row.p},{row.n})"
        simple = k_lower_simple(params)
        family = k_family_sup(params)[0]
        combined = k_lower_combined(params)
        out += [
            Check(where, "simple", _lower_str(simple) == row.simple,
                  row.simple, _lower_str(simple)),
            Check(where, "family", _lower_str(family) == row.family,
                  row.family, _lower_str(family)),
            Check(where, "combined", sig_str(combined.value) == row.combined,
                  row.combined, sig_str(combined.value)),
            Check(where, "combined=max(simple,family)",
                  combined.raw_value == max(simple, family),
                  max(simple, family), combined.raw_value),
        ]
    return out


def table_f_checks() -> list[Check]:
    """Kato-inequality lower bounds: the printed value at the printed
    parameter point, and an optimized value no smaller than it."""
    out = []
    for row in TABLE_F:
        params = ProblemParams(float(row.p), float(row.n), 3)
        where = f"table F ({row.p},{row.n})"
        at_point = _lower_str(g_lower_eval(params, TrialParams(*row.theta)))
        best = g_lower_optimize(params).raw_value
        out += [
            Check(where, "value_at_point", at_point == row.value, row.value, at_point),
            Check(where, "optimized>=printed", best >= float(row.value),
                  f">= {row.value}", best),
        ]
    return out


def arb_anchor_checks() -> list[Check]:
    """The (5,2) flat sum at cutoff 50 against its ball-arithmetic value."""
    a = ARB_ANCHOR_52
    got = k_flat(a["k"], ProblemParams(float(a["p"]), float(a["n"]), 3), a["rho"])
    return [Check("high-precision anchor (5,2) rho=50", "flat(2,1,0)",
                  abs(got - a["value"]) <= a["abs_tol"], a["value"], got)]


def envelope_c_checks() -> list[Check]:
    """The quoted Kato-side envelope maxima."""
    out = []
    for (p, n), expected in ENVELOPE_C_ANCHORS.items():
        got = envelope_max(ProblemParams(float(p), float(n), 3), "C").value
        out.append(Check(f"envelope C ({p},{n})", "value",
                         _close(got, expected, REL_FLAT), expected, got))
    return out
