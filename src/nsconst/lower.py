"""Lower bounds for the sharp constants from explicit trial fields.

Every bound here is a closed-form evaluation of the tautological
inequality ratio at a concrete pair of finitely supported fields; the
companion spectral module can rebuild those fields mode by mode and
reproduce each closed form, which is how the formulas are cross-checked.

Three families are implemented for the basic constant: a parameter-free
pair, a one-integer-parameter ladder with a closed-form heuristic for the
optimal rung, and closed-form large-p bounds obtained by evaluating the
ladder at the heuristic rung.  The Kato constant gets a four-parameter
family optimized by local coordinate descent, plus its own large-p form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import ProblemParams
from .errors import InvalidArgumentError
from .rounding import round_sig
from .upper import _LOG_DOMAIN_P, rough_upper_log


@dataclass(frozen=True)
class TrialParams:
    """Parameters (ell, lam, mu, nu) of the Kato-side trial family."""

    ell: int
    lam: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        if self.ell < 1 or int(self.ell) != self.ell:
            raise InvalidArgumentError("ell must be a positive integer")


@dataclass(frozen=True)
class LowerReport:
    kind: str
    params: ProblemParams
    components: dict[str, float | int | tuple]
    raw_value: float
    value: float  # rounddown of raw_value to 3 significant digits
    seconds: float = 0.0


# -- basic constant -------------------------------------------------------------


def k_lower_simple(params: ProblemParams) -> float:
    """Parameter-free lower bound: U_d (2 pi)^(-d/2) 2^(p/2), with U_d = 1
    for d >= 3 and 1/sqrt(2) in the planar case."""
    params.require_regime("K")
    p, d = params.p, params.d
    u_d = 1.0 if d >= 3 else 1.0 / math.sqrt(2.0)
    if p > _LOG_DOMAIN_P:
        return math.exp(
            math.log(u_d) + (p / 2.0) * math.log(2.0) - (d / 2.0) * math.log(2.0 * math.pi)
        )
    return u_d * (2.0 * math.pi) ** (-d / 2.0) * 2.0 ** (p / 2.0)


def k_lower_family(params: ProblemParams, ell: int) -> float:
    """Lower bound from the one-parameter trial pair at integer rung ell."""
    params.require_regime("K")
    if ell < 1 or int(ell) != ell:
        raise InvalidArgumentError("ell must be a positive integer")
    p, n, d = params.p, params.n, params.d
    L = float(ell)
    if p > _LOG_DOMAIN_P:
        return math.exp(_k_family_log(params, ell))
    if d >= 3:
        num = math.sqrt(2.0) * math.sqrt(1.0 + (1.0 + 4.0 * L * L) ** p)
        den = L**p * (1.0 + L * L) ** (n / 2.0 + 0.5) + L**n * (1.0 + L * L) ** (
            p / 2.0 + 0.5
        )
        return (2.0 * math.pi) ** (-d / 2.0) * num / den
    num = math.sqrt(2.0) * math.sqrt(
        1.0 + (1.0 + 2.0 * L * L) ** 2 * (1.0 + 4.0 * L * L) ** (p - 1.0)
    )
    den = L**p * (1.0 + L * L) ** (n / 2.0 + 1.0) + L**n * (1.0 + L * L) ** (
        p / 2.0 + 1.0
    )
    return num / (2.0 * math.pi * den)


def _k_family_log(params: ProblemParams, ell: int) -> float:
    p, n, d = params.p, params.n, params.d
    L = float(ell)
    l1 = math.log1p(L * L)
    if d >= 3:
        log_num = 0.5 * math.log(2.0) + 0.5 * np.logaddexp(0.0, p * math.log1p(4 * L * L))
        a = p * math.log(L) + (n / 2.0 + 0.5) * l1
        b = n * math.log(L) + (p / 2.0 + 0.5) * l1
        return float(log_num - np.logaddexp(a, b) - (d / 2.0) * math.log(2.0 * math.pi))
    log_num = 0.5 * math.log(2.0) + 0.5 * np.logaddexp(
        0.0, 2.0 * math.log1p(2 * L * L) + (p - 1.0) * math.log1p(4 * L * L)
    )
    a = p * math.log(L) + (n / 2.0 + 1.0) * l1
    b = n * math.log(L) + (p / 2.0 + 1.0) * l1
    return float(log_num - np.logaddexp(a, b) - math.log(2.0 * math.pi))


def lambda_heuristic(params: ProblemParams) -> float:
    """Closed-form approximation of the continuous optimum of the rung."""
    p, n, d = params.p, params.n, params.d
    if d >= 3:
        return math.sqrt((p - n) / (2.0 * (n + 1.0)))
    return math.sqrt((p - n + 2.0) / (2.0 * (n + 1.0)))


def heuristic_rung(params: ProblemParams) -> int:
    """Integer rung predicted by the heuristic: the better of the clamped
    floor and ceiling of the continuous optimum."""
    lam = lambda_heuristic(params)
    lo = max(math.floor(lam), 1)
    hi = max(math.ceil(lam), 1)
    if k_lower_family(params, lo) > k_lower_family(params, hi):
        return lo
    return hi


def k_family_sup(params: ProblemParams) -> tuple[float, int, int]:
    """Sup of the rung family over ell = 1 .. ceil(lambda)+10, with argmax
    and the heuristic rung."""
    top = max(math.ceil(lambda_heuristic(params)), 1) + 10
    best_val, best_ell = -math.inf, 1
    for ell in range(1, top + 1):
        v = k_lower_family(params, ell)
        if v > best_val:
            best_val, best_ell = v, ell
    return best_val, best_ell, heuristic_rung(params)


def k_lower_combined(params: ProblemParams) -> LowerReport:
    """Best of the parameter-free bound and the rung-family sup."""
    import time

    t0 = time.monotonic()
    simple = k_lower_simple(params)
    fam, ell, rung = k_family_sup(params)
    raw = max(simple, fam)
    return LowerReport(
        kind="K",
        params=params,
        components={
            "simple": simple,
            "family_sup": fam,
            "family_argmax_ell": ell,
            "heuristic_ell": rung,
        },
        raw_value=raw,
        value=round_sig(raw, 3, "down"),
        seconds=time.monotonic() - t0,
    )


# -- Kato constant ----------------------------------------------------------------


def _wpow(weight, base: float, expo: float):
    """weight * base**expo with the convention 0 * inf = 0 (exact zero
    weights must kill overflowing powers, e.g. a switched-off mode)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(weight == 0.0, 0.0, weight * np.power(np.float64(base), expo))


def _g_norm_sq(params_m: float, ell: float, lam, mu, nu):
    L2 = ell * ell
    return (
        1.0
        + 2.0 * _wpow(lam * lam, 1.0 + L2, params_m)
        + 2.0 * _wpow(mu * mu, 1.0 + 4.0 * L2, params_m)
        + 2.0 * _wpow(nu * nu, 1.0 + 9.0 * L2, params_m)
    )


def _g_eval_arrays(params: ProblemParams, ell: int, lam, mu, nu):
    """Closed-form Kato trial bound, broadcasting over parameter arrays."""
    p, n, d = params.p, params.n, params.d
    L = float(ell)
    L2 = L * L
    Np = np.sqrt(_g_norm_sq(p, L, lam, mu, nu))
    Nn = np.sqrt(_g_norm_sq(n, L, lam, mu, nu))
    if d >= 3:
        s = (
            -lam
            + _wpow(lam * (1.0 - mu), 1.0 + L2, p)
            + _wpow(mu * (lam - nu), 1.0 + 4.0 * L2, p)
            + _wpow(mu * nu, 1.0 + 9.0 * L2, p)
        )
        pref = 2.0 * math.sqrt(2.0) * (2.0 * math.pi) ** (-d / 2.0)
    else:
        s = (
            -lam * L / math.sqrt(1.0 + L2)
            + _wpow(
                2.0 * lam * L * (1.0 - 3.0 * mu * L / math.sqrt(4.0 + L2)),
                1.0 + L2,
                p - 1.5,
            )
            + _wpow(
                (5.0 * mu * L2 / math.sqrt(4.0 + L2))
                * (3.0 * lam / math.sqrt(1.0 + L2) - 7.0 * nu / math.sqrt(9.0 + L2)),
                1.0 + 4.0 * L2,
                p - 1.0,
            )
            + _wpow(
                70.0 * mu * nu * L2 / math.sqrt((4.0 + L2) * (9.0 + L2)),
                1.0 + 9.0 * L2,
                p - 1.0,
            )
        )
        pref = math.sqrt(2.0) / math.pi
    den = (L**p * Nn + L**n * Np) * Np
    return pref * np.abs(s) / den


def g_lower_eval(params: ProblemParams, theta: TrialParams) -> float:
    """Closed-form lower bound for the Kato constant at one parameter point."""
    params.require_regime("G")
    return float(
        _g_eval_arrays(params, theta.ell, theta.lam, theta.mu, theta.nu)
    )


def g_lower_optimize(
    params: ProblemParams,
    ell_range: range = range(1, 9),
    start: tuple[float, float, float] = (0.4, 0.05, 0.01),
    rounds: int = 12,
    grid: int = 31,
) -> LowerReport:
    """Local maximization of the Kato trial bound.

    For each rung the continuous parameters are scanned on a joint graded
    grid (linear in the first parameter, geometric tails toward zero in the
    other two, whose optima shrink by decades as p grows), then polished by
    joint linear boxes repeatedly shrunk around the incumbent.  The three
    parameters are strongly coupled, so axis-by-axis search stalls on a
    ridge; the joint grid does not.  The result is a valid lower bound
    whether or not the true global optimum is found.
    """
    import time

    t0 = time.monotonic()
    params.require_regime("G")
    best_val = -math.inf
    best_theta: TrialParams | None = None
    lam0 = np.linspace(0.05, 0.75, 36)
    mu0 = np.concatenate([[0.0], np.geomspace(1e-5, 0.12, 30)])
    nu0 = np.concatenate([[0.0], np.geomspace(1e-6, 0.03, 30)])
    for ell in ell_range:
        L0, M0, N0 = np.meshgrid(lam0, mu0, nu0, indexing="ij")
        vals = _g_eval_arrays(params, ell, L0, M0, N0)
        flat = int(np.argmax(vals))
        i, j, k = np.unravel_index(flat, vals.shape)
        xbest = [float(lam0[i]), float(mu0[j]), float(nu0[k])]
        fx = float(vals.ravel()[flat])
        at_start = g_lower_eval(params, TrialParams(ell, *start))
        if at_start > fx:
            fx, xbest = at_start, list(start)
        center = list(xbest)
        halves = [0.03, 0.6 * xbest[1] + 1e-4, 0.6 * xbest[2] + 1e-5]
        for _ in range(rounds):
            axes = [np.linspace(c - h, c + h, grid) for c, h in zip(center, halves)]
            LAM, MU, NU = np.meshgrid(*axes, indexing="ij")
            vals = _g_eval_arrays(params, ell, LAM, MU, NU)
            flat = int(np.argmax(vals))
            if float(vals.ravel()[flat]) > fx:
                fx = float(vals.ravel()[flat])
                i, j, k = np.unravel_index(flat, vals.shape)
                xbest = [float(axes[0][i]), float(axes[1][j]), float(axes[2][k])]
            center = list(xbest)
            halves = [h / 2.5 for h in halves]
        if fx > best_val:
            best_val = fx
            best_theta = TrialParams(ell, *xbest)
    assert best_theta is not None
    return LowerReport(
        kind="G",
        params=params,
        components={
            "ell": best_theta.ell,
            "lam": best_theta.lam,
            "mu": best_theta.mu,
            "nu": best_theta.nu,
        },
        raw_value=best_val,
        value=round_sig(best_val, 3, "down"),
        seconds=time.monotonic() - t0,
    )


# -- closed-form large-p bounds -----------------------------------------------------


def asymptotic_lower_log(kind: str, params: ProblemParams) -> float:
    """log of the closed-form large-p lower bound (valid for all p in the
    regime, not only asymptotically)."""
    p, n, d = params.p, params.n, params.d
    if kind == "K":
        params.require_regime("K")
        if d >= 3:
            xa = np.logaddexp(
                p * math.log1p(-(n - 1.0) / (2.0 * p)), p * math.log((n + 1.0) / (2.0 * p))
            )
            root = 2.0 * math.sqrt(1.0 - n / p) * math.sqrt(2.0 * (n + 1.0) / p)
            phi = math.log1p(root + (n + 2.0) / p)
            psi = math.log1p(root + (3.0 * n + 4.0) / p)
            den = np.logaddexp(
                (p / 2.0) * phi + (n / 2.0 + 0.5) * psi,
                (n / 2.0) * phi + (p / 2.0 + 0.5) * psi,
            )
            return float(
                -(d / 2.0) * math.log(2.0 * math.pi)
                + ((n + 1.0) / 2.0) * math.log((n + 1.0) / p)
                + 0.5 * xa
                + (p + n / 2.0 + 1.0) * math.log(2.0)
                - den
            )
        xa = np.logaddexp(
            2.0 * math.log1p(3.0 / p) + (p - 1.0) * math.log1p(-(n - 5.0) / (2.0 * p)),
            math.log(4.0) + (p + 1.0) * math.log((n + 1.0) / (2.0 * p)),
        )
        root = 2.0 * math.sqrt(1.0 - (n - 2.0) / p) * math.sqrt(2.0 * (n + 1.0) / p)
        phi = math.log1p(root + (n + 4.0) / p)
        psi = math.log1p(root + 3.0 * (n + 2.0) / p)
        den = np.logaddexp(
            (p / 2.0) * phi + (n / 2.0 + 1.0) * psi,
            (n / 2.0) * phi + (p / 2.0 + 1.0) * psi,
        )
        return float(
            -math.log(math.pi)
            + ((n + 1.0) / 2.0) * math.log((n + 1.0) / p)
            + 0.5 * xa
            + (p + n / 2.0) * math.log(2.0)
            - den
        )
    params.require_regime("G")
    s = math.sqrt(n / p)
    log_sigma = _logsumexp(
        [
            p * math.log1p(2.0 * s + 5.0 * n / (4.0 * p)),
            p * math.log1p(2.0 * s + 2.0 * n / p),
            math.log(0.5) + p * math.log(n / p),
        ]
    )
    log_upsilon = _logsumexp(
        [
            n * math.log1p(2.0 * s + 2.0 * n / p),
            (2.0 * n - 2.0 * p) * math.log(2.0) + n * math.log1p(2.0 * s + 5.0 * n / (4.0 * p)),
            math.log(0.5) + n * math.log(n / p),
        ]
    )
    log_den = float(
        np.logaddexp(
            p * math.log1p(s) + 0.5 * log_upsilon, n * math.log1p(s) + 0.5 * log_sigma
        )
        + 0.5 * log_sigma
    )
    if d >= 3:
        # numerator (1 + n/4p)^p 2^p + (1 - 2^-p)(1 + n/p)^p - (n/p)^p
        a = p * math.log(2.0) + p * math.log1p(n / (4.0 * p))
        b = math.log1p(-(2.0 ** (-p)) if p < 1060 else -0.0) + p * math.log1p(n / p)
        log_pos = float(np.logaddexp(a, b))
        log_neg = p * math.log(n / p)
        log_num = log_pos + math.log1p(-math.exp(min(log_neg - log_pos, -1e-300)))
        return (
            0.5 * math.log(2.0)
            - (d / 2.0) * math.log(2.0 * math.pi)
            + (n / 2.0) * math.log(n / p)
            + log_num
            - log_den
        )
    # planar variant
    q = math.sqrt(1.0 + 4.0 * n / p)
    a = math.log(15.0) + (p - 1.0) * math.log1p(n / (4.0 * p)) + (p - 2.0) * math.log(2.0)
    mid = 2.0 * q - 3.0 * 2.0 ** (1.0 - p) if p < 1060 else 2.0 * q
    b = (p - 1.0) * math.log1p(n / p) + math.log(mid)
    log_pos = float(np.logaddexp(a, b))
    log_neg = math.log(q) + (p - 1.0) * math.log(n / p)
    log_num = log_pos + math.log1p(-math.exp(min(log_neg - log_pos, -1e-300)))
    pref = (
        (n / 2.0 + 1.0) * math.log(n / p)
        - 0.5 * math.log(2.0)
        - math.log(math.pi)
        - 0.5 * (math.log1p(n / p) + math.log1p(4.0 * n / p))
    )
    return pref + log_num - log_den


def _logsumexp(vals) -> float:
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def asymptotic_lower(kind: str, params: ProblemParams) -> float:
    """Closed-form lower bound suitable for arbitrarily large p."""
    lg = asymptotic_lower_log(kind, params)
    return math.exp(lg) if lg < 700.0 else math.inf


def asymptote_log(kind: str, params: ProblemParams) -> float:
    """log of the leading large-p asymptote of the closed-form lower bound."""
    p, n, d = params.p, params.n, params.d
    if kind == "K":
        core = (
            math.log(2.0)
            - (d / 2.0) * math.log(2.0 * math.pi)
            + 5.0 * (n + 1.0) / 4.0
            - math.log(math.exp(n + 1.0) + 1.0)
            + ((n + 1.0) / 2.0) * math.log((n + 1.0) / p)
            + (p + n / 2.0) * math.log(2.0)
            - math.sqrt(2.0 * (n + 1.0) * p)
        )
        return core
    root = math.sqrt(1.0 + math.exp(0.75 * n))
    if d >= 3:
        return (
            0.5 * math.log(2.0)
            - (d / 2.0) * math.log(2.0 * math.pi)
            + 9.0 * n / 8.0
            - math.log(1.0 + math.exp(n / 8.0) * root)
            - math.log(root)
            + (n / 2.0) * math.log(n / p)
            + p * math.log(2.0)
            - 2.0 * math.sqrt(n * p)
        )
    return (
        math.log(15.0 / (4.0 * math.sqrt(2.0) * math.pi))
        + 9.0 * n / 8.0
        - math.log(1.0 + math.exp(n / 8.0) * root)
        - math.log(root)
        + (n / 2.0 + 1.0) * math.log(n / p)
        + p * math.log(2.0)
        - 2.0 * math.sqrt(n * p)
    )


def g_theta_hat(params: ProblemParams) -> TrialParams:
    """The explicit parameter point the large-p Kato bound evaluates:
    (ceil(sqrt(p/n)), 1, 2^-p, 0)."""
    return TrialParams(math.ceil(math.sqrt(params.p / params.n)), 1.0, 2.0 ** (-params.p), 0.0)


def limit_probe(kind: str, n: float, d: int, p_list) -> list[tuple[float, float, float]]:
    """Per-p values (p, lower^(1/p), upper^(1/p)) for the rough bounds,
    computed in the log domain; both columns approach 2 as p grows."""
    out = []
    for p in p_list:
        params = ProblemParams(float(p), n, d)
        lo = math.exp(asymptotic_lower_log(kind, params) / p)
        hi = math.exp(rough_upper_log(kind, params) / p)
        out.append((float(p), lo, hi))
    return out
