"""Randomized cross-checks of the spectral machinery and the closed forms.

Each check compares two independent computation paths and reports the worst
absolute or relative deviation observed.  The CLI exposes them as the
``oracle`` subcommand; the test suite asserts the same facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import ProblemParams
from .lower import TrialParams, g_lower_eval
from .spectral import (
    FourierField,
    _canonical_sign,
    advect,
    bilinear_map,
    leray_project,
    random_solenoidal_field,
    sobolev_inner,
    sobolev_norm,
)
from .trialfields import g_pair, k_family_pair, k_simple_pair


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def check_projection_orthogonality(d: int, samples: int, seed: int) -> CheckResult:
    """<P(v,w) | w> at order 0 vanishes for solenoidal mean-zero fields."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = random_solenoidal_field(d, 3.0, rng)
        w = random_solenoidal_field(d, 3.0, rng)
        val = abs(sobolev_inner(bilinear_map(v, w), w, 0.0))
        scale = max(1.0, sobolev_norm(w, 0.0) ** 2)
        worst = max(worst, val / scale)
    return CheckResult("projected advection orthogonal to w (L2)", worst, 1e-10)


def check_advection_orthogonality(d: int, samples: int, seed: int) -> CheckResult:
    """<v.grad w | w> at order 0 vanishes when div v = 0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = random_solenoidal_field(d, 3.0, rng)
        w = random_solenoidal_field(d, 3.0, rng)
        val = abs(sobolev_inner(advect(v, w), w, 0.0))
        worst = max(worst, val / max(1.0, sobolev_norm(w, 0.0) ** 2))
    return CheckResult("advection orthogonal to w (L2)", worst, 1e-10)


def check_mean_and_divergence(d: int, samples: int, seed: int) -> CheckResult:
    """Products of solenoidal fields have zero mean; projections are solenoidal."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = random_solenoidal_field(d, 3.0, rng)
        w = random_solenoidal_field(d, 3.0, rng)
        prod = advect(v, w)
        worst = max(worst, float(np.max(np.abs(prod.mean_coeff()), initial=0.0)))
        worst = max(worst, bilinear_map(v, w).divergence_norm())
    return CheckResult("zero mean and divergence of products", worst, 1e-10)


def check_leray_properties(d: int, samples: int, seed: int) -> CheckResult:
    """Idempotence and L2 self-adjointness of the per-mode projection."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        coeffs = {}
        for row in np.argwhere(np.ones((3,) * d)):
            k = tuple(int(x) - 1 for x in row)
            if not any(k) or not _canonical_sign(k):
                continue
            coeffs[k] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = FourierField(d, coeffs)
        g = random_solenoidal_field(d, 1.5, rng)
        pf = leray_project(f)
        ppf = leray_project(pf)
        for k in pf.support():
            worst = max(worst, float(np.max(np.abs(pf.coeff(k) - ppf.coeff(k)))))
        lhs = sobolev_inner(pf, g, 0.0)
        rhs = sobolev_inner(f, leray_project(g), 0.0)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("projection idempotent and self-adjoint", worst, 1e-10)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_k_trial_closed_forms(d: int, samples: int, seed: int) -> CheckResult:
    """Closed-form norms of the basic-inequality trial pairs versus the
    spectral evaluation (both the simple pair and random rungs)."""
    rng = np.random.default_rng(seed)
    pref = (2.0 * math.pi) ** (-d / 2.0)
    worst = 0.0
    for _ in range(samples):
        p = float(rng.integers(2, 9)) + float(rng.random())
        # simple pair
        v, w = k_simple_pair(d)
        worst = max(worst, _rel(sobolev_norm(v, p), math.sqrt(2.0)))
        pw = bilinear_map(v, w)
        expected = (
            2.0 ** (p / 2.0 + 1.0) * pref if d >= 3 else 2.0 ** (p / 2.0 - 0.5) / math.pi
        )
        worst = max(worst, _rel(sobolev_norm(pw, p), expected))
        # rung family
        ell = int(rng.integers(1, 5))
        v, w = k_family_pair(d, ell)
        worst = max(worst, _rel(sobolev_norm(v, p), math.sqrt(2.0) * ell**p))
        worst = max(
            worst, _rel(sobolev_norm(w, p), math.sqrt(2.0) * (1.0 + ell * ell) ** (p / 2.0))
        )
        pw = bilinear_map(v, w)
        if d >= 3:
            expected = pref * math.sqrt(2.0) * math.sqrt(1.0 + (1.0 + 4.0 * ell**2) ** p)
        else:
            expected = (
                math.sqrt(2.0)
                / (2.0 * math.pi)
                * math.sqrt(1.0 + (1.0 + 2.0 * ell**2) ** 2 * (1.0 + 4.0 * ell**2) ** (p - 1.0))
                / math.sqrt(1.0 + ell**2)
            )
        worst = max(worst, _rel(sobolev_norm(pw, p), expected))
    return CheckResult("basic trial norms match closed forms", worst, 1e-10)


def check_g_trial_closed_forms(d: int, samples: int, seed: int) -> CheckResult:
    """The Kato trial bound evaluated through the spectral path equals the
    closed form, parameter point by parameter point."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = float(d) / 2.0 + 1.0 + 0.5 + float(rng.random())
        p = n + float(rng.integers(0, 4))
        params = ProblemParams(p, n, d)
        ell = int(rng.integers(1, 4))
        theta = TrialParams(
            ell,
            float(rng.uniform(-0.6, 0.6)),
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.1, 0.1)),
        )
        v, w = g_pair(d, theta.ell, theta.lam, theta.mu, theta.nu)
        pw = bilinear_map(v, w)
        inner = sobolev_inner(pw, w, p)
        ratio = (
            2.0
            * abs(inner)
            / (
                (
                    sobolev_norm(v, p) * sobolev_norm(w, n)
                    + sobolev_norm(v, n) * sobolev_norm(w, p)
                )
                * sobolev_norm(w, p)
            )
        )
        worst = max(worst, _rel(float(ratio), g_lower_eval(params, theta)))
        worst = max(worst, abs(inner.imag))
    return CheckResult("Kato trial bound matches closed form", worst, 1e-10)


def run_spectral_checks(d: int, samples: int, seed: int) -> list[CheckResult]:
    return [
        check_projection_orthogonality(d, samples, seed),
        check_advection_orthogonality(d, samples, seed + 1),
        check_mean_and_divergence(d, samples, seed + 2),
        check_leray_properties(d, min(samples, 20), seed + 3),
        check_k_trial_closed_forms(d, max(samples // 2, 5), seed + 4),
        check_g_trial_closed_forms(d, max(samples // 2, 5), seed + 5),
    ]
