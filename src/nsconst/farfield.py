"""Far-field bounds for the truncated lattice sums.

For |k| >= mu * rho the folded sums are dominated by an expansion in
eps = 1/|k| whose coefficients are polynomials on the unit sphere:

    coeff_j(u) = sum_{0 < |h| < rho} q_j(cos angle(h, u)) * |h|^(-w_j),

where q_j are the kernel expansion polynomials.  Each power of the cosine
turns into a multinomial moment polynomial in the components of u, so the
whole coefficient is stored as a finite monomial table and evaluated in
closed form.  Odd-degree moment polynomials vanish by lattice symmetry and
are skipped in the production path (the general routine below keeps them,
which is what the symmetry tests exercise).

The far-field maximum is then a dense search over S^(d-1) x [0, 1/(mu rho)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .envelopes import ProblemParams
from .errors import InvalidArgumentError, OutOfRegimeError
from .gridmax import GridMaxResult, sphere_interval_maximize
from .lattice import iter_ball_chunks, sq_threshold, zeta_partial
from .series import expand_series, remainder_max


def _multi_indices(d: int, ell: int, even_only: bool = False):
    """All d-tuples of nonnegative integers summing to ell."""
    if d == 1:
        if not even_only or ell % 2 == 0:
            yield (ell,)
        return
    step = 2 if even_only else 1
    for first in range(0, ell + 1, step):
        for rest in _multi_indices(d - 1, ell - first, even_only):
            yield (first,) + rest


def sphere_moments(
    d: int, rho: float, ell: int, phi: Callable[[np.ndarray], np.ndarray]
) -> dict[tuple[int, ...], float]:
    """Moment table M_alpha = sum_{0<|h|<rho} phi(|h|) * prod_r (h_r/|h|)^alpha_r
    over all multi-indices alpha of total degree ell."""
    if ell < 0:
        raise InvalidArgumentError("degree must be nonnegative")
    alphas = list(_multi_indices(d, ell))
    acc = np.zeros(len(alphas))
    t = sq_threshold(rho)
    for pts in iter_ball_chunks(d, t):
        keep = np.any(pts != 0, axis=1)
        pts = pts[keep]
        if not len(pts):
            continue
        norms = np.sqrt(np.einsum("ij,ij->i", pts, pts).astype(float))
        w = phi(norms)
        unit = pts / norms[:, None]
        pows = [{0: np.ones(len(pts))} for _ in range(d)]
        for r in range(d):
            for e in range(1, ell + 1):
                pows[r][e] = pows[r][e - 1] * unit[:, r]
        for i, alpha in enumerate(alphas):
            prod = w
            for r, e in enumerate(alpha):
                if e:
                    prod = prod * pows[r][e]
            acc[i] += float(np.sum(prod))
    return dict(zip(alphas, acc))


def _axis_powers(pts: np.ndarray, degree: int) -> dict[tuple[int, int], np.ndarray]:
    return {(r, e): pts[:, r] ** e for r in range(pts.shape[1]) for e in range(1, degree + 1)}


@dataclass(frozen=True)
class SpherePoly:
    """Polynomial on the unit sphere stored as a monomial table."""

    d: int
    degree: int
    terms: Mapping[tuple[int, ...], float]  # multi-index -> monomial coefficient

    def __call__(self, u, pows=None) -> np.ndarray | float:
        """Values at one point or at the rows of ``u``; ``pows`` is an
        ``_axis_powers`` table, which polynomials at the same points share."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 1
        pts = u[None, :] if scalar else u
        pows = _axis_powers(pts, self.degree) if pows is None else pows
        out = np.zeros(len(pts))
        for alpha, coef in self.terms.items():
            if coef == 0.0:
                continue
            mono = np.full(len(pts), coef)
            for r, e in enumerate(alpha):
                if e:
                    mono *= pows[r, e]
            out += mono
        return float(out[0]) if scalar else out

    def quartic_coefficients(self) -> tuple[float, float, float]:
        """Canonical (constant, u_r^4, u_r^2 u_s^2) coefficients for d = 3
        polynomials of degree <= 4, after folding the isotropic degree-2
        part into the constant via |u| = 1."""
        if self.d != 3 or self.degree > 4:
            raise InvalidArgumentError("canonical quartic form needs d = 3, degree <= 4")
        const = self.terms.get((0, 0, 0), 0.0) + self.terms.get((2, 0, 0), 0.0)
        return (const, self.terms.get((4, 0, 0), 0.0), self.terms.get((2, 2, 0), 0.0))


def moment_poly(
    d: int, rho: float, ell: int, phi: Callable[[np.ndarray], np.ndarray]
) -> SpherePoly:
    """The degree-ell moment polynomial: sum_h phi(|h|) cos^ell angle(h, u)
    expanded into monomials with multinomial weights."""
    moments = sphere_moments(d, rho, ell, phi)
    fact = math.factorial(ell)
    terms = {
        alpha: fact / math.prod(math.factorial(e) for e in alpha) * m
        for alpha, m in moments.items()
    }
    return SpherePoly(d, ell, terms)


@dataclass(frozen=True)
class FarfieldTerms:
    """Sphere-polynomial coefficients of the far-field expansion plus the
    auxiliary zeta-type sum multiplying the remainder term."""

    kind: str  # "K" or "G"
    rho: float
    order: int
    ladder: tuple[int, ...]
    polys: tuple[SpherePoly, ...]  # one combined polynomial per expansion order j
    tail_sum: float  # Y (kind K) or Z (kind G)


def _weight_exponent(kind: str, n: float, j: int) -> float:
    return 2.0 * n - j if kind == "K" else 2.0 * n - 2.0 - j


@lru_cache(maxsize=32)
def sphere_polys(params: ProblemParams, kind: str, rho: float, m: int) -> FarfieldTerms:
    """Build the per-order sphere polynomials and the remainder sum.

    Odd cosine powers contribute nothing (their moment polynomials vanish
    identically), so only even-degree moment tables are assembled.
    """
    if kind not in ("K", "G"):
        raise InvalidArgumentError(f"kind must be 'K' or 'G', got {kind!r}")
    if rho <= 1:
        raise InvalidArgumentError("rho must exceed 1")
    exp = expand_series(params, "E" if kind == "K" else "F", m)
    d = params.d
    polys = []
    for j in range(m + 1):
        q = exp.coefficient(j)
        w = _weight_exponent(kind, params.n, j)
        phi = lambda r, _w=w: r ** (-_w)
        combined: dict[tuple[int, ...], float] = {}
        for ell in range(len(q)):
            if q[ell] == 0.0 or ell % 2 == 1:
                continue
            part = moment_poly(d, rho, ell, phi)
            for alpha, coef in part.terms.items():
                combined[alpha] = combined.get(alpha, 0.0) + q[ell] * coef
        degree = max((sum(a) for a in combined), default=0)
        polys.append(SpherePoly(d, degree, combined))
    tail_sum = zeta_partial(d, _weight_exponent(kind, params.n, m + 1), rho)
    return FarfieldTerms(
        kind=kind,
        rho=rho,
        order=m,
        ladder=exp.ladder,
        polys=tuple(polys),
        tail_sum=tail_sum,
    )


@dataclass(frozen=True)
class FarfieldResult:
    """Far-field maximum in two flavors.

    ``value`` maximizes the full expansion including the uniform remainder
    term and is the quantity a rigorous upper bound must use.  ``poly_max``
    maximizes the polynomial part alone; it is the quantity the published
    tables actually list (their remainder constants scale so that the
    remainder term is dwarfed in every tabulated case, and the printed
    column demonstrably omits it).  ``value >= poly_max`` always.
    """

    value: float
    poly_max: float
    argmax_u: tuple[float, ...]
    argmax_eps: float
    remainder_bound: float  # V or W
    tail_sum: float  # Y or Z
    grid_resolution: tuple[float, ...]


def farfield_chain_value(
    terms: FarfieldTerms, remainder_bound: float, k, kind: str
) -> float:
    """The far-field expansion evaluated at one lattice point k with
    eps = 1/|k|: an upper bound for the folded sum when |k| >= mu * rho."""
    k = np.asarray(k, dtype=float)
    norm = math.sqrt(float(np.dot(k, k)))
    u = k / norm
    eps = 1.0 / norm
    total = sum(poly(u) * eps**j for j, poly in zip(terms.ladder, terms.polys))
    total += remainder_bound * terms.tail_sum * eps ** terms.ladder[-1]
    return (8.0 if kind == "K" else 4.0) * total


def farfield_detail(
    params: ProblemParams,
    kind: str,
    rho: float,
    mu: float,
    m: int,
    angle_points: int = 721,
    eps_points: int = 1001,
    rounds: int = 3,
) -> FarfieldResult:
    """Far-field maximum with its ingredients: the remainder box maximum
    (V or W), the auxiliary sum (Y or Z) and the sphere/epsilon argmax."""
    if mu <= 1:
        raise OutOfRegimeError(f"factor mu must exceed 1, got {mu}")
    V = remainder_max(params, "E" if kind == "K" else "F", m, mu)
    terms = sphere_polys(params, kind, rho, m)
    scale = 8.0 if kind == "K" else 4.0
    tail_coef = V * terms.tail_sum

    def coeff_fn(tail: float):
        def fn(U: np.ndarray) -> np.ndarray:
            pows = _axis_powers(U, max(poly.degree for poly in terms.polys))
            cols = [poly(U, pows) for poly in terms.polys]
            cols.append(np.full(len(U), tail))
            return np.column_stack(cols)

        return fn

    kwargs = dict(
        angle_points=angle_points, eps_points=eps_points, rounds=rounds
    )
    powers = [float(g) for g in terms.ladder]
    eps_hi = 1.0 / (mu * rho)
    full: GridMaxResult = sphere_interval_maximize(
        coeff_fn(tail_coef), powers, eps_hi, params.d, **kwargs
    )
    poly_only: GridMaxResult = sphere_interval_maximize(
        coeff_fn(0.0), powers, eps_hi, params.d, **kwargs
    )
    return FarfieldResult(
        value=scale * full.value,
        poly_max=scale * poly_only.value,
        argmax_u=full.argmax[:-1],
        argmax_eps=full.argmax[-1],
        remainder_bound=V,
        tail_sum=terms.tail_sum,
        grid_resolution=full.resolution,
    )
