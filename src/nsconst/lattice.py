"""Integer-lattice geometry: ball enumeration, bilinear-projector norms,
symmetry canonicalization and zeta-type sums with rigorous tail bounds.

All radius comparisons |h| < r are decided on the exact integer |h|^2
against the exact rational r^2, so no lattice point is ever misclassified
by floating-point rounding at the ball boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError, OutOfRegimeError

LatticeVector = tuple[int, ...]


def sq_threshold(radius: float | int | Fraction) -> int:
    """Largest integer t with t < radius**2.

    A lattice point h satisfies |h| < radius exactly when |h|^2 <= t,
    and |h| >= radius exactly when |h|^2 > t.
    """
    r2 = Fraction(radius) ** 2
    t = r2.numerator // r2.denominator
    if t == r2:
        t -= 1
    return t


def _axis_range(t: int) -> np.ndarray:
    lim = math.isqrt(t) if t >= 0 else -1
    return np.arange(-lim, lim + 1, dtype=np.int64)


def ball_array(d: int, t: int) -> np.ndarray:
    """All h in Z^d with |h|^2 <= t (origin included), lexicographic order."""
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    if t < 0:
        return np.empty((0, d), dtype=np.int64)
    ax = _axis_range(t)
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.einsum("ij,ij->i", pts, pts) <= t
    return pts[keep]


def iter_ball_chunks(d: int, t: int, chunk_points: int = 2_000_000) -> Iterator[np.ndarray]:
    """Yield the ball {|h|^2 <= t} in lexicographic chunks without
    materializing the whole point set (needed for large radii)."""
    if t < 0:
        return
    ax = _axis_range(t)
    if d == 2:
        yield ball_array(d, t)
        return
    # slab along the first coordinate; each slab is a (d-1)-ball section
    buf: list[np.ndarray] = []
    size = 0
    for h1 in ax:
        rem = t - int(h1) * int(h1)
        sub = ball_array(d - 1, rem)
        slab = np.concatenate(
            [np.full((len(sub), 1), h1, dtype=np.int64), sub], axis=1
        )
        buf.append(slab)
        size += len(slab)
        if size >= chunk_points:
            yield np.concatenate(buf, axis=0)
            buf, size = [], 0
    if buf:
        yield np.concatenate(buf, axis=0)


def nonzero_ball(d: int, radius: float) -> np.ndarray:
    """Lexicographically ordered nonzero lattice points with |h| < radius."""
    pts = ball_array(d, sq_threshold(radius))
    keep = np.any(pts != 0, axis=1)
    return pts[keep]


def canonicalize(k: Sequence[int]) -> LatticeVector:
    """Normal form of k under coordinate reflections and permutations:
    absolute values sorted in nonincreasing order."""
    return tuple(sorted((abs(int(x)) for x in k), reverse=True))


def _check_nonzero(v: Sequence[int], name: str) -> None:
    if not any(v):
        raise InvalidArgumentError(f"{name} must be a nonzero lattice vector")


def projector_norm(h: Sequence[int], l: Sequence[int]) -> float:
    """Operator norm of the normalized advection-projection map attached to
    the frequency pair (h, l).

    Equals sin(theta_hl) for d >= 3 and sin(theta_hl)*|cos(theta_{h+l,l})|
    for d = 2, with the convention 0 when h + l = 0.
    """
    h = tuple(int(x) for x in h)
    l = tuple(int(x) for x in l)
    if len(h) != len(l):
        raise InvalidArgumentError("h and l must have the same dimension")
    d = len(h)
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    _check_nonzero(h, "h")
    _check_nonzero(l, "l")
    hsq = sum(x * x for x in h)
    lsq = sum(x * x for x in l)
    dot = sum(a * b for a, b in zip(h, l))
    sin_sq = 1.0 - (dot * dot) / (hsq * lsq)
    sin_theta = math.sqrt(max(sin_sq, 0.0))
    if d >= 3:
        return sin_theta
    s = tuple(a + b for a, b in zip(h, l))
    if not any(s):
        return 0.0
    ssq = sum(x * x for x in s)
    sl = sum(a * b for a, b in zip(s, l))
    cos_theta = abs(sl) / math.sqrt(ssq * lsq)
    return sin_theta * cos_theta


@lru_cache(maxsize=64)
def hsq_counts(d: int, t: int) -> np.ndarray:
    """counts[m] = number of h in Z^d with |h|^2 = m, for 0 <= m <= t.

    Built by d-fold exact integer convolution with the one-dimensional
    square counts, so no point set is materialized.
    """
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    if t < 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.zeros(t + 1, dtype=np.int64)
    counts[0] = 1
    lim = math.isqrt(t)
    for _ in range(d):
        nxt = np.zeros(t + 1, dtype=np.int64)
        for j in range(lim + 1):
            w = 1 if j == 0 else 2
            jj = j * j
            if jj > t:
                break
            nxt[jj:] += w * counts[: t + 1 - jj]
        counts = nxt
    return counts


def zeta_partial(d: int, s: float, radius: float) -> float:
    """Sum of |h|^(-s) over nonzero h in Z^d with |h| < radius.

    Negative s is allowed (the summand is then the positive power |h|^|s|),
    which is what the far-field auxiliary sums need.
    """
    if radius <= 1:
        raise InvalidArgumentError("radius must exceed 1")
    t = sq_threshold(radius)
    counts = hsq_counts(d, t)
    if t < 1:
        return 0.0
    m = np.arange(1, t + 1, dtype=np.float64)
    return float(np.sum(counts[1:] * np.power(m, -s / 2.0)))


def zeta_tail_bound(d: int, nu: float, rho: float) -> float:
    """Closed-form upper bound for the lattice tail sum of |h|^(-nu) over
    |h| >= rho, valid for nu > d and rho > 2*sqrt(d).

    The bound integrates the radial density of lattice points shifted by the
    worst-case cell diameter, which yields a finite binomial sum in closed
    form; it always dominates the true tail.
    """
    if d < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
    if nu <= d:
        raise OutOfRegimeError(f"need nu > d, got nu={nu}, d={d}")
    lam = rho - 2.0 * math.sqrt(d)
    if lam <= 0:
        raise OutOfRegimeError(f"need rho > 2*sqrt(d) = {2.0 * math.sqrt(d):.6f}, got {rho}")
    pref = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    total = 0.0
    for i in range(d):
        expo = nu - 1.0 - i
        total += math.comb(d - 1, i) * d ** ((d - 1 - i) / 2.0) / (expo * lam**expo)
    return pref * total


def zeta_full(d: int, s: float, partial_radius: float = 200.0) -> float:
    """Upper approximation of the full lattice zeta value: partial sum up to
    ``partial_radius`` plus the closed-form tail bound (requires s > d)."""
    return zeta_partial(d, s, partial_radius) + zeta_tail_bound(d, s, partial_radius)


def reflections_and_permutations(k: Sequence[int]) -> Iterable[LatticeVector]:
    """Full symmetry orbit of k under sign flips and coordinate permutations."""
    from itertools import permutations, product

    k = tuple(int(x) for x in k)
    seen: set[LatticeVector] = set()
    for perm in permutations(k):
        for signs in product((1, -1), repeat=len(k)):
            v = tuple(s * x for s, x in zip(signs, perm))
            if v not in seen:
                seen.add(v)
                yield v
