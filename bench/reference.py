"""Reference values the benchmark checks the program against, made apart
from the program.

Two kinds of reference live here:

* a plain-Python evaluator of the two-ball truncated lattice sum, summed
  with ``math.fsum`` straight from the formula (no fold, no NumPy);
* the benchmark's own transcription of the published table entries it
  checks, so that a change to ``nsconst.tables`` cannot move the target.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction
from operator import mul

# -- published values (d = 3, mu = 2, order m = 6) ----------------------------

# Table D row (p, n) = (4, 3) at cutoff rho = 20: the Kato desk row
TABLE_D_43 = {
    "max_flat": 190.684,
    "kmax": (23, 23, 23),
    "farfield": 206.799,
    "delta": 51.5254,
    "final": "1.03",
}
REL_FLAT = 1e-4  # printed precision of max_flat and delta
REL_FARFIELD = 1e-2  # the far-field column depends on the optimizer

# finals of Table C (basic inequality) and Table D (Kato inequality)
TABLE_C_FINAL = {
    (2, 2): "0.335", (3, 2): "0.643", (4, 2): "0.831", (5, 2): "1.16",
    (6, 2): "1.94", (7, 2): "3.02", (8, 2): "5.07", (9, 2): "8.54",
    (10, 2): "14.5", (3, 3): "0.320", (4, 3): "0.539", (5, 3): "0.909",
    (6, 3): "1.54", (7, 3): "2.58", (8, 3): "4.28", (9, 3): "7.04",
    (10, 3): "11.5",
}
TABLE_D_FINAL = {
    (3, 3): "0.438", (4, 3): "1.03", (5, 3): "1.26", (6, 3): "2.06",
    (7, 3): "3.58", (8, 3): "5.68", (9, 3): "9.64", (10, 3): "16.4",
}

# Table E: (p, n) -> (simple pair, rung family sup, combined), rounded down
TABLE_E = {
    (2, 2): ("0.126", "0.0809", "0.126"),
    (3, 2): ("0.179", "0.147", "0.179"),
    (4, 2): ("0.253", "0.264", "0.264"),
    (5, 2): ("0.359", "0.463", "0.463"),
    (6, 2): ("0.507", "0.793", "0.793"),
    (7, 2): ("0.718", "1.33", "1.33"),
    (8, 2): ("1.01", "2.20", "2.20"),
    (9, 2): ("1.43", "3.60", "3.60"),
    (10, 2): ("2.03", "5.83", "5.83"),
    (3, 3): ("0.179", "0.125", "0.179"),
    (4, 3): ("0.253", "0.232", "0.253"),
    (5, 3): ("0.359", "0.418", "0.418"),
    (6, 3): ("0.507", "0.732", "0.732"),
    (7, 3): ("0.718", "1.25", "1.25"),
    (8, 3): ("1.01", "2.10", "2.10"),
    (9, 3): ("1.43", "3.48", "3.48"),
    (10, 3): ("2.03", "5.69", "5.69"),
}

# Table F: (p, n) -> (printed point (ell, lam, mu, nu), value there, rounded down)
TABLE_F = {
    (3, 3): ((1, 0.388104, 0.084359, 0.0135851), "0.121"),
    (4, 3): ((1, 0.370907, 0.0628525, 0.00811876), "0.235"),
    (5, 3): ((1, 0.361597, 0.0415026, 0.00365302), "0.408"),
    (6, 3): ((1, 0.352601, 0.0256793, 0.00147754), "0.674"),
    (7, 3): ((1, 0.348117, 0.0157944, 0.000588218), "1.08"),
    (8, 3): ((1, 0.352603, 0.00994449, 0.000238632), "1.74"),
    (9, 3): ((1, 0.367597, 0.00645276, 0.0000993805), "2.77"),
    (10, 3): ((1, 0.392975, 0.00430116, 0.0000423667), "4.40"),
}


def sig3(x: float, direction: str) -> str:
    """x rounded to three significant digits, "up" or "down", printed the
    way the tables print it (trailing zeros kept)."""
    dec = Decimal(repr(float(x)))
    quantum = Decimal(1).scaleb(dec.adjusted() - 2)
    mode = ROUND_CEILING if direction == "up" else ROUND_FLOOR
    out = dec.quantize(quantum, rounding=mode)
    if out.adjusted() > dec.adjusted():  # 9.995 -> 10.0: one digit too many
        out = out.quantize(quantum.scaleb(1), rounding=mode)
    return format(out, "f")


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- lattice helpers ----------------------------------------------------------


def sq_threshold(radius: float) -> int:
    """Largest integer t < radius**2: |h| < radius iff |h|^2 <= t."""
    r2 = Fraction(radius) ** 2
    t = r2.numerator // r2.denominator
    return t - 1 if t == r2 else t


def ball(d: int, radius: float) -> list[tuple[tuple[int, ...], int]]:
    """Nonzero lattice points with |h| < radius, each with |h|^2."""
    t = sq_threshold(radius)
    out = []

    def rec(prefix: tuple[int, ...], rem: int) -> None:
        if len(prefix) == d:
            if any(prefix):
                out.append((prefix, t - rem))
            return
        lim = math.isqrt(rem)
        for x in range(-lim, lim + 1):
            rec(prefix + (x,), rem - x * x)

    rec((), t)
    return out


def ball_count(d: int, radius: float) -> int:
    """Number of lattice points with |h| < radius, the origin included."""

    def count(dim: int, rem: int) -> int:
        lim = math.isqrt(rem)
        if dim == 1:
            return 2 * lim + 1
        return sum(count(dim - 1, rem - x * x) for x in range(-lim, lim + 1))

    return count(d, sq_threshold(radius))


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


# -- the two-ball truncated sum ----------------------------------------------


def summand(kind: str, p: float, n: float, k, ksq: int, h, hsq: int) -> float:
    """One term of the lattice sum at frequency k, for the pair (h, l = k - h).

    The projector factor is sin^2 of the angle between h and l; in the plane
    it also carries cos^2 of the angle between h + l = k and l.  The basic
    sum (kind K) weighs it by |k|^(2p) over (|h|^p |l|^n + |h|^n |l|^p)^2,
    the Kato sum (kind G) by (|k|^p - |l|^p)^2 over
    (|h|^p |l|^(n-1) + |h|^n |l|^(p-1))^2.
    """
    l = tuple(a - b for a, b in zip(k, h))
    lsq = _dot(l, l)
    hl = _dot(h, l)
    proj = 1.0 - hl * hl / (hsq * lsq)
    if len(k) == 2:
        kl = _dot(k, l)
        proj *= kl * kl / (ksq * lsq)
    hn = math.sqrt(hsq)
    ln = math.sqrt(lsq)
    if kind == "K":
        denom = hn**p * ln**n + hn**n * ln**p
        return 4.0 * math.sqrt(ksq) ** (2.0 * p) * proj / (denom * denom)
    denom = hn**p * ln ** (n - 1.0) + hn**n * ln ** (p - 1.0)
    num = math.sqrt(ksq) ** p - ln**p
    return 4.0 * num * num * proj / (denom * denom)


def two_ball_sum(kind: str, p: float, n: float, rho: float, k, pts=None) -> float:
    """Sum of the summand over the nonzero h != k with |h| < rho or
    |k - h| < rho; ``pts`` is ``ball(d, rho)`` when the caller has it."""
    k = tuple(int(x) for x in k)
    if pts is None:
        pts = ball(len(k), rho)
    t = sq_threshold(rho)
    ksq = _dot(k, k)
    terms = []
    for h, hsq in pts:  # |h| < rho
        if h != k:
            terms.append(summand(kind, p, n, k, ksq, h, hsq))
    for g, _ in pts:  # h = k - g with |k - h| = |g| < rho and |h| >= rho
        h = tuple(a - b for a, b in zip(k, g))
        hsq = _dot(h, h)
        if hsq > t:
            terms.append(summand(kind, p, n, k, ksq, h, hsq))
    return math.fsum(terms)
