"""Constructors for the explicit trial fields behind every lower bound.

Each builder returns actual Fourier fields, so the closed-form norms and
inner products in the lower-bound module can be cross-checked against the
spectral machinery mode by mode.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError
from .spectral import FourierField


def _unit(d: int, axis: int) -> np.ndarray:
    e = np.zeros(d)
    e[axis] = 1.0
    return e


def _pair(d: int, k: tuple[int, ...], coef: np.ndarray, odd: bool) -> dict:
    """Modes +-k with coefficient coef at +k; odd pairs carry i*(e_k - e_-k),
    even pairs carry (e_k + e_-k)."""
    mk = tuple(-x for x in k)
    if odd:
        return {k: 1j * coef, mk: -1j * coef}
    return {k: coef + 0j, mk: coef + 0j}


def _merge(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for k, c in part.items():
            out[k] = out.get(k, 0) + c
    return out


def k_simple_pair(d: int) -> tuple[FourierField, FourierField]:
    """The parameter-free pair: v = i b (e_a - e_-a) and, for d >= 3,
    w = i c (e_b - e_-b); planar w = i a (e_b - e_-b)."""
    if d < 2:
        raise InvalidDimensionError("d must be >= 2")
    a = tuple([1] + [0] * (d - 1))
    b = tuple([0, 1] + [0] * (d - 2))
    v = FourierField(d, _pair(d, a, _unit(d, 1), odd=True))
    w_dir = _unit(d, 2) if d >= 3 else _unit(d, 0)
    w = FourierField(d, _pair(d, b, w_dir, odd=True))
    return v, w


def k_family_pair(d: int, ell: int) -> tuple[FourierField, FourierField]:
    """The rung-ell pair: v = i b (e_{l a} - e_{-l a}) and
    w = i c (e_{l a + b} - ...) for d >= 3; the planar w uses the in-plane
    unit vector (a - l b)/sqrt(1 + l^2)."""
    if ell < 1:
        raise InvalidArgumentError("ell must be a positive integer")
    la = tuple([ell] + [0] * (d - 1))
    lab = tuple([ell, 1] + [0] * (d - 2))
    v = FourierField(d, _pair(d, la, _unit(d, 1), odd=True))
    if d >= 3:
        w = FourierField(d, _pair(d, lab, _unit(d, 2), odd=True))
    else:
        direction = (_unit(2, 0) - ell * _unit(2, 1)) / math.sqrt(1.0 + ell * ell)
        w = FourierField(d, _pair(d, lab, direction, odd=True))
    return v, w


def g_pair(d: int, ell: int, lam: float, mu: float, nu: float):
    """The four-parameter Kato pair.

    For d >= 3 every w-mode points along the third axis; the planar variant
    attaches explicit in-plane directions with the normalizations
    sqrt(j^2 + ell^2) fixed by the published closed form (those modes are
    solenoidal only at ell = 1, which is the only rung the planar tables
    use; the inner-product identity holds for every rung regardless).
    """
    if ell < 1:
        raise InvalidArgumentError("ell must be a positive integer")
    la = tuple([ell] + [0] * (d - 1))
    v = FourierField(d, _pair(d, la, _unit(d, 1), odd=True))

    def m(j: int, sign: int) -> tuple[int, ...]:
        return tuple([j * ell, sign] + [0] * (d - 2))

    if d >= 3:
        c = _unit(d, 2)
        w = FourierField(
            d,
            _merge(
                _pair(d, m(0, 1), c, odd=False),
                _pair(d, m(1, 1), lam * c, odd=False),
                _pair(d, m(1, -1), -lam * c, odd=False),
                _pair(d, m(2, 1), mu * c, odd=False),
                _pair(d, m(2, -1), mu * c, odd=False),
                _pair(d, m(3, 1), nu * c, odd=False),
                _pair(d, m(3, -1), -nu * c, odd=False),
            ),
        )
        return v, w
    a, b = _unit(2, 0), _unit(2, 1)
    L = float(ell)
    w = FourierField(
        2,
        _merge(
            _pair(2, m(0, 1), a, odd=False),
            _pair(2, m(1, 1), lam * (-L * a + b) / math.sqrt(1 + L * L), odd=False),
            _pair(2, m(1, -1), lam * (L * a + b) / math.sqrt(1 + L * L), odd=False),
            _pair(2, m(2, 1), mu * (L * a - 2 * b) / math.sqrt(4 + L * L), odd=False),
            _pair(2, m(2, -1), mu * (L * a + 2 * b) / math.sqrt(4 + L * L), odd=False),
            _pair(2, m(3, 1), nu * (-L * a + 3 * b) / math.sqrt(9 + L * L), odd=False),
            _pair(2, m(3, -1), nu * (L * a + 3 * b) / math.sqrt(9 + L * L), odd=False),
        ),
    )
    return v, w
