"""Finitely supported Fourier representation of vector fields on the torus.

A field v is stored through its coefficients v_k in the orthonormal basis
e_k(x) = exp(i k.x) / (2 pi)^(d/2).  Real-valued fields satisfy
v_{-k} = conj(v_k); only one representative of each +-k pair is stored and
the mirror coefficient is reconstructed on read, so the reality constraint
cannot be violated by construction.

This module is the independent oracle for every closed-form trial-field
computation elsewhere in the package: it implements the Leray projection,
the advection product v.grad(w), the projected bilinear map and the
Sobolev inner products directly from the definitions.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError
from .lattice import LatticeVector, nonzero_ball

_DROP_TOL = 1e-15  # coefficients below this magnitude are dropped
_PAIR_TOL = 1e-9  # tolerated mismatch when both k and -k are supplied
_MEAN_REL_TOL = 1e-12  # a mean this small against the largest coefficient is round-off


def _canonical_sign(k: LatticeVector) -> bool:
    """True if k is the stored representative of the pair {k, -k}."""
    for x in k:
        if x > 0:
            return True
        if x < 0:
            return False
    return True  # k = 0


class FourierField:
    """Immutable vector field with finitely many Fourier modes."""

    __slots__ = ("d", "_coeffs")

    def __init__(self, d: int, coeffs: Mapping[LatticeVector, Iterable[complex]]):
        if d < 2:
            raise InvalidDimensionError(f"dimension must be >= 2, got {d}")
        store: dict[LatticeVector, np.ndarray] = {}
        for k, c in coeffs.items():
            k = tuple(int(x) for x in k)
            if len(k) != d:
                raise InvalidArgumentError(f"mode {k} has wrong dimension")
            c = np.asarray(c, dtype=complex)
            if c.shape != (d,):
                raise InvalidArgumentError(f"coefficient at {k} has wrong shape")
            if np.max(np.abs(c)) < _DROP_TOL:
                continue
            kc, cc = (k, c) if _canonical_sign(k) else (tuple(-x for x in k), np.conj(c))
            if kc in store:
                scale = max(1.0, float(np.max(np.abs(store[kc]))))
                if np.max(np.abs(store[kc] - cc)) > _PAIR_TOL * scale:
                    raise InvalidArgumentError(
                        f"coefficients at {kc} and mirror mode break the reality constraint"
                    )
            else:
                store[kc] = cc
        zero = (0,) * d
        if zero in store and np.max(np.abs(store[zero].imag)) > _PAIR_TOL:
            raise InvalidArgumentError("mean coefficient must be real")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_coeffs", store)

    # -- access ---------------------------------------------------------

    def coeff(self, k: Iterable[int]) -> np.ndarray:
        k = tuple(int(x) for x in k)
        if _canonical_sign(k):
            c = self._coeffs.get(k)
            return c.copy() if c is not None else np.zeros(self.d, dtype=complex)
        c = self._coeffs.get(tuple(-x for x in k))
        return np.conj(c) if c is not None else np.zeros(self.d, dtype=complex)

    def support(self) -> list[LatticeVector]:
        """All modes with a stored nonzero coefficient (both signs)."""
        out = []
        for k in self._coeffs:
            out.append(k)
            if any(k):
                out.append(tuple(-x for x in k))
        return sorted(out)

    def items(self):
        for k in self.support():
            yield k, self.coeff(k)

    @property
    def is_empty(self) -> bool:
        return not self._coeffs

    def mean_coeff(self) -> np.ndarray:
        return self.coeff((0,) * self.d)

    def has_zero_mean(self, rel: float = _MEAN_REL_TOL) -> bool:
        """True if the mean coefficient is at most ``rel`` times the largest
        coefficient magnitude, i.e. zero up to the round-off of products."""
        mean = float(np.max(np.abs(self.mean_coeff()), initial=0.0))
        largest = max((float(np.max(np.abs(c))) for c in self._coeffs.values()), default=0.0)
        return mean <= rel * largest

    def divergence_norm(self) -> float:
        """max_k |k . v_k|; zero for solenoidal fields."""
        worst = 0.0
        for k, c in self.items():
            worst = max(worst, abs(complex(np.dot(np.asarray(k, dtype=float), c))))
        return worst

    def __repr__(self) -> str:  # pragma: no cover
        return f"FourierField(d={self.d}, modes={len(self._coeffs)})"


# -- constructors ---------------------------------------------------------


def random_solenoidal_field(
    d: int, radius: float, rng: np.random.Generator, amplitude: float = 1.0
) -> FourierField:
    """Random real, mean-zero, divergence-free field with support |k| <= radius.

    Each canonical mode gets an independent complex Gaussian coefficient,
    projected onto the plane orthogonal to k.
    """
    coeffs: dict[LatticeVector, np.ndarray] = {}
    for row in nonzero_ball(d, math.nextafter(radius, math.inf)):
        k = tuple(int(x) for x in row)
        if not _canonical_sign(k):
            continue
        c = amplitude * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        kv = np.asarray(k, dtype=float)
        c = c - (np.dot(kv, c) / np.dot(kv, kv)) * kv
        coeffs[k] = c
    return FourierField(d, coeffs)


# -- operations ------------------------------------------------------------


def leray_project(f: FourierField) -> FourierField:
    """Per-mode orthogonal projection onto k-perp (identity at k = 0)."""
    out: dict[LatticeVector, np.ndarray] = {}
    for k, c in f.items():
        if any(k):
            kv = np.asarray(k, dtype=float)
            c = c - (np.dot(kv, c) / np.dot(kv, kv)) * kv
        out[k] = c
    return FourierField(f.d, out)


def advect(v: FourierField, w: FourierField) -> FourierField:
    """Fourier coefficients of v.grad(w):

        (v.grad w)_k = i (2 pi)^(-d/2) * sum_h (v_h . (k-h)) w_{k-h}.

    The support is contained in the sumset of the input supports.
    """
    if v.d != w.d:
        raise InvalidArgumentError("dimension mismatch between v and w")
    d = v.d
    pref = 1j / (2.0 * math.pi) ** (d / 2.0)
    acc: dict[LatticeVector, np.ndarray] = {}
    for h, vh in v.items():
        for l, wl in w.items():
            k = tuple(a + b for a, b in zip(h, l))
            dot = complex(np.dot(vh, np.asarray(l, dtype=float)))
            if dot == 0:
                continue
            term = pref * dot * wl
            if k in acc:
                acc[k] = acc[k] + term
            else:
                acc[k] = term
    return FourierField(d, acc)


def bilinear_map(v: FourierField, w: FourierField) -> FourierField:
    """Leray-projected advection: the quadratic Navier-Stokes nonlinearity."""
    return leray_project(advect(v, w))


def sobolev_inner(f: FourierField, g: FourierField, order: float) -> complex:
    """sum over k != 0 of |k|^(2*order) conj(f_k).g_k  (mean-zero fields only)."""
    if f.d != g.d:
        raise InvalidArgumentError("dimension mismatch")
    if not f.has_zero_mean() or not g.has_zero_mean():
        raise InvalidArgumentError("Sobolev inner product needs mean-zero fields")
    total = 0.0 + 0.0j
    gsup = set(g.support())
    for k in f.support():
        if k not in gsup:
            continue
        ksq = float(sum(x * x for x in k))
        total += ksq**order * complex(np.dot(np.conj(f.coeff(k)), g.coeff(k)))
    return total


def sobolev_norm(f: FourierField, order: float) -> float:
    val = sobolev_inner(f, f, order)
    return math.sqrt(max(val.real, 0.0))
