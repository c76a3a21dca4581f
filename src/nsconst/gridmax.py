"""Derivative-free maximization on boxes and on sphere x interval domains.

The strategy everywhere is a dense coarse grid followed by a few local
refinement rounds that shrink the search box around the incumbent.  The
returned value is the best objective value actually probed, so it is always
a valid lower bound for the true maximum; no rigor beyond that is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GridMaxConfig:
    points_per_axis: int = 201
    rounds: int = 3
    shrink: float = 10.0

    def __post_init__(self) -> None:
        if self.points_per_axis < 2 or self.rounds < 0 or self.shrink <= 1:
            raise InvalidArgumentError("bad grid maximization settings")


@dataclass(frozen=True)
class GridMaxResult:
    value: float
    argmax: tuple[float, ...]
    resolution: tuple[float, ...]
    evaluations: int


def box_maximize(
    objective: Callable[..., np.ndarray],
    bounds: Sequence[tuple[float, float]],
    cfg: GridMaxConfig = GridMaxConfig(),
) -> GridMaxResult:
    """Maximize a vectorized objective over a product of closed intervals.

    ``objective`` receives one broadcastable array per axis and must return
    the array of values.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if not (hi >= lo):
            raise InvalidArgumentError("empty box")
    npts = cfg.points_per_axis
    best_val = -math.inf
    best_arg = tuple(lo for lo, _ in bounds)
    evals = 0
    widths = [hi - lo for lo, hi in bounds]
    cur = bounds
    for rnd in range(cfg.rounds + 1):
        axes = [np.linspace(lo, hi, npts) for lo, hi in cur]
        steps = tuple((hi - lo) / max(npts - 1, 1) for lo, hi in cur)
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(objective(*grids), dtype=float)
        evals += vals.size
        flat = np.argmax(vals)
        v = float(vals.ravel()[flat])
        if v > best_val:
            best_val = v
            idx = np.unravel_index(flat, vals.shape)
            best_arg = tuple(float(ax[i]) for ax, i in zip(axes, idx))
        # shrink around the incumbent, clipped to the original box
        new = []
        for (lo0, hi0), c, w in zip(bounds, best_arg, widths):
            half = w / (2.0 * cfg.shrink ** (rnd + 1))
            new.append((max(lo0, c - half), min(hi0, c + half)))
        cur = new
    return GridMaxResult(best_val, best_arg, steps, evals)


def _sphere_from_angles(angle_grids: Sequence[np.ndarray], d: int) -> np.ndarray:
    """Map spherical angles (broadcast arrays) to points of S^(d-1).

    Uses the standard recursive parametrization: d-2 polar angles in [0, pi]
    and one azimuthal angle in [0, 2 pi).
    """
    shape = np.broadcast(*angle_grids).shape if len(angle_grids) > 1 else angle_grids[0].shape
    u = np.empty(shape + (d,), dtype=float)
    sin_prod = np.ones(shape)
    for i in range(d - 1):
        a = np.broadcast_to(angle_grids[i], shape)
        u[..., i] = sin_prod * np.cos(a)
        sin_prod = sin_prod * np.sin(a)
    u[..., d - 1] = sin_prod
    return u


def sphere_interval_maximize(
    coeff_fn: Callable[[np.ndarray], np.ndarray],
    powers: Sequence[float],
    eps_hi: float,
    d: int,
    angle_points: int = 721,
    eps_points: int = 1001,
    rounds: int = 3,
    shrink: float = 10.0,
    chunk: int = 20000,
) -> GridMaxResult:
    """Maximize  sum_j coeff_j(u) * eps^powers[j]  over S^(d-1) x [0, eps_hi].

    ``coeff_fn`` maps an (N, d) array of unit vectors to an (N, J) array of
    per-term coefficients.  The epsilon maximization is a dense grid matmul,
    chunked over sphere points to bound memory.
    """
    if eps_hi <= 0:
        raise InvalidArgumentError("eps_hi must be positive")
    n_ang = d - 1
    pts = angle_points if d <= 3 else 121
    full = [(0.0, math.pi)] * (d - 2) + [(0.0, 2.0 * math.pi)]
    cur_ang = list(full)
    cur_eps = (0.0, eps_hi)
    best_val = -math.inf
    best_u = None
    best_eps = 0.0
    evals = 0
    powers = np.asarray(powers, dtype=float)
    buf = np.empty((min(chunk, pts ** n_ang), eps_points))  # reused value block
    for rnd in range(rounds + 1):
        axes = [np.linspace(lo, hi, pts) for lo, hi in cur_ang]
        res = tuple((hi - lo) / max(pts - 1, 1) for lo, hi in cur_ang) + (
            (cur_eps[1] - cur_eps[0]) / max(eps_points - 1, 1),
        )
        grids = np.meshgrid(*axes, indexing="ij") if n_ang > 1 else [np.asarray(axes[0])]
        U = _sphere_from_angles(grids, d).reshape(-1, d)
        eps = np.linspace(cur_eps[0], cur_eps[1], eps_points)
        # eps_pows[e, j] = eps_e ** powers[j]; 0**0 = 1 by convention
        eps_pows = np.where(
            powers[None, :] == 0.0, 1.0, np.power(eps[:, None], powers[None, :])
        )
        for lo in range(0, len(U), chunk):
            block = U[lo : lo + chunk]
            A = coeff_fn(block)  # (B, J)
            vals = np.matmul(A, eps_pows.T, out=buf[: len(block)])  # (B, n_eps)
            evals += vals.size
            flat = int(np.argmax(vals))
            v = float(vals.ravel()[flat])
            if v > best_val:
                bi, ei = np.unravel_index(flat, vals.shape)
                best_val = v
                best_u = block[bi].copy()
                best_eps = float(eps[ei])
        # refine angles and epsilon around the incumbent
        inc_ang = _angles_of(best_u)
        new_ang = []
        for (lo0, hi0), (loF, hiF), c in zip(cur_ang, full, inc_ang):
            half = (hi0 - lo0) / (2.0 * shrink)
            new_ang.append((max(loF, c - half), min(hiF, c + half)))
        cur_ang = new_ang
        half_e = (cur_eps[1] - cur_eps[0]) / (2.0 * shrink)
        cur_eps = (max(0.0, best_eps - half_e), min(eps_hi, best_eps + half_e))
    return GridMaxResult(best_val, tuple(best_u) + (best_eps,), res, evals)


def _angles_of(u: np.ndarray) -> tuple[float, ...]:
    """Inverse of the spherical parametrization (clamped for safety)."""
    d = len(u)
    angles = []
    sin_prod = 1.0
    for i in range(d - 2):
        c = 0.0 if sin_prod < 1e-300 else float(np.clip(u[i] / sin_prod, -1.0, 1.0))
        a = math.acos(c)
        angles.append(a)
        sin_prod *= math.sin(a)
    if sin_prod < 1e-300:
        angles.append(0.0)
    else:
        angles.append(math.atan2(u[d - 1] / sin_prod, u[d - 2] / sin_prod) % (2.0 * math.pi))
    return tuple(angles)
