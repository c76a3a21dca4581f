"""Truncated lattice sums for the two sharp-constant functions, and the
exhaustive maximum scan over a ball of frequencies.

The infinite sums are approximated by sums over the union of two balls of
radius rho centered at 0 and at k.  That union is folded onto the single
ball around 0: each summand picks up a mirrored companion gated by a
Heaviside factor theta(|k-h| - rho) with theta(0) = 1, so no term is
counted twice.  All ball-membership and Heaviside decisions are made on
exact integer squared norms, and powers of integers use exponentiation by
squaring whenever the exponent is integral.

The scan evaluates one representative per symmetry orbit (absolute values
sorted decreasingly) unless symmetry reduction is disabled, and reduces
with a deterministic lexicographic tie-break regardless of thread count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .envelopes import ProblemParams
from .errors import InvalidArgumentError, OutOfRegimeError
from .lattice import (
    LatticeVector,
    canonicalize,
    iter_ball_chunks,
    nonzero_ball,
    sq_threshold,
)

_BATCH_CELLS = 4_000_000  # bound on len(k-block) * len(ball) per kernel call


def thread_count(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else NSCONST_THREADS, else all cores."""
    if explicit is not None and explicit >= 1:
        return explicit
    env = os.environ.get("NSCONST_THREADS")
    if env:
        try:
            v = int(env)
            if v >= 1:
                return v
        except ValueError:
            pass
    return os.cpu_count() or 1


def _ipow(base: np.ndarray, e: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base.copy()
    while e:
        if e & 1:
            out = out * b
        b = b * b
        e >>= 1
    return out


def _pow_from_sq(xsq: np.ndarray, q: float) -> np.ndarray:
    """x**q computed from x^2; exact squaring chain for integer q."""
    if q == int(q) and q >= 0:
        half, odd = divmod(int(q), 2)
        out = _ipow(xsq, half)
        if odd:
            out = out * np.sqrt(xsq)
        return out
    return np.power(xsq, q / 2.0)


@dataclass(frozen=True)
class ScanResult:
    kind: str
    max_value: float
    argmax: LatticeVector  # canonical form
    rho: float
    mu: float
    points_scanned: int


def _check_k(k: Sequence[int], d: int) -> np.ndarray:
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (d,):
        raise InvalidArgumentError(f"k must be a length-{d} integer vector")
    if not np.any(k):
        raise InvalidArgumentError("k must be nonzero")
    return k


def _flat_core(
    kind: str,
    K: np.ndarray,
    H: np.ndarray,
    params: ProblemParams,
    t_in: int,
    general: bool,
    reduce: bool = True,
):
    """Folded truncated summands at a block of frequencies K (B, d).

    ``t_in`` is the exact integer ball threshold: |h| < rho iff |h|^2 <= t_in.
    With ``general`` false the caller guarantees |k| >= 2 rho for every row,
    so the h = k exclusion and the Heaviside factor are identically inactive
    and are skipped.  Returns per-k sums, or the (N, B) summand matrix when
    ``reduce`` is false.
    """
    p, n, d = params.p, params.n, params.d
    hsq = np.einsum("ij,ij->i", H, H)  # exact int64
    hsqf = hsq.astype(float)
    hp = _pow_from_sq(hsqf, p)
    hn = _pow_from_sq(hsqf, n)
    ksq = np.einsum("ij,ij->i", K, K)
    kh = H @ K.T  # (N, B) exact
    kmsq = ksq[None, :] - 2 * kh + hsq[:, None]  # |k-h|^2 exact
    if general:
        mask = kmsq > 0
        heavi = (kmsq > t_in).astype(float)
        kmsqf = np.where(mask, kmsq.astype(float), 1.0)
    else:
        mask = None
        heavi = 1.0
        kmsqf = kmsq.astype(float)
    dot = (kh - hsq[:, None]).astype(float)  # h.(k-h)
    sin_sq = 1.0 - dot**2 / (hsqf[:, None] * kmsqf)
    if d == 2:
        ksqf = ksq.astype(float)
        kkm = (ksq[None, :] - kh).astype(float)  # k.(k-h)
        p1 = sin_sq * kkm**2 / (ksqf[None, :] * kmsqf)
        p2 = sin_sq * kh.astype(float) ** 2 / (ksqf[None, :] * hsqf[:, None])
    else:
        p1 = sin_sq
        p2 = sin_sq
    if kind == "K":
        kmp = _pow_from_sq(kmsqf, p)
        kmn = _pow_from_sq(kmsqf, n)
        denom = hp[:, None] * kmn + hn[:, None] * kmp
        terms = (p1 + heavi * p2) / denom**2
        terms = terms * _pow_from_sq(ksq.astype(float), 2.0 * p)[None, :]
    else:
        kp = _pow_from_sq(ksq.astype(float), p)[None, :]
        kmp = _pow_from_sq(kmsqf, p)
        kmn = _pow_from_sq(kmsqf, n)
        kmn1 = _pow_from_sq(kmsqf, n - 1.0)
        kmp1 = _pow_from_sq(kmsqf, p - 1.0)
        hn1 = _pow_from_sq(hsqf, n - 1.0)
        hp1 = _pow_from_sq(hsqf, p - 1.0)
        t1 = (kp - kmp) ** 2 * p1 / (hp[:, None] * kmn1 + hn[:, None] * kmp1) ** 2
        t2 = heavi * (kp - hp[:, None]) ** 2 * p2 / (
            kmp * hn1[:, None] + kmn * hp1[:, None]
        ) ** 2
        terms = t1 + t2
    if mask is not None:
        terms = np.where(mask, terms, 0.0)
    if reduce:
        return 4.0 * np.sum(terms, axis=0)
    return 4.0 * terms


def _all_beyond_two_rho(ksq: np.ndarray, t_in: int) -> bool:
    # |k| >= 2 rho iff |k|^2 >= 4 rho^2; with t_in + 1 >= rho^2 the integer
    # test |k|^2 >= 4 (t_in + 1) is sufficient (never falsely true)
    return bool(np.all(ksq >= 4 * (t_in + 1)))


def _flat_batch(
    kind: str, K: np.ndarray, H: np.ndarray, params: ProblemParams, t_in: int
) -> np.ndarray:
    ksq = np.einsum("ij,ij->i", K, K)
    general = not _all_beyond_two_rho(ksq, t_in)
    return _flat_core(kind, K, H, params, t_in, general=general, reduce=True)


def _flat_single(
    kind: str, k, params: ProblemParams, rho: float, force_general: bool
) -> float:
    params.require_regime(kind)
    if rho <= 1:
        raise InvalidArgumentError("rho must exceed 1")
    k = _check_k(k, params.d)
    t_in = sq_threshold(rho)
    H = nonzero_ball(params.d, rho)
    ksq = np.asarray([int(np.dot(k, k))])
    general = force_general or not _all_beyond_two_rho(ksq, t_in)
    terms = _flat_core(kind, k[None, :], H, params, t_in, general=general, reduce=False)
    return math.fsum(terms[:, 0].tolist())


def k_flat(k, params: ProblemParams, rho: float, *, force_general: bool = False) -> float:
    """Folded truncated sum for the basic inequality at frequency k."""
    return _flat_single("K", k, params, rho, force_general)


def g_flat(k, params: ProblemParams, rho: float, *, force_general: bool = False) -> float:
    """Folded truncated sum for the Kato inequality at frequency k."""
    return _flat_single("G", k, params, rho, force_general)


# -- unfolded oracle ---------------------------------------------------------


def _oracle_masked_sums(
    kind: str, K: np.ndarray, pts: np.ndarray, params: ProblemParams
) -> np.ndarray:
    """Per-k sums of the raw (unfolded) summands over the points ``pts``,
    skipping h = 0 and h = k."""
    p, n, d = params.p, params.n, params.d
    B = len(K)
    hsq = np.einsum("ij,ij->i", pts, pts)
    hsqf = hsq.astype(float)
    hp = _pow_from_sq(hsqf, p)
    hn = _pow_from_sq(hsqf, n)
    ksq = np.einsum("ij,ij->i", K, K)
    kh = pts @ K.T  # (N, B)
    kmsq = ksq[None, :] - 2 * kh + hsq[:, None]
    keep = (hsq[:, None] > 0) & (kmsq > 0)
    kmsqf = np.where(keep, kmsq.astype(float), 1.0)
    hsafe = np.where(hsq > 0, hsqf, 1.0)
    dot = (kh - hsq[:, None]).astype(float)
    sin_sq = 1.0 - dot**2 / (hsafe[:, None] * kmsqf)
    if d == 2:
        psq = sin_sq * (ksq[None, :] - kh) ** 2 / (ksq.astype(float)[None, :] * kmsqf)
    else:
        psq = sin_sq
    if kind == "K":
        denom = hp[:, None] * _pow_from_sq(kmsqf, n) + hn[:, None] * _pow_from_sq(kmsqf, p)
        terms = psq / np.where(keep, denom, 1.0) ** 2
        scale = 4.0 * _pow_from_sq(ksq.astype(float), 2.0 * p)
    else:
        kp = _pow_from_sq(ksq.astype(float), p)[None, :]
        denom = hp[:, None] * _pow_from_sq(kmsqf, n - 1.0) + hn[:, None] * _pow_from_sq(
            kmsqf, p - 1.0
        )
        terms = (kp - _pow_from_sq(kmsqf, p)) ** 2 * psq / np.where(keep, denom, 1.0) ** 2
        scale = np.full(B, 4.0)
    return scale * np.sum(np.where(keep, terms, 0.0), axis=0)


def _oracle_chunk_sums(
    kind: str, K: np.ndarray, pts: np.ndarray, params: ProblemParams, t_big: int
) -> np.ndarray:
    """Per-k unfolded sums over one chunk of the union domain: the chunk
    itself plus, per k, the shifted sliver lying outside the big ball."""
    sums = _oracle_masked_sums(kind, K, pts, params)
    # shifted slivers, evaluated only on the few points leaving the big ball
    for i in range(len(K)):
        shifted = K[i][None, :] + pts
        ssq = np.einsum("ij,ij->i", shifted, shifted)
        outside = shifted[ssq > t_big]
        if len(outside):
            sums[i] += _oracle_masked_sums(kind, K[i : i + 1], outside, params)[0]
    return sums


def full_sum_oracle(kind: str, k, params: ProblemParams, big_radius: float) -> float:
    """Direct truncation of the infinite sum over the union of the balls of
    radius ``big_radius`` around 0 and around k; no fold, no envelopes.

    With big_radius = rho this reproduces the two-ball partial sum exactly,
    the degenerate cross-check of the fold identity.
    """
    return full_sum_oracle_batch(kind, [k], params, big_radius)[0]


def full_sum_oracle_batch(
    kind: str,
    ks: Iterable[Sequence[int]],
    params: ProblemParams,
    big_radius: float,
    *,
    threads: int | None = None,
) -> list[float]:
    """Unfolded truncations at several k, streaming over the big ball once."""
    params.require_regime(kind)
    if big_radius <= 1:
        raise InvalidArgumentError("big_radius must exceed 1")
    K = np.stack([_check_k(k, params.d) for k in ks])
    t_big = sq_threshold(big_radius)
    chunk_pts = max(1, _BATCH_CELLS // max(len(K), 1))
    chunks = iter_ball_chunks(params.d, t_big, chunk_pts)
    totals = np.zeros(len(K))

    def chunk_sums(pts: np.ndarray) -> np.ndarray:
        return _oracle_chunk_sums(kind, K, pts, params, t_big)

    n_threads = thread_count(threads)
    if n_threads == 1:
        for pts in chunks:
            totals += chunk_sums(pts)
    else:
        # at most n_threads chunks in flight, added in chunk order
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            pending: deque = deque()
            for pts in chunks:
                pending.append(ex.submit(chunk_sums, pts))
                if len(pending) >= n_threads:
                    totals += pending.popleft().result()
            while pending:
                totals += pending.popleft().result()
    return [float(v) for v in totals]


# -- scan ---------------------------------------------------------------------


def canonical_points(d: int, limit_radius: float) -> np.ndarray:
    """All k with coordinates sorted decreasingly and nonnegative,
    0 < |k| < limit_radius, in lexicographic order."""
    t = sq_threshold(limit_radius)
    if t < 1:
        return np.empty((0, d), dtype=np.int64)
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rem: int, cap: int) -> None:
        if len(prefix) == d:
            if any(prefix):
                out.append(prefix)
            return
        top = min(cap, math.isqrt(rem))
        for v in range(top + 1):
            rec(prefix + (v,), rem - v * v, v)

    rec((), t, math.isqrt(t))
    out.sort()
    return np.asarray(out, dtype=np.int64)


def ball_scan(
    kind: str,
    params: ProblemParams,
    rho: float,
    mu: float,
    *,
    threads: int | None = None,
    use_symmetry: bool = True,
) -> ScanResult:
    """Maximum of the folded sum over 0 < |k| < mu * rho.

    With symmetry reduction each orbit is evaluated once at its canonical
    representative.  Ties break toward the lexicographically smallest
    canonical argmax; the result does not depend on the thread count.
    """
    params.require_regime(kind)
    if mu <= 1:
        raise OutOfRegimeError(f"factor mu must exceed 1, got {mu}")
    if rho <= 2.0 * math.sqrt(params.d):
        raise OutOfRegimeError(f"cutoff rho must exceed 2*sqrt(d), got {rho}")
    d = params.d
    t_in = sq_threshold(rho)
    H = nonzero_ball(d, rho)
    points = canonical_points(d, mu * rho) if use_symmetry else nonzero_ball(d, mu * rho)
    block = max(1, _BATCH_CELLS // max(len(H), 1))
    blocks = [points[i : i + block] for i in range(0, len(points), block)]

    def eval_block(kb: np.ndarray) -> tuple[float, int]:
        vals = _flat_batch(kind, kb, H, params, t_in)
        j = int(np.argmax(vals))
        return float(vals[j]), j

    n_threads = thread_count(threads)
    if n_threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            results = list(ex.map(eval_block, blocks))
    else:
        results = [eval_block(b) for b in blocks]

    best_val = -math.inf
    best_k: LatticeVector | None = None
    for kb, (v, j) in zip(blocks, results):
        if v > best_val:
            best_val = v
            best_k = tuple(int(x) for x in kb[j])
    assert best_k is not None
    arg = canonicalize(best_k)
    # compensated re-evaluation of the incumbent gives the reported value
    final = _flat_single(kind, arg, params, rho, force_general=False)
    return ScanResult(
        kind=kind,
        max_value=final,
        argmax=arg,
        rho=rho,
        mu=mu,
        points_scanned=len(points),
    )
