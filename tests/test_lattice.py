import math

import numpy as np
import pytest

from nsconst.errors import InvalidArgumentError, InvalidDimensionError, OutOfRegimeError
from nsconst.lattice import (
    ball_array,
    canonicalize,
    nonzero_ball,
    projector_norm,
    reflections_and_permutations,
    sq_threshold,
    zeta_partial,
    zeta_tail_bound,
)


def _tuples(pts: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in row) for row in pts]


class TestBallPoints:
    def test_unit_sphere_d3(self):
        # radius between 1 and sqrt(2): exactly the six unit vectors
        pts = _tuples(nonzero_ball(3, 1.2))
        assert sorted(pts) == sorted(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        )

    def test_radius_15_includes_sqrt2_shell(self):
        # |(1,1,0)| = sqrt(2) < 1.5, so the second shell belongs to the ball
        pts = _tuples(nonzero_ball(3, 1.5))
        assert (1, 1, 0) in pts
        assert len(pts) == 18

    def test_count_d2(self):
        pts = _tuples(nonzero_ball(2, 2.5))
        assert len(pts) == 20
        assert all(h[0] ** 2 + h[1] ** 2 < 6.25 for h in pts)

    def test_empty_inside_half(self):
        assert _tuples(nonzero_ball(3, 0.5)) == []

    def test_lexicographic_order(self):
        # the origin included
        pts = _tuples(ball_array(2, sq_threshold(2.1)))
        assert (0, 0) in pts
        assert pts == sorted(pts)

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimensionError):
            nonzero_ball(1, 2.0)

    def test_boundary_is_exact(self):
        # radius exactly 2: |h| < 2 excludes the four points with |h|^2 = 4
        pts = _tuples(nonzero_ball(2, 2.0))
        assert (2, 0) not in pts and (0, 2) not in pts
        assert len(pts) == 8


class TestProjectorNorm:
    def test_orthogonal_d3(self):
        assert projector_norm((1, 0, 0), (0, 1, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_antipodal_d2_vanishes(self):
        assert projector_norm((1, 0), (-1, 0)) == 0.0

    def test_d2_oblique_value(self):
        assert projector_norm((1, 0), (0, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_d2_oblique_against_maximization(self):
        # directly maximize |(a . l/|l|) proj_{(h+l)^perp} b| over unit a, b
        h = np.array([1.0, 0.0])
        l = np.array([0.0, 1.0])
        s = h + l
        proj = np.eye(2) - np.outer(s, s) / (s @ s)
        best = 0.0
        for phase_a in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            for phase_b in np.linspace(0, 2 * np.pi, 32, endpoint=False):
                a = np.exp(1j * phase_a) * np.array([0.0, 1.0])  # unit, a . h = 0
                b = np.exp(1j * phase_b) * np.array([1.0, 0.0])  # unit, b . l = 0
                val = abs((a @ l) / np.linalg.norm(l)) * np.linalg.norm(proj @ b)
                best = max(best, val)
        assert best == pytest.approx(projector_norm((1, 0), (0, 1)), rel=1e-9)

    def test_d3_matches_singular_value_oracle(self):
        # |P_{hl}| = max_a |a.l|/|l| * smax(proj restricted to l-perp)
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = rng.integers(-4, 5, size=3)
            l = rng.integers(-4, 5, size=3)
            if not h.any() or not l.any() or not (h + l).any():
                continue
            hf, lf = h.astype(float), l.astype(float)
            s = hf + lf
            proj = np.eye(3) - np.outer(s, s) / (s @ s)
            # orthonormal basis of l-perp
            q, _ = np.linalg.qr(np.column_stack([lf, np.eye(3)]))
            basis = q[:, 1:]
            smax = np.linalg.svd(proj @ basis, compute_uv=False)[0]
            # best |a.l| over unit a in h-perp is sin(theta_hl)
            sin_hl = math.sqrt(1 - (hf @ lf) ** 2 / ((hf @ hf) * (lf @ lf)))
            assert projector_norm(tuple(h), tuple(l)) == pytest.approx(
                sin_hl * smax, abs=1e-12
            )

    def test_bounded_by_sine(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 4))
            h = rng.integers(-6, 7, size=d)
            l = rng.integers(-6, 7, size=d)
            if not h.any() or not l.any():
                continue
            hf, lf = h.astype(float), l.astype(float)
            sin_hl = math.sqrt(
                max(0.0, 1 - (hf @ lf) ** 2 / ((hf @ hf) * (lf @ lf)))
            )
            v = projector_norm(tuple(h), tuple(l))
            assert v <= sin_hl + 1e-12 <= 1 + 1e-12

    def test_symmetric_in_arguments_d3(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h = rng.integers(-5, 6, size=3)
            l = rng.integers(-5, 6, size=3)
            if not h.any() or not l.any():
                continue
            assert projector_norm(tuple(h), tuple(l)) == pytest.approx(
                projector_norm(tuple(l), tuple(h)), abs=1e-14
            )

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError):
            projector_norm((0, 0, 0), (1, 0, 0))


class TestCanonicalize:
    @pytest.mark.parametrize(
        "k,expected",
        [((-3, 1, -2), (3, 2, 1)), ((0, 0, 5), (5, 0, 0)), ((2, 2, -2), (2, 2, 2))],
    )
    def test_examples(self, k, expected):
        assert canonicalize(k) == expected

    def test_idempotent_and_orbit_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = tuple(int(x) for x in rng.integers(-4, 5, size=3))
            c = canonicalize(k)
            assert canonicalize(c) == c
            for image in reflections_and_permutations(k):
                assert canonicalize(image) == c


class TestZeta:
    def test_hand_enumeration_d3(self):
        assert zeta_partial(3, 4.0, 2.0) == pytest.approx(6 + 12 / 4 + 8 / 9, rel=1e-14)

    def test_four_units_d2(self):
        # radius between 1 and sqrt(2): only the four unit vectors
        assert zeta_partial(2, 4.0, 1.2) == pytest.approx(4.0, rel=1e-14)
        # at radius 1.5 the sqrt(2) shell joins: 4 + 4/4
        assert zeta_partial(2, 4.0, 1.5) == pytest.approx(5.0, rel=1e-14)

    def test_monotone_in_radius(self):
        vals = [zeta_partial(3, 4.0, r) for r in (2.0, 5.0, 20.0, 50.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_approaches_lattice_constant(self):
        # partial sum at 200 plus the tail bound brackets the full value
        partial = zeta_partial(3, 4.0, 200.0)
        upper = partial + zeta_tail_bound(3, 4.0, 200.0)
        # the full lattice value 16.5323... is bracketed by the oracle pair
        assert partial < 16.5323 < upper
        assert upper - partial < 0.07

    def test_negative_exponent(self):
        # sum of |h|^3 over the six unit vectors
        assert zeta_partial(3, -3.0, 1.2) == pytest.approx(6.0, rel=1e-14)


class TestZetaTail:
    def test_dominates_direct_slab_d3(self):
        slab = zeta_partial(3, 4.0, 200.0) - zeta_partial(3, 4.0, 20.0)
        assert zeta_tail_bound(3, 4.0, 20.0) >= slab

    def test_dominates_direct_slab_d2(self):
        slab = zeta_partial(2, 6.0, 100.0) - zeta_partial(2, 6.0, 10.0)
        assert zeta_tail_bound(2, 6.0, 10.0) >= slab

    def test_monotone_to_zero(self):
        vals = [zeta_tail_bound(3, 4.0, r) for r in (10.0, 20.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02  # slowest term of the nu = 4 bound decays like 1/rho

    def test_tail_dominance_general(self):
        for r_out in (50.0, 120.0):
            gap = zeta_partial(3, 6.0, r_out) - zeta_partial(3, 6.0, 15.0)
            assert zeta_tail_bound(3, 6.0, 15.0) >= gap

    def test_regime_errors(self):
        with pytest.raises(OutOfRegimeError):
            zeta_tail_bound(3, 2.5, 20.0)
        with pytest.raises(OutOfRegimeError):
            zeta_tail_bound(3, 4.0, 3.0)
