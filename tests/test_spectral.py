import math

import numpy as np
import pytest

from nsconst.checks import (
    check_advection_orthogonality,
    check_leray_properties,
    check_mean_and_divergence,
    check_projection_orthogonality,
)
from nsconst.errors import InvalidArgumentError
from nsconst.spectral import (
    FourierField,
    advect,
    bilinear_map,
    leray_project,
    random_solenoidal_field,
    sobolev_inner,
    sobolev_norm,
)


def unit(d, axis):
    e = np.zeros(d)
    e[axis] = 1.0
    return e


def crossed_pair(d=3):
    """v = i b (e_a - e_-a), w = i c (e_b - e_-b) in the first basis modes."""
    a = (1,) + (0,) * (d - 1)
    b = (0, 1) + (0,) * (d - 2)
    v = FourierField(d, {a: 1j * unit(d, 1), tuple(-x for x in a): -1j * unit(d, 1)})
    w = FourierField(d, {b: 1j * unit(d, 2), tuple(-x for x in b): -1j * unit(d, 2)})
    return v, w


class TestLeray:
    def test_parallel_mode_killed(self):
        f = FourierField(3, {(1, 0, 0): unit(3, 0)})
        assert np.allclose(leray_project(f).coeff((1, 0, 0)), 0.0)

    def test_orthogonal_mode_kept(self):
        f = FourierField(3, {(1, 0, 0): unit(3, 1)})
        assert np.allclose(leray_project(f).coeff((1, 0, 0)), unit(3, 1))

    def test_oblique_mode(self):
        f = FourierField(3, {(1, 1, 0): unit(3, 0)})
        assert np.allclose(leray_project(f).coeff((1, 1, 0)), [0.5, -0.5, 0.0])

    def test_properties_random(self):
        assert check_leray_properties(3, 10, 2).passed


class TestAdvect:
    def test_empty_support(self):
        v = FourierField(3, {})
        w = random_solenoidal_field(3, 2.0, np.random.default_rng(0))
        assert advect(v, w).is_empty

    def test_zero_mean_of_product(self):
        v, w = crossed_pair()
        prod = advect(v, w)
        assert np.allclose(prod.mean_coeff(), 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        v = FourierField(2, {(1, 0): unit(2, 1)})
        w = FourierField(3, {(1, 0, 0): unit(3, 1)})
        with pytest.raises(InvalidArgumentError):
            advect(v, w)

    def test_matches_grid_product(self):
        """Oracle: sample both fields on a 16^3 grid, multiply pointwise,
        transform back; no aliasing since supports live in |k| <= 2."""
        N = 16
        d = 3
        rng = np.random.default_rng(42)
        v = random_solenoidal_field(d, 2.0, rng)
        w = random_solenoidal_field(d, 2.0, rng)

        def samples(field_items):
            C = np.zeros((N,) * d + (d,), dtype=complex)
            for k, c in field_items:
                C[tuple(np.mod(k, N))] += c
            return np.fft.ifftn(C, axes=(0, 1, 2)) * N**d / (2 * np.pi) ** (d / 2)

        sv = samples(v.items())
        # spectral derivative of w along each axis
        grad_w = []
        for r in range(d):
            grad_w.append(samples((k, 1j * k[r] * c) for k, c in w.items()))
        prod = sum(sv[..., r : r + 1] * grad_w[r] for r in range(d))
        spec = np.fft.fftn(prod, axes=(0, 1, 2)) / N**d * (2 * np.pi) ** (d / 2)
        result = advect(v, w)
        for k in result.support():
            got = result.coeff(k)
            ref = spec[tuple(np.mod(k, N))]
            assert np.allclose(got, ref, atol=1e-12)


class TestBilinearMap:
    def test_crossed_pair_closed_form_d3(self):
        v, w = crossed_pair()
        pw = bilinear_map(v, w)
        pref = -1j / (2 * math.pi) ** 1.5
        c = unit(3, 2)
        for k, sign in [((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, -1, 0), 1), ((-1, 1, 0), -1)]:
            assert np.allclose(pw.coeff(k), sign * pref * c, atol=1e-15)

    def test_self_advection_vanishes(self):
        a = (1, 0, 0)
        v = FourierField(3, {a: 1j * unit(3, 1), (-1, 0, 0): -1j * unit(3, 1)})
        assert bilinear_map(v, v).is_empty

    def test_planar_pair_closed_form(self):
        # v = i b (e_a - e_-a), w = i a (e_b - e_-b) in the plane
        v = FourierField(2, {(1, 0): 1j * unit(2, 1), (-1, 0): -1j * unit(2, 1)})
        w = FourierField(2, {(0, 1): 1j * unit(2, 0), (0, -1): -1j * unit(2, 0)})
        pw = bilinear_map(v, w)
        pref = -1j / (4 * math.pi)
        amb = unit(2, 0) - unit(2, 1)
        apb = unit(2, 0) + unit(2, 1)
        assert np.allclose(pw.coeff((1, 1)), pref * amb, atol=1e-15)
        assert np.allclose(pw.coeff((-1, -1)), -pref * amb, atol=1e-15)
        assert np.allclose(pw.coeff((1, -1)), pref * apb, atol=1e-15)
        assert np.allclose(pw.coeff((-1, 1)), -pref * apb, atol=1e-15)

    def test_divergence_free_output(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = random_solenoidal_field(3, 2.5, rng)
            w = random_solenoidal_field(3, 2.5, rng)
            assert bilinear_map(v, w).divergence_norm() < 1e-12


class TestSobolev:
    def test_crossed_pair_norms(self):
        v, w = crossed_pair()
        for order in (0.0, 1.5, 3.0):
            assert sobolev_norm(v, order) == pytest.approx(math.sqrt(2), rel=1e-15)
            assert sobolev_norm(w, order) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_shifted_mode_norm(self):
        ell = 3
        k = (ell, 1, 0)
        w = FourierField(3, {k: 1j * unit(3, 2), (-ell, -1, 0): -1j * unit(3, 2)})
        for order in (1.0, 2.5):
            assert sobolev_norm(w, order) == pytest.approx(
                math.sqrt(2) * (1 + ell**2) ** (order / 2), rel=1e-14
            )

    def test_parseval_at_order_zero(self):
        rng = np.random.default_rng(9)
        f = random_solenoidal_field(3, 2.0, rng)
        total = sum(np.sum(np.abs(f.coeff(k)) ** 2) for k in f.support())
        assert sobolev_inner(f, f, 0.0).real == pytest.approx(total, rel=1e-13)

    def test_mean_zero_required(self):
        f = FourierField(3, {(0, 0, 0): unit(3, 0), (1, 0, 0): unit(3, 1)})
        g = random_solenoidal_field(3, 1.5, np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError):
            sobolev_inner(f, g, 1.0)

    def test_small_real_mean_rejected(self):
        # far above round-off of the unit coefficient, though below 1e-8
        f = FourierField(3, {(0, 0, 0): 1e-9 * unit(3, 0), (1, 0, 0): unit(3, 1)})
        g = random_solenoidal_field(3, 1.5, np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError):
            sobolev_inner(f, g, 1.0)

    def test_round_off_mean_of_product_accepted(self):
        # the 13th pair drawn from seed 1 gives a product whose mean
        # coefficient, 1.5e-15, is round-off against coefficients near 6
        rng = np.random.default_rng(1)
        for _ in range(13):
            v = random_solenoidal_field(2, 3.0, rng)
            w = random_solenoidal_field(2, 3.0, rng)
        prod = advect(v, w)
        assert np.max(np.abs(prod.mean_coeff())) > 1e-15
        assert abs(sobolev_inner(prod, w, 0.0)) <= 1e-10


class TestReality:
    def test_conjugate_reconstructed(self):
        c = np.array([1 + 2j, 0.5, -1j])
        f = FourierField(3, {(1, 2, 0): c})
        assert np.allclose(f.coeff((-1, -2, 0)), np.conj(c))

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FourierField(3, {(1, 0, 0): unit(3, 1), (-1, 0, 0): 2.0 * unit(3, 1)})


class TestOrthogonalityInvariants:
    def test_projected_product_orthogonal(self):
        assert check_projection_orthogonality(3, 100, 0).worst <= 1e-10

    def test_advection_orthogonal(self):
        assert check_advection_orthogonality(3, 100, 1).worst <= 1e-10

    def test_round_off_mean_seed(self):
        # seed 35 yields products whose mean coefficient is pure round-off
        assert check_advection_orthogonality(3, 10, 35).worst <= 1e-10
        assert check_projection_orthogonality(3, 10, 35).worst <= 1e-10

    def test_mean_divergence(self):
        assert check_mean_and_divergence(3, 50, 2).passed
        assert check_mean_and_divergence(2, 50, 3).passed
