"""Band synthesis, box-mass bookkeeping, and concentration tests."""

import math
import struct

import numpy as np
import pytest
import scipy.integrate

from dynamo import bloch
from dynamo import fields as df
from dynamo import modal
from dynamo.errors import BandBroken, ConfigError, NotConcentrated, SolverFailure, TooLarge
from support import dense_eigenvalues, traced_peak

DELTA0 = 0.3
J_STAR = np.array([0.0, 0.0, 0.045])


def _abc_flow():
    return df.make_abc(df.AbcParams(DELTA0, DELTA0, DELTA0))


def _small_datum(nodes_per_axis=2, half_width=0.02, eps=1.0):
    return bloch.band_datum(
        _abc_flow(), J_STAR, half_width, eps=eps, zeta=0.9,
        truncation=1, nodes_per_axis=nodes_per_axis,
    )


def _brute_box_mass(fam, radius):
    """Direct pairwise plane-wave integration (slow reference)."""
    ks = df.wavevectors(fam.truncation).reshape(-1, 3)
    total = 0.0 + 0.0j
    flat = [g.coeffs.reshape(-1, 3) for g in fam.fields]
    live = [np.nonzero(np.any(c != 0.0, axis=1))[0] for c in flat]
    for a in range(len(fam)):
        for b in range(len(fam)):
            w = fam.weights[a] * fam.weights[b]
            dj = fam.j_nodes[a] - fam.j_nodes[b]
            # every live mode pair (ia, ib) of the two nodes at once
            q = ks[live[a]][:, None, :] - ks[live[b]][None, :, :] + dj
            phi = np.prod(2.0 * radius * np.sinc(q * radius / np.pi), axis=-1)
            dots = flat[a][live[a]] @ np.conj(flat[b][live[b]]).T
            total += w * np.sum(dots * phi)
    return total.real


class TestScaleIndex:
    def test_ladder_boundaries(self):
        assert bloch.scale_index(1.0, 0.9) == 0
        assert bloch.scale_index(0.95, 0.9) == 0
        assert bloch.scale_index(0.9, 0.9) == 1
        assert bloch.scale_index(0.81, 0.9) == 2
        assert bloch.scale_index(0.729, 0.9) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            bloch.scale_index(0.0, 0.9)
        with pytest.raises(ConfigError):
            bloch.scale_index(1.5, 0.9)
        with pytest.raises(ConfigError):
            bloch.scale_index(0.5, 1.0)


class TestGaussBox:
    def test_weights_sum_to_volume(self):
        _, w = bloch.gauss_legendre_box([0.1, -0.2, 0.3], 0.05, 4)
        assert np.sum(w) == pytest.approx(0.1**3, rel=1e-14)

    def test_integrates_smooth_products(self):
        center, half = np.array([0.2, -0.1, 0.05]), 0.07
        nodes, w = bloch.gauss_legendre_box(center, half, 5)
        f = lambda j: (j[..., 0] ** 2) * np.cos(j[..., 1]) * np.exp(j[..., 2])
        got = np.dot(w, f(nodes))
        want = 1.0
        for a, g in enumerate([lambda t: t**2, np.cos, np.exp]):
            val, _ = scipy.integrate.quad(g, center[a] - half, center[a] + half)
            want *= val
        assert got == pytest.approx(want, rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            bloch.gauss_legendre_box([0.0, 0.0], 0.1)
        with pytest.raises(ConfigError):
            bloch.gauss_legendre_box([0.0, 0.0, 0.0], -0.1)
        with pytest.raises(ConfigError):
            bloch.gauss_legendre_box([0.0, 0.0, 0.0], 0.1, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                bloch.gauss_legendre_box([0.0, 0.0, 0.0], bad)


class TestConjugateMirror:
    def test_real_field_is_fixed_point(self, rng):
        f = df.random_real_field(2, rng=rng)
        np.testing.assert_allclose(
            f.conjugate().coeffs, f.coeffs, rtol=0, atol=1e-15
        )

    def test_pointwise_conjugation(self, rng):
        f = df.random_complex_field(1, rng=rng)
        pts = rng.uniform(-np.pi, np.pi, size=(6, 3))
        np.testing.assert_allclose(
            df.eval_at_points(f.conjugate(), pts),
            np.conj(df.eval_at_points(f, pts)),
            rtol=0, atol=1e-12,
        )


class TestBlochFamily:
    def test_shape_validation(self, rng):
        g = df.random_complex_field(1, rng=rng)
        with pytest.raises(ConfigError):
            bloch.BlochFamily(np.zeros((2, 3)), np.ones(1), [g])
        with pytest.raises(ConfigError):
            bloch.BlochFamily(np.zeros((1, 3)), np.array([-1.0]), [g])

    def test_nodes_must_stay_inside_cell(self, rng):
        g = df.random_complex_field(1, rng=rng)
        for bad in (np.pi, math.nan):
            with pytest.raises(ConfigError, match="fundamental cell"):
                bloch.BlochFamily(np.array([[bad, 0.0, 0.0]]), np.ones(1), [g])

    def test_mixed_truncations_rejected(self, rng):
        g1 = df.random_complex_field(1, rng=rng)
        g2 = df.random_complex_field(2, rng=rng)
        with pytest.raises(ConfigError):
            bloch.BlochFamily(np.zeros((2, 3)) + 0.1, np.ones(2), [g1, g2])

    def test_pairing_detects_tampering(self, rng):
        fam = _small_datum()
        bad = list(fam.fields)
        bad[0] = df.random_complex_field(1, rng=rng)
        with pytest.raises(ConfigError):
            bloch.BlochFamily(
                fam.j_nodes, fam.weights, bad, conjugate_paired=True
            )

    def test_pairing_refuses_a_nan_coefficient(self, rng):
        c = df.random_complex_field(1, rng=rng).coeffs.copy()
        c[0, 1, 2, 0] = np.nan
        g = df.SpectralField(c)
        nodes = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
        with pytest.raises(ConfigError, match="conjugate mirrors"):
            bloch.BlochFamily(nodes, np.ones(2), [g, g.conjugate()], conjugate_paired=True)

    def test_pairing_requires_mirror_nodes(self, rng):
        g = df.random_complex_field(1, rng=rng)
        nodes = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
        with pytest.raises(ConfigError):
            bloch.BlochFamily(
                nodes, np.ones(2), [g, g.conjugate()],
                conjugate_paired=True,
            )


class TestSynthesize:
    def test_single_constant_node(self):
        v = np.array([1.0, -2.0, 0.5])
        fam = bloch.BlochFamily(
            np.zeros((1, 3)), np.array([0.7]), [df.const_field(v)]
        )
        vol = bloch.synthesize(fam, 2.0, 0.5)
        np.testing.assert_allclose(
            vol.values, np.broadcast_to(0.7 * v, vol.values.shape), rtol=0, atol=1e-14
        )

    def test_matches_pointwise_evaluation(self, rng):
        nodes = np.array([[0.3, 0.1, -0.2], [0.0, 0.5, 0.1], [-0.4, 0.2, 0.3]])
        fam = bloch.BlochFamily(
            nodes, np.array([0.2, 0.5, 0.3]),
            [df.random_complex_field(1, rng=rng) for _ in range(3)],
        )
        vol = bloch.synthesize(fam, 1.5, 0.5)
        ax = bloch.volume_axis(vol.half_width, vol.spacing)
        g1, g2, g3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
        want = 0.0
        for w, j, g in zip(fam.weights, fam.j_nodes, fam.fields):
            want = want + w * df.eval_at_points(g, pts) * np.exp(1j * pts @ j)[:, None]
        np.testing.assert_allclose(
            vol.values.reshape(-1, 3), want, rtol=0, atol=1e-12
        )

    def test_separable_family_factorizes(self, rng):
        # G(x; j) = H(x) g1(j1) g2(j2) g3(j3) on a tensor rule: the
        # synthesis must equal H times a product of 1D quadrature sums.
        h = df.random_complex_field(1, rng=rng)
        center, half, npa = np.array([0.2, -0.3, 0.1]), 0.15, 3
        parts = [lambda t: 1.0 + t, np.cos, lambda t: np.exp(0.2 * t)]
        nodes, weights = bloch.gauss_legendre_box(center, half, npa)
        gvals = parts[0](nodes[:, 0]) * parts[1](nodes[:, 1]) * parts[2](nodes[:, 2])
        fields = [
            df.SpectralField(gv * h.coeffs, kind="complex") for gv in gvals
        ]
        vol = bloch.synthesize(
            bloch.BlochFamily(nodes, weights, fields), 1.0, 0.5
        )
        ax = bloch.volume_axis(vol.half_width, vol.spacing)
        x1d, w1d = np.polynomial.legendre.leggauss(npa)
        factors = []
        for a in range(3):
            t = center[a] + half * x1d
            factors.append(
                half * np.einsum("i,ix->x", w1d * parts[a](t), np.exp(1j * np.outer(t, ax)))
            )
        g1, g2, g3 = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
        hvals = df.eval_at_points(h, pts).reshape(vol.values.shape)
        want = (
            hvals
            * factors[0][:, None, None, None]
            * factors[1][None, :, None, None]
            * factors[2][None, None, :, None]
        )
        np.testing.assert_allclose(vol.values, want, rtol=0, atol=1e-12)

    def test_paired_synthesis_is_real(self):
        vol = bloch.synthesize(_small_datum(), 3.0, 0.5)
        assert np.max(np.abs(vol.values.imag)) <= 1e-8 * np.max(np.abs(vol.values))

    def test_grid_above_the_cap_raises_before_allocating(self, monkeypatch):
        # 200001^3 x 3 samples would need terabytes; refuse from the axis alone
        def refuse(*args, **kwargs):
            raise AssertionError("allocated a volume above the cap")

        monkeypatch.setattr(bloch.np, "arange", refuse)
        for half, spacing in ((10000.0, 0.1), (55.0, 1.0), (1e10, 1e-300)):
            with pytest.raises(TooLarge):
                bloch.volume_axis(half, spacing)
        monkeypatch.undo()
        # 109^3 x 3 is the largest odd grid under the cap
        assert len(bloch.volume_axis(54.0, 1.0)) == 109
        with pytest.raises(TooLarge):
            bloch.synthesize(_small_datum(), 10000.0, 0.1)

    def test_slab_size_does_not_change_the_volume(self, rng, monkeypatch):
        nodes = rng.uniform(-0.5, 0.5, size=(3, 3))
        fam = bloch.BlochFamily(nodes, rng.uniform(0.2, 0.6, size=3),
                                [df.random_complex_field(2, rng=rng) for _ in range(3)])
        band = bloch.ConstantBand(np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1)
        runs = []
        for slab in (1, 300_000, 1 << 40):  # one row, three rows, the whole volume
            monkeypatch.setattr(bloch, "SLAB_BYTES", slab)
            a, b = bloch.synthesize(fam, 2.0, 0.1), band.synthesize(2.0, 0.1)
            runs.append((a.values, b.values, bloch.sampled_box_mass(a), bloch.sampled_box_mass(b)))
        for run in runs[1:]:
            assert np.array_equal(run[0], runs[0][0]) and np.array_equal(run[1], runs[0][1])
            assert run[2:] == runs[0][2:]


class TestVolumeMemory:
    """Synthesis builds one output-sized volume; the sampled mass adds a sixth of it."""

    def _family(self, rng):
        nodes = rng.uniform(-0.5, 0.5, size=(3, 3))
        return bloch.BlochFamily(nodes, rng.uniform(0.2, 0.6, size=3),
                                 [df.random_complex_field(1, rng=rng) for _ in range(3)])

    def test_family_synthesis_peak(self, rng):
        vol, peak = traced_peak(lambda: bloch.synthesize(self._family(rng), 3.0, 0.1))
        assert vol.values.shape == (61, 61, 61, 3)
        assert peak <= 1.25 * vol.values.nbytes + 2**20

    def test_constant_band_synthesis_peak(self):
        band = bloch.ConstantBand(np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1)
        vol, peak = traced_peak(lambda: band.synthesize(3.0, 0.1))
        assert vol.values.dtype == np.complex128
        assert peak <= 1.25 * vol.values.nbytes + 2**20

    def test_sampled_box_mass_peak(self, rng):
        vol = bloch.synthesize(self._family(rng), 3.0, 0.1)
        _, peak = traced_peak(lambda: bloch.sampled_box_mass(vol))
        assert peak <= 0.25 * vol.values.nbytes


class TestBoxMass:
    def test_matches_brute_force(self, rng):
        nodes = np.array([[0.3, 0.1, -0.2], [0.0, 0.5, 0.1], [-0.4, 0.2, 0.3]])
        fam = bloch.BlochFamily(
            nodes, np.array([0.2, 0.5, 0.3]),
            [df.random_complex_field(1, rng=rng) for _ in range(3)],
        )
        for r in (0.7, 3.0, 12.0):
            brute = _brute_box_mass(fam, r)
            assert fam.box_mass(r)[0] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_radius_rejected(self, bad):
        # NaN used to slip past the sign check and give NaN masses
        fam = _small_datum()
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        for family in (fam, band):
            with pytest.raises(ConfigError):
                family.box_mass([1.0, bad])

    def test_no_radius_rejected(self):
        fam = _small_datum()
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        for family in (fam, band):
            with pytest.raises(ConfigError):
                family.box_mass([])
        with pytest.raises(ConfigError):
            bloch.concentration_radius(band, 0.1, 10.0, num=0)

    def test_radii_vectorization(self, rng):
        fam = _small_datum()
        radii = np.array([1.0, 4.0, 16.0])
        np.testing.assert_allclose(
            fam.box_mass(radii), [fam.box_mass(r)[0] for r in radii], rtol=1e-14
        )

    def test_single_plane_wave_mass(self):
        # One node, one mode: |F| is constant, so mass = |w v|^2 (2R)^3.
        c = np.zeros((3, 3, 3, 3), dtype=np.complex128)
        c[2, 1, 1] = [0.0, 1.5, 0.5j]
        fam = bloch.BlochFamily(
            np.array([[0.2, -0.1, 0.4]]), np.array([0.8]),
            [df.SpectralField(c, kind="complex")],
        )
        for r in (0.5, 2.0, 50.0):
            want = 0.8**2 * 2.5 * (2 * r) ** 3
            assert fam.box_mass(r)[0] == pytest.approx(want, rel=1e-13)

    def test_monotone_and_bounded(self):
        fam = _small_datum()
        radii = np.geomspace(1.0, 150.0, 30)
        mass = fam.box_mass(radii)
        assert np.all(np.diff(mass) >= -1e-12)
        assert np.all(mass <= fam.total_mass() * (1.0 + 1e-9))

    @pytest.mark.parametrize("j_star, coords", [
        ((0.03, 0.02, 0.045), [4, 4, 4]),  # box and mirror share no coordinate
        ((0.0, 0.02, 0.045), [2, 4, 4]),  # they share the x coordinates
    ])
    def test_paired_datum_matches_brute_force(self, j_star, coords):
        fam = bloch.band_datum(
            _abc_flow(), np.array(j_star), 0.01, truncation=1, nodes_per_axis=2
        )
        assert [len(np.unique(fam.j_nodes[:, a])) for a in range(3)] == coords
        for r in (0.7, 12.0, 90.0):
            assert fam.box_mass(r)[0] == pytest.approx(_brute_box_mass(fam, r), rel=1e-12)

    def test_coincident_nodes_merge(self, rng):
        # two nodes at one j land on the same grid points and add
        nodes = np.array([[0.3, 0.1, -0.2], [0.3, 0.1, -0.2], [-0.4, 0.2, 0.3]])
        fam = bloch.BlochFamily(
            nodes, np.array([0.2, 0.5, 0.3]),
            [df.random_complex_field(1, rng=rng) for _ in range(3)],
        )
        for r in (0.7, 12.0, 90.0):
            assert fam.box_mass(r)[0] == pytest.approx(_brute_box_mass(fam, r), rel=1e-12)

    def test_scattered_family_over_the_cap(self, rng):
        # a paired band at N = 3 with 5 nodes per axis and j* off every
        # axis has 10 coordinates per axis and stays under the cap
        assert 10**3 * 7**3 * 3 <= bloch.BOX_GRID_CAP
        nodes = rng.uniform(-1.0, 1.0, size=(400, 3))
        fields = [df.random_complex_field(3, rng=rng) for _ in range(400)]
        fam = bloch.BlochFamily(nodes, np.ones(400), fields)
        with pytest.raises(TooLarge):
            fam.box_mass([1.0, 10.0])


    def test_negative_mass_raises(self, monkeypatch):
        # one factor per axis: three sign flips flip the quadratic form
        fam, dirichlet = _small_datum(), bloch._dirichlet
        monkeypatch.setattr(bloch, "_dirichlet", lambda s, r: -dirichlet(s, r))
        with pytest.raises(SolverFailure, match="negative"):
            fam.box_mass([1.0, 4.0, 16.0])

    def test_non_finite_mass_raises(self):
        # 2R overflows at R = 1e308, and the NaN mass passes the sign and growth gates
        with pytest.raises(SolverFailure, match="not finite"):
            _small_datum().box_mass([1.0, 1e308])

    def test_decreasing_mass_raises(self, monkeypatch):
        # dividing every axis factor by R^2 keeps the form positive but
        # makes the mass fall like R^-3 once the box holds most of it
        fam, dirichlet = _small_datum(), bloch._dirichlet
        monkeypatch.setattr(bloch, "_dirichlet", lambda s, r: dirichlet(s, r) / r**2)
        with pytest.raises(SolverFailure, match="decreases"):
            fam.box_mass([16.0, 1.0, 4.0])


class TestConstantBand:
    def test_validation(self):
        v = np.ones(3)
        with pytest.raises(ConfigError):
            bloch.ConstantBand(v, np.array([0.5, 0.4, 0.3]), -0.1)
        with pytest.raises(ConfigError):
            bloch.ConstantBand(v, np.array([3.1, 0.0, 0.0]), 0.2)
        with pytest.raises(ConfigError):  # boxes around +-j* overlap
            bloch.ConstantBand(v, np.array([0.05, 0.0, 0.0]), 0.1)
        with pytest.raises(ConfigError):
            bloch.ConstantBand(v, np.array([0.5, 0.4, 0.3]), math.nan)

    def test_axis_mass_against_quadrature(self):
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        for r in (7.0, 90.0):
            ref, _ = scipy.integrate.quad(
                lambda x: (0.2 * np.sinc(0.1 * x / np.pi)) ** 2, 0.0, r, limit=400
            )
            assert band._axis_mass(r) == pytest.approx(2.0 * ref, rel=1e-10)

    @pytest.mark.parametrize("half_width", [0.05, 0.1])
    def test_axis_cross_against_quadrature(self, half_width):
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), half_width)

        def envelope(x):
            return (2.0 * half_width * np.sinc(half_width * x / np.pi)) ** 2

        # omega = 0 is the axis mass, omega = 2J makes one cosine constant
        for omega in (0.0, 2.0 * half_width, 0.3, -0.6, 1.0):
            for r in (7.0, 40.0, 90.0, 400.0):
                if omega == 0.0:
                    ref, _ = scipy.integrate.quad(envelope, 0.0, r, limit=400)
                else:
                    ref, _ = scipy.integrate.quad(envelope, 0.0, r, weight="cos", wvar=omega,
                                                  limit=max(200, int(20 + 2 * r * abs(omega) / np.pi)))
                err = abs(band._axis_cross(r, omega) - 2.0 * ref)
                assert err <= 1e-12 * band._axis_mass(r), (omega, r)

    def test_mass_approaches_total(self):
        band = bloch.ConstantBand(
            np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
        )
        rel = abs(band.box_mass(2000.0)[0] - band.total_mass()) / band.total_mass()
        assert rel < 0.01

    def test_sampled_synthesis_cross_check(self):
        band = bloch.ConstantBand(
            np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
        )
        vol = band.synthesize(5.0, 0.1)
        assert np.max(np.abs(vol.values.imag)) == 0.0  # paired synthesis is real
        trap = bloch.sampled_box_mass(vol)
        exact = band.box_mass(bloch.volume_axis(vol.half_width, vol.spacing)[-1])[0]
        assert trap == pytest.approx(exact, rel=1e-3)

    def test_tail_follows_inverse_width_law(self):
        # Relative mass deficit ~ 3/(pi J R): check within a factor of 2.5.
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        for jr in (10.0, 40.0):
            r = jr / band.half_width
            rel = abs(band.box_mass(r)[0] - band.total_mass()) / band.total_mass()
            law = 3.0 / (np.pi * jr)
            assert law / 2.5 < rel < law * 2.5


class TestParseval:
    def test_constant_band_converges(self):
        band = bloch.ConstantBand(
            np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
        )
        report = bloch.parseval_check(band, 400.0, num=6, r_min=40.0)
        assert report.decreasing
        assert report.final_rel_err <= 0.05

    def test_single_node_is_non_convergent(self):
        fam = bloch.BlochFamily(
            np.array([[0.3, 0.0, 0.0]]), np.array([1.0]),
            [df.const_field([1.0, 0.0, 0.0])],
        )
        report = bloch.parseval_check(fam, 50.0, num=8)
        assert not report.decreasing
        assert report.rel_err[-1] > report.rel_err[0]

    def test_zero_family(self):
        fam = bloch.BlochFamily(
            np.array([[0.3, 0.0, 0.0]]), np.array([1.0]),
            [df.zero_field(1, kind="complex")],
        )
        report = bloch.parseval_check(fam, 10.0, num=4)
        assert report.rhs == 0.0
        assert np.all(report.rel_err == 0.0)
        assert report.decreasing

    def test_invalid_arguments(self):
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        with pytest.raises(ConfigError):
            bloch.parseval_check(band, -1.0)
        with pytest.raises(ConfigError):
            bloch.parseval_check(band, 10.0, num=1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                bloch.parseval_check(band, bad)


class TestBandDatum:
    def test_normalized_and_paired(self):
        fam = _small_datum()
        assert fam.conjugate_paired
        assert len(fam) == 2 * 2**3
        assert fam.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_exponent_mirror_against_dense_solve(self):
        fam = _small_datum()
        i = 3
        mirror = np.nonzero(
            np.linalg.norm(fam.j_nodes + fam.j_nodes[i], axis=1) < 1e-12
        )[0][0]
        spec = modal.ModalOperatorSpec(
            flow=_abc_flow(), j=fam.j_nodes[mirror], eps=1.0, truncation=1
        )
        dense_p = dense_eigenvalues(spec)[0]
        assert abs(dense_p - fam.exponents[mirror]) < 1e-10
        assert abs(dense_p - np.conj(fam.exponents[i])) < 1e-10

    def test_band_keeps_half_center_growth(self):
        fam = _small_datum()
        spec = modal.ModalOperatorSpec(flow=_abc_flow(), j=J_STAR, eps=1.0, truncation=1)
        center = modal.leading_eigs(spec, count=1)[0].p
        assert center.real > 0.0
        assert np.min(fam.exponents.real) >= 0.5 * center.real

    def test_degenerate_center_breaks_band(self):
        with pytest.raises(BandBroken):
            bloch.band_datum(
                _abc_flow(), np.zeros(3), 0.01, truncation=1, nodes_per_axis=1
            )

    def test_degenerate_node_breaks_a_box(self):
        # j = 0 carries the three-dimensional kernel of L(0, 1) among regular nodes
        nodes = np.array([J_STAR, -J_STAR, np.zeros(3), 2 * J_STAR])
        with pytest.raises(BandBroken, match="node 2"):
            bloch.prepare_band_pairs(_abc_flow(), nodes, 1.0, 1)

    def test_nan_gap_breaks_a_box(self, monkeypatch):
        box = modal.leading_eigs_box

        def nan_at_node_1(specs, count):
            out = box(specs, count)
            out[1][1][1] = np.nan
            return out

        monkeypatch.setattr(modal, "leading_eigs_box", nan_at_node_1)
        with pytest.raises(BandBroken, match="node 1"):
            bloch.prepare_band_pairs(_abc_flow(), np.array([J_STAR, 1.1 * J_STAR]), 1.0, 1)

    def test_quadrature_consistency_of_rhs(self, rng):
        # Smooth non-polynomial j-dependence: doubling the rule must move
        # the coefficient-space mass by < 1e-6 relative.
        h = df.random_complex_field(1, rng=rng)
        totals = []
        for npa in (3, 6):
            nodes, weights = bloch.gauss_legendre_box(J_STAR, 0.05, npa)
            gv = np.exp(0.5 * nodes[:, 0]) * np.cos(nodes[:, 1]) / (1.1 + nodes[:, 2])
            fam = bloch.BlochFamily(
                nodes, weights,
                [df.SpectralField(g * h.coeffs, kind="complex") for g in gv],
            )
            totals.append(fam.total_mass())
        assert abs(totals[1] - totals[0]) <= 1e-6 * abs(totals[1])


class TestConcentration:
    def test_radius_monotone_in_delta(self):
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.1)
        loose = bloch.concentration_radius(band, 0.5, 300.0, num=40)
        tight = bloch.concentration_radius(band, 0.05, 300.0, num=40)
        assert loose < tight

    def test_wider_band_concentrates_sooner(self):
        centers = np.array([0.5, 0.4, 0.3])
        wide = bloch.ConstantBand(np.ones(3), centers, 0.2)
        narrow = bloch.ConstantBand(np.ones(3), centers, 0.05)
        r_wide = bloch.concentration_radius(wide, 0.3, 400.0, num=60)
        r_narrow = bloch.concentration_radius(narrow, 0.3, 400.0, num=60)
        assert r_wide < r_narrow

    def test_unreachable_mass_raises(self):
        band = bloch.ConstantBand(np.ones(3), np.array([0.5, 0.4, 0.3]), 0.05)
        with pytest.raises(NotConcentrated):
            bloch.concentration_radius(band, 0.01, 5.0)
        with pytest.raises(ConfigError):
            bloch.concentration_radius(band, 1.5, 10.0)

    def test_eps_sweep_is_uniform(self):
        sweep = bloch.concentration_sweep(
            _abc_flow(), J_STAR, 0.02, [1.0, 0.9, 0.81], 0.5, 150.0,
            truncation=1, nodes_per_axis=2,
        )
        assert sweep.spread <= 0.10
        # the ladder maps each eps to the same rescaled problem here
        assert sweep.spread == 0.0

    def test_sweep_computes_each_radius_once(self, monkeypatch):
        calls = []
        box_mass = bloch.BlochFamily.box_mass

        def counted(family, radii):
            calls.append(radii)
            return box_mass(family, radii)

        monkeypatch.setattr(bloch.BlochFamily, "box_mass", counted)
        sweep = bloch.concentration_sweep(
            _abc_flow(), J_STAR, 0.02, [1.0, 0.9, 0.81], 0.5, 150.0,
            truncation=1, nodes_per_axis=2,
        )
        # all three diffusivities map to the rescaled ratio 1
        assert len(calls) == 1
        assert sweep.radii[0] == sweep.radii[1] == sweep.radii[2]

    def test_interior_eps_stays_within_tolerance(self):
        base = bloch.concentration_radius(_small_datum(eps=1.0), 0.5, 150.0)
        interior = bloch.concentration_radius(_small_datum(eps=0.95), 0.5, 150.0)
        assert abs(interior - base) <= 0.10 * base


class TestVolumeIO:
    def test_roundtrip_is_bit_exact(self, rng, tmp_path):
        vals = rng.standard_normal((5, 5, 5, 3)) + 1j * rng.standard_normal((5, 5, 5, 3))
        vol = bloch.SampledVolume(1.0, 0.5, vals)
        path = tmp_path / "vol.bin"
        bloch.save_volume(vol, path)
        back = bloch.load_volume(path)
        assert back.half_width == vol.half_width
        assert back.spacing == vol.spacing
        assert np.array_equal(back.values, vol.values)

    def test_file_layout(self, rng, tmp_path):
        # independent encoding: ASCII header, then every sample of component
        # 0 in C order as little-endian (re, im) doubles, then 1, then 2
        m = 3
        vals = rng.standard_normal((m, m, m, 3)) + 1j * rng.standard_normal((m, m, m, 3))
        path = tmp_path / "vol.bin"
        bloch.save_volume(bloch.SampledVolume(1.0, 0.75, vals), path)
        header = (f"sampled-volume 1\nm {m}\nhalf_width {(1.0).hex()}\n"
                  f"spacing {(0.75).hex()}\ncomponents 3\ndata\n").encode("ascii")
        payload = b"".join(
            struct.pack("<dd", z.real, z.imag)
            for c in range(3) for i in range(m) for j in range(m) for k in range(m)
            for z in [vals[i, j, k, c]]
        )
        assert path.read_bytes() == header + payload

    def test_rejects_foreign_and_truncated_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"something else entirely\ndata\n" + b"\0" * 64)
        with pytest.raises(ConfigError):
            bloch.load_volume(path)
        vol = bloch.SampledVolume(0.5, 0.5, np.zeros((3, 3, 3, 3), dtype=complex))
        good = tmp_path / "vol.bin"
        bloch.save_volume(vol, good)
        good.write_bytes(good.read_bytes()[:-16])
        with pytest.raises(ConfigError):
            bloch.load_volume(good)

    def test_validation(self):
        with pytest.raises(ConfigError):
            bloch.SampledVolume(1.0, 0.0, np.zeros((3, 3, 3, 3), dtype=complex))
        with pytest.raises(ConfigError):
            bloch.SampledVolume(1.0, 0.5, np.zeros((3, 4, 3, 3), dtype=complex))
        bad = np.zeros((3, 3, 3, 3), dtype=complex)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(Exception):
            bloch.SampledVolume(0.5, 0.5, bad)
        # geometries the samples do not have: an even side, a NaN spacing,
        # and a half-width of 7 where 5 samples at spacing 0.5 span only +-1
        for half_width, spacing, m in ((1.0, 0.5, 4), (1.0, np.nan, 5), (7.0, 0.5, 5)):
            with pytest.raises(ConfigError):
                bloch.SampledVolume(half_width, spacing, np.zeros((m, m, m, 3), dtype=complex))

    def test_hand_edited_geometry_fails_to_load(self, tmp_path):
        path = tmp_path / "vol.bin"
        bloch.save_volume(bloch.SampledVolume(1.0, 0.5, np.zeros((5, 5, 5, 3), dtype=complex)), path)
        path.write_bytes(path.read_bytes().replace(f"half_width {(1.0).hex()}".encode(),
                                                   f"half_width {(7.0).hex()}".encode(), 1))
        with pytest.raises(ConfigError):
            bloch.load_volume(path)

    def test_trapezoid_mass_of_constant(self):
        v = np.array([1.0, 2.0, -1.0])
        m, h = 9, 0.25
        vol = bloch.SampledVolume(
            1.0, h, np.broadcast_to(v, (m, m, m, 3)).astype(complex)
        )
        side = (m - 1) * h
        assert bloch.sampled_box_mass(vol) == pytest.approx(
            np.sum(v**2) * side**3, rel=1e-13
        )
