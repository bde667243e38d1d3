import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dynamo import fields as df
from dynamo import glue
from dynamo.errors import ConfigError, InvalidScale, InvalidTruncation, NotMeanFree
from support import convolve_oracle


def abc(a=1.0, b=1.0, c=1.0, n=1):
    return df.make_abc(df.AbcParams(a, b, c), n)


class TestMakeAbc:
    def test_unit_mode_coefficient(self):
        u = abc(1.0, 1.0, 1.0)
        # the sin/cos pair along x3 lands on the k = (0,0,-1) mode as
        # (i/2, 1/2, 0) under the exp(+ik.x) synthesis convention
        assert_allclose(u.coeff((0, 0, -1)), [0.5j, 0.5, 0.0], atol=1e-15)
        assert_allclose(u.coeff((0, 0, 1)), [-0.5j, 0.5, 0.0], atol=1e-15)

    def test_support_is_six_unit_modes(self):
        u = abc(1.0, 2.0, 3.0, n=2)
        nz = np.argwhere(np.any(u.coeffs != 0.0, axis=-1)) - 2
        assert len(nz) == 6
        assert set(map(tuple, nz)) == {
            (0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
        }

    def test_matches_trigonometric_formula_on_grid(self):
        a, b, c = 1.3, -0.7, 2.1
        u = abc(a, b, c)
        m = 16
        vals = df._to_grid(u.coeffs, m)
        x = df.grid_points(u, m)
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        expect = np.stack(
            [
                a * np.sin(x3) + c * np.cos(x2),
                b * np.sin(x1) + a * np.cos(x3),
                c * np.sin(x2) + b * np.cos(x1),
            ],
            axis=-1,
        )
        assert np.max(np.abs(vals.imag)) < 1e-13
        assert_allclose(vals.real, expect, atol=1e-13)

    def test_parseval_sum(self):
        u = abc(1.0, 2.0, 3.0)
        assert_allclose(u.l2() ** 2, 14.0, rtol=1e-13)

    def test_beltrami(self):
        u = abc(1.0, 1.0, 1.0)
        assert_allclose(df.curl(u).coeffs, u.coeffs, atol=1e-14)

    def test_divergence_free_and_mean_free(self):
        u = abc(0.3, 1.1, -2.0)
        assert df.divergence_rel(u) < 1e-14
        assert np.linalg.norm(df.mean_vector(u)) == 0.0

    def test_rejects_zero_truncation(self):
        with pytest.raises(InvalidTruncation):
            abc(n=0)


class TestNorms:
    def test_abc_gradient_sup(self):
        u = abc(1.0, 1.0, 1.0)
        assert_allclose(df.sup_grad(u), 2.0, rtol=1e-12)
        assert_allclose(u.l2(), np.sqrt(3.0), rtol=1e-13)

    def test_abc_gradient_sup_asymmetric(self):
        u = abc(1.0, 2.0, 3.0)
        # closed form max(a + b, b + c, a + c) = 5
        assert_allclose(df.sup_grad(u), 5.0, rtol=1e-12)

    def test_sup_value_abc(self):
        # |U|^2 = a^2 + b^2 + c^2 + 2(ab sin x1 cos x3 + ...) peaks at 6 for unit amplitudes
        u = abc(1.0, 1.0, 1.0)
        assert_allclose(df.sup_value(u, oversample=16), np.sqrt(6.0), rtol=1e-3)

    def test_grid_parseval(self, rng):
        f = df.random_real_field(2, rng)
        vals = df._to_grid(f.coeffs, 8)  # 8 > 2 * truncation keeps |f|^2 alias-free
        ms = np.mean(np.sum(np.abs(vals) ** 2, axis=-1))
        assert_allclose(ms, f.l2() ** 2, rtol=1e-12)


class TestCalculus:
    def test_curl_of_gradient_vanishes(self, rng):
        # gradient fields have coefficients parallel to k
        n = 2
        kv = df.wavevectors(n)
        phi = rng.standard_normal((2 * n + 1,) * 3) + 1j * rng.standard_normal((2 * n + 1,) * 3)
        grad = df.SpectralField(1j * kv * phi[..., None], kind="complex")
        assert df.curl(grad).l2() < 1e-13

    def test_divergence_of_curl_vanishes(self, rng):
        f = df.random_complex_field(2, rng)
        assert df.divergence_rel(df.curl(f)) < 1e-13

    def test_inv_laplacian_inverts(self, rng):
        f = df.random_real_field(2, rng, mean_free=True)
        g = df.inv_laplacian(df.laplacian(f))
        assert_allclose(g.coeffs, f.coeffs, atol=1e-13 * f.l2())

    def test_inv_laplacian_rejects_mean(self):
        f = df.const_field([1.0, 0.0, 0.0])
        with pytest.raises(NotMeanFree):
            df.inv_laplacian(f)

    def test_leray_kills_divergence(self, rng):
        f = df.random_real_field(2, rng)
        p = df.leray_project(f)
        assert df.divergence_rel(p) < 1e-13
        # idempotent
        assert_allclose(df.leray_project(p).coeffs, p.coeffs, atol=1e-14)

    def test_leray_with_shift(self, rng):
        j = np.array([0.3, -0.1, 0.7])
        f = df.random_complex_field(2, rng)
        p = df.leray_project(f, shift=j)
        assert df.divergence_rel(p, shift=j) < 1e-13

    def test_abc_is_its_own_potential(self):
        # curl u = u for every amplitude triple: the Beltrami property that lets
        # `glue build --abc` pass the ABC flow itself as the catalog's stream
        u = abc(1.3, -0.7, 2.1)
        assert_allclose(df.curl(u).coeffs, u.coeffs, atol=1e-14)


class TestCross:
    def test_hand_convolution_single_amplitude(self):
        # only the x3 pair is active; crossing with e3 gives (cos, -sin, 0)/... terms
        u = abc(1.0, 0.0, 0.0)
        e3 = df.const_field([0.0, 0.0, 1.0])
        w = df.cross(u, e3)
        assert_allclose(w.coeff((0, 0, 1)), [0.5, 0.5j, 0.0], atol=1e-14)
        assert_allclose(w.coeff((0, 0, -1)), [0.5, -0.5j, 0.0], atol=1e-14)
        assert np.count_nonzero(np.any(w.coeffs != 0.0, axis=-1)) == 2

    def test_matches_direct_convolution(self, rng):
        f = df.random_real_field(2, rng)
        g = df.random_real_field(2, rng)
        fast = df.cross(f, g)
        slow = convolve_oracle(f, g)
        assert_allclose(fast.coeffs, slow.coeffs, atol=1e-13 * f.l2() * g.l2())

    def test_cap_truncates(self, rng):
        f = df.random_real_field(2, rng)
        g = df.random_real_field(2, rng)
        full = df.cross(f, g)
        capped = df.cross(f, g, cap=2)
        assert capped.truncation == 2
        assert_allclose(capped.coeffs, df.resize(full, 2).coeffs, atol=1e-14)

    def test_resize_round_trip(self, rng):
        f = df.random_complex_field(2, rng)
        assert df.resize(f, 2) is f  # immutable, so no copy is made
        padded = df.resize(f, 3)
        assert padded.truncation == 3
        assert_allclose(df.resize(padded, 2).coeffs, f.coeffs, rtol=0, atol=0)

    def test_antisymmetry_with_self(self, rng):
        f = df.random_real_field(2, rng)
        assert df.cross(f, f).l2() < 1e-13 * f.l2() ** 2

    def test_scale_mismatch_rejected(self, rng):
        f = df.random_real_field(1, rng)
        g = df.random_real_field(1, rng, scale=2.0)
        with pytest.raises(InvalidScale):
            df.cross(f, g)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bilinearity(self, seed):
        r = np.random.default_rng(seed)
        f = df.random_real_field(1, r)
        g = df.random_real_field(1, r)
        h = df.random_real_field(1, r)
        lhs = df.cross(f + g, h)
        rhs = df.cross(f, h) + df.cross(g, h)
        assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * (1 + lhs.l2()))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_real_fields_give_real_product(self, seed):
        r = np.random.default_rng(seed)
        f = df.random_real_field(1, r)
        g = df.random_real_field(1, r)
        w = df.cross(f, g)
        assert w.kind == "real"
        assert df.is_hermitian(w, tol=1e-12)


class TestRescale:
    """Step n of a catalog scales the stream's coefficients by zeta^n on period scale zeta^(n/2)."""

    @staticmethod
    def _catalog(zeta):
        tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
        return glue.plan_catalog(abc(1.0, 2.0, 3.0), tail, zeta=zeta, ufrak=0.5, n_max=1, ell_max=1)

    def test_amplitude_and_scale(self):
        zeta, n = 0.9, 3
        cat = self._catalog(zeta)
        v = cat.stream_for(n)
        assert np.array_equal(v.coeffs, cat.stream.coeffs * zeta**n)
        assert v.scale == pytest.approx(zeta ** 1.5)
        assert_allclose(v.l2(), cat.stream.l2() * zeta**n, rtol=1e-14)

    def test_gradient_sup_invariant(self):
        # the velocity curl(stream) keeps its sup |grad| at every step, the
        # invariance the paper's rescaling relies on
        cat = self._catalog(0.8)
        base = df.sup_grad(df.curl(cat.stream))
        assert_allclose(df.sup_grad(df.curl(cat.stream_for(2))), base, rtol=1e-12)

    def test_identity_at_n0(self):
        cat = self._catalog(0.9)
        v = cat.stream_for(0)
        assert_allclose(v.coeffs, cat.stream.coeffs)
        assert v.scale == 1.0


class TestEvaluation:
    def test_matches_grid_synthesis(self, rng):
        f = df.random_real_field(2, rng)
        m = 6
        pts = df.grid_points(f, m).reshape(-1, 3)
        direct = df.eval_at_points(f, pts).reshape(m, m, m, 3)
        assert_allclose(direct, df._to_grid(f.coeffs, m), atol=1e-12 * f.l2())

    def test_jacobian_matches_finite_difference(self, rng):
        f = df.random_real_field(1, rng)
        pt = np.array([[0.3, 1.1, -0.4]])
        jac = df.eval_jacobian_at_points(f, pt)[0]
        h = 1e-6
        for l in range(3):
            e = np.zeros(3)
            e[l] = h
            fd = (df.eval_at_points(f, pt + e) - df.eval_at_points(f, pt - e))[0] / (2 * h)
            assert_allclose(jac[:, l], fd, atol=1e-8 * max(1.0, f.l2()))

    def test_hessian_symmetry(self, rng):
        f = df.random_real_field(1, rng)
        pt = np.array([[0.2, -0.8, 2.5]])
        hess = df.eval_hessian_at_points(f, pt)[0]
        assert_allclose(hess, np.swapaxes(hess, 1, 2), atol=1e-14)

    @staticmethod
    def per_derivative_sums(f, pts):
        """Values, Jacobians and Hessians as one product of the phases per derivative (the reference)."""
        kv = df.wavevectors(f.truncation, f.scale).reshape(-1, 3)
        cf = f.coeffs.reshape(-1, 3)
        keep = np.any(cf != 0.0, axis=1)
        kv, cf = kv[keep], cf[keep]
        phases = np.exp(1j * (pts @ kv.T))
        jac = np.zeros((len(pts), 3, 3), dtype=np.complex128)
        hess = np.zeros((len(pts), 3, 3, 3), dtype=np.complex128)
        for l in range(3):
            jac[:, :, l] = phases @ (1j * kv[:, l:l + 1] * cf)
            for m in range(3):
                hess[:, :, l, m] = phases @ (-kv[:, l:l + 1] * kv[:, m:m + 1] * cf)
        return phases @ cf, jac, hess

    @pytest.mark.parametrize("which", ["abc", "random"])
    def test_evaluators_match_per_derivative_sums(self, rng, which):
        if which == "abc":
            f = abc(1.0, 0.9, 1.1)
        else:
            f = df.random_real_field(2, rng, scale=0.8)
            assert np.count_nonzero(np.any(f.coeffs != 0.0, axis=-1)) == 124
        pts = rng.uniform(-10.0, 10.0, size=(40, 3))
        got = (df.eval_at_points(f, pts), df.eval_jacobian_at_points(f, pts), df.eval_hessian_at_points(f, pts))
        for out, ref in zip(got, self.per_derivative_sums(f, pts)):
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_zero_field_evaluates_to_zeros(self):
        pts = np.array([[0.1, 0.2, 0.3], [1.0, -2.0, 4.0]])
        f = df.zero_field(2)
        for fn, shape in ((df.eval_at_points, (2, 3)), (df.eval_jacobian_at_points, (2, 3, 3)),
                          (df.eval_hessian_at_points, (2, 3, 3, 3))):
            out = fn(f, pts)
            assert out.shape == shape and out.dtype == np.complex128
            assert not np.any(out)


class TestSnapshot:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        f = df.random_complex_field(2, rng, scale=0.9 ** 1.5)
        p = tmp_path / "field.snap"
        df.save_field(f, p)
        g = df.load_field(p)
        assert g.kind == f.kind
        assert g.scale == f.scale  # bit exact via hex float
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_header_is_text(self, tmp_path):
        p = tmp_path / "abc.snap"
        df.save_field(abc(), p)
        head = p.read_bytes()[:64].decode("ascii", errors="replace")
        assert head.startswith("spectral-field 1\nN 1\nkind real\nscale ")

    def test_payload_order_component_major(self, tmp_path):
        f = abc(1.0, 0.0, 0.0)
        p = tmp_path / "abc.snap"
        df.save_field(f, p)
        blob = p.read_bytes()
        raw = np.frombuffer(blob[blob.find(b"data\n") + 5:], dtype="<f8")
        # first block of 27 complex pairs is component 0 in lexicographic k order;
        # k = (0,0,-1) is the 13th lattice point (index 12)
        comp0 = raw[: 2 * 27].reshape(27, 2)
        assert_allclose(comp0[12], [0.0, 0.5])  # i/2

    @pytest.mark.parametrize("old, new", [(None, None), (b"scale 0x1.0000000000000p+0\n", b""),
                                          (b"N 1\n", b"N x\n"),
                                          (b"data\n" + bytes(8), b"data\n" + np.array(np.nan, "<f8").tobytes())],
                             ids=["missing-file", "missing-key", "non-integer-size", "nan-payload"])
    def test_unreadable_or_malformed_snapshot_names_the_path(self, tmp_path, old, new):
        p = tmp_path / "abc.snap"
        if old is not None:
            df.save_field(abc(), p)
            p.write_bytes(p.read_bytes().replace(old, new, 1))
        with pytest.raises(ConfigError, match="abc.snap"):
            df.load_field(p)

    def test_reject_garbage(self, tmp_path):
        p = tmp_path / "bad.snap"
        p.write_bytes(b"not a snapshot")
        with pytest.raises(df.ConfigError if hasattr(df, "ConfigError") else Exception):
            df.load_field(p)


class TestAlgebra:
    def test_add_aligns_truncations(self, rng):
        f = df.random_real_field(1, rng)
        g = df.random_real_field(2, rng)
        s = f + g
        assert s.truncation == 2
        assert_allclose(s.coeff((0, 0, 1)), f.coeff((0, 0, 1)) + g.coeff((0, 0, 1)))

    def test_conjugate_flips_modes(self, rng):
        f = df.random_complex_field(1, rng)
        g = f.conjugate()
        assert_allclose(g.coeff((0, 1, 0)), np.conj(f.coeff((0, -1, 0))))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_hermitize_averages_with_the_mirror(self, rng, kind):
        make = df.random_real_field if kind == "real" else df.random_complex_field
        f = make(2, rng, scale=0.8)
        assert df.is_hermitian(f) == (kind == "real")
        h = df.hermitize(f)
        assert h.kind == "real" and h.scale == 0.8
        assert np.array_equal(h.coeffs, 0.5 * (f.coeffs + f.conjugate().coeffs))
        assert df.is_hermitian(h)
        c = np.array(h.coeffs)
        c[3, 1, 2, 0] += 1e-6
        assert not df.is_hermitian(df.SpectralField(c, scale=0.8))

    def test_immutability(self):
        u = abc()
        with pytest.raises(ValueError):
            u.coeffs[0, 0, 0, 0] = 1.0
