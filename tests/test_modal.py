"""Shifted-operator assembly, eigenpairs, projectors, continuation."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import dynamo.fields as df
import dynamo.modal as dm
from dynamo import alpha, bloch, cli
from dynamo.errors import (
    BoundInapplicable,
    ConfigError,
    ContourTouchesSpectrum,
    EigsFailed,
    SolverFailure,
    TooLarge,
)
from support import (
    assemble_slope_generator,
    dense_eigenvalues,
    fft_residual,
    kernel_basis,
    leading_eigs_oracle,
    node_norms_oracle,
    operator_oracle,
    stencil_oracle,
    traced_peak,
)

DELTA0 = 0.05


def small_abc(d0=DELTA0):
    return df.make_abc(df.AbcParams(d0, d0, d0))


# the flow and shift that benchmark workload seed 1 draws
WORKLOAD_ABC = (0.3007092974820154, 0.32702782177955614, 0.27864957676317803)
WORKLOAD_J = np.array([-0.037485355963641796, 0.026042588041530132, 0.012839977657633369])


def workload_flow():
    return df.make_abc(df.AbcParams(*WORKLOAD_ABC))


def riesz_apply(p: dm.RieszProjector, f: df.SpectralField) -> df.SpectralField:
    """The projector on a field: ``apply_block`` on its coefficient vector at the operator's truncation."""
    n = p.spec.truncation
    return dm.vec_to_field(p.apply_block(dm.field_to_vec(df.resize(f, n))[:, None])[:, 0], n)


def count_factorizations(monkeypatch) -> dict:
    """Count factorizations from here on: dense LUs, sparse node LUs and orderings; refuse dense assembly.

    A node LU is an ``splu`` in the natural order, an ordering the one
    ``splu`` by minimum degree that a stencil structure makes on first use.
    The stencil caches are emptied first, so every structure used from here
    on makes its ordering inside the count.
    """
    counts = {"lu_factor": 0, "splu": 0, "ordering": 0}

    def lu_factor(*args, _orig=la.lu_factor, **kwargs):
        counts["lu_factor"] += 1
        return _orig(*args, **kwargs)

    def splu(*args, _orig=spla.splu, **kwargs):
        counts["splu" if kwargs.get("permc_spec") == "NATURAL" else "ordering"] += 1
        return _orig(*args, **kwargs)

    monkeypatch.setattr(la, "lu_factor", lu_factor)
    monkeypatch.setattr(spla, "splu", splu)
    dm._pattern.cache_clear()
    dm._structure.cache_clear()

    def refuse(_spec):
        raise AssertionError("contour path assembled a dense matrix")

    monkeypatch.setattr(dm, "assemble_dense", refuse)
    return counts


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    side = 2 * n + 1
    c = rng.standard_normal((side, side, side, 3)) + 1j * rng.standard_normal((side, side, side, 3))
    return df.SpectralField(c, kind="complex")


class TestApply:
    def test_zero_flow_single_mode_is_shifted_diffusion(self):
        j = np.array([0.2, -0.1, 0.4])
        spec = dm.ModalOperatorSpec(df.zero_field(1), j, 0.7, 2)
        c = np.zeros((5, 5, 5, 3), dtype=complex)
        k = (1, -2, 0)
        c[k[0] + 2, k[1] + 2, k[2] + 2] = [1.0, 2.0, -1.0j]
        h = df.SpectralField(c, kind="complex")
        out = dm.apply_modal(spec, h)
        factor = -0.7 * np.sum((np.array(k) + j) ** 2)
        assert (out - factor * h).l2() < 1e-14

    def test_constant_field_at_zero_shift(self):
        u = small_abc()
        spec = dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 1)
        v = df.resize(df.const_field([1.0, 0.0, 0.0]), 1)
        out = dm.apply_modal(spec, v)
        expected = df.curl(df.cross(u, v, cap=1))
        assert (out - expected).l2() < 1e-15

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_linearity(self, seed):
        u = small_abc()
        spec = dm.ModalOperatorSpec(u, np.array([0.1, 0.0, -0.3]), 0.5, 2)
        f, g = random_complex(2, seed), random_complex(2, seed + 1)
        z = 0.7 - 0.2j
        lhs = dm.apply_modal(spec, z * f + g)
        rhs = z * dm.apply_modal(spec, f) + dm.apply_modal(spec, g)
        assert (lhs - rhs).l2() < 1e-12 * max(lhs.l2(), 1.0)


class TestSpecValidation:
    @pytest.mark.parametrize("j", [[float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, -float("inf")]])
    def test_non_finite_shift_rejected(self, j):
        # an input error, not an eigensolver or contour failure
        with pytest.raises(ConfigError, match="shift"):
            dm.ModalOperatorSpec(small_abc(), j, 1.0, 1)

    def test_overflowing_flow_rejected_before_the_relative_checks(self, rng):
        # a mean-free flow that is not divergence-free; scaled until its norm
        # overflows, the relative checks would divide by inf and pass it
        flow = df.random_real_field(1, rng)
        with pytest.raises(ConfigError, match="divergence-free"):
            dm.ModalOperatorSpec(flow, np.zeros(3), 1.0, 1)
        with pytest.raises(ConfigError, match="too large"):
            dm.ModalOperatorSpec(1e200 * flow, np.zeros(3), 1.0, 1)


class TestDenseAssembly:
    def test_zero_flow_diagonal(self):
        j = np.array([0.3, 0.0, -0.2])
        spec = dm.ModalOperatorSpec(df.zero_field(1), j, 1.3, 1)
        a = dm.assemble_dense(spec)
        kappa = spec.shifted_wavevectors()
        expected = np.repeat((-1.3 * np.sum(kappa**2, axis=-1)).reshape(-1), 3)
        assert np.max(np.abs(a - np.diag(expected))) == 0.0

    def test_matches_matrix_free_apply(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.array([0.05, 0.02, 0.0]), 0.8, 2)
        a = dm.assemble_dense(spec)
        for seed in range(3):
            h = random_complex(2, seed)
            lhs = a @ dm.field_to_vec(h)
            rhs = dm.field_to_vec(dm.apply_modal(spec, h))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            dm.assemble_dense(dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 7))

    def test_spectral_shift_decomposition(self):
        # L(j, 1) = L(0) + |j| L1 - |j|^2 as matrices, hence on spectra
        u = small_abc()
        jhat = np.array([0.0, 0.6, 0.8])
        mag = 0.15
        a_j = dm.assemble_dense(dm.ModalOperatorSpec(u, mag * jhat, 1.0, 2))
        a_0 = dm.assemble_dense(dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 2))
        l_1 = assemble_slope_generator(u, jhat, 2)
        combined = a_0 + mag * l_1 - mag**2 * np.eye(a_0.shape[0])
        assert np.max(np.abs(a_j - combined)) < 1e-12
        w1 = la.eigvals(a_j)
        w2 = la.eigvals(combined)
        # set-distance via optimal matching; plain sorts mispair the
        # nearly degenerate diffusion clusters
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(w1[:, None] - w2[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert np.max(cost[rows, cols]) < 1e-10

    def test_vec_field_roundtrip(self):
        h = random_complex(2, 9)
        assert (dm.vec_to_field(dm.field_to_vec(h), 2) - h).l2() == 0.0


def assert_same_csr(got, want):
    """Bit identity of two CSR matrices: values, index arrays and their dtypes."""
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def workload_like_specs(seed):
    """Workload-like ABC flow at shifts 0, a modal j, (0, 0.1, 0) and an axis band centre; N = 1..3, eps 1 and 0.9."""
    rng = np.random.default_rng(seed)
    u = df.make_abc(df.AbcParams(*rng.uniform(0.27, 0.33, 3)))
    j = rng.standard_normal(3)
    j *= rng.uniform(0.035, 0.05) / np.linalg.norm(j)
    centre = np.zeros(3)
    centre[rng.integers(3)] = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.12)
    for n in (1, 2, 3):
        for shift in (np.zeros(3), j, np.array([0.0, 0.1, 0.0]), centre):
            for eps in (1.0, 0.9):
                yield dm.ModalOperatorSpec(u, shift, eps, n)


class TestStencilPattern:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_operator_bit_identical_to_oracle(self, seed):
        for spec in workload_like_specs(seed):
            assert_same_csr(dm._operator(spec), operator_oracle(spec))

    def test_wide_support_and_degenerate_flows(self):
        rng = np.random.default_rng(5)
        wide = df.random_real_field(2, rng, div_free=True, amplitude=0.2)
        # a mean-free flow may keep a tiny U(0), whose block shares the diagonal
        c = np.array(small_abc(0.3).coeffs)
        c[1, 1, 1] = [1e-14, 0.0, 0.0]
        for flow in (wide, df.zero_field(1), df.SpectralField(c)):
            for n in (2, 3):
                for j in (np.zeros(3), np.array([0.03, -0.02, 0.05])):
                    spec = dm.ModalOperatorSpec(flow, j, 0.7, n)
                    assert_same_csr(dm._operator(spec), operator_oracle(spec))
        # one left matrix for every mode, as the slope generator passes it
        left = df._cross_matrix(1j * np.array([0.0, 0.6, 0.8]))
        diag = rng.standard_normal(3 * 5**3) + 0j
        pattern = dm._pattern(wide, 2)
        assert_same_csr(pattern.assemble(pattern.entries(left, diag)), stencil_oracle(wide, 2, left, diag))

    def test_repeated_fills_with_no_dropped_entry_and_a_tiny_mean(self):
        # no zero flow component and a shift with no zero component: every
        # entry is kept, and U(0) makes the diagonal slots duplicates
        c = np.array(df.random_real_field(2, np.random.default_rng(8), div_free=True, amplitude=0.2).coeffs)
        c[np.any(c == 0, axis=-1)] = 0.0  # the Leray projection zeroes a component of every axis mode
        c[2, 2, 2] = 1e-13 * np.ones(3)
        flow = df.SpectralField(c)
        modes = c[np.any(c != 0, axis=-1)]
        assert len(modes) > 60 and np.all(modes != 0)
        dm._pattern.cache_clear()
        for j in (np.array([0.03, -0.02, 0.05]), np.array([0.03, -0.02, 0.05]), np.array([-0.07, 0.04, 0.01])):
            spec = dm.ModalOperatorSpec(flow, j, 0.7, 2)
            got = dm._operator(spec)
            assert_same_csr(got, operator_oracle(spec))
            structure = dm._pattern(flow, 2).structure
            assert not np.shares_memory(got.indices, structure.indices)
            assert not np.shares_memory(got.indptr, structure.indptr)
        dm._pattern.cache_clear()

    def test_band_nodes_share_one_pattern(self, monkeypatch):
        built = []

        class Counted(dm._Pattern):
            def __init__(self, flow, n):
                built.append(n)
                super().__init__(flow, n)

        monkeypatch.setattr(dm, "_Pattern", Counted)
        dm._pattern.cache_clear()
        nodes, _ = bloch.gauss_legendre_box(np.array([0.11, 0.0, 0.0]), 0.1, 4)
        bloch.prepare_band_pairs(small_abc(0.3), nodes, 1.0, 1)
        dm._pattern.cache_clear()
        assert len(nodes) == 64
        assert built == [1]


def mmd_factor(spec: dm.ModalOperatorSpec, mu: complex) -> spla.SuperLU:
    """SuperLU's own minimum-degree LU of mu I - L, shifted by sparse arithmetic: the structure order's reference."""
    return spla.splu(sp.csc_array(mu * sp.eye_array(spec.dim, format="csr") - operator_oracle(spec)),
                     permc_spec="MMD_AT_PLUS_A")


def permuted_shift(spec: dm.ModalOperatorSpec, mu: complex, perm: np.ndarray) -> np.ndarray:
    """Dense (mu I - L)[perm][:, perm], with L from the mode-by-mode oracle."""
    return (mu * sp.eye_array(spec.dim, format="csr") - operator_oracle(spec)).toarray()[np.ix_(perm, perm)]


class TestStructureLayout:
    """Each node writes -L into the layout of its structure, adds mu and factors in the structure's order."""

    MU = 0.3 + 0.2j

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fill_matches_superlus_own_ordering(self, n):
        spec = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 1.0, n)
        node = dm._Resolvent(spec).factor(self.MU)[0].superlu
        own = mmd_factor(spec, self.MU)
        assert node.L.nnz + node.U.nnz == own.L.nnz + own.U.nnz
        assert np.array_equal(node.perm_c, np.arange(spec.dim))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solves_match_superlus_own_ordering(self, n):
        spec = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 1.0, n)
        node = dm._Resolvent(spec).factor(self.MU)[0]
        own = mmd_factor(spec, self.MU)
        rng = np.random.default_rng(n)
        block = rng.standard_normal((spec.dim, 3)) + 1j * rng.standard_normal((spec.dim, 3))
        for trans in ("N", "H"):
            want = own.solve(block, trans)
            assert np.max(np.abs(node.solve(block, trans) - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(node.solve(block[:, 0], trans) - want[:, 0])) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_values_are_mu_minus_the_stencil(self, n):
        spec = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 1.0, n)
        self.assert_shifted_values(spec)

    def test_shifted_values_with_a_tiny_mean_and_a_zero_shift_component(self):
        c = np.array(small_abc(0.3).coeffs)
        c[1, 1, 1] = [1e-14, -2e-14, 0.0]  # U(0) blocks share the diagonal slots
        for flow in (df.SpectralField(c), workload_flow()):
            for j in (np.array([0.0, 0.04, -0.02]), np.zeros(3), WORKLOAD_J):
                kept = self.assert_shifted_values(dm.ModalOperatorSpec(flow, j, 0.9, 2))
                if not np.all(j):
                    # the shift zeroes entries that fill drops; the layout keeps them as explicit zeros
                    assert kept > 0

    def assert_shifted_values(self, spec) -> int:
        """mu I - L entry for entry in the layout; returns the number of slots holding an exact zero."""
        res = dm._Resolvent(spec)
        layout = res._layout
        data = res.factor(self.MU)[1]
        assert data.size == layout.indices.size == layout.source.size
        got = sp.csc_array((data, layout.indices, layout.indptr), shape=(spec.dim, spec.dim)).toarray()
        assert np.array_equal(got, permuted_shift(spec, self.MU, layout.perm))
        return int(np.sum(data == 0))

    def test_exactly_singular_shift_raises(self):
        # at j = 0 the stencil's rows of the mean mode are zero, held as explicit zeros
        spec = dm.ModalOperatorSpec(workload_flow(), np.zeros(3), 1.0, 2)
        res = dm._Resolvent(spec)
        for mu in (0.0, 0j):
            with pytest.raises(ContourTouchesSpectrum, match="singular"):
                res.factor(mu)
            with pytest.raises(ContourTouchesSpectrum, match="singular"):
                res.lu(mu)
        with pytest.raises(ContourTouchesSpectrum, match="singular"):
            dm._Resolvent(dm.ModalOperatorSpec(df.zero_field(1), np.zeros(3), 1.0, 1)).factor(-1.0)

    def test_one_ordering_per_structure(self, monkeypatch):
        factorizations = count_factorizations(monkeypatch)
        other = df.make_abc(df.AbcParams(0.9, 1.1, 0.5))  # the same six modes, other amplitudes
        for n in (1, 2):
            for flow in (workload_flow(), other, workload_flow()):
                for j, eps in ((WORKLOAD_J, 1.0), (np.zeros(3), 0.9)):
                    dm._Resolvent(dm.ModalOperatorSpec(flow, j, eps, n)).factor(self.MU)
            assert dm._pattern(other, n).structure is dm._pattern(workload_flow(), n).structure
        assert factorizations == {"lu_factor": 0, "splu": 12, "ordering": 2}
        assert dm._structure.cache_info().currsize == 2


class TestLeadingEigs:
    def test_zero_flow_zero_shift_kernel_of_constants(self):
        spec = dm.ModalOperatorSpec(df.zero_field(1), np.zeros(3), 1.0, 1)
        top = dm.leading_eigs(spec, count=4)
        assert all(abs(t.p) < 1e-14 for t in top[:3])
        assert top[3].p.real <= -1.0 + 1e-12

    def test_small_abc_kernel_dimension(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 2)
        top = dm.leading_eigs(spec, count=5)
        assert all(abs(t.p) < 1e-8 for t in top[:3])
        assert top[3].p.real <= -1.0 + 5 * DELTA0

    def test_residuals_and_divergence(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        spec = dm.ModalOperatorSpec(u, j, 1.0, 2)
        top = dm.leading_eigs(spec, count=3)
        assert top[0].p.real > 0.0
        for t in top:
            assert t.residual < 1e-10
        # positive-growth eigenpairs are exactly solenoidal in the shifted sense
        assert top[0].modal_div_residual < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1.0, 0.9])
    def test_leading_six_match_dense_oracle(self, n, eps):
        # workload-like ABC flows: amplitudes in [0.27, 0.33], |j| in [0.035, 0.05]
        rng = np.random.default_rng(100 * n + round(10 * eps))
        u = df.make_abc(df.AbcParams(*rng.uniform(0.27, 0.33, 3)))
        j = rng.standard_normal(3)
        j *= rng.uniform(0.035, 0.05) / np.linalg.norm(j)
        spec = dm.ModalOperatorSpec(u, j, eps, n)
        top = dm.leading_eigs(spec, count=6)
        oracle = dense_eigenvalues(spec)[:6]
        assert np.max(np.abs(np.array([t.p for t in top]) - oracle)) <= 1e-10
        for t in top:
            assert fft_residual(spec, t.field, t.p) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_matches_fft_recomputation(self, n):
        # the stencil residual and the FFT one are the same Galerkin quantity
        rng = np.random.default_rng(10 * n)
        u = df.make_abc(df.AbcParams(*rng.uniform(0.27, 0.33, 3)))
        j = rng.standard_normal(3)
        j *= rng.uniform(0.035, 0.05) / np.linalg.norm(j)
        spec = dm.ModalOperatorSpec(u, j, 1.0, n)
        for t in dm.leading_eigs(spec, count=6):
            assert abs(t.residual - fft_residual(spec, t.field, t.p)) <= 1e-15
        res = dm.continue_in_eps(u, j, dm.leading_eigs(spec, count=1)[0], 0.9, n)
        for eps, pair in res.path[1:]:
            step = dm.ModalOperatorSpec(u, j, eps, n)
            assert abs(pair.residual - fft_residual(step, pair.field, pair.p)) <= 1e-15

    def test_krylov_never_builds_a_dense_matrix(self, monkeypatch):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 2)
        oracle = dense_eigenvalues(spec)[:3]

        def refuse(_spec):
            raise AssertionError("eigensolver assembled a dense matrix")

        monkeypatch.setattr(dm, "assemble_dense", refuse)
        top = dm.leading_eigs(spec, count=3, sigma=0.05)
        for p, t in zip(oracle, top):
            assert abs(p - t.p) <= 1e-10
            assert fft_residual(spec, t.field, t.p) <= 1e-10

    def test_bit_identical_to_a_direct_shift(self):
        # -(sigma I - L)^-1 on the resolvent's factor hands Arnoldi the very
        # vectors of an LU of L - sigma I shifted by sparse arithmetic, also
        # with sigma on a computed eigenvalue, as continuation puts it
        for spec in workload_like_specs(1):
            top = dm.leading_eigs(spec, count=6)
            for sigma, got in ((None, top), (top[0].p, dm.leading_eigs(spec, count=2, sigma=top[0].p))):
                want = leading_eigs_oracle(spec, count=len(got), sigma=sigma)
                assert np.array_equal([t.p for t in got], [t.p for t in want])
                for g, w in zip(got, want):
                    assert np.array_equal(g.field.coeffs, w.field.coeffs)

    def test_repeatable_through_an_arpack_restart(self):
        # at j = 0 the Krylov space of this N = 1 operator becomes invariant
        # and ARPACK draws a new start vector: from the seed, not OS entropy
        spec = next(workload_like_specs(2))
        first, again = dm.leading_eigs(spec, count=6), dm.leading_eigs(spec, count=6)
        assert np.array_equal([t.p for t in first], [t.p for t in again])
        for a, b in zip(first, again):
            assert np.array_equal(a.field.coeffs, b.field.coeffs)

    def test_exactly_singular_shift_raises(self):
        # without a flow L is diagonal, with -1 on it exactly
        spec = dm.ModalOperatorSpec(df.zero_field(1), np.zeros(3), 1.0, 1)
        with pytest.raises(EigsFailed):
            dm.leading_eigs(spec, count=2, sigma=-1.0)

    def test_conjugation_symmetry(self):
        u = small_abc()
        j = 0.03 * np.array([1.0, 1.0, 0.5]) / np.linalg.norm([1.0, 1.0, 0.5])
        tp = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=1)[0]
        tm = dm.leading_eigs(dm.ModalOperatorSpec(u, -j, 1.0, 2), count=1)[0]
        assert abs(tm.p - np.conj(tp.p)) < 1e-10
        assert (tm.field - tp.field.conjugate()).l2() < 1e-6

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, complex(0.0, np.inf), complex(0.1, np.nan)])
    def test_non_finite_shift_rejected(self, sigma):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 1)
        with pytest.raises(ConfigError):
            dm.leading_eigs(spec, count=2, sigma=sigma)

    def test_count_above_dim_minus_two_rejected(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 1)
        assert len(dm.leading_eigs(spec, count=spec.dim - 2)) == spec.dim - 2
        for count in (0, spec.dim - 1):
            with pytest.raises(ConfigError):
                dm.leading_eigs(spec, count=count)


def box_specs(flow, n, eps=1.0, per_axis=2):
    """The operators of a band box about an axis centre: per_axis^3 Gauss-Legendre nodes."""
    nodes, _ = bloch.gauss_legendre_box(np.array([0.11, 0.0, 0.0]), 0.1, per_axis)
    return [dm.ModalOperatorSpec(flow, j, eps, n) for j in nodes]


def record_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records the arguments of every call."""
    calls = []

    def recorded(*args, _orig=getattr(owner, name), **kwargs):
        calls.append(args)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def as_node(pairs):
    """``leading_eigs``' pairs as a box node: the leading pair and every eigenvalue."""
    return pairs[0], np.array([q.p for q in pairs])


def assert_same_node(got, want):
    (g, g_values), (w, w_values) = got, want
    assert np.array_equal(g_values, w_values)
    assert g.p == w.p
    assert np.array_equal(g.field.coeffs, w.field.coeffs)
    assert g.residual == w.residual


class TestLeadingEigsBox:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_arpack_at_every_node(self, monkeypatch, n):
        rng = np.random.default_rng(40 + n)
        flows = (workload_flow(), df.random_real_field(1, rng, div_free=True, amplitude=0.3))
        for flow, eps, count in ((flows[0], 1.0, 2), (flows[1], 0.9, 2), (flows[0], 0.9, 3)):
            specs = box_specs(flow, n, eps)
            want = [dm.leading_eigs(spec, count=count) for spec in specs]
            fallbacks = record_calls(monkeypatch, dm, "leading_eigs")
            got = dm.leading_eigs_box(specs, count=count)
            monkeypatch.undo()
            assert fallbacks == []
            for (g, g_values), w_node in zip(got, want, strict=True):
                assert len(g_values) == len(w_node) == count
                for g_p, w in zip(g_values, w_node):
                    assert abs(g_p - w.p) <= 1e-14 * max(1.0, abs(w.p))
                assert g.p == g_values[0]
                assert np.max(np.abs(g.field.coeffs - w_node[0].field.coeffs)) <= 1e-12
                assert g.residual <= 1e-12

    def test_invariant_krylov_space_falls_back_to_arpack(self, monkeypatch):
        # without a flow L is diagonal; at j = 0 and N = 1 it has the four
        # eigenvalues -|k|^2, so the Krylov space is invariant after four steps,
        # while at the other shifts, with three distinct components, the 27
        # values -|k + j|^2 differ
        shifts = (np.array([0.11, 0.023, -0.047]), np.zeros(3), np.array([0.07, -0.031, 0.013]))
        specs = [dm.ModalOperatorSpec(df.zero_field(1), j, 1.0, 1) for j in shifts]
        fallbacks = record_calls(monkeypatch, dm, "leading_eigs")
        got = dm.leading_eigs_box(specs)
        assert [args[0] for args in fallbacks] == [specs[1]]
        monkeypatch.undo()
        assert_same_node(got[1], as_node(dm.leading_eigs(specs[1], count=2)))

    def test_unconverged_ritz_values_fall_back_to_arpack(self, monkeypatch):
        specs = box_specs(workload_flow(), 1)
        arnoldi = dm._arnoldi_box
        monkeypatch.setattr(dm, "_arnoldi_box", lambda specs, count, sigmas, v0, length:
                            arnoldi(specs, count, sigmas, v0, 5))
        fallbacks = record_calls(monkeypatch, dm, "leading_eigs")
        got = dm.leading_eigs_box(specs)
        assert [args[0] for args in fallbacks] == specs
        monkeypatch.undo()
        for spec, node in zip(specs, got, strict=True):
            assert_same_node(node, as_node(dm.leading_eigs(spec, count=2)))

    def test_singular_block_falls_back_node_by_node(self, monkeypatch):
        # without a flow L is diagonal, -1 at j = 0 but nowhere at j = (0.1, 0, 0)
        regular, singular = (dm.ModalOperatorSpec(df.zero_field(1), j, 1.0, 1)
                             for j in (np.array([0.1, 0.0, 0.0]), np.zeros(3)))
        monkeypatch.setattr(dm, "_shift", lambda spec, count, sigma: -1.0)
        fallbacks = record_calls(monkeypatch, dm, "leading_eigs")
        with pytest.raises(EigsFailed):
            dm.leading_eigs_box([regular, singular])
        assert [args[0] for args in fallbacks] == [regular, singular]

    def test_repeatable_and_independent_of_chunking(self, monkeypatch):
        specs = box_specs(workload_flow(), 2)
        first, again = dm.leading_eigs_box(specs), dm.leading_eigs_box(specs)
        monkeypatch.setattr(dm, "BOX_BYTES", 1)  # one node per chunk
        single = dm.leading_eigs_box(specs)
        for a, b, c in zip(first, again, single, strict=True):
            assert_same_node(a, b)
            assert_same_node(a, c)

    def test_band_box_is_one_factorization_and_no_arpack(self, monkeypatch):
        nodes, _ = bloch.gauss_legendre_box(np.array([0.11, 0.0, 0.0]), 0.1, 4)
        factorizations = count_factorizations(monkeypatch)
        fallbacks = record_calls(monkeypatch, dm, "leading_eigs")
        made = record_calls(monkeypatch, dm, "_make_pair")
        assert len(bloch.prepare_band_pairs(workload_flow(), nodes, 1.0, 1)) == 64
        assert fallbacks == []
        assert len(made) == 64  # the leading pair only
        assert factorizations == {"lu_factor": 0, "splu": 1, "ordering": 1}

    def test_default_box_memory_is_chunked(self):
        # the CLI's default box: N = 2 and 125 nodes, in chunks of 16; the
        # Krylov bases of all 125 nodes alone would take 15 MiB
        nodes, _ = bloch.gauss_legendre_box(np.array([0.11, 0.0, 0.0]), 0.1, 5)
        bloch.prepare_band_pairs(workload_flow(), nodes[:1], 1.0, 2)
        pairs, peak = traced_peak(lambda: bloch.prepare_band_pairs(workload_flow(), nodes, 1.0, 2))
        assert len(pairs) == 125
        assert peak <= 8 * 2**20

    def test_rejects_what_leading_eigs_rejects(self):
        specs = box_specs(small_abc(0.3), 1)
        assert dm.leading_eigs_box([]) == []
        for count in (0, specs[0].dim - 1):
            with pytest.raises(ConfigError):
                dm.leading_eigs_box(specs, count=count)
        with pytest.raises(ConfigError):
            dm.leading_eigs_box([specs[0], dm.ModalOperatorSpec(small_abc(0.3), np.zeros(3), 1.0, 2)])


class TestKernelBasis:
    def test_zero_flow_constants(self):
        basis = kernel_basis(df.zero_field(1), 1)
        for axis, b in enumerate(basis):
            e = np.zeros(3)
            e[axis] = 1.0
            assert (b - df.resize(df.const_field(e), 1)).l2() < 1e-15

    def test_small_abc_kernel(self):
        u = small_abc()
        basis = kernel_basis(u, 2, tol=1e-12)
        spec = dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 2)
        for axis, b in enumerate(basis):
            e = np.zeros(3)
            e[axis] = 1.0
            assert np.allclose(df.mean_vector(b), e, atol=1e-14)
            assert dm.apply_modal(spec, b).l2() <= 1e-11

    def test_semisimplicity_of_the_zero_cluster(self):
        a = dm.assemble_dense(dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 2))
        sv = la.svdvals(a)
        sv2 = la.svdvals(a @ a)
        assert np.sum(sv < 1e-6 * sv[0]) == 3
        assert np.sum(sv2 < 1e-6 * sv2[0]) == 3


class TestRieszProjector:
    def test_zero_flow_rank_three_identity_on_constants(self):
        spec = dm.ModalOperatorSpec(df.zero_field(1), np.zeros(3), 1.0, 1)
        p = dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16))
        v = df.resize(df.const_field([0.3, -1.0, 2.0]), 1)
        assert (riesz_apply(p, v) - v).l2() < 1e-10

    def test_idempotency_and_mean_preservation(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 2)
        p = dm.RieszProjector(spec, dm.Contour(0.0, 0.4, 16))
        assert p.idempotency_defect <= 1e-8
        rng = np.random.default_rng(2)
        f = df.random_real_field(2, rng, mean_free=False)
        pf = riesz_apply(p, f)
        assert np.allclose(df.mean_vector(pf), df.mean_vector(f), atol=1e-10)
        assert (riesz_apply(p, pf) - pf).l2() <= 1e-8 * f.l2()

    def test_commutes_with_operator(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 2)
        p = dm.RieszProjector(spec, dm.Contour(0.0, 0.4, 16))
        rng = np.random.default_rng(3)
        f = df.random_real_field(2, rng, mean_free=False)
        d = riesz_apply(p, dm.apply_modal(spec, f)) - dm.apply_modal(spec, riesz_apply(p, f))
        assert d.l2() <= 1e-6 * f.l2()

    def test_contour_through_spectrum_detected(self):
        spec = dm.ModalOperatorSpec(df.zero_field(1), np.zeros(3), 1.0, 1)
        # quadrature node at angle pi lands exactly on the eigenvalue -1
        with pytest.raises(ContourTouchesSpectrum):
            dm.RieszProjector(spec, dm.Contour(0.0, 1.0, 16))

    def test_node_next_to_an_eigenvalue_detected(self):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 1)
        lam = dm.leading_eigs(spec, count=1)[0].p
        # the node at angle 0 sits 1e-15 from the eigenvalue: no exact zero
        # pivot, so only the condition estimate can catch it
        with pytest.raises(ContourTouchesSpectrum):
            dm.RieszProjector(spec, dm.Contour(lam - 0.1 + 1e-15, 0.1, 16))

    def test_nan_condition_estimate_detected(self, monkeypatch):
        monkeypatch.setattr(dm, "_inv_norm1", lambda lu, dim: math.nan)
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.zeros(3), 1.0, 1)
        with pytest.raises(ContourTouchesSpectrum):
            dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16))

    def test_nan_idempotency_defect_raises(self, monkeypatch):
        sums = []

        def contour_sum(res, contour, block, trans="N"):
            sums.append(contour.nodes)
            return np.full_like(block, np.nan)

        monkeypatch.setattr(dm, "_contour_sum", contour_sum)
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.zeros(3), 1.0, 1)
        with pytest.raises(SolverFailure):
            dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16))
        # the NaN stops the doubling at the first node count: once and twice
        assert sums == [16, 16]

    def test_contour_sum_matches_dense_quadrature(self):
        contour = dm.Contour(0.1 + 0.05j, 0.5, 16)
        mus, phases = contour.points()
        rng = np.random.default_rng(5)
        for n in (1, 2):
            spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 0.9, n)
            block = rng.standard_normal((spec.dim, 3)) + 1j * rng.standard_normal((spec.dim, 3))
            a = dm.assemble_dense(spec)
            eye = np.eye(spec.dim)
            dense = sum(ph * la.solve(mu * eye - a, block) for mu, ph in zip(mus, phases))
            dense *= contour.radius / contour.nodes
            sparse = dm._contour_sum(dm._Resolvent(spec), contour, block)
            assert np.max(np.abs(sparse - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))

    def test_condition_estimate_matches_lapack(self):
        for n in (1, 2):
            spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, n)
            res = dm._Resolvent(spec)
            a = dm.assemble_dense(spec)
            for mu in (0.5, 0.3 + 0.4j, -0.2j):
                m = mu * np.eye(spec.dim) - a
                anorm = np.linalg.norm(m, 1)
                rcond = la.lapack.zgecon(la.lu_factor(m)[0], anorm)[0]
                estimate = 1.0 / (anorm * dm._inv_norm1(res.lu(mu), spec.dim))
                assert estimate == pytest.approx(rcond, rel=1e-12)

    def test_doubling_factors_each_node_once(self, monkeypatch):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.zeros(3), 1.0, 2)
        factorizations = count_factorizations(monkeypatch)
        p = dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16))
        assert p.contour.nodes == 32
        assert p.idempotency_defect <= 1e-8
        # the 16 nodes are the even nodes of the 32: 32 distinct factors,
        # where factoring per contour sum would take 16 x 2 + 32 x 2 = 96,
        # all in the one order of the stencil's structure
        assert factorizations == {"lu_factor": 0, "splu": 32, "ordering": 1}

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigError):
            dm.Contour(0.0, 0.5, 4)

    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ConfigError):
            dm.Contour(center, 0.5, 16)

    @pytest.mark.parametrize("nodes", [8.5, 16.0, np.nan, "16"])
    def test_non_integral_nodes_rejected(self, nodes):
        with pytest.raises(ConfigError):
            dm.Contour(0.0, 0.5, nodes)

    def test_integer_nodes_of_any_integer_type(self):
        assert dm.Contour(0.0, 0.5, np.int64(16)).points()[0].size == 16


def test_parity_matches_the_inversion_count():
    # the parity of a permutation is that of its number of inversions
    rng = np.random.default_rng(17)
    perms = [np.arange(n) for n in (0, 1, 81)] + [rng.permutation(n) for n in (2, 3, 10, 81, 200) for _ in range(4)]
    perms.append(np.array([1, 0, *range(2, 40)]))
    for perm in perms:
        inversions = sum(int(np.sum(perm[i + 1:] < perm[i])) for i in range(len(perm)))
        assert dm._parity(perm) == inversions % 2


class TestCount:
    @pytest.mark.parametrize("flow, j, contour, want", [
        (df.zero_field(1), (0.0, 0.0, 0.0), (0.0, 0.5), 3),
        (small_abc(0.3), (0.0, 0.0, 0.0), (0.0, 0.5), 3),
        (small_abc(0.3), (0.0, 0.0, 0.045), (0.0, 0.5), 3),
        (small_abc(0.3), (0.0, 0.0, 0.045), (-1.0, 0.3), 17),
    ])
    def test_matches_dense_eigenvalues(self, flow, j, contour, want):
        spec = dm.ModalOperatorSpec(flow, np.array(j), 1.0, 2)
        center, radius = contour
        lam = dense_eigenvalues(spec)
        assert np.sum(np.abs(lam - center) < radius) == want
        assert dm._count(dm._Resolvent(spec), dm.Contour(center, radius, 8)) == want

    def test_unresolved_phase_raises(self, monkeypatch):
        # the (-1, 0.3) circle needs 16 nodes; capped at 8 the count refuses
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 2)
        res = dm._Resolvent(spec)
        monkeypatch.setattr(dm, "MAX_NODES", 8)
        with pytest.raises(SolverFailure):
            dm._count(res, dm.Contour(-1.0, 0.3, 8))
        monkeypatch.setattr(dm, "MAX_NODES", 16)
        assert dm._count(res, dm.Contour(-1.0, 0.3, 8)) == 17

    def test_nan_phase_raises_at_once(self, monkeypatch):
        reads = []

        def phase(self, mu):
            reads.append(mu)
            return math.nan

        monkeypatch.setattr(dm._Resolvent, "phase", phase)
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 1)
        contour = dm.Contour(-1.0, 0.3, 8)
        with pytest.raises(SolverFailure, match="nan"):
            dm._count(dm._Resolvent(spec), contour)
        assert len(reads) == contour.nodes

    def test_contour_next_to_an_eigenvalue_raises(self):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 1)
        lam = dense_eigenvalues(spec)[0]
        with pytest.raises(ContourTouchesSpectrum):
            dm._count(dm._Resolvent(spec), dm.Contour(lam - 0.1 + 1e-15, 0.1, 16))

    def test_phase_read_once_and_factor_released(self, monkeypatch):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 2)
        res = dm._Resolvent(spec)
        factorizations = count_factorizations(monkeypatch)
        # the (-1, 0.3) circle doubles from 8 to 16 nodes
        assert dm._count(res, dm.Contour(-1.0, 0.3, 8)) == 17
        # the resolvent was made before counting, with its structure's order
        assert factorizations == {"lu_factor": 0, "splu": 16, "ordering": 0}
        assert not res._lus
        assert dm._count(res, dm.Contour(-1.0, 0.3, 8)) == 17
        assert dm._count(res, dm.Contour(-1.0, 0.3, 16)) == 17
        assert factorizations == {"lu_factor": 0, "splu": 16, "ordering": 0}

    def test_phase_matches_the_dense_determinant(self):
        spec = dm.ModalOperatorSpec(small_abc(0.3), np.array([0.0, 0.0, 0.045]), 1.0, 1)
        a = dm.assemble_dense(spec)
        d = np.diag(a)
        res = dm._Resolvent(spec)
        for mu in (0.5, 0.3 + 0.4j, -0.2j):
            sign, _ = np.linalg.slogdet(mu * np.eye(spec.dim) - a)
            want = np.angle(sign) - np.sum(np.angle(mu - d))
            assert np.angle(np.exp(1j * (res.phase(mu) - want))) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.xfail(strict=True, reason="an eigenvalue on a diagonal entry of L near the circle "
                                           "folds its 2 pi phase sweep into small steps")
    @pytest.mark.parametrize("radius, dense", [(3.144984, 80), (3.006043, 74)])
    def test_coincident_diagonal_entry_near_the_circle(self, radius, dense):
        spec = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 1.0, 1)
        assert np.sum(np.abs(dense_eigenvalues(spec)) < radius) == dense
        assert dm._count(dm._Resolvent(spec), dm.Contour(0.0, radius, 8)) == dense


def test_production_paths_use_no_dense_eigensolver(monkeypatch, tmp_path):
    import scipy.linalg

    def refuse(owner, name, allowed=lambda a: False):
        orig = getattr(owner, name)

        def call(a, *args, **kwargs):
            if not allowed(a):
                raise AssertionError(f"{name} called on {type(a).__name__}")
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    def hessenberg_stack(a):
        # the band box's Ritz values: m x m Hessenberg matrices, m below every dim used here
        a = np.asarray(a)
        return a.ndim == 3 and a.shape[1] == a.shape[2] < 81 and not np.any(np.tril(a, -2))

    # the 3 x 3 alpha matrix is the one dense eigenproblem of an operator allowed
    refuse(scipy.linalg, "eig", allowed=lambda a: np.shape(a) == (3, 3))
    refuse(scipy.linalg, "eigvals")
    refuse(np.linalg, "eig", allowed=lambda a: np.shape(a) == (3, 3) or hessenberg_stack(a))
    refuse(np.linalg, "eigvals")
    # no dense Hermitian solve of operator size (dim >= 81) either; the norm
    # screen's k x k tridiagonal, k = SCREEN_STEPS, is the one allowed
    below_operator_size = lambda a: np.ndim(a) >= 1 and np.shape(a)[-1] < 81
    for owner in (np.linalg, scipy.linalg):
        refuse(owner, "eigh", allowed=below_operator_size)
        refuse(owner, "eigvalsh", allowed=below_operator_size)
    refuse(scipy.linalg, "eigvalsh_tridiagonal", allowed=below_operator_size)
    refuse(dm, "assemble_dense")
    u = small_abc(0.3)
    j = np.array([0.0, 0.0, 0.045])
    dm.first_order_check(small_abc(), [0, 0, 1], [0.01, 0.005], truncation=1)
    bloch.prepare_band_pairs(u, [j, 1.1 * j], 1.0, 1)
    start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 1), count=1)[0]
    assert dm.continue_in_eps(u, j, start, 0.95, 1).window == pytest.approx(0.05)
    comp = dm.projector_distance_bound(
        dm.ModalOperatorSpec(u, j, 1.0, 1), dm.ModalOperatorSpec(u, j, 0.95, 1), dm.Contour(0.0, 0.5, 8)
    )
    assert comp.rank0 == comp.rank1 == 3
    dm.RieszProjector(dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 1), dm.Contour(0.0, 0.5, 16))
    assert cli.main(["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045",
                     "--truncation", "1", "--out", str(tmp_path / "eigs")]) == 0


def test_production_paths_never_call_the_fft_apply(monkeypatch, tmp_path):
    # the stencil is the one implementation of L: residuals included
    def refuse(*args, **kwargs):
        raise AssertionError("a production path called the FFT reference apply_modal")

    monkeypatch.setattr(dm, "apply_modal", refuse)
    u = small_abc(0.3)
    j = np.array([0.0, 0.0, 0.045])
    start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=3)[0]
    assert dm.continue_in_eps(u, j, start, 0.95, 2).window == pytest.approx(0.05)
    assert len(bloch.prepare_band_pairs(u, [j, 1.1 * j], 1.0, 1)) == 2
    assert alpha.solve_cell_problem(u, [1, 0, 0], truncation=2).residual < 1e-11
    alpha.alpha_matrix(small_abc(), [0, 0, 1], truncation=2)
    dm.first_order_check(small_abc(), [0, 0, 1], [0.01, 0.005], truncation=1)
    assert cli.main(["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045",
                     "--truncation", "2", "--out", str(tmp_path / "eigs")]) == 0
    assert cli.main(["alpha", "scan", "--abc", "1,1,1", "--delta0", "0.05", "--directions", "axes",
                     "--truncation", "2", "--out", str(tmp_path / "scan")]) == 0


class TestFirstOrderCheck:
    def test_zero_flow_remainder_is_exactly_quadratic(self):
        rep = dm.first_order_check(df.zero_field(1), [0, 0, 1], [0.02, 0.01, 0.005], truncation=1)
        assert np.allclose(rep.predictions, 0.0)
        for m, r in zip(rep.magnitudes, rep.remainders):
            assert np.allclose(r, m**2, rtol=1e-10)
        assert rep.slope == pytest.approx(2.0, abs=1e-6)

    def test_small_abc_slope(self):
        rep = dm.first_order_check(small_abc(), [0, 0, 1], [0.01, 0.005, 0.0025], truncation=2)
        assert rep.slope >= 1.8
        assert np.all(rep.per_branch_slopes >= 1.8)

    def test_three_branches_collapse_to_zero(self):
        rep = dm.first_order_check(small_abc(), [1, 0, 0], [0.01, 0.005, 0.0025], truncation=2)
        mu_max = np.max(np.abs(rep.predictions))
        for m, row in zip(rep.magnitudes, rep.eigenvalues):
            assert np.max(np.abs(row)) <= 2 * (mu_max * m + m**2)

    def test_nondecreasing_magnitudes_rejected(self):
        for mags in ([0.005, 0.01], [0.01]):
            with pytest.raises(ConfigError):
                dm.first_order_check(small_abc(), [0, 0, 1], mags, truncation=1)

    def test_branch_matching_is_the_optimal_assignment(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(12)
        for _ in range(200):
            cost = rng.random((3, 3))
            rows, cols = linear_sum_assignment(cost)
            assert dm._min_cost_permutation(cost) == list(cols[np.argsort(rows)])


class TestContinuation:
    def test_identity_when_target_is_start(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=1)[0]
        res = dm.continue_in_eps(u, j, start, 1.0, 2)
        assert len(res.path) == 1 and res.achieved_eps == 1.0 and not res.stalled

    def test_non_simple_start_rejected(self):
        # at j = 0 the kernel makes 0 a triple eigenvalue: no gap to follow
        u = small_abc(0.3)
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 1), count=1)[0]
        with pytest.raises(ConfigError):
            dm.continue_in_eps(u, np.zeros(3), start, 0.9, 1)

    def test_window_with_growth_floor(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=1)[0]
        res = dm.continue_in_eps(u, j, start, 0.9, 2)
        assert not res.stalled
        assert res.achieved_eps == pytest.approx(0.9)
        assert res.window == pytest.approx(0.1)
        eps_seen = [e for e, _ in res.path]
        assert all(b < a for a, b in zip(eps_seen, eps_seen[1:]))
        for _, pair in res.path:
            assert pair.p.real >= res.floor
            assert pair.residual < 1e-7

    def test_nan_residual_refused(self, monkeypatch):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 1), count=1)[0]
        make_pair = dm._make_pair
        monkeypatch.setattr(dm, "_make_pair", lambda *args: dataclasses.replace(make_pair(*args), residual=math.nan))
        res = dm.continue_in_eps(u, j, start, 0.95, 1)
        assert res.stalled
        assert res.path == [(1.0, start)]

    def test_lipschitz_estimate_stable_under_halving(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=1)[0]
        contour = dm.Contour(complex(start.p), 0.02, 16)
        lip = dm.eps_lipschitz(u, j, start.field, contour, 0.95, 1.0, 2, 0.0125)
        assert lip.constant > 0.0
        assert lip.rel_change <= 0.2

    @pytest.mark.parametrize("eps_lo, eps_hi, step", [
        (0.9, 1.0, 0.0), (0.9, 1.0, -0.05), (0.9, 1.0, np.nan), (0.9, 1.0, np.inf),
        (1.0, 0.9, 0.05), (0.9, 0.9, 0.05), (np.nan, 1.0, 0.05),
        (0.9, 1.0, 0.5), (0.9, 1.0, 0.1 + 1e-9),
    ])
    def test_lipschitz_step_and_range_checked(self, monkeypatch, eps_lo, eps_hi, step):
        # a step grid of fewer than 2 points has no divided difference
        factorizations = count_factorizations(monkeypatch)
        contour = dm.Contour(0.0, 0.02, 16)
        with pytest.raises(ConfigError):
            dm.eps_lipschitz(small_abc(0.3), np.array([0.0, 0.0, 0.045]), df.resize(df.const_field([1.0, 0.0, 0.0]), 1),
                             contour, eps_lo, eps_hi, 1, step)
        assert factorizations == {"lu_factor": 0, "splu": 0, "ordering": 0}

    def test_lipschitz_keeps_a_nan_image(self, monkeypatch):
        # a NaN image at eps = 0.975, the 4th of 5 half-step points: a NaN
        # difference after a finite one must not drop out of the maximum
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 1), count=1)[0]
        contour_sum, calls = dm._contour_sum, []

        def nan_at_fourth(res, contour, block, trans="N"):
            calls.append(res)
            out = contour_sum(res, contour, block, trans)
            return np.full_like(out, np.nan) if len(calls) == 4 else out

        monkeypatch.setattr(dm, "_contour_sum", nan_at_fourth)
        lip = dm.eps_lipschitz(u, j, start.field, dm.Contour(complex(start.p), 0.02, 16), 0.9, 1.0, 1, 0.05)
        assert len(calls) == 5
        assert math.isfinite(lip.constant)
        assert math.isnan(lip.constant_half_step)
        assert not lip.rel_change <= 0.2

    def test_lipschitz_two_point_step_grid_accepted(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 1), count=1)[0]
        lip = dm.eps_lipschitz(u, j, start.field, dm.Contour(complex(start.p), 0.02, 16), 0.9, 1.0, 1, 0.1)
        assert lip.step == 0.1 and lip.constant > 0.0

    def test_lipschitz_grids_share_their_images(self, monkeypatch):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        start = dm.leading_eigs(dm.ModalOperatorSpec(u, j, 1.0, 2), count=1)[0]
        factorizations = count_factorizations(monkeypatch)
        contour = dm.Contour(complex(start.p), 0.02, 16)
        lip = dm.eps_lipschitz(u, j, start.field, contour, 0.9, 1.0, 2, 0.05)
        assert lip.rel_change <= 0.2
        # the step grid {0.9, 0.95, 1.0} is the even half of the half-step
        # grid of 5 points: 5 operators x 16 nodes, not (3 + 5) x 16 = 128;
        # the 5 operators share one structure and its one ordering
        assert factorizations == {"lu_factor": 0, "splu": 80, "ordering": 1}


def test_every_modal_factorization_is_the_resolvents(monkeypatch):
    callers = []
    orderings = []

    def recorded(*args, _splu=spla.splu, **kwargs):
        caller = sys._getframe(1).f_code
        (callers if kwargs.get("permc_spec") == "NATURAL" else orderings).append(caller)
        return _splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    dm._pattern.cache_clear()
    dm._structure.cache_clear()
    u = small_abc(0.3)
    j = np.array([0.0, 0.0, 0.045])
    spec = dm.ModalOperatorSpec(u, j, 1.0, 1)
    start = dm.leading_eigs(spec, count=2)[0]
    dm.continue_in_eps(u, j, start, 0.95, 1)
    dm.eps_lipschitz(u, j, start.field, dm.Contour(complex(start.p), 0.02, 16), 0.95, 1.0, 1, 0.025)
    projector = dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16))
    riesz_apply(projector, df.const_field([1.0, 0.0, 0.0]))
    dm.projector_distance_bound(spec, dm.ModalOperatorSpec(u, j, 0.97, 1), dm.Contour(0.0, 0.5, 8))
    alpha.mean_emf_matrix(u, truncation=1)
    alpha.instability_scan(u, directions=alpha.axis_directions(), truncation=1)
    assert len(callers) > 100
    assert set(callers) == {dm._Resolvent.factor.__code__}
    # every operator above has the one structure of u at N = 1
    assert orderings == [dm._Layout.__init__.__code__]


class TestProjectorMemory:
    """A count releases each node's factor with the CSC copies of L and U that reading U builds."""

    def test_riesz_projector_peak(self):
        spec = dm.ModalOperatorSpec(workload_flow(), np.zeros(3), 1.0, 2)
        p, peak = traced_peak(lambda: dm.RieszProjector(spec, dm.Contour(0.0, 0.5, 16)))
        assert p.contour.nodes == 32
        assert peak <= 2 * 2**20

    def test_projector_distance_bound_peak(self):
        s0 = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 1.0, 2)
        s1 = dm.ModalOperatorSpec(workload_flow(), WORKLOAD_J, 0.96, 2)
        comp, peak = traced_peak(lambda: dm.projector_distance_bound(s0, s1, dm.Contour(0.0, 0.5, 8)))
        assert comp.rank0 == comp.rank1 == 3
        assert peak <= 2 * 2**20


class TestProjectorDistance:
    def test_factors_each_node_once(self, monkeypatch):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        factorizations = count_factorizations(monkeypatch)
        comp = dm.projector_distance_bound(dm.ModalOperatorSpec(u, j, 1.0, 2), dm.ModalOperatorSpec(u, j, 0.97, 2),
                                           dm.Contour(0.0, 0.5, 8))
        assert comp.rank0 == comp.rank1 == 3
        # 8 nodes for each operator: the norms, the distance and the counts
        # share them, and the two operators share one structure's ordering
        assert factorizations == {"lu_factor": 0, "splu": 16, "ordering": 1}

    def test_nan_norm_makes_the_bound_inapplicable(self, monkeypatch):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        monkeypatch.setattr(dm, "_norm2", lambda matvec, rmatvec, dim: math.nan)
        with pytest.raises(BoundInapplicable):
            dm.projector_distance_bound(dm.ModalOperatorSpec(u, j, 1.0, 1), dm.ModalOperatorSpec(u, j, 0.97, 1),
                                        dm.Contour(0.0, 0.5, 8))

    def test_nan_operator_norm_is_a_solver_failure(self):
        # svds raises ARPACK error -9999 when every product is NaN
        def nan(x):
            return np.full_like(x, np.nan)

        with pytest.raises(SolverFailure):
            dm._norm2(nan, nan, 20)

    def test_identical_operators(self):
        spec = dm.ModalOperatorSpec(small_abc(), np.zeros(3), 1.0, 2)
        comp = dm.projector_distance_bound(spec, spec, dm.Contour(0.0, 0.5, 16))
        assert comp.smallness == 0.0
        assert comp.measured == 0.0

    def test_eps_perturbation_within_bound(self):
        u = small_abc()
        s0 = dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 2)
        s1 = dm.ModalOperatorSpec(u, np.zeros(3), 0.95, 2)
        comp = dm.projector_distance_bound(s0, s1, dm.Contour(0.0, 0.5, 16))
        assert comp.smallness < 1.0
        assert comp.measured <= comp.bound
        assert comp.rank0 == comp.rank1 == 3

    def test_norms_match_dense_oracles(self):
        u = small_abc(0.3)
        for j, eps1 in ((np.zeros(3), 0.95), (np.array([0.0, 0.0, 0.045]), 0.97)):
            s0 = dm.ModalOperatorSpec(u, j, 1.0, 2)
            s1 = dm.ModalOperatorSpec(u, j, eps1, 2)
            contour = dm.Contour(0.0, 0.5, 16)
            comp = dm.projector_distance_bound(s0, s1, contour)
            a0, a1 = dm.assemble_dense(s0), dm.assemble_dense(s1)
            eye = np.eye(s0.dim)
            mus, phases = contour.points()
            r0s = [la.solve(mu * eye - a0, eye) for mu in mus]
            r1s = [la.solve(mu * eye - a1, eye) for mu in mus]
            w = contour.radius / contour.nodes
            p0 = w * sum(ph * r for ph, r in zip(phases, r0s))
            p1 = w * sum(ph * r for ph, r in zip(phases, r1s))
            smallness = max(la.norm((a1 - a0) @ r, 2) for r in r0s)
            sup_r0 = max(la.norm(r, 2) for r in r0s)
            assert comp.smallness == pytest.approx(smallness, rel=1e-10)
            assert comp.sup_resolvent == pytest.approx(sup_r0, rel=1e-10)
            assert comp.measured == pytest.approx(la.norm(p0 - p1, 2), rel=1e-10)
            assert comp.rank0 == round(np.trace(p0).real) and comp.rank1 == round(np.trace(p1).real)

    def test_inapplicable_when_not_contractive(self):
        u = small_abc(0.3)
        j = np.array([0.0, 0.0, 0.045])
        s0 = dm.ModalOperatorSpec(u, j, 1.0, 2)
        s1 = dm.ModalOperatorSpec(u, j, 0.8, 2)
        top = dm.leading_eigs(s0, count=2)
        tiny = abs(top[0].p - top[1].p) / 2
        with pytest.raises(BoundInapplicable):
            dm.projector_distance_bound(s0, s1, dm.Contour(complex(top[0].p), tiny, 16))


# benchmark workload seeds 1-3: ABC amplitudes, shift and second diffusivity
WORKLOAD_SEEDS = [
    ((0.3007092974820154, 0.32702782177955614, 0.27864957676317803),
     (-0.037485355963641796, 0.026042588041530132, 0.012839977657633369), 0.9701405243469923),
    ((0.285696728054959, 0.2879094686048474, 0.31885354443565683),
     (-0.028482514493204523, 0.020995648754664004, 0.013348005901964395), 0.9624906265112171),
    ((0.2751389500286175, 0.284208630395766, 0.3180764679123838),
     (-0.031621474976067133, -0.025209940984723764, -0.012007511892100083), 0.9556491276198265),
]


class TestNormScreen:
    """The Lanczos screen ahead of the bound's exact weighted norms leaves the bound bit-identical."""

    @staticmethod
    def seed_specs(abc, j, eps1):
        flow = df.make_abc(df.AbcParams(*abc))
        return dm.ModalOperatorSpec(flow, np.array(j), 1.0, 2), dm.ModalOperatorSpec(flow, np.array(j), eps1, 2)

    @staticmethod
    def unscreened(monkeypatch, s0, s1, contour):
        with monkeypatch.context() as m:
            m.setattr(dm, "_node_norms", node_norms_oracle)
            return dm.projector_distance_bound(s0, s1, contour)

    @staticmethod
    def record_screen(monkeypatch, thetas):
        """Record each screened node's matvec in node order; node k's estimate is thetas[k] where given."""
        screened, lanczos_top = [], dm._lanczos_top

        def screen(matvec, rmatvec, v0, steps):
            screened.append(matvec)
            k = len(screened) - 1
            return thetas[k] if k in thetas else lanczos_top(matvec, rmatvec, v0, steps)

        monkeypatch.setattr(dm, "_lanczos_top", screen)
        return screened

    @pytest.mark.parametrize("abc, j, eps1", WORKLOAD_SEEDS, ids=["seed1", "seed2", "seed3"])
    def test_bound_matches_the_unscreened_loop_bit_for_bit(self, monkeypatch, abc, j, eps1):
        s0, s1 = self.seed_specs(abc, j, eps1)
        contour = dm.Contour(0.0, 0.5, 8)
        assert dm.projector_distance_bound(s0, s1, contour) == self.unscreened(monkeypatch, s0, s1, contour)

    def test_random_solenoidal_flow_matches_the_unscreened_loop(self, monkeypatch):
        flow = df.random_real_field(1, np.random.default_rng(5), div_free=True, amplitude=0.3)
        j = np.array([0.02, -0.03, 0.01])
        s0, s1 = dm.ModalOperatorSpec(flow, j, 1.0, 1), dm.ModalOperatorSpec(flow, j, 0.95, 1)
        contour = dm.Contour(0.0, 0.5, 8)
        comp = dm.projector_distance_bound(s0, s1, contour)
        assert comp.smallness > 0.0
        assert comp == self.unscreened(monkeypatch, s0, s1, contour)

    def test_one_exact_weighted_norm_on_the_workload(self, monkeypatch):
        # seed 1 unscreened: 8 + 8 + 1 = 17 exact norms and 2984 node solves
        counts = {"norm2": 0, "solve": 0}
        norm2, solve = dm._norm2, dm._NodeFactor.solve

        def counted_norm2(*args):
            counts["norm2"] += 1
            return norm2(*args)

        def counted_solve(self, *args, **kwargs):
            counts["solve"] += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(dm, "_norm2", counted_norm2)
        monkeypatch.setattr(dm._NodeFactor, "solve", counted_solve)
        s0, s1 = self.seed_specs(*WORKLOAD_SEEDS[0])
        dm.projector_distance_bound(s0, s1, dm.Contour(0.0, 0.5, 8))
        # 8 resolvent norms, the top node's weighted norm and the distance
        assert counts["norm2"] == 10
        assert counts["solve"] <= 1800

    def test_nan_estimate_at_the_top_node_makes_the_bound_inapplicable(self, monkeypatch):
        s0, s1 = self.seed_specs(*WORKLOAD_SEEDS[0])
        contour = dm.Contour(0.0, 0.5, 8)
        res0, res1 = dm._Resolvent(s0), dm._Resolvent(s1)
        top = int(np.argmax(node_norms_oracle(res0, contour, res1.matrix - res0.matrix)))
        screened, norm2 = self.record_screen(monkeypatch, {top: math.nan}), dm._norm2

        def exact(matvec, rmatvec, dim):
            # the top node's operator reads NaN there, as its estimate did
            return math.nan if len(screened) > top and matvec is screened[top] else norm2(matvec, rmatvec, dim)

        monkeypatch.setattr(dm, "_norm2", exact)
        with pytest.raises(BoundInapplicable):
            dm.projector_distance_bound(s0, s1, contour)
        assert len(screened) == contour.nodes

    def test_a_node_within_the_ratio_gets_its_exact_norm(self, monkeypatch):
        s0, s1 = self.seed_specs(*WORKLOAD_SEEDS[0])
        contour = dm.Contour(0.0, 0.5, 8)
        res0, res1 = dm._Resolvent(s0), dm._Resolvent(s1)
        delta = res1.matrix - res0.matrix
        exact = node_norms_oracle(res0, contour, delta)
        top = int(np.argmax(exact))
        near, below = [k for k in range(contour.nodes) if k != top][:2]
        thetas = dict.fromkeys(range(contour.nodes), 0.0)
        thetas.update({top: exact[top] ** 2, near: 0.81 * exact[top] ** 2, below: 0.79 * exact[top] ** 2})
        screened = self.record_screen(monkeypatch, thetas)
        called, norm2 = [], dm._norm2

        def recorded(matvec, rmatvec, dim):
            called.append(matvec)
            return norm2(matvec, rmatvec, dim)

        monkeypatch.setattr(dm, "_norm2", recorded)
        norms = dm._node_norms(res0, contour, delta)
        assert called == [screened[top], screened[near]]
        assert norms[top] == exact[top] and norms[near] == exact[near]
        assert norms[below] == np.sqrt(thetas[below])
        assert np.max(norms) == np.max(exact)
