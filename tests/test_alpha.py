"""Cell-problem and alpha-matrix tests against closed-form ABC oracles."""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

import dynamo.fields as df
import dynamo.alpha as da
import dynamo.modal as dm
from dynamo.errors import ConfigError, SolverFailure, UndefinedDirection
from support import SeriesDiverges, cell_data, fft_residual, neumann_cell_solve, restricted_cell_solve

DELTA0 = 0.05


def small_abc(d0=DELTA0):
    return df.make_abc(df.AbcParams(d0, d0, d0))


class TestCellProblem:
    def test_zero_flow_gives_zero_corrector(self):
        zero = df.zero_field(1)
        for solve in (da.solve_cell_problem, neumann_cell_solve):
            sol = solve(zero, [1.0, -2.0, 0.5])
            assert sol.field.l2() == 0.0
            assert sol.residual == 0.0

    def test_direct_vs_neumann_agreement(self):
        # oracle: the series solves the same truncated system by FFT products
        u = small_abc()
        s1 = da.solve_cell_problem(u, [1, 0, 0], tol=1e-12, truncation=3)
        s2 = neumann_cell_solve(u, [1, 0, 0], tol=1e-12, truncation=3)
        assert s2.contraction < 0.5
        assert (s1.field - s2.field).l2() < 1e-10

    def test_residual_reported_and_small(self):
        u = small_abc()
        sol = da.solve_cell_problem(u, [0, 1, 0], truncation=2)
        assert sol.residual < 1e-12
        # independent recomputation of the defining equation
        data = df.curl(df.cross(df.const_field([0, 1, 0]), u))
        spec = dm.ModalOperatorSpec(u, np.zeros(3), 1.0, 2)
        r = dm.apply_modal(spec, sol.field) - df.resize(data, 2)
        assert r.l2() <= 1e-12 * data.l2() * 10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_matches_fft_recomputation(self, n):
        rng = np.random.default_rng(n)
        u = df.make_abc(df.AbcParams(*rng.uniform(0.27, 0.33, 3)))
        spec = dm.ModalOperatorSpec(u, np.zeros(3), 1.0, n)
        for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], rng.standard_normal(3)):
            sol = da.solve_cell_problem(u, v, truncation=n)
            data = df.curl(df.cross(df.const_field(v), u))
            assert abs(sol.residual - fft_residual(spec, sol.field, rhs=data)) <= 1e-15

    def test_nan_residual_raises(self, monkeypatch):
        # a factor solve that returns NaN makes the residual NaN, which the gate refuses
        monkeypatch.setattr(dm._NodeFactor, "solve", lambda self, b, trans="N": np.full_like(b, np.nan))
        with pytest.raises(SolverFailure, match="nan"):
            da.solve_cell_problem(small_abc(), [1, 0, 0], truncation=1)

    def test_corrector_is_mean_free(self):
        sol = da.solve_cell_problem(small_abc(), [1, 1, 1], truncation=2)
        assert np.linalg.norm(df.mean_vector(sol.field)) < 1e-14

    def test_one_term_series_dominates_at_tiny_amplitude(self):
        d0 = 0.01
        u = small_abc(d0)
        sol = da.solve_cell_problem(u, [0, 0, 1], truncation=2)
        first = df.inv_laplacian(df.curl(df.cross(df.const_field([0, 0, 1]), u)))
        rel = (sol.field - df.resize(first, 2)).l2() / first.l2()
        assert rel < 5 * d0  # higher-order terms are O(d0) relative

    def test_neumann_divergence_raises(self):
        big = df.make_abc(df.AbcParams(40.0, 40.0, 40.0))
        with pytest.raises(SeriesDiverges):
            neumann_cell_solve(big, [1, 0, 0], truncation=2)

    def test_truncation_below_flow_support_rejected(self):
        with pytest.raises(Exception):
            da.solve_cell_problem(small_abc(), [1, 0, 0], truncation=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-12])
    @pytest.mark.parametrize("method", ["direct", "neumann"])
    def test_invalid_tolerance_rejected(self, tol, method):
        # a NaN tolerance would also switch off the direct solve's residual
        # check; the series oracle guards its own stopping rule the same way
        solve = {"direct": da.solve_cell_problem, "neumann": neumann_cell_solve}[method]
        for flow in (small_abc(), df.zero_field(1)):
            with pytest.raises(ConfigError, match="tolerance"):
                solve(flow, [1, 0, 0], tol=tol, truncation=2)
        with pytest.raises(ConfigError, match="tolerance"):
            da.mean_emf_matrix(small_abc(), truncation=2, tol=tol)

    def test_mean_emf_matrix_shares_one_factorization(self, monkeypatch):
        u = df.make_abc(df.AbcParams(0.31, 0.27, 0.3))
        cols = [da.solve_cell_problem(u, e, truncation=3) for e in np.eye(3)]
        want = np.stack([np.cross(u.coeffs, df.resize(s.field, 1).coeffs[::-1, ::-1, ::-1]).sum(axis=(0, 1, 2))
                         for s in cols], axis=1)
        calls = []
        splu = dm.spla.splu

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return splu(*args, **kwargs)

        monkeypatch.setattr(dm.spla, "splu", counted)
        emf, worst = da.mean_emf_matrix(u, truncation=3)
        # one factorization in the structure's order, made above, so no ordering probe
        assert calls == [{"permc_spec": "NATURAL"}]
        assert np.array_equal(emf, want)
        assert worst == max(s.residual for s in cols)
        da.solve_cell_problem(u, [1.0, 2.0, 0.5], truncation=3)
        assert calls == [{"permc_spec": "NATURAL"}] * 2

    def test_mean_emf_matrix_gates_each_column(self, monkeypatch):
        # a spoiled middle column must trip the residual gate on its own
        splu = dm.spla.splu

        class Spoiled:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b, trans="N"):
                x = self.lu.solve(b, trans)
                x[:, 1] *= 1.0 + 1e-6
                return x

        def spoiled(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return Spoiled(lu) if kwargs.get("permc_spec") == "NATURAL" else lu

        monkeypatch.setattr(dm.spla, "splu", spoiled)
        with pytest.raises(SolverFailure, match="residual"):
            da.mean_emf_matrix(small_abc(), truncation=2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_restricted_default_order_solve(self, n):
        # oracle: the stencil without its zero mode, factored in splu's own order
        rng = np.random.default_rng(10 + n)
        u = df.make_abc(df.AbcParams(*rng.uniform(0.27, 0.33, 3)))
        for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], rng.standard_normal(3)):
            got = da.solve_cell_problem(u, v, truncation=n).field
            want = restricted_cell_solve(u, v, n)
            assert (got - want).l2() <= 1e-13 * want.l2()

    def test_singular_pivot_raises_solver_failure(self, monkeypatch):
        u = small_abc()
        da.solve_cell_problem(u, [1, 0, 0], truncation=2)  # the structure's ordering, made unpatched
        splu = dm.spla.splu

        def singular(*args, **kwargs):
            if kwargs.get("permc_spec") == "NATURAL":
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(dm.spla, "splu", singular)
        with pytest.raises(SolverFailure, match="singular Galerkin cell system at truncation 2"):
            da.solve_cell_problem(u, [1, 0, 0], truncation=2)
        with pytest.raises(SolverFailure, match="singular Galerkin cell system"):
            da.mean_emf_matrix(u, truncation=2)


class TestStencilData:
    """The cell data are stencil columns and the mean EMF a sum over the flow's modes: no FFT product."""

    FLOWS = {
        "abc": df.make_abc(df.AbcParams(0.31, 0.27, 0.3)),
        "random": df.random_real_field(2, np.random.default_rng(5), div_free=True, amplitude=0.2),
    }

    def test_no_fft_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an FFT cross product was formed")

        u = df.make_abc(df.AbcParams(0.3, 0.2, 0.25))
        want, _ = da.mean_emf_matrix(u, truncation=2)
        monkeypatch.setattr(df, "cross", refuse)
        assert da.solve_cell_problem(u, [1, 0, 0], truncation=2).field.l2() > 0.0
        assert np.array_equal(da.mean_emf_matrix(u, truncation=2)[0], want)
        assert np.array_equal(da.alpha_matrix(u, [0, 0, 1], truncation=2).emf, want)
        assert da.instability_scan(u, directions=da.axis_directions(), truncation=2).certified

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["abc", "random"])
    def test_data_and_emf_match_fft_products(self, monkeypatch, name, n):
        # oracle: curl(v x U) and mean(U x S) by dealiased FFT products
        u = self.FLOWS[name]
        solves = []
        solve = dm._NodeFactor.solve

        def recorded(self, b, trans="N"):
            x = solve(self, b, trans)
            solves.append((-b, x))
            return x

        monkeypatch.setattr(dm._NodeFactor, "solve", recorded)
        emf, _ = da.mean_emf_matrix(u, truncation=n)
        [(data, corr)] = solves
        want = np.zeros((3, 3), dtype=np.complex128)
        for axis, e in enumerate(np.eye(3)):
            b = dm.field_to_vec(df.resize(cell_data(u, e), n))
            assert np.linalg.norm(data[:, axis] - b) <= 1e-15 * np.linalg.norm(b)
            want[:, axis] = df.mean_vector(df.cross(u, dm.vec_to_field(corr[:, axis], n)))
        assert np.max(np.abs(emf - want)) <= 2e-15 * np.max(np.abs(want))

    def test_corrector_is_real_when_flow_and_vector_are(self):
        u = self.FLOWS["abc"]
        complex_flow = df.curl(u) * 1j  # mean-free and divergence-free
        kinds = [s.field.kind for s in da._solve_cells(u, [[1, 0, 0], [1j, 0, 0]], da.DEFAULT_TOL, 2)]
        assert kinds == ["real", "complex"]
        assert da.solve_cell_problem(complex_flow, [1, 0, 0], truncation=2).field.kind == "complex"
        assert da.solve_cell_problem(df.zero_field(1), [1, 0, 0]).field.kind == "real"


class TestFirstOrderMatrix:
    def test_abc_value_is_diagonal(self):
        m = da.first_order_matrix(df.make_abc(df.AbcParams(1.0, 2.0, 3.0)))
        assert np.max(np.abs(m - np.diag([4.0, 9.0, 1.0]))) < 1e-13

    def test_zero_flow(self):
        assert np.all(da.first_order_matrix(df.zero_field(1)) == 0.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetry_for_random_mean_free_flows(self, seed):
        rng = np.random.default_rng(seed)
        u = df.random_real_field(2, rng, mean_free=True, div_free=True)
        m = da.first_order_matrix(u)
        scale = max(np.max(np.abs(m)), 1e-300)
        assert np.max(np.abs(m - m.T)) <= 1e-12 * scale


class TestClosedForm:
    def test_unit_abc_axis(self):
        w = da.abc_closed_form(df.AbcParams(1, 1, 1), [1, 0, 0])
        assert np.allclose(w, [1.0, 0.0, -1.0], atol=1e-15)

    def test_single_coefficient_has_no_first_order_instability(self):
        w = da.abc_closed_form(df.AbcParams(1, 0, 0), [0.3, -0.4, 0.5])
        assert np.allclose(w, 0.0)

    def test_asymmetric_example(self):
        w = da.abc_closed_form(df.AbcParams(1, 2, 3), [0, 1, 0])
        assert np.allclose(w, [2.0, 0.0, -2.0], atol=1e-14)

    def test_matches_eigendecomposition_of_cross_diag(self):
        params = df.AbcParams(0.7, 1.3, 2.1)
        j = np.array([0.2, -0.5, 0.8])
        jhat = j / np.linalg.norm(j)
        a, b, c = params.as_tuple()
        cross = np.array([[0, -jhat[2], jhat[1]], [jhat[2], 0, -jhat[0]], [-jhat[1], jhat[0], 0]])
        w = np.sort_complex(la.eigvals(1j * cross @ np.diag([b * b, c * c, a * a])))
        expected = np.sort_complex(da.abc_closed_form(params, j))
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(UndefinedDirection):
            da.abc_closed_form(df.AbcParams(1, 1, 1), [0, 0, 0])


class TestAlphaMatrix:
    def test_zero_flow_gives_zero_matrix(self):
        am = da.alpha_matrix(df.zero_field(1), [0, 0, 1], truncation=1)
        assert np.all(am.matrix == 0.0)

    def test_direction_only_dependence(self):
        u = small_abc()
        a1 = da.alpha_matrix(u, [1.0, 2.0, -0.5], truncation=2)
        a2 = da.alpha_matrix(u, [2.0, 4.0, -1.0], truncation=2)
        assert np.array_equal(a1.matrix, a2.matrix)

    def test_small_abc_matches_closed_form(self):
        u = small_abc()
        am = da.alpha_matrix(u, [1, 0, 0], truncation=3)
        expected = da.abc_closed_form(df.AbcParams(DELTA0, DELTA0, DELTA0), [1, 0, 0])
        assert np.max(np.abs(am.eigenvalues - expected)) < DELTA0**3

    def test_eigenvalue_sum_is_trace(self):
        am = da.alpha_matrix(small_abc(), [1, 1, 0], truncation=2)
        scale = max(np.max(np.abs(am.matrix)), 1e-300)
        assert abs(np.sum(am.eigenvalues) - np.trace(am.matrix)) < 1e-10 * scale

    def test_plus_minus_zero_pattern(self):
        # i jhat x (real symmetric) always has a {0, +mu, -mu} spectrum
        rng = np.random.default_rng(5)
        sym = rng.standard_normal((3, 3))
        sym = sym + sym.T
        am = da.alpha_matrix_from_emf(sym, [0.3, 0.1, -0.9])
        w = am.eigenvalues
        scale = max(np.max(np.abs(w)), 1e-300)
        assert abs(w[0] + w[2]) < 1e-10 * scale
        assert abs(w[1]) < 1e-10 * scale

    def test_eigendecomposition_reproduces_application(self):
        am = da.alpha_matrix(small_abc(), [0, 1, 0], truncation=2)
        v = np.array([0.3 + 0.1j, -0.2, 0.7j])
        recon = am.eigenvectors @ (am.eigenvalues * la.solve(am.eigenvectors, v))
        assert np.linalg.norm(recon - am.matrix @ v) < 1e-10 * max(np.linalg.norm(am.matrix @ v), 1e-300)

    def test_zero_direction_rejected(self):
        with pytest.raises(UndefinedDirection):
            da.alpha_matrix(small_abc(), [0, 0, 0], truncation=2)

    @pytest.mark.parametrize("j", [[1e200, 0, 0], [1e-200, 0, 0]])
    def test_huge_and_tiny_directions_normalize(self, j):
        # |j| overflowed to inf (giving 0) or underflowed to 0 (raising UndefinedDirection)
        assert np.array_equal(da.unit_direction(j), [1.0, 0.0, 0.0])
        am = da.alpha_matrix(small_abc(), j, truncation=2)
        assert np.array_equal(am.j_direction, [1.0, 0.0, 0.0])
        assert np.array_equal(am.matrix, da.alpha_matrix(small_abc(), [1, 0, 0], truncation=2).matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_rejected(self, bad):
        # a NaN or infinite direction reached scipy's eig, which raised its own ValueError
        with pytest.raises(UndefinedDirection, match=r"wavevector \[.*, 0.0, 0.0\] .*not finite"):
            da.alpha_matrix(small_abc(), [bad, 0.0, 0.0], truncation=2)
        with pytest.raises(UndefinedDirection, match="not finite"):
            da.instability_scan(small_abc(), directions=[[1.0, 0.0, 0.0], [bad, 0.0, 0.0]], truncation=2)


class TestInstabilityScan:
    def test_direction_samples(self):
        g = da.grid_directions()
        assert g.shape == (26, 3)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
        ico = da.icosphere_directions()
        assert ico.shape == (42, 3)
        assert np.allclose(np.linalg.norm(ico, axis=1), 1.0)
        assert len(np.unique(np.round(ico, 12), axis=0)) == 42
        assert np.array_equal(ico[:6], da.axis_directions())

    def test_small_abc_certified_on_grid_sample(self):
        rep = da.instability_scan(small_abc(), directions=da.grid_directions(), truncation=2)
        assert rep.certified
        # the (1,1,1) flow has direction-independent rates, so the first
        # (axis-aligned) direction wins the tie
        assert np.count_nonzero(rep.best_direction) == 1
        assert rep.best_eigenvalue.real == pytest.approx(DELTA0**2, rel=5e-3)
        assert rep.best_margin == pytest.approx(DELTA0**2, rel=5e-3)

    def test_zero_flow_not_certified(self):
        rep = da.instability_scan(df.zero_field(1), directions=da.axis_directions(), truncation=1)
        assert not rep.certified
        assert rep.best_eigenvalue == 0.0

    def test_leading_real_part_never_strictly_negative(self):
        # spectra flip sign with j -> -j, and the samples contain both
        rng = np.random.default_rng(77)
        u = df.random_real_field(1, rng, mean_free=True, div_free=True, amplitude=0.1)
        rep = da.instability_scan(u, directions=da.grid_directions(), truncation=2)
        assert rep.best_eigenvalue.real >= -1e-12

    def test_empty_directions_rejected(self):
        with pytest.raises(Exception):
            da.instability_scan(small_abc(), directions=np.zeros((0, 3)))

    @pytest.mark.parametrize("kwargs", [{"threshold": float("nan")}, {"threshold": float("inf")},
                                        {"threshold": -float("inf")}, {"tol": float("nan")}, {"tol": 0.0},
                                        {"threshold": -1.0}, {"threshold": -1e-300}])
    def test_non_finite_threshold_and_bad_tolerance_rejected(self, kwargs):
        # w.real > nan is False, so a NaN threshold silently withheld the certificate,
        # and a negative one certified the zero flow, whose eigenvalues and margins are 0
        with pytest.raises(ConfigError):
            da.instability_scan(small_abc(), directions=da.axis_directions(), truncation=2, **kwargs)
