"""Integrator tests: exactness limits, order, bounds, and rate extraction."""

import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from dynamo import fields as df
from dynamo import modal
from dynamo import evolve
from dynamo.errors import BlowUpDetected, ConfigError, SolverFailure, TooLarge
from support import evolve_per_step, evolve_reference, traced_peak


def _diffusive_spec(n=2, eps=0.8, j=(0.2, 0.0, -0.1)):
    return modal.ModalOperatorSpec(
        flow=df.zero_field(1), j=np.array(j), eps=eps, truncation=n
    )


def _abc_spec(delta=0.3, j=(0.0, 0.0, 0.045), eps=1.0, n=2):
    flow = df.make_abc(df.AbcParams(delta, delta, delta))
    return modal.ModalOperatorSpec(flow=flow, j=np.array(j), eps=eps, truncation=n)


class TestStepper:
    def test_pure_diffusion_single_mode_is_exact(self):
        spec = _diffusive_spec()
        c = np.zeros((5, 5, 5, 3), dtype=np.complex128)
        c[3, 2, 2] = [0.0, 1.0, 2.0j]  # mode k = (1, 0, 0)
        h = df.SpectralField(c, kind="complex")
        dt = 0.37
        kappa = np.array([1.0, 0.0, 0.0]) + spec.j
        out = evolve.Stepper(spec).step_coeffs(h.coeffs, dt)
        expected = c * np.exp(-spec.eps * np.dot(kappa, kappa) * dt)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_advection_matches_modal_operator(self, rng):
        # The stepper's sparse-stencil advection against the independent
        # FFT product in apply_modal, with the diffusion removed from both.
        for n in (1, 2, 3):
            for j in ((0.0, 0.0, 0.0), (0.0, 0.0, 0.045)):
                spec = _abc_spec(j=j, n=n)
                h = df.random_complex_field(n, rng=rng)
                full = modal.apply_modal(spec, h).coeffs
                k2 = np.sum(spec.shifted_wavevectors() ** 2, axis=-1, keepdims=True)
                adv_ref = full + spec.eps * k2 * h.coeffs
                adv = evolve.Stepper(spec)._adv @ h.coeffs.reshape(-1)
                np.testing.assert_allclose(adv, adv_ref.reshape(-1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_split_is_the_stencil(self, n):
        for j in ((0.0, 0.0, 0.0), (0.1, -0.05, 0.2)):
            spec = modal.ModalOperatorSpec(df.make_abc(df.AbcParams(1.0, 0.9, 1.1)), np.array(j), 0.7, n)
            st = evolve.Stepper(spec)
            whole = st._adv + sp.diags_array(st._diag)
            assert np.array_equal(whole.toarray(), modal._operator(spec).toarray())

    def test_split_keeps_a_tiny_mean_flow_block(self):
        # a mean-free flow may keep a roundoff U(0); its block puts imaginary
        # entries on the diagonal, which belong to the advection
        c = np.array(df.random_real_field(1, np.random.default_rng(3), div_free=True).coeffs)
        c[1, 1, 1] = [1e-14, -2e-14, 5e-15]
        spec = modal.ModalOperatorSpec(df.SpectralField(c), np.array([0.1, -0.05, 0.2]), 0.7, 2)
        st = evolve.Stepper(spec)
        assert np.any(st._adv.diagonal().imag)
        whole = st._adv + sp.diags_array(st._diag)
        assert np.array_equal(whole.toarray(), modal._operator(spec).toarray())

    def test_step_is_linear(self, rng):
        spec = _abc_spec()
        st = evolve.Stepper(spec)
        dt = 0.05
        for _ in range(3):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h1 = df.random_complex_field(spec.truncation, rng=rng)
            h2 = df.random_complex_field(spec.truncation, rng=rng)
            combo = df.SpectralField(a * h1.coeffs + b * h2.coeffs, kind="complex")
            lhs = st.step_coeffs(combo.coeffs, dt)
            rhs = a * st.step_coeffs(h1.coeffs, dt) + b * st.step_coeffs(h2.coeffs, dt)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_state_of_wrong_size_rejected(self):
        # the stencil product runs on the raw CSR kernel, which would read past a short state
        st = evolve.Stepper(_abc_spec(n=1))
        with pytest.raises(ConfigError):
            st.step_coeffs(np.zeros(st.spec.dim - 3, dtype=np.complex128), 0.1)


class TestEvolve:
    def test_zero_flow_decays_exactly(self, rng):
        spec = _diffusive_spec()
        h0 = df.random_complex_field(2, rng=rng)
        run = evolve.evolve(spec, h0, t_end=2.0, dt=0.05)
        k2 = np.sum(spec.shifted_wavevectors() ** 2, axis=-1, keepdims=True)
        expected = h0.coeffs * np.exp(-spec.eps * k2 * run.t_end)
        np.testing.assert_allclose(run.final_state.coeffs, expected, rtol=1e-12, atol=1e-15)

    def test_samples_land_on_t_end(self):
        spec = _diffusive_spec(n=1)
        h0 = df.resize(df.const_field([0.0, 1.0, 0.0]), 1)
        run = evolve.evolve(spec, h0, t_end=1.0, dt=0.3, sample_every=3)
        assert math.isclose(run.trace.t[-1], 1.0, rel_tol=1e-12)
        assert run.dt <= 0.3
        assert np.all(np.diff(run.trace.t) > 0.0)

    def test_zero_field_has_trivial_trace(self):
        spec = _diffusive_spec(n=1)
        run = evolve.evolve(spec, df.zero_field(1, kind="complex"), t_end=0.5, dt=0.1)
        assert np.all(run.trace.norm == 0.0)
        assert np.all(run.trace.div_drift == 0.0)
        assert np.all(run.trace.slack_growth_bound == 1.0)
        with pytest.raises(SolverFailure):
            evolve.fit_growth(run)

    def test_invalid_arguments_rejected(self):
        spec = _diffusive_spec(n=1)
        h0 = df.resize(df.const_field([1.0, 0.0, 0.0]), 1)
        with pytest.raises(ConfigError):
            evolve.evolve(spec, h0, t_end=-1.0)
        with pytest.raises(ConfigError):
            evolve.evolve(spec, h0, t_end=1.0, sample_every=0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_invalid_time_step_rejected(self, dt):
        # a negative dt used to be rounded into one step of length t_end
        spec = _diffusive_spec(n=1)
        h0 = df.resize(df.const_field([1.0, 0.0, 0.0]), 1)
        with pytest.raises(ConfigError):
            evolve.evolve(spec, h0, t_end=1.0, dt=dt)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0])
    def test_invalid_end_time_rejected(self, t_end):
        spec = _diffusive_spec(n=1)
        h0 = df.resize(df.const_field([1.0, 0.0, 0.0]), 1)
        with pytest.raises(ConfigError):
            evolve.evolve(spec, h0, t_end=t_end, dt=0.1)

    @pytest.mark.parametrize("t_end, dt", [(1e300, None), (1e300, 1e-10), (1.0, 1e-8)])
    def test_step_count_above_the_cap_rejected(self, monkeypatch, t_end, dt):
        def refuse(spec):
            raise AssertionError("the stepper was built for a run over the step cap")

        monkeypatch.setattr(evolve, "Stepper", refuse)
        spec = _diffusive_spec(n=1)
        with pytest.raises(TooLarge):
            evolve.evolve(spec, df.resize(df.const_field([1.0, 0.0, 0.0]), 1), t_end=t_end, dt=dt)

    def test_non_finite_start_detected(self):
        spec = _diffusive_spec(n=1)
        c = np.zeros((3, 3, 3, 3), dtype=np.complex128)
        c[1, 1, 1] = [np.inf, 0.0, 0.0]
        with pytest.raises(BlowUpDetected):
            evolve.evolve(spec, df.SpectralField(c, kind="complex"), t_end=1.0, dt=0.1)

    def test_eigenvector_growth_matches_eigenvalue(self):
        # Unstable branch: gamma from the trace must agree with Re p
        # to 1% using the default time step.
        spec = _abc_spec()
        pair = modal.leading_eigs(spec, count=3)[0]
        assert pair.p.real > 0.0
        run = evolve.evolve(spec, pair.field, t_end=20.0)
        fit = evolve.fit_growth(run)
        assert abs(fit.gamma - pair.p.real) <= 0.01 * abs(pair.p.real)
        assert fit.r2 > 0.999999
        assert fit.window[0] >= 0.25 * run.t_end

    def test_solenoidal_start_keeps_tiny_drift(self):
        # The curl form is orthogonal to k + j mode by mode, so no
        # projection is needed to hold the constraint.
        spec = _abc_spec()
        pair = modal.leading_eigs(spec, count=1)[0]
        run = evolve.evolve(spec, pair.field, t_end=5.0, dt=0.1)
        assert evolve.divergence_drift(run) < 1e-12


class TestOrder:
    def test_second_order_against_matrix_exponential(self, rng):
        flow = df.make_abc(df.AbcParams(0.5, 0.5, 0.5))
        spec = modal.ModalOperatorSpec(
            flow=flow, j=np.array([0.3, 0.0, 0.0]), eps=0.7, truncation=1
        )
        a = modal.assemble_dense(spec)
        h0 = df.random_complex_field(1, rng=rng)
        t_end = 0.5
        oracle = la.expm(a * t_end) @ modal.field_to_vec(h0)
        errs = []
        for k in (8, 16, 32, 64):
            st = evolve.Stepper(spec)
            c = h0.coeffs.copy()
            for _ in range(k):
                c = st.step_coeffs(c, t_end / k)
            errs.append(np.linalg.norm(c.reshape(-1) - oracle))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(1.8 < q < 2.2 for q in orders)

    def test_exact_when_flow_vanishes(self, rng):
        spec = _diffusive_spec(n=1, eps=0.9, j=(0.2, 0.1, 0.0))
        a = modal.assemble_dense(spec)
        h0 = df.random_complex_field(1, rng=rng)
        t_end = 0.5
        oracle = la.expm(a * t_end) @ modal.field_to_vec(h0)
        st = evolve.Stepper(spec)
        c = h0.coeffs.copy()
        for _ in range(4):
            c = st.step_coeffs(c, t_end / 4)
        assert np.linalg.norm(c.reshape(-1) - oracle) < 1e-13


class TestBounds:
    def test_slacks_nonnegative_for_growth_run(self):
        spec = _abc_spec()
        pair = modal.leading_eigs(spec, count=1)[0]
        run = evolve.evolve(spec, pair.field, t_end=10.0, dt=0.1)
        report = evolve.energy_monitor(run)
        assert report.ok
        assert report.min_slack_growth >= -1e-6
        assert report.min_slack_energy >= -1e-6

    def test_slacks_nonnegative_for_diffusive_run(self, rng):
        spec = _diffusive_spec()
        run = evolve.evolve(spec, df.random_complex_field(2, rng=rng), t_end=3.0, dt=0.05)
        report = evolve.energy_monitor(run)
        assert report.ok
        # With U = 0 both bounds are constants and the norm decays,
        # so the slack grows strictly after t = 0.
        assert np.all(run.trace.slack_growth_bound[1:] > 0.0)

    def test_monitor_counts_violations(self):
        spec = _diffusive_spec(n=1)
        h = df.resize(df.const_field([1.0, 0.0, 0.0]), 1)
        trace = evolve.Trace(
            t=np.array([0.0, 1.0, 2.0]),
            norm=np.array([1.0, 1.0, 1.0]),
            slack_growth_bound=np.array([0.0, -1e-3, 0.0]),
            slack_energy_estimate=np.array([0.0, 0.0, -2e-6]),
            div_drift=np.zeros(3),
        )
        run = evolve.EvolutionRun(
            spec=spec, h0=h, dt=1.0, t_end=2.0, trace=trace, final_state=h,
            growth_rate_bound=0.0, energy_rate_bound=0.0, projected=False,
        )
        report = evolve.energy_monitor(run)
        assert not report.ok
        assert report.growth_violations == 1
        assert report.energy_violations == 1
        assert report.min_slack_growth == -1e-3


class TestDivergence:
    @staticmethod
    def _mixed_start(n=2):
        # Solenoidal low mode plus a deliberately non-solenoidal high mode.
        c = np.zeros((2 * n + 1,) * 3 + (3,), dtype=np.complex128)
        c[n + 1, n, n] = [0.0, 1.0, 0.0]       # k = (1,0,0), divergence-free
        c[n + 2, n + 2, n + 2] = [1.0, 0.0, 0.0]  # k = (2,2,2), k.c != 0
        return df.SpectralField(c, kind="complex")

    def test_drift_decays_at_diffusive_rate(self):
        spec = modal.ModalOperatorSpec(
            flow=df.zero_field(1), j=np.zeros(3), eps=0.5, truncation=2
        )
        h0 = self._mixed_start()
        run = evolve.evolve(spec, h0, t_end=1.0, dt=0.05)
        k2 = np.sum(spec.shifted_wavevectors() ** 2, axis=-1, keepdims=True)
        for i, t in enumerate(run.trace.t):
            decayed = df.SpectralField(
                h0.coeffs * np.exp(-spec.eps * k2 * t), kind="complex"
            )
            assert run.trace.div_drift[i] == pytest.approx(
                df.divergence_rel(decayed), rel=1e-10
            )
        assert run.trace.div_drift[-1] < 0.01 * run.trace.div_drift[0]

    def test_projection_removes_drift(self):
        spec = _abc_spec()
        run = evolve.evolve(spec, self._mixed_start(), t_end=0.5, dt=0.05, project=True)
        assert run.trace.div_drift[0] > 0.1  # start really is non-solenoidal
        assert np.all(run.trace.div_drift[1:] < 1e-13)


class TestFitWindow:
    def test_transient_discarded(self):
        # Fast mode swamps the early trace; the trailing-window fit must
        # recover the slow rate.
        spec = modal.ModalOperatorSpec(
            flow=df.zero_field(1), j=np.zeros(3), eps=1.0, truncation=2
        )
        c = np.zeros((5, 5, 5, 3), dtype=np.complex128)
        c[3, 2, 2] = [0.0, 1.0, 0.0]      # |k|^2 = 1, rate -1
        c[4, 4, 2] = [0.0, 0.0, 100.0]    # |k|^2 = 8, rate -8
        run = evolve.evolve(
            spec, df.SpectralField(c, kind="complex"), t_end=8.0, dt=0.05
        )
        fit = evolve.fit_growth(run)
        assert fit.gamma == pytest.approx(-1.0, abs=1e-3)

    def test_default_dt_formula(self):
        spec = _abc_spec(delta=0.3, n=2)
        expected = 0.25 / (2 * df.sup_value(spec.flow) + 1.0)
        assert evolve.default_dt(spec) == expected


class TestTraceOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("sample_every", [1, 7])
    def test_matches_field_level_reference(self, rng, n, project, sample_every):
        # ABC flow with j != 0 and a start that is not solenoidal, so the
        # drift column and the projection both do real work.
        spec = _abc_spec(delta=0.5, j=(0.1, -0.05, 0.045), eps=0.6, n=n)
        h0 = df.random_complex_field(n, rng=rng)
        run = evolve.evolve(spec, h0, t_end=0.6, dt=0.03, sample_every=sample_every, project=project)
        ref, final = evolve_reference(spec, h0, 0.6, 0.03, sample_every=sample_every, project=project)
        assert len(run.trace.t) == len(ref.t) == (21 if sample_every == 1 else 4)
        np.testing.assert_allclose(run.trace.t, ref.t, rtol=1e-12)
        np.testing.assert_allclose(run.trace.norm, ref.norm, rtol=1e-12)
        # a slack is 1 - value/bound and reads 0 at t = 0, so it is
        # compared through the ratio value/bound
        for col in ("slack_growth_bound", "slack_energy_estimate"):
            np.testing.assert_allclose(1.0 - getattr(run.trace, col), 1.0 - getattr(ref, col), rtol=1e-12)
        assert ref.div_drift[0] > 0.1
        if project:
            np.testing.assert_allclose(run.trace.div_drift[0], ref.div_drift[0], rtol=1e-12)
            np.testing.assert_allclose(run.trace.div_drift[1:], ref.div_drift[1:], rtol=0, atol=1e-15)
        else:
            np.testing.assert_allclose(run.trace.div_drift, ref.div_drift, rtol=1e-12)
        np.testing.assert_allclose(run.final_state.coeffs, final.coeffs, rtol=1e-12)

    def test_no_per_step_lattice_or_field_work(self, monkeypatch):
        # Lattice maps and fields are built once per run: the number of
        # wavevector grids and SpectralField constructions inside evolve
        # must not grow with the number of steps.
        spec = _abc_spec(n=2)
        h0 = df.random_complex_field(2, rng=np.random.default_rng(3))
        counts = {"wavevectors": 0, "fields": 0}
        wavevectors, post_init = df.wavevectors, df.SpectralField.__post_init__

        def counting_wavevectors(*args, **kwargs):
            counts["wavevectors"] += 1
            return wavevectors(*args, **kwargs)

        def counting_post_init(self):
            counts["fields"] += 1
            post_init(self)

        monkeypatch.setattr(df, "wavevectors", counting_wavevectors)
        monkeypatch.setattr(df.SpectralField, "__post_init__", counting_post_init)

        def counted(steps):
            counts.update(wavevectors=0, fields=0)
            evolve.evolve(spec, h0, t_end=steps * 0.01, dt=0.01, project=True)
            return dict(counts)

        few, many = counted(10), counted(1000)
        assert few["wavevectors"] > 0 and few["fields"] > 0
        assert few == many


def _workload_spec(seed, eps=1.0, n=3):
    """The ABC amplitudes near 0.3 and wavevector, |j| in [0.035, 0.05], the benchmark draws from seed."""
    rng = np.random.default_rng(seed)
    abc = rng.uniform(0.27, 0.33, size=3)
    v = rng.standard_normal(3)
    j = v / np.linalg.norm(v) * rng.uniform(0.035, 0.05)
    return modal.ModalOperatorSpec(flow=df.make_abc(df.AbcParams(*abc)), j=j, eps=eps, truncation=n)


class TestPerStepOracle:
    """evolve, measured a block of states at a time, against the same run measured step by step."""

    @staticmethod
    def _assert_matches(spec, h0, steps, sample_every, project):
        dt = evolve.default_dt(spec)
        run = evolve.evolve(spec, h0, steps * dt, dt, sample_every=sample_every, project=project)
        ref, final = evolve_per_step(spec, h0, steps * dt, dt, sample_every=sample_every, project=project)
        assert len(run.trace.t) == len(ref.t) == 1 + steps // sample_every + (steps % sample_every > 0)
        for col in ("t", "norm", "div_drift"):
            assert np.array_equal(getattr(run.trace, col), getattr(ref, col)), col
        # the slacks go through numpy's log and exp instead of math's
        for col in ("slack_growth_bound", "slack_energy_estimate"):
            np.testing.assert_allclose(getattr(run.trace, col), getattr(ref, col), rtol=0, atol=4.5e-16)
        assert np.array_equal(run.final_state.coeffs.reshape(-1), final)

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("sample_every", [1, 7])
    @pytest.mark.parametrize(("blocks", "extra"), [(0, 1), (1, -1), (1, 0), (1, 1)])
    def test_block_edges(self, blocks, extra, sample_every, project):
        # a run of s steps has s + 1 states: B - 1 steps fill one block of B
        # exactly, B and B + 1 steps spill one and two states into the next
        spec = _workload_spec(1)
        h0 = df.random_complex_field(3, rng=np.random.default_rng(1))
        self._assert_matches(spec, h0, blocks * evolve._block_rows(spec.dim) + extra, sample_every, project)

    @pytest.mark.parametrize("project", [False, True])
    def test_long_run(self, project):
        spec = _workload_spec(1)
        h0 = df.random_complex_field(3, rng=np.random.default_rng(1))
        self._assert_matches(spec, h0, 3000, 1, project)

    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("eps", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_workload_flows(self, seed, eps, project):
        spec = _workload_spec(seed, eps)
        h0 = df.random_complex_field(3, rng=np.random.default_rng(seed))
        self._assert_matches(spec, h0, 2 * evolve._block_rows(spec.dim) + 5, 7, project)

    def test_norm_overflow_mid_block(self):
        # a growing eigenvector scaled so that |c|^2 overflows about half a
        # block into the second block; no numpy warning may escape on the way
        spec = _abc_spec(n=2)
        pair = modal.leading_eigs(spec, count=1)[0]
        dt = evolve.default_dt(spec)
        rows = evolve._block_rows(spec.dim)
        scale = math.sqrt(np.finfo(float).max) * math.exp(-pair.p.real * dt * 1.5 * rows) / pair.field.l2()
        h0 = df.SpectralField(pair.field.coeffs * scale, kind="complex")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpDetected) as ref:
            evolve_per_step(spec, h0, 3 * rows * dt, dt)
        step = round(float(str(ref.value).rsplit("= ", 1)[1]) / dt)
        assert rows < step < 2 * rows - 1
        with pytest.raises(BlowUpDetected) as got:
            evolve.evolve(spec, h0, 3 * rows * dt, dt)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_raises_at_zero(self, bad):
        spec = _abc_spec(n=1)
        c = np.zeros((3, 3, 3, 3), dtype=np.complex128)
        c[2, 1, 1] = [bad, 1.0, 0.0]
        with pytest.raises(BlowUpDetected, match="^norm became non-finite at t = 0$"):
            evolve.evolve(spec, df.SpectralField(c, kind="complex"), t_end=1.0, dt=0.1)

    def test_memory_is_one_block(self):
        # a 3000-step N = 3 run keeps its per-state measurements, one block
        # of states and little else; keeping every state would take 47 MiB
        spec = _workload_spec(1)
        h0 = df.random_complex_field(3, rng=np.random.default_rng(1))
        dt = evolve.default_dt(spec)
        evolve.evolve(spec, h0, 10 * dt, dt)  # the stencil's cached structure
        run, peak = traced_peak(lambda: evolve.evolve(spec, h0, 3000 * dt, dt))
        trace_bytes = sum(getattr(run.trace, col).nbytes for col in evolve.Trace.__dataclass_fields__)
        assert len(run.trace.t) == 3001
        assert peak <= trace_bytes + evolve.BLOCK_BYTES + 2**20
