"""Patchwork catalog: cutoffs, placement, evaluation, data, static checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamo import bloch
from dynamo import fields as df
from dynamo import glue
from dynamo.errors import CatalogInfeasible, ConfigError, SolverFailure

DELTA0 = 0.3


def _stream():
    # Beltrami property: the flow is its own curl, hence its own stream field
    return df.make_abc(df.AbcParams(DELTA0, DELTA0, DELTA0))


def _moderate_catalog(ufrak=0.5, n_max=2, ell_max=2):
    """Loose budgets keep every radius small enough for absolute coordinates."""
    tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
    return glue.plan_catalog(
        _stream(), tail, zeta=0.9, ufrak=ufrak, n_max=n_max, ell_max=ell_max
    )


class TestBudget:
    def test_closed_form(self):
        assert glue.block_budget(10.0, 1, 1) == pytest.approx(np.exp(-22.0) / 10.0)
        assert glue.block_budget(0.5, 2, 3) == pytest.approx(2.0 * np.exp(-5.0))

    @given(
        n=st.integers(min_value=1, max_value=6),
        ell=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_tightens_in_both_labels(self, n, ell):
        b = glue.block_budget(3.0, n, ell)
        assert glue.block_budget(3.0, n + 1, ell) < b
        assert glue.block_budget(3.0, n, ell + 1) < b

    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigError):
            glue.block_budget(10.0, 0, 1)
        with pytest.raises(ConfigError):
            glue.block_budget(-1.0, 1, 1)


class TestTailModel:
    def test_inverse_relationship(self):
        model = glue.TailModel(coefficient=3.0, valid_from=1.0)
        t = model.tail_fraction(model.radius_for(1e-7))
        assert t == pytest.approx(1e-7, rel=1e-12)
        assert model.tail_fraction(1.0) == 1.0  # clipped

    def test_validation(self):
        with pytest.raises(ConfigError):
            glue.TailModel(coefficient=0.0, valid_from=1.0)
        model = glue.TailModel(coefficient=3.0, valid_from=1.0)
        with pytest.raises(ConfigError):
            model.tail_fraction(0.0)
        with pytest.raises(ConfigError):
            model.radius_for(0.0)

    @pytest.mark.parametrize("valid_from", [float("nan"), float("inf"), 0.0, -1.0])
    def test_valid_from_must_be_finite_and_positive(self, valid_from):
        with pytest.raises(ConfigError, match="calibration range"):
            glue.TailModel(coefficient=3.0, valid_from=valid_from)

    def test_calibration_against_band(self):
        band = bloch.ConstantBand(
            np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
        )
        model = glue.calibrate_tail_model(band, 40.0, 400.0)
        # the per-axis Dirichlet tail gives ~ 3/(pi J R); the calibrated
        # coefficient is an upper envelope of the same magnitude
        law = 3.0 / (np.pi * 0.1)
        assert law <= model.coefficient <= 3.0 * law
        # conservative beyond the calibration range
        true_deficit = 1.0 - band.box_mass(1500.0)[0] / band.total_mass()
        assert true_deficit > 0.0
        assert model.tail_fraction(1500.0) >= true_deficit

    def test_rejects_non_inverse_law(self):
        class Quadratic:
            def total_mass(self):
                return 1.0

            def box_mass(self, radii):
                return 1.0 - 0.5 / np.asarray(radii) ** 2

        with pytest.raises(SolverFailure):
            glue.calibrate_tail_model(Quadratic(), 10.0, 100.0)

    def test_rejects_bad_range(self):
        band = bloch.ConstantBand(
            np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.4, 0.3]), 0.1
        )
        with pytest.raises(ConfigError):
            glue.calibrate_tail_model(band, 100.0, 10.0)


class TestCutoff:
    def test_plateau_ramp_and_support(self):
        cut = glue.CutoffSpec(np.zeros(3), 2.0, 6.0)
        r = np.array([0.0, 1.0, 2.0, 4.0, 6.0, 9.0])
        phi = cut.profile_derivatives(r)[0]
        assert np.array_equal(phi[:3], [1.0, 1.0, 1.0])
        assert phi[3] == pytest.approx(0.5)  # quintic ramp midpoint
        assert np.array_equal(phi[4:], [0.0, 0.0])

    def test_c2_joints(self):
        cut = glue.CutoffSpec(np.zeros(3), 2.0, 6.0)
        eps = 1e-7
        for r in (2.0 + eps, 6.0 - eps):
            _, d1, d2 = cut.profile_derivatives(np.array([r]))
            assert abs(d1[0]) < 1e-12
            assert abs(d2[0]) < 1e-5

    @given(
        plateau=st.floats(min_value=0.5, max_value=50.0),
        width=st.floats(min_value=0.1, max_value=20.0),
        frac=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_monotonicity(self, plateau, width, frac):
        cut = glue.CutoffSpec(np.zeros(3), plateau, plateau + width)
        r = frac * (plateau + width)
        phi = cut.profile_derivatives(np.array([r, r + 1e-3 * width]))[0]
        assert 0.0 <= phi[0] <= 1.0
        assert phi[1] <= phi[0] + 1e-15

    def test_derivatives_bit_identical_to_separate_formulas(self, rng):
        cut = glue.CutoffSpec(np.array([0.3, -0.2, 0.1]), 1.5, 4.0)
        unit = rng.standard_normal((4, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        # random points, the center, and points on both radii and just inside them
        pts = np.concatenate((cut.center + rng.uniform(-4.5, 4.5, size=(40, 3)), cut.center[None, :],
                              cut.center + unit * [[1.5], [4.0], [1.5 - 1e-9], [4.0 - 1e-9]]))
        d = pts - cut.center
        r = np.linalg.norm(d, axis=1)
        phi, d1, d2 = cut.profile_derivatives(r)
        u = np.divide(d, r[:, None], out=np.zeros_like(d), where=r[:, None] > 0)
        tang = np.divide(d1, r, out=np.zeros_like(d1), where=r > 0)
        hess = (d2 - tang)[:, None, None] * (u[:, :, None] * u[:, None, :]) + tang[:, None, None] * np.eye(3)[None]
        got = cut.derivatives(pts)
        for g, want in zip(got, (phi, d1[:, None] * u, hess)):
            assert np.array_equal(g, want)

    def test_gradient_and_hessian_against_differences(self, rng):
        cut = glue.CutoffSpec(np.array([0.3, -0.2, 0.1]), 1.5, 4.0)
        pts = cut.center + rng.uniform(-3.5, 3.5, size=(40, 3))
        _, grad, hess = cut.derivatives(pts)
        h = 1e-5
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            dnum = (cut.derivatives(pts + step)[0] - cut.derivatives(pts - step)[0]) / (2 * h)
            assert np.max(np.abs(grad[:, m] - dnum)) < 1e-8
            gnum = (cut.derivatives(pts + step)[1] - cut.derivatives(pts - step)[1]) / (2 * h)
            assert np.max(np.abs(hess[:, :, m] - gnum)) < 1e-7

    def test_measured_budget_brackets(self):
        plateau, width = 3.0, 1.7
        cut = glue.CutoffSpec(np.zeros(3), plateau, plateau + width)
        measured = cut.derivative_budget_measured()
        lower = 1.875 / width
        upper = 1.875 / width + (10.0 / np.sqrt(3.0)) / width**2 + 1.875 / (
            plateau * width
        )
        assert lower <= measured <= upper

    @pytest.mark.parametrize("budget", [0.3, 1e-6, 1e-20])
    def test_ramp_width_meets_budget(self, budget):
        plateau = 2.0 / budget  # radii scale like the inverse budget in use
        width = glue.CutoffSpec.ramp_width_for_budget(plateau, budget)
        cut = glue.CutoffSpec(np.zeros(3), plateau, plateau + width)
        assert cut.derivative_budget_measured() <= budget

    def test_validation(self):
        with pytest.raises(ConfigError):
            glue.CutoffSpec(np.zeros(3), 2.0, 2.0)
        with pytest.raises(ConfigError):
            glue.CutoffSpec(np.zeros(2), 1.0, 2.0)
        with pytest.raises(ConfigError):
            glue.CutoffSpec.ramp_width_for_budget(1.0, 0.0)


class TestBlockValidation:
    def test_rejects_bad_geometry(self):
        ok = dict(n=1, ell=1, quanta=(0, 0, 0), period=5.0, radius=2.0,
                  plateau=4.0, outer=6.0)
        glue.Block(**ok)
        for bad in (
            dict(ok, n=0),
            dict(ok, ell=0),
            dict(ok, quanta=(0.5, 0, 0)),
            dict(ok, period=-1.0),
            dict(ok, radius=0.5),
            dict(ok, plateau=3.0),
            dict(ok, outer=4.0),
        ):
            with pytest.raises(ConfigError):
                glue.Block(**bad)

    def test_center_uses_exact_quanta(self):
        blk = glue.Block(n=1, ell=1, quanta=(3, -2, 0), period=2.0,
                         radius=1.0, plateau=2.0, outer=3.0)
        assert np.array_equal(blk.center, [6.0, -4.0, 0.0])


class TestPlanCatalog:
    def test_deterministic(self):
        a = _moderate_catalog()
        b = _moderate_catalog()
        assert all(x.quanta == y.quanta for x, y in zip(a.blocks, b.blocks))
        assert all(x.radius == y.radius for x, y in zip(a.blocks, b.blocks))

    def test_radius_law_and_growth(self):
        cat = _moderate_catalog()
        for blk in cat.blocks:
            beta = cat.budget(blk)
            assert 1.0 / blk.radius + cat.tail.tail_fraction(blk.radius) < beta
            assert blk.radius >= 1.0
            assert blk.plateau == pytest.approx(2.0 * blk.radius)
        by_label = {(b.n, b.ell): b.radius for b in cat.blocks}
        assert by_label[(1, 2)] > by_label[(1, 1)]
        assert by_label[(2, 1)] > by_label[(1, 1)]

    @pytest.mark.parametrize("ufrak", [355.0, 400.0])
    def test_budget_without_a_finite_radius_is_infeasible(self, ufrak):
        # the budget of block (1, 1) is subnormal at 355, so 2 / beta overflows, and 0.0 at 400
        with pytest.raises(CatalogInfeasible):
            glue.plan_catalog(_stream(), glue.TailModel(12.0, 1.0), ufrak=ufrak)

    def test_pairwise_separation(self):
        cat = _moderate_catalog()
        for i, a in enumerate(cat.blocks):
            for b in cat.blocks[i + 1:]:
                gap = np.linalg.norm(a.center - b.center) - a.outer - b.outer
                assert gap >= 2.0 * max(a.radius, b.radius)

    def test_cutoff_budget_met(self):
        cat = _moderate_catalog()
        for blk in cat.blocks:
            assert blk.cutoff.derivative_budget_measured() <= cat.budget(blk)

    def test_validation(self):
        tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
        with pytest.raises(ConfigError):
            glue.plan_catalog(_stream(), tail, zeta=0.4)
        with pytest.raises(ConfigError):
            glue.plan_catalog(_stream(), tail, n_max=0)
        with pytest.raises(ConfigError):
            glue.plan_catalog(_stream(), tail, margin=0.95)

    def test_catalog_rejects_overlapping_blocks(self):
        cat = _moderate_catalog()
        shifted = glue.Block(
            n=1, ell=2, quanta=(1, 0, 0), period=cat.blocks[0].period,
            radius=cat.blocks[1].radius, plateau=cat.blocks[1].plateau,
            outer=cat.blocks[1].outer,
        )
        with pytest.raises(ConfigError, match="separation"):
            glue.BlockCatalog(
                stream=cat.stream, zeta=cat.zeta, ufrak=cat.ufrak,
                tail=cat.tail, blocks=(cat.blocks[0], shifted),
            )

    def test_scaled_stream_matches_rescaled_flow(self):
        cat = _moderate_catalog()
        for n in (1, 2):
            direct = df.curl(cat.stream_for(n))
            # the velocity rescaled directly: zeta^(n/2) curl(stream)(x / zeta^(n/2))
            f = cat.zeta ** (n / 2.0)
            oracle = df.SpectralField(df.curl(cat.stream).coeffs * f, scale=f)
            assert direct.scale == pytest.approx(oracle.scale)
            np.testing.assert_allclose(
                direct.coeffs, oracle.coeffs, rtol=0, atol=1e-15
            )


class TestEvaluate:
    def test_plateau_reproduces_scaled_flow_exactly(self):
        cat = _moderate_catalog()
        blk = cat.blocks[2]
        idx = 2
        offsets = np.array([
            [0.0, 0.0, 0.0], [1.0, 2.0, -3.0], [-4.0, 0.5, 2.5],
            [0.3 * blk.plateau, -0.4 * blk.plateau, 0.1 * blk.plateau],
        ])
        pts = blk.center + offsets
        ev = glue.evaluate_velocity(cat, pts)
        flow = df.eval_at_points(df.curl(cat.stream_for(blk.n)), pts - blk.center).real
        jac = df.eval_jacobian_at_points(
            df.curl(cat.stream_for(blk.n)), pts - blk.center
        ).real
        np.testing.assert_array_equal(ev.velocity, flow)
        np.testing.assert_array_equal(ev.gradient, jac)
        assert np.all(ev.block_index == idx)

    def test_zero_outside_all_supports(self):
        cat = _moderate_catalog()
        far = np.array([[1e7, -3e7, 2e7], [0.0, 5e6, 0.0]])
        ev = glue.evaluate_velocity(cat, far)
        assert np.all(ev.velocity == 0.0)
        assert np.all(ev.gradient == 0.0)
        assert np.all(ev.block_index == -1)

    def test_gradient_matches_differences_in_ramp(self):
        cat = _moderate_catalog()
        blk = cat.blocks[0]
        dirs = np.array([[1.0, 0.2, -0.4], [-0.3, 1.0, 0.5], [0.6, -0.7, 1.0]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        r = 0.5 * (blk.plateau + blk.outer)
        offsets = r * dirs
        grad = glue.evaluate_block(cat, 0, offsets).gradient
        h = 1e-4
        for m in range(3):
            step = np.zeros(3)
            step[m] = h
            plus = glue.evaluate_block(cat, 0, offsets + step).velocity
            minus = glue.evaluate_block(cat, 0, offsets - step).velocity
            dnum = (plus - minus) / (2 * h)
            assert np.max(np.abs(grad[:, :, m] - dnum)) < 1e-6

    def test_analytic_divergence_cancels(self):
        # trace of the product-rule gradient cancels algebraically:
        # d(phi) . U from the transport term against the curl of psi
        cat = _moderate_catalog()
        r = 0.5 * (cat.blocks[0].plateau + cat.blocks[0].outer)
        offsets = r * np.array([[0.6, 0.64, 0.48], [-0.8, 0.6, 0.0]])
        ev = glue.evaluate_block(cat, 0, offsets)
        scale = np.max(np.abs(ev.gradient))
        assert np.max(np.abs(ev.divergence())) < 1e-12 * scale

    def test_sampled_divergence_small_and_second_order(self):
        cat = _moderate_catalog()
        blk = cat.blocks[0]
        dirs = np.array([[1.0, 0.3, -0.2], [-0.5, 1.0, 0.7]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.array([0.5 * blk.plateau, 0.5 * (blk.plateau + blk.outer),
                          0.95 * blk.outer])
        offsets = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        scale = np.max(np.abs(glue.evaluate_block(cat, 0, offsets).gradient))
        fine = np.max(np.abs(glue.sampled_divergence(cat, 0, offsets, 3e-5)))
        assert fine / scale < 1e-8
        coarse = np.max(np.abs(glue.sampled_divergence(cat, 0, offsets, 5e-3)))
        halved = np.max(np.abs(glue.sampled_divergence(cat, 0, offsets, 2.5e-3)))
        assert coarse / halved == pytest.approx(4.0, abs=0.5)

    def test_block_and_absolute_paths_agree(self):
        cat = _moderate_catalog()
        blk = cat.blocks[1]
        offsets = np.array([[2.0, -1.0, 0.5], [0.9 * blk.outer, 0.0, 0.0]])
        local = glue.evaluate_block(cat, 1, offsets)
        absolute = glue.evaluate_velocity(cat, blk.center + offsets)
        np.testing.assert_allclose(local.velocity, absolute.velocity, atol=1e-10)
        np.testing.assert_allclose(local.gradient, absolute.gradient, atol=1e-10)

    def test_validation(self):
        cat = _moderate_catalog()
        with pytest.raises(ConfigError):
            glue.evaluate_block(cat, 99, np.zeros((1, 3)))
        with pytest.raises(ConfigError):
            glue.sampled_divergence(cat, 0, np.zeros((1, 3)), 0.0)
        good = glue.evaluate_velocity(cat, np.zeros((2, 3)))
        with pytest.raises(SolverFailure):
            glue.GluedEvaluation(
                points=good.points,
                velocity=np.full_like(good.velocity, np.inf),
                gradient=good.gradient,
                block_index=good.block_index,
            )
        with pytest.raises(ConfigError):
            glue.GluedEvaluation(
                points=good.points, velocity=good.velocity[:1],
                gradient=good.gradient, block_index=good.block_index,
            )


class TestDatum:
    def test_weights_and_row_selection(self):
        cat = _moderate_catalog()
        datum = glue.build_datum(cat, 0.9)
        assert datum.scale_step == 1
        np.testing.assert_allclose(datum.weights, [1.0, 0.25])
        assert all(cat.blocks[i].n == 1 for i in datum.block_indices)
        boundary = glue.build_datum(cat, 0.81)
        assert boundary.scale_step == 2

    def test_missing_row_rejected(self):
        cat = _moderate_catalog()
        with pytest.raises(ConfigError):
            glue.build_datum(cat, 0.999)  # shrink step 0: no such row
        with pytest.raises(ConfigError):
            glue.build_datum(cat, 0.5)  # shrink step beyond n_max

    def test_norm_interval_tight_and_in_window(self):
        cat = _moderate_catalog()
        datum = glue.build_datum(cat, 0.9)
        lo, hi = datum.norm_interval
        expected = np.sqrt(sum(w**2 for w in datum.weights))
        assert lo <= expected <= hi
        assert hi - lo < 0.2
        assert datum.in_energy_window()
        assert datum.first_term_plateau_norm > 0.9


@pytest.fixture(scope="module")
def strict_catalog():
    band = bloch.ConstantBand(
        np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
    )
    tail = glue.calibrate_tail_model(band, 40.0, 400.0)
    return glue.plan_catalog(
        _stream(), tail, zeta=0.9, ufrak=10.0, n_max=2, ell_max=2
    )


class TestCheckCatalog:
    def test_strict_catalog_passes_everything(self, strict_catalog):
        report = glue.check_catalog(strict_catalog, eps_samples=(0.9, 0.81))
        assert report.passed
        for row in report.rows:
            if row.strict:
                assert row.margin > 0.0, row.name
        names = [r.name for r in report.rows]
        assert any(n.startswith("radius-law") for n in names)
        assert any(n.startswith("separation") for n in names)
        assert any(n.startswith("cutoff-derivatives") for n in names)
        assert any(n.startswith("solenoidality") for n in names)
        assert any(n.startswith("datum-norm") for n in names)

    def test_small_constant_fails_hypothesis_rows(self):
        tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
        cat = glue.plan_catalog(
            _stream(), tail, zeta=0.9, ufrak=1.0, n_max=1, ell_max=1
        )
        report = glue.check_catalog(cat)
        assert not report.passed
        failed = {r.name for r in report.failures()}
        assert "hypothesis-floor" in failed
        assert "stream-comparison" in failed
        # the geometric inequalities themselves adapt to any constant
        for row in report.rows:
            if row.name.startswith(("radius-law", "cutoff-derivatives", "separation")):
                assert row.passed, row.name

    def test_stream_constant_is_modest(self, strict_catalog):
        report = glue.check_catalog(strict_catalog)
        assert 1.0 <= report.stream_constant < 10.0

    def test_dyadic_sweep_reports_first_pass(self):
        tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
        value, reports = glue.smallest_passing_constant(
            _stream(), tail, n_max=1, ell_max=1,
            candidates=(1.0, 2.0, 4.0, 8.0, 16.0),
        )
        assert value == 16.0
        assert reports[16.0].passed
        assert not any(reports[u].passed for u in (1.0, 2.0, 4.0, 8.0))

    def test_sweep_with_no_winner_raises(self):
        tail = glue.TailModel(coefficient=5.0, valid_from=1.0)
        with pytest.raises(CatalogInfeasible):
            glue.smallest_passing_constant(
                _stream(), tail, n_max=1, ell_max=1, candidates=(1.0, 2.0)
            )


class TestCatalogIO:
    def test_roundtrip_exact(self, tmp_path):
        cat = _moderate_catalog()
        path = tmp_path / "catalog.txt"
        glue.save_catalog(cat, path)
        back = glue.load_catalog(path)
        assert back.zeta == cat.zeta and back.ufrak == cat.ufrak
        assert back.tail == cat.tail
        for a, b in zip(cat.blocks, back.blocks):
            assert a.quanta == b.quanta
            assert (a.radius, a.plateau, a.outer) == (b.radius, b.plateau, b.outer)
        np.testing.assert_array_equal(back.stream.coeffs, cat.stream.coeffs)

    def test_snapshot_bytes_deterministic(self, tmp_path):
        cat = _moderate_catalog()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir(), d2.mkdir()
        glue.save_catalog(cat, d1 / "catalog.txt")
        glue.save_catalog(cat, d2 / "catalog.txt")
        assert (d1 / "catalog.txt").read_bytes() == (d2 / "catalog.txt").read_bytes()
        assert (d1 / "catalog.txt.stream").read_bytes() == (
            d2 / "catalog.txt.stream"
        ).read_bytes()

    @pytest.mark.parametrize("valid_from", ["nan", "inf"])
    def test_rejects_non_finite_tail_range(self, tmp_path, valid_from):
        path = tmp_path / "catalog.txt"
        glue.save_catalog(_moderate_catalog(), path)
        lines = path.read_text().splitlines()
        tail = [i for i, line in enumerate(lines) if line.startswith("tail ")]
        assert len(tail) == 1
        lines[tail[0]] = f"tail {lines[tail[0]].split()[1]} {valid_from}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="calibration range"):
            glue.load_catalog(path)

    def test_rejects_foreign_and_truncated(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a catalog\n")
        with pytest.raises(ConfigError):
            glue.load_catalog(bad)
        cat = _moderate_catalog()
        path = tmp_path / "catalog.txt"
        glue.save_catalog(cat, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError):
            glue.load_catalog(path)
