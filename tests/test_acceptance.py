"""Acceptance gate: one test per shipping criterion, with pinned tolerances.

Each test prints a single verdict line (visible with -s, or in the failure
report), so a run of this module reads as a checklist.  Criteria marked with
wall-clock budgets assert them too.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la

from dynamo import alpha, bloch
from dynamo import evolve as ev
from dynamo import fields as df
from dynamo import glue, modal
from support import neumann_cell_solve

# evolution runs executed by this module, shared with the energy-bound gate
_RUNS: dict[str, ev.EvolutionRun] = {}


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _abc(delta0: float) -> df.SpectralField:
    return df.make_abc(df.AbcParams(delta0, delta0, delta0))


def _cross_matrix(jhat: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -jhat[2], jhat[1]],
        [jhat[2], 0.0, -jhat[0]],
        [-jhat[1], jhat[0], 0.0],
    ])


def test_01_closed_form_first_order_matrix():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst_mat = 0.0
    worst_eig = 0.0
    for _ in range(5):
        a, b, c = rng.uniform(0.2, 1.5, size=3)
        m = alpha.first_order_matrix(df.make_abc(df.AbcParams(a, b, c)))
        worst_mat = max(worst_mat, np.max(np.abs(m - np.diag([b * b, c * c, a * a]))))
        j = rng.standard_normal(3)
        jhat = j / np.linalg.norm(j)
        ref = la.eigvals(1j * _cross_matrix(jhat) @ np.diag([b * b, c * c, a * a]))
        got = alpha.abc_closed_form(df.AbcParams(a, b, c), j)
        worst_eig = max(
            worst_eig,
            np.max(np.abs(np.sort_complex(ref) - np.sort_complex(got))),
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "electromotive matrix and eigenvalues in closed form",
        worst_mat <= 1e-13 and worst_eig <= 1e-12 and elapsed < 1.0,
        f"matrix defect {worst_mat:.2e} <= 1e-13, eig defect {worst_eig:.2e} "
        f"<= 1e-12, {elapsed:.2f}s < 1s",
    )


def test_02_kernel_dimension_of_base_operator():
    t0 = time.perf_counter()
    spec = modal.ModalOperatorSpec(_abc(0.05), np.zeros(3), 1.0, 3)
    w = la.eigvals(modal.assemble_dense(spec))
    near_zero = int(np.sum(np.abs(w) < 1e-6))
    rest = w[np.abs(w) >= 1e-6]
    elapsed = time.perf_counter() - t0
    _verdict(
        2, "base operator has a three-dimensional kernel",
        near_zero == 3 and np.all(rest.real <= -0.5) and elapsed < 30.0,
        f"{near_zero} eigenvalues with |p| < 1e-6, rest Re <= "
        f"{rest.real.max():.3f}, {elapsed:.1f}s < 30s",
    )


def test_03_first_order_slope_in_wavevector():
    t0 = time.perf_counter()
    report = modal.first_order_check(
        _abc(0.05), [0.0, 0.0, 1.0], [0.01, 0.005, 0.0025], truncation=3
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "remainders vanish superlinearly in |j|",
        report.slope >= 1.8 and elapsed < 120.0,
        f"log-log slope {report.slope:.3f} >= 1.8, {elapsed:.1f}s < 2min",
    )


def test_04_positive_growth_and_time_domain_match():
    t0 = time.perf_counter()
    spec = modal.ModalOperatorSpec(_abc(0.3), [0.0, 0.0, 0.045], 1.0, 3)
    pair = modal.leading_eigs(spec, count=1)[0]
    run = ev.evolve(spec, pair.field, 20.0)
    _RUNS["leading-eigenvector"] = run
    fit = ev.fit_growth(run)
    rel = abs(fit.gamma - pair.p.real) / abs(pair.p.real)
    elapsed = time.perf_counter() - t0
    _verdict(
        4, "unstable mode grows at its eigenvalue rate",
        pair.p.real > 0.0 and rel <= 0.01 and elapsed < 120.0,
        f"Re p = {pair.p.real:.6g} > 0, gamma off by {rel:.2%} <= 1%, "
        f"{elapsed:.1f}s < 2min",
    )


def test_05_diffusivity_continuation_window():
    flow = _abc(0.3)
    j = [0.0, 0.0, 0.045]
    spec = modal.ModalOperatorSpec(flow, j, 1.0, 2)
    pairs = modal.leading_eigs(spec, count=2)
    start = pairs[0]
    result = modal.continue_in_eps(flow, j, start, 0.90, truncation=2)
    held = all(p.p.real >= 0.5 * start.p.real for _, p in result.path)
    gap = abs(start.p - pairs[1].p)
    contour = modal.Contour(start.p, 0.5 * gap, 16)
    est = modal.eps_lipschitz(
        flow, j, start.field, contour,
        1.0 - result.window, 1.0, truncation=2, step=result.window / 4,
    )
    _verdict(
        5, "eigenvalue survives a diffusivity window with Lipschitz increments",
        result.window >= 0.02 and held and est.rel_change <= 0.20,
        f"window {result.window:.3f} >= 0.02, Re p >= half of start along the "
        f"path, constant {est.constant:.3g} stable under halving to "
        f"{est.rel_change:.1%} <= 20%",
    )


def test_06_projector_idempotency_and_perturbation_bound():
    flow = _abc(0.3)
    base = modal.ModalOperatorSpec(flow, np.zeros(3), 1.0, 2)
    proj = modal.RieszProjector(base, modal.Contour(0.0, 0.5, 16))
    cases = [
        (np.zeros(3), 0.95, modal.Contour(0.0, 0.5, 16)),
        (np.array([0.0, 0.0, 0.045]), 0.97, modal.Contour(0.0, 0.5, 16)),
        (np.zeros(3), 0.90, modal.Contour(0.0, 0.4, 16)),
    ]
    bounded = []
    ranks = []
    for j, eps1, contour in cases:
        cmp_ = modal.projector_distance_bound(
            modal.ModalOperatorSpec(flow, j, 1.0, 2),
            modal.ModalOperatorSpec(flow, j, eps1, 2),
            contour,
        )
        bounded.append(cmp_.measured <= cmp_.bound)
        ranks.append(cmp_.rank0 == cmp_.rank1)
    _verdict(
        6, "contour projector is idempotent and perturbation-stable",
        proj.idempotency_defect <= 1e-8 and all(bounded) and all(ranks),
        f"defect {proj.idempotency_defect:.2e} <= 1e-8, measured <= bound and "
        f"rank preserved on {sum(bounded)}/3 dense cases",
    )


def test_07_band_parseval_and_concentration():
    band = bloch.ConstantBand(
        np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.2]), 0.1
    )
    report = bloch.parseval_check(band, 400.0, num=8, r_min=40.0)
    sweep = bloch.concentration_sweep(
        _abc(0.3), [0.0, 0.0, 0.1], 0.1, [1.0, 0.9, 0.81],
        delta=0.1, r_max=100.0, truncation=1, nodes_per_axis=5,
    )
    _verdict(
        7, "band mass matches coefficients and concentrates uniformly",
        report.final_rel_err <= 0.05 and report.decreasing
        and sweep.spread <= 0.10,
        f"rel err {report.final_rel_err:.2%} <= 5% at R = 400 and decreasing, "
        f"radius spread {sweep.spread:.1%} <= 10% over 3 diffusivities",
    )


def test_08_growth_bound_slack_on_every_run():
    spec2 = modal.ModalOperatorSpec(_abc(0.3), [0.0, 0.0, 0.045], 1.0, 2)
    rng = np.random.default_rng(20240811)
    _RUNS["random-start"] = ev.evolve(
        spec2, df.random_complex_field(2, rng), 10.0, project=True
    )
    _RUNS["half-diffusivity"] = ev.evolve(
        modal.ModalOperatorSpec(_abc(0.3), [0.0, 0.0, 0.045], 0.5, 2),
        modal.leading_eigs(spec2, count=1)[0].field, 10.0,
    )
    worst = min(ev.energy_monitor(r).min_slack_growth for r in _RUNS.values())
    _verdict(
        8, "sup-norm growth bound holds along every run",
        worst >= -1e-6,
        f"min relative slack {worst:.2e} >= -1e-6 over {len(_RUNS)} runs",
    )


def test_09_catalog_statics_and_negative_control():
    band = bloch.ConstantBand(
        np.array([1.0, 0.5j, -0.25]), np.array([0.5, 0.4, 0.3]), 0.1
    )
    tail = glue.calibrate_tail_model(band, 40.0, 400.0)
    stream = _abc(0.3)
    catalog = glue.plan_catalog(
        stream, tail, zeta=0.9, ufrak=10.0, n_max=3, ell_max=3
    )
    report = glue.check_catalog(catalog, eps_samples=(0.9, 0.81, 0.729))
    geometric = [
        r for r in report.rows
        if r.name.startswith(("radius-law", "separation", "cutoff-derivatives"))
    ]
    margins_positive = all(r.margin > 0.0 for r in geometric)
    windows = [
        glue.build_datum(catalog, eps).in_energy_window()
        for eps in (0.9, 0.81, 0.729)
    ]
    control = glue.check_catalog(
        glue.plan_catalog(stream, tail, zeta=0.9, ufrak=1.0, n_max=3, ell_max=3)
    )
    _verdict(
        9, "separation-constant catalog passes statics, control fails",
        report.passed and margins_positive and all(windows)
        and len(control.failures()) >= 1,
        f"{len(report.rows)} checks pass ({len(geometric)} geometric with "
        f"positive margin), datum norms in [1/2, 2] at 3 diffusivities, "
        f"control fails {len(control.failures())} check(s)",
    )


def test_10_matrix_free_and_series_oracles_agree():
    flow = _abc(0.3)
    spec = modal.ModalOperatorSpec(flow, [0.0, 0.0, 0.045], 1.0, 3)
    dense = modal.assemble_dense(spec)
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10):
        h = df.random_complex_field(3, rng)
        lhs = modal.field_to_vec(modal.apply_modal(spec, h))
        rhs = dense @ modal.field_to_vec(h)
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    small = df.make_abc(df.AbcParams(0.25, 0.25, 0.25))
    tol = 1e-12
    sd = alpha.solve_cell_problem(small, [1, 0, 0], tol=tol, truncation=3)
    sn = neumann_cell_solve(small, [1, 0, 0], tol=tol, truncation=3)
    diff = (sd.field - sn.field).l2()
    _verdict(
        10, "matrix-free apply and series solve match their dense oracles",
        worst <= 1e-12 and sn.contraction < 0.5 and diff <= 10.0 * tol,
        f"apply defect {worst:.2e} <= 1e-12 on 10 probes, cell solves differ "
        f"by {diff:.2e} <= 1e-11 at contraction {sn.contraction:.2f} < 0.5",
    )
