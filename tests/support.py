"""Slow reference implementations used only as test oracles."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import dynamo.fields as df
import dynamo.modal as dm
from dynamo import alpha
from dynamo import evolve as ev
from dynamo.errors import BlowUpDetected, ConfigError, NumericalError, SolverFailure, TooLarge


class SeriesDiverges(NumericalError):
    """The Neumann series of ``neumann_cell_solve`` does not converge."""


def traced_peak(fn):
    """Result of fn() and the peak bytes it allocated above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def convolve_oracle(f: df.SpectralField, g: df.SpectralField) -> df.SpectralField:
    """Direct double-sum convolution of the cross product (slow reference)."""
    f._binary_check(g)
    nf, ng = f.truncation, g.truncation
    n_out = nf + ng
    out = np.zeros((2 * n_out + 1,) * 3 + (3,), dtype=np.complex128)
    rng_f = df.mode_range(nf)
    rng_g = df.mode_range(ng)
    for i1 in rng_f:
        for i2 in rng_f:
            for i3 in rng_f:
                cf = f.coeffs[i1 + nf, i2 + nf, i3 + nf]
                if not np.any(cf):
                    continue
                for j1 in rng_g:
                    for j2 in rng_g:
                        for j3 in rng_g:
                            cg = g.coeffs[j1 + ng, j2 + ng, j3 + ng]
                            out[i1 + j1 + n_out, i2 + j2 + n_out, i3 + j3 + n_out] += np.cross(cf, cg)
    return df.SpectralField(out, kind="complex")


def cell_data(flow: df.SpectralField, v) -> df.SpectralField:
    """The cell problem's data curl(v x U) for a constant vector v, by an FFT product."""
    return df.curl(df.cross(df.const_field(v), flow))


def assemble_slope_generator(flow: df.SpectralField, j_direction, n: int) -> np.ndarray:
    """Dense matrix of the linear-in-|j| term: i jhat x (U x .) + 2 i jhat . grad.

    The derivative part acts as -2 (jhat . k) on the mode k, so the full
    eps = 1 operator decomposes as L(j) = L(0) + |j| L1 - |j|^2.
    """
    jhat = alpha.unit_direction(j_direction)
    dim = 3 * (2 * n + 1) ** 3
    if dim > dm.DENSE_CAP:
        raise TooLarge(f"dense assembly of dimension {dim} exceeds the cap {dm.DENSE_CAP}")
    diag = np.repeat(-2.0 * np.sum(df.wavevectors(n) * jhat, axis=-1).reshape(-1), 3).astype(np.complex128)
    pattern = dm._pattern(flow, n)
    return pattern.assemble(pattern.entries(df._cross_matrix(1j * jhat), diag)).toarray()


def stencil_oracle(flow: df.SpectralField, n: int, left: np.ndarray, diag: np.ndarray) -> sp.csr_array:
    """The stencil assembled mode by mode through COO: diag plus blocks left(k) . [U(d)]_x at (row k, col k - d)."""
    side = 2 * n + 1
    left = np.broadcast_to(left, (side, side, side, 3, 3)).reshape(-1, 3, 3)
    idx = np.arange(side)
    axis3 = np.arange(3)
    rows, cols, vals = [np.arange(diag.size)], [np.arange(diag.size)], [diag]
    for d in itertools.product(df.mode_range(flow.truncation), repeat=3):
        ud = flow.coeff(d)
        if not np.any(ud):
            continue
        r1, r2, r3 = (idx[max(0, di): side + min(0, di)] for di in d)
        rr = ((r1[:, None, None] * side + r2[None, :, None]) * side + r3[None, None, :]).reshape(-1)
        cc = rr - (d[0] * side + d[1]) * side - d[2]
        blocks = left[rr] @ df._cross_matrix(ud)
        rows.append(np.broadcast_to((3 * rr)[:, None, None] + axis3[:, None], blocks.shape).reshape(-1))
        cols.append(np.broadcast_to((3 * cc)[:, None, None] + axis3, blocks.shape).reshape(-1))
        vals.append(blocks.reshape(-1))
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    keep = vals != 0
    return sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(diag.size, diag.size)).tocsr()


def operator_oracle(spec: dm.ModalOperatorSpec) -> sp.csr_array:
    """``modal._operator`` through ``stencil_oracle``."""
    kappa = spec.shifted_wavevectors()
    diag = np.repeat(-spec.eps * np.sum(kappa * kappa, axis=-1).reshape(-1), 3).astype(np.complex128)
    return stencil_oracle(spec.flow, spec.truncation, df._cross_matrix(1j * kappa), diag)


def leading_eigs_oracle(spec: dm.ModalOperatorSpec, count: int = 6, sigma: complex | None = None,
                        seed: int = 0) -> list[dm.EigPair]:
    """``modal.leading_eigs`` on its own LU of L - sigma I, shifted by sparse arithmetic.

    The shifted matrix is permuted symmetrically into the structure's
    fill-reducing order and factored in its natural order, every slot of
    the structure stored (an entry the shift drops as an explicit zero), so
    SuperLU sees the pattern that ``modal`` factors.
    """
    if sigma is None:
        sigma = 0.1 * spec.eps
    op = dm._operator(spec)
    shifted = (op - sigma * sp.eye_array(spec.dim, format="csr")).toarray()
    layout = dm._pattern(spec.flow, spec.truncation).structure.layout
    cols = np.repeat(np.arange(spec.dim), np.diff(layout.indptr))
    values = shifted[layout.perm[layout.indices], layout.perm[cols]]
    lu = spla.splu(sp.csc_array((values, layout.indices, layout.indptr), shape=op.shape), permc_spec="NATURAL")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(spec.dim) + 0.0j
    opinv = spla.LinearOperator(op.shape, matvec=lambda x: lu.solve(x[layout.perm])[layout.perm_c],
                                dtype=np.complex128)
    vals, vecs = spla.eigs(op, k=count, sigma=sigma, which="LM", v0=v0, OPinv=opinv, rng=rng)
    return [dm._make_pair(op, spec, vals[i], dm.vec_to_field(vecs[:, i], spec.truncation))
            for i in dm.eig_order(vals)]


def node_norms_oracle(res: dm._Resolvent, contour: dm.Contour, weight=None) -> np.ndarray:
    """``modal._node_norms`` with no screen: the exact ||W R(mu)||_2 by ``modal._norm2`` at every node."""
    if weight is None:
        w = w_h = lambda x: x
    else:
        weight_h = weight.conj().T
        w, w_h = (lambda x: weight @ x), (lambda y: weight_h @ y)
    dim = res.matrix.shape[0]
    return np.array([dm._norm2(lambda x: w(lu.solve(x)), lambda y: lu.solve(w_h(y), trans="H"), dim)
                     for lu in map(res.lu, contour.points()[0])])


def fft_residual(spec: dm.ModalOperatorSpec, h: df.SpectralField, p: complex = 0.0,
                 rhs: df.SpectralField | None = None) -> float:
    """||L h - p h - rhs|| relative to ||rhs||, or to ||h|| without one, with L by the FFT ``apply_modal``.

    The eigenpair residual is ``fft_residual(spec, h, p)`` and the cell
    residual ``fft_residual(spec, s, rhs=data)``, computed independently of
    the stencil.
    """
    r = dm.apply_modal(spec, h) - p * df.resize(h, spec.truncation)
    if rhs is None:
        return r.l2() / max(h.l2(), 1e-300)
    return (r - df.resize(rhs, spec.truncation)).l2() / max(rhs.l2(), 1e-300)


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Corrector from the Neumann series with its residual, step count and worst contraction."""

    field: df.SpectralField
    residual: float
    iterations: int = 0
    contraction: float | None = None


def neumann_cell_solve(flow: df.SpectralField, v, tol: float = alpha.DEFAULT_TOL,
                       truncation: int | None = None, max_iter: int = 400) -> SeriesSolution:
    """The cell corrector from the small-flow series, an oracle for ``alpha.solve_cell_problem``.

    Iterates S = Delta^{-1} sum_m w_m with w_0 = data and
    w_{m+1} = -P_N curl(U x Delta^{-1} w_m), stopping once the increment
    falls below tol relative to the data; every product is an FFT product,
    so nothing is shared with the stencil.  At the same truncation it
    converges to the same corrector as the direct solve.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"cell-problem tolerance must be positive and finite, got {tol}")
    v = np.asarray(v, dtype=np.complex128).reshape(3)
    n = alpha._default_truncation(flow) if truncation is None else int(truncation)
    if n < flow.truncation:
        raise ConfigError("cell-problem truncation cannot be smaller than the flow's support")
    data = cell_data(flow, v)
    dnorm = data.l2()
    if dnorm == 0.0:
        return SeriesSolution(df.zero_field(n, kind=data.kind), 0.0)

    w = df.resize(data, n)
    total = w
    prev = dnorm
    worst_ratio = 0.0
    for it in range(1, max_iter + 1):
        w = -df.curl(df.cross(flow, df.inv_laplacian(w), cap=n))
        nw = w.l2()
        ratio = nw / prev
        worst_ratio = max(worst_ratio, ratio)
        if ratio >= 1.0:
            raise SeriesDiverges(
                f"Neumann series not contracting (measured factor {ratio:.3f} at step {it})"
            )
        total = total + w
        if nw <= tol * dnorm:
            break
        prev = nw
    else:
        raise SolverFailure(f"Neumann series below contraction 1 but not at tol after {max_iter} steps")
    s = df.inv_laplacian(total)
    spec = dm.ModalOperatorSpec(flow, np.zeros(3), 1.0, n)
    return SeriesSolution(s, fft_residual(spec, s, rhs=data), iterations=it, contraction=worst_ratio)


def restricted_cell_solve(flow: df.SpectralField, v, n: int) -> df.SpectralField:
    """The cell corrector from the stencil restricted to the nonzero modes, an oracle for ``alpha.solve_cell_problem``.

    Drops the three zero-mode unknowns, where the j = 0 operator's rows
    and the data vanish, and factors what is left by ``splu`` in its
    default (COLAMD) order, with the stencil assembled by ``operator_oracle``.
    """
    a = operator_oracle(dm.ModalOperatorSpec(flow, np.zeros(3), 1.0, n))
    b = dm.field_to_vec(df.resize(cell_data(flow, np.asarray(v, dtype=np.complex128)), n))
    keep = np.setdiff1d(np.arange(b.size), 3 * (b.size // 3 // 2) + np.arange(3))  # the zero mode is the centre
    x = np.zeros_like(b)
    x[keep] = spla.splu(a[keep][:, keep].tocsc()).solve(b[keep])
    return dm.vec_to_field(x, n)


def kernel_basis(flow: df.SpectralField, n: int, tol: float = 1e-12) -> list[df.SpectralField]:
    """Basis v + S(v) of the kernel of the j = 0, eps = 1 operator."""
    basis = []
    for axis in range(3):
        v = np.zeros(3)
        v[axis] = 1.0
        sol = alpha.solve_cell_problem(flow, v, tol=tol, truncation=n)
        basis.append(df.const_field(v) + sol.field)
    return basis


def dense_eigenvalues(spec: dm.ModalOperatorSpec) -> np.ndarray:
    """Every eigenvalue of the dense matrix of L, in ``eig_order``."""
    w = la.eig(dm.assemble_dense(spec), right=False)
    return w[dm.eig_order(w)]


def evolve_reference(spec: dm.ModalOperatorSpec, h0: df.SpectralField, t_end: float, dt: float,
                     sample_every: int = 1, project: bool = False):
    """Field-level reference of ``evolve``: the trace and the final state.

    Every step goes through ``Stepper.step_coeffs`` and every projection and drift
    through the field primitives ``leray_project`` and ``divergence_rel``.
    """
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / steps
    stepper = ev.Stepper(spec)
    grad_bound = df.GRAD_SAFETY * df.sup_grad(spec.flow)
    energy_rate = (df.GRAD_SAFETY * df.sup_value(spec.flow)) ** 2 / spec.eps
    k2 = np.sum(spec.shifted_wavevectors() ** 2, axis=-1)
    h = df.resize(h0, spec.truncation)
    norm0 = h.l2()

    def grad_sq(f):
        return float(np.sum(k2 * np.sum(np.abs(f.coeffs) ** 2, axis=-1)))

    cols = {name: [] for name in ev.Trace.__dataclass_fields__}

    def record(t, f, integral):
        nrm = f.l2()
        cols["t"].append(t)
        cols["norm"].append(nrm)
        growth = norm0 * math.exp(grad_bound * t)
        energy = norm0**2 * math.exp(energy_rate * t)
        cols["slack_growth_bound"].append(1.0 - nrm / growth if norm0 > 0.0 else 1.0)
        cols["slack_energy_estimate"].append(
            1.0 - (nrm**2 + 0.5 * spec.eps * integral) / energy if norm0 > 0.0 else 1.0)
        cols["div_drift"].append(df.divergence_rel(f, shift=spec.j) if nrm > 0.0 else 0.0)

    integral = 0.0
    g_prev = grad_sq(h)
    record(0.0, h, integral)
    for i in range(1, steps + 1):
        h = df.SpectralField(stepper.step_coeffs(h.coeffs, dt), kind="complex")
        if project:
            h = df.leray_project(h, shift=spec.j)
        g_new = grad_sq(h)
        integral += 0.5 * (g_prev + g_new) * dt
        g_prev = g_new
        if i % sample_every == 0 or i == steps:
            record(i * dt, h, integral)
    return ev.Trace(**{name: np.array(v) for name, v in cols.items()}), h


def step_coeffs_reference(stepper: ev.Stepper, c: np.ndarray, dt: float) -> np.ndarray:
    """``Stepper.step_coeffs`` as one expression: every stage a fresh array."""
    e = np.exp(stepper._diag * dt)
    x = c.reshape(-1)
    k1 = stepper._adv @ x
    stage = e * (x + dt * k1)
    k2 = stepper._adv @ stage
    return (e * x + 0.5 * dt * (e * k1 + k2)).reshape(c.shape)


def evolve_per_step(spec: dm.ModalOperatorSpec, h0: df.SpectralField, t_end: float, dt: float,
                    sample_every: int = 1, project: bool = False):
    """``evolve`` measured state by state: the trace and the final coefficients.

    Each step goes through ``step_coeffs_reference``; the drift functional
    (k+j). is a sparse matrix, and the norm, energy term, slacks and drift
    are Python scalars computed after every step, so a non-finite norm
    raises ``BlowUpDetected`` at the step that made it.
    """
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / steps
    stepper = ev.Stepper(spec)
    grad_bound = df.GRAD_SAFETY * df.sup_grad(spec.flow)
    energy_rate = (df.GRAD_SAFETY * df.sup_value(spec.flow)) ** 2 / spec.eps

    kappa = spec.shifted_wavevectors().reshape(-1, 3)
    kappa_sq = np.sum(kappa * kappa, axis=1)
    k2 = np.repeat(kappa_sq, 3)
    kdot = sp.csr_array((kappa.ravel(), (np.repeat(np.arange(len(kappa)), 3), np.arange(spec.dim))),
                        shape=(len(kappa), spec.dim))
    safe_sq = np.where(kappa_sq > 0.0, kappa_sq, 1.0)[:, None]

    def slack(log_bound, value):
        if value <= 0.0:
            return 1.0
        expo = math.log(value) - log_bound
        return -math.inf if expo > 500.0 else 1.0 - math.exp(expo)

    def energy(t, cc):
        a = cc.real**2 + cc.imag**2
        nrm = math.sqrt(float(a.sum()))
        if not math.isfinite(nrm):
            raise BlowUpDetected(f"norm became non-finite at t = {t:.6g}")
        return nrm, float(k2 @ a)

    c = df.resize(h0, spec.truncation).coeffs.reshape(-1)
    norm0, g_prev = energy(0.0, c)
    log_norm0 = math.log(norm0) if norm0 > 0.0 else -math.inf
    cols = {name: [] for name in ev.Trace.__dataclass_fields__}

    def record(t, cc, nrm, integral):
        cols["t"].append(t)
        cols["norm"].append(nrm)
        if norm0 > 0.0:
            cols["slack_growth_bound"].append(slack(log_norm0 + grad_bound * t, nrm))
            lhs = nrm**2 + 0.5 * spec.eps * integral
            cols["slack_energy_estimate"].append(slack(2.0 * log_norm0 + energy_rate * t, lhs))
        else:
            cols["slack_growth_bound"].append(1.0)
            cols["slack_energy_estimate"].append(1.0)
        cols["div_drift"].append(float(np.max(np.abs(kdot @ cc))) / max(nrm, 1e-300) if nrm > 0.0 else 0.0)

    integral = 0.0
    record(0.0, c, norm0, integral)
    for i in range(1, steps + 1):
        c = step_coeffs_reference(stepper, c, dt)
        if project:
            c = (c.reshape(-1, 3) - kappa * (kdot @ c)[:, None] / safe_sq).reshape(-1)
        nrm, g_new = energy(i * dt, c)
        integral += 0.5 * (g_prev + g_new) * dt
        g_prev = g_new
        if i % sample_every == 0 or i == steps:
            record(i * dt, c, nrm, integral)
    return ev.Trace(**{name: np.array(v) for name, v in cols.items()}), c
