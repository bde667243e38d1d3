"""Time integration of dH/dt = L(j, eps) H with growth-rate extraction.

The scheme is an integrating-factor Heun rule on the stencil split by its
entry order, diagonal first: the stiff shifted diffusion -eps |k+j|^2 is
integrated exactly in coefficient space, the advection i(k+j) x (U x H)
with a two-stage explicit rule, giving second order overall and
unconditional stability in eps.  Each run records an energy trace with the
per-sample slack of two a-priori bounds,

    ||H(t)||  <= ||H0|| exp(G t),             G = sup-norm of grad U,
    ||H(t)||^2 + (eps/2) int_0^t ||(grad + ij) H||^2
              <= ||H0||^2 exp(||U||_oo^2 t / eps),

so violations beyond discretization tolerance are machine-checkable.

The state of a run is the flat coefficient vector of the modal operator.
What depends only on the lattice (the shifted wavevectors k + j and
|k+j|^2 per component) is built once per run, and the Heun stages live in
buffers the stepper owns, so a step costs the two stencil products of the
scheme, a few passes over the state and one copy of it into a block of
states of about BLOCK_BYTES; with projection the Leray map
c - (k+j)((k+j).c)/|k+j|^2 adds an explicit (k+j).c per mode.  Norms,
trapezoid terms |k+j|^2 |c|^2 of the energy integral and the drift
max |(k+j).c| are measured a block at a time, and the integral, slacks
and sample selection are formed from those arrays after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from . import fields as df
from . import modal
from .errors import BlowUpDetected, ConfigError, SolverFailure, TooLarge
from .modal import ModalOperatorSpec


# bytes of the block of states that evolve writes and measures at a time
BLOCK_BYTES = 1 << 19
# most steps one run may take; every step keeps several floats of trace
MAX_STEPS = 10_000_000


def default_dt(spec: ModalOperatorSpec) -> float:
    """Advective step limit 0.25 / (N ||U||_oo + 1)."""
    return 0.25 / (spec.truncation * df.sup_value(spec.flow) + 1.0)


def _check_dt(dt: float) -> None:
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError(f"time step must be positive and finite, got {dt}")


class Stepper:
    """One-step integrator owning the split sparse operator for a fixed spec.

    The stencil's entries come diagonal first: the shifted diffusion
    -eps |k+j|^2 feeds the integrating factor, the rest is the advection.
    """

    def __init__(self, spec: ModalOperatorSpec):
        self.spec = spec
        self._n = spec.truncation
        pattern, entries = modal._entries(spec)
        self._diag = entries[:spec.dim].real.copy()
        entries[:spec.dim] = 0.0
        self._adv = pattern.assemble(entries)
        self._dt = None
        self._efac = None
        self._k1, self._stage, self._k2 = np.empty((3, spec.dim), dtype=np.complex128)

    def _advect_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = A x by the CSR kernel behind ``A @ x``, summed from zero as it is there."""
        adv = self._adv
        out.fill(0.0)
        _sparsetools.csr_matvec(*adv.shape, adv.indptr, adv.indices, adv.data, x, out)

    def _exp_factor(self, dt: float) -> np.ndarray:
        if dt != self._dt:
            self._dt = dt
            self._efac = np.exp(self._diag * dt)
        return self._efac

    def step_coeffs(self, c: np.ndarray, dt: float) -> np.ndarray:
        """One step of a coefficient array of any shape holding dim values.

        The stages k1 = A x, e (x + dt k1) and k2 = A stage live in buffers
        the stepper owns, so a step allocates only its result
        e x + (dt/2)(e k1 + k2), each rounded as the expressions read.
        The buffers make a stepper unsafe to share between threads.
        """
        e = self._exp_factor(dt)
        x = c.reshape(-1)
        k1, stage, k2 = self._k1, self._stage, self._k2
        if x.shape != k1.shape:  # the CSR kernel reads x unchecked
            raise ConfigError(f"a state of {x.size} coefficients for an operator of dimension {k1.size}")
        self._advect_into(x, k1)
        np.multiply(k1, dt, out=stage)
        stage += x
        stage *= e
        self._advect_into(stage, k2)
        k1 *= e
        k1 += k2
        k1 *= 0.5 * dt
        out = np.multiply(e, x, dtype=np.complex128)
        out += k1
        return out.reshape(c.shape)

    def step(self, h: df.SpectralField, dt: float) -> df.SpectralField:
        _check_dt(dt)
        c = df.resize(h, self._n).coeffs
        out = self.step_coeffs(c, dt)
        if not np.all(np.isfinite(out)):
            raise BlowUpDetected("non-finite state after one step")
        return df.SpectralField(out, kind="complex")


@dataclass(frozen=True)
class Trace:
    t: np.ndarray
    norm: np.ndarray
    slack_growth_bound: np.ndarray
    slack_energy_estimate: np.ndarray
    div_drift: np.ndarray


@dataclass(frozen=True, eq=False)
class EvolutionRun:
    spec: ModalOperatorSpec
    h0: df.SpectralField
    dt: float
    t_end: float
    trace: Trace
    final_state: df.SpectralField
    growth_rate_bound: float       # G in ||H|| <= ||H0|| e^{Gt}
    energy_rate_bound: float       # ||U||_oo^2 / eps
    projected: bool

    def __post_init__(self):
        if np.any(np.diff(self.trace.t) <= 0.0):
            raise SolverFailure("trace timestamps must increase strictly")
        if not np.all(np.isfinite(self.trace.norm)):
            raise SolverFailure("trace norms must be finite")


def _block_rows(dim: int) -> int:
    """Number of states of dim complex coefficients in a block of about BLOCK_BYTES."""
    return max(1, round(BLOCK_BYTES / (16 * dim)))


def _rel_slack_log(log_bound: np.ndarray, value: np.ndarray) -> np.ndarray:
    """1 - value/bound computed through logs (bound may overflow), 1 where value is 0."""
    with np.errstate(divide="ignore"):
        expo = np.log(value) - log_bound
    # a gross violation (expo > 500) reads -inf
    slack = np.where(expo > 500.0, -np.inf, 1.0 - np.exp(np.minimum(expo, 500.0)))
    return np.where(value <= 0.0, 1.0, slack)


def evolve(
    spec: ModalOperatorSpec,
    h0: df.SpectralField,
    t_end: float,
    dt: float | None = None,
    sample_every: int = 1,
    project: bool = False,
) -> EvolutionRun:
    """Run the stepper to t_end, sampling norms, bound slacks, and drift.

    The step count is rounded so samples land on t_end exactly.  With
    project=True the state is re-projected onto the shifted solenoidal
    subspace after every step; by default drift is only monitored.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    if sample_every < 1:
        raise ConfigError("sample_every must be at least 1")
    if dt is None:
        dt = default_dt(spec)
    _check_dt(dt)
    if not t_end / dt <= MAX_STEPS:
        raise TooLarge(f"t_end / dt = {t_end / dt:.3g} steps exceeds the cap of {MAX_STEPS}")
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / steps
    stepper = Stepper(spec)

    grad_bound = df.GRAD_SAFETY * df.sup_grad(spec.flow, ord="2")
    sup_u = df.GRAD_SAFETY * df.sup_value(spec.flow)
    energy_rate = sup_u**2 / spec.eps

    # per-run lattice maps on the flat layout (mode m holds entries 3m..3m+2):
    # (k+j).c per mode is summed from zero, as a sparse product sums, so the
    # shifted divergence is i (k+j).c; the Leray map multiplies by
    # 1/|k+j|^2, as numpy's complex division by a real |k+j|^2 does, and at
    # k + j = 0, where 1 stands in for |k+j|^2, it leaves the mode alone
    kappa = spec.shifted_wavevectors().reshape(-1, 3)
    kappa_sq = np.sum(kappa * kappa, axis=1)
    k2 = np.repeat(kappa_sq, 3)
    inv_sq = 1.0 / np.where(kappa_sq > 0.0, kappa_sq, 1.0)[:, None]
    kappa_c = kappa.astype(np.complex128)

    def kdot(cc):
        """(k+j).c per mode of each state in cc (..., dim)."""
        return np.einsum("...mi,mi->...m", cc.reshape(*cc.shape[:-1], -1, 3), kappa_c)

    # states 0..steps are written into a block of rows and measured a block
    # at a time: norm, |(grad + ij) H|^2 and max |(k+j).c| per state
    h = df.resize(h0, spec.truncation)
    c = h.coeffs.reshape(-1)
    block = np.empty((min(_block_rows(spec.dim), steps + 1), spec.dim), dtype=np.complex128)
    norm, grad_sq, kdot_max = np.empty((3, steps + 1))

    def measure(first, count):
        """Measure states first..first + count - 1, held in block[:count], and consume them."""
        states = block[:count]
        span = slice(first, first + count)
        kdot_max[span] = np.max(np.abs(kdot(states)), axis=1)
        a = states.real**2
        a += np.square(states.imag, out=states.imag)
        nrm = np.sqrt(a.sum(axis=1))
        bad = np.flatnonzero(~np.isfinite(nrm))
        if len(bad):
            raise BlowUpDetected(f"norm became non-finite at t = {(first + int(bad[0])) * dt:.6g}")
        norm[span] = nrm
        grad_sq[span] = np.vecdot(a, k2)

    block[0] = c
    first, row = 0, 1
    # a non-finite state raises at its block's measurement, so overflow
    # and invalid results met on the way there are not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            if row == len(block):
                measure(first, row)
                first, row = i, 0
            c = stepper.step_coeffs(c, dt)
            if project:
                c3 = c.reshape(-1, 3)
                c3 -= kappa * kdot(c)[:, None] * inv_sq
            block[row] = c
            row += 1
        measure(first, row)
    del block

    idx = np.arange(0, steps + 1, sample_every)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    t = idx * dt
    nrm = norm[idx]
    # trapezoid rule on |(grad + ij) H|^2, accumulated step by step
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (grad_sq[:-1] + grad_sq[1:]) * dt)))[idx]
    norm0 = norm[0]
    if norm0 > 0.0:
        log_norm0 = math.log(norm0)
        sg = _rel_slack_log(log_norm0 + grad_bound * t, nrm)
        se = _rel_slack_log(2.0 * log_norm0 + energy_rate * t, nrm**2 + 0.5 * spec.eps * integral)
    else:
        sg, se = np.ones((2, len(idx)))
    trace = Trace(
        t=t,
        norm=nrm,
        slack_growth_bound=sg,
        slack_energy_estimate=se,
        div_drift=np.where(nrm > 0.0, kdot_max[idx] / np.maximum(nrm, 1e-300), 0.0),
    )
    return EvolutionRun(
        spec=spec,
        h0=h,
        dt=dt,
        t_end=t_end,
        trace=trace,
        final_state=df.SpectralField(c.reshape(h.coeffs.shape), kind="complex"),
        growth_rate_bound=grad_bound,
        energy_rate_bound=energy_rate,
        projected=project,
    )


@dataclass(frozen=True)
class GrowthFit:
    gamma: float
    window: tuple[float, float]
    r2: float


def fit_growth(run: EvolutionRun) -> GrowthFit:
    """Least-squares exponential rate over the trailing half of the trace.

    The leading half is discarded to let transients from
    non-eigenvector starts wash out.
    """
    t = run.trace.t
    nrm = run.trace.norm
    i0 = min(round(len(t) / 2), len(t) - 3)
    t, nrm = t[i0:], nrm[i0:]
    if len(t) < 3:
        raise ConfigError("need at least 3 samples in the fit window")
    if np.any(nrm <= 0.0):
        raise SolverFailure("cannot fit a rate through vanishing norms")
    y = np.log(nrm)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return GrowthFit(gamma=float(slope), window=(float(t[0]), float(t[-1])), r2=r2)


@dataclass(frozen=True)
class EnergyReport:
    min_slack_growth: float
    min_slack_energy: float
    growth_violations: int
    energy_violations: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.growth_violations == 0 and self.energy_violations == 0


def energy_monitor(run: EvolutionRun) -> EnergyReport:
    """Flag any sample where a bound is violated by more than 1e-6."""
    tolerance = 1e-6
    sg = run.trace.slack_growth_bound
    se = run.trace.slack_energy_estimate
    return EnergyReport(
        min_slack_growth=float(np.min(sg)),
        min_slack_energy=float(np.min(se)),
        growth_violations=int(np.sum(sg < -tolerance)),
        energy_violations=int(np.sum(se < -tolerance)),
        tolerance=tolerance,
    )


def divergence_drift(run: EvolutionRun) -> float:
    """Worst shifted-divergence residual (relative) seen along the trace."""
    return float(np.max(run.trace.div_drift))
