"""Time integration of dH/dt = L(j, eps) H with growth-rate extraction.

The scheme is an integrating-factor Heun rule: the stiff shifted diffusion
-eps |k+j|^2 is integrated exactly in coefficient space, the advective
term i(k+j) x (U x H) with a two-stage explicit rule, giving second order
overall and unconditional stability in eps.  Each run records an energy
trace with the per-sample slack of two a-priori bounds,

    ||H(t)||  <= ||H0|| exp(G t),             G = sup-norm of grad U,
    ||H(t)||^2 + (eps/2) int_0^t ||(grad + ij) H||^2
              <= ||H0||^2 exp(||U||_oo^2 t / eps),

so violations beyond discretization tolerance are machine-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fields as df
from . import modal
from .errors import BlowUpDetected, ConfigError, SolverFailure
from .modal import ModalOperatorSpec


def default_dt(spec: ModalOperatorSpec) -> float:
    """Advective step limit 0.25 / (N ||U||_oo + 1)."""
    return 0.25 / (spec.truncation * df.sup_value(spec.flow) + 1.0)


class Stepper:
    """One-step integrator owning the split sparse operator for a fixed spec.

    The diagonal of the stencil is the shifted diffusion -eps |k+j|^2 and
    feeds the integrating factor; the off-diagonal part is the advection.
    """

    def __init__(self, spec: ModalOperatorSpec):
        self.spec = spec
        self._n = spec.truncation
        a = modal._operator(spec)
        d = a.diagonal()
        self._diag = d.real.reshape((2 * self._n + 1,) * 3 + (3,))
        self._adv = a - sp.diags_array(d)
        self._dt = None
        self._efac = None

    def _advect(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of i(k+j) x (U x H) truncated to N."""
        return (self._adv @ coeffs.reshape(-1)).reshape(coeffs.shape)

    def _exp_factor(self, dt: float) -> np.ndarray:
        if dt != self._dt:
            self._dt = dt
            self._efac = np.exp(self._diag * dt)
        return self._efac

    def step_coeffs(self, c: np.ndarray, dt: float) -> np.ndarray:
        e = self._exp_factor(dt)
        k1 = self._advect(c)
        stage = e * (c + dt * k1)
        k2 = self._advect(stage)
        return e * c + 0.5 * dt * (e * k1 + k2)

    def step(self, h: df.SpectralField, dt: float) -> df.SpectralField:
        if dt <= 0.0:
            raise ConfigError("time step must be positive")
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


def _rel_slack_log(log_bound: float, value: float) -> float:
    """1 - value/bound computed through logs (bound may overflow)."""
    if value <= 0.0:
        return 1.0
    expo = math.log(value) - log_bound
    if expo > 500.0:  # pragma: no cover - gross violation
        return -math.inf
    return 1.0 - math.exp(expo)


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
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    if sample_every < 1:
        raise ConfigError("sample_every must be at least 1")
    if dt is None:
        dt = default_dt(spec)
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / steps
    stepper = Stepper(spec)

    grad_bound = df.GRAD_SAFETY * df.sup_grad(spec.flow, ord="2")
    sup_u = df.GRAD_SAFETY * df.sup_value(spec.flow)
    energy_rate = sup_u**2 / spec.eps

    h = df.resize(h0, spec.truncation)
    c = h.coeffs.copy()
    k2 = np.sum(spec.shifted_wavevectors() ** 2, axis=-1)
    norm0 = float(np.sqrt(np.sum(np.abs(c) ** 2)))
    log_norm0 = math.log(norm0) if norm0 > 0.0 else -math.inf

    def grad_sq(cc):
        return float(np.sum(k2 * np.sum(np.abs(cc) ** 2, axis=-1)))

    ts, norms, sg, se, dd = [], [], [], [], []

    def record(t, cc, integral):
        nrm = float(np.sqrt(np.sum(np.abs(cc) ** 2)))
        if not math.isfinite(nrm):
            raise BlowUpDetected(f"norm became non-finite at t = {t:.6g}")
        ts.append(t)
        norms.append(nrm)
        if norm0 > 0.0:
            sg.append(_rel_slack_log(log_norm0 + grad_bound * t, nrm))
            lhs = nrm**2 + 0.5 * spec.eps * integral
            se.append(_rel_slack_log(2.0 * log_norm0 + energy_rate * t, lhs))
        else:
            sg.append(1.0)
            se.append(1.0)
        fld = df.SpectralField(cc, kind="complex")
        dd.append(df.divergence_rel(fld, shift=spec.j) if nrm > 0.0 else 0.0)

    integral = 0.0
    g_prev = grad_sq(c)
    record(0.0, c, integral)
    for i in range(1, steps + 1):
        c = stepper.step_coeffs(c, dt)
        if project:
            c = df.leray_project(df.SpectralField(c, kind="complex"), shift=spec.j).coeffs
        g_new = grad_sq(c)
        integral += 0.5 * (g_prev + g_new) * dt
        g_prev = g_new
        if i % sample_every == 0 or i == steps:
            record(i * dt, c, integral)

    trace = Trace(
        t=np.array(ts),
        norm=np.array(norms),
        slack_growth_bound=np.array(sg),
        slack_energy_estimate=np.array(se),
        div_drift=np.array(dd),
    )
    return EvolutionRun(
        spec=spec,
        h0=h,
        dt=dt,
        t_end=t_end,
        trace=trace,
        final_state=df.SpectralField(c, kind="complex"),
        growth_rate_bound=grad_bound,
        energy_rate_bound=energy_rate,
        projected=project,
    )


@dataclass(frozen=True)
class GrowthFit:
    gamma: float
    window: tuple[float, float]
    r2: float


def fit_growth(run: EvolutionRun, window_fraction: float = 0.5) -> GrowthFit:
    """Least-squares exponential rate over the trailing window of the trace.

    The leading samples are discarded to let transients from
    non-eigenvector starts wash out.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ConfigError("window_fraction must lie in (0, 1]")
    t = run.trace.t
    nrm = run.trace.norm
    i0 = min(int(round(len(t) * (1.0 - window_fraction))), len(t) - 3)
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


def energy_monitor(run: EvolutionRun, tolerance: float = 1e-6) -> EnergyReport:
    """Flag any sample where a bound is violated beyond the tolerance."""
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
