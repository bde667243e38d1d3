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

The state of a run is the flat coefficient vector of the modal operator.
Everything that depends only on the lattice (the shifted wavevectors
k + j, |k+j|^2 per component, the functional c -> (k+j).c and with it the
Leray map c - (k+j)((k+j).c)/|k+j|^2) is built once per run, so a step
costs the two stencil products of the scheme plus one |c|^2, which feeds
both the trace norm and the trapezoid term |k+j|^2 |c|^2 of the energy
integral.  The shifted divergence i(k+j).c is formed only at samples.
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


def _check_dt(dt: float) -> None:
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ConfigError(f"time step must be positive and finite, got {dt}")


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
        self._diag = d.real
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
        """One step of a coefficient array of any shape holding dim values."""
        e = self._exp_factor(dt)
        x = c.reshape(-1)
        k1 = self._advect(x)
        stage = e * (x + dt * k1)
        k2 = self._advect(stage)
        return (e * x + 0.5 * dt * (e * k1 + k2)).reshape(c.shape)

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
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    if sample_every < 1:
        raise ConfigError("sample_every must be at least 1")
    if dt is None:
        dt = default_dt(spec)
    _check_dt(dt)
    steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / steps
    stepper = Stepper(spec)

    grad_bound = df.GRAD_SAFETY * df.sup_grad(spec.flow, ord="2")
    sup_u = df.GRAD_SAFETY * df.sup_value(spec.flow)
    energy_rate = sup_u**2 / spec.eps

    # per-run lattice maps on the flat layout (mode m holds entries 3m..3m+2):
    # kdot c = (k+j).c per mode, so the shifted divergence is i kdot c; the
    # Leray map repeats leray_project's arithmetic, and at k + j = 0, where
    # 1 stands in for |k+j|^2, it leaves the mode alone
    kappa = spec.shifted_wavevectors().reshape(-1, 3)
    kappa_sq = np.sum(kappa * kappa, axis=1)
    k2 = np.repeat(kappa_sq, 3)
    kdot = sp.csr_array((kappa.ravel(), (np.repeat(np.arange(len(kappa)), 3), np.arange(spec.dim))),
                        shape=(len(kappa), spec.dim))
    safe_sq = np.where(kappa_sq > 0.0, kappa_sq, 1.0)[:, None]

    def leray(cc):
        return (cc.reshape(-1, 3) - kappa * (kdot @ cc)[:, None] / safe_sq).reshape(-1)

    def energy(t, cc):
        """Norm and |(grad + ij) H|^2 from one |c|^2."""
        a = cc.real**2 + cc.imag**2
        nrm = math.sqrt(float(a.sum()))
        if not math.isfinite(nrm):
            raise BlowUpDetected(f"norm became non-finite at t = {t:.6g}")
        return nrm, float(k2 @ a)

    h = df.resize(h0, spec.truncation)
    c = h.coeffs.reshape(-1)
    norm0, g_prev = energy(0.0, c)
    log_norm0 = math.log(norm0) if norm0 > 0.0 else -math.inf

    ts, norms, sg, se, dd = [], [], [], [], []

    def record(t, cc, nrm, integral):
        ts.append(t)
        norms.append(nrm)
        if norm0 > 0.0:
            sg.append(_rel_slack_log(log_norm0 + grad_bound * t, nrm))
            lhs = nrm**2 + 0.5 * spec.eps * integral
            se.append(_rel_slack_log(2.0 * log_norm0 + energy_rate * t, lhs))
        else:
            sg.append(1.0)
            se.append(1.0)
        dd.append(float(np.max(np.abs(kdot @ cc))) / max(nrm, 1e-300) if nrm > 0.0 else 0.0)

    integral = 0.0
    record(0.0, c, norm0, integral)
    for i in range(1, steps + 1):
        c = stepper.step_coeffs(c, dt)
        if project:
            c = leray(c)
        nrm, g_new = energy(i * dt, c)
        integral += 0.5 * (g_prev + g_new) * dt
        g_prev = g_new
        if i % sample_every == 0 or i == steps:
            record(i * dt, c, nrm, integral)

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
