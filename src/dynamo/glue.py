"""Compactly supported patchwork velocities glued from rescaled stream fields.

A catalog places countably many disjoint blocks in space.  Block (n, l)
carries the rescaled stream field at shrink step n under a radial cutoff
whose plateau covers the concentration region of a translated wave-packet
datum.  All geometric budgets tighten exponentially in (n, l) through a
single separation constant, so radii and ramp widths grow far beyond any
grid; the module therefore keeps geometry symbolic: centers are exact
integer multiples of each block's stream period, tails go through a
calibrated inverse-radius law, and field evaluation happens in block-local
coordinates where the periodic reduction is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fields as df
from .bloch import scale_index
from .errors import CatalogInfeasible, ConfigError, SolverFailure

__all__ = [
    "TailModel",
    "calibrate_tail_model",
    "CutoffSpec",
    "Block",
    "BlockCatalog",
    "block_budget",
    "plan_catalog",
    "GluedEvaluation",
    "evaluate_velocity",
    "evaluate_block",
    "sampled_divergence",
    "InitialDatum",
    "build_datum",
    "CheckRow",
    "CatalogReport",
    "check_catalog",
    "smallest_passing_constant",
    "save_catalog",
    "load_catalog",
]

# Extrema of the quintic ramp p(s) = 10s^3 - 15s^4 + 6s^5 on [0, 1]:
# max |p'| = 30/16 at s = 1/2 and max |p''| = 10/sqrt(3) at s = 1/2 +- 1/(2 sqrt 3).
_GRAD_PEAK = 1.875
_HESS_PEAK = 10.0 / math.sqrt(3.0)


def block_budget(ufrak: float, n: int, ell: int) -> float:
    """Shared tolerance (1/U) exp(-(n+1) - U(l+1)) for radii, tails and ramps."""
    if ufrak <= 0.0 or not np.isfinite(ufrak):
        raise ConfigError(f"separation constant must be positive, got {ufrak}")
    if n < 1 or ell < 1:
        raise ConfigError("block labels start at (1, 1)")
    return math.exp(-(n + 1) - ufrak * (ell + 1)) / ufrak


def _period(zeta: float, n: int) -> float:
    """Period 2 pi zeta^{n/2} of the scale-n stream."""
    return 2.0 * np.pi * zeta ** (n / 2.0)


# ---------------------------------------------------------------------------
# tail bookkeeping


@dataclass(frozen=True)
class TailModel:
    """Inverse-radius law for the mass fraction outside a centered cube.

    tail(R) ~ coefficient / R is the exact decay rate of band-limited
    packets (per-axis Dirichlet tails fall like 1/R); the coefficient is
    calibrated as an upper envelope on a resolved range of radii and the
    law is extrapolated beyond it, where the target radii live.
    """

    coefficient: float
    valid_from: float

    def __post_init__(self):
        if self.coefficient <= 0.0 or not np.isfinite(self.coefficient):
            raise ConfigError("tail coefficient must be positive and finite")
        if not (self.valid_from > 0.0 and np.isfinite(self.valid_from)):
            raise ConfigError("calibration range must start at a positive finite radius")

    def tail_fraction(self, radius: float) -> float:
        if radius <= 0.0:
            raise ConfigError("tail fraction needs a positive radius")
        return min(1.0, self.coefficient / radius)

    def radius_for(self, tail_target: float) -> float:
        """Smallest modeled radius whose tail fraction is below the target."""
        if tail_target <= 0.0:
            raise ConfigError("tail target must be positive")
        return self.coefficient / tail_target


def calibrate_tail_model(band, r_lo: float, r_hi: float) -> TailModel:
    """Fit the inverse-radius envelope against measured box-mass deficits.

    ``band`` is anything with total_mass()/box_mass(radii); the deficits on
    a geometric ladder of 12 radii must follow a 1/R law (log-log slope within
    0.35 of -1), otherwise the data cannot support extrapolation.
    """
    if not (0.0 < r_lo < r_hi):
        raise ConfigError("need 0 < r_lo < r_hi for tail calibration")
    radii = np.geomspace(r_lo, r_hi, 12)
    total = band.total_mass()
    if total <= 0.0:
        raise ConfigError("cannot calibrate the tail of a zero datum")
    deficits = 1.0 - np.asarray(band.box_mass(radii)) / total
    if np.any(deficits <= 0.0):
        raise SolverFailure("box mass reached the total inside the calibration range")
    slope = np.polyfit(np.log(radii), np.log(deficits), 1)[0]
    if abs(slope + 1.0) > 0.35:
        raise SolverFailure(
            f"tail is not an inverse-radius law on [{r_lo:g}, {r_hi:g}]"
            f" (log-log slope {slope:.3f})"
        )
    coefficient = 1.25 * float(np.max(deficits * radii))
    return TailModel(coefficient=coefficient, valid_from=float(r_lo))


# ---------------------------------------------------------------------------
# radial cutoffs


@dataclass(frozen=True, eq=False)
class CutoffSpec:
    """Radial C^2 bump: 1 inside the plateau ball, quintic ramp to 0.

    The ramp is p(s) = 10s^3 - 15s^4 + 6s^5 in the normalized radial
    coordinate s = (r - plateau)/(outer - plateau), so first and second
    derivatives vanish at both joints and every derivative bound is an
    explicit constant over the ramp width.
    """

    center: np.ndarray
    plateau: float
    outer: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        if c.shape != (3,) or not np.all(np.isfinite(c)):
            raise ConfigError("cutoff center must be a finite 3-vector")
        if not (0.0 < self.plateau < self.outer) or not np.isfinite(self.outer):
            raise ConfigError("need 0 < plateau < outer cutoff radius")

    @property
    def width(self) -> float:
        return self.outer - self.plateau

    def _ramp(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
        dp = 30.0 * s**2 * (1.0 - s) ** 2
        d2p = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
        return 1.0 - p, -dp / self.width, -d2p / self.width**2

    def profile_derivatives(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi, phi', phi'') at radial distances r from the center."""
        r = np.asarray(r, dtype=float)
        phi = np.ones_like(r)
        d1 = np.zeros_like(r)
        d2 = np.zeros_like(r)
        phi[r >= self.outer] = 0.0
        ramp = (r > self.plateau) & (r < self.outer)
        if np.any(ramp):
            s = (r[ramp] - self.plateau) / self.width
            phi[ramp], d1[ramp], d2[ramp] = self._ramp(s)
        return phi, d1, d2

    def derivatives(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi, grad phi, D^2 phi) at the points, from one radial evaluation.

        The gradient is phi' times the unit offset; the Hessian is phi'' on
        the radial direction and phi'/r on the two tangential ones.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts - self.center
        r = np.linalg.norm(d, axis=1)
        phi, d1, d2 = self.profile_derivatives(r)
        unit = np.divide(d, r[:, None], out=np.zeros_like(d), where=r[:, None] > 0)
        tang = np.divide(d1, r, out=np.zeros_like(d1), where=r > 0)
        outer = unit[:, :, None] * unit[:, None, :]
        eye = np.eye(3)[None, :, :]
        return phi, d1[:, None] * unit, (d2 - tang)[:, None, None] * outer + tang[:, None, None] * eye

    def derivative_budget_measured(self) -> float:
        """sup over the ramp of |grad phi| + ||D^2 phi||_2 (4001 radial samples).

        The Hessian of a radial profile has eigenvalues phi'' (radial) and
        phi'/r (tangential, double), so the spectral norm is their max.
        """
        s = np.linspace(0.0, 1.0, 4001)
        r = self.plateau + s * self.width
        _, d1, d2 = self._ramp(s)
        matnorm = np.maximum(np.abs(d2), np.abs(d1) / r)
        return float(np.max(np.abs(d1) + matnorm))

    @staticmethod
    def ramp_width_for_budget(plateau: float, budget: float) -> float:
        """Width making G/w + H/w^2 + G/(plateau w) <= budget (G, H ramp peaks).

        That sum dominates |grad phi| + ||D^2 phi||_2 pointwise, so the
        returned width meets the budget with the planning slack built in.
        """
        if budget <= 0.0 or not np.isfinite(budget):
            raise ConfigError("derivative budget must be positive and finite")
        if plateau <= 0.0:
            raise ConfigError("plateau radius must be positive")
        b = _GRAD_PEAK * (1.0 + 1.0 / plateau)
        # conjugate form of the positive quadratic root: stable when the
        # budget is many orders below the gradient peak
        x = 2.0 * budget / (b + math.sqrt(b * b + 4.0 * _HESS_PEAK * budget))
        if x <= 0.0 or not np.isfinite(x):
            raise CatalogInfeasible("derivative budget admits no ramp width")
        return 1.0 / x


# ---------------------------------------------------------------------------
# blocks and catalogs


@dataclass(frozen=True, eq=False)
class Block:
    """One glued patch: labels (n, l), exact lattice center, three radii.

    ``quanta`` are integer multiples of the scale-n stream period, kept as
    exact Python integers because the centers far exceed float spacing;
    ``radius`` is the concentration radius the plateau must cover, so the
    plateau ball has radius 2 * radius and the support ends at ``outer``.
    """

    n: int
    ell: int
    quanta: tuple[int, int, int]
    period: float
    radius: float
    plateau: float
    outer: float

    def __post_init__(self):
        if self.n < 1 or self.ell < 1 or self.n != int(self.n) or self.ell != int(self.ell):
            raise ConfigError("block labels must be integers >= 1")
        if len(self.quanta) != 3 or not all(q == int(q) for q in self.quanta):
            raise ConfigError("center quanta must be three integers")
        object.__setattr__(self, "quanta", tuple(int(q) for q in self.quanta))
        if self.period <= 0.0 or not np.isfinite(self.period):
            raise ConfigError("stream period must be positive and finite")
        if self.radius < 1.0:
            raise ConfigError("concentration radius must be >= 1")
        if self.plateau < 2.0 * self.radius * (1.0 - 1e-12):
            raise ConfigError("plateau ball must cover twice the concentration radius")
        if self.outer <= self.plateau:
            raise ConfigError("support radius must exceed the plateau radius")

    @property
    def center(self) -> np.ndarray:
        return np.array([float(q) * self.period for q in self.quanta])

    @property
    def cutoff(self) -> CutoffSpec:
        return CutoffSpec(self.center, self.plateau, self.outer)


def _required_center_distance(a: Block, b: Block) -> float:
    # supports disjoint AND separated by twice the larger concentration radius
    return a.outer + b.outer + 2.0 * max(a.radius, b.radius)


@dataclass(frozen=True, eq=False)
class BlockCatalog:
    """A finite family of disjoint blocks over one base stream field.

    The stream is the base-cell vector potential (curl stream = velocity);
    step n uses coefficients scaled by zeta^n on period scale zeta^{n/2},
    which shrinks the velocity amplitude like zeta^{n/2} while leaving its
    gradient magnitude invariant.
    """

    stream: df.SpectralField
    zeta: float
    ufrak: float
    tail: TailModel
    blocks: tuple[Block, ...]

    def __post_init__(self):
        if not isinstance(self.stream, df.SpectralField) or self.stream.kind != "real":
            raise ConfigError("catalog stream must be a real spectral field")
        if abs(self.stream.scale - 1.0) > 1e-12:
            raise ConfigError("catalog stream must live on the unit cell")
        if not (0.5 < self.zeta < 1.0):
            raise ConfigError(f"shrink ratio must lie in (1/2, 1), got {self.zeta}")
        if self.ufrak <= 0.0 or not np.isfinite(self.ufrak):
            raise ConfigError("separation constant must be positive")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ConfigError("catalog needs at least one block")
        for b in self.blocks:
            want = _period(self.zeta, b.n)
            if abs(b.period - want) > 1e-9 * want:
                raise ConfigError(f"block ({b.n},{b.ell}) period is inconsistent")
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1:]:
                gap = float(np.linalg.norm(a.center - b.center))
                if gap < _required_center_distance(a, b) * (1.0 - 1e-12):
                    raise ConfigError(
                        f"blocks ({a.n},{a.ell}) and ({b.n},{b.ell}) violate separation"
                    )

    def stream_for(self, n: int) -> df.SpectralField:
        fac = self.zeta**n
        return df.SpectralField(
            self.stream.coeffs * fac,
            kind="real",
            scale=self.stream.scale * self.zeta ** (n / 2.0),
        )

    def budget(self, block: Block) -> float:
        return block_budget(self.ufrak, block.n, block.ell)

    def row(self, n: int) -> tuple[int, ...]:
        """Catalog indices of scale-n blocks, ordered by l."""
        idx = [i for i, b in enumerate(self.blocks) if b.n == n]
        return tuple(sorted(idx, key=lambda i: self.blocks[i].ell))


def _shell_vectors(r: int) -> list[tuple[int, int, int]]:
    rng = range(-r, r + 1)
    return sorted(
        (i, j, k) for i in rng for j in rng for k in rng
        if max(abs(i), abs(j), abs(k)) == r
    )


def _place_block(placed: list[Block], candidate: Block) -> tuple[int, int, int]:
    """First lattice point (expanding cubic shells) clearing all placed blocks."""
    if not placed:
        return (0, 0, 0)
    reqs = [
        _required_center_distance(candidate, other) * 1.05 for other in placed
    ]
    pitch_units = int(math.ceil(max(reqs) / candidate.period))
    centers = [other.center for other in placed]
    for shell in range(1, 65):
        for v in _shell_vectors(shell):
            q = tuple(int(x) * pitch_units for x in v)
            c = np.array([float(x) * candidate.period for x in q])
            if all(
                float(np.linalg.norm(c - centers[j])) >= reqs[j]
                for j in range(len(placed))
            ):
                return q
    raise SolverFailure("block placement did not terminate")  # pragma: no cover


def plan_catalog(
    stream: df.SpectralField,
    tail: TailModel,
    zeta: float = 0.9,
    ufrak: float = 10.0,
    n_max: int = 3,
    ell_max: int = 3,
    margin: float = 0.25,
) -> BlockCatalog:
    """Size and place every block (n, l) <= (n_max, l_max) against the budgets.

    For each block the shared tolerance beta(n, l) is split evenly between
    the inverse radius and the modeled tail, radii get a further (1+margin)
    headroom, and ramp widths are solved so the measured derivative sum
    lands at (1-margin) beta.  Placement is greedy and deterministic in
    catalog order on expanding cubic shells, quantized to each block's
    stream period so centers stay exact.
    """
    if not (0.5 < zeta < 1.0):
        raise ConfigError(f"shrink ratio must lie in (1/2, 1), got {zeta}")
    if n_max < 1 or ell_max < 1:
        raise ConfigError("need at least one block row and column")
    if not (0.0 < margin < 0.9):
        raise ConfigError("planning margin must lie in (0, 0.9)")
    placed: list[Block] = []
    for n in range(1, n_max + 1):
        period = _period(zeta, n)
        for ell in range(1, ell_max + 1):
            beta = block_budget(ufrak, n, ell)
            # beta underflows to 0 for separation constants above about 350
            radius = (1.0 + margin) * max(1.0, 2.0 / beta, tail.radius_for(beta / 2.0)) if beta > 0.0 else math.inf
            if not (radius < math.inf and 1.0 / radius + tail.tail_fraction(radius) < beta):
                raise CatalogInfeasible(
                    f"block ({n},{ell}): no radius satisfies the tail budget"
                )
            plateau = 2.0 * radius
            width = CutoffSpec.ramp_width_for_budget(plateau, (1.0 - margin) * beta)
            outer = plateau + width
            if not outer > plateau:
                raise CatalogInfeasible(
                    f"block ({n},{ell}): ramp width {width:.3g} vanishes against plateau {plateau:.3g}"
                )
            probe = Block(
                n=n, ell=ell, quanta=(0, 0, 0), period=period,
                radius=radius, plateau=plateau, outer=outer,
            )
            placed.append(replace(probe, quanta=_place_block(placed, probe)))
    return BlockCatalog(
        stream=stream, zeta=zeta, ufrak=ufrak, tail=tail, blocks=tuple(placed)
    )


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True, eq=False)
class GluedEvaluation:
    """Velocity and gradient samples with the owning block per point (-1 outside)."""

    points: np.ndarray
    velocity: np.ndarray
    gradient: np.ndarray
    block_index: np.ndarray

    def __post_init__(self):
        p = len(self.points)
        if self.velocity.shape != (p, 3) or self.gradient.shape != (p, 3, 3):
            raise ConfigError("evaluation arrays are inconsistent")
        if self.block_index.shape != (p,):
            raise ConfigError("evaluation arrays are inconsistent")
        if not (np.all(np.isfinite(self.velocity)) and np.all(np.isfinite(self.gradient))):
            raise SolverFailure("glued evaluation produced non-finite values")


def _local_fields(
    stream_n: df.SpectralField,
    plateau: float,
    outer: float,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """u = curl(psi phi) and its Jacobian at block-local offsets.

    Product rule: u = phi U + grad(phi) x psi with U = curl psi, and
    d_m u = phi d_m U + U d_m(phi) + (d_m grad phi) x psi + grad(phi) x d_m psi.
    """
    flow_n = df.curl(stream_n)
    psi = df.eval_at_points(stream_n, offsets).real
    uval = df.eval_at_points(flow_n, offsets).real
    jpsi = df.eval_jacobian_at_points(stream_n, offsets).real
    ju = df.eval_jacobian_at_points(flow_n, offsets).real

    cut = CutoffSpec(np.zeros(3), plateau, outer)
    phi, dphi, hphi = cut.derivatives(offsets)

    u = phi[:, None] * uval + np.cross(dphi, psi)
    grad = phi[:, None, None] * ju + uval[:, :, None] * dphi[:, None, :]
    # row m of each product is a term of d_m u: the Hessian is symmetric, and jpsi[:, k, m] = d_m psi_k
    rows = np.cross(hphi, psi[:, None, :]) + np.cross(dphi[:, None, :], np.swapaxes(jpsi, 1, 2))
    grad += np.swapaxes(rows, 1, 2)
    return u, grad


def evaluate_velocity(catalog: BlockCatalog, points: np.ndarray) -> GluedEvaluation:
    """Evaluate the glued field at absolute points (moderate coordinates).

    Each point lies in at most one support by disjointness; plateau points
    reproduce the scale-n velocity exactly and points outside every support
    return zero.  For blocks whose centers exceed float spacing use
    :func:`evaluate_block` with local offsets instead.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u = np.zeros((pts.shape[0], 3))
    grad = np.zeros((pts.shape[0], 3, 3))
    owner = np.full(pts.shape[0], -1, dtype=int)
    for idx, blk in enumerate(catalog.blocks):
        r = np.linalg.norm(pts - blk.center, axis=1)
        mask = r < blk.outer
        if not np.any(mask):
            continue
        if np.any(owner[mask] >= 0):
            raise SolverFailure("a point lies in two supports; catalog is corrupt")
        owner[mask] = idx
        u[mask], grad[mask] = _local_fields(
            catalog.stream_for(blk.n), blk.plateau, blk.outer, pts[mask] - blk.center
        )
    return GluedEvaluation(points=pts, velocity=u, gradient=grad, block_index=owner)


def evaluate_block(
    catalog: BlockCatalog, index: int, offsets: np.ndarray
) -> GluedEvaluation:
    """Evaluate one block at offsets from its center (periodic reduction exact).

    Centers are integer multiples of the block's stream period, so the
    stream at center + offset equals the stream at the offset itself; this
    path never forms absolute coordinates and stays accurate for blocks at
    any distance from the origin.
    """
    if not (0 <= index < len(catalog.blocks)):
        raise ConfigError(f"no block with index {index}")
    blk = catalog.blocks[index]
    off = np.atleast_2d(np.asarray(offsets, dtype=float))
    u, grad = _local_fields(catalog.stream_for(blk.n), blk.plateau, blk.outer, off)
    owner = np.where(np.linalg.norm(off, axis=1) < blk.outer, index, -1)
    return GluedEvaluation(points=off, velocity=u, gradient=grad, block_index=owner)


def sampled_divergence(
    catalog: BlockCatalog, index: int, offsets: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference divergence of the glued field at block-local offsets."""
    if h <= 0.0:
        raise ConfigError("finite-difference step must be positive")
    off = np.atleast_2d(np.asarray(offsets, dtype=float))
    div = np.zeros(off.shape[0])
    for m in range(3):
        step = np.zeros(3)
        step[m] = h
        plus = evaluate_block(catalog, index, off + step).velocity
        minus = evaluate_block(catalog, index, off - step).velocity
        div += (plus[:, m] - minus[:, m]) / (2.0 * h)
    return div


# ---------------------------------------------------------------------------
# weighted initial data


@dataclass(frozen=True, eq=False)
class InitialDatum:
    """Symbolic datum: l^{-2}-weighted translates of one unit-mass packet.

    Only the weights and centers are kept, not the packet.  Norm
    bookkeeping is interval arithmetic: translates have unit mass, and
    cross terms are bounded through the modeled tail at half the center
    separation.
    """

    eps: float
    scale_step: int
    weights: np.ndarray
    block_indices: tuple[int, ...]
    centers: np.ndarray
    norm_interval: tuple[float, float]
    first_term_plateau_norm: float

    def in_energy_window(self) -> bool:
        lo, hi = self.norm_interval
        return 0.5 <= lo and hi <= 2.0


def build_datum(catalog: BlockCatalog, eps: float) -> InitialDatum:
    """Assemble the weighted translate datum for diffusivity eps.

    The shrink step n is the ladder index with eps in (zeta^{n+1}, zeta^n];
    the datum plants one unit-mass packet at every scale-n block center
    with weight l^{-2}.  Requires the catalog to carry row n.
    """
    n = scale_index(eps, catalog.zeta)
    row = catalog.row(n)
    if not row:
        raise ConfigError(
            f"eps {eps:g} needs shrink step {n}, but the catalog has no such row"
        )
    blocks = [catalog.blocks[i] for i in row]
    weights = np.array([b.ell ** -2.0 for b in blocks])
    centers = np.stack([b.center for b in blocks])
    sumsq = float(np.sum(weights**2))
    cross = 0.0
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            d = float(np.linalg.norm(centers[i] - centers[j]))
            ip = min(1.0, 2.0 * math.sqrt(catalog.tail.tail_fraction(d / 2.0)))
            cross += 2.0 * weights[i] * weights[j] * ip
    lo = math.sqrt(max(sumsq - cross, 0.0))
    hi = math.sqrt(sumsq + cross)
    first = math.sqrt(max(0.0, 1.0 - catalog.tail.tail_fraction(blocks[0].radius)))
    return InitialDatum(
        eps=float(eps),
        scale_step=n,
        weights=weights,
        block_indices=row,
        centers=centers,
        norm_interval=(lo, hi),
        first_term_plateau_norm=first,
    )


# ---------------------------------------------------------------------------
# static checks


@dataclass(frozen=True)
class CheckRow:
    """One measured inequality: ``kind`` is 'upper' (measured <= bound) or 'lower'.

    Strict rows demand positive margin; non-strict rows (closed hypotheses
    like the separation-constant floor) accept equality.
    """

    name: str
    kind: str
    measured: float
    bound: float
    strict: bool = True

    @property
    def margin(self) -> float:
        ref = max(abs(self.bound), 1e-300)
        if self.kind == "upper":
            return (self.bound - self.measured) / ref
        return (self.measured - self.bound) / ref

    @property
    def passed(self) -> bool:
        if not np.isfinite(self.measured):
            return False
        return self.margin > 0.0 if self.strict else self.margin >= 0.0


@dataclass(frozen=True, eq=False)
class CatalogReport:
    rows: tuple[CheckRow, ...]
    ufrak: float
    zeta: float
    stream_constant: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if not r.passed)


def _w2_components(f: df.SpectralField, oversample: int = 4) -> tuple[float, float, float]:
    """sup |f|, sup ||grad f||_2 and sup_i ||Hess f_i||_2 on an oversampled grid."""
    s0 = df.sup_value(f, oversample)
    s1 = df.sup_grad(f, oversample)
    m = df._oversampled_m(f.truncation, oversample)
    pts = df.grid_points(f, m).reshape(-1, 3)
    hess = df.eval_hessian_at_points(f, pts).real
    s2 = float(np.max(np.linalg.norm(hess, ord=2, axis=(2, 3))))
    return s0, s1, s2


def _representative_block(catalog: BlockCatalog, n: int) -> Block:
    # dynamically similar stand-in at unit scale: float64 cannot host coherent
    # samples at the true radii, and the evaluation formulas are scale-free
    period = _period(catalog.zeta, n)
    return Block(
        n=n, ell=1, quanta=(0, 0, 0), period=period,
        radius=period, plateau=2.0 * period, outer=3.0 * period,
    )


def _solenoidality_rows(catalog: BlockCatalog, n: int) -> list[CheckRow]:
    rep = _representative_block(catalog, n)
    rep_cat = replace(catalog, blocks=(rep,))
    dirs = np.array([
        [1.0, 0.3, -0.2], [-0.5, 1.0, 0.7], [0.2, -0.8, 1.0], [0.9, 0.6, 0.4],
    ])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    fracs = np.array([0.3, 0.65, 0.9, 1.04, 1.17, 1.3]) / 1.5  # of outer = 3 period
    radii = fracs * rep.outer
    offsets = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    scale = float(np.max(np.abs(evaluate_block(rep_cat, 0, offsets).gradient)))
    fine = float(np.max(np.abs(sampled_divergence(rep_cat, 0, offsets, 3e-5))))
    # the halving check runs at a coarser step where the O(h^2) truncation
    # term still dominates the 1/h roundoff floor
    h = 5e-3
    coarse = float(np.max(np.abs(sampled_divergence(rep_cat, 0, offsets, h))))
    halved = float(np.max(np.abs(sampled_divergence(rep_cat, 0, offsets, h / 2.0))))
    order = coarse / max(halved, 1e-300)
    plateau_pts = offsets[: len(dirs)]
    exact = evaluate_block(rep_cat, 0, plateau_pts).velocity
    flow = df.eval_at_points(df.curl(catalog.stream_for(n)), plateau_pts).real
    plateau_defect = float(np.max(np.abs(exact - flow)))
    return [
        CheckRow(f"solenoidality scale {n}", "upper", fine / scale, 1e-8),
        CheckRow(f"solenoidality-order scale {n}", "upper", abs(order - 4.0), 1.5),
        CheckRow(f"plateau-identity scale {n}", "upper", plateau_defect, 1e-14),
    ]


def check_catalog(
    catalog: BlockCatalog, eps_samples: tuple[float, ...] = ()
) -> CatalogReport:
    """Re-measure every static inequality of the construction.

    Geometric rows (radius law, separation, cutoff derivatives) are checked
    at the true block geometry; solenoidality and the plateau identity run
    on dynamically similar unit-scale stand-ins; stream-norm comparability
    and the hypothesis floor gate the separation constant itself; optional
    eps samples add the weighted-datum energy window rows.
    """
    rows: list[CheckRow] = []
    for blk in catalog.blocks:
        beta = catalog.budget(blk)
        tag = f"({blk.n},{blk.ell})"
        lhs = 1.0 / blk.radius + catalog.tail.tail_fraction(blk.radius)
        rows.append(CheckRow(f"radius-law {tag}", "upper", lhs, beta))
        rows.append(CheckRow(f"radius-floor {tag}", "lower", blk.radius, 1.0))
        rows.append(
            CheckRow(
                f"cutoff-derivatives {tag}", "upper",
                blk.cutoff.derivative_budget_measured(), beta,
            )
        )
    for i, a in enumerate(catalog.blocks):
        for b in catalog.blocks[i + 1:]:
            gap = float(np.linalg.norm(a.center - b.center)) - a.outer - b.outer
            rows.append(
                CheckRow(
                    f"separation ({a.n},{a.ell})|({b.n},{b.ell})", "lower",
                    gap, 2.0 * max(a.radius, b.radius),
                )
            )

    s0, s1, s2 = _w2_components(catalog.stream)
    base = s0 + s1 + s2
    c_meas = 1.0
    for blk in catalog.blocks:
        zn = catalog.zeta**blk.n
        zh = catalog.zeta ** (blk.n / 2.0)
        lower = s0 * zn + s1 * zh + s2
        upper = lower + catalog.budget(blk) * 2.0 * (s0 * zn + s1 * zh)
        c_meas = max(c_meas, base / lower, upper / base)
    rows.append(CheckRow("stream-comparison", "upper", c_meas, catalog.ufrak))
    rows.append(CheckRow("hypothesis-floor", "lower", catalog.ufrak, 10.0, strict=False))

    for n in sorted({blk.n for blk in catalog.blocks}):
        rows.extend(_solenoidality_rows(catalog, n))

    for eps in eps_samples:
        datum = build_datum(catalog, eps)
        lo, hi = datum.norm_interval
        rows.append(CheckRow(f"datum-norm-low eps={eps:g}", "lower", lo, 0.5))
        rows.append(CheckRow(f"datum-norm-high eps={eps:g}", "upper", hi, 2.0))
        rows.append(
            CheckRow(
                f"datum-first-term eps={eps:g}", "lower",
                datum.first_term_plateau_norm, 0.9,
            )
        )
    return CatalogReport(
        rows=tuple(rows), ufrak=catalog.ufrak, zeta=catalog.zeta,
        stream_constant=c_meas,
    )


def smallest_passing_constant(
    stream: df.SpectralField,
    tail: TailModel,
    n_max: int = 2,
    ell_max: int = 2,
) -> tuple[float, dict[float, CatalogReport]]:
    """Sweep the dyadic separation constants 1 to 64 at shrink ratio 0.9;
    return the first whose catalog passes every static check."""
    reports: dict[float, CatalogReport] = {}
    for ufrak in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        try:
            catalog = plan_catalog(
                stream, tail, ufrak=ufrak, n_max=n_max, ell_max=ell_max
            )
        except CatalogInfeasible:
            continue
        report = check_catalog(catalog)
        reports[ufrak] = report
        if report.passed:
            return ufrak, reports
    raise CatalogInfeasible("no candidate separation constant passed all checks")


# ---------------------------------------------------------------------------
# catalog snapshots

_CAT_MAGIC = "block-catalog 1"


def save_catalog(catalog: BlockCatalog, path) -> None:
    """Self-describing text snapshot; the stream goes to ``<path>.stream``."""
    path = Path(path)
    stream_name = path.name + ".stream"
    df.save_field(catalog.stream, path.with_name(stream_name))
    lines = [
        _CAT_MAGIC,
        f"zeta {catalog.zeta:.17g}",
        f"ufrak {catalog.ufrak:.17g}",
        "ramp_degree 5",
        f"tail {catalog.tail.coefficient:.17g} {catalog.tail.valid_from:.17g}",
        f"stream {stream_name}",
        f"blocks {len(catalog.blocks)}",
    ]
    for b in catalog.blocks:
        lines.append(
            f"{b.n} {b.ell} {b.quanta[0]} {b.quanta[1]} {b.quanta[2]}"
            f" {b.radius:.17g} {b.plateau:.17g} {b.outer:.17g}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_catalog(path) -> BlockCatalog:
    """Read a catalog snapshot; an unreadable or malformed file raises ConfigError."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read catalog {path}: {exc}") from exc
    if not lines or lines[0] != _CAT_MAGIC:
        raise ConfigError(f"{path} is not a block-catalog snapshot")
    header: dict[str, str] = {}
    for line in lines[1:7]:
        key, _, rest = line.partition(" ")
        header[key] = rest
    try:
        zeta = float(header["zeta"])
        ufrak = float(header["ufrak"])
        degree = int(header["ramp_degree"])
        coef, valid = (float(x) for x in header["tail"].split())
        count = int(header["blocks"])
        stream_path = path.with_name(header["stream"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path} has a malformed catalog header") from exc
    if degree != 5:
        raise ConfigError(f"{path}: only the quintic ramp (degree 5) is supported, got {degree}")
    blocks = []
    for line in lines[7:7 + count]:
        try:
            n, ell, q1, q2, q3, *radii = line.split()
            n, ell, quanta = int(n), int(ell), (int(q1), int(q2), int(q3))
            radius, plateau, outer = (float(x) for x in radii)
        except ValueError as exc:
            raise ConfigError(f"{path} has a malformed block line: {line!r}") from exc
        blocks.append(
            Block(
                n=n, ell=ell, quanta=quanta,
                period=_period(zeta, n),
                radius=radius, plateau=plateau, outer=outer,
            )
        )
    if len(blocks) != count:
        raise ConfigError(f"{path} is truncated: expected {count} blocks")
    return BlockCatalog(
        stream=df.load_field(stream_path), zeta=zeta, ufrak=ufrak,
        tail=TailModel(coef, valid), blocks=tuple(blocks),
    )
