"""Band synthesis on R^3 from families of periodic envelope fields.

A family holds envelope fields G(.; j) at quadrature nodes j of one or two
small boxes in wavevector space; the synthesized profile is

    F(x) = sum_n w_n G(x; j_n) e^{i j_n . x},

a superposition of Bloch waves.  The module provides the synthesis on
sampled volumes, the Parseval identity relating box mass of |F|^2 to
coefficient-space norms, construction of normalized band data from leading
eigenvectors of the modal operator, and the concentration radius that
captures a prescribed fraction of the total mass.

Box masses are computed in closed form: |F|^2 is a finite combination of
plane waves, and each integrates over a centered cube to a product of
Dirichlet factors 2 sin(q R)/q.  The factor on axis a depends only on the
two frequencies k_a + j_a on that axis, so the mass is a quadratic form in
the Kronecker product of three small per-axis Dirichlet matrices, one row
per (distinct node coordinate, mode) pair.  This keeps huge radii (R in
the hundreds) exact and cheap, where grid quadrature would be hopeless.
The constant-envelope band, always paired with its mirror box at -j*, has
closed forms too: each axis of its box mass is an integral of
(2 sin(Jx)/x)^2, times cos(2 j*_a x) for the cross term of the pair, and
both reduce to cosines and sine integrals.

Band data are the leading eigenpair at every node of a box, shown simple
by its gap to the next eigenvalue, and its mirror at -j, the
``SpectralField.conjugate`` of each field.  The nodes share one flow and
truncation, so the stencil pattern is built once, and they are solved
together by ``modal.leading_eigs_box``, which returns each node's leading
pair and two leading eigenvalues: one sparse LU of the block-diagonal
shifted operator per chunk of nodes and one lockstep Arnoldi build, with
ARPACK (``modal.leading_eigs``) for any node that build does not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from . import fields as df
from . import modal
from .errors import (
    BandBroken,
    ConfigError,
    NotConcentrated,
    SolverFailure,
    TooLarge,
)

TWO_PI_CUBED = (2.0 * np.pi) ** 3
# largest grid (complex entries, 64 MB) BlochFamily.box_mass or a sampled volume allocates
BOX_GRID_CAP = 4_000_000
# bytes of one slab of a sampled volume that the slab-by-slab loops build at a time
SLAB_BYTES = 1 << 18


def scale_index(eps: float, zeta: float) -> int:
    """Ladder step n with eps in (zeta^{n+1}, zeta^n]."""
    if not 0.0 < eps <= 1.0:
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < zeta < 1.0:
        raise ConfigError(f"zeta must lie in (0, 1), got {zeta}")
    return int(math.floor(math.log(eps) / math.log(zeta) + 1e-9))


def _ladder_ratio(eps: float, zeta: float) -> float:
    """The rescaled diffusivity eps / zeta^n in (zeta, 1], n the ladder step of eps."""
    return eps / zeta ** scale_index(eps, zeta)


def _check_radii(radii) -> np.ndarray:
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise ConfigError("need at least one box half-width")
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ConfigError("box half-widths must be positive and finite")
    return radii


def gauss_legendre_box(center, half_width: float, nodes_per_axis: int = 5):
    """Tensor Gauss-Legendre rule on the cube of given center and half-width.

    Returns (nodes, weights) with nodes shaped (m^3, 3); the weights sum to
    the cube volume (2 half_width)^3.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise ConfigError("box center must be a 3-vector")
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise ConfigError(f"box half-width must be positive and finite, got {half_width}")
    if nodes_per_axis < 1:
        raise ConfigError("need at least one node per axis")
    x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
    pts = [center[a] + half_width * x for a in range(3)]
    g1, g2, g3 = np.meshgrid(*pts, indexing="ij")
    nodes = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=-1)
    w1, w2, w3 = np.meshgrid(w, w, w, indexing="ij")
    weights = (half_width**3) * (w1 * w2 * w3).ravel()
    return nodes, weights


def _mass(weights, fields) -> float:
    """Coefficient-space mass sum_n w_n ||G_n||^2 over the torus."""
    return float(np.dot(weights, [np.sum(np.abs(g.coeffs) ** 2) for g in fields])) * TWO_PI_CUBED


# ---------------------------------------------------------------------------
# discrete quadrature families


@dataclass(frozen=True, eq=False)
class BlochFamily:
    """Envelope fields at wavevector nodes, immutable after construction."""

    j_nodes: np.ndarray
    weights: np.ndarray
    fields: tuple
    conjugate_paired: bool = False
    exponents: np.ndarray | None = None

    def __post_init__(self):
        nodes = np.asarray(self.j_nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "j_nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "fields", tuple(self.fields))
        m = len(self.fields)
        if nodes.shape != (m, 3) or weights.shape != (m,) or m == 0:
            raise ConfigError("nodes, weights, and fields must align and be nonempty")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ConfigError("quadrature weights must be positive and finite")
        if np.max(np.abs(nodes)) >= np.pi:
            raise ConfigError("band nodes must stay strictly inside the fundamental cell")
        n = self.fields[0].truncation
        for g in self.fields:
            if g.truncation != n or g.scale != 1.0:
                raise ConfigError("family fields must share truncation at unit scale")
        if self.exponents is not None:
            exps = np.asarray(self.exponents, dtype=complex)
            if exps.shape != (m,):
                raise ConfigError("one growth exponent per node required")
            object.__setattr__(self, "exponents", exps)
        if self.conjugate_paired:
            self._check_pairing()

    def _check_pairing(self):
        nodes = self.j_nodes
        taken = np.zeros(len(self.fields), dtype=bool)
        for i in range(len(self.fields)):
            if taken[i]:
                continue
            dist = np.linalg.norm(nodes + nodes[i], axis=1)
            dist[taken] = np.inf
            k = int(np.argmin(dist))
            if dist[k] > 1e-12 or k == i:
                raise ConfigError(f"node {i} has no mirror partner at -j")
            taken[i] = taken[k] = True
            mirror = self.fields[i].conjugate().coeffs
            scale_ref = np.max(np.abs(mirror)) + 1e-300
            if np.max(np.abs(self.fields[k].coeffs - mirror)) > 1e-10 * scale_ref:
                raise ConfigError(f"fields at nodes {i} and {k} are not conjugate mirrors")
            if self.exponents is not None:
                if abs(self.exponents[k] - np.conj(self.exponents[i])) > 1e-8:
                    raise ConfigError(f"exponents at nodes {i} and {k} are not conjugate")

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def truncation(self) -> int:
        return self.fields[0].truncation

    def total_mass(self) -> float:
        """Coefficient-space (rhs) mass: sum w ||G||^2 over the torus."""
        return _mass(self.weights, self.fields)

    def box_mass(self, radii) -> np.ndarray:
        """Exact integral of |F|^2 over centered cubes of half-width R.

        |F|^2 pairs plane waves of frequencies s = k + j_n, and each pair
        integrates to a product of per-axis Dirichlet factors
        2 sin((s_a - s'_a) R)/(s_a - s'_a).  On axis a the frequencies are
        u + k_a over the distinct node coordinates u, so the weighted
        coefficients w_n c_n(k) scatter into a tensor G over these per-axis
        lists (nodes at one coordinate add), and the mass is the Kronecker
        quadratic form Re <G, kron(K_1, K_2, K_3, I_3) G> with the real
        symmetric K_a = 2R sinc((s - s^T) R/pi).  With U_a distinct
        coordinates on axis a, G holds 3 (2N+1)^3 prod_a U_a entries;
        families above BOX_GRID_CAP raise TooLarge.  A negative mass, or
        one that falls as R grows, raises SolverFailure.
        """
        radii = _check_radii(radii)
        n = self.truncation
        width = 2 * n + 1
        axes = [np.unique(self.j_nodes[:, a], return_inverse=True) for a in range(3)]
        shape = tuple(len(u) * width for u, _ in axes)
        if math.prod(shape) * 3 > BOX_GRID_CAP:
            raise TooLarge(
                f"box-mass grid {shape} x 3 exceeds the cap of {BOX_GRID_CAP} entries; "
                "the family's nodes share too few coordinates per axis"
            )
        (u1, i1), (u2, i2), (u3, i3) = axes
        grid = np.zeros((len(u1), width, len(u2), width, len(u3), width, 3), dtype=complex)
        weighted = np.stack([w * g.coeffs for w, g in zip(self.weights, self.fields)])
        np.add.at(grid, (i1, slice(None), i2, slice(None), i3), weighted)
        grid = grid.reshape(*shape, 3)
        kvals = np.arange(-n, n + 1, dtype=float)
        freqs = [(u[:, None] + kvals).ravel() for u, _ in axes]
        out = np.empty(len(radii))
        for t, r in enumerate(radii):
            # each mode product moves the contracted axis to the back, so
            # three of them leave the component axis in front
            kg = grid
            for s in freqs:
                kg = np.tensordot(kg, _dirichlet(s, r), axes=(0, 0))
            out[t] = np.vdot(np.moveaxis(grid, -1, 0), kg).real
        # |F|^2 >= 0 on nested boxes: the mass is nonnegative and grows with R
        tol = 1e-10 * np.max(np.abs(out))
        if np.min(out) < -tol:
            raise SolverFailure(f"box mass {np.min(out):.3e} is negative")
        if np.any(np.diff(out[np.argsort(radii)]) < -tol):
            raise SolverFailure("box mass decreases with the box half-width")
        return out


def _dirichlet(s: np.ndarray, r: float) -> np.ndarray:
    """Per-axis factors int_{-R}^{R} e^{i (s_a - s_b) x} dx = 2R sinc((s_a - s_b) R/pi)."""
    return 2.0 * r * np.sinc(np.subtract.outer(s, s) * (r / np.pi))


# ---------------------------------------------------------------------------
# continuum constant-envelope band (closed forms; oracle-grade)


@dataclass(frozen=True, eq=False)
class ConstantBand:
    """Continuum band integral with a constant envelope vector.

    F(x) = v int_{Q_J(j*)} e^{ij.x} dj + its conjugate over the mirror box
    Q_J(-j*), so F = 2 Re(...) is real: the exactly integrable model for
    band-limited concentration.  The band is always paired.
    """

    amplitude: np.ndarray
    j_star: np.ndarray
    half_width: float

    def __post_init__(self):
        v = np.asarray(self.amplitude, dtype=complex)
        js = np.asarray(self.j_star, dtype=float)
        object.__setattr__(self, "amplitude", v)
        object.__setattr__(self, "j_star", js)
        if v.shape != (3,) or js.shape != (3,):
            raise ConfigError("amplitude and center must be 3-vectors")
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ConfigError(f"band half-width must be positive and finite, got {self.half_width}")
        if np.max(np.abs(js)) + self.half_width >= np.pi:
            raise ConfigError("band must stay strictly inside the fundamental cell")
        if np.max(np.abs(js)) <= self.half_width:
            raise ConfigError("paired bands overlap: need max |j*_a| > half-width")

    def total_mass(self) -> float:
        v2 = float(np.sum(np.abs(self.amplitude) ** 2))
        return 2.0 * (2.0 * self.half_width) ** 3 * TWO_PI_CUBED * v2

    def _axis_mass(self, r: float) -> float:
        # int_{-R}^{R} (2 sin(Jx)/x)^2 dx via the sine integral
        jr = self.half_width * r
        si = sici(2.0 * jr)[0]
        return 8.0 * (self.half_width * si - math.sin(jr) ** 2 / r)

    def _axis_cross(self, r: float, omega: float) -> float:
        # int_{-R}^{R} (2 sin(Jx)/x)^2 cos(omega x) dx = 8 int_0^R sin^2(Jx) cos(omega x)/x^2 dx, and
        # sin^2(Jx) cos(wx) = cos(wx)/2 - cos((2J+w)x)/4 - cos((2J-w)x)/4 has weights summing to
        # zero, so the antiderivative -cos(ax)/x - |a| Si(|a| x) of each cos(ax)/x^2 vanishes at 0
        a = np.abs([omega, 2.0 * self.half_width + omega, 2.0 * self.half_width - omega])
        terms = -np.cos(a * r) / r - a * sici(a * r)[0]
        return 8.0 * float(0.5 * terms[0] - 0.25 * terms[1] - 0.25 * terms[2])

    def box_mass(self, radii) -> np.ndarray:
        radii = _check_radii(radii)
        v2 = float(np.sum(np.abs(self.amplitude) ** 2))
        out = np.empty(len(radii))
        for t, r in enumerate(radii):
            direct = self._axis_mass(r) ** 3
            cross = math.prod(self._axis_cross(r, 2.0 * self.j_star[a]) for a in range(3))
            vsq = complex(np.sum(self.amplitude**2))
            out[t] = 2.0 * v2 * direct + 2.0 * (vsq * cross).real
        return out

    def synthesize(self, half_width: float, spacing: float) -> "SampledVolume":
        """Sample F on the centered grid, one x-slab of the output at a time."""
        axis = volume_axis(half_width, spacing)
        m = len(axis)
        j = self.half_width
        win = [2.0 * j * np.sinc(j * axis / np.pi) for _ in range(3)]
        out = np.empty((m, m, m, 3), dtype=np.complex128)
        for s in _slabs(m):
            envelope = win[0][s, None, None] * win[1][None, :, None] * win[2][None, None, :]
            phase = np.exp(
                1j
                * (
                    self.j_star[0] * axis[s, None, None]
                    + self.j_star[1] * axis[None, :, None]
                    + self.j_star[2] * axis[None, None, :]
                )
            )
            carrier = 2.0 * (phase[..., None] * self.amplitude).real
            out[s] = envelope[..., None] * carrier
        return SampledVolume(half_width, spacing, out)


# ---------------------------------------------------------------------------
# sampled volumes


def volume_axis(half_width: float, spacing: float) -> np.ndarray:
    """Centered sample positions; volumes above BOX_GRID_CAP entries raise TooLarge."""
    if not (0.0 < spacing <= half_width and math.isfinite(half_width)):
        raise ConfigError(f"need spacing > 0 and a finite half-width >= spacing, got {spacing}, {half_width}")
    ratio = half_width / spacing + 1e-9  # overflows to inf for a tiny spacing
    if not math.isfinite(ratio) or 3 * (2 * math.floor(ratio) + 1) ** 3 > BOX_GRID_CAP:
        raise TooLarge(
            f"a volume of half-width {half_width} at spacing {spacing} exceeds the cap of "
            f"{BOX_GRID_CAP} entries; widen the spacing or shrink the half-width"
        )
    m2 = math.floor(ratio)
    return spacing * np.arange(-m2, m2 + 1)


def _slabs(m: int):
    """Slices of x-rows of an (m, m, m, 3) complex volume, about SLAB_BYTES each."""
    rows = max(1, SLAB_BYTES // (m * m * 3 * 16))
    return [slice(i, min(i + rows, m)) for i in range(0, m, rows)]


@dataclass(frozen=True, eq=False)
class SampledVolume:
    """Uniform centered samples of a synthesized profile on a cube."""

    half_width: float
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        m = vals.shape[0]
        if vals.shape != (m, m, m, 3):
            raise ConfigError("values must be cubic with 3 components")
        # volume_axis rejects a non-finite or non-positive geometry; its axis
        # always has an odd number of points
        if m != len(volume_axis(self.half_width, self.spacing)):
            raise ConfigError(f"{m} samples per axis do not match half-width {self.half_width} "
                              f"at spacing {self.spacing}")
        if not np.all(np.isfinite(vals)):
            raise SolverFailure("sampled values must be finite")
        object.__setattr__(self, "values", vals)


def sampled_box_mass(vol: SampledVolume) -> float:
    """Trapezoid quadrature of |F|^2 over the sampled cube (cross-check).

    The density |F|^2 is filled one x-slab at a time, so the extra memory
    is the real density (a sixth of the volume's bytes) plus one slab.
    """
    m = vol.values.shape[0]
    w = np.full(m, vol.spacing)
    w[0] = w[-1] = 0.5 * vol.spacing
    dens = np.empty((m, m, m))
    for s in _slabs(m):
        np.sum(np.abs(vol.values[s]) ** 2, axis=-1, out=dens[s])
    return float(np.einsum("pqr,p,q,r->", dens, w, w, w))


_VOL_MAGIC = "sampled-volume 1"


def save_volume(vol: SampledVolume, path) -> None:
    """The field snapshot's layout: side m and hex-float geometry, then component-major samples."""
    meta = {"m": vol.values.shape[0], "half_width": float(vol.half_width).hex(),
            "spacing": float(vol.spacing).hex()}
    df._write_snapshot(path, _VOL_MAGIC, meta, vol.values)


def load_volume(path) -> SampledVolume:
    parse = {"m": int, "half_width": float.fromhex, "spacing": float.fromhex}
    meta, values = df._read_snapshot(path, _VOL_MAGIC, parse, lambda m: m["m"])
    return SampledVolume(meta["half_width"], meta["spacing"], values)


def synthesize(family, half_width: float, spacing: float) -> SampledVolume:
    """Evaluate the superposition on a centered uniform grid.

    Each node contributes through separable per-axis phase matrices
    e^{i (k_a + j_a) x}, so the cost is a few small tensor contractions
    per node instead of a full lattice sum per sample.  The output volume
    is allocated once and the last contraction adds into it one x-slab at
    a time, so memory stays near the output's own size (16 bytes per
    complex sample, 3 per point); grids above BOX_GRID_CAP entries raise
    TooLarge before anything is allocated.
    """
    axis = volume_axis(half_width, spacing)
    m = len(axis)
    n = family.truncation
    kvals = np.arange(-n, n + 1, dtype=float)
    acc = np.zeros((m, m, m, 3), dtype=np.complex128)
    slabs = _slabs(m)
    for w, j, g in zip(family.weights, family.j_nodes, family.fields):
        e1, e2, e3 = (
            np.exp(1j * np.outer(kvals + j[a], axis)) for a in range(3)
        )
        t = np.einsum("abcd,ax->xbcd", g.coeffs, e1)
        t = np.einsum("xbcd,by->xycd", t, e2)
        for s in slabs:
            acc[s] += w * np.einsum("xycd,cz->xyzd", t[s], e3)
    return SampledVolume(half_width, spacing, acc)


# ---------------------------------------------------------------------------
# Parseval bookkeeping and concentration


@dataclass(frozen=True)
class ParsevalReport:
    radii: np.ndarray
    lhs: np.ndarray
    rhs: float
    rel_err: np.ndarray
    decreasing: bool

    @property
    def final_rel_err(self) -> float:
        return float(self.rel_err[-1])


def parseval_check(family, r_max: float, num: int = 16, r_min: float | None = None) -> ParsevalReport:
    """Compare box mass against the coefficient-space total over growing R.

    A genuine band family has rel_err -> 0 like 1/(J R); a lone plane wave
    is not square-integrable, so its rel_err grows without bound and the
    report flags it as non-decreasing.
    """
    if not (r_max > 0.0 and math.isfinite(r_max)) or num < 2:
        raise ConfigError(f"need a finite r_max > 0 and at least two radii, got r_max = {r_max}, num = {num}")
    radii = np.geomspace(r_min if r_min is not None else r_max / 16.0, r_max, num)
    lhs = family.box_mass(radii)
    rhs = family.total_mass()
    if rhs == 0.0:
        rel = np.zeros_like(lhs)
    else:
        rel = np.abs(lhs - rhs) / rhs
    decreasing = bool(np.all(np.diff(rel) <= 1e-12))
    return ParsevalReport(radii=radii, lhs=lhs, rhs=rhs, rel_err=rel, decreasing=decreasing)


def concentration_radius(
    family,
    delta: float,
    r_max: float,
    num: int = 48,
) -> float:
    """Smallest sampled R in [r_max / 64, r_max] whose box holds mass >= (1 - delta) of the total."""
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    radii = np.geomspace(r_max / 64.0, r_max, num)
    frac = family.box_mass(radii) / family.total_mass()
    hit = np.nonzero(frac >= 1.0 - delta)[0]
    if len(hit) == 0:
        raise NotConcentrated(
            f"mass fraction reached only {frac[-1]:.4f} < {1 - delta:.4f} "
            f"at R = {r_max:g}; widen the band or raise r_max"
        )
    return float(radii[hit[0]])


# ---------------------------------------------------------------------------
# band data from modal eigenpairs


def prepare_band_pairs(flow, nodes, eps_ratio: float, truncation: int) -> list:
    """Leading eigenpair of the modal operator at every node.

    Raises band-broken if the leading eigenvalue fails to be simple at
    some node (degenerate bands cannot be phase-coherently synthesized).
    """
    nodes = np.asarray(nodes, dtype=float)
    specs = [modal.ModalOperatorSpec(flow=flow, j=j, eps=eps_ratio, truncation=truncation) for j in nodes]
    pairs = []
    for i, (j, (pair, values)) in enumerate(zip(nodes, modal.leading_eigs_box(specs, count=2))):
        gap = abs(values[0] - values[1])
        if not gap > 1e-8 * max(1.0, abs(values[0])):  # a NaN gap fails too
            raise BandBroken(f"leading eigenvalue not simple at node {i} (j = {j}); gap = {gap:.3e}")
        pairs.append(pair)
    return pairs


def build_band_datum(pairs, nodes, weights) -> BlochFamily:
    """Assemble the conjugate-paired, unit-mass family from one box of pairs.

    The mirror box at -j carries the conjugated fields and exponents, which
    makes the synthesis real; the whole family is then normalized so the
    coefficient-space mass equals one.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not len(pairs) == len(nodes) == len(weights):
        raise ConfigError("pairs, nodes, and weights must align")
    plus_fields = [p.field for p in pairs]
    exps = np.array([p.p for p in pairs])
    all_nodes = np.concatenate([nodes, -nodes])
    all_weights = np.concatenate([weights, weights])
    all_fields = plus_fields + [g.conjugate() for g in plus_fields]
    all_exps = np.concatenate([exps, np.conj(exps)])
    total = _mass(all_weights, all_fields)
    if total <= 0.0:
        raise SolverFailure("band datum has zero mass")
    root = math.sqrt(total)
    all_fields = [
        df.SpectralField(g.coeffs / root, kind="complex") for g in all_fields
    ]
    return BlochFamily(
        j_nodes=all_nodes,
        weights=all_weights,
        fields=all_fields,
        conjugate_paired=True,
        exponents=all_exps,
    )


def band_datum(
    flow,
    j_star,
    half_width: float,
    eps: float = 1.0,
    zeta: float = 0.9,
    truncation: int = 2,
    nodes_per_axis: int = 5,
) -> BlochFamily:
    """One-call band datum: quadrature box, eigensolves at the rescaled
    diffusivity eps/zeta^n, mirroring, and normalization."""
    nodes, weights = gauss_legendre_box(j_star, half_width, nodes_per_axis)
    pairs = prepare_band_pairs(flow, nodes, _ladder_ratio(eps, zeta), truncation)
    return build_band_datum(pairs, nodes, weights)


@dataclass(frozen=True)
class SweepResult:
    eps_values: np.ndarray
    radii: np.ndarray
    spread: float


def concentration_sweep(
    flow,
    j_star,
    half_width: float,
    eps_values,
    delta: float,
    r_max: float,
    zeta: float = 0.9,
    truncation: int = 2,
    nodes_per_axis: int = 5,
    num: int = 48,
) -> SweepResult:
    """Concentration radius across a diffusivity sweep.

    The ladder index maps each eps to the rescaled problem at eps/zeta^n,
    so data recur exactly at powers of zeta; the spread across the sweep
    quantifies eps-uniformity of the radius.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    cache: dict[float, float] = {}  # rescaled ratio -> concentration radius
    radii = []
    for eps in eps_values:
        key = round(_ladder_ratio(eps, zeta), 12)
        if key not in cache:
            family = band_datum(
                flow, j_star, half_width, eps=eps, zeta=zeta,
                truncation=truncation, nodes_per_axis=nodes_per_axis,
            )
            cache[key] = concentration_radius(family, delta, r_max, num=num)
        radii.append(cache[key])
    radii = np.asarray(radii)
    spread = float((radii.max() - radii.min()) / radii.min())
    return SweepResult(eps_values=eps_values, radii=radii, spread=spread)
