"""Truncated Fourier representation of periodic vector fields in 3-D.

A field is stored as a dense complex coefficient array over the cubic mode
lattice ``|k_i| <= N`` with the synthesis convention

    f(x) = sum_k  coeff(k) * exp(i k . x / scale),

so a field with ``scale = s`` is (2 pi s)-periodic along each axis.  The
``kind`` tag records whether the field represents a real-valued function
(coefficients Hermitian under k -> -k) or a genuinely complex one.

Everything downstream (cell solves, modal operators, time stepping, band
synthesis, gluing) is built from the primitives in this module: curl,
exact dealiased cross products, inverse Laplacian, means, the Hermitian
mirror c(k) -> conj c(-k) of ``SpectralField.conjugate`` (its one spelling,
which ``is_hermitian`` and ``hermitize`` use), the norms ``l2``, ``sup_value``
and ``sup_grad``, pointwise evaluation, and the snapshot file format.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import ConfigError, InvalidScale, InvalidTruncation, NotMeanFree

# Safety factor applied wherever a grid-sampled sup norm feeds a smallness
# threshold; the grid maximum itself is only a lower bound on the true sup.
GRAD_SAFETY = 1.05

_KINDS = ("real", "complex")


@dataclass(frozen=True, eq=False)
class AbcParams:
    """Amplitudes of the three-mode Beltrami flow used throughout."""

    a: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Dense coefficient block over the cubic lattice, shape (2N+1,)*3 + (3,).

    Index ``i`` along each mode axis corresponds to wavenumber ``i - N``.
    Instances are immutable; every operation returns a new field.  They
    hash by identity, so a field can key a cache of data derived from it.
    """

    coeffs: np.ndarray
    kind: str = "real"
    scale: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 4 or c.shape[3] != 3:
            raise InvalidTruncation(f"expected (2N+1, 2N+1, 2N+1, 3) coefficients, got {c.shape}")
        n = c.shape[0]
        if c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2] or n % 2 != 1:
            raise InvalidTruncation(f"mode lattice must be cubic with odd side, got {c.shape[:3]}")
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvalidScale(f"scale must be positive and finite, got {self.scale}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def coeff(self, k) -> np.ndarray:
        """Coefficient 3-vector at integer mode k (zero outside the lattice)."""
        k = np.asarray(k, dtype=int)
        n = self.truncation
        if np.any(np.abs(k) > n):
            return np.zeros(3, dtype=np.complex128)
        return self.coeffs[k[0] + n, k[1] + n, k[2] + n].copy()

    def l2(self) -> float:
        """Root mean square over one cell: sqrt of the Parseval sum."""
        return float(np.linalg.norm(self.coeffs))

    def conjugate(self) -> "SpectralField":
        c = np.conj(self.coeffs[::-1, ::-1, ::-1])
        return SpectralField(c, kind=self.kind, scale=self.scale)

    def _binary_check(self, other: "SpectralField"):
        if not isinstance(other, SpectralField):
            raise TypeError("expected a SpectralField")
        if other.scale != self.scale:
            raise InvalidScale("fields have different periodicity scales")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._binary_check(other)
        n = max(self.truncation, other.truncation)
        c = _embed(self.coeffs, n) + _embed(other.coeffs, n)
        kind = "real" if self.kind == other.kind == "real" else "complex"
        return SpectralField(c, kind=kind, scale=self.scale)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + (-1.0) * other

    def __mul__(self, z) -> "SpectralField":
        z = complex(z)
        kind = self.kind if z.imag == 0.0 else "complex"
        return SpectralField(self.coeffs * z, kind=kind, scale=self.scale)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)


def mode_range(n: int) -> np.ndarray:
    return np.arange(-n, n + 1)


def _embed(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Zero-pad or validate a coefficient block to truncation n_out."""
    n_in = (coeffs.shape[0] - 1) // 2
    if n_out < n_in:
        raise InvalidTruncation("cannot embed into a smaller lattice")
    if n_out == n_in:
        return coeffs.copy()
    out = np.zeros((2 * n_out + 1,) * 3 + (3,), dtype=np.complex128)
    lo, hi = n_out - n_in, n_out + n_in + 1
    out[lo:hi, lo:hi, lo:hi] = coeffs
    return out


def resize(f: SpectralField, n_out: int) -> SpectralField:
    """Zero-pad (or truncate) a field to truncation radius n_out.

    Fields are immutable, so one already at n_out is returned as it is.
    """
    n_in = f.truncation
    if n_out == n_in:
        return f
    if n_out > n_in:
        return SpectralField(_embed(f.coeffs, n_out), kind=f.kind, scale=f.scale)
    lo, hi = n_in - n_out, n_in + n_out + 1
    return SpectralField(f.coeffs[lo:hi, lo:hi, lo:hi], kind=f.kind, scale=f.scale)


def zero_field(n: int, kind: str = "real", scale: float = 1.0) -> SpectralField:
    return SpectralField(np.zeros((2 * n + 1,) * 3 + (3,), dtype=np.complex128), kind=kind, scale=scale)


def const_field(v, n: int = 0, scale: float = 1.0) -> SpectralField:
    v = np.asarray(v, dtype=np.complex128)
    kind = "real" if np.allclose(v.imag, 0.0) else "complex"
    c = np.zeros((2 * n + 1,) * 3 + (3,), dtype=np.complex128)
    c[n, n, n] = v
    return SpectralField(c, kind=kind, scale=scale)


@functools.lru_cache(maxsize=16)
def wavevectors(n: int, scale: float = 1.0) -> np.ndarray:
    """Physical wavevector grid, shape (2n+1, 2n+1, 2n+1, 3).

    Read-only and shared: every operator, residual and divergence at one
    truncation asks for the same grid.
    """
    r = mode_range(n).astype(float) / scale
    k1, k2, k3 = np.meshgrid(r, r, r, indexing="ij")
    kv = np.stack([k1, k2, k3], axis=-1)
    kv.flags.writeable = False
    return kv


def make_abc(params: AbcParams, n: int = 1) -> SpectralField:
    """Three-mode Beltrami flow with amplitudes (a, b, c).

    Real-space components are (a sin x3 + c cos x2, b sin x1 + a cos x3,
    c sin x2 + b cos x1); the Fourier support is exactly the six unit modes.
    """
    if n < 1:
        raise InvalidTruncation("the flow needs truncation radius >= 1")
    a, b, c = params.as_tuple()
    f = zero_field(n)
    coeffs = np.array(f.coeffs)

    def put(k, v):
        coeffs[k[0] + n, k[1] + n, k[2] + n] = v

    # a sin x3 e1 + a cos x3 e2  (modes (0,0,+-1))
    put((0, 0, 1), [-0.5j * a, 0.5 * a, 0.0])
    put((0, 0, -1), [0.5j * a, 0.5 * a, 0.0])
    # b sin x1 e2 + b cos x1 e3  (modes (+-1,0,0))
    put((1, 0, 0), [0.0, -0.5j * b, 0.5 * b])
    put((-1, 0, 0), [0.0, 0.5j * b, 0.5 * b])
    # c cos x2 e1 + c sin x2 e3  (modes (0,+-1,0))
    put((0, 1, 0), [0.5 * c, 0.0, -0.5j * c])
    put((0, -1, 0), [0.5 * c, 0.0, 0.5j * c])
    return SpectralField(coeffs, kind="real", scale=1.0)


def mean_vector(f: SpectralField) -> np.ndarray:
    return f.coeff((0, 0, 0))


def is_hermitian(f: SpectralField, tol: float = 1e-12) -> bool:
    """Whether coefficients satisfy the real-field symmetry c(-k) = conj c(k)."""
    c = f.coeffs
    defect = np.max(np.abs(c - f.conjugate().coeffs))
    return bool(defect <= tol * max(1.0, np.max(np.abs(c))))


def hermitize(f: SpectralField) -> SpectralField:
    """Project onto the real-field symmetry class and tag kind='real'."""
    c = 0.5 * (f.coeffs + f.conjugate().coeffs)
    return SpectralField(c, kind="real", scale=f.scale)


def curl(f: SpectralField) -> SpectralField:
    kv = wavevectors(f.truncation, f.scale)
    return SpectralField(np.cross(1j * kv, f.coeffs), kind=f.kind, scale=f.scale)


def laplacian(f: SpectralField) -> SpectralField:
    kv = wavevectors(f.truncation, f.scale)
    k2 = np.sum(kv * kv, axis=-1, keepdims=True)
    return SpectralField(-k2 * f.coeffs, kind=f.kind, scale=f.scale)


def inv_laplacian(f: SpectralField) -> SpectralField:
    """Unique mean-free solution of Lap(g) = f; requires input whose mean is below 1e-12 relative."""
    m = np.linalg.norm(mean_vector(f))
    if m > 1e-12 * max(1.0, f.l2()):
        raise NotMeanFree(f"input has mean of relative size {m:.3e}")
    n = f.truncation
    kv = wavevectors(n, f.scale)
    k2 = np.sum(kv * kv, axis=-1, keepdims=True)
    k2[n, n, n, 0] = 1.0  # the k = 0 row is zeroed below
    c = f.coeffs / (-k2)
    c[n, n, n] = 0.0
    return SpectralField(c, kind=f.kind, scale=f.scale)


def divergence_rel(f: SpectralField, shift=None) -> float:
    """Max modal magnitude of (div + i shift .) f relative to the field's l2 norm."""
    kv = wavevectors(f.truncation, f.scale)
    if shift is not None:
        kv = kv + np.asarray(shift, dtype=float)
    d = np.max(np.abs(np.sum(1j * kv * f.coeffs, axis=-1)))
    return float(d / max(f.l2(), 1e-300))


def leray_project(f: SpectralField, shift=None) -> SpectralField:
    """Remove the (possibly shifted) compressible part mode by mode."""
    kv = wavevectors(f.truncation, f.scale)
    if shift is not None:
        kv = kv + np.asarray(shift, dtype=float)
    k2 = np.sum(kv * kv, axis=-1, keepdims=True)
    safe = np.where(k2 > 0.0, k2, 1.0)
    kdotc = np.sum(kv * f.coeffs, axis=-1, keepdims=True)
    c = f.coeffs - kv * kdotc / safe
    c = np.where(k2 > 0.0, c, f.coeffs)
    return SpectralField(c, kind=f.kind, scale=f.scale)


# ---------------------------------------------------------------------------
# products and grids

def _to_grid(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Synthesize coefficients on an m^3 uniform grid (complex values)."""
    n = (coeffs.shape[0] - 1) // 2
    if m < 2 * n + 1:
        raise InvalidTruncation(f"grid of {m} points cannot hold modes up to {n}")
    spec = np.zeros((m, m, m, 3), dtype=np.complex128)
    idx = mode_range(n) % m
    spec[np.ix_(idx, idx, idx)] = coeffs
    return sfft.ifftn(spec, axes=(0, 1, 2)) * m**3


def _from_grid(grid: np.ndarray, n_out: int) -> np.ndarray:
    m = grid.shape[0]
    spec = sfft.fftn(grid, axes=(0, 1, 2)) / m**3
    out = np.zeros((2 * n_out + 1,) * 3 + (3,), dtype=np.complex128)
    n_take = min(n_out, (m - 1) // 2)
    idx_src = mode_range(n_take) % m
    lo, hi = n_out - n_take, n_out + n_take + 1
    out[lo:hi, lo:hi, lo:hi] = spec[np.ix_(idx_src, idx_src, idx_src)]
    return out


def grid_points(f: SpectralField, m: int) -> np.ndarray:
    x = 2.0 * np.pi * f.scale * np.arange(m) / m
    x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
    return np.stack([x1, x2, x3], axis=-1)


def cross(f: SpectralField, g: SpectralField, cap: int | None = None) -> SpectralField:
    """Pointwise cross product f x g, dealiased exactly by zero padding.

    The physical-space product is formed on a grid large enough to hold all
    N_f + N_g output modes, so no aliasing error enters; the result is then
    truncated to ``cap`` (default N_f + N_g, i.e. exact).
    """
    f._binary_check(g)
    full = f.truncation + g.truncation
    n_out = full if cap is None else cap
    m = sfft.next_fast_len(2 * full + 1, real=False)
    fg = _to_grid(f.coeffs, m)
    gg = _to_grid(g.coeffs, m)
    prod = np.cross(fg, gg)
    out = _from_grid(prod, n_out)
    kind = "real" if f.kind == g.kind == "real" else "complex"
    return SpectralField(out, kind=kind, scale=f.scale)


def _cross_matrix(w: np.ndarray) -> np.ndarray:
    """Matrix [w]_x with [w]_x h = w x h, batched over leading axes."""
    out = np.zeros(w.shape[:-1] + (3, 3), dtype=np.complex128)
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


# ---------------------------------------------------------------------------
# norms

def _oversampled_m(n: int, oversample: int) -> int:
    m = max(oversample * (2 * n + 1), 8)
    return m + (-m) % 4  # multiples of 4 put the quarter-period extrema on grid


def sup_grad(f: SpectralField, oversample: int = 4, ord: str = "inf") -> float:
    """Grid maximum of a pointwise Jacobian norm (a lower bound on the sup).

    ord='inf' uses the max absolute row sum (the natural companion of the
    componentwise sup norm); ord='2' uses the spectral norm, which is the
    right constant for quadratic-form energy estimates.
    """
    m = _oversampled_m(f.truncation, oversample)
    kv = wavevectors(f.truncation, f.scale)
    # pointwise Jacobian J[..., i, l] = d_l f_i on the m^3 grid
    jac = np.stack([_to_grid(1j * kv[..., l:l + 1] * f.coeffs, m) for l in range(3)], axis=-1)
    if ord == "inf":
        pointwise = np.max(np.sum(np.abs(jac), axis=-1), axis=-1)
    elif ord == "2":
        pointwise = np.linalg.norm(jac.real.reshape(-1, 3, 3), ord=2, axis=(1, 2))
    else:
        raise ConfigError(f"unsupported Jacobian norm {ord!r}")
    return float(np.max(pointwise))


def sup_value(f: SpectralField, oversample: int = 4) -> float:
    """Grid maximum of the pointwise Euclidean magnitude |f(x)|."""
    m = _oversampled_m(f.truncation, oversample)
    vals = _to_grid(f.coeffs, m)
    if f.kind == "real":
        vals = vals.real
    return float(np.max(np.linalg.norm(vals, axis=-1)))


# ---------------------------------------------------------------------------
# pointwise evaluation at arbitrary points

def _eval_derivatives(f: SpectralField, points: np.ndarray, order: int) -> np.ndarray:
    """Derivatives of order 0, 1 or 2 at arbitrary points, shape (P, 3) + (3,) * order: the phases
    exp(i k.x) of the nonzero modes, formed once, times their factors (ik)^order c(k) in one product."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    keep = np.any(f.coeffs != 0.0, axis=-1)
    kv, cf = wavevectors(f.truncation, f.scale)[keep], f.coeffs[keep]
    if order == 0:
        factors = cf
    elif order == 1:
        factors = 1j * kv[:, None, :] * cf[:, :, None]
    else:
        factors = -kv[:, None, :, None] * kv[:, None, None, :] * cf[:, :, None, None]
    phases = np.exp(1j * (pts @ kv.T))
    return (phases @ factors.reshape(len(kv), 3 ** (order + 1))).reshape(len(pts), *factors.shape[1:])


def eval_at_points(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Values of f at arbitrary points, shape (P, 3) complex."""
    return _eval_derivatives(f, points, 0)


def eval_jacobian_at_points(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Jacobians J[p, i, l] = d_l f_i at arbitrary points."""
    return _eval_derivatives(f, points, 1)


def eval_hessian_at_points(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Second derivatives H[p, i, l, m] = d_l d_m f_i at arbitrary points."""
    return _eval_derivatives(f, points, 2)


# ---------------------------------------------------------------------------
# snapshot file format

_MAGIC = "spectral-field 1"


def _write_snapshot(path, magic: str, meta: dict, values: np.ndarray) -> None:
    """Magic line, ``key value`` lines, ``components 3``, ``data``, then the
    (..., 3) values component-major as little-endian complex128, one
    component converted at a time."""
    lines = [magic, *(f"{k} {v}" for k, v in meta.items()), "components 3", "data", ""]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        for c in range(3):
            fh.write(np.ascontiguousarray(values[..., c], dtype="<c16"))


def _read_snapshot(path, magic: str, parse: dict, side) -> tuple[dict, np.ndarray]:
    """Header values, converted by ``parse``, and the (s, s, s, 3) payload.

    ``side`` maps the converted header to the cube side s.  An unreadable
    file, a missing key, a malformed value, a payload of the wrong size or
    one holding a non-finite value raises ConfigError naming the path.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read snapshot ({exc.strerror})") from exc
    split = blob.find(b"data\n")
    if split < 0 or not blob.startswith(magic.encode("ascii")):
        raise ConfigError(f"{path}: not a {magic.split()[0]} snapshot")
    try:
        head = blob[:split].decode("ascii").splitlines()
        meta = dict(line.split(None, 1) for line in head[1:] if line.strip())
        values = {key: conv(meta[key]) for key, conv in parse.items()}
        comps = int(meta["components"])
        s = side(values)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed snapshot header ({exc!r})") from exc
    if comps != 3:
        raise ConfigError(f"{path}: expected 3 components, found {comps}")
    raw = np.frombuffer(blob[split + len(b"data\n"):], dtype="<c16")
    if raw.size != 3 * s**3:
        raise ConfigError(f"{path}: payload holds {raw.size} values, expected {3 * s**3}")
    if not np.all(np.isfinite(raw)):
        raise ConfigError(f"{path}: payload holds a non-finite value")
    return values, np.moveaxis(raw.reshape(3, s, s, s), 0, -1)


def save_field(f: SpectralField, path) -> None:
    """Write the self-describing snapshot: text header, then raw payload.

    The payload is little-endian float64 (re, im) pairs, component-major and
    then lexicographic in k; the scale is stored as a hex float so that a
    load/save round trip is bit exact.
    """
    meta = {"N": f.truncation, "kind": f.kind, "scale": float(f.scale).hex()}
    _write_snapshot(path, _MAGIC, meta, f.coeffs)


def load_field(path) -> SpectralField:
    parse = {"N": int, "kind": str, "scale": float.fromhex}
    meta, coeffs = _read_snapshot(path, _MAGIC, parse, lambda m: 2 * m["N"] + 1)
    return SpectralField(coeffs, kind=meta["kind"], scale=meta["scale"])


# ---------------------------------------------------------------------------
# random fields (tests, probes)

def random_real_field(
    n: int,
    rng: np.random.Generator,
    mean_free: bool = True,
    div_free: bool = False,
    scale: float = 1.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Random real-kind field with unit-order coefficients, for probes."""
    shape = (2 * n + 1,) * 3 + (3,)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = hermitize(SpectralField(raw * amplitude, kind="complex", scale=scale))
    c = np.array(f.coeffs)
    if mean_free:
        c[n, n, n] = 0.0
    f = SpectralField(c, kind="real", scale=scale)
    if div_free:
        f = leray_project(f)
    return f


def random_complex_field(
    n: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    amplitude: float = 1.0,
) -> SpectralField:
    shape = (2 * n + 1,) * 3 + (3,)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(raw * amplitude, kind="complex", scale=scale)
