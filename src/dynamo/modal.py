"""Wavevector-shifted advection-diffusion operator and its spectral analysis.

For a periodic, divergence-free, mean-free flow U, a shift vector j, and a
diffusivity eps, the operator acting on periodic fields H is

    L H = (grad + i j) x (U x H) + eps (grad + i j)^2 H,

the generator obtained by factoring a plane-wave phase exp(i j . x) out of
the induction equation.  At j = 0, eps = 1 the operator has the
three-dimensional kernel spanned by v + S(v) with S the cell corrector
(see the alpha module); for small |j| its leading eigenvalues move linearly
with |j| at rates given by the alpha matrix.

This module builds the Galerkin matrix of L on the cubic mode lattice as
one sparse stencil over the flow's nonzero modes.  Its structure, where
the entries sit, depends only on the truncation and the flow's nonzero
modes; with the flow's cross-product blocks it forms the pattern, built
once per flow, and each (j, eps) fills in the values.
The dense matrix (capped at DENSE_CAP, for test oracles), every residual,
the cell data and cell solve in alpha and the time stepper in evolve all
come from it;
``apply_modal``, an independent matrix-free FFT apply, is the reference
for oracles only and no production path calls it.  On top
sit the eigensolver, shift-invert Arnoldi on a sparse LU of the stencil
(ARPACK for one operator; for the nodes of a band box, ARPACK's first
Arnoldi build run at every node in lockstep on one block-diagonal LU),
contour (Riesz) projectors with certified idempotency, an
argument-principle eigenvalue count, first-order perturbation checks,
continuation of an eigenpair in eps, and the quantitative projector
comparison bound used to certify rank stability.

One resolvent object per operator forms mu I - L and factors it by sparse
LU: at sigma for the eigensolver, and once per contour node, reused across
node doublings, repeated contour sums and shared eps grid points, with a
condition estimate that catches nodes too close to the spectrum.  SuperLU's
fill-reducing ordering is computed once per stencil structure; each mu then
costs a fill of the values into the structure's permuted layout, mu added
on its diagonal slots, and a numeric LU in that fixed order.  An
eigenvalue count reads each node's determinant phase once and releases that
node's factor, so it runs after the solves on the same nodes.  The
comparison bound takes 2-norms by Lanczos on the same factors: exact ones
for the resolvent and the projector distance, and for the perturbation's
smallness a short Lanczos screen at every node that leaves the exact norm
to the nodes that can hold the maximum.  The cell solve in alpha is one
more such factor, at j = 0.
"""

from __future__ import annotations

import cmath
import copy
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fields as df
from .errors import (
    BoundInapplicable,
    ConfigError,
    ContourTouchesSpectrum,
    EigsFailed,
    SolverFailure,
    TooLarge,
)

DENSE_CAP = 8000  # largest flat dimension for which dense paths are allowed
MAX_NODES = 256  # most quadrature nodes a projector or an eigenvalue count doubles to
BOX_BYTES = 1 << 21  # Krylov basis bytes one chunk of leading_eigs_box holds
SCREEN_STEPS = 30  # Lanczos steps of the screen ahead of the bound's exact weighted norms
SCREEN_RATIO = 0.8  # a node is screened out below this fraction of the largest exact squared norm


@dataclass(frozen=True, eq=False)
class ModalOperatorSpec:
    """Parameters (U, j, eps, N) of one truncated operator."""

    flow: df.SpectralField
    j: np.ndarray
    eps: float
    truncation: int

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float).reshape(3)
        object.__setattr__(self, "j", j)
        if not np.all(np.isfinite(j)):
            raise ConfigError(f"shift j must be finite, got {j}")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ConfigError(f"diffusivity must be positive, got {self.eps}")
        if self.truncation < self.flow.truncation:
            raise ConfigError("operator truncation cannot be smaller than the flow's support")
        if self.flow.scale != 1.0:
            raise ConfigError("modal analysis expects a flow on the unit-scale lattice")
        with np.errstate(over="ignore"):
            size = self.flow.l2()
        if not math.isfinite(size):
            raise ConfigError(f"flow coefficients too large or not finite: their l2 norm is {size}")
        if np.linalg.norm(df.mean_vector(self.flow)) > 1e-12 * max(1.0, size):
            raise ConfigError("flow must be mean-free")
        if df.divergence_rel(self.flow) > 1e-10:
            raise ConfigError("flow must be divergence-free")

    @property
    def dim(self) -> int:
        return 3 * (2 * self.truncation + 1) ** 3

    def shifted_wavevectors(self) -> np.ndarray:
        return df.wavevectors(self.truncation) + self.j


def field_to_vec(f: df.SpectralField) -> np.ndarray:
    return f.coeffs.reshape(-1).copy()


def vec_to_field(x: np.ndarray, n: int, kind: str = "complex") -> df.SpectralField:
    side = 2 * n + 1
    return df.SpectralField(np.asarray(x, dtype=np.complex128).reshape(side, side, side, 3), kind=kind)


def apply_modal(spec: ModalOperatorSpec, h: df.SpectralField) -> df.SpectralField:
    """Matrix-free application of L via one dealiased product: the stencil's reference, for oracles only."""
    if h.truncation != spec.truncation:
        h = df.resize(h, spec.truncation)
    kappa = spec.shifted_wavevectors()
    w = df.cross(spec.flow, h, cap=spec.truncation)
    adv = np.cross(1j * kappa, w.coeffs)
    k2 = np.sum(kappa * kappa, axis=-1, keepdims=True)
    diff = -spec.eps * k2 * h.coeffs
    return df.SpectralField(adv + diff, kind="complex")


class _Structure:
    """Where the stencil of truncation n keeps its entries, for a flow whose nonzero modes are ``modes``.

    The stencil puts the diagonal at every row and the block
    left(k) . [U(d)]_x at (row k, col k - d) for every nonzero flow mode d,
    so a row holds at most 3 x (number of modes) + 1 entries whatever the
    truncation.  The structure keeps the lattice row k of every block, the
    number of blocks of each mode, the permutation from the entry order
    (diagonal, then the blocks mode by mode) to CSR order, and the CSR
    indices.  It depends on the flow only through its nonzero modes, so
    flows of one support share it, and so does every (j, eps).
    """

    def __init__(self, n: int, modes: tuple[tuple[int, int, int], ...]):
        self.side = side = 2 * n + 1
        self.size = size = 3 * side**3
        idx = np.arange(side)
        axis3 = np.arange(3)
        lattice = [np.zeros(0, dtype=int)]
        rows, cols = [np.arange(size)], [np.arange(size)]
        for d in modes:
            r1, r2, r3 = (idx[max(0, di): side + min(0, di)] for di in d)
            rr = ((r1[:, None, None] * side + r2[None, :, None]) * side + r3[None, None, :]).reshape(-1)
            cc = rr - (d[0] * side + d[1]) * side - d[2]
            shape = (rr.size, 3, 3)
            lattice.append(rr)
            rows.append(np.broadcast_to((3 * rr)[:, None, None] + axis3[:, None], shape).reshape(-1))
            cols.append(np.broadcast_to((3 * cc)[:, None, None] + axis3, shape).reshape(-1))
        self.blocks_per_mode = [rr.size for rr in lattice[1:]]
        self.lattice = np.concatenate(lattice)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.order = np.lexsort((cols, rows))
        rows, cols = rows[self.order], cols[self.order]
        self.indices = cols
        self.indptr = np.searchsorted(rows, np.arange(size + 1))
        # a mean-free flow may still carry a tiny U(0), whose block lands on the diagonal
        self.duplicates = bool(np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)))

    @functools.cached_property
    def layout(self) -> _Layout:
        """The fill-reducing order and resolvent layout, made on first use: one ordering per structure."""
        return _Layout(self)


@functools.lru_cache(maxsize=4)
def _structure(n: int, modes: tuple[tuple[int, int, int], ...]) -> _Structure:
    """The structure of (n, modes), kept for the few used last: one per truncation in a run on one flow."""
    return _Structure(n, modes)


class _Pattern:
    """The stencil of one flow at one truncation: its structure and the matrix [U(d)]_x of every block.

    ``entries`` only multiplies the blocks, and ``assemble`` puts them in
    CSR order.
    """

    def __init__(self, flow: df.SpectralField, n: int):
        modes = tuple(d for d in itertools.product(df.mode_range(flow.truncation), repeat=3) if np.any(flow.coeff(d)))
        self.structure = s = _structure(n, modes)
        crosses = np.array([df._cross_matrix(flow.coeff(d)) for d in modes], dtype=np.complex128).reshape(-1, 3, 3)
        self.crosses = np.repeat(crosses, s.blocks_per_mode, axis=0)

    def entries(self, left: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """The diagonal diag, then the blocks left(k) . [U(d)]_x, in the structure's entry order.

        ``left`` broadcasts to one 3 x 3 matrix per lattice mode.
        """
        s = self.structure
        left = np.broadcast_to(left, (s.side,) * 3 + (3, 3)).reshape(-1, 3, 3)
        return np.concatenate((diag, (left[s.lattice] @ self.crosses).reshape(-1)))

    def assemble(self, entries: np.ndarray) -> sp.csr_array:
        """The CSR matrix of ``entries``, exact zeros dropped and duplicates summed."""
        s = self.structure
        data = entries[s.order]
        keep = data != 0
        # boolean indexing copies, so the matrix owns its index arrays:
        # sum_duplicates, or any caller, compacting them in place must not
        # reach the cached structure
        data, indices = data[keep], s.indices[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[s.indptr]
        out = sp.csr_array((data, indices, indptr), shape=(s.size, s.size))
        if s.duplicates:
            out.sum_duplicates()
        return out


@functools.lru_cache(maxsize=4)
def _pattern(flow: df.SpectralField, n: int) -> _Pattern:
    """The stencil pattern of (flow, n), kept for the few pairs used last.

    Fields are immutable and hash by identity, so the flow object itself
    is the key: the nodes of a band, the grid points of a continuation and
    the cell solves of one flow all share one pattern.
    """
    return _Pattern(flow, n)


def _entries(spec: ModalOperatorSpec) -> tuple[_Pattern, np.ndarray]:
    """The pattern of the operator's flow and the entries of L in its entry order."""
    kappa = spec.shifted_wavevectors()
    diag = np.repeat(-spec.eps * np.sum(kappa * kappa, axis=-1).reshape(-1), 3).astype(np.complex128)
    pattern = _pattern(spec.flow, spec.truncation)
    return pattern, pattern.entries(df._cross_matrix(1j * kappa), diag)


def _operator(spec: ModalOperatorSpec) -> sp.csr_array:
    """Sparse Galerkin matrix of L on the flattened coefficient vector."""
    pattern, entries = _entries(spec)
    return pattern.assemble(entries)


def assemble_dense(spec: ModalOperatorSpec) -> np.ndarray:
    """Dense Galerkin matrix of L, for oracles and small dense solves."""
    if spec.dim > DENSE_CAP:
        raise TooLarge(f"dense assembly of dimension {spec.dim} exceeds the cap {DENSE_CAP}")
    return _operator(spec).toarray()


# ---------------------------------------------------------------------------
# eigenpairs

@dataclass(frozen=True, eq=False)
class EigPair:
    """One computed eigenpair with its a-posteriori diagnostics."""

    p: complex
    field: df.SpectralField
    residual: float                  # ||L v - p v|| / ||v|| on the truncated stencil
    modal_div_residual: float


def eig_order(values: np.ndarray) -> np.ndarray:
    """Descending real part, ties broken by descending imaginary part."""
    return np.lexsort((-values.imag, -values.real))


def fix_phase(f: df.SpectralField) -> df.SpectralField:
    """Unit l2 norm with the anchor component rotated to be real positive.

    The anchor is the largest-modulus component of the mean vector, falling
    back to the globally largest coefficient for mean-free eigenvectors.
    """
    nrm = f.l2()
    if nrm == 0.0:
        return f
    m = df.mean_vector(f)
    anchor = m[np.argmax(np.abs(m))]
    if np.abs(anchor) < 1e-9 * nrm:
        flat = f.coeffs.reshape(-1)
        anchor = flat[np.argmax(np.abs(flat))]
    return f * (np.abs(anchor) / (anchor * nrm))


def _make_pair(matrix: sp.sparray, spec: ModalOperatorSpec, p: complex, h: df.SpectralField) -> EigPair:
    """Phase-fixed pair with the Galerkin residual ||L v - p v|| / ||v|| on the stencil ``matrix``."""
    h = fix_phase(h)
    v = h.coeffs.reshape(-1)
    return EigPair(
        p=complex(p),
        field=h,
        residual=float(np.linalg.norm(matrix @ v - p * v)) / max(h.l2(), 1e-300),
        modal_div_residual=df.divergence_rel(h, shift=spec.j),
    )


def _shift(spec: ModalOperatorSpec, count: int, sigma: complex | None) -> complex:
    """The shift of a shift-invert solve for ``count`` pairs: sigma, by default 0.1 eps."""
    if not 1 <= count <= spec.dim - 2:
        raise ConfigError(f"shift-invert Arnoldi returns 1 to {spec.dim - 2} eigenpairs, not {count}")
    if sigma is None:
        sigma = 0.1 * spec.eps
    if not cmath.isfinite(sigma):
        raise ConfigError(f"shift sigma must be finite, got {sigma}")
    return sigma


def leading_eigs(
    spec: ModalOperatorSpec,
    count: int = 6,
    sigma: complex | None = None,
    seed: int = 0,
) -> list[EigPair]:
    """The ``count`` eigenpairs nearest ``sigma``, ordered by descending real part.

    Shift-invert Arnoldi (ARPACK) on the resolvent's sparse LU of
    sigma I - L, started from a random vector fixed by ``seed``; there is no
    size cap.  The default shift, 0.1 eps, lies just right of the
    eigenvalues near zero that carry the alpha instability, so the nearest
    eigenvalues are the leading ones.  ARPACK returns at most dim - 2.
    """
    sigma = _shift(spec, count, sigma)
    res = _Resolvent(spec)
    # the seed fixes the start vector and any restart vector ARPACK draws
    # after a breakdown, which scipy would otherwise take from OS entropy
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(spec.dim) + 0.0j
    try:
        # no condition gate: continue_in_eps puts sigma on an eigenvalue on purpose;
        # (L - sigma I)^-1 = -(sigma I - L)^-1 exactly, as negation does not round
        lu = res.factor(sigma)[0]
        opinv = spla.LinearOperator(res.matrix.shape, matvec=lambda x: -lu.solve(x), dtype=np.complex128)
        vals, vecs = spla.eigs(res.matrix, k=count, sigma=sigma, which="LM", v0=v0, OPinv=opinv, rng=rng)
    except RuntimeError as exc:  # no convergence, or sigma exactly singular
        raise EigsFailed(f"shift-invert Arnoldi failed: {exc}") from exc
    order = eig_order(vals)
    return [_make_pair(res.matrix, spec, vals[i], vec_to_field(vecs[:, i], spec.truncation)) for i in order]


def leading_eigs_box(specs, count: int = 2) -> list[tuple[EigPair, np.ndarray]]:
    """(leading ``EigPair``, the ``count`` eigenvalues in ``eig_order``) at every operator of one stencil structure.

    ARPACK converges the leading pairs of a band node within its first
    Arnoldi build, and at N = 1 its own bookkeeping costs more than the
    node's LU and solves.  Here the nodes run that first build together:
    one sparse LU of the block-diagonal sigma I - L per chunk of nodes,
    sigma = 0.1 eps at each node as in ``leading_eigs``, one block solve per
    Arnoldi step, two passes of classical Gram-Schmidt as batched products,
    and the Ritz pairs of every node's Hessenberg matrix from one batched
    ``eig``.  Each node starts from ``leading_eigs``'s default start vector
    and builds ARPACK's default Krylov length, max(2 count + 1, 20).  It
    keeps the ``count`` Ritz values of largest modulus when all pass
    ARPACK's acceptance test, |beta_m y_m| <= eps max(eps^(2/3), |theta|);
    a node whose Krylov space breaks down or whose estimates fail, and every
    node of a chunk whose LU fails, is solved again by ``leading_eigs``, as
    is every node of an operator too small for that Krylov length.  Chunks
    hold at most BOX_BYTES of Krylov basis, so memory stays bounded whatever
    the number of nodes.
    """
    specs = list(specs)
    if not specs:
        return []
    sigmas = np.array([_shift(spec, count, None) for spec in specs], dtype=np.complex128)
    dim = specs[0].dim
    length = max(2 * count + 1, 20)
    out = [None] * len(specs)
    if length < dim:
        v0 = np.random.default_rng(0).standard_normal(dim) + 0.0j
        per = max(1, BOX_BYTES // ((length + 1) * dim * 16))
        for at in range(0, len(specs), per):
            out[at:at + per] = _arnoldi_box(specs[at:at + per], count, sigmas[at:at + per], v0, length)
    for i in [i for i, node in enumerate(out) if node is None]:
        pairs = leading_eigs(specs[i], count)
        out[i] = (pairs[0], np.array([q.p for q in pairs]))
    return out


# a Krylov step that leaves less than this fraction of OP v finds the space
# invariant; above it, two Gram-Schmidt passes keep the basis orthogonal to
# working precision (Giraud, Langou and Rozloznik, Numer. Math. 101, 2005)
_INVARIANT = math.sqrt(np.finfo(float).eps)


def _arnoldi_box(specs: list, count: int, sigmas: np.ndarray, v0: np.ndarray, length: int) -> list:
    """ARPACK's first Arnoldi build at every node of a chunk, in lockstep; None where a node needs ARPACK itself.

    The Arnoldi operator is (sigma I - L)^-1 = -(L - sigma I)^-1, whose
    Ritz values are the negated ones ARPACK sees, so p = sigma - 1/theta.
    """
    count_nodes, dim = len(specs), specs[0].dim
    res = _Resolvent(*specs)
    try:
        lu = res.factor(np.repeat(sigmas, dim))[0]
    except ContourTouchesSpectrum:  # some node's sigma is exactly singular
        return [None] * count_nodes
    basis = np.empty((count_nodes, length + 1, dim), dtype=np.complex128)
    hess = np.zeros((count_nodes, length + 1, length), dtype=np.complex128)
    basis[:, 0] = v0 / np.linalg.norm(v0)
    broken = np.zeros(count_nodes, dtype=bool)
    for k in range(length):
        w = lu.solve(basis[:, k].reshape(-1)).reshape(count_nodes, dim)
        applied = np.linalg.norm(w, axis=1)
        span = basis[:, :k + 1]
        for _ in range(2):
            # <v_i, w> = conj(v_i^T conj(w)): one batched product, and conj only on small arrays
            c = (span @ w.conj()[:, :, None])[:, :, 0].conj()
            w -= (c[:, None, :] @ span)[:, 0]
            hess[:, :k + 1, k] += c
        beta = np.linalg.norm(w, axis=1)
        broken |= beta <= _INVARIANT * applied
        hess[:, k + 1, k] = beta
        basis[:, k + 1] = w / np.where(broken, 1.0, beta)[:, None]
    out: list = [None] * count_nodes
    ok = np.flatnonzero(~broken)
    try:
        theta, y = np.linalg.eig(hess[ok, :length])
    except np.linalg.LinAlgError:  # the QR iteration of some Hessenberg did not converge
        return out
    top = np.argsort(-np.abs(theta), axis=1, kind="stable")[:, :count]
    theta = np.take_along_axis(theta, top, axis=1)
    y = np.take_along_axis(y, top[:, None, :], axis=2)
    # ARPACK's Ritz estimates |beta_m y_m| against eps max(eps^(2/3), |theta|)
    eps = np.finfo(float).eps
    estimates = np.abs(hess[ok, length, length - 1][:, None] * y[:, -1, :])
    converged = np.all(estimates <= eps * np.maximum(eps ** (2.0 / 3.0), np.abs(theta)), axis=1)
    for row, i in enumerate(ok):
        if converged[row]:
            p = sigmas[i] - 1.0 / theta[row]
            c = eig_order(p)
            lead = vec_to_field((y[row].T @ basis[i, :length])[c[0]], specs[i].truncation)
            out[i] = (_make_pair(res.matrices[i], specs[i], p[c[0]], lead), p[c])
    return out


# ---------------------------------------------------------------------------
# contour projectors

@dataclass(frozen=True)
class Contour:
    """A circle in the spectral plane, discretized by the trapezoid rule."""

    center: complex
    radius: float
    nodes: int = 16

    def __post_init__(self):
        if not cmath.isfinite(self.center):
            raise ConfigError(f"contour center must be finite, got {self.center}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ConfigError(f"contour radius must be positive, got {self.radius}")
        if not isinstance(self.nodes, numbers.Integral):
            raise ConfigError(f"contour node count must be an integer, got {self.nodes!r}")
        if self.nodes < 8:
            raise ConfigError("contour quadrature needs at least 8 nodes")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        theta = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * theta), np.exp(1j * theta)


def _inv_norm1(lu: _NodeFactor, dim: int) -> float:
    """Lower estimate of ||A^-1||_1 from a sparse LU of A.

    The deterministic Hager-Higham iteration of LAPACK's zlacn2, the
    estimator of its condition-number routines: at most six solves with A
    and five with A^H.
    """

    def unit_phases(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        return np.divide(x, ax, out=np.ones_like(x), where=ax > np.finfo(float).tiny)

    x = lu.solve(np.full(dim, 1.0 / dim, dtype=np.complex128))
    est = float(np.sum(np.abs(x)))
    z = lu.solve(unit_phases(x), trans="H")
    j = int(np.argmax(np.abs(z)))
    for it in range(2, 6):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        x = lu.solve(e)
        est_old, est = est, float(np.sum(np.abs(x)))
        if est <= est_old:
            break
        z = lu.solve(unit_phases(x), trans="H")
        j_last, j = j, int(np.argmax(np.abs(z)))
        if abs(z[j_last]) == abs(z[j]) or it == 5:
            break
    alt = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0) * (1.0 + np.arange(dim) / (dim - 1))
    x = lu.solve(alt.astype(np.complex128))
    return max(est, 2.0 * float(np.sum(np.abs(x))) / (3 * dim))


class _Layout:
    """SuperLU's fill-reducing order for one stencil structure and the CSC layout of P^T (mu I - L) P.

    A real flow has its modes in pairs +-d, so the stencil is close to
    structurally symmetric and minimum degree on A^T + A fills least.
    MMD_AT_PLUS_A reads only where the entries are, so one ``splu`` of a
    diagonally dominant matrix on the structure gives the column order
    perm_c that it would compute for every mu I - L.  With P the
    permutation of argsort(perm_c), A P = A[:, argsort(perm_c)], the
    symmetrically permuted P^T A P factored in its natural order fills
    exactly as A does in SuperLU's own ordering, and its diagonal is A's,
    which SuperLU's pivoting prefers (permuting by perm_c itself, the
    inverse, fills 2.5 times more at N = 2).  The layout keeps the CSC
    indices of P^T A P as int32, the index type SuperLU takes, the stencil
    entry each slot holds (the duplicates a tiny U(0) puts on the diagonal
    summed, as ``sum_duplicates`` sums them) and the diagonal slots.  Every
    entry of the structure has a slot, so a value that a node makes zero
    stays an explicit zero and every node factors one pattern.
    """

    def __init__(self, s: _Structure):
        rows = np.repeat(np.arange(s.size), np.diff(s.indptr))
        first = np.ones(rows.size, dtype=bool)  # the first of each run of duplicates in CSR order
        first[1:] = (np.diff(rows) != 0) | (np.diff(s.indices) != 0)
        rows, cols = rows[first], s.indices[first]
        self.order = s.order
        self.starts = np.flatnonzero(first) if s.duplicates else None
        dominant = np.where(rows == cols, float(s.size), 1.0)
        probe = sp.csc_array(sp.coo_array((dominant, (rows, cols)), shape=(s.size, s.size)))
        self.perm_c = spla.splu(probe, permc_spec="MMD_AT_PLUS_A").perm_c
        self.perm = np.argsort(self.perm_c)
        prow, pcol = self.perm_c[rows], self.perm_c[cols]
        self.source = np.lexsort((prow, pcol))
        self.indices = prow[self.source].astype(np.int32)
        self.indptr = np.searchsorted(pcol[self.source], np.arange(s.size + 1)).astype(np.int32)
        self.diagonal = np.flatnonzero(self.indices == pcol[self.source])
        for a in (self.perm_c, self.perm, self.source, self.indices, self.indptr, self.diagonal):
            # every node's matrix holds these index arrays: nothing may compact them in place
            a.flags.writeable = False

    def values(self, entries: np.ndarray) -> np.ndarray:
        """Stencil entries, in the structure's entry order, as values in the layout's slots."""
        vals = entries[self.order]
        if self.starts is not None:
            vals = np.add.reduceat(vals, self.starts)
        return vals[self.source]

    def tiled(self, count: int) -> _Layout:
        """The layout of the block-diagonal matrix of ``count`` operators of this structure.

        Slots and permutations repeat block by block; ``values`` still maps
        one operator's entries, so the block's values are the operators'
        values one after another.
        """
        out = copy.copy(self)
        size, slots = len(self.perm), len(self.indices)
        block = np.arange(count)[:, None]
        out.perm = (self.perm + size * block).reshape(-1)
        out.perm_c = (self.perm_c + size * block).reshape(-1)
        out.indices = (self.indices + size * block).reshape(-1).astype(np.int32)
        out.indptr = np.append((self.indptr[:-1] + slots * block).reshape(-1), count * slots).astype(np.int32)
        out.diagonal = (self.diagonal + slots * block).reshape(-1)
        return out


@dataclass(frozen=True, eq=False)
class _NodeFactor:
    """The sparse LU of P^T A P, solving with A: A^-1 b = P (P^T A P)^-1 P^T b, and likewise with A^H."""

    superlu: spla.SuperLU
    layout: _Layout

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self.superlu.solve(b[self.layout.perm], trans)[self.layout.perm_c]


class _Resolvent:
    """The stencils of one or more operators of one structure and the sparse LUs of mu I - L.

    The one place that shifts and factors the stencil: ``factor`` serves any
    mu, the eigensolver's sigma included.  It writes -L into the layout of
    the stencil's structure, adds mu on the diagonal slots and factors in
    the structure's fill-reducing order, which SuperLU computes once per
    structure, so each mu costs a value fill and a numeric LU.  Several
    operators are one block-diagonal L, factored by one LU in the tiled
    layout; their own stencils are ``matrices``, and ``matrix`` is the
    first, L itself for a single operator.  ``lu`` adds
    the quadrature nodes' condition gate and keeps each node's factor.  The
    trapezoid nodes of n points are bitwise the even nodes of 2n points, so
    a contour whose node count doubles reuses every factor made so far.
    ``phase`` reads a node's determinant phase once, keeps that number and
    releases the node's factor: reading U makes SuperLU build and keep CSC
    copies of L and U, so a kept factor would hold them for as long as it
    lives.  Callers therefore count after their solves on the same nodes.
    The cell solve in alpha factors it at j = 0 with one value per unknown.
    """

    def __init__(self, *specs: ModalOperatorSpec):
        structure = _pattern(specs[0].flow, specs[0].truncation).structure
        layout, slots = structure.layout, len(structure.layout.indices)
        self.matrices = []
        self._negated = np.empty(len(specs) * slots, dtype=np.complex128)
        for k, spec in enumerate(specs):
            pattern, entries = _entries(spec)
            if pattern.structure is not structure:
                raise ConfigError("the operators of one resolvent must share one stencil structure")
            self.matrices.append(pattern.assemble(entries))
            # -L in the layout's slots, one operator after another
            np.negative(layout.values(entries), out=self._negated[k * slots:(k + 1) * slots])
        self.matrix = self.matrices[0]
        self._layout = layout if len(specs) == 1 else layout.tiled(len(specs))
        self._lus: dict[complex, _NodeFactor] = {}
        self._phases: dict[complex, float] = {}

    def factor(self, mu) -> tuple[_NodeFactor, np.ndarray]:
        """Sparse LU of mu I - L, and its values in the structure's layout; an array mu is diag(mu)."""
        layout = self._layout
        data = self._negated.copy()
        data[layout.diagonal] += mu if np.ndim(mu) == 0 else mu[layout.perm]
        size = len(layout.perm)
        m = sp.csc_array((data, layout.indices, layout.indptr), shape=(size, size))
        try:
            return _NodeFactor(spla.splu(m, permc_spec="NATURAL"), layout), data
        except RuntimeError as exc:  # exactly singular pivot
            at = f"{mu:.6g}" if np.ndim(mu) == 0 else "the given diagonal"
            raise ContourTouchesSpectrum(f"resolvent singular at {at}: {exc}") from exc

    def lu(self, mu: complex) -> _NodeFactor:
        """The factor at a quadrature node, made on first use; a node too close to the spectrum raises."""
        if mu not in self._lus:
            lu, data = self.factor(mu)
            # ||mu I - L||_1, the largest column sum, which the symmetric permutation only reorders
            norm1 = float(np.add.reduceat(np.abs(data), self._layout.indptr[:-1]).max())
            rcond = 1.0 / (norm1 * _inv_norm1(lu, len(self._layout.perm)))
            if not rcond >= 1e-14:
                raise ContourTouchesSpectrum(f"resolvent nearly singular at node {mu:.6g} (rcond {rcond:.2e})")
            self._lus[mu] = lu
        return self._lus[mu]

    def phase(self, mu: complex) -> float:
        """Phase of det(mu I - L) / det(mu I - D) at a node, D the diagonal of L; releases the node's factor.

        With Pr A Pc = L U the sparse LU of A = P^T (mu I - L) P, whose
        determinant is det(mu I - L), the phase is
        sum arg diag(U) + pi (parity(Pr) + parity(Pc)).  The factor comes
        from ``lu``, so the condition gate holds; a later solve at this node
        factors it anew.
        """
        if mu not in self._phases:
            lu = self.lu(mu).superlu
            self._phases[mu] = (np.sum(np.angle(lu.U.diagonal())) - np.sum(np.angle(mu - self.matrix.diagonal()))
                                + np.pi * (_parity(lu.perm_r) + _parity(lu.perm_c)))
            del self._lus[mu]
        return self._phases[mu]


def _contour_sum(res: _Resolvent, contour: Contour, block: np.ndarray, trans: str = "N") -> np.ndarray:
    """Quadrature of the resolvent integral applied to a block of vectors, or its adjoint with trans = 'H'."""
    mus, phases = contour.points()
    if trans == "H":
        phases = phases.conj()
    acc = np.zeros_like(block)
    for mu, ph in zip(mus, phases):
        acc += ph * res.lu(mu).solve(block, trans)
    return acc * (contour.radius / contour.nodes)


def _parity(perm: np.ndarray) -> int:
    """Parity of a permutation: its length minus its number of cycles, mod 2."""
    if np.array_equal(perm, np.arange(len(perm))):  # natural order and diagonal pivots
        return 0
    perm = perm.tolist()
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return (len(perm) - cycles) % 2


def _count(res: _Resolvent, contour: Contour) -> int:
    """Number of eigenvalues of L inside the circle, by the argument principle.

    The phase of det(mu I - L) / det(mu I - D), D the diagonal of L, turns
    slowly and winds (eigenvalues inside) - (diagonal entries inside) times.
    Each node's phase is read once by ``_Resolvent.phase``, which releases
    that node's factor, so count after every solve on the same nodes.  The
    node count doubles, reusing the phases of the nested nodes, until every
    phase step between neighbours is below pi/2; past MAX_NODES, or at a
    NaN phase, the count raises.  Passing that rule, or agreeing across
    doublings, certifies nothing: an eigenvalue that coincides with a
    diagonal entry of L near the contour sweeps a net 2 pi over a short
    arc, which the nodes fold into small steps, so the count can be wrong
    without raising (78 against a dense 80 for the seed-1 benchmark flow at
    N = 1 on the circle of radius 3.144984 about 0, from 8 nodes).
    """
    d = res.matrix.diagonal()
    nodes = contour.nodes
    while True:
        mus, _ = Contour(contour.center, contour.radius, nodes).points()
        phase = np.array([res.phase(mu) for mu in mus])
        steps = np.angle(np.exp(1j * (np.roll(phase, -1) - phase)))
        largest = np.max(np.abs(steps))
        if largest < np.pi / 2:
            break
        if nodes >= MAX_NODES or math.isnan(largest):
            raise SolverFailure(f"argument-principle phase steps up to {largest:.2f} rad with {nodes} nodes")
        nodes *= 2
    inside = int(np.sum(np.abs(d - contour.center) < contour.radius))
    return int(round(np.sum(steps) / (2.0 * np.pi))) + inside


class RieszProjector:
    """Spectral projector onto the eigenvalues enclosed by a circle.

    Construction doubles the quadrature node count, up to MAX_NODES, until
    the idempotency defect measured on eight random unit probes (fixed
    seed) drops below 1e-8; a NaN defect raises at once.  The achieved
    defect is kept as an attribute; the projector counts no rank.
    """

    def __init__(self, spec: ModalOperatorSpec, contour: Contour):
        self.spec = spec
        res = _Resolvent(spec)
        rng = np.random.default_rng(7)
        block = rng.standard_normal((spec.dim, 8)) + 1j * rng.standard_normal((spec.dim, 8))
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        target_defect = 1e-8
        nodes = contour.nodes
        while True:
            trial = Contour(contour.center, contour.radius, nodes)
            once = _contour_sum(res, trial, block)
            twice = _contour_sum(res, trial, once)
            defect = float(np.max(np.linalg.norm(twice - once, axis=0)))
            if defect <= target_defect or nodes >= MAX_NODES or math.isnan(defect):
                break
            nodes *= 2
        if not defect <= target_defect:
            raise SolverFailure(
                f"projector idempotency stalled at {defect:.2e} with {nodes} nodes"
            )
        self.contour = Contour(contour.center, contour.radius, nodes)
        self.idempotency_defect = defect

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        # a projector keeps no arrays from construction: held across calls,
        # even the sparse matrix pins heap between the freed node factors,
        # and the process grows with every projector kept alive
        return _contour_sum(_Resolvent(self.spec), self.contour, block)


@dataclass(frozen=True)
class ProjectorComparison:
    """Quantitative comparison of spectral projectors of two operators.

    ``bound`` is radius * M / (1 - M) * sup ||R0||, the contour-length form
    of the perturbation estimate; ``measured`` is the 2-norm distance of
    the quadrature projectors.  Each of the three is an exact 2-norm
    (a largest singular value by Lanczos on the node factorizations).
    ``smallness`` is the largest over the nodes that a Lanczos screen
    keeps; a skipped node holds a larger norm with probability below 3e-10
    (see ``projector_distance_bound``).  The ranks are argument-principle
    counts of the eigenvalues inside the contour.
    """

    smallness: float
    sup_resolvent: float
    bound: float
    measured: float
    rank0: int
    rank1: int


def _norm2(matvec, rmatvec, dim: int) -> float:
    """Operator 2-norm: the largest singular value, by Lanczos on A^H A."""
    op = spla.LinearOperator((dim, dim), matvec=matvec, rmatvec=rmatvec, dtype=np.complex128)
    v0 = np.random.default_rng(11).standard_normal(dim) + 0.0j
    # svds hands tol**2 to its Lanczos on A^H A, which then stops at a
    # residual of 1e-14 relative to sigma^2
    try:
        return float(spla.svds(op, k=1, v0=v0, tol=1e-7, return_singular_vectors=False)[0])
    except spla.ArpackError as exc:  # also ArpackNoConvergence; a NaN operator raises -9999
        raise SolverFailure(f"2-norm Lanczos failed: {exc}") from exc


def _lanczos_top(matvec, rmatvec, v0: np.ndarray, steps: int) -> float:
    """Largest Ritz value of ``steps`` Lanczos steps on A^H A from v0, a lower estimate of ||A||_2^2.

    A plain three-term recurrence of vdots, axpys and norms: no basis is kept,
    so no matrix product runs on one.  Without reorthogonalization rounding
    repeats converged Ritz values but keeps every one within rounding of the
    spectrum of A^H A.  NaN when the recurrence meets a value that is not
    finite; a Krylov space that turns invariant ends it early.
    """
    diag, off = np.zeros(steps), np.zeros(steps)
    q = v0 / np.linalg.norm(v0)
    prev, beta = np.zeros_like(q), 0.0
    for m in range(1, steps + 1):
        w = rmatvec(matvec(q))
        alpha = diag[m - 1] = np.vdot(q, w).real
        w -= alpha * q
        w -= beta * prev
        beta = off[m - 1] = np.linalg.norm(w)
        if not beta > 0.0:
            break
        prev, q = q, w / beta
    if not (np.isfinite(diag[:m]).all() and np.isfinite(off[:m]).all()):
        return math.nan
    return float(la.eigvalsh_tridiagonal(diag[:m], off[:m - 1], select="i", select_range=(m - 1, m - 1))[0])


def _node_norms(res: _Resolvent, contour: Contour, weight=None) -> np.ndarray:
    """||W R(mu)||_2 at every contour node mu, R(mu) = (mu I - L)^-1 from the gated factors; W = I by default.

    With no weight every node's norm is exact.  With a weight only the
    largest is: a Lanczos screen (``SCREEN_STEPS`` steps on (W R)^H (W R)
    from a seeded complex Gaussian start) gives each node a lower estimate
    theta of its squared norm, the nodes are taken in descending theta, and a
    node gets its exact norm unless theta < ``SCREEN_RATIO`` * s^2, s the
    largest exact norm so far.  A skipped node reads sqrt(theta), below
    sqrt(0.8) s, so the maximum is the exact norm of its node; a NaN theta
    never skips a node.  The screen misses only when it reads the top node
    below 0.8 of its squared norm: A^H A on C^dim is the real symmetric
    embedding on R^(2 dim) and the complex Krylov space holds the real one,
    so by Kuczynski and Wozniakowski (SIAM J. Matrix Anal. Appl. 13, 1992)
    that happens with probability at most 1.648 sqrt(2 dim) exp(-sqrt(0.2) (2k - 1))
    after k steps.  The resolvent's own norm is not screened: its Lanczos
    stops after 43 to 83 solves a node on the workload, about the 2k = 60 a
    screen costs.
    """
    factors = [res.lu(mu) for mu in contour.points()[0]]
    dim = res.matrix.shape[0]
    if weight is None:
        return np.array([_norm2(lu.solve, lambda y, lu=lu: lu.solve(y, trans="H"), dim) for lu in factors])
    weight_h = weight.conj().T
    ops = [(lambda x, lu=lu: weight @ lu.solve(x), lambda y, lu=lu: lu.solve(weight_h @ y, trans="H"))
           for lu in factors]
    rng = np.random.default_rng(13)
    # theta of A^H A is nonnegative up to rounding; NaN stays NaN
    theta = np.maximum([_lanczos_top(*op, rng.standard_normal(dim) + 1j * rng.standard_normal(dim), SCREEN_STEPS)
                        for op in ops], 0.0)
    norms, top = np.sqrt(theta), 0.0
    for k in np.argsort(-theta):
        if not theta[k] < SCREEN_RATIO * top * top:
            norms[k] = _norm2(*ops[k], dim)
            top = np.maximum(top, norms[k])
    return norms


def projector_distance_bound(
    spec0: ModalOperatorSpec,
    spec1: ModalOperatorSpec,
    contour: Contour,
) -> ProjectorComparison:
    """Kato's bound on the distance of the two operators' contour projectors, and that distance.

    With R0 the resolvent of spec0's operator and Delta = L1 - L0, the bound
    is radius * M / (1 - M) * sup ||R0||, both sups taken over the contour's
    nodes; M = sup ||Delta R0|| < 1 is required, else ``BoundInapplicable``.
    sup ||R0|| and the measured distance are exact Lanczos 2-norms.  M is
    screened: ``SCREEN_STEPS`` = 30 Lanczos steps at each node estimate its
    squared norm from below, and a node gets its exact norm unless its
    estimate is below ``SCREEN_RATIO`` = 0.8 of the largest exact squared
    norm so far, so M is the exact norm of its node.  The screen reads that
    node too low with probability at most
    1.648 sqrt(2 dim) exp(-sqrt(0.2) * 59) (Kuczynski and Wozniakowski,
    SIAM J. Matrix Anal. Appl. 13, 1992), 1.6e-10 at dim 375 (N = 2) and
    2.6e-10 at dim 1029 (N = 3); a NaN estimate never skips a node.
    """
    if spec0.dim != spec1.dim:
        raise ConfigError("operators must share one truncation for comparison")
    res0, res1 = _Resolvent(spec0), _Resolvent(spec1)
    delta = res1.matrix - res0.matrix
    dim = spec0.dim
    # np.max, unlike max, keeps a NaN norm
    sup_resolvent = float(np.max(_node_norms(res0, contour)))
    smallness = float(np.max(_node_norms(res0, contour, delta))) if delta.nnz else 0.0
    if not smallness < 1.0:
        raise BoundInapplicable(f"perturbation is not contractive on the contour (M = {smallness:.3f})")
    bound = contour.radius * smallness / (1.0 - smallness) * sup_resolvent

    def p_diff(x: np.ndarray, trans: str = "N") -> np.ndarray:
        """(P0 - P1) x, or its adjoint with trans = 'H'."""
        return _contour_sum(res0, contour, x, trans) - _contour_sum(res1, contour, x, trans)

    # an unperturbed operator has the identical projector; Lanczos cannot
    # start on the zero operator
    measured = _norm2(p_diff, lambda y: p_diff(y, "H"), dim) if delta.nnz else 0.0
    # counting releases the node factors, so it comes after every solve on them
    rank0, rank1 = _count(res0, contour), _count(res1, contour)
    return ProjectorComparison(smallness, sup_resolvent, bound, measured, rank0, rank1)


# ---------------------------------------------------------------------------
# first-order perturbation check

@dataclass(frozen=True)
class FirstOrderReport:
    """Measured leading eigenvalues against linear-in-|j| predictions."""

    j_direction: np.ndarray
    magnitudes: np.ndarray
    predictions: np.ndarray          # slopes mu_l, descending real part
    eigenvalues: np.ndarray          # (len(magnitudes), 3), matched to predictions
    remainders: np.ndarray           # |p_l - mu_l |j||, same shape
    slope: float                     # log-log slope of the worst remainder
    per_branch_slopes: np.ndarray


def _min_cost_permutation(cost: np.ndarray) -> list[int]:
    """The assignment row i -> column perm[i] of least total cost, by trying every permutation."""
    rows = range(len(cost))
    return list(min(itertools.permutations(rows), key=lambda perm: sum(cost[i, perm[i]] for i in rows)))


def first_order_check(
    flow: df.SpectralField,
    j_direction,
    magnitudes,
    truncation: int,
    tol: float = 1e-12,
) -> FirstOrderReport:
    """Compare leading eigenvalues of L(|j| jhat, 1) with the alpha-matrix rates.

    The predictions are computed from cell solves at the same truncation, so
    the remainders isolate the genuinely quadratic part of the eigenvalue
    curves rather than truncation mismatch.
    """
    from . import alpha

    jhat = alpha.unit_direction(j_direction)
    mags = np.asarray(magnitudes, dtype=float)
    if mags.size < 2 or np.any(mags <= 0.0) or np.any(np.diff(mags) >= 0.0):
        raise ConfigError("the slope fit needs at least two magnitudes, positive and strictly decreasing")
    am = alpha.alpha_matrix(flow, jhat, truncation=truncation, tol=tol)
    mu = am.eigenvalues
    eigs = np.zeros((len(mags), 3), dtype=np.complex128)
    rem = np.zeros((len(mags), 3))
    for i, m in enumerate(mags):
        spec = ModalOperatorSpec(flow, m * jhat, 1.0, truncation)
        top = leading_eigs(spec, count=3)
        ps = np.array([t.p for t in top])
        # assign branches against the shift-corrected model mu|j| - |j|^2;
        # matching on the bare linear term is ambiguous once |j|^2
        # dominates the eigenvalue spacing
        cost = np.abs(ps[:, None] - (m * mu[None, :] - m * m))
        matched = np.empty(3, dtype=np.complex128)
        matched[_min_cost_permutation(cost)] = ps
        eigs[i] = matched
        rem[i] = np.abs(matched - m * mu)
    worst = np.max(rem, axis=1)
    slope = float(np.polyfit(np.log(mags), np.log(np.maximum(worst, 1e-300)), 1)[0])
    branch = np.array(
        [np.polyfit(np.log(mags), np.log(np.maximum(rem[:, l], 1e-300)), 1)[0] for l in range(3)]
    )
    return FirstOrderReport(
        j_direction=jhat,
        magnitudes=mags,
        predictions=mu,
        eigenvalues=eigs,
        remainders=rem,
        slope=slope,
        per_branch_slopes=branch,
    )


# ---------------------------------------------------------------------------
# continuation in the diffusivity

@dataclass(frozen=True)
class ContinuationResult:
    """Path of eigenpairs from eps = 1 down to the achieved window edge."""

    path: list[tuple[float, EigPair]]
    achieved_eps: float
    window: float                    # 1 - achieved_eps
    stalled: bool
    floor: float                     # the Re p threshold that was enforced


_EPS_STEP = 0.05  # the first eps step continue_in_eps tries, and its size after each accepted one


def continue_in_eps(
    flow: df.SpectralField,
    j,
    start: EigPair,
    target_eps: float,
    truncation: int,
) -> ContinuationResult:
    """Follow a simple eigenpair of L(j, eps) as eps decreases from 1.

    The start is always eps = 1: the rescaling ladder maps every eps to
    eps/zeta^n in (zeta, 1].  Each step applies the 16-node circle projector
    of the trial operator, centered at the current eigenvalue with radius
    half the initial spectral gap, to the current eigenvector.  A
    collapsing projection, a Galerkin residual above 1e-7, or a real part
    falling under half the starting one halves the step; a step below 1e-4
    stalls the run, which returns the largest achieved window rather than
    raising.
    """
    j = np.asarray(j, dtype=float).reshape(3)
    if not 0.0 < target_eps <= 1.0:
        raise ConfigError("need 0 < target_eps <= 1")
    spec0 = ModalOperatorSpec(flow, j, 1.0, truncation)
    # the two eigenvalues nearest start.p: itself and its nearest neighbour
    gaps = np.array([abs(e.p - start.p) for e in leading_eigs(spec0, count=2, sigma=start.p)])
    if np.all(gaps <= 1e-10):
        raise ConfigError(f"start eigenvalue {start.p:.6g} is not simple")
    gap = float(np.min(gaps[gaps > 1e-10]))
    radius = 0.5 * gap
    floor = 0.5 * start.p.real

    eps = 1.0
    current = start
    path = [(eps, start)]
    step = _EPS_STEP
    while eps > target_eps + 1e-12:
        step = min(step, eps - target_eps)
        if step < 1e-4:
            return ContinuationResult(path, eps, 1.0 - eps, True, floor)
        trial_eps = eps - step
        spec = ModalOperatorSpec(flow, j, trial_eps, truncation)
        contour = Contour(complex(current.p), radius, 16)
        res = _Resolvent(spec)
        x = field_to_vec(current.field)
        try:
            y = _contour_sum(res, contour, x[:, None])[:, 0]
        except ContourTouchesSpectrum:
            step *= 0.5
            continue
        ratio = np.linalg.norm(y) / max(np.linalg.norm(x), 1e-300)
        if ratio < 0.05:
            step *= 0.5
            continue
        h = fix_phase(vec_to_field(y, truncation))
        hv = field_to_vec(h)
        p_new = complex(np.vdot(hv, res.matrix @ hv) / np.vdot(hv, hv))
        pair = _make_pair(res.matrix, spec, p_new, h)
        if not (pair.residual <= 1e-7 and p_new.real >= floor):  # a NaN pair fails too
            step *= 0.5
            continue
        eps = trial_eps
        current = pair
        path.append((eps, pair))
        step = _EPS_STEP
    return ContinuationResult(path, eps, 1.0 - eps, False, floor)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Divided-difference bound for the eps-dependence of projected vectors."""

    constant: float
    constant_half_step: float
    step: float
    rel_change: float


def eps_lipschitz(
    flow: df.SpectralField,
    j,
    reference: df.SpectralField,
    contour: Contour,
    eps_lo: float,
    eps_hi: float,
    truncation: int,
    step: float,
) -> LipschitzEstimate:
    """Estimate sup ||d/d eps of P(eps) H_ref|| over [eps_lo, eps_hi].

    The same fixed contour is used at every eps, matching the construction
    whose Lipschitz continuity the estimate is meant to quantify.  The step
    must be positive and finite and leave at least two step-grid points in
    [eps_lo, eps_hi].
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"eps step must be positive and finite, got {step}")
    if not (math.isfinite(eps_lo) and math.isfinite(eps_hi) and eps_lo < eps_hi):
        raise ConfigError(f"need finite eps_lo < eps_hi, got [{eps_lo}, {eps_hi}]")
    # both grids are indexed by integer, so the step grid is exactly the even
    # points of the half-step grid and shares its projected images; the
    # point counts are those of np.arange(eps_lo, eps_hi + 1e-12, h)
    half = step / 2.0
    points = math.ceil((eps_hi + 1e-12 - eps_lo) / half)
    if points < 3:
        raise ConfigError(f"eps step {step} leaves fewer than 2 step-grid points in [{eps_lo}, {eps_hi}]")
    x = field_to_vec(df.resize(reference, truncation))[:, None]
    imgs = [_contour_sum(_Resolvent(ModalOperatorSpec(flow, j, eps_lo + i * half, truncation)), contour, x)[:, 0]
            for i in range(points)]

    def path_constant(pts: list[np.ndarray], h: float) -> float:
        # np.max, unlike max, keeps a NaN difference
        return float(np.max([np.linalg.norm(b - a) / h for a, b in zip(pts, pts[1:])]))

    c1 = path_constant(imgs[::2], step)
    c2 = path_constant(imgs, half)
    rel = abs(c1 - c2) / max(c1, 1e-300)
    return LipschitzEstimate(constant=c1, constant_half_step=c2, step=step, rel_change=rel)
