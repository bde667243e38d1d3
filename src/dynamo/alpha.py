"""Cell correctors and the alpha-effect instability matrix.

The corrector S(v) solves, on the unit-scale torus and for a constant
vector v,

    Delta S + curl(U x S) = curl(v x U),        mean(S) = 0,

and the alpha matrix in direction jhat acts by

    A v = i jhat x mean(U x S(v)).

All three ingredients come from the modal stencil L(j = 0, eps = 1): the
data curl(v x U) are minus its three zero-mode columns applied to v, the
corrector is one direct sparse solve with its residual taken on the same
matrix, and mean(U x S) is the k = 0 coefficient, the sum of
U(k) x S(-k) over the flow's modes, so neither the corrector nor the
alpha matrix forms an FFT product.  The small-flow Neumann series for S,
made of FFT products, is kept in the test-suite as an independent
oracle, and ``first_order_matrix``, a reference for the small-flow
limit, forms its products by FFT.

A flow is alpha-unstable when some direction produces a simple eigenvalue
of A with positive real part; the scan below certifies this over a finite
direction sample.  For ABC flows the first-order electromotive matrix is
diag(b^2, c^2, a^2) exactly, which fixes closed-form eigenvalues used as
oracles throughout the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import fields as df
from . import modal
from .errors import ConfigError, ContourTouchesSpectrum, SolverFailure, UndefinedDirection

DEFAULT_TOL = 1e-12


def unit_direction(j) -> np.ndarray:
    j = np.asarray(j, dtype=float).reshape(3)
    if not np.all(np.isfinite(j)):
        raise UndefinedDirection(f"the wavevector {j.tolist()} has no direction: it is not finite")
    scale = np.max(np.abs(j))
    if scale == 0.0:
        raise UndefinedDirection("the zero wavevector has no direction")
    # a power of two near max|j| rescales exactly, so |j| neither over- nor underflows
    j = np.ldexp(j, -np.frexp(scale)[1])
    return j / np.linalg.norm(j)


def _default_truncation(flow: df.SpectralField) -> int:
    return max(2, 3 * flow.truncation)


@dataclass(frozen=True, eq=False)
class CellSolution:
    """Corrector field with its a-posteriori residual (relative to the data)."""

    input_v: np.ndarray
    field: df.SpectralField
    residual: float


def solve_cell_problem(
    flow: df.SpectralField,
    v,
    tol: float = DEFAULT_TOL,
    truncation: int | None = None,
) -> CellSolution:
    """Mean-free solution of Delta S + curl(U x S) = curl(v x U).

    The stencil A = L(j = 0, eps = 1) has zero-mode rows that vanish, as
    does the data there.  The resolvent's sparse LU of D - A, D = 1 on the
    zero-mode unknowns and 0 elsewhere, pins the mean to zero and solves
    A x = b on the nonzero modes.  The residual ||A x - b|| / ||b|| is
    taken on A, and a residual above max(10 tol, 1e-11) raises.
    """
    return _solve_cells(flow, [v], tol, truncation)[0]


def _norm(v: np.ndarray) -> float:
    """2-norm that is finite for a finite v: numpy's, taken again on v / max|v| only where it overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if math.isinf(norm):
            top = float(np.max(np.abs(v)))
            if math.isfinite(top):
                norm = top * float(np.linalg.norm(v / top))
    return norm


def _solve_cells(flow: df.SpectralField, vs, tol: float, truncation: int | None) -> list:
    """Cell solutions for several constant vectors from one factorization.

    A constant field v has no diffusion at k = 0, so A v = curl(U x v) and
    the data curl(v x U) are -A[:, mean] v, minus the stencil's three
    zero-mode columns applied to v.  The vectors share one LU of D - A;
    one multi-column solve gives every corrector, and each column keeps
    its own residual gate.  A corrector is real when the flow and v are.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"cell-problem tolerance must be positive and finite, got {tol}")
    vs = [np.asarray(v, dtype=np.complex128).reshape(3) for v in vs]
    n = _default_truncation(flow) if truncation is None else int(truncation)
    if n < flow.truncation:
        raise ConfigError("cell-problem truncation cannot be smaller than the flow's support")
    resolvent = modal._Resolvent(modal.ModalOperatorSpec(flow, np.zeros(3), 1.0, n))
    a = resolvent.matrix
    mean = 3 * ((2 * n + 1) ** 3 // 2) + np.arange(3)  # the zero mode sits at the lattice centre
    rhs = -(a[:, mean] @ np.stack(vs, axis=1))
    kinds = ["real" if flow.kind == df.const_field(v).kind == "real" else "complex" for v in vs]
    sols = [CellSolution(v, df.zero_field(n, kind=kind), 0.0) for v, kind in zip(vs, kinds)]
    # contiguous copies keep each column's norms the ones a single-vector solve reports
    cols = [rhs[:, i].copy() for i in range(len(vs))]
    dnorms = [_norm(b) for b in cols]
    live = [i for i, dn in enumerate(dnorms) if dn != 0.0]
    if not live:
        return sols

    pin = np.zeros(a.shape[0])
    pin[mean] = 1.0
    try:
        # (D - A) x = -b: the mean rows give x_mean = -b_mean = 0, the others A x = b
        sol = resolvent.factor(pin)[0].solve(-rhs[:, live])
    except ContourTouchesSpectrum as exc:
        raise SolverFailure(f"singular Galerkin cell system at truncation {n}") from exc
    for col, i in enumerate(live):
        x = sol[:, col].copy()
        res = _norm(a @ x - cols[i]) / dnorms[i]
        if not res <= max(10.0 * tol, 1e-11):  # a NaN residual fails too
            raise SolverFailure(f"direct cell solve residual {res:.2e} exceeds tolerance")
        sols[i] = CellSolution(vs[i], modal.vec_to_field(x, n, kind=kinds[i]), res)
    return sols


# ---------------------------------------------------------------------------
# alpha matrix

def _sorted_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition in the reporting order, columns phase-fixed."""
    w, v = la.eig(a)
    order = modal.eig_order(w)
    w, v = w[order], v[:, order]
    for col in range(v.shape[1]):
        x = v[:, col]
        anchor = x[np.argmax(np.abs(x))]
        v[:, col] = x * (np.abs(anchor) / (anchor * np.linalg.norm(x)))
    return w, v


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """The 3x3 alpha matrix in one direction with its eigen-decomposition."""

    matrix: np.ndarray
    j_direction: np.ndarray
    eigenvalues: np.ndarray            # descending real part, ties by imag
    eigenvectors: np.ndarray           # columns, unit norm, anchor made real
    emf: np.ndarray                    # direction-independent mean EMF matrix
    max_residual: float

    def apply(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.complex128).reshape(3)


def mean_emf_matrix(
    flow: df.SpectralField,
    truncation: int | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Columns mean(U x S(e_l)); the direction-independent part of A.

    The three correctors share one factorization of the cell stencil.  A
    column is the k = 0 coefficient of U x S, the sum of U(k) x S(-k) over
    the flow's lattice.
    """
    m = np.zeros((3, 3), dtype=np.complex128)
    worst = 0.0
    for axis, sol in enumerate(_solve_cells(flow, np.eye(3), tol, truncation)):
        s_minus = df.resize(sol.field, flow.truncation).coeffs[::-1, ::-1, ::-1]
        m[:, axis] = np.cross(flow.coeffs, s_minus).sum(axis=(0, 1, 2))
        worst = max(worst, sol.residual)
    return m, worst


def alpha_matrix_from_emf(emf: np.ndarray, j, max_residual: float = 0.0) -> AlphaMatrix:
    jhat = unit_direction(j)
    a = 1j * df._cross_matrix(jhat) @ emf
    w, v = _sorted_eig(a)
    return AlphaMatrix(
        matrix=a,
        j_direction=jhat,
        eigenvalues=w,
        eigenvectors=v,
        emf=np.asarray(emf, dtype=np.complex128),
        max_residual=max_residual,
    )


def alpha_matrix(
    flow: df.SpectralField,
    j,
    truncation: int | None = None,
    tol: float = DEFAULT_TOL,
) -> AlphaMatrix:
    """A(U, j) v = i (j/|j|) x mean(U x S(v)); depends on j only through its direction."""
    jhat = unit_direction(j)
    emf, worst = mean_emf_matrix(flow, truncation=truncation, tol=tol)
    return alpha_matrix_from_emf(emf, jhat, max_residual=worst)


def first_order_matrix(flow: df.SpectralField) -> np.ndarray:
    """The small-flow electromotive matrix, columns mean(U x lap^{-1} curl(U x e_l)).

    Up to sign this is the one-term truncation of the corrector series; the
    orientation here is the one that makes the ABC value the positive
    matrix diag(b^2, c^2, a^2).  Only the spectrum of i jhat x I enters
    instability criteria, and that set is {0, +mu, -mu}, invariant under
    the choice of orientation.  Self-adjoint for any real mean-free flow.
    """
    if np.linalg.norm(df.mean_vector(flow)) > 1e-12 * max(1.0, flow.l2()):
        raise ConfigError("flow must be mean-free")
    m = np.zeros((3, 3), dtype=np.complex128)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        h = df.curl(df.cross(flow, df.const_field(e)))
        m[:, axis] = df.mean_vector(df.cross(flow, df.inv_laplacian(h)))
    if np.max(np.abs(m.imag)) > 1e-10 * max(1.0, np.max(np.abs(m.real))):
        raise SolverFailure("electromotive matrix of a real flow came out complex")
    return m.real.copy()


def abc_closed_form(params: df.AbcParams, j) -> np.ndarray:
    """Eigenvalues {+mu, 0, -mu} of i jhat x diag(b^2, c^2, a^2), in reporting order."""
    jhat = unit_direction(j)
    a, b, c = params.as_tuple()
    mu = math.sqrt(a * a * b * b * jhat[1] ** 2 + b * b * c * c * jhat[2] ** 2 + a * a * c * c * jhat[0] ** 2)
    return np.array([mu, 0.0, -mu], dtype=np.complex128)


# ---------------------------------------------------------------------------
# direction sampling and the instability scan

def axis_directions() -> np.ndarray:
    eye = np.eye(3)
    return np.concatenate([eye, -eye], axis=0)


def grid_directions() -> np.ndarray:
    """The 26 normalized nonzero sign vectors of {-1, 0, 1}^3, axes first."""
    pts = []
    for v in np.ndindex(3, 3, 3):
        w = np.array(v, dtype=float) - 1.0
        if np.any(w):
            pts.append(w / np.linalg.norm(w))
    pts.sort(key=lambda w: (np.count_nonzero(w), tuple(-w)))
    return np.array(pts)


def icosphere_directions() -> np.ndarray:
    """42 directions: icosahedron vertices plus edge midpoints, axes first.

    The thirty midpoints include the six coordinate axes, which are moved to
    the front so axis-aligned winners take ties deterministically.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            verts.append(np.array([0.0, s1, s2 * phi]))
            verts.append(np.array([s1, s2 * phi, 0.0]))
            verts.append(np.array([s2 * phi, 0.0, s1]))
    verts = np.array(verts)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    edge_len2 = 4.0 / (1.0 + phi * phi)  # squared edge length of this icosahedron
    mids = []
    for i in range(len(verts)):
        for k in range(i + 1, len(verts)):
            if abs(np.sum((verts[i] - verts[k]) ** 2) - edge_len2) < 1e-9:
                m = verts[i] + verts[k]
                mids.append(m / np.linalg.norm(m))
    seen = set()
    out = []
    for d in np.concatenate([axis_directions(), verts, np.array(mids)], axis=0):
        key = tuple(np.round(d, 12))
        if key not in seen:
            seen.add(key)
            out.append(d)
    out = np.array(out)
    assert out.shape == (42, 3)
    return out


@dataclass(frozen=True)
class DirectionResult:
    direction: np.ndarray
    eigenvalues: np.ndarray
    margin: float          # gap from the leading eigenvalue to the rest
    unstable: bool


@dataclass(frozen=True)
class ScanReport:
    rows: list[DirectionResult]
    best_direction: np.ndarray
    best_eigenvalue: complex
    best_margin: float
    certified: bool
    threshold: float


def instability_scan(
    flow: df.SpectralField,
    directions=None,
    threshold: float = 1e-8,
    truncation: int | None = None,
    tol: float = DEFAULT_TOL,
) -> ScanReport:
    """Evaluate A(U, j) over a direction sample and certify instability.

    The mean EMF matrix is direction-independent, so the three cell solves
    are done once and each direction costs one 3x3 eigen-decomposition.
    Certification requires both a leading real part and a simplicity
    margin above the threshold, which must be finite and non-negative; an
    empty certification is a valid negative result.
    """
    if not (threshold >= 0.0 and math.isfinite(threshold)):
        raise ConfigError(f"instability threshold must be finite and non-negative, got {threshold}")
    dirs = icosphere_directions() if directions is None else np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) == 0:
        raise ConfigError("directions must be a nonempty (m, 3) array")
    emf, worst = mean_emf_matrix(flow, truncation=truncation, tol=tol)
    rows = []
    best = None
    for d in dirs:
        am = alpha_matrix_from_emf(emf, d, max_residual=worst)
        w = am.eigenvalues
        margin = float(np.min(np.abs(w[0] - w[1:])))
        unstable = bool(w[0].real > threshold and margin > threshold)
        row = DirectionResult(direction=am.j_direction, eigenvalues=w, margin=margin, unstable=unstable)
        rows.append(row)
        if best is None:
            best = 0
            continue
        # earlier directions keep near-ties so reports don't flip on noise
        lead = rows[best].eigenvalues[0].real
        if w[0].real > lead + 1e-12 + 1e-9 * abs(lead):
            best = len(rows) - 1
    top = rows[best]
    return ScanReport(
        rows=rows,
        best_direction=top.direction,
        best_eigenvalue=complex(top.eigenvalues[0]),
        best_margin=top.margin,
        certified=top.unstable,
        threshold=threshold,
    )
