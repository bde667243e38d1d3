"""Cell correctors and the alpha-effect instability matrix.

The corrector S(v) solves, on the unit-scale torus and for a constant
vector v,

    Delta S + curl(U x S) = curl(v x U),        mean(S) = 0,

and the alpha matrix in direction jhat acts by

    A v = i jhat x mean(U x S(v)).

The corrector is one direct sparse solve on the modal stencil, with its
residual taken on the same matrix; the small-flow Neumann series for S is
kept in the test-suite as an independent oracle.

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
import scipy.sparse.linalg as spla

from . import fields as df
from . import modal
from .errors import ConfigError, SolverFailure, UndefinedDirection

DEFAULT_TOL = 1e-12


def unit_direction(j) -> np.ndarray:
    j = np.asarray(j, dtype=float).reshape(3)
    nj = np.linalg.norm(j)
    if nj == 0.0:
        raise UndefinedDirection("the zero wavevector has no direction")
    return j / nj


def _default_truncation(flow: df.SpectralField) -> int:
    return max(2, 3 * flow.truncation)


def _cell_data(flow: df.SpectralField, v: np.ndarray) -> df.SpectralField:
    """Right-hand side curl(v x U) for a constant vector v."""
    return df.curl(df.cross(df.const_field(v), flow))


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

    Solves the truncated Galerkin system restricted to the nonzero modes
    (where the operator is invertible) by sparse LU.  The residual
    ||A x - b|| / ||b|| is taken on the full stencil matrix A, whose
    zero-mode rows vanish as does the data there, and a residual above
    max(10 tol, 1e-11) raises.
    """
    return _solve_cells(flow, [v], tol, truncation)[0]


def _solve_cells(flow: df.SpectralField, vs, tol: float, truncation: int | None) -> list:
    """Cell solutions for several constant vectors from one factorization.

    The vectors share the stencil and its LU; one multi-column solve gives
    every corrector, and each column keeps its own residual gate.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"cell-problem tolerance must be positive and finite, got {tol}")
    vs = [np.asarray(v, dtype=np.complex128).reshape(3) for v in vs]
    n = _default_truncation(flow) if truncation is None else int(truncation)
    if n < flow.truncation:
        raise ConfigError("cell-problem truncation cannot be smaller than the flow's support")
    data = [_cell_data(flow, v) for v in vs]
    dnorms = [d.l2() for d in data]
    sols = [CellSolution(v, df.zero_field(n, kind=d.kind), 0.0) for v, d in zip(vs, data)]
    live = [i for i, dn in enumerate(dnorms) if dn != 0.0]
    if not live:
        return sols

    a = modal._operator(modal.ModalOperatorSpec(flow, np.zeros(3), 1.0, n))
    side = 2 * n + 1
    zero_flat = (n * side + n) * side + n
    keep = np.setdiff1d(np.arange(3 * side**3), 3 * zero_flat + np.arange(3))
    rhs = np.stack([modal.field_to_vec(df.resize(data[i], n)) for i in live], axis=1)
    sol = np.zeros_like(rhs)
    try:
        sol[keep] = spla.splu(a[keep][:, keep].tocsc()).solve(rhs[keep])
    except RuntimeError as exc:
        raise SolverFailure(f"singular Galerkin cell system at truncation {n}") from exc
    for col, i in enumerate(live):
        # contiguous copies keep each residual the one a single-vector solve reports
        x, b = sol[:, col].copy(), rhs[:, col].copy()
        res = float(np.linalg.norm(a @ x - b)) / dnorms[i]
        if res > max(10.0 * tol, 1e-11):
            raise SolverFailure(f"direct cell solve residual {res:.2e} exceeds tolerance")
        sols[i] = CellSolution(vs[i], modal.vec_to_field(x, n, kind=data[i].kind), res)
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

    The three correctors share one factorization of the cell stencil.
    """
    m = np.zeros((3, 3), dtype=np.complex128)
    worst = 0.0
    for axis, sol in enumerate(_solve_cells(flow, np.eye(3), tol, truncation)):
        m[:, axis] = df.mean_vector(df.cross(flow, sol.field))
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
    Certification requires both a positive leading real part and a
    simplicity margin above the threshold; an empty certification is a
    valid negative result.
    """
    if not math.isfinite(threshold):
        raise ConfigError(f"instability threshold must be finite, got {threshold}")
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


def recommended_amplitude(flow: df.SpectralField) -> float:
    """Scaling that keeps the corrector series comfortably contractive: 0.05 over the flow's size."""
    n = df.norms(flow)
    size = max(n.l2, n.sup_grad_estimate * df.GRAD_SAFETY)
    if size == 0.0:
        raise ConfigError("cannot scale the zero flow")
    return 0.05 / size
