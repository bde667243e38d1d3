"""Slow reference implementations used only as test oracles."""

import numpy as np
import scipy.linalg as la

import dynamo.fields as df
import dynamo.modal as dm
from dynamo import alpha
from dynamo.errors import TooLarge


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
    return df.SpectralField(out, kind="complex", scale=f.scale)


def assemble_slope_generator(flow: df.SpectralField, j_direction, n: int) -> np.ndarray:
    """Dense matrix of the linear-in-|j| term: i jhat x (U x .) + 2 i jhat . grad.

    The derivative part acts as -2 (jhat . k) on the mode k, so the full
    eps = 1 operator decomposes as L(j) = L(0) + |j| L1 - |j|^2.
    """
    jhat = dm._unit(j_direction)
    dim = 3 * (2 * n + 1) ** 3
    if dim > dm.DENSE_CAP:
        raise TooLarge(f"dense assembly of dimension {dim} exceeds the cap {dm.DENSE_CAP}")
    diag = np.repeat(-2.0 * np.sum(df.wavevectors(n) * jhat, axis=-1).reshape(-1), 3).astype(np.complex128)
    return dm._stencil(flow, n, dm._cross_matrix(1j * jhat), diag).toarray()


def kernel_basis(flow: df.SpectralField, n: int, tol: float = 1e-12) -> list[df.SpectralField]:
    """Basis v + S(v) of the kernel of the j = 0, eps = 1 operator."""
    basis = []
    for axis in range(3):
        v = np.zeros(3)
        v[axis] = 1.0
        sol = alpha.solve_cell_problem(flow, v, method="direct", tol=tol, truncation=n)
        basis.append(df.const_field(v) + sol.field)
    return basis


def dense_eigenvalues(spec: dm.ModalOperatorSpec) -> np.ndarray:
    """Every eigenvalue of the dense matrix of L, in ``eig_order``."""
    w = la.eig(dm.assemble_dense(spec), right=False)
    return w[dm.eig_order(w)]
