"""Packed coordinates (gamma_ij)_{i<=j} on the space of symmetric matrices.

The packed index runs lexicographically over pairs (i, j) with i <= j,
so N = n(n+1)/2.  Diagonal pairs correspond to the basis matrices E_ii,
off-diagonal pairs to the symmetrized E_ij + E_ji; this convention is
fixed once here and used everywhere.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def packed_dim(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def packed_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic pairs (i, j), i <= j, 0-based."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = packed_pairs(n)
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    return rows, cols


@lru_cache(maxsize=None)
def symmetric_basis(n: int) -> np.ndarray:
    """Array (N, n, n) of tangent basis matrices matching the packed index.

    Built once per n and shared, so it is read-only.
    """
    pairs = packed_pairs(n)
    E = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        E[k, i, j] += 1.0
        if i != j:
            E[k, j, i] += 1.0
    E.flags.writeable = False
    return E


def pack(matrix: np.ndarray) -> np.ndarray:
    """Packed coordinate vector of a symmetric matrix (or batch thereof), in C order.

    The fancy index alone would put the stack axis innermost in memory;
    C order gives every packed row unit stride, so a reduction over a row
    sums in the same order for a stack as for a single matrix.
    """
    matrix = np.asarray(matrix)
    rows, cols = _pair_indices(matrix.shape[-1])
    return np.ascontiguousarray(matrix[..., rows, cols])


def unpack(vec: np.ndarray, n: int) -> np.ndarray:
    """Symmetric matrix (or batch) from packed coordinates."""
    vec = np.asarray(vec)
    rows, cols = _pair_indices(n)
    out = np.zeros(vec.shape[:-1] + (n, n))
    out[..., rows, cols] = vec
    out[..., cols, rows] = vec
    return out


def congruence(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    """M^T S M, per matrix of a stack."""
    return M.mT @ S @ M


def congruence_jacobian(M: np.ndarray) -> np.ndarray:
    """Packed Jacobian L of the congruence S -> M^T S M (per stacked M).

    The congruence is linear in the packed coordinates, so L satisfies
    pack(M^T S M) = L @ pack(S) exactly, and det L = (det M)^(n+1).  Its
    column c is pack(M^T E_c M) for the basis matrix E_c.
    """
    M = np.asarray(M, dtype=float)[..., None, :, :]
    return pack(congruence(M, symmetric_basis(M.shape[-1]))).mT
