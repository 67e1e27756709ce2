"""The natural cotangent metric Q, the one-form alpha, and the family Q^a.

In packed coordinates the metric has components
Q_IJ = trace(gamma^-1 E_I gamma^-1 E_J) with E_I the symmetrized tangent
basis; at an orthonormal base point this is diagonal with entries
(gamma^ii)^2 and 2 gamma^ii gamma^jj, and its signature is
((p(p+1) + p'(p'+1))/2, p p'), the law ``metric_signature_law`` states
once for every check.  All of Q, alpha and Q^a are invariant
under the group action, which the residual helpers check numerically.

Each object-level function wraps an array kernel that also takes a stack
of inverse forms or metrics (``_metric_from_inverse``,
``one_form_from_inverse``, ``deformed_from``, ``contraction``,
``pullback_residual``), so batch callers get the same bits without
building objects.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .forms import Signature, SymmetricForm, inverse_form, signature_of, symmetric_part
from .group import GroupElement, act, action_jacobian
from .packing import pack, packed_dim, packed_pairs, symmetric_basis


class CotangentMetric:
    """Components Q_IJ (N x N, N = n(n+1)/2) at a fixed base form.

    ``components`` is a read-only view: metric_components hands out the
    array its base form stores, so writing to it would change every later
    metric at that form.
    """

    __slots__ = ("n", "N", "components")

    def __init__(self, n: int, components: np.ndarray):
        components = np.asarray(components, dtype=float).view()
        components.flags.writeable = False
        self.n = n
        self.N = packed_dim(n)
        if components.shape != (self.N, self.N):
            raise ValueError(f"expected {self.N}x{self.N} components")
        self.components = components

    def __repr__(self) -> str:
        return f"CotangentMetric(n={self.n}, N={self.N})"


class OneForm:
    """Components alpha_I of the invariant one-form at a fixed base form."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: np.ndarray):
        self.n = n
        self.components = np.asarray(components, dtype=float)


def _metric_from_inverse(inv: np.ndarray) -> np.ndarray:
    n = inv.shape[-1]
    E = symmetric_basis(n)
    A = np.einsum("...ij,ajk->...aik", inv, E)
    return symmetric_part(np.einsum("...aij,...bji->...ab", A, A))


def metric_components(S: SymmetricForm) -> CotangentMetric:
    """Q_IJ = trace(gamma^-1 E_I gamma^-1 E_J) at the base point S.

    Built once per form from its stored inverse, then kept on the form.
    """
    Q = S._metric
    if Q is None:
        Q = _metric_from_inverse(inverse_form(S).entries)
        Q.flags.writeable = False
        S._metric = Q
    return CotangentMetric(S.n, Q)


def metric_signature_law(sig: Signature) -> Signature:
    """The signature ((p(p+1)+p'(p'+1))/2, p p') of Q_IJ at a form of signature (p, p')."""
    p, q = sig.p, sig.p_prime
    return Signature((p * (p + 1) + q * (q + 1)) // 2, p * q)


def metric_signature(S: SymmetricForm) -> Signature:
    """Signature of Q_IJ, computed; ``metric_signature_law`` gives its expected value."""
    Q = metric_components(S)
    return signature_of(SymmetricForm(Q.components), method="eigen")


@lru_cache(maxsize=None)
def _one_form_weights(n: int) -> np.ndarray:
    weights = np.array([1.0 if i == j else 2.0 for (i, j) in packed_pairs(n)])
    weights.flags.writeable = False
    return weights


def one_form_from_inverse(inv: np.ndarray) -> np.ndarray:
    """alpha_I per stacked inverse form: gamma^ii on diagonal coordinates, 2 gamma^ij off it."""
    return pack(inv) * _one_form_weights(inv.shape[-1])


def one_form_components(S: SymmetricForm) -> OneForm:
    """alpha_I: gamma^ii on diagonal coordinates, 2 gamma^ij off-diagonal."""
    return OneForm(S.n, one_form_from_inverse(inverse_form(S).entries))


def deformed_from(Q: np.ndarray, alpha: np.ndarray, a: float) -> np.ndarray:
    """Q + a alpha (x) alpha, per stacked (Q, alpha)."""
    return Q + a * (alpha[..., :, None] * alpha[..., None, :])


def deformed_metric(S: SymmetricForm, a: float) -> CotangentMetric:
    """Q^a = Q + a alpha (x) alpha; degenerate exactly at a0 = -1/n."""
    Q = metric_components(S).components
    return CotangentMetric(S.n, deformed_from(Q, one_form_components(S).components, a))


def contraction(Q: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """alpha^T Q^-1 alpha, per stacked (Q, alpha)."""
    x = np.linalg.solve(Q, alpha[..., None])
    return (alpha[..., None, :] @ x)[..., 0, 0]


def qinv_alpha_alpha(S: SymmetricForm) -> float:
    """The invariant scalar alpha^T Q^-1 alpha; equals dim V at every base point."""
    Q = metric_components(S).components
    return float(contraction(Q, one_form_components(S).components))


def pullback_residual(L: np.ndarray, Q_moved: np.ndarray, Q_here: np.ndarray) -> np.ndarray:
    """max |L^T Q_moved L - Q_here|, per stacked triple."""
    return np.abs(L.mT @ Q_moved @ L - Q_here).max(axis=(-2, -1))


def pullback_invariance_residual(g: GroupElement, S: SymmetricForm) -> float:
    """max-norm residual of L^T Q(act(g, S)) L against Q(S).

    Vanishes (to rounding) because the natural metric is invariant under
    the group action; the contract is residual < 1e-8 * ||Q(S)||_inf.
    """
    Q_moved = metric_components(act(g, S)).components
    return float(pullback_residual(action_jacobian(g), Q_moved, metric_components(S).components))
