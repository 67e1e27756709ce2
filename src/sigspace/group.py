"""The general linear action on scalar products.

A group element g acts by inverse pullback, (g S)(v, w) = S(g^-1 v, g^-1 w),
which in coordinates is the congruence (g^-1)^T S g^-1.  This module
provides the action, its packed-coordinate Jacobian, orthonormal frames,
transitivity witnesses, paths inside the positive-determinant component,
and numeric unimodularity checks via the adjoint representation.

The object-level functions wrap array kernels that also take a stack of
matrices, with the same checks and exceptions: ``group_entries`` (the
GroupElement checks), ``act_entries`` (the action) and
``adjoint_determinants`` (one lstsq for a whole stack of elements).  The
path ``gl_plus_path`` returns takes a 1-D array of parameters and
``lazy_smoothstep`` works elementwise, so a curve is evaluated at many
points with one batched expm.  Per matrix, each kernel gives the bits of
the object route.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NotInvariantSubspace, SignatureMismatch, SingularGroupElement
from .forms import DEGENERACY_RTOL, SymmetricForm, check_nondegenerate, form_entries, signature_of
from .packing import congruence, congruence_jacobian

# A matrix counts as singular when its smallest singular value is at most
# this fraction of its largest (condition number 1e9 or more): past that
# its inverse keeps too few digits for the 1e-8 invariance contracts.
SINGULAR_RTOL = 1e-9


def is_singular(matrix):
    """Whether sigma_min <= SINGULAR_RTOL sigma_max, or some entry is not finite.

    Scale-aware, unlike a floor on |det|: 1e-5 I is invertible, while a
    matrix of condition number 4e9 is not, whatever its determinant.  For
    a stack (..., n, n) the answer is an array, one per matrix.
    """
    a = np.asarray(matrix, dtype=float)
    finite = np.isfinite(a).all(axis=(-2, -1))
    sigma = np.linalg.svd(np.where(finite[..., None, None], a, 0.0), compute_uv=False)
    return ~finite | ~(sigma[..., -1] > SINGULAR_RTOL * sigma[..., 0])


def group_entries(a) -> np.ndarray:
    """The matrix a GroupElement stores for ``a``, per stacked matrix.

    Raises ValueError on a non-finite entry and SingularGroupElement when
    some matrix is singular in the sense of is_singular.
    """
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("group element entries must be finite")
    if is_singular(a).any():
        raise SingularGroupElement(f"sigma_min <= {SINGULAR_RTOL:.0e} sigma_max")
    return a


class GroupElement:
    """Invertible matrix (g^i_j) acting on forms by inverse pullback.

    Immutable.  The inverse g^-1 and the packed action Jacobian are computed
    on first use, stored read-only, and shared by every later call; as for
    SymmetricForm, concurrent first use at worst computes them twice.
    """

    __slots__ = ("n", "entries", "_inverse", "_jacobian")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        a = group_entries(a)
        a.flags.writeable = False
        self.n = int(a.shape[0])
        self.entries = a
        self._inverse = None
        self._jacobian = None

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n}, det={np.linalg.det(self.entries):.6g})"

    def inverse_entries(self) -> np.ndarray:
        """The matrix g^-1 (read-only), computed once."""
        inv = self._inverse
        if inv is None:
            inv = np.linalg.inv(self.entries)
            inv.flags.writeable = False
            self._inverse = inv
        return inv

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(np.eye(n))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.inverse_entries())

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Matrix product self @ other, i.e. apply ``other`` first."""
        return GroupElement(self.entries @ other.entries)


class OrthonormalFrame:
    """Basis columns B orthonormal for a form: B^T gamma B = eta = diag(+-1)."""

    __slots__ = ("B", "eta")

    def __init__(self, B: np.ndarray, eta: np.ndarray):
        self.B = B
        self.eta = eta


def act(g: GroupElement, S: SymmetricForm) -> SymmetricForm:
    """The natural action: coordinates of gamma(g^-1 ., g^-1 .)."""
    if g.n != S.n:
        raise ValueError(f"dimension mismatch: g is {g.n}x{g.n}, form is {S.n}x{S.n}")
    return SymmetricForm(congruence(g.inverse_entries(), S.entries))


def act_entries(ginv: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """act(g, S).entries per stacked pair, from g^-1 and S's entries.

    Runs the SymmetricForm checks on the result (see forms.form_entries).
    """
    return form_entries(congruence(ginv, entries))


def action_jacobian(g: GroupElement) -> np.ndarray:
    """Constant matrix L with pack(act(g, S)) = L @ pack(S) for every S.

    det L = (det g)^-(n+1).  Computed once per group element and returned
    read-only.
    """
    L = g._jacobian
    if L is None:
        L = congruence_jacobian(g.inverse_entries())
        L.flags.writeable = False
        g._jacobian = L
    return L


def orthonormal_basis(S: SymmetricForm, degeneracy_rtol: float = DEGENERACY_RTOL) -> OrthonormalFrame:
    """Frame B with B^T S B = diag(+1 x p, -1 x p'), +1 columns first."""
    check_nondegenerate(S, degeneracy_rtol)
    d, U = np.linalg.eigh(S.entries)
    B = U / np.sqrt(np.abs(d))
    order = np.argsort(d <= 0.0, kind="stable")  # positive eigenvalues first
    B = B[:, order]
    eta = np.diag(np.where(d[order] > 0.0, 1.0, -1.0))
    return OrthonormalFrame(B, eta)


def transitive_witness(
    S: SymmetricForm,
    S_target: SymmetricForm,
    positive_det: bool = False,
) -> GroupElement:
    """A group element g with act(g, S) = S_target.

    Built from orthonormal frames of both forms: g^-1 = B B'^-1.  The
    witness is not unique; this is simply the frame-based one.  With
    positive_det the sign of one frame column is flipped if needed so
    that det g > 0.
    """
    if signature_of(S, method="eigen") != signature_of(S_target, method="eigen"):
        raise SignatureMismatch(
            f"{signature_of(S, method='eigen')} != {signature_of(S_target, method='eigen')}"
        )
    B = orthonormal_basis(S).B
    B_t = orthonormal_basis(S_target).B.copy()
    if positive_det and np.linalg.det(B_t) * np.linalg.det(B) < 0.0:
        B_t[:, 0] = -B_t[:, 0]
    return GroupElement(B_t @ np.linalg.inv(B))


def _skew_log_rotation(R: np.ndarray) -> np.ndarray:
    """Real skew-symmetric K with expm(K) = R for special-orthogonal R.

    The principal matrix logarithm fails when R has eigenvalue -1, so the
    log is assembled from the real Schur form, pairing -1 eigenvalues
    into rotations by pi (det R = +1 guarantees they come in pairs).
    """
    n = R.shape[0]
    T, Z = sla.schur(R, output="real")
    K = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-12:
            theta = np.arctan2(T[i + 1, i], T[i, i])
            K[i, i + 1] = -theta
            K[i + 1, i] = theta
            i += 2
        else:
            if T[i, i] < 0.0:
                minus_ones.append(i)
            i += 1
    for a, b in zip(minus_ones[0::2], minus_ones[1::2]):
        K[a, b] = -np.pi
        K[b, a] = np.pi
    return Z @ K @ Z.T


def gl_plus_path(g: np.ndarray):
    """Smooth path u -> xi(u) in GL+ with xi(0) = identity and xi(1) = g.

    Requires det g > 0.  Polar-decompose g = R P; the rotation factor is
    interpolated through its skew logarithm and the symmetric positive
    factor through fractional powers: xi(u) = expm(u K) P^u.  A real log
    of a general GL+ matrix need not exist, but this factored path always
    does.  The returned path also takes a 1-D array of u and then returns
    the stack of xi(u_i), from one batched expm, bit for bit the matrices
    it returns for each u_i alone.
    """
    g = np.asarray(g, dtype=float)
    if np.linalg.det(g) <= 0.0:
        raise ValueError("path construction requires det g > 0")
    R, P = sla.polar(g)
    K = _skew_log_rotation(R)
    d, U = np.linalg.eigh(P)
    log_d = np.log(d)

    def path(u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        rot = sla.expm(u[..., None, None] * K)
        pos = (U * np.exp(u[..., None] * log_d)[..., None, :]) @ U.T
        return rot @ pos

    return path


def lazy_smoothstep(t, eps: float = 0.1):
    """Non-decreasing reparameterization, constant on [0, eps] and [1-eps, 1].

    Quintic smoothstep of the clamped, rescaled argument; used to make
    group-valued curves "lazy" (flat near both endpoints).  ``t`` may be
    an array, evaluated elementwise.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError("eps must lie in [0, 1/2)")
    s = np.clip((np.asarray(t, dtype=float) - eps) / (1.0 - 2.0 * eps), 0.0, 1.0)
    return s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def connecting_path(
    S: SymmetricForm,
    S_target: SymmetricForm,
    steps: int,
) -> list[SymmetricForm]:
    """Samples of a continuous path in the space of forms from S to S_target.

    The path is xi(u) acting on S, where xi runs through GL+ from the
    identity to the positive-determinant transitivity witness.  Every
    sample has the common signature of the endpoints.  The path is
    evaluated once, on all ``steps`` values of u.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    witness = transitive_witness(S, S_target, positive_det=True)
    xi = group_entries(gl_plus_path(witness.entries)(np.linspace(0.0, 1.0, steps)))
    return [SymmetricForm(entries) for entries in congruence(np.linalg.inv(xi), S.entries)]


def adjoint_determinants(g: np.ndarray, ginv: np.ndarray, algebra_basis, rtol: float = 1e-8) -> np.ndarray:
    """adjoint_determinant per stacked pair (g, g^-1), for one basis.

    The basis rank is checked once.  g X g^-1 is built for every g and
    basis element X, and all of them are solved for their coordinates
    with one multi-right-hand-side lstsq; each column passes the same
    residual test, and each element gets one det.  Raises ValueError and
    NotInvariantSubspace as adjoint_determinant does.
    """
    basis = [np.asarray(X, dtype=float) for X in algebra_basis]
    k = len(basis)
    if k == 0:
        raise ValueError("algebra basis must be nonempty")
    Bmat = np.column_stack([X.ravel() for X in basis])
    if np.linalg.matrix_rank(Bmat) < k:
        raise ValueError("algebra basis is linearly dependent")
    lead, n = g.shape[:-2], g.shape[-1]
    g, ginv = g.reshape(-1, 1, n, n), ginv.reshape(-1, 1, n, n)
    Y = (g @ np.stack(basis) @ ginv).reshape(-1, Bmat.shape[0]).T  # column (element, a)
    coeffs = np.linalg.lstsq(Bmat, Y, rcond=None)[0]
    residual = np.abs(Bmat @ coeffs - Y).max(axis=0)
    outside = residual > rtol * np.maximum(1.0, np.abs(Y).max(axis=0))
    if outside.any():
        raise NotInvariantSubspace(
            f"g X g^-1 leaves span(basis): residual {residual[outside][0]:.3e}"
        )
    M = coeffs.T.reshape(-1, k, k).mT  # M[:, a] holds the coordinates of g X_a g^-1
    return np.linalg.det(M).reshape(lead)


def adjoint_determinant(
    g: GroupElement,
    algebra_basis: list[np.ndarray],
    rtol: float = 1e-8,
) -> float:
    """det of X -> g X g^-1 expressed in the given Lie-algebra basis.

    The group is unimodular exactly when |det Ad| = 1 for all its
    elements.  Raises NotInvariantSubspace if conjugation leaves the span
    of the basis (checked to ``rtol`` relative).
    """
    return float(adjoint_determinants(g.entries, g.inverse_entries(), algebra_basis, rtol))


def isotropy_algebra_basis(eta) -> list[np.ndarray]:
    """Basis of the Lie algebra o(p, p') of the isotropy group of eta.

    eta must be a diagonal +-1 matrix; the solutions of A^T eta + eta A = 0
    are spanned by eta (E_ij - E_ji) for i < j, giving n(n-1)/2 elements.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 1:
        eta = np.diag(eta)
    if not np.array_equal(eta, np.diag(np.diag(eta))) or not np.all(np.abs(np.diag(eta)) == 1.0):
        raise ValueError("eta must be a diagonal matrix with entries +-1")
    n = eta.shape[0]
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            W = np.zeros((n, n))
            W[i, j] = 1.0
            W[j, i] = -1.0
            basis.append(eta @ W)
    return basis
