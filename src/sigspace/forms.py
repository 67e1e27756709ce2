"""Symmetric bilinear forms: coordinate matrices, signatures, inverses.

A scalar product is represented by its full n x n coordinate matrix in a
fixed basis.  Signatures can be computed either from the signs of the
leading principal minors or from an eigendecomposition; the minor route
fails whenever a leading k x k minor vanishes (below MINOR_RTOL times
max |gamma_ij|^k), so ``auto`` falls back to the eigenvalue count in that
case.  Every tolerance is a module constant, the same for every caller:
SYMMETRY_RTOL, DEGENERACY_RTOL, MINOR_RTOL and INVERSE_RTOL.

A SymmetricForm computes three values on first use and keeps them for its
lifetime: its eigenvalues (with max |gamma_ij|, the scale the degeneracy
check compares them against), its inverse (stored only once it passes the
INVERSE_RTOL residual check), and the natural metric Q that
``geometry.metric_components`` builds from that inverse.  Every stored
array is read-only.  The degeneracy check itself still runs on every call,
against DEGENERACY_RTOL; only the LAPACK work is done once.

The object-level functions are thin wrappers over array kernels that also
accept a stack (..., n, n) of coordinate matrices: ``form_entries`` (the
constructor's checks), ``spectra``, ``check_spectra``, ``inverse_entries``
and ``eigen_positive_counts``.  Applied to a stack they give, matrix for
matrix, the bits the object route gives and raise the same exceptions, so
batch callers such as the acceptance battery can skip the objects.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateForm, MinorBreakdown

# Constructor rejects asymmetry beyond this, relative to the largest entry.
SYMMETRY_RTOL = 1e-12
# Forms with an eigenvalue below this (relative to the largest entry) are
# treated as degenerate, i.e. not scalar products.
DEGENERACY_RTOL = 1e-10
# signature_of(method="auto") leaves the minor rule for the eigenvalues
# when some leading k x k minor is below this times max |gamma_ij|^k.
MINOR_RTOL = 1e-10
# Inverse must reproduce the identity to this residual.
INVERSE_RTOL = 1e-9


class Signature(NamedTuple):
    """Counts of +1 and -1 directions of a nondegenerate symmetric form."""

    p: int
    p_prime: int

    @property
    def n(self) -> int:
        return self.p + self.p_prime


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (a + a.mT)


def form_entries(a) -> np.ndarray:
    """The coordinate matrix a SymmetricForm stores for ``a``, per stacked matrix.

    Raises ValueError when an entry is not finite or when some matrix is
    asymmetric beyond SYMMETRY_RTOL relative to its largest entry.
    """
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("form entries must be finite")
    scale = np.abs(a).max(axis=(-2, -1))
    asym = np.abs(a - a.mT).max(axis=(-2, -1))
    if (asym > SYMMETRY_RTOL * np.maximum(scale, 1.0)).any():
        raise ValueError(f"matrix is not symmetric: max|A - A^T| = {asym.max():.3e}")
    return symmetric_part(a)


class SymmetricForm:
    """Coordinate matrix (gamma_ij) of a symmetric bilinear form.

    The constructor symmetrizes its input and rejects matrices that are
    asymmetric beyond ``SYMMETRY_RTOL`` relative to the largest entry.
    Instances are immutable and safe to share between threads.

    The eigenvalues, the inverse and the metric Q are computed on first
    use and stored in private slots.  Two threads that ask for one of them
    at once may both compute it; the race is benign, because both compute
    the same value from the same read-only entries and storing it is a
    single attribute assignment.
    """

    __slots__ = ("n", "entries", "_spectrum", "_inverse", "_metric")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
        sym = form_entries(a)
        sym.flags.writeable = False
        self.n = int(a.shape[0])
        self.entries = sym
        self._spectrum = None  # (eigenvalues, max |gamma_ij|)
        self._inverse = None  # InverseForm, set by inverse_form
        self._metric = None  # Q_IJ, set by geometry.metric_components

    def __repr__(self) -> str:
        return f"SymmetricForm(n={self.n})"

    def spectrum(self) -> tuple[np.ndarray, float]:
        """Eigenvalues (ascending, read-only) and max |gamma_ij|, computed once."""
        spectrum = self._spectrum
        if spectrum is None:
            eigs, scale = spectra(self.entries)
            eigs.flags.writeable = False
            spectrum = self._spectrum = (eigs, float(scale))
        return spectrum

    def to_dict(self) -> dict:
        return {"n": self.n, "entries": self.entries.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricForm":
        entries = np.asarray(data["entries"], dtype=float)
        if "n" in data and int(data["n"]) != entries.shape[0]:
            raise ValueError("declared dimension does not match the entries")
        return cls(entries)


class InverseForm:
    """Matrix (gamma^ij) inverse to a scalar product's coordinate matrix."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        a = symmetric_part(np.array(entries, dtype=float))
        a.flags.writeable = False
        self.n = int(a.shape[0])
        self.entries = a

    def __repr__(self) -> str:
        return f"InverseForm(n={self.n})"


def spectra(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and max |gamma_ij| of each stacked coordinate matrix."""
    return np.linalg.eigvalsh(entries), np.abs(entries).max(axis=(-2, -1))


def check_spectra(eigs: np.ndarray, scale, label=None) -> None:
    """Raise DegenerateForm if some |eigenvalue| < DEGENERACY_RTOL * max |gamma_ij|.

    ``eigs`` and ``scale`` are as returned by ``spectra``.  This is the one
    degeneracy test; every pointwise and stacked routine applies it.  When
    given, ``label(k)`` names stacked matrix k in the message, for the first
    degenerate k.
    """
    smallest = np.abs(eigs).min(axis=-1)
    degenerate = (scale == 0.0) | (smallest < DEGENERACY_RTOL * scale)
    if degenerate.any():
        first = np.flatnonzero(degenerate)[0]
        where = "" if label is None else f"{label(first)}: "
        raise DegenerateForm(
            f"{where}form is degenerate: min |eigenvalue| = {np.ravel(smallest)[first]:.3e}, "
            f"scale = {np.ravel(scale)[first]:.3e}"
        )


def check_nondegenerate(S: SymmetricForm) -> np.ndarray:
    """Return the eigenvalues of S, raising DegenerateForm on a near-zero one.

    Near zero means |eigenvalue| < DEGENERACY_RTOL * max |gamma_ij| (see
    check_spectra).
    """
    eigs, scale = S.spectrum()
    check_spectra(eigs, scale)
    return eigs


def eigen_positive_counts(entries: np.ndarray) -> np.ndarray:
    """p of the signature (p, n - p) of each stacked matrix, by eigenvalue signs.

    Applies the degeneracy test first, as signature_of(method="eigen") does.
    """
    eigs, scale = spectra(entries)
    check_spectra(eigs, scale)
    return _positive_count(eigs)


def _positive_count(eigs: np.ndarray) -> np.ndarray:
    return (eigs > 0.0).sum(axis=-1)


def _signature_from_eigs(eigs: np.ndarray) -> Signature:
    p = int(_positive_count(eigs))
    return Signature(p, eigs.size - p)


def _leading_minors(entries: np.ndarray) -> np.ndarray:
    n = entries.shape[0]
    return np.array([np.linalg.det(entries[:k, :k]) for k in range(1, n + 1)])


def signature_of(S: SymmetricForm, method: str = "auto") -> Signature:
    """Signature (p, p') of a nondegenerate symmetric form.

    ``minors`` evaluates p' = n/2 - (1/2) sum_k sgn(m_k / m_{k-1}) with
    m_0 = 1 and m_k the leading principal k x k minors.  ``eigen`` counts
    the signs of the eigenvalues.  ``auto`` prefers minors and falls back
    to eigenvalues when some |m_k| < MINOR_RTOL * scale**k.

    Raises DegenerateForm when the form is not a scalar product, and
    MinorBreakdown (method="minors" only) when a leading minor vanishes.
    """
    if method not in ("minors", "eigen", "auto"):
        raise ValueError(f"unknown method {method!r}")
    eigs = check_nondegenerate(S)
    if method == "eigen":
        return _signature_from_eigs(eigs)

    scale = S.spectrum()[1]
    minors = _leading_minors(S.entries)
    thresholds = MINOR_RTOL * scale ** np.arange(1, S.n + 1)
    if np.any(np.abs(minors) < thresholds):
        if method == "minors":
            raise MinorBreakdown(
                "a leading principal minor vanishes; use method='eigen'"
            )
        return _signature_from_eigs(eigs)

    ratios = minors / np.concatenate(([1.0], minors[:-1]))
    p_prime = 0.5 * S.n - 0.5 * float(np.sum(np.sign(ratios)))
    p_prime_int = int(round(p_prime))
    return Signature(S.n - p_prime_int, p_prime_int)


def inverse_form(S: SymmetricForm) -> InverseForm:
    """Inverse coordinate matrix (gamma^ij), gamma^ik gamma_kj = delta^i_j.

    Computed and residual-checked once per form, then returned as stored;
    the degeneracy check runs on every call.
    """
    check_nondegenerate(S)
    inverse = S._inverse
    if inverse is None:
        inverse = S._inverse = InverseForm(_checked_inverse(S.entries))
    return inverse


def _checked_inverse(entries: np.ndarray) -> np.ndarray:
    """inv(gamma) per stacked matrix, residual-checked."""
    inv = np.linalg.inv(entries)
    residual = float(np.abs(inv @ entries - np.eye(entries.shape[-1])).max(initial=0.0))
    if residual > INVERSE_RTOL:
        raise DegenerateForm(
            f"inverse residual {residual:.3e} exceeds {INVERSE_RTOL:.1e}; "
            "form is too ill-conditioned"
        )
    return inv


def inverse_entries(entries: np.ndarray) -> np.ndarray:
    """inverse_form(S).entries for each stacked coordinate matrix S.

    Runs the same degeneracy test and inverse residual check, raising
    DegenerateForm as inverse_form does.
    """
    check_spectra(*spectra(entries))
    return symmetric_part(_checked_inverse(entries))


def random_forms(
    sig: Signature,
    rng_seed=None,
    count: int = 1,
    scale: float = 1.0,
    max_condition: float = 1e6,
) -> np.ndarray:
    """Stack (count, n, n) of random scalar products of the requested signature.

    Each is B diag(+1,...,-1,...) B^T for a random B with entries in
    (-scale, scale), redrawn until cond(B) < max_condition; a finite
    condition number already makes B invertible, at any ``scale``.  The
    stack is returned as computed: SymmetricForm, or form_entries for a
    stack, validates and symmetrizes it.  Passing a numpy Generator as
    ``rng_seed`` reuses its stream.

    Each round draws exactly as many candidates as forms are still
    missing, so the stack and the generator's final state equal those of
    ``count`` successive random_form calls: no candidate is drawn that
    the one-at-a-time loop would not draw.
    """
    sig = Signature(*sig)
    if sig.p < 0 or sig.p_prime < 0 or sig.n < 1:
        raise ValueError(f"invalid signature {sig}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    eta = _eta(sig)
    out = np.empty((count, sig.n, sig.n))
    done = 0
    while done < count:
        B = rng.uniform(-scale, scale, size=(count - done, sig.n, sig.n))
        B = B[np.linalg.cond(B) < max_condition]
        out[done : done + len(B)] = B @ eta @ B.mT
        done += len(B)
    return out


@lru_cache(maxsize=None)
def _eta(sig: Signature) -> np.ndarray:
    """diag(+1 x p, -1 x p'), read-only."""
    eta = np.diag(np.concatenate((np.ones(sig.p), -np.ones(sig.p_prime))))
    eta.flags.writeable = False
    return eta


def random_form(
    sig: Signature,
    rng_seed=None,
    scale: float = 1.0,
    max_condition: float = 1e6,
) -> SymmetricForm:
    """Random scalar product of the requested signature (see random_forms)."""
    return SymmetricForm(random_forms(sig, rng_seed, 1, scale, max_condition)[0])
