"""The invariant measure density and Monte-Carlo experiments.

The paper's invariant density is sqrt|det Q_IJ|, with Q the natural N x N
metric; it equals the closed form 2^(n(n-1)/4) |det gamma|^(-(n+1)/2),
because Q_IJ = trace(E_I gamma^-1 E_J gamma^-1) is the trace pairing, of
determinant 2^(n(n-1)/2) in packed coordinates, composed with the
congruence X -> gamma^-1 X gamma^-1, whose packed Jacobian has
determinant (det gamma)^-(n+1) (see congruence_jacobian).  Every route
evaluates the closed form, through _density_batch, on a diagonal whose
product is det gamma: ``density`` and ``natural_density`` on the
eigenvalues, after the degeneracy test, and Monte-Carlo on the signature
filter's diagonal.  ``density_from_metric`` keeps sqrt|det Q| only as the
paper's claim, which acceptance criteria 2 and 4 check against it; the
closed form needs an n x n determinant where det Q, conditioned like
cond(gamma)^2, needs an N x N one.  The printed formulas for n <= 2 are
cross-checks.
Monte-Carlo integration runs over explicit boxes in packed coordinates
with a signature rejection filter, using a counter-based generator
(Philox) with fixed chunking so that a seed determines the stream
regardless of worker count.  Each chunk makes one pass per quantity: its
standard uniforms are scaled to the box in place, which gives
Generator.uniform(lower, upper)'s draws bit for bit; the filter runs once
over the chunk; the densities take the product of the filter diagonal
column by column, in np.prod's order; and the integrand, which takes
an (m, N) array of packed rows and returns m values, sees the chunk
itself when every row passed, or its accepted rows, gathered once by
index, otherwise.  The filter factors every sample as LDL^T,
vectorised across the chunk on the packed coordinates; a backward-error
bound certifies the inertia (the signature, by Sylvester's law) and the
distance from degeneracy of almost every row, and the rows it cannot
certify (zero pivots, large growth, near-degenerate forms) are decided by
their eigenvalues.  Either way the filter accepts exactly the rows the
eigenvalue test accepts at DEGENERACY_RTOL, as it would at any
degeneracy tolerance well above rounding.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDomain, UnsupportedDimension
from .forms import DEGENERACY_RTOL, Signature, SymmetricForm, check_nondegenerate, check_spectra, inverse_form, spectra
from .group import GroupElement, act, action_jacobian
from .packing import congruence_jacobian, packed_dim, unpack

_CHUNK = 65536


def check_densities(values) -> np.ndarray:
    """The density values, raising ValueError unless every one is positive and finite."""
    values = np.asarray(values)
    bad = ~((values > 0.0) & (values < np.inf))
    if bad.any():
        raise ValueError(f"density must be positive and finite, got {values[bad].flat[0]}")
    return values


@dataclass(frozen=True)
class DensityValue:
    """Invariant-measure density at a base form."""

    value: float
    at: SymmetricForm

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"density must be positive and finite, got {self.value}")

    def __float__(self) -> float:
        return self.value


class BoxDomain:
    """Axis-aligned box in packed coordinates with a signature filter."""

    __slots__ = ("n", "N", "signature", "lower", "upper")

    def __init__(self, signature: Signature, lower, upper):
        self.signature = Signature(*signature)
        self.n = self.signature.n
        self.N = packed_dim(self.n)
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != (self.N,) or hi.shape != (self.N,):
            raise ValueError(f"bounds must have length N = {self.N}")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be below its upper bound")
        self.lower = lo
        self.upper = hi

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def to_dict(self) -> dict:
        return {
            "signature": list(self.signature),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoxDomain":
        return cls(tuple(data["signature"]), data["lower"], data["upper"])


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its standard error and acceptance counts."""

    value: float
    std_error: float
    n_samples: int
    n_accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_samples


def density_from_metric(Q: np.ndarray) -> np.ndarray:
    """sqrt|det Q| per stacked metric: the paper's density, kept as the claim under test."""
    return np.sqrt(np.abs(np.linalg.det(Q)))


def natural_density(entries: np.ndarray) -> np.ndarray:
    """density(S).value per stacked coordinate matrix, as form_entries returns it.

    Runs the degeneracy test of check_spectra, raising DegenerateForm as it
    does, then the closed form on the eigenvalues; raises ValueError when
    a density is not representable.
    """
    eigs, scale = spectra(entries)
    check_spectra(eigs, scale)
    return check_densities(_density_batch(eigs))


def density(S: SymmetricForm) -> DensityValue:
    """The natural invariant-measure density at S, in closed form from its eigenvalues."""
    return DensityValue(float(_density_batch(check_nondegenerate(S))), S)


def printed_density_n2(inv: np.ndarray) -> np.ndarray:
    """The printed n = 2 density per stacked inverse form (see density_closed_form).

    The terms are evaluated on Python floats, whose powers are the C
    library's pow, as for a single form; numpy's vectorised power rounds
    some of them differently.
    """
    g11, g22, g12 = (inv[..., i, j].astype(object) for i, j in ((0, 0), (1, 1), (0, 1)))
    body = (
        g11**3 * g22**3
        + 3.0 * g11 * g22 * g12**4
        - 3.0 * g11**2 * g22**2 * g12**2
        - g12**6
    )
    return check_densities(np.sqrt(2.0 * np.abs(np.asarray(body, dtype=float))))


def density_closed_form(S: SymmetricForm) -> DensityValue:
    """The printed closed forms for n <= 2, evaluated verbatim.

    n = 1:  1 / |gamma_11|
    n = 2:  sqrt(2 |(g11 g22)^3 + 3 g11 g22 g12^4 - 3 (g11 g22)^2 g12^2 - g12^6|)
    with g_ij the entries of the inverse form.
    """
    if S.n == 1:
        val = 1.0 / abs(S.entries[0, 0])
        return DensityValue(val, S)
    if S.n == 2:
        return DensityValue(float(printed_density_n2(inverse_form(S).entries)), S)
    raise UnsupportedDimension(f"closed form only printed for n <= 2, got n = {S.n}")


def pushforward_residual(L: np.ndarray, moved: np.ndarray, here: np.ndarray) -> np.ndarray:
    """|moved |det L| - here|, per stacked Jacobian L and densities moved and here."""
    return np.abs(moved * np.abs(np.linalg.det(L)) - here)


def pushforward_invariance_residual(g: GroupElement, S: SymmetricForm) -> float:
    """|density(act(g, S)) |det L| - density(S)| with L = action_jacobian(g).

    Vanishes (to rounding) because the natural measure is invariant; the
    contract is residual < 1e-8 relative to density(S).
    """
    moved = density(act(g, S)).value
    return float(pushforward_residual(action_jacobian(g), moved, density(S).value))


# Unit roundoff of binary64.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# Factor on the LDL^T backward-error bound delta (see _ldl_certificate).
# Its slack, 3 gamma_{n+1} w, covers the rounding in evaluating the
# certificate: the eigenvalue bound is at most w and is computed to a
# relative gamma_{2n+1}.
_LDL_SAFETY = 4.0
# Rows with w above this multiple of n max |gamma_ij| fall back to the
# eigenvalues: with more growth the pivot product loses clearly more
# digits of det gamma than the eigenvalues do.
_LDL_MAX_GROWTH = 64.0
# Rows whose largest entry lies outside this range fall back too, so that
# no product or quotient in the certificate can underflow or overflow.
_LDL_SCALE_RANGE = (1e-100, 1e100)
# Rows per elimination pass, so that the working rows stay in cache.
_LDL_BLOCK = 8192


def _ldl_certificate(coords: np.ndarray, n: int, rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(certified rows, positive pivot counts, (n, m) pivots) of an unpivoted LDL^T per row.

    The elimination runs on the upper triangle of the packed rows, with
    one numpy operation per pair of packed coordinates across the whole
    batch: numpy combines rows elementwise far faster than it reduces
    across them.  The computed factors are the exact LDL^T of a
    symmetric gamma + E with |E| <= gamma_{n+1} |L| |D| |L|^T (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 9.3, with one
    more rounding for the multipliers), so ||E||_2 <= delta, taken as
    _LDL_SAFETY gamma_{n+1} w with w = sum_k |d_k| (1 + sum_{i>k} l_ik^2).
    By Sylvester's law of inertia the pivot signs give the signature of
    gamma + E, and prod |d_k| = |det(gamma + E)|.  As ||gamma + E||_2 <=
    F = n max |gamma_ij| + delta, every eigenvalue of gamma + E has
    modulus at least prod |d_k| / F^(n-1), and by Weyl's inequality those
    of gamma lie within delta of them.  A row is certified when this
    lower bound on min |lambda(gamma)| is positive and at least
    2 rtol max |gamma_ij|, and w is at most _LDL_MAX_GROWTH n max |gamma_ij|:
    its inertia is then the pivot count, it passes the degeneracy test
    with room to spare, and its pivot product is about as accurate as
    the eigenvalues' one.  Zero or non-finite pivots, large growth and
    near-degenerate rows all fail.
    """
    slots = [k * n - k * (k - 1) // 2 for k in range(n)]  # packed index of (k, k)
    a = np.array(coords.T)  # row r holds packed coordinate r of every sample
    scale = np.abs(a[0])
    for row in a[1:]:
        np.maximum(scale, np.abs(row), out=scale)
    pivots = np.empty((n, a.shape[1]))
    weight = np.zeros(a.shape[1])
    positive = np.zeros(a.shape[1], dtype=np.int8)
    with np.errstate(all="ignore"):
        for k, s in enumerate(slots):
            pivot = pivots[k] = a[s]
            positive += pivot > 0.0
            weight += np.abs(pivot)
            for t, i in enumerate(range(k + 1, n)):
                # l_ik times row k from column i on; its first entry is l_ik^2 d_k
                update = (a[s + 1 + t] / pivot) * a[s + 1 + t : s + n - k]
                weight += np.abs(update[0])
                a[slots[i] : slots[i] + n - i] -= update
        delta = _LDL_SAFETY * (n + 1) * _UNIT_ROUNDOFF / (1.0 - (n + 1) * _UNIT_ROUNDOFF) * weight
        norm = n * scale + delta  # F
        lower = norm.copy()
        for pivot in pivots:
            lower *= np.abs(pivot) / norm
        lower -= delta
        certified = (
            (lower > 0.0)
            & (lower >= 2.0 * rtol * scale)
            & (weight <= _LDL_MAX_GROWTH * n * scale)
            & (scale > _LDL_SCALE_RANGE[0])
            & (scale < _LDL_SCALE_RANGE[1])
        )
    return certified, positive, pivots


def _eigen_mask(mats: np.ndarray, sig: Signature, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask of nondegenerate rows of signature sig, eigenvalues of every row)."""
    eigs = np.linalg.eigvalsh(mats)
    scale = np.max(np.abs(mats), axis=(-1, -2))
    nondeg = np.min(np.abs(eigs), axis=-1) >= rtol * np.maximum(scale, 1e-300)
    pos = np.sum(eigs > 0.0, axis=-1)
    return nondeg & (pos == sig.p), eigs


def _signature_mask(coords: np.ndarray, sig: Signature, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask of nondegenerate rows of signature sig, diagonal of every row).

    ``coords`` holds packed rows.  Rows certified by the batched LDL^T
    (see _ldl_certificate) are decided by their pivot signs, and their
    diagonal is the pivots; every other row is unpacked and decided by
    _eigen_mask, its diagonal being the eigenvalues.  Either way the
    product of a row's diagonal is its determinant, and the mask equals
    _eigen_mask's row for row whenever rtol is well above the rounding
    error of the eigenvalues.
    """
    n = sig.n
    certified = np.empty(len(coords), dtype=bool)
    positive = np.empty(len(coords), dtype=np.int8)
    diag = np.empty((len(coords), n))
    for start in range(0, len(coords), _LDL_BLOCK):
        rows = slice(start, start + _LDL_BLOCK)
        certified[rows], positive[rows], pivots = _ldl_certificate(coords[rows], n, rtol)
        diag[rows] = pivots.T
    mask = certified & (positive == sig.p)
    fallback = ~certified
    if np.any(fallback):
        mask[fallback], diag[fallback] = _eigen_mask(unpack(coords[fallback], n), sig, rtol)
    return mask, diag


def _density_batch(diag: np.ndarray) -> np.ndarray:
    """The density 2^(n(n-1)/4) |prod diag|^(-(n+1)/2) per row of diagonals of product det gamma.

    The product is taken column by column, left to right, which is the
    order np.prod multiplies along a row, in one pass over the rows per
    column instead of one short reduction per row.
    """
    n = diag.shape[-1]
    values = diag[..., 0].copy()
    for k in range(1, n):
        values *= diag[..., k]
    np.abs(values, out=values)
    values **= -(n + 1) / 2.0
    values *= 2.0 ** (n * (n - 1) / 4.0)
    return values


def _draw_chunk(lower: np.ndarray, upper: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """count uniform rows in [lower, upper) from the Philox substream of the chunk at start.

    Standard uniforms u are scaled in place to lower + (upper - lower) u,
    entry by entry in C order, which is what Generator.uniform(lower,
    upper, size=(count, len(lower))) computes, so the rows are its rows bit
    for bit, without its broadcast over the bound arrays.
    """
    rng = np.random.Generator(np.random.Philox(seed).jumped(start // _CHUNK))
    coords = rng.random((count, len(lower)))
    coords *= upper - lower
    coords += lower
    return coords


def _chunk_sums(f, box, seed, start, count):
    """(sum, sum of squares about the chunk mean, accepted count) of f * density.

    A chunk whose rows all pass the filter is evaluated as drawn; otherwise
    its accepted rows are gathered once, by index.
    """
    coords = _draw_chunk(box.lower, box.upper, seed, start, count)
    accept, diag = _signature_mask(coords, box.signature, DEGENERACY_RTOL)
    accepted = int(np.count_nonzero(accept))
    vals = np.zeros(count)
    if accepted:
        rows = slice(None) if accepted == count else np.flatnonzero(accept)
        dens = _density_batch(diag[rows])
        fvals = np.asarray(f(coords[rows]), dtype=float)
        if fvals.shape != (accepted,):
            raise ValueError("integrand must return one value per row")
        dens *= fvals
        vals[rows] = dens
    total = float(np.sum(vals))
    vals -= total / count
    vals *= vals
    return total, float(np.sum(vals)), accepted


def mc_integrate(
    f,
    box: BoxDomain,
    rng_seed: int,
    n_samples: int,
    threads: int | None = None,
) -> MCEstimate:
    """Monte-Carlo integral of f against the invariant measure over a box.

    Uniform proposals inside the box are rejected unless they carry the
    box signature; accepted samples contribute f * density, with the
    density taken in closed form from the filter's LDL^T pivots, or
    eigenvalues on the rows the LDL^T cannot certify (equal to
    sqrt|det Q|, see the module docstring).  ``f`` takes an (m, N) array
    of packed coordinates and returns (m,) values.  Same seed, same
    estimate: samples are drawn per fixed-size chunk from jumped Philox
    substreams and reduced in chunk order, so the result is independent
    of ``threads``.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    starts = list(range(0, n_samples, _CHUNK))
    jobs = [(s, min(_CHUNK, n_samples - s)) for s in starts]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda job: _chunk_sums(f, box, rng_seed, *job), jobs))
    else:
        results = [_chunk_sums(f, box, rng_seed, s, c) for s, c in jobs]
    n_accepted = sum(r[2] for r in results)
    if n_accepted == 0:
        raise EmptyDomain("no sample passed the signature filter")
    # pairwise combination of chunk moments (Chan, Golub & LeVeque 1979),
    # in chunk order so that the result does not depend on ``threads``
    s1, m2, seen = 0.0, 0.0, 0
    for (_, count), (total, chunk_m2, _) in zip(jobs, results):
        delta = total / count - (s1 / seen if seen else 0.0)
        m2 += chunk_m2 + delta * delta * seen * count / (seen + count)
        s1 += total
        seen += count
    vol = box.volume
    return MCEstimate(
        value=vol * (s1 / n_samples),
        std_error=vol * math.sqrt(m2 / (n_samples - 1) / n_samples),
        n_samples=n_samples,
        n_accepted=n_accepted,
    )


def radial_bump(center, radius: float):
    """Smooth compactly supported bump in packed coordinates (vectorized).

    Value exp(1 - 1/(1 - u^2)) for u = |x - center| / radius < 1, else 0.
    """
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        raise ValueError("radius must be positive")

    def f(coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        scaled = coords - center
        scaled /= radius
        scaled *= scaled
        u2 = np.sum(scaled, axis=-1)
        out = np.zeros(u2.shape)
        inside = np.flatnonzero(u2 < 1.0)
        t = u2[inside]
        np.subtract(1.0, t, out=t)
        np.divide(1.0, t, out=t)
        np.subtract(1.0, t, out=t)
        out[inside] = np.exp(t, out=t)
        return out

    return f


def _linear_image_box(L: np.ndarray, box: BoxDomain) -> BoxDomain:
    """Bounding box of the image of a box under the linear map L."""
    lo_terms = np.minimum(L * box.lower, L * box.upper)
    hi_terms = np.maximum(L * box.lower, L * box.upper)
    return BoxDomain(box.signature, lo_terms.sum(axis=1), hi_terms.sum(axis=1))


@dataclass(frozen=True)
class InvarianceReport:
    """Both sides of the invariance identity and their discrepancy in sigmas."""

    lhs: MCEstimate
    rhs: MCEstimate
    difference: float
    combined_std_error: float
    difference_sigmas: float


def invariance_experiment(
    f,
    g: GroupElement,
    box: BoxDomain,
    rng_seed: int,
    n_samples: int,
    threads: int | None = None,
) -> InvarianceReport:
    """Compare int f dmu with int (f o g) dmu; they agree for invariant measures.

    f takes packed rows, as for mc_integrate, and must be compactly
    supported inside ``box``.  The composed integrand is supported on the
    image of the box under g^-1, so it is integrated over the bounding box
    of that image.  The discrepancy is reported in combined standard
    errors; judging it is left to the caller.
    """
    lhs = mc_integrate(f, box, rng_seed, n_samples, threads=threads)
    L_g = action_jacobian(g)
    moved_box = _linear_image_box(congruence_jacobian(g.entries), box)
    f_moved = lambda coords: f(coords @ L_g.T)
    rhs = mc_integrate(f_moved, moved_box, rng_seed, n_samples, threads=threads)
    diff = rhs.value - lhs.value
    combined = math.hypot(lhs.std_error, rhs.std_error)
    sigmas = diff / combined if combined > 0.0 else (0.0 if diff == 0.0 else math.inf)
    return InvarianceReport(
        lhs=lhs,
        rhs=rhs,
        difference=diff,
        combined_std_error=combined,
        difference_sigmas=sigmas,
    )
