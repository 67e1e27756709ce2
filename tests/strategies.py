"""Test inputs shared by the test files: conditioned hypothesis strategies
and a fixed near-degenerate form.

Each strategy fixes the condition number of what it draws, so that a
failing property points at the code and not at an ill-posed input.
"""
import numpy as np
from hypothesis import strategies as st

from sigspace import GroupElement, Signature, SymmetricForm


def near_degenerate_form():
    """A rotated (2, 1) form with min|lambda| / max|gamma_ij| of about 1e-6.

    It passes the degeneracy test, DEGENERACY_RTOL = 1e-10.
    """
    rotation, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((3, 3)))
    return SymmetricForm((rotation * [1.0, -1e-6, 0.5]) @ rotation.T)


def _exponents(draw, n, log_cond):
    """n exponents in [0, log_cond], the two ends always present (n >= 2)."""
    inner = draw(st.lists(st.floats(min_value=0.0, max_value=log_cond), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    return np.array([0.0, *inner, log_cond][:n])


def _rotation(draw, n):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return rotation


@st.composite
def conditioned_forms(draw, max_log_cond, max_scale_exp=6, n=None):
    """(S, signature, condition number) with the conditioning chosen explicitly.

    The eigenvalue moduli of S are 10^k times 10^-c_i with the c_i in
    [0, log_cond], the two ends always present, so cond(S) is exactly
    10^log_cond; the overall scale 10^k runs over |k| <= max_scale_exp
    and the eigenvectors are a seeded random rotation.  The size n is
    drawn from 1..6 unless given.
    """
    if n is None:
        n = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=0, max_value=n))
    log_cond = draw(st.floats(min_value=0.0, max_value=max_log_cond)) if n > 1 else 0.0
    k = draw(st.integers(min_value=-max_scale_exp, max_value=max_scale_exp))
    exponents = _exponents(draw, n, log_cond)
    signs = np.concatenate((np.ones(p), -np.ones(n - p)))
    rotation = _rotation(draw, n)
    S = (rotation * (signs * 10.0 ** (k - exponents))) @ rotation.T
    return (S + S.T) / 2.0, Signature(p, n - p), 10.0**log_cond


@st.composite
def conditioned_groups(draw, n, max_log_cond):
    """GroupElement of size n with cond(g) = 10^log_cond exactly.

    g = U diag(10^(k - c_i)) V^T with U, V seeded random orthogonal
    matrices (so det g takes either sign), the c_i as in conditioned_forms
    and an overall scale 10^k, |k| <= 1.
    """
    log_cond = draw(st.floats(min_value=0.0, max_value=max_log_cond)) if n > 1 else 0.0
    k = draw(st.floats(min_value=-1.0, max_value=1.0))
    exponents = _exponents(draw, n, log_cond)
    U, V = _rotation(draw, n), _rotation(draw, n)
    return GroupElement((U * 10.0 ** (k - exponents)) @ V.T)
