"""Deliberately broken kernels, each of which an acceptance criterion must catch.

Each row replaces one library function with a small mutant grounded in
the paper (monkeypatch puts the original back) and runs only the
criterion named for it, at the default suite seed; that criterion must
report numeric_passed=False.  A criterion no mutant can make fail checks
nothing (DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).
"""
import json

import numpy as np
import pytest

from sigspace import acceptance, measure

SUITE_SEED = 7


def _closed_form(constant, exponent):
    """A density constant(n) |prod diag|^exponent(n) per row of diagonals of product det gamma."""

    def mutant(diag):
        n = diag.shape[-1]
        return constant(n) * np.abs(np.prod(diag, axis=-1)) ** exponent(n)

    return mutant


MUTANTS = {
    # the 2^(n(n-1)/4) from the trace pairing's determinant dropped
    "density_constant_dropped": (
        measure, "_density_batch", _closed_form(lambda n: 1.0, lambda n: -(n + 1) / 2.0), 4,
    ),
    # |det gamma|^(-n/2) in place of the congruence Jacobian's |det gamma|^(-(n+1)/2)
    "density_exponent_minus_n_over_2": (
        measure, "_density_batch", _closed_form(lambda n: 2.0 ** (n * (n - 1) / 4.0), lambda n: -n / 2.0), 4,
    ),
    # the moved integral taken over the original box, not over the image of the box under g^-1
    "moved_box_not_moved": (measure, "_linear_image_box", lambda L, box: box, 7),
    # a transformation law slightly off at n = 2: |det gamma|^(-1.45) in place of |det gamma|^(-3/2)
    "density_exponent_off_at_n2": (
        measure, "_density_batch",
        _closed_form(lambda n: 2.0 ** (n * (n - 1) / 4.0), lambda n: -1.45 if n == 2 else -(n + 1) / 2.0), 7,
    ),
}


@pytest.mark.parametrize("owner, name, mutant, index", MUTANTS.values(), ids=list(MUTANTS))
def test_mutant_fails_its_criterion(monkeypatch, owner, name, mutant, index):
    monkeypatch.setattr(owner, name, mutant)
    result = acceptance._CRITERIA[index - 1](SUITE_SEED + 1000 * index)
    assert not result.numeric_passed, json.dumps(result.details, indent=2)
