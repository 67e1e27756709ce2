"""Runs every acceptance criterion and prints one pass/fail line each.

The seeds match what ``sigspace suite --seed 7`` uses, so this module and
the CLI battery exercise identical experiments.  Criteria 2-5 run on
stacked arrays; they are checked here against the pointwise loops over
form objects that they replace, and each stacked kernel against its
object-level function.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    GroupElement,
    Signature,
    SymmetricForm,
    act,
    action_jacobian,
    density,
    density_closed_form,
    inverse_form,
    random_form,
)
from sigspace import acceptance
from sigspace.forms import eigen_positive_counts, form_entries, inverse_entries
from sigspace.geometry import (
    _metric_from_inverse,
    contraction,
    deformed_from,
    deformed_metric,
    metric_components,
    metric_signature,
    one_form_components,
    one_form_from_inverse,
    pullback_invariance_residual,
    pullback_residual,
    qinv_alpha_alpha,
)
from sigspace.group import act_entries, group_entries
from sigspace.measure import (
    density_from_metric,
    printed_density_n2,
    pushforward_invariance_residual,
    pushforward_residual,
)
from sigspace.packing import congruence_jacobian
from strategies import conditioned_forms, conditioned_groups

SUITE_SEED = 7

_PLAN = [
    (k, fn, SUITE_SEED + 1000 * k) for k, fn in enumerate(acceptance._CRITERIA, start=1)
]


@pytest.mark.parametrize("index,criterion,seed", _PLAN, ids=[fn.__name__ for _, fn, _ in _PLAN])
def test_acceptance_criterion(index, criterion, seed):
    result = criterion(seed)
    print(result.line())
    assert result.runtime_s < result.runtime_budget_s, (
        f"criterion {index} exceeded its runtime budget: "
        f"{result.runtime_s:.2f}s >= {result.runtime_budget_s:.2f}s"
    )
    assert result.passed, json.dumps(result.details, indent=2, default=str)


class TestBudgetAndNumbersApart:
    def test_zero_budget_fails_on_time_only(self):
        result = acceptance._timed(1, "stub", 0.0, lambda rng: (True, {}), 0)
        assert result.numeric_passed is True
        assert result.within_budget is False
        assert result.passed is False
        assert result.line().startswith("[FAIL]")
        assert "budget" in result.line() and "numbers" not in result.line()

    def test_numeric_failure_within_budget(self):
        result = acceptance._timed(2, "stub", 60.0, lambda rng: (False, {}), 0)
        assert (result.numeric_passed, result.within_budget, result.passed) == (False, True, False)
        assert "numbers" in result.line() and "budget" not in result.line()


# -- the pointwise loops criteria 2-5 ran over form objects ------------------


def _group(rng, n, max_condition):
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 1e-3 and np.linalg.cond(g) < max_condition:
            return GroupElement(g)


def _pointwise_2(rng):
    worst = 0.0
    for sig in [(2, 0), (1, 1), (0, 2)]:
        for _ in range(1000):
            S = random_form(Signature(*sig), rng, max_condition=8.0)
            direct = density(S).value
            worst = max(worst, abs(direct - density_closed_form(S).value) / direct)
    return {"max_relative_error": worst, "tolerance": 1e-10}


def _pointwise_3(rng):
    failures = 0
    for n in range(1, 6):
        for p in range(n, -1, -1):
            q = n - p
            expected = Signature((p * (p + 1) + q * (q + 1)) // 2, p * q)
            for _ in range(100):
                S = random_form(Signature(p, q), rng, max_condition=30.0)
                failures += metric_signature(S) != expected
    return {"mismatches": failures}


def _pointwise_4(rng):
    worst_metric = worst_measure = 0.0
    for n in range(1, 5):
        for _ in range(250):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=10.0)
            g = _group(rng, n, 10.0)
            q_scale = float(np.max(np.abs(metric_components(S).components)))
            worst_metric = max(worst_metric, pullback_invariance_residual(g, S) / q_scale)
            worst_measure = max(worst_measure, pushforward_invariance_residual(g, S) / density(S).value)
    return {"max_metric_residual": worst_metric, "max_measure_residual": worst_measure, "tolerance": 1e-8}


def _pointwise_5(rng):
    worst_qinv = worst_det = 0.0
    for n in range(1, 5):
        for _ in range(500):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=30.0)
            worst_qinv = max(worst_qinv, abs(qinv_alpha_alpha(S) - n) / n)
            det_q = abs(np.linalg.det(metric_components(S).components))
            worst_det = max(worst_det, abs(np.linalg.det(deformed_metric(S, -1.0 / n).components)) / det_q)
    return {"max_qinv_error": worst_qinv, "max_degenerate_det_ratio": worst_det, "tolerances": [1e-8, 1e-10]}


@pytest.mark.parametrize("index,reference", [(2, _pointwise_2), (3, _pointwise_3), (4, _pointwise_4), (5, _pointwise_5)])
def test_stacked_criteria_report_the_pointwise_numbers(index, reference):
    seed = SUITE_SEED + 1000 * index
    result = acceptance._CRITERIA[index - 1](seed)
    assert result.details == reference(np.random.default_rng(seed))


# -- each stacked kernel against its object-level function -------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), size=st.integers(min_value=1, max_value=4), data=st.data())
def test_stacked_kernels_equal_object_functions(n, size, data):
    cases = data.draw(st.lists(conditioned_forms(max_log_cond=2.0, max_scale_exp=2, n=n), min_size=size, max_size=size))
    groups = data.draw(st.lists(conditioned_groups(n, max_log_cond=1.0), min_size=size, max_size=size))
    forms = [SymmetricForm(S) for S, _, _ in cases]
    same = np.testing.assert_array_equal

    S = form_entries([S for S, _, _ in cases])
    same(S, [f.entries for f in forms])
    inv = inverse_entries(S)
    same(inv, [inverse_form(f).entries for f in forms])
    Q = _metric_from_inverse(inv)
    same(Q, [metric_components(f).components for f in forms])
    here = density_from_metric(Q)
    same(here, [density(f).value for f in forms])
    same(eigen_positive_counts(form_entries(Q)), [metric_signature(f).p for f in forms])
    alpha = one_form_from_inverse(inv)
    same(alpha, [one_form_components(f).components for f in forms])
    same(contraction(Q, alpha), [qinv_alpha_alpha(f) for f in forms])
    same(deformed_from(Q, alpha, -0.3), [deformed_metric(f, -0.3).components for f in forms])
    if n == 2:
        same(printed_density_n2(inv), [density_closed_form(f).value for f in forms])

    ginv = np.linalg.inv(group_entries([g.entries for g in groups]))
    same(ginv, [g.inverse_entries() for g in groups])
    L = congruence_jacobian(ginv)
    same(L, [action_jacobian(g) for g in groups])
    moved = act_entries(ginv, S)
    same(moved, [act(g, f).entries for g, f in zip(groups, forms)])
    Q_moved = _metric_from_inverse(inverse_entries(moved))
    same(pullback_residual(L, Q_moved, Q), [pullback_invariance_residual(g, f) for g, f in zip(groups, forms)])
    same(
        pushforward_residual(L, density_from_metric(Q_moved), here),
        [pushforward_invariance_residual(g, f) for g, f in zip(groups, forms)],
    )
