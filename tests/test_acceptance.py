"""Runs every acceptance criterion and prints one pass/fail line each.

The seeds match what ``sigspace suite --seed 7`` uses, so this module and
the CLI battery exercise identical experiments.  Criteria 2-5, 8, 10 and
11 run on stacked arrays; they are checked here, at two suite seeds,
against the pointwise loops over objects that they replace, and each
stacked kernel against its object-level function.
"""
import json

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    GroupElement,
    PointChart,
    Signature,
    SymmetricForm,
    act,
    action_jacobian,
    adjoint_determinant,
    density,
    density_closed_form,
    field_density_at,
    inverse_form,
    isotropy_algebra_basis,
    lazy_smoothstep,
    make_ball_grid,
    random_form,
    signature_of,
    transitive_witness,
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
from sigspace.field import transported_density
from sigspace.group import act_entries, adjoint_determinants, gl_plus_path, group_entries
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


# -- the pointwise loops criteria 2-5, 8, 10 and 11 ran over objects -------


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


def _pointwise_8(rng):
    worst = 0.0
    for n in range(1, 4):
        basis = [np.eye(n)[:, [i]] @ np.eye(n)[[j], :] for i in range(n) for j in range(n)]
        for _ in range(200):
            worst = max(worst, abs(abs(adjoint_determinant(_group(rng, n, 30.0), basis)) - 1.0))
    for eta_diag in ([1.0, -1.0], [1.0, 1.0], [1.0, 1.0, -1.0]):
        basis = isotropy_algebra_basis(np.diag(eta_diag))
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, size=len(basis))
            h = GroupElement(sla.expm(sum(c * X for c, X in zip(coeffs, basis))))
            worst = max(worst, abs(abs(adjoint_determinant(h, basis)) - 1.0))
    return {"max_deviation": worst, "tolerance": 1e-8}


def _pointwise_10(rng):
    cond = 5.0
    worst_frame = worst_comp = worst_diffeo = 0.0
    for n in range(1, 4):
        for sig in {Signature(n, 0), Signature(1, n - 1)}:
            samples = [random_form(sig, rng, max_condition=cond) for _ in range(50)]
            l = PointChart("x", _group(rng, n, cond).entries)
            l_prime = PointChart("x", _group(rng, n, cond).entries)
            for S in samples:
                d1, d2 = field_density_at(l, S), field_density_at(l_prime, S)
                worst_frame = max(worst_frame, abs(d1 - d2) / abs(d1))
            l1 = _group(rng, n, cond).entries
            step = _group(rng, n, cond).entries
            by_l1 = lambda S, _l1=l1: field_density_at(PointChart(1, _l1), S)
            for S in samples[:20]:
                direct = field_density_at(PointChart(2, l1 @ step), S)
                two_step = field_density_at(PointChart(2, step), S, base_density=by_l1)
                worst_comp = max(worst_comp, abs(direct - two_step) / direct)
            charts = {k: PointChart(k, _group(rng, n, cond).entries) for k in range(5)}
            perm = rng.permutation(5)
            chi = {k: (int(perm[k]), _group(rng, n, cond).entries) for k in range(5)}
            for point, (image, jac) in chi.items():
                jac_det = abs(np.linalg.det(congruence_jacobian(jac)))
                for S in samples[:20]:
                    pulled = SymmetricForm(jac.T @ S.entries @ jac)
                    transformed = field_density_at(charts[point], pulled) * jac_det
                    direct = field_density_at(charts[image], S)
                    worst_diffeo = max(worst_diffeo, abs(transformed - direct) / abs(direct))
    return {
        "max_frame_residual": worst_frame,
        "max_composition_residual": worst_comp,
        "max_diffeo_residual": worst_diffeo,
        "tolerances": [1e-9, 1e-9, 1e-8],
    }


def _deformed_pointwise(grid, target, eps=0.1):
    """The q of every point after deform_metric_field, one path(u) per point."""
    witness = transitive_witness(grid.point(0).q, target, positive_det=True)
    path = gl_plus_path(witness.inverse_entries())
    out = []
    for pt in grid.points:
        s = lazy_smoothstep(pt.r_squared, eps)
        if pt.r_squared > 1.0 or s == 1.0:
            out.append(pt.q)
        else:
            M = path(1.0 - s)
            out.append(SymmetricForm(M.T @ pt.q.entries @ M))
    return out


def _connecting_pointwise(S, target, steps):
    path = gl_plus_path(transitive_witness(S, target, positive_det=True).entries)
    return [act(GroupElement(path(u)), S) for u in np.linspace(0.0, 1.0, steps)]


def _pointwise_11(rng):
    cases = [
        (SymmetricForm(np.eye(2)), SymmetricForm(np.diag([4.0, 1.0]))),
        (SymmetricForm(np.diag([1.0, -1.0])), SymmetricForm([[2.0, 1.0], [1.0, -1.0]])),
    ]
    worst_center = 0.0
    exterior_changed = 0
    for base, target in cases:
        grid = make_ball_grid(base, spacing=0.05)
        deformed = _deformed_pointwise(grid, target)
        worst_center = max(worst_center, float(np.max(np.abs(deformed[0].entries - target.entries))))
        for before, after in zip(grid.points, deformed):
            if before.r_squared >= 1.0 and after is not before.q:
                exterior_changed += 1
    path1 = _connecting_pointwise(*cases[0], steps=50)
    path2 = _connecting_pointwise(*cases[1], steps=100)
    assert all(signature_of(S, method="eigen") == Signature(2, 0) for S in path1)
    assert all(signature_of(S, method="eigen") == Signature(1, 1) for S in path2)
    return {
        "max_center_residual": worst_center,
        "exterior_points_changed": exterior_changed,
        "path_endpoint_residual": float(np.max(np.abs(path2[-1].entries - cases[1][1].entries))),
        "tolerances": {"center": 1e-9, "endpoint": 1e-8},
    }


@pytest.mark.parametrize("index,reference", [
    (2, _pointwise_2), (3, _pointwise_3), (4, _pointwise_4), (5, _pointwise_5),
    (8, _pointwise_8), (10, _pointwise_10), (11, _pointwise_11),
])
def test_stacked_criteria_report_the_pointwise_numbers(index, reference):
    for suite_seed in (SUITE_SEED, 123):
        seed = suite_seed + 1000 * index
        result = acceptance._CRITERIA[index - 1](seed)
        assert result.details == reference(np.random.default_rng(seed)), suite_seed


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

    G = group_entries([g.entries for g in groups])
    ginv = np.linalg.inv(G)
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

    basis = [np.outer(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(n)]
    same(adjoint_determinants(G, ginv, basis), [adjoint_determinant(g, basis) for g in groups])
    chart = PointChart(0, G[0])
    same(transported_density(chart, S), [field_density_at(chart, f) for f in forms])
    # flip the first row where needed: gl_plus_path requires det > 0
    positive = G[0] * np.where(np.arange(n) == 0, np.sign(np.linalg.det(G[0])), 1.0)[:, None]
    path = gl_plus_path(positive)
    us = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    same(path(np.array(us)), [path(u) for u in us])
