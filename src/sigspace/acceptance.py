"""The acceptance battery: one function per criterion, shared by tests and CLI.

Every criterion is a deterministic, seeded experiment with the tolerance
baked in; ``run_suite`` executes all of them and reports pass/fail plus
the measured residuals.  Random test points are drawn with a modest
condition-number bound so that the asserted tolerances are dominated by
the identities under test, not by round-off amplification.

Criteria 2-5, 8, 10 and 11 check identities on thousands of forms, group
elements or grid points.  They draw each batch as one (k, n, n) array
(``forms.random_forms`` for forms) and evaluate every quantity with one
stacked call of the kernel behind the matching object-level function,
with the same checks and exceptions.  The draws come from the same stream
in the same order as the one-at-a-time loops, and the reported numbers
are bit for bit those of those loops.  Criteria 1, 6 and 9 stay
pointwise; criterion 7 is Monte-Carlo over the batched sampler.
Criteria 3, 6, 9 and 11 take their identities from the library
(``geometry.metric_signature_law``, the ``projective`` residuals and
draws, ``field.deformation_residuals``), the same code the CLI calls.  A
result says apart whether the numbers passed (``numeric_passed``) and
whether the criterion ran within its time budget (``within_budget``).
Every worst residual is taken by ``_worst``, which keeps a NaN, so a NaN
residual fails its criterion instead of reading as 0.0.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg as sla

from .field import (
    DiffeoJacobianField,
    PointChart,
    deform_metric_field,
    deformation_residuals,
    diffeo_invariance_residual,
    frame_independence_residual,
    make_ball_grid,
    transported_density,
)
from .forms import (
    Signature,
    SymmetricForm,
    eigen_positive_counts,
    form_entries,
    inverse_entries,
    random_form,
    random_forms,
    signature_of,
)
from .geometry import (
    _metric_from_inverse,
    contraction,
    deformed_from,
    deformed_metric,
    metric_signature_law,
    one_form_from_inverse,
    pullback_residual,
)
from .group import (
    GroupElement,
    act_entries,
    adjoint_determinants,
    connecting_path,
    group_entries,
    isotropy_algebra_basis,
)
from .measure import (
    BoxDomain,
    density,
    density_from_metric,
    invariance_experiment,
    natural_density,
    printed_density_n2,
    pushforward_residual,
    radial_bump,
)
from .packing import congruence_jacobian
from .projective import (
    Label,
    TensorSpace,
    dyadic_state,
    embedding_residuals,
    extend_state,
    net_residual,
    pure_state_net,
    random_observable,
    random_state,
    random_state_field,
    rescale_isomorphism_check,
    restrict_state,
    tower_residual,
)

_TEST_COND = 30.0


@dataclass
class CriterionResult:
    """Outcome of one criterion: its numbers and its runtime, judged apart."""

    index: int
    name: str
    numeric_passed: bool
    runtime_s: float
    runtime_budget_s: float
    details: dict = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        return self.runtime_s < self.runtime_budget_s

    @property
    def passed(self) -> bool:
        return self.numeric_passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        causes = []
        if not self.numeric_passed:
            causes.append("numbers out of tolerance")
        if not self.within_budget:
            causes.append(f"over its {self.runtime_budget_s:g}s budget")
        why = "".join(f"; {cause}" for cause in causes)
        return f"[{status}] criterion {self.index}: {self.name} ({self.runtime_s:.2f}s{why})"


def _random_group_entries(rng, n, max_condition=_TEST_COND) -> np.ndarray:
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 1e-3 and np.linalg.cond(g) < max_condition:
            return g


def _random_group(rng, n, max_condition=_TEST_COND) -> GroupElement:
    return GroupElement(_random_group_entries(rng, n, max_condition))


def _well_conditioned_form(rng, sig) -> SymmetricForm:
    return random_form(sig, rng, max_condition=_TEST_COND)


def _all_signatures(n):
    return [Signature(p, n - p) for p in range(n, -1, -1)]


def _worst(worst: float, residuals) -> float:
    """The largest of worst and the residuals; NaN when one is NaN, so a NaN residual fails."""
    return float(np.max(residuals, initial=worst))


def _timed(index, name, budget_s, fn, seed):
    start = time.perf_counter()
    passed, details = fn(np.random.default_rng(seed))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        index=index,
        name=name,
        numeric_passed=bool(passed),
        runtime_s=elapsed,
        runtime_budget_s=budget_s,
        details=details,
    )


def criterion_1_density_n1(seed=0) -> CriterionResult:
    """density(gamma_11) = 1/|gamma_11| on 100 values, relative error < 1e-12."""

    def run(rng):
        gammas = np.concatenate((np.linspace(-10.0, -0.1, 50), np.linspace(0.1, 10.0, 50)))
        worst = 0.0
        for gamma in gammas:
            got = density(SymmetricForm([[gamma]])).value
            worst = _worst(worst, abs(got - 1.0 / abs(gamma)) * abs(gamma))
        return worst < 1e-12, {"max_relative_error": worst, "tolerance": 1e-12}

    return _timed(1, "closed-form density, n = 1", 1.0, run, seed)


def criterion_2_density_n2(seed=1) -> CriterionResult:
    """sqrt|det Q| matches the printed n = 2 formula, 1000 forms per signature."""

    def run(rng):
        # the printed formula is (det gamma^-1)^3 written out term by term,
        # so its cancellation error grows like cond(S)^3; keep cond modest
        worst = 0.0
        for sig in [(2, 0), (1, 1), (0, 2)]:
            S = form_entries(random_forms(Signature(*sig), rng, 1000, max_condition=8.0))
            inv = inverse_entries(S)
            direct = density_from_metric(_metric_from_inverse(inv))
            printed = printed_density_n2(inv)
            worst = _worst(worst, np.abs(direct - printed) / direct)
        return worst < 1e-10, {"max_relative_error": worst, "tolerance": 1e-10}

    return _timed(2, "closed-form density, n = 2", 2.0, run, seed)


def criterion_3_q_signature(seed=2) -> CriterionResult:
    """Signature of Q_IJ equals ((p(p+1)+p'(p'+1))/2, p p') for all n <= 5."""

    def run(rng):
        failures = 0
        for n in range(1, 6):
            for sig in _all_signatures(n):
                expected = metric_signature_law(sig)
                S = form_entries(random_forms(sig, rng, 100, max_condition=_TEST_COND))
                Q = _metric_from_inverse(inverse_entries(S))
                # Q's signature has p + p' = N, so comparing p compares both
                failures += int(np.sum(eigen_positive_counts(form_entries(Q)) != expected.p))
        return failures == 0, {"mismatches": failures}

    return _timed(3, "Q-signature law, n <= 5", 10.0, run, seed)


def criterion_4_invariance(seed=3) -> CriterionResult:
    """Metric pullback and measure pushforward residuals < 1e-8 relative.

    Also sqrt|det Q| against the closed-form density, < 1e-10 relative, on
    the same forms, which cover every signature for n = 1..4.
    """

    def run(rng):
        worst_metric = 0.0
        worst_measure = 0.0
        worst_closed_form = 0.0
        for n in range(1, 5):
            forms, groups = [], []
            for _ in range(250):
                p = int(rng.integers(0, n + 1))
                forms.append(random_forms(Signature(p, n - p), rng, 1, max_condition=10.0)[0])
                groups.append(_random_group_entries(rng, n, max_condition=10.0))
            S = form_entries(forms)
            ginv = np.linalg.inv(group_entries(groups))
            L = congruence_jacobian(ginv)
            Q = _metric_from_inverse(inverse_entries(S))
            Q_moved = _metric_from_inverse(inverse_entries(act_entries(ginv, S)))
            here = density_from_metric(Q)
            q_scale = np.max(np.abs(Q), axis=(-2, -1))
            worst_metric = _worst(worst_metric, pullback_residual(L, Q_moved, Q) / q_scale)
            worst_measure = _worst(worst_measure, pushforward_residual(L, density_from_metric(Q_moved), here) / here)
            # the paper's sqrt|det Q| against the closed form every other route takes
            closed = natural_density(S)
            worst_closed_form = _worst(worst_closed_form, np.abs(here - closed) / closed)
        passed = worst_metric < 1e-8 and worst_measure < 1e-8 and worst_closed_form < 1e-10
        return passed, {
            "max_metric_residual": worst_metric,
            "max_measure_residual": worst_measure,
            "tolerance": 1e-8,
            "max_closed_form_error": worst_closed_form,
            "closed_form_tolerance": 1e-10,
        }

    return _timed(4, "metric/measure invariance, n <= 4", 10.0, run, seed)


def criterion_5_alpha_contraction(seed=4) -> CriterionResult:
    """alpha^T Q^-1 alpha = n and det Q^a vanishes at a0 = -1/n."""

    def run(rng):
        worst_qinv = 0.0
        worst_det = 0.0
        for n in range(1, 5):
            a0 = -1.0 / n
            forms = []
            for _ in range(500):
                p = int(rng.integers(0, n + 1))
                forms.append(random_forms(Signature(p, n - p), rng, 1, max_condition=_TEST_COND)[0])
            inv = inverse_entries(form_entries(forms))
            Q = _metric_from_inverse(inv)
            alpha = one_form_from_inverse(inv)
            worst_qinv = _worst(worst_qinv, np.abs(contraction(Q, alpha) - n) / n)
            det_q = np.abs(np.linalg.det(Q))
            det_a0 = np.abs(np.linalg.det(deformed_from(Q, alpha, a0)))
            worst_det = _worst(worst_det, det_a0 / det_q)
        passed = worst_qinv < 1e-8 and worst_det < 1e-10
        return passed, {
            "max_qinv_error": worst_qinv,
            "max_degenerate_det_ratio": worst_det,
            "tolerances": [1e-8, 1e-10],
        }

    return _timed(5, "alpha contraction and degenerate Q^a0", 5.0, run, seed)


def criterion_6_signature_jump(seed=5) -> CriterionResult:
    """Signature of Q^a jumps by (-1, +1) below a0 and matches Q above a0."""

    def run(rng):
        failures = 0
        for n in (2, 3):
            a0 = -1.0 / n
            for sig in _all_signatures(n):
                above_a0 = metric_signature_law(sig)
                below_a0 = Signature(above_a0.p - 1, above_a0.p_prime + 1)
                for _ in range(25):
                    S = _well_conditioned_form(rng, sig)
                    below = signature_of(
                        SymmetricForm(deformed_metric(S, 2.0 * a0).components),
                        method="eigen",
                    )
                    above = signature_of(
                        SymmetricForm(deformed_metric(S, 0.5 * a0).components),
                        method="eigen",
                    )
                    failures += (below != below_a0) + (above != above_a0)
        return failures == 0, {"mismatches": failures}

    return _timed(6, "deformed metric signature jump", 5.0, run, seed)


def criterion_7_mc_invariance(seed=6) -> CriterionResult:
    """MC invariance at 1e6 samples, n = 1 and n = 2; n = 1 matches quadrature."""

    def run(rng):
        details = {}
        n_samples = 1_000_000

        bump1 = radial_bump([1.5], 0.45)
        box1 = BoxDomain(Signature(1, 0), [1.0], [2.0])
        report1 = invariance_experiment(
            bump1, GroupElement([[2.0]]), box1, int(rng.integers(2**31)), n_samples,
            vectorized=True,
        )
        analytic, quad_err = scipy.integrate.quad(
            lambda g: bump1(np.array([[g]]))[0] / g, 1.05, 1.95, epsabs=1e-13
        )
        analytic_sigmas = abs(report1.lhs.value - analytic) / report1.lhs.std_error
        details["n1"] = {
            "estimate": report1.lhs.value,
            "moved_estimate": report1.rhs.value,
            "difference_sigmas": report1.difference_sigmas,
            "analytic": analytic,
            "analytic_sigmas": analytic_sigmas,
        }

        bump2 = radial_bump([1.0, 0.0, 1.0], 0.3)
        box2 = BoxDomain(
            Signature(2, 0), [0.6, -0.35, 0.6], [1.4, 0.35, 1.4]
        )
        report2 = invariance_experiment(
            bump2, GroupElement(np.diag([2.0, 1.0])), box2,
            int(rng.integers(2**31)), n_samples, vectorized=True,
        )
        details["n2"] = {
            "estimate": report2.lhs.value,
            "moved_estimate": report2.rhs.value,
            "difference_sigmas": report2.difference_sigmas,
        }
        passed = (
            abs(report1.difference_sigmas) < 3.0
            and abs(report2.difference_sigmas) < 3.0
            and analytic_sigmas < 3.0
        )
        details["tolerance_sigmas"] = 3.0
        return passed, details

    return _timed(7, "Monte-Carlo invariance, 1e6 samples", 60.0, run, seed)


def criterion_8_unimodularity(seed=7) -> CriterionResult:
    """|det Ad| = 1 +- 1e-8 on GL(n), n <= 3, and on O(1,1), O(2), O(2,1)."""

    def run(rng):
        worst = 0.0
        for n in range(1, 4):
            basis = [np.eye(n)[:, [i]] @ np.eye(n)[[j], :] for i in range(n) for j in range(n)]
            g = group_entries([_random_group_entries(rng, n) for _ in range(200)])
            dets = adjoint_determinants(g, np.linalg.inv(g), basis)
            worst = _worst(worst, np.abs(np.abs(dets) - 1.0))
        for eta_diag in ([1.0, -1.0], [1.0, 1.0], [1.0, 1.0, -1.0]):
            basis = isotropy_algebra_basis(np.diag(eta_diag))
            coeffs = rng.uniform(-1.0, 1.0, size=(200, len(basis)))
            h = group_entries(sla.expm(sum(c[:, None, None] * X for c, X in zip(coeffs.T, basis))))
            dets = adjoint_determinants(h, np.linalg.inv(h), basis)
            worst = _worst(worst, np.abs(np.abs(dets) - 1.0))
        return worst < 1e-8, {"max_deviation": worst, "tolerance": 1e-8}

    return _timed(8, "unimodularity spot-checks", 5.0, run, seed)


def criterion_9_projective(seed=8) -> CriterionResult:
    """Embedding/restriction identities on random 3-point systems, dims <= 3."""

    def run(rng):
        tol = 1e-12
        worst = {}
        lam = Label({1, 2})
        lam_prime = Label({1, 2, 3})
        labels = [Label(s) for s in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
        for _ in range(10):
            dims = {k: int(rng.integers(2, 4)) for k in (1, 2, 3)}
            space = TensorSpace(lam, dims)
            a = random_observable(space, rng)
            b = random_observable(space, rng)
            measured = embedding_residuals(a, b, random_state(TensorSpace(lam_prime, dims), rng), dims)
            # dyadic entries make every partial-trace sum exact: the tower must read 0.0
            rho_d = dyadic_state(TensorSpace(lam_prime, dims), rng)
            measured["tower"] = tower_residual(rho_d, (Label({1}), lam))
            target = random_state(space, rng)
            back = restrict_state(extend_state(target, lam_prime, dims), lam)
            measured["surjective"] = float(np.max(np.abs(back.matrix - target.matrix)))
            measured["net"] = net_residual(pure_state_net(random_state_field(dims, rng), labels))
            measured["rescale"] = _worst(
                0.0, [rescale_isomorphism_check(c, a, lam, lam_prime, dims) for c in (0.5, 2.0, 4.0)]
            )
            for key, value in measured.items():
                worst[key] = _worst(worst.get(key, 0.0), value)
        passed = worst["tower"] == 0.0 and all(
            v <= tol for k, v in worst.items() if k != "tower"
        )
        return passed, {"max_residuals": worst, "tolerance": tol}

    return _timed(9, "projective suite (iota/pi identities)", 5.0, run, seed)


def criterion_10_measure_field(seed=9) -> CriterionResult:
    """Frame independence, transport composition, and diffeo invariance."""

    def run(rng):
        # two stacked congruences feed the 1e-8 diffeo contract, so the
        # determinant sensitivity calls for very well conditioned data
        cond = 5.0
        worst_frame = 0.0
        worst_comp = 0.0
        worst_diffeo = 0.0
        for n in range(1, 4):
            for sig in {Signature(n, 0), Signature(1, n - 1)}:
                samples = [SymmetricForm(S) for S in random_forms(sig, rng, 50, max_condition=cond)]

                l = PointChart("x", _random_group(rng, n, cond).entries)
                l_prime = PointChart("x", _random_group(rng, n, cond).entries)
                worst_frame = _worst(worst_frame, frame_independence_residual(l, l_prime, samples))

                l1 = PointChart(1, _random_group(rng, n, cond).entries)
                step = _random_group(rng, n, cond).entries
                l2 = PointChart(2, l1.frame @ step)
                first = np.array([S.entries for S in samples[:20]])
                direct = transported_density(l2, first)
                by_l1 = lambda P: transported_density(l1, P)
                two_step = transported_density(PointChart(2, step), first, base=by_l1)
                worst_comp = _worst(worst_comp, np.abs(direct - two_step) / direct)

                charts = {
                    k: PointChart(k, _random_group(rng, n, cond).entries) for k in range(5)
                }
                perm = rng.permutation(5)
                chi = DiffeoJacobianField(
                    {k: (int(perm[k]), _random_group(rng, n, cond).entries) for k in range(5)}
                )
                worst_diffeo = _worst(worst_diffeo, diffeo_invariance_residual(charts, chi, samples[:20]))
        passed = worst_frame < 1e-9 and worst_comp < 1e-9 and worst_diffeo < 1e-8
        return passed, {
            "max_frame_residual": worst_frame,
            "max_composition_residual": worst_comp,
            "max_diffeo_residual": worst_diffeo,
            "tolerances": [1e-9, 1e-9, 1e-8],
        }

    return _timed(10, "measure-field suite, n <= 3", 5.0, run, seed)


def criterion_11_deformation(seed=10) -> CriterionResult:
    """Appendix-style deformation on a dim-2 grid plus path connectivity."""

    def run(rng):
        details = {}
        cases = [
            (SymmetricForm(np.eye(2)), SymmetricForm(np.diag([4.0, 1.0]))),
            (SymmetricForm(np.diag([1.0, -1.0])), SymmetricForm([[2.0, 1.0], [1.0, -1.0]])),
        ]
        worst_center = 0.0
        exterior_changed = 0
        for base, target in cases:
            grid = make_ball_grid(base, spacing=0.05)
            # grid construction revalidates every point's signature
            deformed = deform_metric_field(grid, 0, target)
            center, changed = deformation_residuals(grid, deformed, 0, target)
            worst_center = _worst(worst_center, center)
            exterior_changed += changed
        details["max_center_residual"] = worst_center
        details["exterior_points_changed"] = exterior_changed

        # n = 2 throughout, so the count of positive directions decides the signature
        path1 = connecting_path(cases[0][0], cases[0][1], steps=50)
        path_ok = bool(np.all(eigen_positive_counts(np.array([S.entries for S in path1])) == 2))
        path2 = connecting_path(cases[1][0], cases[1][1], steps=100)
        path_ok &= bool(np.all(eigen_positive_counts(np.array([S.entries for S in path2])) == 1))
        endpoint = float(np.max(np.abs(path2[-1].entries - cases[1][1].entries)))
        details["path_endpoint_residual"] = endpoint
        passed = (
            worst_center < 1e-9
            and exterior_changed == 0
            and path_ok
            and endpoint < 1e-8
        )
        details["tolerances"] = {"center": 1e-9, "endpoint": 1e-8}
        return passed, details

    return _timed(11, "grid deformation and connectivity", 10.0, run, seed)


_CRITERIA = [
    criterion_1_density_n1,
    criterion_2_density_n2,
    criterion_3_q_signature,
    criterion_4_invariance,
    criterion_5_alpha_contraction,
    criterion_6_signature_jump,
    criterion_7_mc_invariance,
    criterion_8_unimodularity,
    criterion_9_projective,
    criterion_10_measure_field,
    criterion_11_deformation,
]


def run_suite(seed: int = 7) -> list[CriterionResult]:
    """Run every acceptance criterion with per-criterion derived seeds."""
    return [fn(seed + 1000 * k) for k, fn in enumerate(_CRITERIA, start=1)]
