import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    GroupElement,
    Signature,
    SymmetricForm,
    act,
    deformed_metric,
    metric_components,
    metric_signature,
    one_form_components,
    pullback_invariance_residual,
    qinv_alpha_alpha,
    random_form,
    signature_of,
)
from sigspace.packing import congruence_jacobian, pack, packed_dim, packed_pairs, symmetric_basis, unpack
from strategies import conditioned_forms, conditioned_groups


def _random_group(rng, n, max_cond=50.0):
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 1e-3 and np.linalg.cond(g) < max_cond:
            return GroupElement(g)


def _congruence_jacobian_loop(M):
    """Entry by entry: L[(m, q), (i, j)] = (M^T E_ij M)_mq."""
    pairs = packed_pairs(M.shape[0])
    L = np.empty((len(pairs), len(pairs)))
    for r, (m, q) in enumerate(pairs):
        for c, (i, j) in enumerate(pairs):
            if i == j:
                L[r, c] = M[i, m] * M[i, q]
            else:
                L[r, c] = M[i, m] * M[j, q] + M[j, m] * M[i, q]
    return L


@st.composite
def packed_batches(draw):
    """(n, coords): a batch of packed rows with any finite entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=4))
    flat = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=rows * packed_dim(n),
                         max_size=rows * packed_dim(n)))
    return n, np.array(flat).reshape(rows, packed_dim(n))


class TestPacking:
    def test_pair_order_is_lexicographic(self):
        assert packed_pairs(3) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            A = rng.standard_normal((n, n))
            A = A + A.T
            np.testing.assert_array_equal(unpack(pack(A), n), A)

    def test_congruence_jacobian_matches_congruence(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            M = rng.standard_normal((n, n))
            A = rng.standard_normal((n, n))
            A = A + A.T
            lhs = pack(M.T @ A @ M)
            rhs = congruence_jacobian(M) @ pack(A)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    @settings(max_examples=100, deadline=None)
    @given(case=packed_batches())
    def test_pack_unpack_round_trip_property(self, case):
        n, coords = case
        mats = unpack(coords, n)
        np.testing.assert_array_equal(mats, np.swapaxes(mats, -1, -2))
        np.testing.assert_array_equal(pack(mats), coords)
        np.testing.assert_array_equal(unpack(pack(mats), n), mats)

    def test_symmetric_basis_is_shared_and_read_only(self):
        assert symmetric_basis(3) is symmetric_basis(3)
        with pytest.raises(ValueError):
            symmetric_basis(3)[0, 0, 0] = 2.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_congruence_jacobian_matches_loop(self, n):
        # each entry is one product or the sum of two, so the vectorised
        # form may differ from the loop only by the rounding of that sum
        # (or a fused multiply-add): 4 ulp of |M|^T |E| |M| bounds it
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            magnitude = _congruence_jacobian_loop(np.abs(M))
            diff = np.abs(congruence_jacobian(M) - _congruence_jacobian_loop(M))
            assert np.all(diff <= 4.0 * np.spacing(magnitude))


class TestMetricComponents:
    def test_scalar_base_point(self):
        Q = metric_components(SymmetricForm([[2.0]]))
        np.testing.assert_allclose(Q.components, [[0.25]])

    def test_identity_base_point(self):
        Q = metric_components(SymmetricForm(np.eye(2)))
        np.testing.assert_allclose(Q.components, np.diag([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("eta_diag", [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    def test_diagonal_at_orthonormal_points(self, eta_diag):
        # at an eta base point Q is diagonal: (g^ii)^2 = 1 on diagonal
        # coordinates and 2 g^ii g^jj on off-diagonal ones
        n = len(eta_diag)
        Q = metric_components(SymmetricForm(np.diag(eta_diag))).components
        expected = np.diag(
            [
                1.0 if i == j else 2.0 * eta_diag[i] * eta_diag[j]
                for (i, j) in packed_pairs(n)
            ]
        )
        np.testing.assert_allclose(Q, expected, atol=1e-15)


class TestStoredMetric:
    def test_components_are_read_only(self):
        S = random_form(Signature(1, 1), rng_seed=2)
        with pytest.raises(ValueError):
            metric_components(S).components[0, 0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=4.0))
    def test_repeated_calls_match_a_fresh_form(self, case):
        S = SymmetricForm(case[0])
        for _ in range(3):
            fresh = SymmetricForm(case[0])
            assert np.array_equal(metric_components(S).components, metric_components(fresh).components)
            assert np.array_equal(one_form_components(S).components, one_form_components(fresh).components)

    def test_concurrent_first_use(self):
        # four threads ask one fresh form for Q at once, switching often;
        # whichever stores it, all of them see the value one thread computes
        rng = np.random.default_rng(21)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for n in (2, 4, 6):
                    for _ in range(10):
                        entries = random_form(Signature(n // 2, n - n // 2), rng).entries
                        shared = SymmetricForm(entries)
                        barrier = threading.Barrier(4, timeout=10.0)

                        def first_use():
                            barrier.wait()
                            return metric_components(shared).components

                        futures = [pool.submit(first_use) for _ in range(4)]
                        results = [f.result(timeout=10.0) for f in futures]
                        expected = metric_components(SymmetricForm(entries)).components
                        for Q in results:
                            assert np.array_equal(Q, expected)
        finally:
            sys.setswitchinterval(interval)


class TestMetricSignature:
    @pytest.mark.parametrize(
        "sig,expected",
        [
            (Signature(2, 0), Signature(3, 0)),
            (Signature(1, 1), Signature(2, 1)),
            (Signature(1, 3), Signature(7, 3)),
        ],
    )
    def test_printed_cases(self, sig, expected, rng_seed=2):
        rng = np.random.default_rng(rng_seed)
        for _ in range(10):
            S = random_form(sig, rng, max_condition=50)
            assert metric_signature(S) == expected

    def test_law_all_signatures(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                expected = Signature(
                    (sig.p * (sig.p + 1) + sig.p_prime * (sig.p_prime + 1)) // 2,
                    sig.p * sig.p_prime,
                )
                S = random_form(sig, rng, max_condition=50)
                assert metric_signature(S) == expected


class TestOneForm:
    def test_identity_base_point(self):
        alpha = one_form_components(SymmetricForm(np.eye(2)))
        np.testing.assert_array_equal(alpha.components, [1.0, 0.0, 1.0])

    def test_scalar(self):
        alpha = one_form_components(SymmetricForm([[2.0]]))
        np.testing.assert_allclose(alpha.components, [0.5])

    def test_sign_flip_on_diagonal_coordinates(self):
        rng = np.random.default_rng(4)
        S = random_form(Signature(2, 1), rng)
        plus = one_form_components(S).components
        minus = one_form_components(SymmetricForm(-S.entries)).components
        for k, (i, j) in enumerate(packed_pairs(3)):
            if i == j:
                assert np.isclose(minus[k], -plus[k])


class TestDeformedMetric:
    def test_zero_deformation(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(
            deformed_metric(S, 0.0).components, metric_components(S).components
        )

    def test_degenerate_at_a0_n2(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            S = random_form(Signature(2, 0), rng, max_condition=30)
            det0 = abs(np.linalg.det(metric_components(S).components))
            det_a0 = np.linalg.det(deformed_metric(S, -0.5).components)
            assert abs(det_a0) < 1e-10 * det0

    def test_determinant_lemma_oracle(self):
        # det(Q + a alpha alpha^T) = det Q (1 + a alpha^T Q^-1 alpha)
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=30)
            Q = metric_components(S).components
            for a in (-2.0, -0.4, 0.7):
                lhs = np.linalg.det(deformed_metric(S, a).components)
                rhs = np.linalg.det(Q) * (1.0 + a * qinv_alpha_alpha(S))
                assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_signature_below_a0(self):
        rng = np.random.default_rng(7)
        S = random_form(Signature(2, 0), rng, max_condition=30)
        sig = signature_of(SymmetricForm(deformed_metric(S, -1.0).components))
        assert sig == Signature(2, 1)


class TestQinvAlphaAlpha:
    def test_scalar_value(self):
        assert np.isclose(qinv_alpha_alpha(SymmetricForm([[5.0]])), 1.0)

    def test_n2_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            S = random_form(Signature(1, 1), rng, max_condition=30)
            assert abs(qinv_alpha_alpha(S) - 2.0) < 1e-9

    def test_n4_lorentzian(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            S = random_form(Signature(1, 3), rng, max_condition=30)
            assert abs(qinv_alpha_alpha(S) - 4.0) < 1e-8


class TestPullbackInvariance:
    def test_identity_is_exact(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 3.0]])
        assert pullback_invariance_residual(GroupElement.identity(2), S) == 0.0

    def test_diagonal_case(self):
        residual = pullback_invariance_residual(
            GroupElement(np.diag([2.0, 1.0])), SymmetricForm(np.eye(2))
        )
        assert residual < 1e-10

    def test_random_runs_n3(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = int(rng.integers(0, 4))
            S = random_form(Signature(p, 3 - p), rng, max_condition=30)
            g = _random_group(rng, 3, max_cond=30)
            scale = np.max(np.abs(metric_components(S).components))
            assert pullback_invariance_residual(g, S) < 1e-8 * scale

    def test_basis_independence(self):
        # computing Q in a transformed coordinate frame and pulling back
        # with the induced packed Jacobian reproduces Q
        rng = np.random.default_rng(11)
        for n in (2, 3):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=30)
            P = _random_group(rng, n, max_cond=30).entries
            J = congruence_jacobian(P)
            Q_checked = metric_components(SymmetricForm(P.T @ S.entries @ P)).components
            Q_here = metric_components(S).components
            residual = np.max(np.abs(J.T @ Q_checked @ J - Q_here))
            assert residual < 1e-8 * np.max(np.abs(Q_here))

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=4.0, max_scale_exp=2), data=st.data())
    def test_invariance_property(self, case, data):
        # the residual calls action_jacobian and then act on one g, so the
        # second call uses the g^-1 that the first one stored
        S = SymmetricForm(case[0])
        g = data.draw(conditioned_groups(S.n, max_log_cond=1.5))
        scale = np.max(np.abs(metric_components(S).components))
        assert pullback_invariance_residual(g, S) < 1e-8 * scale

    def test_deformed_metric_also_invariant(self):
        # pullback residual of Q^a vanishes for every a
        rng = np.random.default_rng(12)
        for a in (-1.0, -0.25, 0.6):
            S = random_form(Signature(1, 1), rng, max_condition=30)
            g = _random_group(rng, 2, max_cond=30)
            L = congruence_jacobian(np.linalg.inv(g.entries))
            moved = deformed_metric(act(g, S), a).components
            here = deformed_metric(S, a).components
            assert np.max(np.abs(L.T @ moved @ L - here)) < 1e-8 * np.max(np.abs(here))
