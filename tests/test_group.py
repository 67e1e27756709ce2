import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    DegenerateForm,
    GroupElement,
    NotInvariantSubspace,
    Signature,
    SignatureMismatch,
    SingularGroupElement,
    SymmetricForm,
    act,
    action_jacobian,
    adjoint_determinant,
    connecting_path,
    isotropy_algebra_basis,
    lazy_smoothstep,
    orthonormal_basis,
    random_form,
    signature_of,
    transitive_witness,
)
from sigspace.packing import pack
from strategies import conditioned_forms, conditioned_groups, near_degenerate_form


def _random_group(rng, n, max_cond=50.0):
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 1e-3 and np.linalg.cond(g) < max_cond:
            return GroupElement(g)


class TestAct:
    def test_identity_action(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(act(GroupElement.identity(2), S).entries, S.entries)

    def test_diagonal_congruence_by_hand(self):
        moved = act(GroupElement(np.diag([2.0, 1.0])), SymmetricForm(np.eye(2)))
        np.testing.assert_allclose(moved.entries, np.diag([0.25, 1.0]))

    def test_group_law(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng)
            g = _random_group(rng, n)
            h = _random_group(rng, n)
            lhs = act(h, act(g, S)).entries
            rhs = act(h.compose(g), S).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_signature_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng)
            g = _random_group(rng, n)
            assert signature_of(act(g, S)) == Signature(p, n - p)

    def test_singular_rejected(self):
        with pytest.raises(SingularGroupElement):
            GroupElement([[1.0, 1.0], [1.0, 1.0]])

    def test_singularity_is_relative_to_scale(self):
        # |det(1e-5 I_3)| = 1e-15, yet it is a rescaled identity; diag(1, 2.5e-10)
        # has |det| = 2.5e-10 but condition number 4e9
        assert GroupElement(1e-5 * np.eye(3)).n == 3
        with pytest.raises(SingularGroupElement):
            GroupElement(np.diag([1.0, 2.5e-10]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            act(GroupElement.identity(2), SymmetricForm(np.eye(3)))


class TestActionJacobian:
    def test_one_dimensional(self):
        L = action_jacobian(GroupElement([[2.0]]))
        np.testing.assert_allclose(L, [[0.25]])
        assert np.isclose(np.linalg.det(L), 2.0 ** (-2))

    def test_identity(self):
        np.testing.assert_array_equal(action_jacobian(GroupElement.identity(3)), np.eye(6))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        g = _random_group(rng, 3)
        L = action_jacobian(g)
        for _ in range(20):
            S = random_form(Signature(2, 1), rng)
            direct = pack(act(g, S).entries)
            assert np.max(np.abs(direct - L @ pack(S.entries))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant_law(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            g = _random_group(rng, n)
            expected = np.linalg.det(g.entries) ** (-(n + 1))
            got = np.linalg.det(action_jacobian(g))
            assert abs(got - expected) < 1e-8 * abs(expected)


class TestStoredInverse:
    def test_stored_arrays_are_read_only(self):
        g = _random_group(np.random.default_rng(5), 3)
        with pytest.raises(ValueError):
            action_jacobian(g)[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.inverse_entries()[0, 0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=2.0, max_scale_exp=2), data=st.data())
    def test_repeated_calls_match_a_fresh_element(self, case, data):
        S = SymmetricForm(case[0])
        g = data.draw(conditioned_groups(S.n, max_log_cond=1.0))
        for _ in range(3):
            fresh = GroupElement(g.entries)
            assert np.array_equal(action_jacobian(g), action_jacobian(fresh))
            assert np.array_equal(act(g, S).entries, act(fresh, S).entries)
            assert np.array_equal(g.inverse().entries, np.linalg.inv(g.entries))


class TestOrthonormalBasis:
    def test_diagonal_scaling(self):
        frame = orthonormal_basis(SymmetricForm(np.diag([4.0, -9.0])))
        np.testing.assert_allclose(np.abs(frame.B), np.diag([0.5, 1.0 / 3.0]), atol=1e-15)
        np.testing.assert_array_equal(frame.eta, np.diag([1.0, -1.0]))

    def test_identity_form(self):
        frame = orthonormal_basis(SymmetricForm(np.eye(3)))
        np.testing.assert_allclose(np.abs(frame.B), np.eye(3), atol=1e-12)

    def test_degeneracy_is_the_shared_check(self):
        S = near_degenerate_form()
        assert np.array_equal(np.diag(orthonormal_basis(S).eta), [1.0, 1.0, -1.0])
        with pytest.raises(DegenerateForm):
            orthonormal_basis(SymmetricForm([[1.0, 1.0], [1.0, 1.0]]))

    def test_indefinite_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            S = random_form(Signature(2, 1), rng)
            frame = orthonormal_basis(S)
            residual = np.max(np.abs(frame.B.T @ S.entries @ frame.B - frame.eta))
            assert residual < 1e-9
            assert np.array_equal(np.diag(frame.eta), [1.0, 1.0, -1.0])


class TestTransitiveWitness:
    def test_hand_congruence_example(self):
        # the spec's hand witness diag(1/2, 1) works...
        S, target = SymmetricForm(np.eye(2)), SymmetricForm(np.diag([4.0, 1.0]))
        g_hand = GroupElement(np.diag([0.5, 1.0]))
        np.testing.assert_allclose(act(g_hand, S).entries, target.entries)
        # ...and the frame-based witness satisfies the same contract
        g = transitive_witness(S, target)
        assert np.max(np.abs(act(g, S).entries - target.entries)) < 1e-9

    def test_same_form(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, -1.0]])
        g = transitive_witness(S, S)
        assert np.max(np.abs(act(g, S).entries - S.entries)) < 1e-12

    def test_scalar_case(self):
        g = transitive_witness(SymmetricForm([[2.0]]), SymmetricForm([[8.0]]))
        np.testing.assert_allclose(g.entries, [[0.5]])

    def test_positive_det_flag(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng)
            target = random_form(Signature(p, n - p), rng)
            g = transitive_witness(S, target, positive_det=True)
            assert np.linalg.det(g.entries) > 0
            residual = np.max(np.abs(act(g, S).entries - target.entries))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(target.entries)))

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            transitive_witness(SymmetricForm(np.eye(2)), SymmetricForm(np.diag([1.0, -1.0])))


class TestConnectingPath:
    def test_constant_path(self):
        S = SymmetricForm([[3.0, 0.5], [0.5, 2.0]])
        path = connecting_path(S, S, steps=5)
        for sample in path:
            assert np.max(np.abs(sample.entries - S.entries)) < 1e-12

    def test_definite_path_signatures(self):
        path = connecting_path(SymmetricForm(np.eye(2)), SymmetricForm(np.diag([4.0, 1.0])), 50)
        assert len(path) == 50
        assert all(signature_of(S) == Signature(2, 0) for S in path)

    def test_indefinite_path_endpoint(self):
        S = SymmetricForm(np.diag([1.0, -1.0]))
        target = SymmetricForm([[2.0, 1.0], [1.0, -1.0]])
        path = connecting_path(S, target, steps=100)
        assert all(signature_of(sample) == Signature(1, 1) for sample in path)
        assert np.max(np.abs(path[0].entries - S.entries)) < 1e-12
        assert np.max(np.abs(path[-1].entries - target.entries)) < 1e-8

    def test_steps_validation(self):
        S = SymmetricForm(np.eye(2))
        with pytest.raises(ValueError):
            connecting_path(S, S, steps=1)


class TestLazySmoothstep:
    def test_flat_ends(self):
        assert lazy_smoothstep(0.0) == 0.0
        assert lazy_smoothstep(0.05) == 0.0
        assert lazy_smoothstep(0.95) == 1.0
        assert lazy_smoothstep(1.0) == 1.0

    def test_monotone(self):
        ts = np.linspace(0, 1, 200)
        vals = [lazy_smoothstep(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            lazy_smoothstep(0.5, eps=0.5)


class TestAdjointDeterminant:
    def test_gl2_unimodular(self):
        rng = np.random.default_rng(8)
        basis = [np.outer(np.eye(2)[:, i], np.eye(2)[j, :]) for i in range(2) for j in range(2)]
        for _ in range(25):
            g = _random_group(rng, 2)
            assert abs(abs(adjoint_determinant(g, basis)) - 1.0) < 1e-10

    def test_so11_boost_is_identity_on_algebra(self):
        psi = 0.8
        boost = GroupElement([[np.cosh(psi), np.sinh(psi)], [np.sinh(psi), np.cosh(psi)]])
        basis = [np.array([[0.0, 1.0], [1.0, 0.0]])]
        assert abs(adjoint_determinant(boost, basis) - 1.0) < 1e-12

    def test_o11_reflection_flips_algebra(self):
        h = GroupElement(np.diag([1.0, -1.0]))
        basis = [np.array([[0.0, 1.0], [1.0, 0.0]])]
        det = adjoint_determinant(h, basis)
        assert abs(det + 1.0) < 1e-12
        assert abs(abs(det) - 1.0) < 1e-12

    def test_not_invariant_subspace(self):
        g = GroupElement([[1.0, 1.0], [0.0, 1.0]])
        basis = [np.array([[0.0, 1.0], [-1.0, 0.0]])]  # so(2) not preserved by shear
        with pytest.raises(NotInvariantSubspace):
            adjoint_determinant(g, basis)


class TestIsotropyAlgebra:
    def test_so2(self):
        (X,) = isotropy_algebra_basis(np.diag([1.0, 1.0]))
        np.testing.assert_array_equal(X, [[0.0, 1.0], [-1.0, 0.0]])

    def test_o11(self):
        (X,) = isotropy_algebra_basis(np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(X, [[0.0, 1.0], [1.0, 0.0]])

    def test_dimension_count(self):
        assert len(isotropy_algebra_basis(np.diag([1.0, 1.0, -1.0]))) == 3
        assert len(isotropy_algebra_basis(np.diag([1.0, 1.0, 1.0, -1.0]))) == 6

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError):
            isotropy_algebra_basis(np.array([[1.0, 0.5], [0.5, -1.0]]))

    @pytest.mark.parametrize("eta_diag", [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0, -1.0]])
    def test_exponentials_fix_eta(self, eta_diag):
        eta_form = SymmetricForm(np.diag(eta_diag))
        basis = isotropy_algebra_basis(np.diag(eta_diag))
        for X in basis:
            for t in (-1.0, -0.3, 0.3, 1.0):
                h = GroupElement(sla.expm(t * X))
                assert np.max(np.abs(act(h, eta_form).entries - eta_form.entries)) < 1e-9

    @pytest.mark.parametrize("eta_diag", [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0, -1.0]])
    def test_isotropy_group_unimodular(self, eta_diag):
        rng = np.random.default_rng(10)
        basis = isotropy_algebra_basis(np.diag(eta_diag))
        for _ in range(25):
            coeffs = rng.uniform(-1.0, 1.0, size=len(basis))
            h = GroupElement(sla.expm(sum(c * X for c, X in zip(coeffs, basis))))
            assert abs(abs(adjoint_determinant(h, basis)) - 1.0) < 1e-8
