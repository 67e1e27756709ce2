import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    Label,
    LabelNotContained,
    LinearlyDependentInput,
    MissingPoint,
    Observable,
    QuadratureDomainTooSmall,
    QuadratureSpec,
    StateDensity,
    StateField,
    TensorSpace,
    compare_labels,
    embed_observable,
    extend_state,
    gram_schmidt_basis,
    join,
    l2_inner_product,
    pure_state_net,
    rescale_isomorphism_check,
    restrict_state,
)
from sigspace.acceptance import _dyadic_state


def _space(ids, d=2):
    label = Label(ids)
    return TensorSpace(label, {k: d for k in label.ids})


def _random_observable(space, rng):
    D = space.total_dim
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return Observable(space, A / np.max(np.abs(A)))


def _random_state(space, rng):
    D = space.total_dim
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    M = A @ A.conj().T
    return StateDensity(space, M / np.trace(M).real)


class TestLabels:
    def test_compare_examples(self):
        assert compare_labels(Label({1}), Label({1, 2})) == "less"
        assert compare_labels(Label({1, 2}), Label({1})) == "greater"
        assert compare_labels(Label({1, 3}), Label({1, 3})) == "equal"
        assert compare_labels(Label({1}), Label({2})) == "incomparable"

    def test_join_examples(self):
        assert join(Label({1}), Label({1, 2})) == Label({1, 2})
        assert join(Label({1}), Label({2})) == Label({1, 2})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Label([1, 1, 2])

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.frozensets(st.integers(0, 6), max_size=4),
        b=st.frozensets(st.integers(0, 6), max_size=4),
    )
    def test_join_is_an_upper_bound(self, a, b):
        la, lb = Label(a), Label(b)
        up = join(la, lb)
        assert compare_labels(la, up) in ("less", "equal")
        assert compare_labels(lb, up) in ("less", "equal")


class TestEmbedObservable:
    def test_unital(self):
        space = _space({1})
        dims = {1: 2, 2: 3}
        iota = embed_observable(Observable.identity(space), Label({1, 2}), dims)
        np.testing.assert_array_equal(iota.matrix, np.eye(6))

    def test_pauli_eigenvalues(self):
        # diag(1, -1) on one qubit embeds with doubled spectrum
        space = _space({1})
        a = Observable(space, np.diag([1.0, -1.0]))
        iota = embed_observable(a, Label({1, 2}), {1: 2, 2: 2})
        eigs = np.sort(np.linalg.eigvalsh(iota.matrix))
        np.testing.assert_allclose(eigs, [-1.0, -1.0, 1.0, 1.0])

    def test_composition_is_exact(self):
        rng = np.random.default_rng(0)
        dims = {1: 2, 2: 3, 3: 2}
        a = _random_observable(TensorSpace(Label({2}), dims), rng)
        lam_mid, lam_top = Label({1, 2}), Label({1, 2, 3})
        direct = embed_observable(a, lam_top, dims).matrix
        composed = embed_observable(embed_observable(a, lam_mid, dims), lam_top, dims).matrix
        assert np.array_equal(direct, composed)

    def test_homomorphism_properties(self):
        rng = np.random.default_rng(1)
        dims = {1: 2, 2: 2, 3: 3}
        space = TensorSpace(Label({1, 3}), dims)
        lam_prime = Label({1, 2, 3})
        a = _random_observable(space, rng)
        b = _random_observable(space, rng)
        ia = embed_observable(a, lam_prime, dims).matrix
        ib = embed_observable(b, lam_prime, dims).matrix
        iab = embed_observable(Observable(space, a.matrix @ b.matrix), lam_prime, dims).matrix
        assert np.max(np.abs(iab - ia @ ib)) < 1e-12
        istar = embed_observable(Observable(space, a.matrix.conj().T), lam_prime, dims).matrix
        assert np.array_equal(istar, ia.conj().T)
        assert abs(np.linalg.norm(ia, 2) - np.linalg.norm(a.matrix, 2)) < 1e-12

    def test_not_contained(self):
        a = Observable.identity(_space({1, 4}))
        with pytest.raises(LabelNotContained):
            embed_observable(a, Label({1, 2}), {1: 2, 2: 2, 4: 2})

    def test_equal_label_is_identity_map(self):
        rng = np.random.default_rng(2)
        a = _random_observable(_space({1, 2}), rng)
        again = embed_observable(a, Label({1, 2}), {1: 2, 2: 2})
        assert np.array_equal(again.matrix, a.matrix)


class TestRestrictState:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        dims = {1: 2, 2: 3}
        rho1 = _random_state(TensorSpace(Label({1}), dims), rng)
        rho2 = _random_state(TensorSpace(Label({2}), dims), rng)
        product = StateDensity(
            TensorSpace(Label({1, 2}), dims), np.kron(rho1.matrix, rho2.matrix)
        )
        back = restrict_state(product, Label({1}))
        assert np.max(np.abs(back.matrix - rho1.matrix)) < 1e-14

    def test_maximally_entangled_pair(self):
        dims = {1: 2, 2: 2}
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = StateDensity(TensorSpace(Label({1, 2}), dims), np.outer(psi, psi))
        reduced = restrict_state(rho, Label({2}))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-15)

    def test_duality_with_embedding(self):
        rng = np.random.default_rng(4)
        dims = {1: 2, 2: 3, 3: 2}
        lam, lam_prime = Label({2, 3}), Label({1, 2, 3})
        a = _random_observable(TensorSpace(lam, dims), rng)
        rho = _random_state(TensorSpace(lam_prime, dims), rng)
        lhs = np.trace(restrict_state(rho, lam).matrix @ a.matrix)
        rhs = np.trace(rho.matrix @ embed_observable(a, lam_prime, dims).matrix)
        assert abs(lhs - rhs) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_duality_property(self, ids, data, seed):
        # tr(pi(rho) a) = tr(rho iota(a)) for any sub-label, factor sizes 1..3
        kept = data.draw(st.frozensets(st.sampled_from(sorted(ids)), max_size=len(ids)))
        dims = {k: data.draw(st.integers(1, 3)) for k in sorted(ids)}
        lam, lam_prime = Label(kept), Label(ids)
        rng = np.random.default_rng(seed)
        a = _random_observable(TensorSpace(lam, dims), rng)
        rho = _random_state(TensorSpace(lam_prime, dims), rng)
        lhs = np.trace(restrict_state(rho, lam).matrix @ a.matrix)
        rhs = np.trace(rho.matrix @ embed_observable(a, lam_prime, dims).matrix)
        D = TensorSpace(lam_prime, dims).total_dim
        assert abs(lhs - rhs) <= 16.0 * D * np.finfo(float).eps

    def test_tower_consistency_generic(self):
        rng = np.random.default_rng(5)
        dims = {1: 2, 2: 3, 3: 2, 4: 2}
        rho = _random_state(TensorSpace(Label({1, 2, 3, 4}), dims), rng)
        direct = restrict_state(rho, Label({2})).matrix
        composed = restrict_state(
            restrict_state(rho, Label({2, 4})), Label({2})
        ).matrix
        assert np.max(np.abs(direct - composed)) < 1e-14

    def test_tower_consistency_exact_on_dyadic_states(self):
        # dyadic entries make every partial-trace sum exact, so the two
        # restriction routes agree bitwise
        rng = np.random.default_rng(6)
        dims = {1: 3, 2: 2, 3: 3}
        for _ in range(10):
            rho = _dyadic_state(TensorSpace(Label({1, 2, 3}), dims), rng)
            direct = restrict_state(rho, Label({1})).matrix
            composed = restrict_state(restrict_state(rho, Label({1, 3})), Label({1})).matrix
            assert np.array_equal(direct, composed)

    def test_surjectivity_witness(self):
        rng = np.random.default_rng(7)
        dims = {1: 2, 2: 2, 3: 3}
        lam, lam_prime = Label({1, 2}), Label({1, 2, 3})
        target = _random_state(TensorSpace(lam, dims), rng)
        extended = extend_state(target, lam_prime, dims)
        back = restrict_state(extended, lam)
        assert np.max(np.abs(back.matrix - target.matrix)) < 1e-12

    def test_not_contained(self):
        rng = np.random.default_rng(8)
        rho = _random_state(_space({1, 2}), rng)
        with pytest.raises(LabelNotContained):
            restrict_state(rho, Label({3}))


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            StateDensity(_space({1}), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            StateDensity(_space({1}), np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            StateDensity(_space({1}), np.diag([0.7, 0.7]))

    def test_rejects_unnormalized_field_vector(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateField({1: np.array([1.0, 1.0])})


class TestPureStateNet:
    def test_single_point_projector(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        net = pure_state_net(StateField({1: v}), [Label({1})])
        np.testing.assert_allclose(net[Label({1})].matrix, np.outer(v, v.conj()), atol=1e-15)

    def test_two_point_basis_vectors(self):
        field = StateField({1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])})
        net = pure_state_net(field, [Label({1, 2})])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |0> (x) |1> sits at index 1
        np.testing.assert_array_equal(net[Label({1, 2})].matrix, expected)

    def test_projective_consistency(self):
        rng = np.random.default_rng(9)
        vectors = {}
        for k in (1, 2, 3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vectors[k] = v / np.linalg.norm(v)
        labels = [Label(s) for s in ({1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3})]
        net = pure_state_net(StateField(vectors), labels)
        for small in labels:
            for big in labels:
                if small != big and small.issubset(big):
                    diff = restrict_state(net[big], small).matrix - net[small].matrix
                    assert np.max(np.abs(diff)) < 1e-12

    def test_missing_point(self):
        with pytest.raises(MissingPoint):
            pure_state_net(StateField({1: np.array([1.0, 0.0])}), [Label({1, 2})])


class TestRescale:
    def test_trivial_constant(self):
        rng = np.random.default_rng(10)
        a = _random_observable(_space({1, 2}), rng)
        assert rescale_isomorphism_check(1.0, a, Label({1, 2}), Label({1, 2, 3}), {1: 2, 2: 2, 3: 2}) == 0.0

    def test_power_of_two_constant_is_exact(self):
        rng = np.random.default_rng(11)
        a = _random_observable(_space({1, 2}), rng)
        res = rescale_isomorphism_check(4.0, a, Label({1, 2}), Label({1, 2, 3}), {1: 2, 2: 2, 3: 2})
        assert res == 0.0

    def test_generic_constant(self):
        rng = np.random.default_rng(12)
        a = _random_observable(_space({1, 3}), rng)
        res = rescale_isomorphism_check(2.5, a, Label({1, 3}), Label({1, 2, 3}), {1: 2, 2: 3, 3: 2})
        assert res < 1e-12

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(13)
        a = _random_observable(_space({1}), rng)
        with pytest.raises(ValueError):
            rescale_isomorphism_check(0.0, a, Label({1}), Label({1, 2}), {1: 2, 2: 2})


class TestL2Bridge:
    def test_gamma_one_norm(self):
        psi = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        val = l2_inner_product(psi, psi)
        assert abs(val - 1.0) < 1e-10

    def test_gamma_two_cross_term(self):
        psi1 = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        psi2 = lambda g: g ** 1.5 * np.exp(-g / 2.0)
        assert abs(l2_inner_product(psi1, psi2) - 1.0) < 1e-10

    def test_orthogonalized_difference_has_unit_norm(self):
        # Gamma(3) - 2 Gamma(2) + Gamma(1) = 1
        e2 = lambda g: (g ** 1.5 - np.sqrt(g)) * np.exp(-g / 2.0)
        assert abs(l2_inner_product(e2, e2) - 1.0) < 1e-10

    def test_domain_guard(self):
        with pytest.raises(QuadratureDomainTooSmall):
            l2_inner_product(lambda g: np.ones_like(g), lambda g: np.ones_like(g))

    def test_custom_quadrature_spec(self):
        psi = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        spec = QuadratureSpec(gamma_min=1e-10, gamma_max=80.0, panels=80, nodes=12)
        assert abs(l2_inner_product(psi, psi, quad=spec) - 1.0) < 1e-8


class TestGramSchmidt:
    def test_single_unit_function(self):
        psi = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        (e,) = gram_schmidt_basis([psi])
        assert abs(l2_inner_product(e, e) - 1.0) < 1e-10

    def test_two_function_example(self):
        psi1 = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        psi2 = lambda g: g ** 1.5 * np.exp(-g / 2.0)
        e1, e2 = gram_schmidt_basis([psi1, psi2])
        # the orthonormalized pair is {psi1, psi2 - psi1}
        grid = np.linspace(0.5, 5.0, 9)
        np.testing.assert_allclose(e1(grid), psi1(grid), atol=1e-10)
        np.testing.assert_allclose(e2(grid), psi2(grid) - psi1(grid), atol=1e-8)

    def test_three_monomials_gram_identity(self):
        fns = [
            (lambda k: (lambda g: g ** k * np.sqrt(g) * np.exp(-g / 2.0)))(k)
            for k in range(3)
        ]
        basis = gram_schmidt_basis(fns)
        gram = np.array(
            [[l2_inner_product(a, b) for b in basis] for a in basis]
        )
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_dependent_input_rejected(self):
        psi = lambda g: np.sqrt(g) * np.exp(-g / 2.0)
        near_copy = lambda g: (1.0 + 1e-12) * np.sqrt(g) * np.exp(-g / 2.0)
        with pytest.raises(LinearlyDependentInput):
            gram_schmidt_basis([psi, near_copy])
