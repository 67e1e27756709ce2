import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    DegenerateForm,
    MinorBreakdown,
    Signature,
    SymmetricForm,
    inverse_form,
    random_form,
    random_forms,
    signature_of,
)
from strategies import conditioned_forms, near_degenerate_form


class TestSymmetricForm:
    def test_symmetrizes_small_noise(self):
        S = SymmetricForm([[1.0, 1e-14], [0.0, 1.0]])
        np.testing.assert_allclose(S.entries, S.entries.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricForm([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricForm([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricForm([[1.0, 0.0]])

    def test_entries_read_only(self):
        S = SymmetricForm(np.eye(2))
        with pytest.raises(ValueError):
            S.entries[0, 0] = 5.0

    def test_json_round_trip(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 2.0]])
        again = SymmetricForm.from_dict(S.to_dict())
        np.testing.assert_array_equal(S.entries, again.entries)

    def test_from_dict_checks_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SymmetricForm.from_dict({"n": 3, "entries": [[1.0]]})


class TestSignatureOf:
    def test_identity(self):
        assert signature_of(SymmetricForm(np.eye(3))) == Signature(3, 0)

    def test_lorentzian_diagonal(self):
        S = SymmetricForm(np.diag([1.0, -1.0, -1.0, -1.0]))
        assert signature_of(S) == Signature(1, 3)

    def test_minor_formula_by_hand(self):
        # m1 = 2, m2 = 3 => p' = 1 - (1/2)(1 + 1) = 0
        S = SymmetricForm([[2.0, 1.0], [1.0, 2.0]])
        assert signature_of(S, method="minors") == Signature(2, 0)
        assert signature_of(S, method="eigen") == Signature(2, 0)

    def test_vanishing_leading_minor(self):
        S = SymmetricForm([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
        with pytest.raises(MinorBreakdown):
            signature_of(S, method="minors")
        assert signature_of(S, method="eigen") == Signature(1, 1)
        assert signature_of(S, method="auto") == Signature(1, 1)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateForm):
            signature_of(SymmetricForm([[1.0, 0.0], [0.0, 0.0]]))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            signature_of(SymmetricForm(np.eye(2)), method="cholesky")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_random_forms(self, n):
        rng = np.random.default_rng(11 * n)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for _ in range(20):
                S = random_form(sig, rng)
                assert signature_of(S, method="eigen") == sig
                assert signature_of(S, method="auto") == sig

    def test_minor_eigen_agreement(self):
        # forms whose leading minors all stay well away from zero
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 5))
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng)
            minors = [np.linalg.det(S.entries[:k, :k]) for k in range(1, n + 1)]
            if min(abs(m) for m in minors) < 1e-6:
                continue
            checked += 1
            assert signature_of(S, method="minors") == signature_of(S, method="eigen")

    def test_scaling_invariance_and_theta_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            S = random_form(Signature(2, 1), rng)
            sig = signature_of(S)
            for alpha in (0.5, 3.0, 117.0):
                assert signature_of(SymmetricForm(alpha * S.entries)) == sig
            # theta: gamma -> -gamma swaps (p, p')
            assert signature_of(SymmetricForm(-S.entries)) == Signature(sig.p_prime, sig.p)


class TestInverseForm:
    def test_identity(self):
        np.testing.assert_array_equal(inverse_form(SymmetricForm(np.eye(3))).entries, np.eye(3))

    def test_diagonal(self):
        inv = inverse_form(SymmetricForm(np.diag([2.0, -1.0])))
        np.testing.assert_allclose(inv.entries, np.diag([0.5, -1.0]))

    def test_residual_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            S = random_form(Signature(1, 2), rng, max_condition=100)
            inv = inverse_form(S)
            residual = np.max(np.abs(inv.entries @ S.entries - np.eye(3)))
            assert residual < 1e-9

    def test_double_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            S = random_form(Signature(2, 2), rng, max_condition=100)
            back = inverse_form(SymmetricForm(inverse_form(S).entries)).entries
            np.testing.assert_allclose(back, S.entries, rtol=1e-8, atol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateForm):
            inverse_form(SymmetricForm([[1.0, 1.0], [1.0, 1.0]]))


class TestRandomForm:
    def test_one_dimensional_positive(self):
        S = random_form(Signature(1, 0), rng_seed=123)
        assert S.entries.shape == (1, 1) and S.entries[0, 0] > 0

    def test_signature_round_trip_seed_42(self):
        assert signature_of(random_form(Signature(1, 1), rng_seed=42)) == Signature(1, 1)

    def test_definite_eigenvalues(self):
        S = random_form(Signature(3, 0), rng_seed=9, scale=1.0)
        assert np.all(np.linalg.eigvalsh(S.entries) > 0)

    def test_deterministic_for_seed(self):
        a = random_form(Signature(2, 1), rng_seed=77)
        b = random_form(Signature(2, 1), rng_seed=77)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_invalid_signature(self):
        with pytest.raises(ValueError):
            random_form(Signature(0, 0))

    def test_small_scale_returns(self):
        # |det B| is about 1e-15 here, so a floor on |det B| never passed
        result = []
        worker = threading.Thread(
            target=lambda: result.append(random_form(Signature(2, 1), rng_seed=0, scale=1e-5)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=1.0)
        assert result, "random_form did not return within a second"
        assert signature_of(result[0]) == Signature(2, 1)

    @pytest.mark.parametrize("sig", [(1, 0), (1, 1), (2, 1), (0, 3), (2, 2), (3, 2)])
    def test_unit_scale_draws_unchanged(self, sig):
        # the old acceptance rule, |det B| > 1e-12 and cond(B) < max_condition,
        # consumes the stream the same way and accepts the same B at scale 1
        sig = Signature(*sig)
        eta = np.diag(np.concatenate((np.ones(sig.p), -np.ones(sig.p_prime))))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            while True:
                B = rng.uniform(-1.0, 1.0, size=(sig.n, sig.n))
                if abs(np.linalg.det(B)) > 1e-12 and np.linalg.cond(B) < 1e6:
                    break
            old = SymmetricForm(B @ eta @ B.T)
            np.testing.assert_array_equal(random_form(sig, rng_seed=seed).entries, old.entries)


def _one_at_a_time(sig, rng, count, max_condition=1e6):
    """(forms, candidates drawn) of a loop that draws one candidate at a time: the reference."""
    eta = np.diag(np.concatenate((np.ones(sig.p), -np.ones(sig.p_prime))))
    forms, candidates = [], 0
    while len(forms) < count:
        B = rng.uniform(-1.0, 1.0, size=(sig.n, sig.n))
        candidates += 1
        if np.linalg.cond(B) < max_condition:
            forms.append(SymmetricForm(B @ eta @ B.T).entries)
    return np.array(forms), candidates


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.Philox])
class TestRandomFormsStream:
    """random_forms draws what successive random_form calls draw, and no more."""

    @pytest.mark.parametrize("sig", [(1, 1), (2, 1), (3, 2), (2, 2)])
    def test_equals_successive_single_draws(self, bitgen, sig):
        sig = Signature(*sig)
        stacked, single, loop = (np.random.Generator(bitgen(11)) for _ in range(3))
        stack = random_forms(sig, stacked, 300)
        np.testing.assert_array_equal(stack, [random_form(sig, single).entries for _ in range(300)])
        np.testing.assert_array_equal(stack, _one_at_a_time(sig, loop, 300)[0])
        assert _same_state(stacked.bit_generator.state, single.bit_generator.state)
        assert _same_state(stacked.bit_generator.state, loop.bit_generator.state)

    def test_interleaved_with_integers(self, bitgen):
        stacked, single = (np.random.Generator(bitgen(5)) for _ in range(2))
        for _ in range(40):
            p = int(stacked.integers(0, 4))
            assert p == int(single.integers(0, 4))
            count = int(stacked.integers(1, 4))
            assert count == int(single.integers(1, 4))
            sig = Signature(p, 3 - p)
            np.testing.assert_array_equal(
                random_forms(sig, stacked, count),
                [random_form(sig, single).entries for _ in range(count)],
            )
        assert _same_state(stacked.bit_generator.state, single.bit_generator.state)

    def test_low_condition_bound_needs_several_rounds(self, bitgen):
        sig = Signature(2, 2)
        stacked, loop = (np.random.Generator(bitgen(8)) for _ in range(2))
        reference, candidates = _one_at_a_time(sig, loop, 100, max_condition=5.0)
        assert candidates > 2 * len(reference)  # most candidates are rejected
        np.testing.assert_array_equal(random_forms(sig, stacked, 100, max_condition=5.0), reference)
        assert _same_state(stacked.bit_generator.state, loop.bit_generator.state)


class TestStoredValues:
    def test_stored_arrays_are_read_only(self):
        S = random_form(Signature(2, 1), rng_seed=1)
        with pytest.raises(ValueError):
            inverse_form(S).entries[0, 0] = 1.0
        with pytest.raises(ValueError):
            S.spectrum()[0][0] = 1.0

    @pytest.mark.parametrize("loose_first", [False, True])
    def test_each_call_checks_its_own_rtol(self, loose_first):
        # the eigenvalues are stored, the decision is not
        for check in (inverse_form, signature_of):
            S = near_degenerate_form()
            eigs, scale = S.spectrum()
            assert 1e-7 < np.min(np.abs(eigs)) / scale < 1e-5
            if loose_first:
                check(S)
            with pytest.raises(DegenerateForm):
                check(S, degeneracy_rtol=1e-3)
            check(S)
            with pytest.raises(DegenerateForm):
                check(S, degeneracy_rtol=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=4.0))
    def test_repeated_calls_match_a_fresh_form(self, case):
        entries, sig, _ = case
        S = SymmetricForm(entries)
        for _ in range(3):
            fresh = SymmetricForm(entries)
            assert np.array_equal(inverse_form(S).entries, inverse_form(fresh).entries)
            assert np.array_equal(S.spectrum()[0], np.linalg.eigvalsh(fresh.entries))
            assert signature_of(S) == signature_of(fresh) == sig


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=0, max_value=3),
    q=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_form_signature_property(p, q, seed):
    if p + q == 0:
        return
    sig = Signature(p, q)
    S = random_form(sig, rng_seed=seed)
    assert signature_of(S, method="eigen") == sig
