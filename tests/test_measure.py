import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    BoxDomain,
    EmptyDomain,
    GroupElement,
    Signature,
    SymmetricForm,
    UnsupportedDimension,
    density,
    density_closed_form,
    invariance_experiment,
    mc_integrate,
    pushforward_invariance_residual,
    radial_bump,
    random_form,
)
from sigspace.forms import DEGENERACY_RTOL
from sigspace.geometry import metric_components
from sigspace.measure import (
    _CHUNK,
    DensityValue,
    _chunk_sums,
    _density_batch,
    _draw_chunk,
    _eigen_mask,
    _ldl_certificate,
    _signature_mask,
    density_from_metric,
    natural_density,
)
from sigspace.packing import congruence_jacobian, pack, unpack
from strategies import conditioned_forms, conditioned_groups


def _random_group(rng, n, max_cond=10.0):
    while True:
        g = rng.standard_normal((n, n))
        if abs(np.linalg.det(g)) > 1e-3 and np.linalg.cond(g) < max_cond:
            return GroupElement(g)


def _near_degenerate(smallest):
    """The form of eigenvalues (1, -0.5, smallest) in a fixed random orthonormal frame."""
    rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    return SymmetricForm((rotation * np.array([1.0, -0.5, smallest])) @ rotation.T)


class TestDensity:
    def test_scalar_value(self):
        assert np.isclose(density(SymmetricForm([[2.0]])).value, 0.5, rtol=1e-14)

    def test_n2_minkowski(self):
        val = density(SymmetricForm(np.diag([1.0, -1.0]))).value
        assert np.isclose(val, np.sqrt(2.0), rtol=1e-14)

    def test_n2_identity(self):
        assert np.isclose(density(SymmetricForm(np.eye(2))).value, np.sqrt(2.0), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant_power_oracle(self, n):
        # sqrt|det Q| against the simplification 2^(n(n-1)/4) |det S|^-(n+1)/2,
        # itself cross-checked at n <= 2 by the printed formulas
        rng = np.random.default_rng(n)
        for _ in range(500):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=10)
            expected = 2.0 ** (n * (n - 1) / 4.0) * abs(np.linalg.det(S.entries)) ** (-(n + 1) / 2.0)
            assert abs(density_from_metric(metric_components(S).components) - expected) < 1e-8 * expected

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_density_beyond_the_range_of_det_q(self, scale):
        # at n = 6, det Q of the 21 x 21 metric is about scale^-42: it
        # underflows to 0 or overflows to inf, while the density does not
        rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
        S = SymmetricForm((rotation * (scale * np.array([1.0, -2.0, 3.0, -1.5, 2.5, 1.0]))) @ rotation.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density(S).value
        expected = _density_batch(np.linalg.eigvalsh(S.entries)[None, :])[0]
        assert abs(got - expected) <= 1e-12 * expected

    def test_near_degenerate_form_keeps_its_digits(self):
        # cond(S) = 2e8: the closed form loses about cond(S) u per eigenvalue,
        # while det Q of the 6 x 6 metric, cond(Q) ~ cond(S)^2, is off by
        # 3.9e-3 on this form; the reference is the exact det of the entries
        S = _near_degenerate(1e-8)
        (a, b, c), (_, d, e), (_, _, f) = ([Fraction(x) for x in row] for row in S.entries)
        det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
        exact = 2.0 ** 1.5 / float(det * det)
        assert abs(density(S).value - exact) <= 1e-8 * exact

    def test_every_form_the_filter_accepts_has_a_density(self):
        # cond(S) = 2e9 passes the degeneracy test, and the Monte-Carlo filter
        # accepts the form; the density needs no inverse, whose residual
        # check rejects this form
        S = _near_degenerate(1e-9)
        accept, diag = _signature_mask(pack(S.entries)[None, :], Signature(2, 1), DEGENERACY_RTOL)
        assert accept[0]
        # each route loses about cond(S) u = 2.2e-7 per eigenvalue
        assert density(S).value == pytest.approx(_density_batch(diag)[0], rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_batch_route_matches_metric_route(self, n):
        # the Monte-Carlo route (filter diagonal -> closed form) against
        # sqrt|det Q| row by row, for every signature
        rng = np.random.default_rng(100 + n)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            forms = [random_form(sig, rng, max_condition=10) for _ in range(200)]
            accept, diag = _signature_mask(pack(np.array([S.entries for S in forms])), sig, DEGENERACY_RTOL)
            assert accept.all()
            batch = _density_batch(diag)
            pointwise = np.array([density_from_metric(metric_components(S).components) for S in forms])
            np.testing.assert_allclose(batch, pointwise, rtol=1e-10, atol=0.0)


def _assert_filter_matches_eigen_route(coords, sig):
    """Same mask as the eigenvalue route, and prod diag = det row by row."""
    mats = unpack(coords, sig.n)
    accept, diag = _signature_mask(coords, sig, DEGENERACY_RTOL)
    reference, eigs = _eigen_mask(mats, sig, DEGENERACY_RTOL)
    np.testing.assert_array_equal(accept, reference)
    det = np.linalg.det(mats)
    cond = np.max(np.abs(eigs), axis=1) / np.min(np.abs(eigs), axis=1)
    # past cond 1e4 det itself is known only to about cond * u, for the LU
    # reference as for the eigenvalues
    tol = np.maximum(1e-10, 1e-14 * cond)
    assert np.all(np.abs(np.prod(diag, axis=1) - det) <= tol * np.abs(det))
    return accept


class TestSignatureFilter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_eigen_route_on_uniform_boxes(self, n):
        # a narrow box inside one signature component, and a wide one around
        # the same form that reaches across det gamma = 0; 10000 rows span
        # more than one elimination block
        rng = np.random.default_rng(200 + n)
        for p in range(n + 1):
            sig = Signature(p, n - p)
            center = pack(random_form(sig, rng, max_condition=4).entries)
            for half_width, straddles in ((0.02, False), (1.0, True)):
                coords = rng.uniform(center - half_width, center + half_width, size=(10000, center.size))
                accept = _assert_filter_matches_eigen_route(coords, sig)
                if straddles:
                    assert 0 < accept.sum() < len(accept)

    @pytest.mark.parametrize("n", [2, 3])
    def test_certified_inertia_is_exact(self, n):
        # forms within 1e-17..1e-12 of singular, where rounding can flip the
        # sign of the last pivot: whatever the tolerance, even 0, a row the
        # backward-error bound certifies has the inertia of its exact entries
        rng = np.random.default_rng(400 + n)
        B = rng.standard_normal((500, n, n))
        spectrum = rng.choice([-1.0, 1.0], size=(500, n)) * np.concatenate(
            (rng.uniform(0.5, 2.0, size=(500, n - 1)), 10.0 ** rng.uniform(-17, -12, size=(500, 1))), axis=1)
        coords = pack(np.einsum("rij,rj,rkj->rik", B, spectrum, B))
        certified, positive, _ = _ldl_certificate(coords, n, 0.0)
        assert 0 < certified.sum() < len(coords)
        for row, pos in zip(coords[certified], positive[certified]):
            a = [[Fraction(x) for x in m] for m in unpack(row, n)]
            pivots = []
            for k in range(n):
                pivots.append(a[k][k])
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        a[i][j] -= a[i][k] * a[k][j] / a[k][k]
            assert pos == sum(d > 0 for d in pivots)

    @pytest.mark.parametrize(
        "matrix, sig, accepted",
        [
            # zero first pivot: the elimination breaks down, the form is (1, 1)
            ([[0.0, 1.0], [1.0, 0.0]], Signature(1, 1), True),
            # min |lambda| just above and just below DEGENERACY_RTOL * scale
            (np.diag([1.0, 1.001e-10]), Signature(2, 0), True),
            (np.diag([1.0, 0.999e-10]), Signature(2, 0), False),
            # the all-zero row stays rejected through the 1e-300 floor
            (np.zeros((3, 3)), Signature(2, 1), False),
        ],
    )
    def test_crafted_rows_take_the_eigen_route(self, matrix, sig, accepted):
        coords = pack(np.asarray(matrix))[None, :]
        certified, _, _ = _ldl_certificate(coords, sig.n, DEGENERACY_RTOL)
        assert not certified[0]
        accept, diag = _signature_mask(coords, sig, DEGENERACY_RTOL)
        reference, eigs = _eigen_mask(unpack(coords, sig.n), sig, DEGENERACY_RTOL)
        assert accept[0] == reference[0] == accepted
        np.testing.assert_array_equal(diag, eigs)


class TestFilterProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        case=conditioned_forms(max_log_cond=4.0),
        half_width=st.sampled_from([1e-3, 0.1, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_filter_matches_eigen_route(self, case, half_width, seed):
        # boxes of half-width w |S| around S, the wide ones crossing det = 0
        S, sig, _ = case
        center = pack(S)
        width = half_width * np.max(np.abs(S))
        coords = np.random.default_rng(seed).uniform(center - width, center + width, size=(256, center.size))
        _assert_filter_matches_eigen_route(coords, sig)

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=2.0))
    def test_closed_form_density_matches_metric_route(self, case):
        # det Q of the N x N metric, cond(Q) = cond(S)^2, carries a relative
        # error up to about N u cond(S)^2 on top of the 1e-10 of the route
        S, sig, cond = case
        accept, diag = _signature_mask(pack(S)[None, :], sig, DEGENERACY_RTOL)
        assert accept[0]
        want = density_from_metric(metric_components(SymmetricForm(S)).components)
        tol = 1e-10 + 64.0 * len(pack(S)) * np.finfo(float).eps * cond**2
        assert abs(_density_batch(diag)[0] - want) <= tol * want


class TestDensityClosedForm:
    def test_negative_scalar(self):
        assert np.isclose(density_closed_form(SymmetricForm([[-3.0]])).value, 1.0 / 3.0)

    def test_agrees_with_determinant_route(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 2.0]])
        direct = density_from_metric(metric_components(S).components)
        assert abs(density_closed_form(S).value - direct) < 1e-10 * direct

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            density_closed_form(SymmetricForm(np.eye(3)))


class TestPushforwardInvariance:
    def test_scalar_by_hand(self):
        # density(gamma/4) * (1/4) = (4/gamma)(1/4) = 1/gamma
        residual = pushforward_invariance_residual(GroupElement([[2.0]]), SymmetricForm([[3.0]]))
        assert residual < 1e-15

    def test_identity_exact(self):
        S = SymmetricForm([[2.0, 1.0], [1.0, 3.0]])
        assert pushforward_invariance_residual(GroupElement.identity(2), S) == 0.0

    def test_random_runs_n3(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = int(rng.integers(0, 4))
            S = random_form(Signature(p, 3 - p), rng, max_condition=10)
            g = _random_group(rng, 3)
            assert pushforward_invariance_residual(g, S) < 1e-8 * density(S).value

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=2.0, max_scale_exp=2), data=st.data())
    def test_invariance_property(self, case, data):
        # density is sqrt|det Q|, and det Q at act(g, S) can lose up to about
        # N u cond(Q) relative, cond(Q) <= (cond(S) cond(g)^2)^2; with
        # cond(S) <= 100 and cond(g) <= 10 the residuals stay near 5e-10,
        # well inside the 1e-8 contract.  The residual calls action_jacobian
        # and then act on one g, which reuses its stored g^-1
        S = SymmetricForm(case[0])
        g = data.draw(conditioned_groups(S.n, max_log_cond=1.0))
        assert pushforward_invariance_residual(g, S) < 1e-8 * density(S).value

    def test_scale_covariance_via_group_element(self):
        # scaling S -> alpha S is the action of alpha^(-1/2) identity
        rng = np.random.default_rng(3)
        S = random_form(Signature(2, 1), rng, max_condition=10)
        for alpha in (0.25, 2.0, 9.0):
            g = GroupElement(alpha ** (-0.5) * np.eye(3))
            assert pushforward_invariance_residual(g, S) < 1e-8 * density(S).value

    def test_basis_independence_of_density(self):
        # recomputing in a transformed frame times |det Phi'| reproduces it
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            p = int(rng.integers(0, n + 1))
            S = random_form(Signature(p, n - p), rng, max_condition=10)
            P = _random_group(rng, n).entries
            transformed = density(SymmetricForm(P.T @ S.entries @ P)).value
            jac = abs(np.linalg.det(congruence_jacobian(P)))
            assert abs(transformed * jac - density(S).value) < 1e-8 * density(S).value


class TestBoxDomain:
    def test_volume(self):
        box = BoxDomain(Signature(1, 0), [1.0], [3.0])
        assert box.volume == 2.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(Signature(1, 0), [2.0], [1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BoxDomain(Signature(2, 0), [0.0], [1.0])

    def test_json_round_trip(self):
        box = BoxDomain(Signature(2, 0), [0.5, -0.5, 0.5], [1.5, 0.5, 1.5])
        again = BoxDomain.from_dict(box.to_dict())
        np.testing.assert_array_equal(box.lower, again.lower)
        assert again.signature == Signature(2, 0)


class TestMCIntegrate:
    def test_linear_integrand_scalar_fiber(self):
        # int_1^2 gamma (1/gamma) dgamma = 1; the weighted integrand is
        # constant, so the estimate is exact and the std error collapses
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        est = mc_integrate(lambda coords: coords[:, 0], box, rng_seed=1, n_samples=20000)
        assert abs(est.value - 1.0) <= max(3.0 * est.std_error, 1e-12)
        assert est.n_accepted == est.n_samples

    def test_zero_integrand(self):
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        est = mc_integrate(lambda coords: np.zeros(len(coords)), box, rng_seed=2, n_samples=5000)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_log_measure_of_interval(self):
        # int_1^e dgamma/gamma = 1
        box = BoxDomain(Signature(1, 0), [1.0], [np.e])
        est = mc_integrate(lambda coords: np.ones(len(coords)), box, rng_seed=3, n_samples=50000)
        assert abs(est.value - 1.0) < 3.0 * est.std_error

    def test_deterministic_across_thread_counts(self):
        box = BoxDomain(Signature(2, 0), [0.5, -0.3, 0.5], [1.5, 0.3, 1.5])
        f = radial_bump([1.0, 0.0, 1.0], 0.3)
        seq = mc_integrate(f, box, rng_seed=5, n_samples=150000)
        par = mc_integrate(f, box, rng_seed=5, n_samples=150000, threads=4)
        assert seq.value == par.value and seq.std_error == par.std_error

    def test_convergence_rate(self):
        # doubling samples shrinks the std error by about sqrt(2)
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        f = radial_bump([1.5], 0.45)
        small = mc_integrate(f, box, rng_seed=6, n_samples=100000)
        large = mc_integrate(f, box, rng_seed=7, n_samples=200000)
        ratio = small.std_error / large.std_error
        assert abs(ratio - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)

    @pytest.mark.parametrize("width", [1e-4, 1e-8])
    def test_std_error_on_narrow_box(self, width):
        # f = 1 on [1, 1 + w]: the weighted values 1/gamma spread by about
        # w / sqrt(12), so std_error = w^2 / sqrt(12 N) to leading order; a
        # raw sum of squares loses every digit of it to cancellation
        n_samples = 200000
        box = BoxDomain(Signature(1, 0), [1.0], [1.0 + width])
        est = mc_integrate(lambda coords: np.ones(len(coords)), box, 13, n_samples)
        analytic = width**2 / np.sqrt(12.0 * n_samples)
        assert abs(est.std_error - analytic) < 0.1 * analytic

    def test_n5_against_pointwise_reference(self):
        # every entry within 0.1 of diag(1,1,1,-1,-1) moves the spectrum by
        # at most 5 * 0.1 < 1, so each proposal keeps signature (3, 2)
        center = pack(np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
        box = BoxDomain(Signature(3, 2), center - 0.1, center + 0.1)
        est = mc_integrate(lambda coords: np.ones(len(coords)), box, 14, 2 * 65536)
        assert est.n_accepted == est.n_samples
        draws = np.random.default_rng(15).uniform(box.lower, box.upper, size=(4096, box.N))
        vals = box.volume * np.array([density(SymmetricForm(m)).value for m in unpack(draws, 5)])
        ref, ref_error = vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(est.value - ref) < 5.0 * np.hypot(est.std_error, ref_error)

    def test_signature_filter_counts(self):
        # around the identity some draws in this box are indefinite
        box = BoxDomain(Signature(2, 0), [0.1, -1.0, 0.1], [1.5, 1.0, 1.5])
        est = mc_integrate(lambda coords: np.ones(len(coords)), box, 8, 20000)
        assert 0 < est.n_accepted < est.n_samples

    def test_empty_domain(self):
        box = BoxDomain(Signature(0, 1), [1.0], [2.0])  # positive gammas never accepted
        with pytest.raises(EmptyDomain):
            mc_integrate(lambda coords: np.ones(len(coords)), box, rng_seed=9, n_samples=1000)

    def test_minimum_samples(self):
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        with pytest.raises(ValueError):
            mc_integrate(lambda coords: np.ones(len(coords)), box, rng_seed=0, n_samples=10)


class TestInvarianceExperiment:
    def test_identity_element_identical_estimates(self):
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        f = radial_bump([1.5], 0.45)
        report = invariance_experiment(f, GroupElement.identity(1), box, 1, 10000)
        assert report.lhs.value == report.rhs.value
        assert report.difference == 0.0 and report.difference_sigmas == 0.0

    def test_scalar_scaling_matches_quadrature(self):
        box = BoxDomain(Signature(1, 0), [1.0], [2.0])
        f = radial_bump([1.5], 0.45)
        report = invariance_experiment(f, GroupElement([[2.0]]), box, 11, 200000)
        analytic, _ = scipy.integrate.quad(lambda g: f(np.array([[g]]))[0] / g, 1.05, 1.95)
        assert abs(report.lhs.value - analytic) < 3.0 * report.lhs.std_error
        assert abs(report.rhs.value - analytic) < 3.0 * report.rhs.std_error
        assert abs(report.difference_sigmas) < 3.0

    def test_n2_diagonal_element(self):
        box = BoxDomain(Signature(2, 0), [0.6, -0.35, 0.6], [1.4, 0.35, 1.4])
        f = radial_bump([1.0, 0.0, 1.0], 0.3)
        report = invariance_experiment(f, GroupElement(np.diag([2.0, 1.0])), box, 12, 200000)
        assert abs(report.difference_sigmas) < 3.0


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _radial_bump_reference(center, radius):
    """radial_bump as first written, with a temporary per operation."""
    center = np.asarray(center, dtype=float)

    def f(coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        u2 = np.sum(((coords - center) / radius) ** 2, axis=-1)
        out = np.zeros(u2.shape)
        inside = u2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out

    return f


def _density_batch_reference(diag):
    n = diag.shape[-1]
    return 2.0 ** (n * (n - 1) / 4.0) * np.abs(np.prod(diag, axis=-1)) ** (-(n + 1) / 2.0)


def _chunk_sums_reference(f, box, seed, start, count):
    """_chunk_sums as first written: Generator.uniform, np.prod and boolean gathers."""
    rng = np.random.Generator(np.random.Philox(seed).jumped(start // _CHUNK))
    coords = rng.uniform(box.lower, box.upper, size=(count, box.N))
    accept, diag = _signature_mask(coords, box.signature, DEGENERACY_RTOL)
    vals = np.zeros(count)
    if np.any(accept):
        dens = _density_batch_reference(diag[accept])
        fvals = np.asarray(f(coords[accept]), dtype=float)
        if fvals.shape != (int(np.sum(accept)),):
            raise ValueError("integrand must return one value per row")
        vals[accept] = fvals * dens
    total = float(np.sum(vals))
    return total, float(np.sum((vals - total / count) ** 2)), int(np.sum(accept))


_SIGNATURES = {1: Signature(1, 0), 2: Signature(1, 1), 3: Signature(2, 1), 4: Signature(2, 2)}


def _chunk_box(n, acceptance):
    """A box around a form of signature (ceil(n/2), floor(n/2)) where every,
    some or no proposal has the box signature."""
    sig = _SIGNATURES[n]
    center = pack(np.diag([1.0 if k < sig.p else -1.0 for k in range(n)]))
    # entries within 0.1 of diag(+-1) move each eigenvalue by at most 0.1 n < 1;
    # within 1.5, some diagonal entries change sign
    half_width = 1.5 if acceptance == "partial" else 0.1
    if acceptance == "none":
        sig = Signature(0, n) if n == 1 else Signature(n, 0)
    return BoxDomain(sig, center - half_width, center + half_width)


class TestChunkKernel:
    """The chunk kernel gives the reference's (sum, m2, accepted) bit for bit."""

    @pytest.mark.parametrize("acceptance", ["all", "partial", "none"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vectorized_chunks_match_reference(self, n, acceptance):
        box = _chunk_box(n, acceptance)
        center, radius = (box.lower + box.upper) / 2.0, 0.75 * float(np.min(box.upper - box.lower))
        new, reference = radial_bump(center, radius), _radial_bump_reference(center, radius)
        # a full chunk and a last chunk shorter than _CHUNK, on a later substream
        for start, count in ((0, _CHUNK), (2 * _CHUNK, 1000)):
            got = _chunk_sums(new, box, 31 + n, start, count)
            want = _chunk_sums_reference(reference, box, 31 + n, start, count)
            assert got == want
            accepted = {"all": count, "none": 0}.get(acceptance)
            if accepted is None:
                assert 0 < got[2] < count
            else:
                assert got[2] == accepted

    def test_chunk_with_one_rejected_row(self):
        # gamma drawn in [-1e-3, 1]: at seed 2, one of the 1000 rows is negative;
        # the bump and the density are nonzero there, so it must be left out
        box = BoxDomain(Signature(1, 0), [-1e-3], [1.0])
        new, reference = radial_bump([0.5], 0.6), _radial_bump_reference([0.5], 0.6)
        got = _chunk_sums(new, box, 2, 0, 1000)
        assert got == _chunk_sums_reference(reference, box, 2, 0, 1000)
        assert got[2] == 999

    @pytest.mark.parametrize("acceptance", ["all", "partial"])
    def test_vectorized_shape_error(self, acceptance):
        box = _chunk_box(2, acceptance)
        # a column where a row of values belongs, and a scalar as a per-form integrand returns
        for f in (lambda coords: np.ones((len(coords), 1)), lambda S: 1.0):
            with pytest.raises(ValueError, match="one value per row"):
                _chunk_sums(f, box, 5, 0, 2000)

    def test_threads_leave_the_estimate_unchanged(self):
        # two full chunks and a short one, some proposals rejected
        box = _chunk_box(2, "partial")
        f = radial_bump((box.lower + box.upper) / 2.0, 0.8)
        n_samples = 2 * _CHUNK + 4321
        serial = mc_integrate(f, box, 17, n_samples, threads=None)
        threaded = mc_integrate(f, box, 17, n_samples, threads=2)
        assert serial == threaded
        assert 0 < serial.n_accepted < n_samples


class TestChunkHelpers:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        N=st.integers(min_value=1, max_value=21),
        count=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        chunk=st.integers(min_value=0, max_value=40),
    )
    def test_draw_is_generator_uniform(self, data, N, count, seed, chunk):
        # numpy's uniform computes low + (high - low) * u per entry in C order;
        # the in-place draw relies on exactly that
        lower = np.array(data.draw(st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=N, max_size=N)))
        log_widths = data.draw(st.lists(st.floats(min_value=-8.0, max_value=3.0), min_size=N, max_size=N))
        upper = lower + 10.0 ** np.array(log_widths)
        want = np.random.Generator(np.random.Philox(seed).jumped(chunk)).uniform(lower, upper, size=(count, N))
        _assert_same_bits(_draw_chunk(lower, upper, seed, chunk * _CHUNK, count), want)

    @pytest.mark.parametrize("N", [1, 3, 6, 10])
    def test_radial_bump_matches_reference(self, N):
        rng = np.random.default_rng(N)
        center, radius = rng.uniform(-2.0, 2.0, size=N), 0.7
        # the cube around the ball, and the exact boundary points c +- r e_k,
        # where u^2 = 1 and the value is 0
        coords = np.concatenate((
            rng.uniform(center - radius, center + radius, size=(5000, N)),
            center + radius * np.eye(N), center - radius * np.eye(N),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1 / (1 - u^2) is taken inside the support only
            got = radial_bump(center, radius)(coords)
        _assert_same_bits(got, _radial_bump_reference(center, radius)(coords))
        assert 0 < np.count_nonzero(got) < 5000
        assert not got[5000:].any()

    def test_radial_bump_single_point_and_all_outside(self):
        center = np.array([1.0, 0.0, 1.0])
        new, reference = radial_bump(center, 0.3), _radial_bump_reference(center, 0.3)
        point = np.array([1.1, 0.05, 0.95])
        _assert_same_bits(new(point), reference(point))
        assert new(point).shape == (1,) and new(point)[0] > 0.0
        outside = center + np.random.default_rng(9).uniform(0.31, 1.0, size=(100, 3))
        _assert_same_bits(new(outside), reference(outside))
        assert not new(outside).any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_density_batch_matches_prod_route(self, n):
        rng = np.random.default_rng(60 + n)
        diag = rng.choice([-1.0, 1.0], size=(4000, n)) * 10.0 ** rng.uniform(-20.0, 20.0, size=(4000, n))
        _assert_same_bits(_density_batch(diag), _density_batch_reference(diag))


class TestDensityValue:
    @pytest.mark.parametrize("value, shown", [(0.0, "0.0"), (np.inf, "inf"), (np.nan, "nan"), (-2.5, "-2.5")])
    def test_rejects_values_that_are_no_density(self, value, shown):
        with pytest.raises(ValueError, match=f"^density must be positive and finite, got {shown}$"):
            DensityValue(value, SymmetricForm([[1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(case=conditioned_forms(max_log_cond=4.0))
    def test_scalar_density_is_the_stacked_value(self, case):
        S = SymmetricForm(case[0])
        value = density(S).value
        assert type(value) is float
        _assert_same_bits(value, float(natural_density(S.entries)))
