import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigspace import (
    DegenerateForm,
    DiffeoJacobianField,
    GridPoint,
    GridTooCoarse,
    MetricFieldGrid,
    PointChart,
    PointNotInField,
    Signature,
    SignatureMismatch,
    SingularFrame,
    SymmetricForm,
    deform_metric_field,
    density,
    diffeo_invariance_residual,
    field_density_at,
    frame_independence_residual,
    make_ball_grid,
    random_form,
    signature_of,
)
from strategies import conditioned_forms, conditioned_groups


# the 1e-9 transport contracts leave little round-off headroom, so test
# points are kept well conditioned
def _random_frame(rng, n, max_cond=5.0):
    while True:
        m = rng.standard_normal((n, n))
        if abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) < max_cond:
            return m


def _sample_form(rng, sig):
    return random_form(sig, rng, max_condition=5.0)


class TestFieldDensity:
    def test_identity_frame(self):
        chart = PointChart("x", np.eye(2))
        S = SymmetricForm([[2.0, 0.5], [0.5, 3.0]])
        assert field_density_at(chart, S) == density(S).value

    def test_scalar_frame_by_hand(self):
        # l = (3): density (9/gamma)(1/9) = 1/gamma
        chart = PointChart("x", [[3.0]])
        for gamma in (0.5, 1.0, 4.0):
            got = field_density_at(chart, SymmetricForm([[gamma]]))
            assert abs(got - 1.0 / gamma) < 1e-12 / gamma

    def test_transport_reproduces_natural_density(self):
        # consequence of the pushforward lemma: any frame gives the
        # natural density of the fiber itself
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            chart = PointChart("x", _random_frame(rng, n))
            for _ in range(20):
                p = int(rng.integers(0, n + 1))
                S = _sample_form(rng, Signature(p, n - p))
                got = field_density_at(chart, S)
                want = density(S).value
                assert abs(got - want) < 1e-9 * want

    def test_singular_frame_rejected(self):
        with pytest.raises(SingularFrame):
            PointChart("x", [[1.0, 1.0], [1.0, 1.0]])

    def test_singularity_is_relative_to_scale(self):
        # a rescaled identity of |det| 1e-15 is a frame and a Jacobian; a
        # matrix of |det| 2.5e-10 and condition number 4e9 is neither
        small, ill_conditioned = 1e-5 * np.eye(3), np.diag([1.0, 2.5e-10])
        assert PointChart("x", small).frame.shape == (3, 3)
        assert DiffeoJacobianField({0: (0, small)}).mapping[0][1].shape == (3, 3)
        with pytest.raises(SingularFrame):
            PointChart("x", ill_conditioned)
        with pytest.raises(SingularFrame):
            DiffeoJacobianField({0: (0, ill_conditioned)})


class TestFrameIndependence:
    def test_same_frame_is_exact(self):
        rng = np.random.default_rng(1)
        chart = PointChart("x", _random_frame(rng, 2))
        samples = [random_form(Signature(2, 0), rng) for _ in range(5)]
        assert frame_independence_residual(chart, chart, samples) == 0.0

    def test_no_samples(self):
        chart = PointChart("x", np.eye(2))
        assert frame_independence_residual(chart, chart, []) == 0.0
        chi = DiffeoJacobianField({0: (0, np.eye(2))})
        assert diffeo_invariance_residual({0: chart}, chi, []) == 0.0

    def test_scalar_frames(self):
        samples = [SymmetricForm([[g]]) for g in (0.5, 1.0, 2.0, 7.0)]
        res = frame_independence_residual(PointChart("x", [[3.0]]), PointChart("x", [[5.0]]), samples)
        assert res < 1e-12

    def test_random_pairs_n3(self):
        rng = np.random.default_rng(2)
        samples = [_sample_form(rng, Signature(1, 2)) for _ in range(100)]
        l = PointChart("x", _random_frame(rng, 3))
        l_prime = PointChart("x", _random_frame(rng, 3))
        assert frame_independence_residual(l, l_prime, samples) < 1e-9


class TestTransportComposition:
    def test_two_step_equals_direct(self):
        # l2 = l1 o l: transporting through l1 then l matches l2 directly
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            l1 = _random_frame(rng, n)
            step = _random_frame(rng, n)
            l2 = l1 @ step
            by_l1 = lambda S, _l1=l1: field_density_at(PointChart(1, _l1), S)
            for _ in range(20):
                p = int(rng.integers(0, n + 1))
                S = _sample_form(rng, Signature(p, n - p))
                direct = field_density_at(PointChart(2, l2), S)
                two_step = field_density_at(PointChart(2, step), S, base_density=by_l1)
                assert abs(direct - two_step) < 1e-9 * direct


class TestDiffeoInvariance:
    def test_identity_diffeo(self):
        rng = np.random.default_rng(4)
        charts = {k: PointChart(k, _random_frame(rng, 2)) for k in range(3)}
        chi = DiffeoJacobianField({k: (k, np.eye(2)) for k in range(3)})
        samples = [_sample_form(rng, Signature(1, 1)) for _ in range(10)]
        assert diffeo_invariance_residual(charts, chi, samples) < 1e-9

    def test_two_point_swap(self):
        rng = np.random.default_rng(5)
        charts = {0: PointChart(0, _random_frame(rng, 2)), 1: PointChart(1, _random_frame(rng, 2))}
        chi = DiffeoJacobianField({0: (1, np.diag([2.0, 1.0])), 1: (0, np.diag([0.5, 1.0]))})
        samples = [_sample_form(rng, Signature(2, 0)) for _ in range(10)]
        assert diffeo_invariance_residual(charts, chi, samples) < 1e-9

    def test_random_five_point_field(self):
        rng = np.random.default_rng(6)
        charts = {k: PointChart(k, _random_frame(rng, 3)) for k in range(5)}
        perm = rng.permutation(5)
        chi = DiffeoJacobianField(
            {k: (int(perm[k]), _random_frame(rng, 3)) for k in range(5)}
        )
        samples = [_sample_form(rng, Signature(2, 1)) for _ in range(20)]
        assert diffeo_invariance_residual(charts, chi, samples) < 1e-8

    def test_point_not_in_field(self):
        rng = np.random.default_rng(7)
        charts = {0: PointChart(0, np.eye(2))}
        chi = DiffeoJacobianField({0: (3, np.eye(2))})
        samples = [random_form(Signature(2, 0), rng) for _ in range(2)]
        with pytest.raises(PointNotInField):
            diffeo_invariance_residual(charts, chi, samples)


class TestGrid:
    def test_ball_grid_covers_unit_ball(self):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.25)
        assert grid.point(0).r_squared == 0.0
        assert any(pt.r_squared >= 1.0 for pt in grid.points)

    def test_grid_json_round_trip(self):
        grid = make_ball_grid(SymmetricForm(np.diag([1.0, -1.0])), spacing=0.5)
        again = MetricFieldGrid.from_dict(grid.to_dict())
        assert again.signature == Signature(1, 1)
        assert len(again.points) == len(grid.points)
        np.testing.assert_array_equal(again.point(0).y, grid.point(0).y)

    def test_grid_validates_signatures(self):
        points = [
            GridPoint(0, np.zeros(2), SymmetricForm(np.eye(2))),
            GridPoint(1, np.array([1.0, 0.0]), SymmetricForm(np.diag([1.0, -1.0]))),
        ]
        with pytest.raises(SignatureMismatch):
            MetricFieldGrid(dim=2, signature=Signature(2, 0), spacing=1.0, points=points)

    def test_grid_names_the_first_bad_point(self):
        eye, flat, lorentz = (SymmetricForm(np.diag(d)) for d in ([1.0, 1.0], [1.0, 0.0], [1.0, -1.0]))

        def grid(*forms):
            points = [GridPoint(10 + k, np.zeros(2), q) for k, q in enumerate(forms)]
            return MetricFieldGrid(dim=2, signature=Signature(2, 0), spacing=1.0, points=points)

        with pytest.raises(DegenerateForm, match="point 11"):
            grid(eye, flat, lorentz)
        with pytest.raises(SignatureMismatch, match="point 11"):
            grid(eye, lorentz, flat)
        with pytest.raises(SignatureMismatch, match="point 11"):
            grid(eye, SymmetricForm(np.eye(3)), flat)


class TestDeformMetricField:
    def test_target_equal_to_center_leaves_field(self):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.25)
        deformed = deform_metric_field(grid, 0, SymmetricForm(np.eye(2)))
        for before, after in zip(grid.points, deformed.points):
            assert np.max(np.abs(after.q.entries - before.q.entries)) < 1e-12

    def test_definite_case(self):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.1)
        target = SymmetricForm(np.diag([4.0, 1.0]))
        deformed = deform_metric_field(grid, 0, target)
        assert np.max(np.abs(deformed.point(0).q.entries - target.entries)) < 1e-9
        for before, after in zip(grid.points, deformed.points):
            if before.r_squared >= 1.0:
                assert after.q is before.q
            assert signature_of(after.q) == Signature(2, 0)

    def test_indefinite_case(self):
        grid = make_ball_grid(SymmetricForm(np.diag([1.0, -1.0])), spacing=0.1)
        target = SymmetricForm([[2.0, 1.0], [1.0, -1.0]])
        deformed = deform_metric_field(grid, 0, target)
        assert np.max(np.abs(deformed.point(0).q.entries - target.entries)) < 1e-9
        assert all(signature_of(pt.q) == Signature(1, 1) for pt in deformed.points)

    def test_signature_mismatch(self):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.25)
        with pytest.raises(SignatureMismatch):
            deform_metric_field(grid, 0, SymmetricForm(np.diag([1.0, -1.0])))

    def test_grid_too_coarse(self):
        points = [
            GridPoint(0, np.zeros(2), SymmetricForm(np.eye(2))),
            GridPoint(1, np.array([0.5, 0.0]), SymmetricForm(np.eye(2))),
        ]
        grid = MetricFieldGrid(dim=2, signature=Signature(2, 0), spacing=0.5, points=points)
        with pytest.raises(GridTooCoarse):
            deform_metric_field(grid, 0, SymmetricForm(np.diag([4.0, 1.0])))

    def test_center_must_be_origin(self):
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.5)
        off_center = next(pt.point_id for pt in grid.points if pt.r_squared > 0)
        with pytest.raises(ValueError, match="y = 0"):
            deform_metric_field(grid, off_center, SymmetricForm(np.diag([4.0, 1.0])))

    def test_seam_is_numerically_flat(self):
        # difference quotients along the y1 axis: the quotient across the
        # r^2 = 1 seam must stay below 10x the largest interior quotient
        h = 0.05
        grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=h)
        deformed = deform_metric_field(grid, 0, SymmetricForm(np.diag([4.0, 1.0])))
        axis = sorted(
            (pt for pt in deformed.points if pt.y[1] == 0.0 and pt.y[0] >= 0.0),
            key=lambda pt: pt.y[0],
        )
        quotients = [
            (a.y[0], np.max(np.abs(b.q.entries - a.q.entries)) / h)
            for a, b in zip(axis, axis[1:])
        ]
        interior = max(q for y, q in quotients if y + h < 0.9)
        seam = max(q for y, q in quotients if y + h >= 0.95 and y <= 1.05)
        assert seam < 10.0 * interior


# -- properties on conditioned inputs -----------------------------------------

# cond <= 5 for frames, Jacobians and forms, as in acceptance criterion 10:
# the diffeo residual goes through two congruences and a determinant, and
# at cond 10 frames and cond 100 forms it reaches 1e-8 by rounding alone
_LOG_COND = float(np.log10(5.0))


def _frame(data, n):
    return data.draw(conditioned_groups(n, max_log_cond=_LOG_COND)).entries


def _charts_and_samples(data, n, count):
    cases = data.draw(st.lists(conditioned_forms(max_log_cond=_LOG_COND, max_scale_exp=3, n=n), min_size=1, max_size=8))
    return [PointChart(k, _frame(data, n)) for k in range(count)], [SymmetricForm(S) for S, _, _ in cases]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_frame_independence_property(n, data):
    (l, l_prime), samples = _charts_and_samples(data, n, 2)
    assert frame_independence_residual(l, l_prime, samples) < 1e-9


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_diffeo_invariance_property(n, data):
    charts, samples = _charts_and_samples(data, n, 3)
    images = data.draw(st.permutations(range(3)))
    chi = DiffeoJacobianField({k: (images[k], _frame(data, n)) for k in range(3)})
    assert diffeo_invariance_residual(dict(enumerate(charts)), chi, samples) < 1e-8
