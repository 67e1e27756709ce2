"""Fields of invariant measures over finite point sets, and metric deformation.

A manifold enters only through linear data: per-point frames identifying
each tangent space with the base one, and per-point Jacobians of a
diffeomorphism.  Transporting the base measure through any such frame
yields the same (natural) measure on every fiber, which is what the
frame-independence and diffeomorphism-invariance residuals check.

``transported_density`` is the one transport kernel: one frame, a stack
of forms, one stacked call per quantity.  ``field_density_at`` and both
residuals wrap it.  A grid validates all its points with one stacked
eigenvalue call, and ``deform_metric_field`` evaluates the smoothstep, the
GL+ path and the congruence once over the points it moves.  Per form,
these give the bits of the one-form-at-a-time route.
``deformation_residuals`` is the one check of a deformation's center
value and untouched exterior, shared by the CLI and the acceptance battery.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, PointNotInField, SignatureMismatch, SingularFrame
from .forms import Signature, SymmetricForm, _positive_count, check_spectra, form_entries, signature_of, spectra
from . import measure
from .group import gl_plus_path, is_singular, lazy_smoothstep, transitive_witness
from .packing import congruence, congruence_jacobian


class PointChart:
    """A sample point with a frame l_x: T_x M -> T_x0 M."""

    __slots__ = ("point_id", "frame")

    def __init__(self, point_id, frame):
        frame = np.array(frame, dtype=float)
        if is_singular(frame):
            raise SingularFrame(f"frame at point {point_id!r} is singular")
        frame.flags.writeable = False
        self.point_id = point_id
        self.frame = frame


def _forms_stack(sample_forms, n: int) -> np.ndarray:
    return np.array([S.entries for S in sample_forms], dtype=float).reshape(-1, n, n)


def _on_stack(base_density):
    """A density on SymmetricForm objects as a function of stacked coordinate matrices."""
    if base_density is None:
        return measure.natural_density
    return lambda P: np.array(
        [float(base_density(SymmetricForm(p))) for p in P.reshape(-1, *P.shape[-2:])]
    ).reshape(P.shape[:-2])


def transported_density(chart: PointChart, forms: np.ndarray, base=None) -> np.ndarray:
    """field_density_at(chart, S) per stacked coordinate matrix S.

    ``base`` maps a stack of coordinate matrices to densities, by default
    measure.natural_density, looked up at call time.  The frame
    is inverted once, the preimages are one stacked congruence, checked as
    SymmetricForm checks them, and the inverse coordinate map has one
    |det|.
    """
    l_inv = np.linalg.inv(chart.frame)
    preimages = form_entries(congruence(l_inv, forms))
    return (base or measure.natural_density)(preimages) * abs(np.linalg.det(congruence_jacobian(l_inv)))


def field_density_at(chart: PointChart, S_on_x: SymmetricForm, base_density=None) -> float:
    """Density at S_on_x of the base measure pushed through the chart's frame.

    The pullback by l_x maps the base fiber onto the fiber over x linearly
    in packed coordinates, so the transported density is the base density
    at the preimage (congruence of S by l_x^-1) times the |det| of the
    inverse coordinate map.
    """
    return float(transported_density(chart, S_on_x.entries, _on_stack(base_density)))


def _worst_relative(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(values - reference) / np.abs(reference), initial=0.0))


def frame_independence_residual(
    l: PointChart, l_prime: PointChart, sample_forms: list[SymmetricForm]
) -> float:
    """max over samples of |density via l - density via l'| (relative).

    Transporting an invariant measure does not depend on the frame, so the
    contract is residual < 1e-9.
    """
    S = _forms_stack(sample_forms, l.frame.shape[0])
    return _worst_relative(transported_density(l_prime, S), transported_density(l, S))


class DiffeoJacobianField:
    """point -> (image point, Jacobian of the tangent map) for a diffeomorphism."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict):
        clean = {}
        for point, (image, jac) in mapping.items():
            jac = np.array(jac, dtype=float)
            if is_singular(jac):
                raise SingularFrame(f"Jacobian at point {point!r} is singular")
            jac.flags.writeable = False
            clean[point] = (image, jac)
        self.mapping = clean


def diffeo_invariance_residual(
    charts: dict, chi: DiffeoJacobianField, sample_forms: list[SymmetricForm]
) -> float:
    """max relative residual of the transformed field against the original one.

    For each point y with image x = chi(y), the transformed measure at x is
    the field measure at y transported along the tangent map: its density
    at a form S is the y-density at J^T S J times |det| of the packed
    congruence by J.  Invariance means this equals the x-density.
    """
    residuals = []
    for point, (image, jac) in chi.mapping.items():
        if point not in charts or image not in charts:
            raise PointNotInField(f"chi maps {point!r} -> {image!r} outside the field")
        S = _forms_stack(sample_forms, jac.shape[0])
        jac_det = abs(np.linalg.det(congruence_jacobian(jac)))
        pulled = form_entries(congruence(jac, S))
        transformed = transported_density(charts[point], pulled) * jac_det
        direct = transported_density(charts[image], S)
        residuals.append(_worst_relative(transformed, direct))
    return float(np.max(residuals, initial=0.0))


@dataclass(frozen=True)
class GridPoint:
    point_id: int
    y: np.ndarray
    q: SymmetricForm

    @property
    def r_squared(self) -> float:
        return float(np.dot(self.y, self.y))


@dataclass
class MetricFieldGrid:
    """Rectangular lattice of sample points carrying forms of one signature."""

    dim: int
    signature: Signature
    spacing: float
    points: list[GridPoint] = field(default_factory=list)

    def __post_init__(self):
        """Check every point's signature, with one stacked eigenvalue call.

        Raises DegenerateForm or SignatureMismatch for the first point that
        fails either test, naming its id.
        """
        self.signature = Signature(*self.signature)
        n = self.signature.n
        sized = next((k for k, pt in enumerate(self.points) if pt.q.n != n), len(self.points))
        points = self.points[:sized]
        eigs, scale = spectra(np.array([pt.q.entries for pt in points]).reshape(-1, n, n))
        counts = _positive_count(eigs)
        wrong = np.flatnonzero(counts != self.signature.p)
        end = wrong[0] + 1 if wrong.size else sized
        # a degenerate point before the first wrong signature is reported first
        check_spectra(eigs[:end], scale[:end], label=lambda k: f"point {points[k].point_id}")
        if wrong.size:
            bad = points[wrong[0]]
            got = Signature(int(counts[wrong[0]]), n - int(counts[wrong[0]]))
        elif sized < len(self.points):
            bad = self.points[sized]
            got = signature_of(bad.q, method="eigen")
        else:
            return
        raise SignatureMismatch(
            f"point {bad.point_id} carries signature {got}, grid declares {self.signature}"
        )

    def point(self, point_id: int) -> GridPoint:
        for pt in self.points:
            if pt.point_id == point_id:
                return pt
        raise KeyError(f"no grid point with id {point_id}")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "signature": list(self.signature),
            "spacing": self.spacing,
            "points": [
                {"id": pt.point_id, "y": pt.y.tolist(), "q": pt.q.entries.tolist()}
                for pt in self.points
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricFieldGrid":
        points = [
            GridPoint(int(p["id"]), np.asarray(p["y"], dtype=float), SymmetricForm(p["q"]))
            for p in data["points"]
        ]
        return cls(
            dim=int(data["dim"]),
            signature=Signature(*data["signature"]),
            spacing=float(data["spacing"]),
            points=points,
        )


def make_ball_grid(base_form: SymmetricForm, spacing: float = 0.05) -> MetricFieldGrid:
    """Constant-field lattice covering the closed unit ball, center id 0 at y = 0."""
    dim = base_form.n
    m = int(np.ceil(1.0 / spacing))
    axis = spacing * np.arange(-m, m + 1)
    coords = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    order = np.argsort(np.einsum("ij,ij->i", coords, coords), kind="stable")
    points = [GridPoint(k, coords[i].copy(), base_form) for k, i in enumerate(order)]
    return MetricFieldGrid(
        dim=dim,
        signature=signature_of(base_form, method="eigen"),
        spacing=spacing,
        points=points,
    )


def deform_metric_field(
    grid: MetricFieldGrid,
    center_id: int,
    target: SymmetricForm,
    eps: float = 0.1,
) -> MetricFieldGrid:
    """Deform the field inside the unit ball so its center value becomes ``target``.

    The witness g (positive determinant, g^T q_center g = target) is
    carried to the identity along a lazy GL+ curve parameterized by
    r^2(x); points with r^2 >= 1 - eps are untouched, so the exterior is
    returned unchanged and the seam is flat.  Congruences preserve the
    signature, hence the whole output keeps the grid signature.
    """
    center = grid.point(center_id)
    if center.r_squared != 0.0:
        raise ValueError("center point must sit at y = 0")
    if signature_of(target, method="eigen") != grid.signature:
        raise SignatureMismatch("target signature differs from the grid signature")
    t = np.array([pt.r_squared for pt in grid.points])
    if not (t >= 1.0).any():
        raise GridTooCoarse("grid has no point with r^2 >= 1")

    witness = transitive_witness(center.q, target, positive_det=True)
    g = witness.inverse_entries()  # g^T q_center g = target, det g > 0
    s = lazy_smoothstep(t, eps)
    moved = np.flatnonzero(s != 1.0)  # s == 1 keeps a point; it holds for every r^2 > 1
    M = gl_plus_path(g)(1.0 - s[moved])
    q = congruence(M, np.array([grid.points[k].q.entries for k in moved]))

    new_points = list(grid.points)
    for k, entries in zip(moved, q):
        pt = grid.points[k]
        new_points[k] = GridPoint(pt.point_id, pt.y, SymmetricForm(entries))
    return MetricFieldGrid(
        dim=grid.dim, signature=grid.signature, spacing=grid.spacing, points=new_points
    )


def deformation_residuals(
    grid: MetricFieldGrid, deformed: MetricFieldGrid, center_id: int, target: SymmetricForm
) -> tuple[float, int]:
    """(center residual, exterior points changed) of a deformation of ``grid``.

    The center residual is max |q_center - target| on the deformed grid.
    A point with r^2 >= 1 counts as changed unless the deformed grid
    carries the input's own form object there.
    """
    center = float(np.max(np.abs(deformed.point(center_id).q.entries - target.entries)))
    changed = sum(
        1
        for before, after in zip(grid.points, deformed.points)
        if before.r_squared >= 1.0 and after.q is not before.q
    )
    return center, changed
