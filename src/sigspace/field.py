"""Fields of invariant measures over finite point sets, and metric deformation.

A manifold enters only through linear data: per-point frames identifying
each tangent space with the base one, and per-point Jacobians of a
diffeomorphism.  Transporting the base measure through any such frame
yields the same (natural) measure on every fiber, which is what the
frame-independence and diffeomorphism-invariance residuals check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, PointNotInField, SignatureMismatch, SingularFrame
from .forms import Signature, SymmetricForm, signature_of
from . import measure
from .group import gl_plus_path, is_singular, lazy_smoothstep, transitive_witness
from .packing import congruence_jacobian


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


def _natural_density(S: SymmetricForm) -> float:
    return measure.density(S).value


def field_density_at(chart: PointChart, S_on_x: SymmetricForm, base_density=None) -> float:
    """Density at S_on_x of the base measure pushed through the chart's frame.

    The pullback by l_x maps the base fiber onto the fiber over x linearly
    in packed coordinates, so the transported density is the base density
    at the preimage (congruence of S by l_x^-1) times the |det| of the
    inverse coordinate map.
    """
    if base_density is None:
        base_density = _natural_density
    l_inv = np.linalg.inv(chart.frame)
    preimage = SymmetricForm(l_inv.T @ S_on_x.entries @ l_inv)
    return float(base_density(preimage)) * abs(np.linalg.det(congruence_jacobian(l_inv)))


def frame_independence_residual(
    l: PointChart,
    l_prime: PointChart,
    sample_forms: list[SymmetricForm],
    base_density=None,
) -> float:
    """max over samples of |density via l - density via l'| (relative).

    Transporting an invariant measure does not depend on the frame, so the
    contract is residual < 1e-9.
    """
    worst = 0.0
    for S in sample_forms:
        d1 = field_density_at(l, S, base_density)
        d2 = field_density_at(l_prime, S, base_density)
        worst = max(worst, abs(d1 - d2) / abs(d1))
    return worst


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
    charts: dict,
    chi: DiffeoJacobianField,
    sample_forms: list[SymmetricForm],
    base_density=None,
) -> float:
    """max relative residual of the transformed field against the original one.

    For each point y with image x = chi(y), the transformed measure at x is
    the field measure at y transported along the tangent map: its density
    at a form S is the y-density at J^T S J times |det| of the packed
    congruence by J.  Invariance means this equals the x-density.
    """
    worst = 0.0
    for point, (image, jac) in chi.mapping.items():
        if point not in charts or image not in charts:
            raise PointNotInField(f"chi maps {point!r} -> {image!r} outside the field")
        jac_det = abs(np.linalg.det(congruence_jacobian(jac)))
        for S in sample_forms:
            pulled = SymmetricForm(jac.T @ S.entries @ jac)
            transformed = field_density_at(charts[point], pulled, base_density) * jac_det
            direct = field_density_at(charts[image], S, base_density)
            worst = max(worst, abs(transformed - direct) / abs(direct))
    return worst


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
        self.signature = Signature(*self.signature)
        for pt in self.points:
            got = signature_of(pt.q, method="eigen")
            if got != self.signature:
                raise SignatureMismatch(
                    f"point {pt.point_id} carries signature {got}, grid declares {self.signature}"
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
    if not any(pt.r_squared >= 1.0 for pt in grid.points):
        raise GridTooCoarse("grid has no point with r^2 >= 1")

    witness = transitive_witness(center.q, target, positive_det=True)
    g = witness.inverse_entries()  # g^T q_center g = target, det g > 0
    path = gl_plus_path(g)

    new_points = []
    for pt in grid.points:
        t = pt.r_squared
        if t > 1.0:
            new_points.append(pt)
            continue
        s = lazy_smoothstep(t, eps)
        if s == 1.0:
            new_points.append(pt)
            continue
        M = path(1.0 - s)
        new_points.append(GridPoint(pt.point_id, pt.y, SymmetricForm(M.T @ pt.q.entries @ M)))
    return MetricFieldGrid(
        dim=grid.dim, signature=grid.signature, spacing=grid.spacing, points=new_points
    )
