"""Finite-stage projective machinery over point labels.

Labels are finite point sets ordered by inclusion; each label carries the
tensor product of its per-point factor spaces in canonical sorted order.
Observables embed by tensoring with the identity on the new factors (the
factorization isomorphisms are the induced slot permutations, so all
diagram identities hold as exact matrix equalities), and states restrict
by partial trace, the matrix realization of the embedding's adjoint.

The identities of this system are checked in one place each:
``embedding_residuals`` (unital, multiplicative, star, isometric,
duality), ``tower_residual`` and ``net_residual``, on observables and
states drawn by ``random_observable``, ``random_state``, ``dyadic_state``
and ``random_state_field``.  The CLI's projective demo and acceptance
criterion 9 both call them.

An L^2 bridge ties the one-dimensional fiber to the invariant measure:
there the density is 1/gamma on the positive half-line, and inner
products are evaluated with composite Gauss-Legendre panels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    LabelNotContained,
    LinearlyDependentInput,
    MissingPoint,
    QuadratureDomainTooSmall,
)

_HERMITICITY_ATOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_TRACE_ATOL = 1e-10
_NORM_ATOL = 1e-10


class Label:
    """A finite set of point ids; the order by inclusion is directed."""

    __slots__ = ("ids",)

    def __init__(self, ids):
        ids = tuple(sorted(ids))
        if len(set(ids)) != len(ids):
            raise ValueError("label contains duplicate point ids")
        self.ids = ids

    def __repr__(self) -> str:
        return f"Label({set(self.ids) if self.ids else '{}'})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Label) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, point) -> bool:
        return point in self.ids

    def issubset(self, other: "Label") -> bool:
        return set(self.ids) <= set(other.ids)

    def difference(self, other: "Label") -> "Label":
        return Label(set(self.ids) - set(other.ids))


def compare_labels(a: Label, b: Label) -> str:
    """One of 'less', 'greater', 'equal', 'incomparable' under inclusion."""
    if a == b:
        return "equal"
    if a.issubset(b):
        return "less"
    if b.issubset(a):
        return "greater"
    return "incomparable"


def join(a: Label, b: Label) -> Label:
    """The union, an upper bound of both labels."""
    return Label(set(a.ids) | set(b.ids))


class TensorSpace:
    """Tensor product of per-point factors in canonical sorted order."""

    __slots__ = ("label", "dims")

    def __init__(self, label: Label, dims):
        self.label = label
        self.dims = {point: int(dims[point]) for point in label.ids}
        for point, d in self.dims.items():
            if d < 1:
                raise ValueError(f"factor dimension at point {point!r} must be >= 1")

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(self.dims[point] for point in self.label.ids)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims, dtype=np.int64)) if self.label.ids else 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorSpace)
            and self.label == other.label
            and self.dims == other.dims
        )

    def __hash__(self):
        return hash((self.label, tuple(sorted(self.dims.items()))))


class Observable:
    """A (bounded) operator on the tensor space of a label."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: TensorSpace, matrix):
        matrix = np.array(matrix, dtype=complex)
        D = space.total_dim
        if matrix.shape != (D, D):
            raise ValueError(f"matrix must be {D}x{D} for label {space.label}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("observable entries must be finite")
        matrix.flags.writeable = False
        self.space = space
        self.matrix = matrix

    @classmethod
    def identity(cls, space: TensorSpace) -> "Observable":
        return cls(space, np.eye(space.total_dim, dtype=complex))


class StateDensity:
    """A density matrix: hermitian, positive semidefinite, unit trace."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: TensorSpace, matrix):
        matrix = np.array(matrix, dtype=complex)
        D = space.total_dim
        if matrix.shape != (D, D):
            raise ValueError(f"matrix must be {D}x{D} for label {space.label}")
        if np.max(np.abs(matrix - matrix.conj().T)) > _HERMITICITY_ATOL:
            raise ValueError("state matrix is not hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
        if float(np.min(eigs)) < _EIGENVALUE_FLOOR:
            raise ValueError(f"state has a negative eigenvalue: {np.min(eigs):.3e}")
        if abs(np.trace(matrix).real - 1.0) > _TRACE_ATOL or abs(np.trace(matrix).imag) > _TRACE_ATOL:
            raise ValueError(f"state trace is {np.trace(matrix):.12g}, expected 1")
        matrix.flags.writeable = False
        self.space = space
        self.matrix = matrix


class StateField:
    """point id -> unit vector in that point's factor space."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: dict):
        clean = {}
        for point, vec in vectors.items():
            vec = np.array(vec, dtype=complex)
            if abs(np.linalg.norm(vec) - 1.0) > _NORM_ATOL:
                raise ValueError(f"vector at point {point!r} is not normalized")
            vec.flags.writeable = False
            clean[point] = vec
        self.vectors = clean

    def dims(self) -> dict:
        return {point: vec.size for point, vec in self.vectors.items()}


def _grouped_permutation(label_prime: Label, label: Label, dims: dict) -> np.ndarray:
    """sigma[i] = position of canonical basis vector i in the (tilde, label) order."""
    canon = label_prime.ids
    tilde = label_prime.difference(label)
    grouped = tilde.ids + label.ids
    dims_canon = [int(dims[p]) for p in canon]
    multi = np.unravel_index(np.arange(int(np.prod(dims_canon, dtype=np.int64))), dims_canon)
    by_point = dict(zip(canon, multi))
    return np.ravel_multi_index(
        [by_point[p] for p in grouped], [int(dims[p]) for p in grouped]
    )


def embed_observable(a: Observable, label_prime: Label, dims: dict) -> Observable:
    """Extend an observable by the identity on the factors of label_prime \\ label.

    The extension is conjugated by the slot permutation aligning factors
    to canonical sorted order, so it only places entries of ``a`` (no
    arithmetic): embeddings compose exactly, and the map is a unital
    isometric *-homomorphism.
    """
    label = a.space.label
    if not label.issubset(label_prime):
        raise LabelNotContained(f"{label} is not contained in {label_prime}")
    for point in label.ids:
        if point in dims and int(dims[point]) != a.space.dims[point]:
            raise ValueError(f"dimension conflict at point {point!r}")
    full_dims = dict(dims)
    full_dims.update(a.space.dims)
    space_prime = TensorSpace(label_prime, full_dims)
    if label == label_prime:
        return Observable(space_prime, a.matrix)
    tilde = label_prime.difference(label)
    d_tilde = int(np.prod([full_dims[p] for p in tilde.ids], dtype=np.int64))
    grouped = np.kron(np.eye(d_tilde), a.matrix)
    sigma = _grouped_permutation(label_prime, label, full_dims)
    return Observable(space_prime, grouped[np.ix_(sigma, sigma)])


def _partial_trace(matrix: np.ndarray, factor_dims: tuple[int, ...], keep_mask) -> np.ndarray:
    """Trace out the factors where keep_mask is False, highest slot first."""
    k = len(factor_dims)
    tensor = matrix.reshape(factor_dims + factor_dims)
    remaining = list(range(k))
    for slot in reversed(range(k)):
        if keep_mask[slot]:
            continue
        pos = remaining.index(slot)
        tensor = np.trace(tensor, axis1=pos, axis2=pos + len(remaining))
        remaining.pop(pos)
    D = int(np.prod([factor_dims[s] for s in remaining], dtype=np.int64))
    return tensor.reshape(D, D)


def restrict_state(rho: StateDensity, label: Label) -> StateDensity:
    """Partial trace onto the factors of ``label`` (the adjoint of embedding)."""
    label_prime = rho.space.label
    if not label.issubset(label_prime):
        raise LabelNotContained(f"{label} is not contained in {label_prime}")
    if label == label_prime:
        return StateDensity(rho.space, rho.matrix)
    keep = [point in label.ids for point in label_prime.ids]
    reduced = _partial_trace(rho.matrix, rho.space.factor_dims, keep)
    return StateDensity(TensorSpace(label, rho.space.dims), reduced)


def extend_state(rho: StateDensity, label_prime: Label, dims: dict, filler=None) -> StateDensity:
    """Product extension rho (x) sigma to a larger label; restricts back to rho.

    ``filler`` maps each new point to a density matrix on its factor
    (default: maximally mixed).  This is the constructive witness that
    restriction is onto the states of every stage.
    """
    label = rho.space.label
    if not label.issubset(label_prime):
        raise LabelNotContained(f"{label} is not contained in {label_prime}")
    full_dims = dict(dims)
    full_dims.update(rho.space.dims)
    tilde = label_prime.difference(label)
    block = np.eye(1, dtype=complex)
    for point in tilde.ids:
        d = int(full_dims[point])
        factor = np.eye(d, dtype=complex) / d if filler is None else np.asarray(filler[point], dtype=complex)
        block = np.kron(block, factor)
    grouped = np.kron(block, rho.matrix)
    sigma = _grouped_permutation(label_prime, label, full_dims)
    return StateDensity(TensorSpace(label_prime, full_dims), grouped[np.ix_(sigma, sigma)])


def pure_state_net(field: StateField, labels: list[Label]) -> dict[Label, StateDensity]:
    """Rank-one densities of the product vectors, one per label.

    These nets are projectively consistent: restricting the state of a
    larger label yields the state of the smaller one.
    """
    dims = field.dims()
    net = {}
    for label in labels:
        for point in label.ids:
            if point not in field.vectors:
                raise MissingPoint(f"state field has no vector at point {point!r}")
        psi = np.ones(1, dtype=complex)
        for point in label.ids:
            psi = np.kron(psi, field.vectors[point])
        net[label] = StateDensity(
            TensorSpace(label, dims), np.outer(psi, psi.conj())
        )
    return net


def random_observable(space: TensorSpace, rng) -> Observable:
    """Complex standard normal entries, scaled to largest modulus 1."""
    D = space.total_dim
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return Observable(space, A / np.max(np.abs(A)))


def random_state(space: TensorSpace, rng) -> StateDensity:
    """A A^* over its trace, with A complex standard normal."""
    D = space.total_dim
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    M = A @ A.conj().T
    return StateDensity(space, M / np.trace(M).real)


def dyadic_state(space: TensorSpace, rng) -> StateDensity:
    """Random density matrix whose entries are short dyadics (exactly summable)."""
    D = space.total_dim
    if D == 1:
        return StateDensity(space, np.eye(1, dtype=complex))
    cuts = np.sort(rng.choice(np.arange(1, 64), size=D - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [64])))
    mat = np.diag(parts.astype(complex) / 64.0)
    for i in range(D):
        for j in range(i + 1, D):
            # small dyadic off-diagonals keep the matrix diagonally dominant
            mat[i, j] = complex(rng.integers(-3, 4), rng.integers(-3, 4)) / 32768.0
            mat[j, i] = np.conjugate(mat[i, j])
    return StateDensity(space, mat)


def random_state_field(dims: dict, rng) -> StateField:
    """A normalized complex standard normal vector per point, in ``dims`` order."""
    vectors = {}
    for point, d in dims.items():
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vectors[point] = v / np.linalg.norm(v)
    return StateField(vectors)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def embedding_residuals(a: Observable, b: Observable, rho: StateDensity, dims: dict) -> dict:
    """Residuals of iota into rho's label being a unital isometric *-homomorphism.

    ``a`` and ``b`` live on a label below rho's.  The keys are 'unital',
    'multiplicative' (iota(ab) against iota(a) iota(b)), 'star', 'isometric'
    (operator 2-norms) and 'duality' (tr(pi(rho) a) against tr(rho iota(a))).
    """
    space, label_prime = a.space, rho.space.label
    iota_one = embed_observable(Observable.identity(space), label_prime, dims).matrix
    iota_a = embed_observable(a, label_prime, dims).matrix
    iota_b = embed_observable(b, label_prime, dims).matrix
    iota_ab = embed_observable(Observable(space, a.matrix @ b.matrix), label_prime, dims).matrix
    iota_a_star = embed_observable(Observable(space, a.matrix.conj().T), label_prime, dims).matrix
    restricted = restrict_state(rho, space.label).matrix
    return {
        "unital": _max_abs(iota_one - np.eye(len(iota_one))),
        "multiplicative": _max_abs(iota_ab - iota_a @ iota_b),
        "star": _max_abs(iota_a_star - iota_a.conj().T),
        "isometric": float(abs(np.linalg.norm(iota_a, 2) - np.linalg.norm(a.matrix, 2))),
        "duality": float(abs(np.trace(restricted @ a.matrix) - np.trace(rho.matrix @ iota_a))),
    }


def tower_residual(rho: StateDensity, chain) -> float:
    """Restriction of rho to ``small`` directly against through ``middle``.

    ``chain`` is (small, middle) with small < middle < rho's label; the
    residual is the largest entry of the difference.
    """
    small, middle = chain
    direct = restrict_state(rho, small).matrix
    return _max_abs(direct - restrict_state(restrict_state(rho, middle), small).matrix)


def net_residual(net: dict) -> float:
    """Worst projective inconsistency of a state net over its nested label pairs."""
    worst = 0.0
    for small in net:
        for big in net:
            if small != big and small.issubset(big):
                worst = max(worst, _max_abs(restrict_state(net[big], small).matrix - net[small].matrix))
    return worst


def rescale_isomorphism_check(
    c: float, a: Observable, label: Label, label_prime: Label, dims: dict
) -> float:
    """Residual of the naturality square for rescaling the measure by c > 0.

    Rescaling multiplies each factor's inner product by c, so the unitary
    between the two towers is the scalar c^(-#label/2) on each stage; the
    check evaluates u_{label'} o iota o u_label^-1 against iota literally,
    together with the factorization of the scalars.
    """
    if c <= 0.0:
        raise ValueError("rescaling constant must be positive")
    if a.space.label != label:
        raise ValueError("observable must live on the given label")
    iota = embed_observable(a, label_prime, dims).matrix
    u_small = c ** (-len(label) / 2.0)
    u_big = c ** (-len(label_prime) / 2.0)
    conjugated = u_big * embed_observable(
        Observable(a.space, (1.0 / u_small) * a.matrix * u_small), label_prime, dims
    ).matrix * (1.0 / u_big)
    matrix_residual = float(np.max(np.abs(conjugated - iota)))
    tilde = label_prime.difference(label)
    u_tilde = c ** (-len(tilde) / 2.0)
    factor_residual = abs(u_big - u_tilde * u_small) / u_big
    return max(matrix_residual, factor_residual)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre panels on [gamma_min, gamma_max]."""

    gamma_min: float = 1e-12
    gamma_max: float = 60.0
    panels: int = 64
    nodes: int = 16

    def __post_init__(self):
        if not (0.0 < self.gamma_min < self.gamma_max):
            raise ValueError("need 0 < gamma_min < gamma_max")
        if self.panels < 1 or self.nodes < 2:
            raise ValueError("need panels >= 1 and nodes >= 2")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=None)
def _panel_rule(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(spec.nodes)
    edges = np.linspace(spec.gamma_min, spec.gamma_max, spec.panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def l2_inner_product(
    psi1,
    psi2,
    quad: QuadratureSpec = DEFAULT_QUAD,
    boundary_tol: float = 1e-8,
) -> complex:
    """<psi1, psi2> in L^2 of the positive half-line with weight 1/gamma.

    This is the n = 1 fiber of signature (1, 0), where the invariant
    measure density is 1/gamma.  The integrand conj(psi1) psi2 / gamma
    must be resolvable on the quadrature window; the contribution lost
    outside it is estimated from the endpoint values and must stay below
    ``boundary_tol``.
    """
    nodes, weights = _panel_rule(quad)

    def integrand(g):
        return np.conjugate(psi1(g)) * psi2(g) / g

    for endpoint in (quad.gamma_min, quad.gamma_max):
        tail = abs(integrand(np.asarray(endpoint))) * endpoint
        if tail > boundary_tol:
            raise QuadratureDomainTooSmall(
                f"estimated boundary contribution {tail:.3e} at gamma = {endpoint:g} "
                f"exceeds {boundary_tol:.1e}"
            )
    return complex(np.sum(weights * integrand(nodes)))


def gram_schmidt_basis(
    functions: list,
    quad: QuadratureSpec = DEFAULT_QUAD,
    max_gram_condition: float = 1e8,
) -> list:
    """Orthonormalize functions in the invariant-measure inner product.

    Returns callables e_k = sum_i c_ki f_i with <e_a, e_b> = delta_ab to
    quadrature accuracy.  The coefficients come from the inverse Cholesky
    factor of the Gram matrix, which must have condition number below
    ``max_gram_condition``.
    """
    k = len(functions)
    if k == 0:
        return []
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = l2_inner_product(functions[i], functions[j], quad)
            gram[j, i] = np.conjugate(gram[i, j])
    if np.linalg.cond(gram) >= max_gram_condition:
        raise LinearlyDependentInput(
            f"Gram matrix condition number {np.linalg.cond(gram):.3e} "
            f"exceeds {max_gram_condition:.1e}"
        )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise LinearlyDependentInput("Gram matrix is not positive definite") from exc
    coeffs = np.linalg.inv(chol).conj().T  # columns: e_k = sum_i coeffs[i, k] f_i

    def make(k_idx):
        col = coeffs[:, k_idx].copy()

        def basis_fn(g):
            return sum(col[i] * functions[i](g) for i in range(k))

        return basis_fn

    return [make(j) for j in range(k)]
