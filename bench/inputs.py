"""Seeded input generation for the three benchmark workloads.

Everything here depends only on numpy and scipy, never on sigspace: the
program under test sees nothing but the files written here and its argv.
The same seed gives byte-identical files.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.integrate

# Samples per mc/invariance op: two 65536-sample chunks, so the
# two-thread runs get one chunk per worker.
MC_SAMPLES = 2 * 65536
MC_SIGNATURES = {1: (1, 0), 2: (1, 1), 3: (2, 1), 4: (2, 2)}
# Boxes for these n reach across det gamma = 0, so the signature filter
# rejects part of the proposals (acceptance rate < 1).
MC_STRADDLE = (2, 3)
MC_STRADDLE_ACCEPTANCE = 0.8
# Least expected number of proposals inside the bump's support per integral.
MC_MIN_HITS = 200
# Proposals for the high-count reference integral.
REFERENCE_SAMPLES = 2**18

FIELD_GRIDS = (
    # (dim, spacing, signature): 81^2 = 6561 and 21^3 = 9261 points
    (2, 0.025, (1, 1)),
    (3, 0.1, (2, 1)),
)
FIELD_TARGETS = 4
PROJECTIVE_SHAPES = ((6, 3), (4, 5))  # (--points, --dim): D = 729 and 625


def _dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True)
        handle.write("\n")


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed and integer keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def pack(S: np.ndarray) -> np.ndarray:
    """Upper-triangle entries (i <= j) in lexicographic order."""
    rows, cols = np.triu_indices(S.shape[-1])
    return S[..., rows, cols]


def unpack(x: np.ndarray, n: int) -> np.ndarray:
    rows, cols = np.triu_indices(n)
    out = np.zeros(x.shape[:-1] + (n, n))
    out[..., rows, cols] = x
    out[..., cols, rows] = x
    return out


def invariant_density(S: np.ndarray) -> np.ndarray:
    """Closed form 2^{n(n-1)/4} |det gamma|^{-(n+1)/2} of the invariant density."""
    n = S.shape[-1]
    return 2.0 ** (n * (n - 1) / 4) * np.abs(np.linalg.det(S)) ** (-(n + 1) / 2)


def bump(u2: np.ndarray) -> np.ndarray:
    out = np.zeros(u2.shape)
    inside = u2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
    return out


def random_form(rng, signature, max_condition: float = 4.0) -> np.ndarray:
    """Exactly symmetric B eta B^T with a well-conditioned random B."""
    p, q = signature
    eta = np.diag([1.0] * p + [-1.0] * q)
    n = p + q
    while True:
        B = rng.uniform(-1.0, 1.0, (n, n))
        if np.linalg.cond(B) < max_condition:
            S = B @ eta @ B.T
            return 0.5 * (S + S.T)


def _acceptance(lower, upper, signature, probe) -> float:
    """Share of the probe points, mapped into the box, that carry the signature."""
    x = lower + (upper - lower) * probe
    eigs = np.linalg.eigvalsh(unpack(x, sum(signature)))
    return float(np.mean(np.sum(eigs > 0.0, axis=-1) == signature[0]))


def mc_config(rng, n: int) -> dict:
    """Box, bump and diagonal g for one n.

    The bump is centred on a random form.  Its radius r keeps the packed
    cube [c - r, c + r] at Frobenius distance below 0.9 |lambda_min| from
    the centre, so that cube, the bump's support, and the density on it
    stay inside one signature component.  For n in MC_STRADDLE the box is
    stretched along one diagonal coordinate gamma_ii past the point
    t* = -1 / (gamma^-1)_ii where det gamma changes sign, until
    MC_STRADDLE_ACCEPTANCE of it keeps the signature; the rejected part
    lies beyond det gamma = 0, where the bump vanishes.  Forms whose box
    would leave fewer than MC_MIN_HITS expected proposals in the bump's
    support are redrawn, so that every estimate and std error rests on
    enough hits.  g is a positive diagonal matrix: the moved integral then
    sees the same proposals as the plain one, so the program's 3-sigma
    invariance gate cannot trip by chance.
    """
    signature = MC_SIGNATURES[n]
    N = n * (n + 1) // 2
    ball = math.pi ** (N / 2) / math.gamma(N / 2 + 1)
    while True:
        S = random_form(rng, signature)
        radius = 0.9 * float(np.min(np.abs(np.linalg.eigvalsh(S)))) / math.sqrt(2.0 * N)
        center = pack(S)
        lower, upper = center - radius, center + radius
        if n in MC_STRADDLE:
            inv_diag = np.diag(np.linalg.inv(S))
            i = int(np.argmax(np.abs(inv_diag)))
            axis = np.zeros(N)
            axis[list(zip(*np.triu_indices(n))).index((i, i))] = 1.0
            t_star = -1.0 / inv_diag[i]
            probe = rng.uniform(size=(4096, N))

            def stretched(s):
                far = center + s * t_star * axis
                return np.minimum(lower, far), np.maximum(upper, far)

            lo, hi = 1.0, 1.0
            while _acceptance(*stretched(hi), signature, probe) > MC_STRADDLE_ACCEPTANCE:
                lo, hi = hi, 2.0 * hi
            for _ in range(16):
                mid = 0.5 * (lo + hi)
                if _acceptance(*stretched(mid), signature, probe) > MC_STRADDLE_ACCEPTANCE:
                    lo = mid
                else:
                    hi = mid
            lower, upper = stretched(hi)
        hits = MC_SAMPLES * ball * radius**N / float(np.prod(upper - lower))
        if hits >= MC_MIN_HITS:
            break
    g = np.diag(rng.uniform(0.5, 2.0, n))
    return {
        "box": {"signature": list(signature), "lower": lower.tolist(), "upper": upper.tolist()},
        "integrand": {"type": "bump", "center": center.tolist(), "radius": radius},
        "g": g.tolist(),
    }


def mc_reference(config: dict, rng) -> tuple[float, float]:
    """(value, std error) of the bump integral, independent of sigspace.

    n = 1 by quadrature; otherwise by uniform sampling of the bump's ball,
    where the integrand is smooth and bounded.
    """
    c = np.asarray(config["integrand"]["center"])
    r = float(config["integrand"]["radius"])
    N = c.size
    n = int(round((math.sqrt(8 * N + 1) - 1) / 2))
    if n == 1:
        value, _ = scipy.integrate.quad(
            lambda x: bump(np.array([((x - c[0]) / r) ** 2]))[0] / abs(x),
            c[0] - r, c[0] + r, epsabs=1e-14, epsrel=1e-12,
        )
        return value, 0.0
    direction = rng.standard_normal((REFERENCE_SAMPLES, N))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    t = rng.uniform(size=REFERENCE_SAMPLES) ** (1.0 / N)
    x = c + r * t[:, None] * direction
    vals = bump(t * t) * invariant_density(unpack(x, n))
    volume = math.pi ** (N / 2) / math.gamma(N / 2 + 1) * r**N
    return volume * float(np.mean(vals)), volume * float(np.std(vals)) / math.sqrt(vals.size)


def write_mc(seed: int, workdir: str) -> dict:
    """One config file per n plus its reference integral."""
    rng = np.random.default_rng(sub_seed(seed, 0))
    configs = {}
    for n in MC_SIGNATURES:
        config = mc_config(rng, n)
        path = os.path.join(workdir, f"mc_n{n}.json")
        _dump(config, path)
        configs[n] = {"path": path, "reference": mc_reference(config, rng)}
    return configs


def ball_grid(rng, dim: int, spacing: float, signature) -> dict:
    """Lattice over [-1, 1]^dim ordered by r^2 (id 0 at y = 0).

    The field is q(y) = D(y) q0 D(y) with D = diag(1 + y/10): a congruence,
    so every point keeps the signature of q0.
    """
    m = int(round(1.0 / spacing))
    axis = spacing * np.arange(-m, m + 1)
    coords = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    order = np.argsort(np.einsum("ij,ij->i", coords, coords), kind="stable")
    coords = coords[order]
    q0 = random_form(rng, signature)
    d = 1.0 + 0.1 * coords
    q = d[:, :, None] * q0 * d[:, None, :]
    q = 0.5 * (q + np.swapaxes(q, 1, 2))
    return {
        "dim": dim,
        "signature": list(signature),
        "spacing": spacing,
        "points": [
            {"id": k, "y": coords[k].tolist(), "q": q[k].tolist()} for k in range(len(coords))
        ],
    }


def write_fields(seed: int, workdir: str) -> list[dict]:
    """Grids and target forms for the deform ops."""
    rng = np.random.default_rng(sub_seed(seed, 1))
    grids = []
    for dim, spacing, signature in FIELD_GRIDS:
        grid = ball_grid(rng, dim, spacing, signature)
        path = os.path.join(workdir, f"grid_d{dim}.json")
        _dump(grid, path)
        targets = []
        for t in range(FIELD_TARGETS):
            target_path = os.path.join(workdir, f"target_d{dim}_{t}.json")
            _dump({"n": dim, "entries": random_form(rng, signature).tolist()}, target_path)
            targets.append(target_path)
        grids.append({
            "dim": dim,
            "path": path,
            "targets": targets,
            "signature": tuple(signature),
            "points": len(grid["points"]),
            "y": np.array([p["y"] for p in grid["points"]]),
            "q": np.array([p["q"] for p in grid["points"]]),
        })
    return grids
