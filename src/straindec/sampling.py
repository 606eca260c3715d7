"""Deterministic random instance generation for verification campaigns.

Reproducibility contract: every sample owns an independent generator derived
as PCG64(SeedSequence(master_seed, spawn_key=(sample_index,))), so campaigns
give identical results no matter how samples are distributed over workers.
Within one sample the draw order is fixed: metric factor(s) first (redrawn
whole on a conditioning retry), then the target-metric factor, then dphi,
then direction parameters (rapidities, then sphere normals).

``draw_chunk_arrays`` reads whole chunks of samples in that order without a
Python loop over the draws themselves: each slot still builds its own
generator, takes every uniform it needs from one ``random`` call (the metric
factor, the target factor, dphi, the rapidities) and then its normals, and
the conditioning and domain tests run on the whole batch.  A slot whose first
metric candidate is rejected, or whose geometry falls outside the
Lagrangian's domain, is replayed from a fresh generator one sample at a time
(``draw_geometry_arrays``, the same domain test on a batch of one,
``draw_direction_params``), so retries, counters and starvation errors are
those of the one-sample-at-a-time loop, and every value is bit for bit the
same.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, SamplerStarvationError
from .lagrangians import LagrangianSpec, _always_inside
from .multilinear import DEFAULT_CONDITION_BOUND, LorentzianMetric, RiemannianMetric
from .strain import PointGeometry, batch_charpoly_coefficients, batch_strain

# Metric perturbation amplitude: g = L^T eta L with L = I + PERTURBATION * R.
PERTURBATION = 0.25
# SPD ridge added to the random Gram target metric.
RIDGE = 0.1
# Fresh metric draws attempted before giving up on the condition bound.
MAX_METRIC_TRIES = 20
# Default rapidity cap for boosted timelike directions.
BOOST_CAP = 5.0
# Largest usable rapidity cap.  cosh(r) ~ e^r / 2, so the roundoff in g(X, X)
# grows like e^(2r) eps; at ln(1/eps) / 4 normalizing X keeps at least half
# of the digits.
MAX_BOOST_CAP = float(np.log(1.0 / np.finfo(float).eps)) / 4.0
# Rejection attempts per sample slot for restricted-domain Lagrangians.
MAX_DOMAIN_TRIES = 100


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-sample generator: a pure function of (master seed, sample index)."""
    if not 0 <= int(master_seed) < 2**64:
        raise ValueError("master seed must fit in 64 unsigned bits")
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    )


def draw_geometry_arrays(
    rng: np.random.Generator,
    m_plus_1: int,
    n: int,
    entry_range: float = 1.0,
    rank_override: int | None = None,
    *,
    perturbation: float = PERTURBATION,
    ridge: float = RIDGE,
    condition_bound: float = DEFAULT_CONDITION_BOUND,
    max_tries: int = MAX_METRIC_TRIES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Raw (g, h, dphi, metric_retries) draws behind ``sample_geometry``.

    Kept separate so the batch engine can consume the exact same stream of
    draws without building dataclasses per sample.
    """
    _check_geometry_args(m_plus_1, n, entry_range, rank_override)
    eta = np.eye(m_plus_1)
    eta[0, 0] = -1.0
    retries = 0
    g = None
    for _ in range(max_tries):
        r = rng.uniform(-1.0, 1.0, size=(m_plus_1, m_plus_1))
        ell = np.eye(m_plus_1) + perturbation * r
        cand = ell.T @ eta @ ell
        cand = 0.5 * (cand + cand.T)
        w = np.linalg.eigvalsh(cand)
        ok_sig = w[0] < 0.0 and (m_plus_1 == 1 or w[1] > 0.0)
        if ok_sig and np.max(np.abs(w)) <= condition_bound * np.min(np.abs(w)):
            g = cand
            break
        retries += 1
    if g is None:
        raise ConditioningError(
            f"no metric satisfying the condition bound after {max_tries} draws"
        )
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    h = a.T @ a + ridge * np.eye(n)
    h = 0.5 * (h + h.T)
    dphi = rng.uniform(-entry_range, entry_range, size=(n, m_plus_1))
    if rank_override is not None:
        dphi = _truncate_rank(dphi, rank_override)
    return g, h, dphi, retries


def _check_geometry_args(m_plus_1, n, entry_range, rank_override) -> None:
    if m_plus_1 < 1 or n < 1:
        raise ValueError("dimensions must be at least 1")
    if entry_range < 0.0:
        raise ValueError("entry_range must be nonnegative")
    if rank_override is not None and not 0 <= rank_override <= min(m_plus_1, n):
        raise ValueError(
            f"rank_override {rank_override} outside [0, {min(m_plus_1, n)}]"
        )


def _truncate_rank(dphi: np.ndarray, rank: int) -> np.ndarray:
    """Zero all but the top ``rank`` singular values of one map or a stack."""
    if rank == 0:
        return np.zeros(dphi.shape)
    u, sv, vt = np.linalg.svd(dphi, full_matrices=False)
    sv[..., rank:] = 0.0
    return (u * sv[..., None, :]) @ vt


def sample_geometry(
    m_plus_1: int,
    n: int,
    entry_range: float = 1.0,
    rank_override: int | None = None,
    rng: np.random.Generator | None = None,
    **draw_kwargs,
) -> PointGeometry:
    """Draw one random geometry: g = L^T eta L, h = A^T A + ridge I, dphi uniform.

    ``rank_override`` truncates the singular values of dphi so its rank is
    exact (0 produces the zero map).  Deterministic given the generator state.
    """
    if rng is None:
        rng = np.random.default_rng()
    g, h, dphi, _ = draw_geometry_arrays(
        rng, m_plus_1, n, entry_range, rank_override, **draw_kwargs
    )
    return PointGeometry(
        metric=LorentzianMetric(g), target_metric=RiemannianMetric(h), dphi=dphi
    )


def draw_direction_params(
    rng: np.random.Generator, count: int, spatial_dim: int, boost_cap: float = BOOST_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Raw rapidities and sphere normals for ``count`` timelike directions."""
    if count < 1:
        raise ValueError("need at least one direction")
    if boost_cap < 0.0:
        raise ValueError("boost_cap must be nonnegative")
    rapidity = rng.uniform(0.0, boost_cap, size=count)
    normals = rng.normal(size=(count, spatial_dim))
    return rapidity, normals


def draw_chunk_arrays(
    master_seed: int,
    start: int,
    stop: int,
    m_plus_1: int,
    n: int,
    num_directions: int,
    entry_range: float = 1.0,
    boost_cap: float = BOOST_CAP,
    rank_override: int | None = None,
    lagrangian: LagrangianSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict]:
    """Draws of samples [start, stop), bit-equal to the per-sample scalar loop.

    Returns stacked (g, h, dphi, rapidity, normals) and the ``domain_draws``,
    ``domain_accepted`` and ``metric_retries`` counters.  Sample ``start + k``
    is what ``derive_rng(master_seed, start + k)`` followed by
    ``draw_geometry_arrays`` (repeated until the geometry lies in the domain
    of ``lagrangian``, if one is given) and ``draw_direction_params`` yield.
    Raises ``ConditioningError`` or ``SamplerStarvationError`` exactly where
    that loop would.
    """
    _check_geometry_args(m_plus_1, n, entry_range, rank_override)
    if num_directions < 1:
        raise ValueError("need at least one direction")
    if boost_cap < 0.0:
        raise ValueError("boost_cap must be nonnegative")
    m1, ndir = m_plus_1, num_directions
    batch = stop - start
    restricted = (
        lagrangian is not None and lagrangian.domain_predicate is not _always_inside
    )

    # Per slot: its own generator, every uniform of a first-try draw, normals.
    sizes = (m1 * m1, n * n, n * m1, ndir)
    uniforms = np.empty((batch, sum(sizes)))
    normals = np.empty((batch, ndir, m1 - 1))
    for k in range(batch):
        rng = derive_rng(master_seed, start + k)
        rng.random(out=uniforms[k])
        normals[k] = rng.normal(size=(ndir, m1 - 1))
    u_metric, u_target, u_dphi, u_rap = np.split(uniforms, np.cumsum(sizes)[:-1], axis=1)

    # The scalar formulas on stacks.  Generator.uniform(low, high) is
    # low + (high - low) * random() on the bounds converted to float.
    entry_range, boost_cap = float(entry_range), float(boost_cap)
    eta = np.eye(m1)
    eta[0, 0] = -1.0
    ell = np.eye(m1) + PERTURBATION * (-1.0 + 2.0 * u_metric.reshape(batch, m1, m1))
    g = ell.transpose(0, 2, 1) @ eta @ ell
    g = 0.5 * (g + g.transpose(0, 2, 1))
    a = -1.0 + 2.0 * u_target.reshape(batch, n, n)
    h = a.transpose(0, 2, 1) @ a + RIDGE * np.eye(n)
    h = 0.5 * (h + h.transpose(0, 2, 1))
    low = -entry_range
    dphi = low + (entry_range - low) * u_dphi.reshape(batch, n, m1)
    if rank_override is not None:
        dphi = _truncate_rank(dphi, rank_override)
    rapidity = 0.0 + (boost_cap - 0.0) * u_rap

    w = np.linalg.eigvalsh(g)
    w_abs = np.abs(w)
    fast = w[:, 0] < 0.0
    if m1 > 1:
        fast &= w[:, 1] > 0.0
    fast &= np.max(w_abs, axis=1) <= DEFAULT_CONDITION_BOUND * np.min(w_abs, axis=1)
    if restricted:
        ok = np.flatnonzero(fast)
        fast[ok] = _domain_inside(lagrangian, g[ok], h[ok], dphi[ok])

    # Slots the fast path cannot vouch for replay the scalar loop, in index
    # order, so a starvation error reports the acceptance rate of exactly the
    # draws that precede it.
    counters = {"domain_draws": 0, "domain_accepted": 0, "metric_retries": 0}

    def redraw(index: int):
        rng = derive_rng(master_seed, index)
        tries = 0
        while True:
            # The module constants, read now as the batched path reads them.
            g, h, dphi, retries = draw_geometry_arrays(
                rng, m1, n, entry_range, rank_override,
                perturbation=PERTURBATION, ridge=RIDGE,
                condition_bound=DEFAULT_CONDITION_BOUND,
            )
            counters["metric_retries"] += retries
            counters["domain_draws"] += 1
            if not restricted:
                break
            if _domain_inside(lagrangian, g[None], h[None], dphi[None])[0]:
                break
            tries += 1
            if tries >= MAX_DOMAIN_TRIES:
                rate = counters["domain_accepted"] / counters["domain_draws"]
                raise SamplerStarvationError(
                    f"sample {index}: domain of {lagrangian.name} rejected "
                    f"{MAX_DOMAIN_TRIES} consecutive draws "
                    f"(chunk acceptance rate {rate:.4f})",
                    acceptance_rate=rate,
                )
        counters["domain_accepted"] += 1
        return (g, h, dphi) + draw_direction_params(rng, ndir, m1 - 1, boost_cap)

    counted = 0
    for k in np.flatnonzero(~fast).tolist():
        counters["domain_draws"] += k - counted
        counters["domain_accepted"] += k - counted
        g[k], h[k], dphi[k], rapidity[k], normals[k] = redraw(start + k)
        counted = k + 1
    counters["domain_draws"] += batch - counted
    counters["domain_accepted"] += batch - counted
    return g, h, dphi, rapidity, normals, counters


def _domain_inside(lagrangian: LagrangianSpec, g, h, dphi) -> np.ndarray:
    """Domain test of the strain invariants of stacked geometries."""
    s = batch_charpoly_coefficients(batch_strain(g, h, dphi)[1])
    return np.asarray(lagrangian.domain_predicate(s), dtype=bool)


def batch_assemble_directions(frames, rapidity, normals) -> np.ndarray:
    """Boosted timelike legs X = cosh(r) e_0 + sinh(r) (unit u . e_spatial).

    Frames (B, dim, dim) hold e_a as columns; rapidities (B, K) and sphere
    normals (B, K, dim-1) give K directions per frame.  A zero normal falls
    back to the first spatial leg.
    """
    batch, dim, _ = frames.shape
    if dim == 1:
        shape = (batch, rapidity.shape[1], dim)
        return np.broadcast_to(frames[:, None, :, 0], shape).copy()
    lengths = np.linalg.norm(normals, axis=2, keepdims=True)
    fallback = np.zeros(dim - 1)
    fallback[0] = 1.0
    unit = np.where(lengths > 0.0, normals / np.where(lengths == 0.0, 1.0, lengths), fallback)
    return np.cosh(rapidity)[:, :, None] * frames[:, None, :, 0] + np.sinh(rapidity)[
        :, :, None
    ] * np.einsum("bdk,bik->bdi", unit, frames[:, :, 1:])


def assemble_directions(basis, rapidity, normals) -> np.ndarray:
    """Boost one frame's timelike leg (``batch_assemble_directions`` on a batch of one)."""
    basis = np.asarray(basis, dtype=float)
    rapidity = np.asarray(rapidity, dtype=float).reshape(1, -1)
    normals = np.asarray(normals, dtype=float)
    normals = normals.reshape(1, rapidity.shape[1], basis.shape[0] - 1)
    return batch_assemble_directions(basis[None], rapidity, normals)[0]


def sample_timelike_directions(
    basis, rng: np.random.Generator, count: int, boost_cap: float = BOOST_CAP
) -> np.ndarray:
    """Sample unit timelike vectors boosted off an orthonormal frame.

    Rapidities are uniform on [0, boost_cap] and spatial directions uniform on
    the sphere, so the rows satisfy g(X, X) = -1 up to roundoff.
    """
    basis = np.asarray(basis, dtype=float)
    rapidity, normals = draw_direction_params(rng, count, basis.shape[0] - 1, boost_cap)
    return assemble_directions(basis, rapidity, normals)
