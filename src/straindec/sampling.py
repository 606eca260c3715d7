"""Deterministic random instance generation for verification campaigns.

Reproducibility contract: every sample owns an independent generator derived
as PCG64(SeedSequence(master_seed, spawn_key=(sample_index,))), so campaigns
give identical results no matter how samples are distributed over workers.
Within one sample the draw order is fixed: metric factor(s) first (redrawn
whole on a conditioning retry), then the target-metric factor, then dphi,
then direction parameters (rapidities, then sphere normals).

Each draw formula is written once, as a kernel over a leading batch axis
that maps uniforms on [0, 1) to values: ``_metric_candidates`` (g),
``_metric_accepted`` (``LorentzianMetric``'s signature and condition
test, ``multilinear.lorentzian_tests``) and
``_target_and_map`` (h and dphi).  A value uniform on [low, high) is
low + (high - low) * random(), which is what ``Generator.uniform`` computes.
``draw_chunk_arrays`` runs the kernels on a whole chunk: each slot still
reads its own stream and takes every uniform of its geometry (the metric
factor, the target factor, dphi) from one ``random`` call, and the
conditioning and domain tests run on the whole batch.  Its directions are
drawn one block of samples at a time, when the caller reaches the block:
the first block's slots draw them in the seeding loop, from the live
stream (one ``random`` call for geometry and rapidities, then the normals),
and a later slot reads its PCG64 state off its generator after the geometry
and sets it again for its block.  So a chunk holds one block of direction
parameters.  The chunk path does not build a ``SeedSequence`` per slot: it
computes the same seed words and PCG64 states arithmetically
(``_spawn_seed_words``, ``_chunk_generators``) and sets them on one reused
generator.  Only the spawn-key word differs between the samples of a chunk,
so the seed's own entropy is mixed once per chunk.  ``derive_rng`` stays
the reference the tests pin this copy of numpy's seeding against, and a
chunk reaching sample index 2**32 (whose spawn key has two words) uses it
for every slot.
``draw_geometry_arrays`` runs the same kernels on a batch of one.  A slot
whose first metric candidate is rejected, or whose geometry falls outside the
Lagrangian's domain, is replayed from a fresh generator one sample at a time
(``draw_geometry_arrays``, the same domain test on a batch of one,
``draw_direction_params``), so retries, counters and starvation errors are
those of the one-sample-at-a-time loop, and every value is bit for bit the
same.

``batch_assemble_directions`` boosts each frame's timelike leg along its
directions.  Every stack, a batch of one included, runs one contiguous
(samples, directions) row per normal component and per output component,
with scratch sized to the stack, so the bits depend on neither the stack's
size nor the frames' memory layout.  It does not block its rows:
``engine.run_chunk`` gives it one row block at a time.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ConditioningError, SamplerStarvationError
from .lagrangians import LagrangianSpec, _always_inside
from .multilinear import (
    LorentzianMetric,
    RiemannianMetric,
    lane_sum,
    lorentzian_tests,
)
from .strain import PointGeometry, batch_charpoly_coefficients, batch_strain

# Metric perturbation amplitude a: g = L^T eta L with L = I + a R.
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

# numpy's SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# Sample indices below this have a one-word spawn key.
_ONE_WORD_INDICES = 2**32


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-sample generator: a pure function of (master seed, sample index)."""
    _check_seed_args(master_seed, index)
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    )


def _check_seed_args(master_seed: int, index: int) -> None:
    if not 0 <= int(master_seed) < 2**64:
        raise ValueError("master seed must fit in 64 unsigned bits")
    if index < 0:
        raise ValueError("sample index must be nonnegative")


def _hash(value, const: int, mult: int):
    """SeedSequence's word hash on a Python int or a uint32 array: (hash, next const).

    ``hashmix`` uses it with ``_MULT_A`` and ``generate_state`` with ``_MULT_B``.
    """
    next_const = const * mult & _MASK32
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x: int, y):
    """SeedSequence's ``mix`` of a pool word (Python int) with a hash (int or uint32 array)."""
    value = (_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y & _MASK32
    return value ^ value >> 16


def _spawn_seed_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for i in [start, stop), as rows of a uint64 array; needs stop <= 2**32.

    The entropy is the seed's four 32-bit words (zero padded) and then the
    spawn word.  The seed's words fill and cross-mix the pool once, in Python
    ints; the spawn word's mixing round and the output hash run as uint32
    array arithmetic over the chunk.
    """
    const = _INIT_A
    pool = []
    for i in range(4):
        word, const = _hash(int(master_seed) >> 32 * i & _MASK32, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    spawn = np.arange(start, stop, dtype=np.uint32)
    for dst in range(4):
        word, const = _hash(spawn, const, _MULT_A)
        pool[dst] = _mix(pool[dst], word)
    state = np.empty((stop - start, 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        state[:, i], const = _hash(pool[i % 4], const, _MULT_B)
    # generate_state reads the uint32 words as little-endian uint64 pairs.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _set_state(rng: np.random.Generator, state: int, inc: int) -> None:
    """Put ``rng`` (a PCG64 generator) at the 128-bit LCG ``state`` with increment ``inc``."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _get_state(rng: np.random.Generator) -> tuple[int, int]:
    """The (state, inc) pair of a PCG64 generator, as ``_set_state`` takes it."""
    pcg = rng.bit_generator.state["state"]
    return pcg["state"], pcg["inc"]


def _chunk_generators(master_seed: int, start: int, stop: int):
    """Yield generators in ``derive_rng(master_seed, i)``'s state, i = start..stop-1.

    One ``Generator`` is reused across the chunk, so a yielded generator is
    valid only until the next one is taken.  Its state is PCG64's seeding of
    the seed words (``pcg64_srandom_r``): inc = (initseq << 1) | 1, one LCG
    step from 0, add initstate, one more step.  A chunk reaching index 2**32
    takes ``derive_rng`` for every slot.
    """
    _check_seed_args(master_seed, start)
    if stop > _ONE_WORD_INDICES:
        for index in range(start, stop):
            yield derive_rng(master_seed, index)
        return
    rng = np.random.Generator(np.random.PCG64(0))
    for w0, w1, w2, w3 in _spawn_seed_words(master_seed, start, stop).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        _set_state(rng, state, inc)
        yield rng


def _metric_candidates(u: np.ndarray, m_plus_1: int) -> np.ndarray:
    """Metric candidates g = L^T eta L from (B, (m+1)^2) uniforms for R in L = I + a R."""
    eta = np.eye(m_plus_1)
    eta[0, 0] = -1.0
    r = -1.0 + 2.0 * u.reshape(len(u), m_plus_1, m_plus_1)
    ell = np.eye(m_plus_1) + PERTURBATION * r
    g = ell.transpose(0, 2, 1) @ eta @ ell
    return 0.5 * (g + g.transpose(0, 2, 1))


def _metric_accepted(g: np.ndarray) -> np.ndarray:
    """Rows of a (B, m+1, m+1) stack that ``LorentzianMetric`` accepts."""
    _, signature, conditioned = lorentzian_tests(g)
    return signature & conditioned


def _target_and_map(u: np.ndarray, m_plus_1: int, n: int, entry_range, rank_override):
    """h = A^T A + RIDGE I with A uniform on [-1, 1), and dphi uniform on
    [-entry_range, entry_range), from (B, n^2 + n (m+1)) uniforms, A's first."""
    a = -1.0 + 2.0 * u[:, : n * n].reshape(len(u), n, n)
    h = a.transpose(0, 2, 1) @ a + RIDGE * np.eye(n)
    h = 0.5 * (h + h.transpose(0, 2, 1))
    entry_range = float(entry_range)
    low = -entry_range
    dphi = low + (entry_range - low) * u[:, n * n :].reshape(len(u), n, m_plus_1)
    if rank_override is not None:
        dphi = _truncate_rank(dphi, rank_override)
    return h, dphi


def draw_geometry_arrays(
    rng: np.random.Generator,
    m_plus_1: int,
    n: int,
    entry_range: float = 1.0,
    rank_override: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Raw (g, h, dphi, metric_retries) draws behind ``sample_geometry``.

    The draw kernels on a batch of one: metric candidates until one passes the
    conditioning test, at most ``MAX_METRIC_TRIES`` of them, then h and dphi.
    """
    _check_geometry_args(m_plus_1, n, entry_range, rank_override)
    for retries in range(MAX_METRIC_TRIES):
        g = _metric_candidates(rng.random((1, m_plus_1 * m_plus_1)), m_plus_1)
        if _metric_accepted(g)[0]:
            u = rng.random((1, n * (n + m_plus_1)))
            h, dphi = _target_and_map(u, m_plus_1, n, entry_range, rank_override)
            return g[0], h[0], dphi[0], retries
    raise ConditioningError(
        f"no metric satisfying the condition bound after {MAX_METRIC_TRIES} draws"
    )


def _check_geometry_args(m_plus_1, n, entry_range, rank_override) -> None:
    if m_plus_1 < 1 or n < 1:
        raise ValueError("dimensions must be at least 1")
    if not 0.0 <= 2.0 * float(entry_range) < np.inf:
        raise ValueError("entry_range must be nonnegative with a finite span")
    if rank_override is not None and not 0 <= rank_override <= min(m_plus_1, n):
        raise ValueError(
            f"rank_override {rank_override} outside [0, {min(m_plus_1, n)}]"
        )


def _check_direction_args(count: int, boost_cap: float) -> None:
    if count < 1:
        raise ValueError("need at least one direction")
    if not 0.0 <= boost_cap < np.inf:
        raise ValueError("boost_cap must be nonnegative and finite")


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
    *,
    rng: np.random.Generator,
) -> PointGeometry:
    """Draw one random geometry: g = L^T eta L, h = A^T A + ridge I, dphi uniform.

    ``rank_override`` truncates the singular values of dphi so its rank is
    exact (0 produces the zero map).  Deterministic given the generator state;
    the generator is required, so every draw comes from a seeded stream.
    """
    g, h, dphi, _ = draw_geometry_arrays(rng, m_plus_1, n, entry_range, rank_override)
    return PointGeometry(
        metric=LorentzianMetric(g), target_metric=RiemannianMetric(h), dphi=dphi
    )


def draw_direction_params(
    rng: np.random.Generator, count: int, spatial_dim: int, boost_cap: float = BOOST_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Raw rapidities and sphere normals for ``count`` timelike directions."""
    _check_direction_args(count, boost_cap)
    rapidity = boost_cap * rng.random(count)
    normals = rng.normal(size=(count, spatial_dim))
    return rapidity, normals


def draw_chunk_arrays(
    master_seed: int,
    start: int,
    stop: int,
    m_plus_1: int,
    n: int,
    num_directions: int,
    block: int,
    entry_range: float = 1.0,
    boost_cap: float = BOOST_CAP,
    rank_override: int | None = None,
    lagrangian: LagrangianSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]], dict]:
    """Draws of samples [start, stop), bit-equal to the per-sample scalar loop.

    Returns stacked (g, h, dphi), the direction parameters as an iterator
    over consecutive blocks of ``block`` samples, and the ``domain_draws``,
    ``domain_accepted`` and ``metric_retries`` counters.  Each block is a
    (rapidity, normals) pair of shapes (b, K) and (b, K, m), drawn when the
    iterator reaches it, so a chunk never holds more than one block of them.
    Sample ``start + k`` is what ``derive_rng(master_seed, start + k)``
    (computed arithmetically by ``_chunk_generators``) followed by
    ``draw_geometry_arrays`` (repeated until the geometry lies in the domain
    of ``lagrangian``, if one is given) and ``draw_direction_params`` yield.
    Raises ``ConditioningError`` or ``SamplerStarvationError`` exactly where
    that loop would, before it returns.

    The first block's directions are drawn in the seeding loop, from each
    slot's live stream.  A later slot records where its directions start:
    the PCG64 (state, inc) its generator holds after its geometry, whether
    the seeding loop or the scalar path drew it.  Its block sets that state
    and draws the same doubles in the same order.
    """
    _check_geometry_args(m_plus_1, n, entry_range, rank_override)
    _check_direction_args(num_directions, boost_cap)
    if block < 1:
        raise ValueError("a direction block needs at least one sample")
    m1, ndir = m_plus_1, num_directions
    batch = stop - start
    first = min(block, batch)
    restricted = (
        lagrangian is not None and lagrangian.domain_predicate is not _always_inside
    )

    # Per slot: its own stream and every uniform of a first-try geometry; a
    # first-block slot goes on to its rapidity uniforms and normals, a later
    # slot records where they start.
    width = m1 * m1 + n * (n + m1)
    uniforms = np.empty((batch, width))
    leading = np.empty((first, width + ndir))
    normals = np.empty((first, ndir, m1 - 1))
    starts = [None] * (batch - first)
    for k, rng in enumerate(_chunk_generators(master_seed, start, stop)):
        if k < first:
            rng.random(out=leading[k])
            normals[k] = rng.normal(size=(ndir, m1 - 1))
        else:
            rng.random(out=uniforms[k])
            starts[k - first] = _get_state(rng)
    uniforms[:first] = leading[:, :width]
    rapidity = boost_cap * leading[:, width:]
    g = _metric_candidates(uniforms[:, : m1 * m1], m1)
    h, dphi = _target_and_map(uniforms[:, m1 * m1 :], m1, n, entry_range, rank_override)
    fast = _metric_accepted(g)
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
            g, h, dphi, retries = draw_geometry_arrays(
                rng, m1, n, entry_range, rank_override
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
        return g, h, dphi, rng

    counted = 0
    for k in np.flatnonzero(~fast).tolist():
        counters["domain_draws"] += k - counted
        counters["domain_accepted"] += k - counted
        g[k], h[k], dphi[k], rng = redraw(start + k)
        if k < first:
            rapidity[k], normals[k] = draw_direction_params(rng, ndir, m1 - 1, boost_cap)
        else:
            starts[k - first] = _get_state(rng)
        counted = k + 1
    counters["domain_draws"] += batch - counted
    counters["domain_accepted"] += batch - counted

    def blocks():
        if first:
            yield rapidity, normals
        rng = np.random.Generator(np.random.PCG64(0))
        for lo in range(0, batch - first, block):
            rows = starts[lo : lo + block]
            u_rap = np.empty((len(rows), ndir))
            later = np.empty((len(rows), ndir, m1 - 1))
            for j, (state, inc) in enumerate(rows):
                _set_state(rng, state, inc)
                rng.random(out=u_rap[j])
                later[j] = rng.normal(size=(ndir, m1 - 1))
            yield boost_cap * u_rap, later

    return g, h, dphi, blocks(), counters


def _domain_inside(lagrangian: LagrangianSpec, g, h, dphi) -> np.ndarray:
    """Domain test of the strain invariants of stacked geometries."""
    s = batch_charpoly_coefficients(batch_strain(np.linalg.inv(g), h, dphi)[1])
    return np.asarray(lagrangian.domain_predicate(s), dtype=bool)


def batch_assemble_directions(frames, rapidity, normals) -> np.ndarray:
    """Boosted timelike legs X = cosh(r) e_0 + sinh(r) (unit u . e_spatial).

    Frames (B, dim, dim) hold e_a as columns; rapidities (B, K) and sphere
    normals (B, K, dim-1) give K directions per frame, returned as a new
    C-contiguous (B, K, dim) array.  A normal whose length is not > 0 (zero,
    or not finite) falls back to the first spatial leg.

    For dim >= 2, one normal component and one output component at a time,
    each a contiguous (B, K) row of one scratch array (dim + 6 rows, reused):
    |u|^2 as u_0 u_0 + u_1 u_1 + ... in increasing component
    (``np.linalg.norm``'s order on up to 7 components); the divide, with the
    fallback written over it only where a length is not > 0; the spatial sum
    sum_l e_(l+1) u_l in ``lane_sum``'s two-lane order (einsum's on up to
    CONTRACT_MAX_DEPTH legs); and cosh(r) e_0 + sinh(r) sum written into the
    output component.
    """
    batch, dim, _ = frames.shape
    rows = rapidity.shape[1]
    if dim == 1:
        return np.broadcast_to(frames[:, None, :, 0], (batch, rows, dim)).copy()
    out = np.empty((batch, rows, dim))
    work = np.empty((dim + 6, batch, rows))
    lanes, leg, lengths, cosh, sinh, units = (
        work[:3], work[3], work[4], work[5], work[6], work[7:]
    )
    np.multiply(normals[:, :, 0], normals[:, :, 0], out=lengths)
    for l in range(1, dim - 1):
        lengths += np.multiply(normals[:, :, l], normals[:, :, l], out=lanes[0])
    np.sqrt(lengths, out=lengths)
    fallback = ~(lengths > 0.0)
    some = fallback.any()
    if some:
        lengths[fallback] = 1.0
    np.divide(normals.transpose(2, 0, 1), lengths, out=units)
    if some:
        units[:, fallback] = np.eye(dim - 1)[:, :1]
    np.cosh(rapidity, out=cosh)
    np.sinh(rapidity, out=sinh)
    for k in range(dim):
        lane_sum([frames[:, k, l, None] for l in range(1, dim)], units, leg, lanes)
        np.multiply(sinh, leg, out=leg)
        np.multiply(cosh, frames[:, k, 0, None], out=lanes[0])
        np.add(lanes[0], leg, out=out[:, :, k])
    return out


def sample_timelike_directions(basis, rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample unit timelike vectors boosted off an orthonormal frame.

    Rapidities are uniform on [0, BOOST_CAP] and spatial directions uniform on
    the sphere, so the rows satisfy g(X, X) = -1 up to roundoff.
    """
    basis = np.asarray(basis, dtype=float)
    rapidity, normals = draw_direction_params(rng, count, basis.shape[0] - 1)
    return batch_assemble_directions(basis[None], rapidity[None], normals[None])[0]
