"""Indefinite metrics, orthonormal frames, causal classes, principal minors.

Everything here works on small dense matrices (dimension of order ten or
less).  Conventions used throughout the package:

* Lorentzian signature is (-, +, ..., +) and frame index 0 is the timelike leg.
* Every frame comes from one batched, metric-aware Gram-Schmidt sweep,
  ``_gram_schmidt``, and one orthonormality test, ``_frame_errors``;
  ``canonical_frame`` runs them on a batch of one.
* ``principal_minor_sums`` adds the minors det a[I, I] over strictly
  increasing index subsets I, which ``_multi_indices`` enumerates in
  lexicographic order.  Over every j-subset that sum is the trace of the
  degree-j compound matrix, the j-th elementary symmetric polynomial of the
  eigenvalues, with no factorial normalization.
* ``batch_contract`` is the one contraction of (B, k, l) matrices with
  (B, K, l) vector stacks, out[b, d, k] = sum_l m[b, k, l] x[b, d, l].  It
  returns the bits of ``np.einsum("bkl,bdl->bdk", m, x)``, which sums each
  output in two lanes without FMA: the even-l and the odd-l products are added
  in increasing l, each lane from +0.0, and the two lane sums are then added,
  so l = 4 gives (p0 + p2) + (p1 + p3) and a zero sum is +0.0.  That order
  is written once, as ``lane_sum``, which ``sampling.batch_assemble_directions``
  runs on every stack, at any depth.  The output is C-contiguous, because the
  ``"bdk,bdk->bd"`` reductions downstream take another summation order on
  strided input.  Neither kernel splits its rows into blocks: its scratch is
  sized to the stack it gets, and ``engine.run_chunk`` gives it one row
  block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConditioningError

# Relative symmetry slack accepted on metric inputs.
SYMMETRY_RTOL = 1e-12
# Worst allowed |g(e_a, e_b) - eta_ab| for a frame to count as orthonormal.
FRAME_ATOL = 1e-10
# Euclidean norms below this absolute floor classify a vector as zero.
ZERO_FLOOR = 1e-12
# Metrics with symmetric condition number above this are rejected outright.
DEFAULT_CONDITION_BOUND = 1e8
# batch_contract sends stacks of fewer rows (B * K) to np.einsum, which costs
# less per call there (measured crossover 512-1,024 rows).
CONTRACT_MIN_ROWS = 1024
# Deepest contraction whose einsum order the lane kernel reproduces; einsum
# unrolls longer sums into four vectors at a time.
CONTRACT_MAX_DEPTH = 7


def _as_square(entries, name: str) -> np.ndarray:
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    scale = max(float(np.max(np.abs(m))), 1.0)
    if np.max(np.abs(m - m.T)) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to within {SYMMETRY_RTOL} relative")
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class LorentzianMetric:
    """Symmetric matrix of signature (-, +, ..., +) on the source tangent space.

    Construction validates shape, symmetry, signature, and conditioning;
    metrics whose symmetric condition number exceeds DEFAULT_CONDITION_BOUND
    raise ConditioningError rather than silently producing garbage verdicts.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(_as_square(self.entries, "metric"), "metric")
        object.__setattr__(self, "entries", m)
        w = np.linalg.eigvalsh(m)
        if w[0] >= 0.0 or (m.shape[0] > 1 and w[1] <= 0.0):
            raise ValueError(
                f"metric eigenvalues {w} do not have signature (-, +, ..., +)"
            )
        if np.max(np.abs(w)) > DEFAULT_CONDITION_BOUND * np.min(np.abs(w)):
            raise ConditioningError(
                f"metric condition number exceeds {DEFAULT_CONDITION_BOUND:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.entries)

    def inner(self, u, v) -> float:
        """Evaluate g(u, v)."""
        return float(np.asarray(u) @ self.entries @ np.asarray(v))


@dataclass(frozen=True, eq=False)
class RiemannianMetric:
    """Symmetric positive definite matrix on the target tangent space."""

    entries: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(_as_square(self.entries, "target metric"), "target metric")
        object.__setattr__(self, "entries", m)
        w = np.linalg.eigvalsh(m)
        if w[0] <= 0.0:
            raise ValueError(f"target metric eigenvalues {w} are not all positive")
        if w[-1] > DEFAULT_CONDITION_BOUND * w[0]:
            raise ConditioningError(
                f"target metric condition number exceeds {DEFAULT_CONDITION_BOUND:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class OrthonormalFrame:
    """Metric-orthonormal basis stored column-wise; column 0 is the timelike leg."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_square(self.basis, "frame basis"))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def vector(self, a: int) -> np.ndarray:
        return self.basis[:, a]



@lru_cache(maxsize=None)
def _multi_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(dim), degree))


def principal_minor_sums(a: np.ndarray, subsets) -> np.ndarray:
    """Sum of det a[:, I, I] over the index subsets I of a (B, dim, dim) stack.

    The minors are added one subset at a time, in the order given.
    """
    total = np.zeros(a.shape[0])
    for subset in subsets:
        idx = np.array(subset, dtype=int)
        total += np.linalg.det(a[:, idx[:, None], idx[None, :]])
    return total


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes.

    The formula of ``np.linalg.norm(a, axis=(-2, -1))``, so values are
    identical, without its argument handling, which dominates at batch 1.
    """
    return np.sqrt(np.add.reduce(a * a, axis=(-2, -1)))


def congruence(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^T m a for stacks a (B, p, q) and m (B, p, p).

    The product order is the one ``np.einsum(..., optimize=True)`` picks, to
    which campaign report bytes are pinned: (a^T m) a, and for 1x1 factors
    (a a) m.
    """
    if a.shape[-2:] == (1, 1):
        return (a * a) * m
    return a.transpose(0, 2, 1) @ m @ a


def metric_pairing(x: np.ndarray, g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g(x, y) for stacked metrics g (B, dim, dim) and vectors y (B, K, dim).

    ``x`` is either (B, K, dim), paired row by row with ``y``, or (B, dim),
    one vector per metric paired with every row of ``y``.  As in
    ``congruence``, x g is formed first, and in dimension 1 the two vectors
    multiply first.
    """
    if g.shape[-1] == 1:
        return (x[..., 0] if x.ndim == 3 else x) * y[..., 0] * g[:, :1, 0]
    if x.ndim == 2:
        return (y @ (x[:, None, :] @ g).transpose(0, 2, 1))[..., 0]
    return ((x @ g)[..., None, :] @ y[..., :, None])[..., 0, 0]


def batch_contract(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[b, d, k] = sum_l m[b, k, l] x[b, d, l] for float stacks m (B, k, l), x (B, K, l).

    Bit for bit ``np.einsum("bkl,bdl->bdk", m, x)``, returned as a new
    C-contiguous (B, K, k) array.  einsum sums each output in two lanes
    without FMA: lane 0 adds the even-l products and lane 1 the odd-l ones,
    each from +0.0 in increasing l, and the result is lane 0 + lane 1.  So
    l = 4 gives (p0 + p2) + (p1 + p3), l = 3 gives (p0 + p2) + p1, and a zero
    sum is +0.0, never -0.0.  A matmul is faster but not equal, since BLAS
    uses FMA.

    The lane kernel keeps that order with one ``lane_sum`` over the whole
    stack on a (B, k, K) layout, so the inner loops run over the K rows of
    each sample and the sums are written straight into the output; the
    caller bounds the stack (``engine.run_chunk`` passes one row block).
    einsum itself takes stacks of fewer than CONTRACT_MIN_ROWS rows, depths
    above CONTRACT_MAX_DEPTH and operands whose last axis is strided (einsum
    then sums in another order); both sides give the same bits.
    """
    batch, rows, depth = x.shape
    if (
        batch * rows < CONTRACT_MIN_ROWS
        or depth > CONTRACT_MAX_DEPTH
        or m.strides[2] != m.itemsize
        or x.strides[2] != x.itemsize
    ):
        return np.einsum("bkl,bdl->bdk", m, x)
    out = np.empty((batch, rows, m.shape[1]))
    xt = x.transpose(0, 2, 1)
    lane_sum(
        [m[:, :, l, None] for l in range(depth)],
        [xt[:, None, l] for l in range(depth)],
        out.transpose(0, 2, 1),
        np.empty((min(depth, 3), batch, m.shape[1], rows)),
    )
    return out


def lane_sum(left, right, out, work) -> np.ndarray:
    """Write sum_l left[l] * right[l] into ``out`` and return it.

    ``left`` and ``right`` are equal-length lists of one or more arrays
    whose products have ``out``'s shape.  Lane 0 adds the even-l products and
    lane 1 the odd-l ones in increasing l, the result is lane 0 + lane 1, and
    a zero sum is +0.0: einsum's order, bit for bit, up to CONTRACT_MAX_DEPTH
    terms (einsum unrolls longer sums).  ``work`` holds the lanes and the
    current term: min(depth, 3) contiguous scratch arrays of the products'
    shape (a (3, ...) array works), so callers reuse one buffer across calls.
    Like einsum, it warns of no inf or NaN.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(len(left)):
            np.multiply(left[l], right[l], out=work[min(l, 2)])
            if l >= 2:
                work[l % 2] += work[2]
        if len(left) > 1:
            work[0] += work[1]
        # + 0.0 turns a -0.0 sum into einsum's +0.0 and changes nothing else.
        return np.add(work[0], 0.0, out=out)


def _frame_errors(frames: np.ndarray, g: np.ndarray) -> np.ndarray:
    """max |g(e_a, e_b) - eta_ab| per frame of a (B, dim, dim) stack, NaN if not finite.

    A non-finite frame has a non-finite Gram matrix, so its maximum shows it.
    """
    eta = np.eye(g.shape[-1])
    eta[0, 0] = -1.0
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = np.abs(congruence(frames, g) - eta).reshape(len(frames), eta.size)
    # Reducing across frames, over a (dim * dim, B) copy, beats reducing each row.
    err = np.ascontiguousarray(gaps.T).max(axis=0)
    return np.where(np.isfinite(err), err, np.nan)


@lru_cache(maxsize=None)
def _sweep_legs(dim: int) -> np.ndarray:
    """legs[j, p] is the j-th coordinate direction swept when a seed's pivot is p."""
    j = np.arange(dim - 1)[:, None]
    legs = np.eye(dim).take(j + (j >= np.arange(dim)), axis=0)
    legs.flags.writeable = False
    return legs


def _gram_schmidt(g: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Frames (as columns) extending (B, dim) timelike seeds, for (B, dim, dim) metrics.

    Column 0 is the seed scaled to g(e_0, e_0) = -1.  The spacelike legs come
    from a modified Gram-Schmidt sweep over the coordinate directions in index
    order, leaving out each seed's largest-magnitude component, so the seed and
    its candidates span (their determinant is that component, up to sign).
    """
    batch, dim = seeds.shape
    frames = np.empty((batch, dim, dim))
    candidates = _sweep_legs(dim).take(np.argmax(np.abs(seeds), axis=1), axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        norm2 = np.einsum("bi,bi->b", seeds, np.einsum("bij,bj->bi", g, seeds))
        frames[:, :, 0] = seeds / np.sqrt(-norm2)[:, None]
        for k in range(1, dim):
            v = candidates[k - 1]
            for a in range(k):
                e = frames[:, :, a]
                ge = np.einsum("bij,bj->bi", g, e)
                coef = np.einsum("bi,bi->b", v, ge) / np.einsum("bi,bi->b", e, ge)
                v = v - coef[:, None] * e
            vg = np.einsum("bi,bij,bj->b", v, g, v)
            frames[:, :, k] = v / np.sqrt(vg)[:, None]
    return frames


def canonical_frames(g: np.ndarray) -> tuple[np.ndarray, int]:
    """Deterministic orthonormal frames (as columns) of a (B, dim, dim) metric stack.

    ``_gram_schmidt`` seeded with the first coordinate direction.  Rows whose
    frame misses orthonormality by more than FRAME_ATOL (or is not finite, as
    when that direction is not timelike) are redone, seeded with the
    eigenvector of the single negative eigenvalue, sign-fixed so its
    largest-magnitude component is positive; a row that still misses raises
    ConditioningError.  Returns the frames and the number of rows redone.
    """
    batch, dim, _ = g.shape
    seeds = np.zeros((batch, dim))
    seeds[:, 0] = 1.0
    frames = _gram_schmidt(g, seeds)
    redo = np.flatnonzero(~(_frame_errors(frames, g) <= FRAME_ATOL))
    if len(redo):
        seeds = np.linalg.eigh(g[redo])[1][:, :, 0]
        pivot = np.argmax(np.abs(seeds), axis=1)
        seeds[seeds[np.arange(len(redo)), pivot] < 0.0] *= -1.0
        frames[redo] = _gram_schmidt(g[redo], seeds)
        if not np.all(_frame_errors(frames[redo], g[redo]) <= FRAME_ATOL):
            raise ConditioningError("no orthonormal frame to within FRAME_ATOL")
    return frames, len(redo)


def canonical_frame(metric: LorentzianMetric) -> OrthonormalFrame:
    """Deterministic orthonormal frame depending only on the metric entries.

    ``canonical_frames`` on a batch of one: seeded with the first coordinate
    direction when its frame is orthonormal, otherwise with the eigenvector of
    the single negative eigenvalue, sign-fixed so its largest-magnitude
    component is positive.
    """
    return OrthonormalFrame(canonical_frames(metric.entries[None])[0][0])


class CausalClass(str, Enum):
    """Causal character of a tangent vector, time-oriented by a reference."""

    FUTURE_TIMELIKE = "future-timelike"
    FUTURE_NULL = "future-null"
    PAST_TIMELIKE = "past-timelike"
    PAST_NULL = "past-null"
    SPACELIKE = "spacelike"
    ZERO = "zero"

    @property
    def is_past_causal(self) -> bool:
        return self in (CausalClass.PAST_TIMELIKE, CausalClass.PAST_NULL)

    @property
    def is_causal(self) -> bool:
        return self in (
            CausalClass.FUTURE_TIMELIKE,
            CausalClass.FUTURE_NULL,
            CausalClass.PAST_TIMELIKE,
            CausalClass.PAST_NULL,
        )


def causal_class(zero: bool, quadratic: float, band: float, past: bool) -> CausalClass:
    """The class of a vector v from: v is zero, g(v, v), the null band, g(X, v) > 0."""
    if zero:
        return CausalClass.ZERO
    if abs(quadratic) <= band:
        return CausalClass.PAST_NULL if past else CausalClass.FUTURE_NULL
    if quadratic < 0.0:
        return CausalClass.PAST_TIMELIKE if past else CausalClass.FUTURE_TIMELIKE
    return CausalClass.SPACELIKE
