"""Strain tensor of a map between metric spaces and its spectral invariants.

Given a Lorentzian metric g on the source, a Riemannian metric h on the
target, and a differential dphi, the strain is the mixed-type endomorphism
D = g^{-1} (dphi^T h dphi).  Its elementary symmetric invariants s_1 .. s_dim
are computed by three genuinely different routes (characteristic-coefficient
recursion, Newton power-sum identities, compound-matrix traces) so that each
can serve as a cross-check on the others.

Each formula is written once, as a ``batch_*`` kernel over a leading stack
axis; the single-point functions call it on a batch of one, and
``dec.strain`` reads a geometry's strain off ``dec.CheckStack.at``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multilinear import (
    LorentzianMetric,
    RiemannianMetric,
    _as_square,
    _multi_indices,
    congruence,
    principal_minor_sums,
)

# Relative singular value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """A single evaluation point: source metric, target metric, differential.

    ``dphi`` has shape (target_dim, dim), mapping source tangent vectors to
    target tangent vectors.
    """

    metric: LorentzianMetric
    target_metric: RiemannianMetric
    dphi: np.ndarray

    def __post_init__(self):
        d = np.array(self.dphi, dtype=float)
        expected = (self.target_metric.dim, self.metric.dim)
        if d.shape != expected:
            raise ValueError(f"dphi has shape {d.shape}, expected {expected}")
        if not np.all(np.isfinite(d)):
            raise ValueError("dphi has non-finite entries")
        object.__setattr__(self, "dphi", d)

    @property
    def dim(self) -> int:
        return self.metric.dim

    @property
    def target_dim(self) -> int:
        return self.target_metric.dim

    def pullback(self) -> np.ndarray:
        """Pulled-back target metric dphi^T h dphi, symmetrized."""
        return batch_pullback(self.target_metric.entries[None], self.dphi[None])[0]


@dataclass(frozen=True, eq=False)
class StrainTensor:
    """Mixed-type strain endomorphism together with its covariant pullback."""

    matrix: np.ndarray
    pullback: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class InvariantVector:
    """Elementary symmetric invariants s, power sums p, and a rank estimate.

    ``s[j-1]`` is the j-th elementary symmetric polynomial of the strain
    eigenvalues and ``power_sums[j-1]`` the trace of the j-th power.  Entries
    of ``s`` beyond ``rank_estimate`` vanish up to roundoff.
    """

    s: np.ndarray
    power_sums: np.ndarray
    rank_estimate: int

    @property
    def dim(self) -> int:
        return self.s.shape[0]


def batch_pullback(h: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Pullbacks dphi^T h dphi of (B, n, n) and (B, n, dim) stacks, symmetrized."""
    pull = congruence(dphi, h)
    return 0.5 * (pull + pull.transpose(0, 2, 1))


def batch_strain(g_inv: np.ndarray, h: np.ndarray, dphi: np.ndarray):
    """Pullbacks P and strains D = g^{-1} P of stacked geometries, given g^{-1}."""
    pull = batch_pullback(h, dphi)
    return pull, g_inv @ pull


def batch_rank(dphi: np.ndarray) -> np.ndarray:
    """Numerical ranks of a (B, p, q) stack: singular values above RANK_RTOL * largest."""
    sv = np.linalg.svd(dphi, compute_uv=False)
    if sv.shape[1] == 0:
        return np.zeros(sv.shape[0], dtype=int)
    top = sv[:, 0]
    return np.where(top > 0.0, np.sum(sv > RANK_RTOL * top[:, None], axis=1), 0).astype(int)


def rank_of_map(dphi) -> int:
    """Numerical rank of the differential: singular values above RANK_RTOL * largest."""
    return int(batch_rank(np.atleast_2d(np.asarray(dphi, dtype=float))[None])[0])


def batch_matrix_powers(d: np.ndarray, count: int) -> list:
    """d^0 .. d^(count-1) of a (B, dim, dim) stack (at least d^0)."""
    powers = [np.broadcast_to(np.eye(d.shape[1]), d.shape)]
    for _ in range(count - 1):
        powers.append(d @ powers[-1])
    return powers


def batch_power_sums(d: np.ndarray) -> np.ndarray:
    """Traces p_j = tr(d^j), j = 1 .. dim, of a (B, dim, dim) stack."""
    p = np.empty(d.shape[:2])
    for j, power in enumerate(batch_matrix_powers(d, d.shape[1])):
        p[:, j] = np.einsum("bij,bji->b", d, power)
    return p


def power_sums(d) -> np.ndarray:
    """Traces of matrix powers p_j = tr(d^j) for j = 1 .. dim."""
    return batch_power_sums(_as_square(d, "matrix")[None])[0]


def charpoly_coefficients(d) -> np.ndarray:
    """Elementary symmetric invariants via the characteristic-coefficient recursion.

    Runs the trace-driven adjugate recursion: starting from M_0 = 0 and
    c_0 = 1, iterate M_k = d M_{k-1} + c_{k-1} I and c_k = -tr(d M_k) / k;
    then s_k = (-1)^k c_k.  One matrix product per step, no eigensolve.
    """
    return batch_charpoly_coefficients(_as_square(d, "matrix")[None])[0]


def batch_charpoly_coefficients(d: np.ndarray) -> np.ndarray:
    """``charpoly_coefficients`` over a (B, dim, dim) stack, one matmul per degree."""
    b, dim, _ = d.shape
    eye = np.eye(dim)
    s = np.empty((b, dim))
    m = eye
    for k in range(1, dim + 1):
        dm = d @ m
        c = np.einsum("bii->b", dm) / -k
        s[:, k - 1] = c if k % 2 == 0 else -c
        m = dm + c[:, None, None] * eye
    return s


def batch_invariants_newton(d: np.ndarray) -> np.ndarray:
    """Invariants of a (B, dim, dim) stack by Newton's identities on the power sums.

    Uses j s_j = sum_{i=1..j} (-1)^(i-1) s_{j-i} p_i with s_0 = 1.
    """
    b, dim, _ = d.shape
    p = batch_power_sums(d)
    sf = np.ones((b, dim + 1))
    for j in range(1, dim + 1):
        acc = np.zeros(b)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * sf[:, j - i] * p[:, i - 1]
        sf[:, j] = acc / j
    return sf[:, 1:]


def batch_invariants_wedge(d: np.ndarray) -> np.ndarray:
    """Invariants of a (B, dim, dim) stack as sums of principal minors."""
    dim = d.shape[1]
    return np.stack(
        [principal_minor_sums(d, _multi_indices(dim, j)) for j in range(1, dim + 1)],
        axis=1,
    )


def batch_route_residual(s: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """Largest relative disagreement, per row, between ``s`` and the other routes."""
    residuals = []
    for other in others:
        denom = np.maximum(1.0, np.maximum(np.abs(s), np.abs(other)))
        residuals.append(np.max(np.abs(s - other) / denom, axis=1))
    return np.maximum.reduce(residuals)


def _invariant_vector(d, route) -> InvariantVector:
    d = _as_square(d, "matrix")
    return InvariantVector(
        s=route(d[None])[0], power_sums=power_sums(d), rank_estimate=rank_of_map(d)
    )


def invariants_charpoly(d) -> InvariantVector:
    """Invariant vector of a strain matrix by the characteristic-coefficient route."""
    return _invariant_vector(d, batch_charpoly_coefficients)


def invariants_newton(d) -> InvariantVector:
    """Invariant vector by Newton's identities on the power sums."""
    return _invariant_vector(d, batch_invariants_newton)


def invariants_wedge(d) -> InvariantVector:
    """Invariant vector by compound-matrix traces (sums of principal minors)."""
    return _invariant_vector(d, batch_invariants_wedge)
