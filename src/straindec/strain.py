"""Strain tensor of a map between metric spaces and its spectral invariants.

Given a Lorentzian metric g on the source, a Riemannian metric h on the
target, and a differential dphi, the strain is the mixed-type endomorphism
D = g^{-1} (dphi^T h dphi).  Its elementary symmetric invariants s_1 .. s_dim
are computed by three genuinely different routes (characteristic-coefficient
recursion, Newton power-sum identities, compound-matrix traces) so that each
can serve as a cross-check on the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multilinear import (
    LorentzianMetric,
    RiemannianMetric,
    _as_square,
    principal_minor_sum,
)

# Relative singular value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class PointGeometry:
    """A single evaluation point: source metric, target metric, differential.

    ``dphi`` has shape (target_dim, dim), mapping source tangent vectors to
    target tangent vectors.
    """

    metric: LorentzianMetric
    target_metric: RiemannianMetric
    dphi: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dphi, dtype=float)
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
        p = self.dphi.T @ self.target_metric.entries @ self.dphi
        return 0.5 * (p + p.T)


@dataclass(frozen=True)
class StrainTensor:
    """Mixed-type strain endomorphism together with its covariant pullback."""

    matrix: np.ndarray
    pullback: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
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


def strain(geom: PointGeometry) -> StrainTensor:
    """Strain endomorphism D = g^{-1} dphi^T h dphi at one point."""
    pull = geom.pullback()
    return StrainTensor(matrix=geom.metric.inverse() @ pull, pullback=pull)


def rank_of_map(dphi, rtol: float = RANK_RTOL) -> int:
    """Numerical rank of the differential: singular values above rtol * largest."""
    a = np.atleast_2d(np.asarray(dphi, dtype=float))
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))


def power_sums(d, count: int | None = None) -> np.ndarray:
    """Traces of matrix powers p_j = tr(d^j) for j = 1 .. count."""
    d = _as_square(d, "matrix")
    n = d.shape[0] if count is None else int(count)
    p = np.empty(n)
    m = np.eye(d.shape[0])
    for j in range(n):
        m = m @ d
        p[j] = np.trace(m)
    return p


def _matrix_rank(d: np.ndarray) -> int:
    sv = np.linalg.svd(d, compute_uv=False)
    if sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))


def charpoly_coefficients(d) -> np.ndarray:
    """Elementary symmetric invariants via the characteristic-coefficient recursion.

    Runs the trace-driven adjugate recursion: starting from M_0 = 0 and
    c_0 = 1, iterate M_k = d M_{k-1} + c_{k-1} I and c_k = -tr(d M_k) / k;
    then s_k = (-1)^k c_k.  One matrix product per step, no eigensolve.
    """
    d = _as_square(d, "matrix")
    dim = d.shape[0]
    s = np.empty(dim)
    dm = np.zeros_like(d)
    c = 1.0
    for k in range(1, dim + 1):
        m = dm + c * np.eye(dim)
        dm = d @ m
        c = -np.trace(dm) / k
        s[k - 1] = (-1) ** k * c
    return s


def batch_charpoly_coefficients(d: np.ndarray) -> np.ndarray:
    """``charpoly_coefficients`` over a (B, dim, dim) stack, one matmul per degree."""
    b, dim, _ = d.shape
    eye = np.eye(dim)
    s = np.empty((b, dim))
    dm = np.zeros_like(d)
    c = np.ones(b)
    for k in range(1, dim + 1):
        m = dm + c[:, None, None] * eye
        dm = d @ m
        c = -np.einsum("bii->b", dm) / k
        s[:, k - 1] = (-1) ** k * c
    return s


def invariants_charpoly(d) -> InvariantVector:
    """Invariant vector of a strain matrix by the characteristic-coefficient route."""
    d = _as_square(d, "matrix")
    return InvariantVector(
        s=charpoly_coefficients(d),
        power_sums=power_sums(d),
        rank_estimate=_matrix_rank(d),
    )


def invariants_newton(d) -> InvariantVector:
    """Invariant vector by Newton's identities on the power sums.

    Uses j s_j = sum_{i=1..j} (-1)^(i-1) s_{j-i} p_i with s_0 = 1.
    """
    d = _as_square(d, "matrix")
    dim = d.shape[0]
    p = power_sums(d)
    s_full = np.empty(dim + 1)
    s_full[0] = 1.0
    for j in range(1, dim + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * s_full[j - i] * p[i - 1]
        s_full[j] = acc / j
    return InvariantVector(
        s=s_full[1:], power_sums=p, rank_estimate=_matrix_rank(d)
    )


def invariants_wedge(d) -> InvariantVector:
    """Invariant vector by compound-matrix traces (sums of principal minors)."""
    d = _as_square(d, "matrix")
    dim = d.shape[0]
    s = np.array([principal_minor_sum(d, j) for j in range(1, dim + 1)])
    return InvariantVector(s=s, power_sums=power_sums(d), rank_estimate=_matrix_rank(d))


def strain_invariants(geom: PointGeometry) -> InvariantVector:
    """Invariant vector of a geometry's strain, with rank taken from dphi."""
    st = strain(geom)
    return InvariantVector(
        s=charpoly_coefficients(st.matrix),
        power_sums=power_sums(st.matrix),
        rank_estimate=rank_of_map(geom.dphi),
    )
