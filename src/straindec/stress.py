"""Stress-energy tensors of invariant Lagrangians: batched closed forms and an oracle.

The closed forms are written once, as ``batch_*`` kernels over a leading
stack axis.  ``dec.CheckStack`` runs them on whole chunks for the campaign
engine and on a batch of one for ``dec.stress_elementary``,
``dec.stress_general`` and ``dec.stress_scale_general``.

* ``batch_elementary_tensors`` evaluates the closed form for each degree-j
  elementary invariant: T_j = sym(P M_j) - (s_j / 2) g with M_j the
  polynomial gradient of s_j in the strain.
* ``batch_combination`` assembles a general Lagrangian's tensor from the
  elementary ones: T = sum_j dF/ds_j T_j - ((F - grad F . s) / 2) g.
* ``stress_variational`` differentiates the Lagrangian density with respect to
  the inverse metric by central differences.  It shares no algebra with the
  closed forms, which is what makes it an oracle for them.

``batch_elementary_scales`` and ``batch_combination_scale`` give a-priori
magnitude scales of those tensors for relative vanishing tests.
``batch_wedge_split`` splits the energy T_j(e_0, e_0) into sums of Gram
minors of the pulled-back metric, the combinatorial form used to reason
about energy positivity, and ``batch_wedge_checks`` measures that split and
the Cauchy-Schwarz chain against the closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepError
from .lagrangians import LagrangianSpec
from .multilinear import (
    congruence,
    frobenius,
    principal_minor_sums,
)
from .strain import PointGeometry, batch_matrix_powers, charpoly_coefficients

# Step retries shrink by this factor when a perturbed metric leaves the
# Lorentzian cone or the Lagrangian domain.
STEP_SHRINK = 10.0
DEFAULT_MAX_RETRIES = 3


@dataclass(frozen=True, eq=False)
class StressEnergy:
    """Symmetric covariant stress-energy tensor and how it was produced."""

    tensor: np.ndarray
    provenance: str
    lagrangian_name: str

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]


def check_degree(degree: int, dim: int) -> None:
    if not 1 <= degree <= dim:
        raise ValueError(f"invariant degree must lie in [1, {dim}], got {degree}")


def check_dimensions(lagr: LagrangianSpec, dim: int) -> None:
    if lagr.dim != dim:
        raise ValueError(f"lagrangian dimension {lagr.dim} does not match geometry {dim}")


def require_domain(lagr: LagrangianSpec, s: np.ndarray) -> None:
    """Raise DomainError unless the invariant vector ``s`` lies in the domain."""
    if not bool(lagr.domain_predicate(s)):
        raise DomainError(
            f"strain invariants lie outside the domain of {lagr.name}", vector=np.array(s)
        )


def batch_invariant_gradients(d: np.ndarray, s_full: np.ndarray) -> np.ndarray:
    """Gradients M_j = sum_{i<j} (-1)^i s_{j-1-i} d^i of s_j in the strain.

    ``d`` is a (B, dim, dim) stack and ``s_full`` its invariants prefixed with
    s_0 = 1; M_j is at [:, j-1] of the (B, dim, dim, dim) result.
    """
    b, dim, _ = d.shape
    out = np.zeros((b, dim, dim, dim))
    # Term i of every M_j with j > i, so each sum runs over i in order.
    for i, power in enumerate(batch_matrix_powers(d, dim)):
        out[:, i:] += ((-1) ** i * s_full[:, : dim - i, None, None]) * power[:, None]
    return out


def batch_elementary_tensors(g, pull, d, s) -> np.ndarray:
    """T_j = sym(P M_j) - (s_j / 2) g of stacked geometries, T_j at [:, j-1].

    Takes the metrics, pullbacks, strains and invariants, (B, dim, dim) and
    (B, dim) stacks, as ``batch_strain`` and ``batch_charpoly_coefficients``
    give them.
    """
    s_full = np.concatenate([np.ones((s.shape[0], 1)), s], axis=1)
    pm = pull[:, None] @ batch_invariant_gradients(d, s_full)
    return 0.5 * (pm + pm.transpose(0, 1, 3, 2)) - 0.5 * s[:, :, None, None] * g[:, None]


def batch_elementary_scales(g, pull, d, s) -> np.ndarray:
    """A-priori magnitude scales of the T_j, (B, dim), for relative vanishing tests.

    Bounds ||sym(P M_j)|| + ||s_j g|| / 2 via norms of the pullback and
    strain, so a tensor is 'numerically zero' when its norm is tiny against
    this.
    """
    b, dim = s.shape
    s_abs = np.abs(np.concatenate([np.ones((b, 1)), s], axis=1))
    dn = frobenius(d)[:, None]
    m_bound = np.zeros((b, dim))
    power = np.ones((b, 1))
    # Bound of ||M_j||: term i of every degree j > i, summed over i in order.
    for i in range(dim):
        m_bound[:, i:] += s_abs[:, : dim - i] * power
        power = power * dn
    return frobenius(pull)[:, None] * m_bound + 0.5 * s_abs[:, 1:] * frobenius(g)[:, None]


def lagrangian_terms(lagr: LagrangianSpec, s: np.ndarray):
    """dF/ds, F and grad F . s at a (B, dim) stack of invariant vectors."""
    grad = np.asarray(lagr.gradient(s), dtype=float)
    fval = np.asarray(lagr.evaluate(s), dtype=float)
    return grad, fval, np.einsum("bj,bj->b", grad, s)


def batch_combination(g, tensors, terms) -> np.ndarray:
    """T = sum_j dF/ds_j T_j - ((F - grad F . s) / 2) g from elementary tensors."""
    grad, fval, grad_dot_s = terms
    t = np.einsum("bj,bjkl->bkl", grad, tensors)
    return t - 0.5 * (fval - grad_dot_s)[:, None, None] * g


def batch_combination_scale(g, scales, s, terms) -> np.ndarray:
    """A-priori magnitude scale of the combination-formula tensor, per row."""
    grad, fval, _ = terms
    total = np.einsum("bj,bj->b", np.abs(grad), scales)
    return total + 0.5 * (
        np.abs(fval) + np.einsum("bj,bj->b", np.abs(grad), np.abs(s))
    ) * frobenius(g)


class _StepLoss(Exception):
    """Internal: a perturbed metric left the Lorentzian cone or the domain."""


def stress_variational(geom: PointGeometry, lagr: LagrangianSpec) -> StressEnergy:
    """Finite-difference oracle for the stress-energy tensor.

    Differentiates L sqrt|det g| with respect to each inverse-metric component
    (symmetrized basis directions) by central differences, then removes the
    volume factor.  The step is 1e-6 times the inverse-metric norm, which is
    positive for every metric; if a perturbation breaks the metric signature
    or exits the Lagrangian domain the step shrinks tenfold, up to
    DEFAULT_MAX_RETRIES times, before StepError.
    """
    check_dimensions(lagr, geom.dim)
    g = geom.metric.entries
    gi0 = geom.metric.inverse()
    pull = geom.pullback()
    dim = geom.dim
    sqrt_det_g = float(np.sqrt(abs(np.linalg.det(g))))

    require_domain(lagr, charpoly_coefficients(gi0 @ pull))

    def density(gi: np.ndarray) -> float:
        w = np.linalg.eigvalsh(0.5 * (gi + gi.T))
        if w[0] >= 0.0 or (dim > 1 and w[1] <= 0.0):
            raise _StepLoss("perturbed inverse metric lost Lorentzian signature")
        s = charpoly_coefficients(gi @ pull)
        if not bool(lagr.domain_predicate(s)):
            raise _StepLoss("perturbed invariants left the Lagrangian domain")
        f = float(lagr.evaluate(s))
        return f / float(np.sqrt(abs(np.linalg.det(gi))))

    def tensor_at(h: float) -> np.ndarray:
        t = np.empty((dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                v = np.zeros((dim, dim))
                if a == b:
                    v[a, a] = 1.0
                else:
                    v[a, b] = v[b, a] = 0.5
                diff = density(gi0 + h * v) - density(gi0 - h * v)
                t[a, b] = t[b, a] = diff / (2.0 * h) / sqrt_det_g
        return t

    h = 1e-6 * float(np.linalg.norm(gi0))
    last = None
    for _ in range(DEFAULT_MAX_RETRIES + 1):
        try:
            return StressEnergy(
                tensor=tensor_at(h), provenance="variational_oracle",
                lagrangian_name=lagr.name,
            )
        except _StepLoss as exc:
            last = exc
            h /= STEP_SHRINK
    raise StepError(
        f"no usable finite-difference step after {DEFAULT_MAX_RETRIES + 1} attempts "
        f"(final step {h * STEP_SHRINK:.3e})"
    ) from last


def batch_wedge_split(pf: np.ndarray, degree: int):
    """Degree-j Gram-minor sums of frame-component pullbacks ``pf`` (B, dim, dim).

    Returns the sums over wedges containing the timelike leg and over purely
    spacelike wedges, each (B,).
    """
    spatial = range(1, pf.shape[1])
    perp = principal_minor_sums(
        pf, [(0,) + alpha for alpha in itertools.combinations(spatial, degree - 1)]
    )
    return perp, principal_minor_sums(pf, itertools.combinations(spatial, degree))


def batch_wedge_checks(pull, frames, tensors):
    """Wedge-identity residuals and Cauchy-Schwarz excesses of every T_j, (B, dim).

    With e_a the frame columns, the residual compares T_j(e_0, e_0) with the
    Gram-minor split (perp + parallel) / 2, and the excess is
    (sum_i T_j(e_0, e_i)^2 - T_j(e_0, e_0)^2) / max(1, T_j(e_0, e_0)^2),
    nonpositive when the Cauchy-Schwarz chain holds.
    """
    b, dim, _ = pull.shape
    pf = congruence(frames, pull)
    e0 = frames[:, :, 0]
    t00 = np.einsum("bk,bjkl,bl->bj", e0, tensors, e0)
    residual = np.empty((b, dim))
    excess = np.empty((b, dim))
    for j in range(dim):
        perp, par = batch_wedge_split(pf, j + 1)
        denom = np.maximum(
            1.0, np.maximum(np.abs(t00[:, j]), 0.5 * (np.abs(perp) + np.abs(par)))
        )
        residual[:, j] = np.abs(t00[:, j] - 0.5 * (perp + par)) / denom
        t0i = np.einsum("bk,bkl,bli->bi", e0, tensors[:, j], frames[:, :, 1:])
        excess[:, j] = (np.sum(t0i**2, axis=1) - t00[:, j] ** 2) / np.maximum(
            1.0, t00[:, j] ** 2
        )
    return residual, excess
