"""Dominant-energy-condition checks and the supporting pointwise predicates.

The central claim under test: for a defocusing, zeroed Lagrangian the
stress-energy tensor T satisfies, at every point and for every timelike X,

* energy positivity, T(X, X) >= 0, and
* flux causality, the momentum flux Y = g^{-1} T X is past-causal or zero
  (equivalently (T g^{-1} T)(X, X) <= 0 with the right time orientation).

All comparisons are relative: a-priori norm bounds supply the scales, and a
tensor counts as vacuously zero when its norm is negligible against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lagrangians import LagrangianSpec
from .multilinear import (
    CausalClass,
    LorentzianMetric,
    ZERO_FLOOR,
    canonical_frame,
    causal_classify,
)
from .sampling import BOOST_CAP, sample_timelike_directions
from .strain import PointGeometry, charpoly_coefficients, strain, rank_of_map
from .stress import (
    _elementary_tensors,
    stress_elementary,
    stress_general,
    stress_scale,
    stress_scale_general,
)

# Relative tolerance for energy / flux sign decisions.
DEC_TOL = 1e-9
# ||T|| below this fraction of its a-priori scale makes a check vacuous.
VACUOUS_RTOL = 1e-10


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    VACUOUS = "vacuous_T_zero"


@dataclass(frozen=True)
class DECWitness:
    """One timelike direction's energy and flux data for a fixed tensor.

    ``direction`` is stored unit-normalized (g(X, X) = -1).  ``flux`` is the
    raised momentum flux Y = g^{-1} T X and ``flux_quadratic`` the invariant
    (T g^{-1} T)(X, X), negative for a causal flux.
    """

    direction: np.ndarray
    energy: float
    energy_scale: float
    flux: np.ndarray
    flux_quadratic: float
    flux_scale: float
    flux_class: CausalClass
    energy_ok: bool
    flux_ok: bool

    @property
    def energy_margin(self) -> float:
        return self.energy / self.energy_scale if self.energy_scale > 0.0 else 0.0

    @property
    def flux_margin(self) -> float:
        return (
            self.flux_quadratic / self.flux_scale if self.flux_scale > 0.0 else 0.0
        )


def dec_witness(
    metric: LorentzianMetric, tensor: np.ndarray, direction, tol: float = DEC_TOL
) -> DECWitness:
    """Evaluate both halves of the energy condition along one timelike direction.

    Energy passes when T(X, X) >= -tol * ||T|| ||X||^2.  Flux passes when the
    quadratic (T g^{-1} T)(X, X) stays below tol * ||g|| ||Y||^2 and Y
    classifies as past-causal or zero relative to X.
    """
    g = metric.entries
    x = np.asarray(direction, dtype=float)
    xx = float(x @ g @ x)
    if xx >= 0.0:
        raise ValueError("witness direction is not timelike")
    x = x / np.sqrt(-xx)
    tensor = np.asarray(tensor, dtype=float)
    tx = tensor @ x
    energy = float(x @ tx)
    y = metric.inverse() @ tx
    quad = float(tx @ y)
    energy_scale = float(np.linalg.norm(tensor)) * float(x @ x)
    flux_scale = float(np.linalg.norm(g)) * float(y @ y)
    flux_class = causal_classify(metric, x, y, tol)
    energy_ok = energy >= -tol * energy_scale
    flux_ok = quad <= tol * flux_scale and (
        flux_class.is_past_causal or flux_class is CausalClass.ZERO
    )
    return DECWitness(
        direction=x,
        energy=energy,
        energy_scale=energy_scale,
        flux=y,
        flux_quadratic=quad,
        flux_scale=flux_scale,
        flux_class=flux_class,
        energy_ok=energy_ok,
        flux_ok=flux_ok,
    )


@dataclass(frozen=True)
class DECVerdict:
    """Energy-condition verdict for one geometry, Lagrangian, and direction set."""

    lagrangian_name: str
    energy_positivity: CheckStatus
    flux_causality: CheckStatus
    witnesses: tuple[DECWitness, ...]
    tensor_norm: float
    tensor_scale: float

    @property
    def vacuous(self) -> bool:
        return self.energy_positivity is CheckStatus.VACUOUS

    @property
    def passed(self) -> bool:
        return (
            self.energy_positivity is not CheckStatus.FAIL
            and self.flux_causality is not CheckStatus.FAIL
        )


def check_dec(
    geom: PointGeometry,
    lagr: LagrangianSpec,
    num_directions: int = 8,
    seed: int = 0,
    tol: float = DEC_TOL,
    boost_cap: float = BOOST_CAP,
) -> DECVerdict:
    """Test the energy condition on sampled timelike directions.

    Directions are boosted off the canonical frame of the metric with
    rapidities up to ``boost_cap``.  When ||T|| is negligible against its
    a-priori scale both statuses report vacuous_T_zero instead of pass/fail.
    """
    if num_directions < 1:
        raise ValueError("need at least one direction")
    t = stress_general(geom, lagr)
    scale = stress_scale_general(geom, lagr)
    tnorm = float(np.linalg.norm(t.tensor))
    frame = canonical_frame(geom.metric)
    rng = np.random.default_rng(seed)
    xs = sample_timelike_directions(frame.basis, rng, num_directions, boost_cap)
    witnesses = tuple(dec_witness(geom.metric, t.tensor, x, tol) for x in xs)
    if tnorm <= VACUOUS_RTOL * scale:
        energy = flux = CheckStatus.VACUOUS
    else:
        energy = (
            CheckStatus.PASS
            if all(w.energy_ok for w in witnesses)
            else CheckStatus.FAIL
        )
        flux = (
            CheckStatus.PASS if all(w.flux_ok for w in witnesses) else CheckStatus.FAIL
        )
    return DECVerdict(
        lagrangian_name=lagr.name,
        energy_positivity=energy,
        flux_causality=flux,
        witnesses=witnesses,
        tensor_norm=tnorm,
        tensor_scale=scale,
    )


@dataclass(frozen=True)
class RankConditionCheck:
    """Whether T_degree vanishes exactly when the degree exceeds the map rank."""

    degree: int
    rank: int
    stress_norm: float
    scale: float
    vanished: bool
    expected_vanishing: bool
    consistent: bool
    warning: str | None


def check_rank_condition(
    geom: PointGeometry, degree: int, tol: float = DEC_TOL
) -> RankConditionCheck:
    """Compare numerical vanishing of T_degree against the rank of dphi.

    Degrees above the rank must give ||T|| <= tol * scale.  At or below the
    rank a vanishing tensor is merely non-generic, so that case reports
    consistent = False together with a warning rather than a hard failure.
    """
    rank = rank_of_map(geom.dphi)
    t = stress_elementary(geom, degree)
    scale = stress_scale(geom, degree)
    tnorm = float(np.linalg.norm(t.tensor))
    vanished = tnorm <= tol * scale
    expected = degree > rank
    warning = None
    if vanished and not expected:
        warning = (
            f"T_{degree} vanished although rank {rank} >= degree; "
            "sample is likely non-generic"
        )
    return RankConditionCheck(
        degree=degree,
        rank=rank,
        stress_norm=tnorm,
        scale=scale,
        vanished=vanished,
        expected_vanishing=expected,
        consistent=vanished == expected,
        warning=warning,
    )


@dataclass(frozen=True)
class ConvexityCombinationCheck:
    """Componentwise flux causality versus the combined tensor's flux.

    Components are the weighted pieces dF/ds_j T_j X.  The claim: if every
    component flux is past-causal or zero then so is the combined flux, given
    a concave Lagrangian with F(0) >= 0 and nonnegative gradient.
    """

    component_classes: tuple[CausalClass, ...]
    combined_class: CausalClass
    premise: bool
    conclusion: bool
    holds: bool
    hyperplane_margin: float
    hyperplane_ok: bool


def check_convexity_lemma(
    geom: PointGeometry,
    lagr: LagrangianSpec,
    direction,
    tol: float = DEC_TOL,
) -> ConvexityCombinationCheck:
    """Check the combination step of the energy-condition proof at one direction.

    ``direction`` must be unit timelike (g(X, X) = -1 to within 1e-8).  Also
    audits the supporting-hyperplane inequality F(s) >= grad F(s) . s used to
    control the metric term.
    """
    x = np.asarray(direction, dtype=float)
    g = geom.metric.entries
    if abs(float(x @ g @ x) + 1.0) > 1e-8:
        raise ValueError("direction must be unit timelike, g(X, X) = -1")
    if lagr.dim != geom.dim:
        raise ValueError(
            f"lagrangian dimension {lagr.dim} does not match geometry {geom.dim}"
        )
    st = strain(geom)
    s = charpoly_coefficients(st.matrix)
    grad = np.asarray(lagr.gradient(s), dtype=float)
    s_full = np.concatenate(([1.0], s))
    tensors = _elementary_tensors(g, st.pullback, st.matrix, s_full)
    gi = geom.metric.inverse()

    classes = []
    for j in range(geom.dim):
        y = gi @ (grad[j] * tensors[j] @ x)
        classes.append(causal_classify(geom.metric, x, y, tol))
    combined = stress_general(geom, lagr).tensor
    y = gi @ (combined @ x)
    combined_class = causal_classify(geom.metric, x, y, tol)

    premise = all(c.is_past_causal or c is CausalClass.ZERO for c in classes)
    conclusion = combined_class.is_past_causal or combined_class is CausalClass.ZERO
    f = float(lagr.evaluate(s))
    dot = float(grad @ s)
    hscale = max(1.0, abs(f), abs(dot))
    hmargin = (f - dot) / hscale
    return ConvexityCombinationCheck(
        component_classes=tuple(classes),
        combined_class=combined_class,
        premise=premise,
        conclusion=conclusion,
        holds=(not premise) or conclusion,
        hyperplane_margin=hmargin,
        hyperplane_ok=hmargin >= -tol,
    )


@dataclass(frozen=True)
class PointwiseCorollaryCheck:
    """Numerical form of: T = 0 forces dphi = 0 for suitable Lagrangians."""

    dphi_norm: float
    tensor_norm: float
    scale: float
    tensor_zero: bool
    dphi_small: bool
    holds: bool


def check_pointwise_corollary(
    geom: PointGeometry,
    lagr: LagrangianSpec,
    tol: float = DEC_TOL,
    dphi_floor: float = ZERO_FLOOR,
) -> PointwiseCorollaryCheck:
    """Verify that a numerically vanishing tensor only occurs for tiny dphi.

    Requires a Lagrangian declared defocusing, zeroed, and nondegenerate; the
    implication is false without those flags.
    """
    flags = lagr.flags
    if not (flags.defocusing and flags.zeroed and flags.nondegenerate):
        raise ValueError(
            "pointwise corollary needs a defocusing, zeroed, nondegenerate Lagrangian"
        )
    t = stress_general(geom, lagr)
    scale = stress_scale_general(geom, lagr)
    tnorm = float(np.linalg.norm(t.tensor))
    dnorm = float(np.linalg.norm(geom.dphi))
    tensor_zero = tnorm <= tol * scale
    dphi_small = dnorm <= dphi_floor
    return PointwiseCorollaryCheck(
        dphi_norm=dnorm,
        tensor_norm=tnorm,
        scale=scale,
        tensor_zero=tensor_zero,
        dphi_small=dphi_small,
        holds=(not tensor_zero) or dphi_small,
    )
