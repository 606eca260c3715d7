"""Dominant-energy-condition checks on stacks of geometries.

The central claim under test: for a defocusing, zeroed Lagrangian the
stress-energy tensor T satisfies, at every point and for every timelike X,

* energy positivity, T(X, X) >= 0, and
* flux causality, the momentum flux Y = g^{-1} T X is past-causal or zero
  (equivalently (T g^{-1} T)(X, X) <= 0 with the right time orientation).

All comparisons are relative: a-priori norm bounds supply the scales, and a
tensor counts as vacuously zero when its norm is negligible against them.

``CheckStack`` evaluates every pointwise check of a campaign on a stack of
geometries with the batched kernels (``batch_dec_witness``, ``batch_flux``
and those of strain and stress); ``CheckStack.along(directions, rows)`` is
the stack of some of its samples along timelike directions, which holds the
checks that read them.  The campaign engine runs a stack on whole chunks and
its row blocks along their directions; fixture replay, ``check_dec`` and the
scalar ``strain`` and ``stress_*`` functions read ``CheckStack.at``, a batch
of one, and ``dec_witness`` runs ``batch_dec_witness`` on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .lagrangians import LagrangianSpec
from .multilinear import (
    CausalClass,
    LorentzianMetric,
    ZERO_FLOOR,
    _as_square,
    _check_symmetric,
    batch_contract,
    canonical_frames,
    causal_class,
    frobenius,
    metric_pairing,
)
from .sampling import sample_timelike_directions
from .strain import (
    PointGeometry,
    StrainTensor,
    batch_charpoly_coefficients,
    batch_invariants_newton,
    batch_invariants_wedge,
    batch_rank,
    batch_route_residual,
    batch_strain,
)
from .stress import (
    StressEnergy,
    batch_combination,
    batch_combination_scale,
    batch_elementary_scales,
    batch_elementary_tensors,
    batch_wedge_checks,
    check_degree,
    check_dimensions,
    lagrangian_terms,
    require_domain,
)

# Relative tolerance for energy / flux sign decisions.
DEC_TOL = 1e-9
# ||T|| below this fraction of its a-priori scale makes a check vacuous.
VACUOUS_RTOL = 1e-10


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    VACUOUS = "vacuous_T_zero"


@dataclass(frozen=True, eq=False)
class FluxStack:
    """Raised fluxes Y = g^{-1} V of lowered fluxes V = T X, classified against X.

    Arrays are (B, K).  ``quadratic`` is V . Y = (T g^{-1} T)(X, X),
    ``scale`` is ||g|| |Y|^2 and ``band`` = tol * scale the null band,
    ``orientation`` is g(X, Y), positive when Y points to the past of X, and
    ``zero`` marks |Y| <= ZERO_FLOOR.
    """

    y: np.ndarray
    quadratic: np.ndarray
    scale: np.ndarray
    band: np.ndarray
    orientation: np.ndarray
    zero: np.ndarray

    @cached_property
    def past_or_zero(self) -> np.ndarray:
        return self.zero | ((self.quadratic <= self.band) & (self.orientation > 0.0))

    @cached_property
    def ok(self) -> np.ndarray:
        """Flux causality: quadratic <= band, and Y past-pointing or zero."""
        return (self.quadratic <= self.band) & (self.zero | (self.orientation > 0.0))

    def causal_class(self, k: int, i: int) -> CausalClass:
        past = self.orientation[k, i] > 0.0
        return causal_class(self.zero[k, i], self.quadratic[k, i], self.band[k, i], past)


def batch_flux(g, g_inv, x: np.ndarray, v: np.ndarray, tol: float) -> FluxStack:
    """Classify the raised fluxes of lowered fluxes ``v`` (B, K, dim) against ``x``.

    ``g_inv`` is the inverse of the metric stack ``g``.  ``x`` is (B, K, dim),
    or (B, dim) for one reference direction per metric; see ``metric_pairing``.
    """
    y = batch_contract(g_inv, v)
    ynorm2 = np.einsum("bdk,bdk->bd", y, y)
    scale = frobenius(g)[:, None] * ynorm2
    return FluxStack(
        y=y,
        quadratic=np.einsum("bdk,bdk->bd", v, y),
        scale=scale,
        band=tol * scale,
        orientation=metric_pairing(x, g, y),
        zero=np.sqrt(ynorm2) <= ZERO_FLOOR,
    )


@dataclass(frozen=True, eq=False)
class WitnessStack:
    """Energy and flux along unit directions: (B, K) arrays and their FluxStack."""

    directions: np.ndarray
    energy: np.ndarray
    energy_scale: np.ndarray
    energy_ok: np.ndarray
    flux: FluxStack


def batch_dec_witness(g, g_inv, tensors, directions, tol: float = DEC_TOL) -> WitnessStack:
    """Both halves of the energy condition for stacked tensors along (B, K, dim) directions.

    ``g_inv`` is the inverse of the metric stack ``g``.  The directions must
    be timelike; they are normalized to g(X, X) = -1 first.  Energy passes
    when T(X, X) >= -tol * ||T|| |X|^2; flux causality is ``FluxStack.ok``.
    """
    x = directions / np.sqrt(-metric_pairing(directions, g, directions))[:, :, None]
    v = batch_contract(tensors, x)
    energy = np.einsum("bdk,bdk->bd", x, v)
    scale = frobenius(tensors)[:, None] * np.einsum("bdk,bdk->bd", x, x)
    flux = batch_flux(g, g_inv, x, v, tol)
    return WitnessStack(x, energy, scale, energy >= -tol * scale, flux)


@dataclass(frozen=True, eq=False)
class DECWitness:
    """One timelike direction's energy and flux data for a fixed tensor.

    ``direction`` is stored unit-normalized (g(X, X) = -1).  ``flux`` is the
    raised momentum flux Y = g^{-1} T X and ``flux_quadratic`` the invariant
    (T g^{-1} T)(X, X), negative for a causal flux.  Both arrays are copies,
    so a witness shares no array with the stack it was read from (replay
    keeps that stack for the next fixture).
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


def _witness(w: WitnessStack, k: int, i: int) -> DECWitness:
    return DECWitness(
        direction=w.directions[k, i].copy(),
        energy=float(w.energy[k, i]),
        energy_scale=float(w.energy_scale[k, i]),
        flux=w.flux.y[k, i].copy(),
        flux_quadratic=float(w.flux.quadratic[k, i]),
        flux_scale=float(w.flux.scale[k, i]),
        flux_class=w.flux.causal_class(k, i),
        energy_ok=bool(w.energy_ok[k, i]),
        flux_ok=bool(w.flux.ok[k, i]),
    )


def dec_witness(
    metric: LorentzianMetric, tensor: np.ndarray, direction, tol: float = DEC_TOL
) -> DECWitness:
    """Evaluate both halves of the energy condition along one timelike direction.

    ``batch_dec_witness`` on a batch of one.  Energy passes when T(X, X) >=
    -tol * ||T|| ||X||^2.  Flux passes when the quadratic (T g^{-1} T)(X, X)
    stays below tol * ||g|| ||Y||^2 and Y is past-causal or zero relative to X.
    ValueError unless ``tensor`` is a finite square matrix of the metric's
    dimension, symmetric by the metric's rule, and ``direction`` is timelike.
    """
    tensor = _as_square(tensor, "tensor")
    if tensor.shape[0] != metric.dim:
        raise ValueError(f"tensor has dimension {tensor.shape[0]}, metric {metric.dim}")
    _check_symmetric(tensor, "tensor")
    x = require_timelike(metric, direction)[None, None]
    g = metric.entries[None]
    return _witness(batch_dec_witness(g, np.linalg.inv(g), tensor[None], x, tol), 0, 0)


def require_timelike(metric: LorentzianMetric, direction, unit: bool = False) -> np.ndarray:
    """``direction`` as an array; ValueError unless g(X, X) < 0, or = -1 if ``unit``."""
    x = np.asarray(direction, dtype=float)
    xx = metric.inner(x, x)
    if unit and abs(xx + 1.0) > 1e-8:
        raise ValueError("direction must be unit timelike, g(X, X) = -1")
    if not xx < 0.0:
        raise ValueError("witness direction is not timelike")
    return x


class CheckStack:
    """Every pointwise check on a stack of B geometries, each kernel run on first use.

    ``g``, ``h`` and ``dphi`` are (B, m+1, m+1), (B, n, n) and (B, n, m+1)
    stacks; ``g_inv`` inverts ``g`` once for every kernel that needs it
    (``batch_strain``, ``batch_dec_witness``, ``batch_flux``).  The checks
    that read timelike directions (the DEC witnesses and the combination
    lemma, which uses the first direction of each sample) need the
    ``directions`` that only a stack made by ``along`` holds.  A check's pass
    mask is the attribute named after it (``dec_energy`` .. ``cauchy_schwarz``),
    shaped (B, K) for the witnesses, (B, m+1) per degree and (B,) otherwise.
    """

    def __init__(self, g, h, dphi, lagr=None, tol=DEC_TOL, algebraic_tol=DEC_TOL):
        self.g, self.h, self.dphi, self.lagr = g, h, dphi, lagr
        self.tol, self.algebraic_tol = tol, algebraic_tol

    @classmethod
    def at(cls, geom: PointGeometry, lagr=None, tol=DEC_TOL, algebraic_tol=DEC_TOL):
        """A batch of one; a Lagrangian must fit the geometry and its invariants."""
        if lagr is not None:
            check_dimensions(lagr, geom.dim)
        entries = (geom.metric.entries, geom.target_metric.entries, geom.dphi)
        stack = cls(*(a[None] for a in entries), lagr, tol, algebraic_tol)
        if lagr is not None:
            require_domain(lagr, stack.s[0])
        return stack

    def along(self, directions: np.ndarray, rows=slice(None)) -> "CheckStack":
        """Samples ``rows`` of this stack along (B, K, m+1) timelike ``directions``.

        The new stack shares g^{-1}, T_j, the terms, T, ||T|| and its scale
        with this one as row views, computed here first if they were not yet.
        """
        sub = CheckStack(
            *(a[rows] for a in (self.g, self.h, self.dphi)), self.lagr, self.tol,
            self.algebraic_tol,
        )
        for name in ("g_inv", "elementary", "tensor", "tensor_norm", "scale"):
            setattr(sub, name, getattr(self, name)[rows])
        sub.terms, sub.directions = tuple(a[rows] for a in self.terms), directions
        return sub

    # g^{-1}, (pullbacks, strains), invariants, and (dF/ds, F, grad F . s).
    g_inv = cached_property(lambda st: np.linalg.inv(st.g))
    strain = cached_property(lambda st: batch_strain(st.g_inv, st.h, st.dphi))
    s = cached_property(lambda st: batch_charpoly_coefficients(st.strain[1]))
    terms = cached_property(lambda st: lagrangian_terms(st.lagr, st.s))
    # Elementary tensors T_j, the combined tensor T, and their scales.
    elementary = cached_property(
        lambda st: batch_elementary_tensors(st.g, *st.strain, st.s)
    )
    elementary_scales = cached_property(
        lambda st: batch_elementary_scales(st.g, *st.strain, st.s)
    )
    elementary_norms = cached_property(lambda st: frobenius(st.elementary))
    tensor = cached_property(lambda st: batch_combination(st.g, st.elementary, st.terms))
    tensor_norm = cached_property(lambda st: frobenius(st.tensor))
    scale = cached_property(
        lambda st: batch_combination_scale(st.g, st.elementary_scales, st.s, st.terms)
    )
    vacuous = cached_property(lambda st: st.tensor_norm <= VACUOUS_RTOL * st.scale)
    # Rank condition: T_j vanishes exactly for degrees above the rank of dphi.
    rank = cached_property(lambda st: batch_rank(st.dphi))
    vanished = cached_property(
        lambda st: st.elementary_norms <= st.tol * st.elementary_scales
    )
    # (frames, rows redone by the scalar sweep), and the algebraic identities:
    # (Newton, principal-minor) invariants against ``s``, and (wedge-identity
    # residuals, Cauchy-Schwarz excesses) in the canonical frames.
    frames = cached_property(lambda st: canonical_frames(st.g))
    routes = cached_property(lambda st: (
        batch_invariants_newton(st.strain[1]), batch_invariants_wedge(st.strain[1])
    ))
    route_residual = cached_property(lambda st: batch_route_residual(st.s, *st.routes))
    wedge = cached_property(
        lambda st: batch_wedge_checks(st.strain[0], st.frames[0], st.elementary)
    )

    @cached_property
    def hyperplane_margin(self) -> np.ndarray:
        """(F - grad F . s) / max(1, |F|, |grad F . s|), >= 0 on a supporting hyperplane."""
        _, fval, dot = self.terms
        return (fval - dot) / np.maximum(1.0, np.maximum(np.abs(fval), np.abs(dot)))

    # (T numerically zero, dphi below ZERO_FLOOR); the first must imply the
    # second.
    corollary = cached_property(lambda st: (
        st.tensor_norm <= st.tol * st.scale, frobenius(st.dphi) <= ZERO_FLOOR
    ))
    pointwise_corollary = cached_property(lambda st: ~st.corollary[0] | st.corollary[1])

    # Pass masks, named after the checks.
    rank_condition = cached_property(
        lambda st: st.vanished == (np.arange(1, st.g.shape[1] + 1) > st.rank[:, None])
    )
    supporting_hyperplane = cached_property(lambda st: st.hyperplane_margin >= -st.tol)
    invariant_routes = cached_property(lambda st: st.route_residual <= st.algebraic_tol)
    wedge_identity = cached_property(lambda st: st.wedge[0] <= st.algebraic_tol)
    cauchy_schwarz = cached_property(lambda st: st.wedge[1] <= st.algebraic_tol)

    # The checks along ``directions``: DEC witnesses and the combination lemma.
    witness = cached_property(
        lambda st: batch_dec_witness(st.g, st.g_inv, st.tensor, st.directions, st.tol)
    )

    @cached_property
    def components(self) -> FluxStack:
        """Fluxes of the weighted pieces dF/ds_j T_j X at the first direction."""
        x0 = self.witness.directions[:, 0]
        v = np.einsum("bjkl,bl->bjk", self.elementary, x0) * self.terms[0][:, :, None]
        return batch_flux(self.g, self.g_inv, x0, v, self.tol)

    # The combination lemma: component fluxes all past-causal or zero must
    # make the combined flux so.
    premise = cached_property(lambda st: st.components.past_or_zero.all(axis=1))
    conclusion = cached_property(lambda st: st.witness.flux.past_or_zero[:, 0])

    # Pass masks of the checks along directions.
    dec_energy = cached_property(lambda st: st.witness.energy_ok)
    dec_flux = cached_property(lambda st: st.witness.flux.ok)
    convexity_lemma = cached_property(lambda st: ~st.premise | st.conclusion)


def strain(geom: PointGeometry) -> StrainTensor:
    """Strain endomorphism D = g^{-1} dphi^T h dphi at one point."""
    pull, d = CheckStack.at(geom).strain
    return StrainTensor(matrix=d[0], pullback=pull[0])


def stress_elementary(geom: PointGeometry, degree: int) -> StressEnergy:
    """Closed-form stress-energy T_j of the degree-j elementary invariant."""
    check_degree(degree, geom.dim)
    t = CheckStack.at(geom).elementary[0, degree - 1]
    return StressEnergy(tensor=t, provenance="closed_form", lagrangian_name=f"s_{degree}")


def stress_general(geom: PointGeometry, lagr: LagrangianSpec) -> StressEnergy:
    """Stress-energy of a general Lagrangian via the combination formula.

    T = sum_j dF/ds_j T_j - ((F - grad F . s) / 2) g, which reduces to the
    closed form when F picks out a single invariant.
    """
    t = CheckStack.at(geom, lagr).tensor[0]
    return StressEnergy(tensor=t, provenance="combination", lagrangian_name=lagr.name)


def stress_scale_general(geom: PointGeometry, lagr: LagrangianSpec) -> float:
    """A-priori magnitude scale of the combination-formula tensor.

    Validates the Lagrangian's dimension and domain as ``stress_general`` does.
    """
    return float(CheckStack.at(geom, lagr).scale[0])


@dataclass(frozen=True)
class DECVerdict:
    """Energy-condition verdict for one geometry, Lagrangian, and direction set."""

    lagrangian_name: str
    energy_positivity: CheckStatus
    flux_causality: CheckStatus
    witnesses: tuple[DECWitness, ...]
    tensor_norm: float
    tensor_scale: float


def dec_verdict(stack: CheckStack) -> DECVerdict:
    """Verdict on sample 0 of a stack along directions, over all of them."""
    witnesses = tuple(
        _witness(stack.witness, 0, i) for i in range(stack.directions.shape[1])
    )
    if stack.vacuous[0]:
        energy = flux = CheckStatus.VACUOUS
    else:
        energy, flux = (
            CheckStatus.PASS if ok[0].all() else CheckStatus.FAIL
            for ok in (stack.dec_energy, stack.dec_flux)
        )
    return DECVerdict(
        lagrangian_name=stack.lagr.name,
        energy_positivity=energy,
        flux_causality=flux,
        witnesses=witnesses,
        tensor_norm=float(stack.tensor_norm[0]),
        tensor_scale=float(stack.scale[0]),
    )


def check_dec(
    geom: PointGeometry,
    lagr: LagrangianSpec,
    num_directions: int = 8,
    seed: int = 0,
) -> DECVerdict:
    """Test the energy condition on sampled timelike directions.

    Directions are boosted off the canonical frame of the metric with
    rapidities up to ``sampling.BOOST_CAP``.  When ||T|| is negligible against
    its a-priori scale both statuses report vacuous_T_zero instead of pass/fail.
    """
    if num_directions < 1:
        raise ValueError("need at least one direction")
    stack = CheckStack.at(geom, lagr)
    rng = np.random.default_rng(seed)
    xs = sample_timelike_directions(stack.frames[0][0], rng, num_directions)
    return dec_verdict(stack.along(xs[None]))


def corollary_applies(lagr: LagrangianSpec) -> bool:
    """The pointwise corollary holds only for defocusing, zeroed, nondegenerate F."""
    flags = lagr.flags
    return flags.defocusing and flags.zeroed and flags.nondegenerate


def require_corollary_flags(lagr: LagrangianSpec) -> None:
    if not corollary_applies(lagr):
        raise ValueError(
            "pointwise corollary needs a defocusing, zeroed, nondegenerate Lagrangian"
        )
