"""Dominant-energy-condition checks and the supporting pointwise predicates.

The central claim under test: for a defocusing, zeroed Lagrangian the
stress-energy tensor T satisfies, at every point and for every timelike X,

* energy positivity, T(X, X) >= 0, and
* flux causality, the momentum flux Y = g^{-1} T X is past-causal or zero
  (equivalently (T g^{-1} T)(X, X) <= 0 with the right time orientation).

All comparisons are relative: a-priori norm bounds supply the scales, and a
tensor counts as vacuously zero when its norm is negligible against them.

``CheckStack`` evaluates every pointwise check of a campaign on a stack of
geometries with the batched kernels (``batch_dec_witness``, ``batch_flux``
and those of strain and stress); its view ``CheckStack.along(directions)``
adds the checks that read timelike directions.  The campaign engine runs the
stack on whole chunks and its views on row blocks (``CheckStack.rows``);
fixture replay and the single-point functions here run it on a batch of one.
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
    batch_contract,
    canonical_frames,
    causal_class,
    frobenius,
    metric_pairing,
)
from .sampling import sample_timelike_directions
from .strain import (
    PointGeometry,
    batch_charpoly_coefficients,
    batch_invariants_newton,
    batch_invariants_wedge,
    batch_rank,
    batch_route_residual,
    batch_strain,
)
from .stress import (
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

    @property
    def energy_margin(self) -> float:
        return self.energy / self.energy_scale if self.energy_scale > 0.0 else 0.0

    @property
    def flux_margin(self) -> float:
        return (
            self.flux_quadratic / self.flux_scale if self.flux_scale > 0.0 else 0.0
        )


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
    """
    x = require_timelike(metric, direction)[None, None]
    tensor = np.asarray(tensor, dtype=float)[None]
    g = metric.entries[None]
    return _witness(batch_dec_witness(g, np.linalg.inv(g), tensor, x, tol), 0, 0)


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
    lemma) live on the view ``along`` returns, so no field of the stack
    depends on directions.  A check's pass mask is the attribute
    named after it (``dec_energy`` .. ``cauchy_schwarz``), shaped (B, K) for
    the witnesses, (B, m+1) per degree and (B,) otherwise.
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
        _, pull, d, stack.s = geom.stack
        stack.g_inv, stack.strain = geom.g_inv, (pull, d)
        if lagr is not None:
            require_domain(lagr, stack.s[0])
        return stack

    def along(self, directions: np.ndarray) -> "DirectedStack":
        """This stack's checks along a (B, K, m+1) stack of timelike vectors."""
        return DirectedStack(self, directions)

    def rows(self, block: slice) -> "CheckStack":
        """Samples ``block`` of this stack, sharing g^{-1}, T_j, the terms and T.

        Those are the fields a view ``along`` directions reads, so the view
        of a row block recomputes none of them; they are row views of this
        stack's arrays, computed here first if they were not yet.
        """
        sub = CheckStack(
            self.g[block], self.h[block], self.dphi[block], self.lagr, self.tol,
            self.algebraic_tol,
        )
        sub.g_inv, sub.elementary, sub.tensor = (
            self.g_inv[block], self.elementary[block], self.tensor[block]
        )
        sub.terms = tuple(a[block] for a in self.terms)
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

    # (T numerically zero, dphi below ``dphi_floor``); the first must imply the
    # second.
    dphi_floor = ZERO_FLOOR
    corollary = cached_property(lambda st: (
        st.tensor_norm <= st.tol * st.scale, frobenius(st.dphi) <= st.dphi_floor
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


@dataclass(eq=False)
class DirectedStack:
    """A CheckStack along a (B, K, m+1) stack of timelike ``directions``.

    Holds the checks that read the directions: the DEC witnesses and the
    combination lemma, which uses the first direction of each sample.  Every
    other field is read from, and computed on, the stack it views, so views
    with different directions can share one stack.
    """

    stack: CheckStack
    directions: np.ndarray

    def __getattr__(self, name):
        return getattr(self.stack, name)

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

    # Pass masks, named after the checks.
    dec_energy = cached_property(lambda st: st.witness.energy_ok)
    dec_flux = cached_property(lambda st: st.witness.flux.ok)
    convexity_lemma = cached_property(lambda st: ~st.premise | st.conclusion)


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


def dec_verdict(stack: DirectedStack, lagrangian_name: str) -> DECVerdict:
    """Verdict on sample 0 of a stack over all of its directions."""
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
        lagrangian_name=lagrangian_name,
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
    return dec_verdict(stack.along(xs[None]), lagr.name)


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
    check_degree(degree, geom.dim)
    stack = CheckStack.at(geom, tol=tol)
    rank = int(stack.rank[0])
    vanished = bool(stack.vanished[0, degree - 1])
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
        stress_norm=float(stack.elementary_norms[0, degree - 1]),
        scale=float(stack.elementary_scales[0, degree - 1]),
        vanished=vanished,
        expected_vanishing=expected,
        consistent=bool(stack.rank_condition[0, degree - 1]),
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
    x = require_timelike(geom.metric, direction, unit=True)
    stack = CheckStack.at(geom, lagr, tol).along(x[None, None])
    return ConvexityCombinationCheck(
        component_classes=tuple(
            stack.components.causal_class(0, j) for j in range(geom.dim)
        ),
        combined_class=stack.witness.flux.causal_class(0, 0),
        premise=bool(stack.premise[0]),
        conclusion=bool(stack.conclusion[0]),
        holds=bool(stack.convexity_lemma[0]),
        hyperplane_margin=float(stack.hyperplane_margin[0]),
        hyperplane_ok=bool(stack.supporting_hyperplane[0]),
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


def corollary_applies(lagr: LagrangianSpec) -> bool:
    """The pointwise corollary holds only for defocusing, zeroed, nondegenerate F."""
    flags = lagr.flags
    return flags.defocusing and flags.zeroed and flags.nondegenerate


def require_corollary_flags(lagr: LagrangianSpec) -> None:
    if not corollary_applies(lagr):
        raise ValueError(
            "pointwise corollary needs a defocusing, zeroed, nondegenerate Lagrangian"
        )


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
    require_corollary_flags(lagr)
    stack = CheckStack.at(geom, lagr, tol)
    stack.dphi_floor = dphi_floor
    tensor_zero, dphi_small = (bool(m[0]) for m in stack.corollary)
    return PointwiseCorollaryCheck(
        dphi_norm=float(np.linalg.norm(geom.dphi)),
        tensor_norm=float(stack.tensor_norm[0]),
        scale=float(stack.scale[0]),
        tensor_zero=tensor_zero,
        dphi_small=dphi_small,
        holds=bool(stack.pointwise_corollary[0]),
    )
