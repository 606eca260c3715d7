"""Pointwise strain invariants, stress-energy tensors, and energy-condition checks.

The package computes, at a single point, the strain of a map between a
Lorentzian source and a Riemannian target, the elementary symmetric
invariants of that strain by three independent routes, stress-energy tensors
of invariant Lagrangians (closed form and finite-difference oracle), and
dominant-energy-condition verdicts, plus a deterministic randomized campaign
harness with a CLI.
"""

from .errors import (
    ConditioningError,
    ConfigError,
    DomainError,
    SamplerStarvationError,
    StepError,
    StrainDecError,
)
from .multilinear import (
    CausalClass,
    LorentzianMetric,
    OrthonormalFrame,
    RiemannianMetric,
    canonical_frame,
)
from .strain import (
    InvariantVector,
    PointGeometry,
    StrainTensor,
    power_sums,
    charpoly_coefficients,
    invariants_charpoly,
    invariants_newton,
    invariants_wedge,
    rank_of_map,
)
from .lagrangians import (
    AuditCheck,
    FlagAuditReport,
    LagrangianFlags,
    LagrangianSpec,
    born_infeld,
    box_rejection_sampler,
    linear_combination,
    minimal_surface,
    resolve_lagrangian,
    skyrme,
    verify_flags,
    wave_map,
)
from .stress import (
    StressEnergy,
    stress_variational,
)
from .dec import (
    CheckStatus,
    DECVerdict,
    DECWitness,
    check_dec,
    dec_witness,
    strain,
    stress_elementary,
    stress_general,
    stress_scale_general,
)
from .sampling import (
    derive_rng,
    sample_geometry,
    sample_timelike_directions,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    load_config,
    load_geometry,
    replay_fixture,
    report_bytes,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "AuditCheck",
    "CampaignConfig",
    "CampaignReport",
    "CausalClass",
    "CheckStatus",
    "ConditioningError",
    "ConfigError",
    "DECVerdict",
    "DECWitness",
    "DomainError",
    "FlagAuditReport",
    "InvariantVector",
    "LagrangianFlags",
    "LagrangianSpec",
    "LorentzianMetric",
    "OrthonormalFrame",
    "PointGeometry",
    "RiemannianMetric",
    "SamplerStarvationError",
    "StepError",
    "StrainDecError",
    "StrainTensor",
    "StressEnergy",
    "born_infeld",
    "box_rejection_sampler",
    "canonical_frame",
    "charpoly_coefficients",
    "check_dec",
    "dec_witness",
    "derive_rng",
    "invariants_charpoly",
    "invariants_newton",
    "invariants_wedge",
    "linear_combination",
    "load_config",
    "load_geometry",
    "minimal_surface",
    "power_sums",
    "rank_of_map",
    "replay_fixture",
    "report_bytes",
    "resolve_lagrangian",
    "run_campaign",
    "sample_geometry",
    "sample_timelike_directions",
    "skyrme",
    "strain",
    "stress_elementary",
    "stress_general",
    "stress_scale_general",
    "stress_variational",
    "verify_flags",
    "wave_map",
]
