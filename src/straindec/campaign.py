"""Campaign configuration, orchestration, reports, and fixture replay.

File formats are UTF-8 JSON with a mandatory ``schema_version`` field,
matrices as row-major arrays of arrays, and numbers at full shortest
round-trip precision.  Reports are deterministic byte-for-byte for a fixed
config (excluding the wall-clock duration field), whether samples run
serially or across a worker pool.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engine
from .dec import (
    CheckStatus,
    DECVerdict,
    VACUOUS_RTOL,
    check_convexity_lemma,
    check_pointwise_corollary,
    check_rank_condition,
    dec_witness,
)
from .errors import ConfigError
from .lagrangians import resolve_lagrangian
from .multilinear import LorentzianMetric, RiemannianMetric, canonical_frame
from .strain import (
    PointGeometry,
    invariants_charpoly,
    invariants_newton,
    invariants_wedge,
    strain,
)
from .stress import (
    stress_elementary,
    stress_general,
    stress_scale_general,
    wedge_decomposition,
)

SCHEMA_VERSION = 1

_MODES = ("verify", "violation_search")

_CONFIG_KEYS = {
    "schema_version",
    "m_plus_1",
    "n",
    "lagrangian",
    "num_samples",
    "num_directions_per_sample",
    "seed",
    "tolerances",
    "entry_range",
    "boost_cap",
    "rank_override",
    "mode",
    "max_fixtures",
}


def dump_json(obj) -> str:
    """Canonical serialization: sorted keys, two-space indent, no NaN."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context} is missing required field {key!r}")
    return mapping[key]


def _check_schema_version(data: dict, context: str) -> None:
    version = _require(data, "schema_version", context)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{context} has schema_version {version!r}, expected {SCHEMA_VERSION}"
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign parameters; the canonical form of a config file."""

    m_plus_1: int
    n: int
    lagrangian_name: str
    lagrangian_parameters: dict = field(default_factory=dict)
    num_samples: int = 100
    num_directions_per_sample: int = 8
    seed: int = 0
    algebraic_tol: float = 1e-9
    dec_tol: float = 1e-9
    oracle_tol: float = 1e-6
    entry_range: float = 1.0
    boost_cap: float = 5.0
    rank_override: int | None = None
    mode: str = "verify"
    max_fixtures: int = 100

    def __post_init__(self):
        if self.m_plus_1 < 1 or self.n < 1:
            raise ConfigError("dimensions m_plus_1 and n must be at least 1")
        if self.num_samples < 1:
            raise ConfigError("num_samples must be at least 1")
        if self.num_directions_per_sample < 1:
            raise ConfigError("num_directions_per_sample must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        for name in ("algebraic_tol", "dec_tol", "oracle_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(
                    f"tolerance {name} must be positive and finite, got {value!r}"
                )
        # dphi entries and rapidities are drawn uniformly on spans this wide.
        for name, span in (
            ("entry_range", 2.0 * self.entry_range),
            ("boost_cap", self.boost_cap),
        ):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(span)):
                raise ConfigError(
                    f"{name} must be nonnegative with a finite sampling span, got {value!r}"
                )
        if self.rank_override is not None and not (
            0 <= self.rank_override <= min(self.m_plus_1, self.n)
        ):
            raise ConfigError(
                f"rank_override must lie in [0, {min(self.m_plus_1, self.n)}]"
            )
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_fixtures < 0:
            raise ConfigError("max_fixtures must be nonnegative")
        # Fail early if the catalog cannot rebuild this Lagrangian.
        resolve_lagrangian(self.lagrangian_name, self.lagrangian_parameters, self.m_plus_1)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "m_plus_1": self.m_plus_1,
            "n": self.n,
            "lagrangian": {
                "name": self.lagrangian_name,
                "parameters": dict(self.lagrangian_parameters),
            },
            "num_samples": self.num_samples,
            "num_directions_per_sample": self.num_directions_per_sample,
            "seed": int(self.seed),
            "tolerances": {
                "algebraic": self.algebraic_tol,
                "dec": self.dec_tol,
                "oracle": self.oracle_tol,
            },
            "entry_range": self.entry_range,
            "boost_cap": self.boost_cap,
            "rank_override": self.rank_override,
            "mode": self.mode,
            "max_fixtures": self.max_fixtures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"config has unknown fields: {sorted(unknown)}")
        lagr = _require(data, "lagrangian", "config")
        if not isinstance(lagr, dict) or "name" not in lagr:
            raise ConfigError("config field 'lagrangian' must be {name, parameters}")
        tol = data.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("config field 'tolerances' must be an object")
        return cls(
            m_plus_1=int(_require(data, "m_plus_1", "config")),
            n=int(_require(data, "n", "config")),
            lagrangian_name=str(lagr["name"]),
            lagrangian_parameters=dict(lagr.get("parameters", {})),
            num_samples=int(_require(data, "num_samples", "config")),
            num_directions_per_sample=int(data.get("num_directions_per_sample", 8)),
            seed=int(data.get("seed", 0)),
            algebraic_tol=float(tol.get("algebraic", 1e-9)),
            dec_tol=float(tol.get("dec", 1e-9)),
            oracle_tol=float(tol.get("oracle", 1e-6)),
            entry_range=float(data.get("entry_range", 1.0)),
            boost_cap=float(data.get("boost_cap", 5.0)),
            rank_override=(
                None
                if data.get("rank_override") is None
                else int(data["rank_override"])
            ),
            mode=str(data.get("mode", "verify")),
            max_fixtures=int(data.get("max_fixtures", 100)),
        )


def load_config(path) -> CampaignConfig:
    data = read_json(path)
    _check_schema_version(data, f"config {path}")
    return CampaignConfig.from_dict(data)


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated campaign outcome: counts, margins, sampling stats, fixtures."""

    config: CampaignConfig
    counts: dict
    margins: dict
    sampling: dict
    fixtures: list
    duration_seconds: float

    @property
    def failures_total(self) -> int:
        return sum(c["fail"] for c in self.counts.values())

    @property
    def warnings_total(self) -> int:
        return sum(c["warning"] for c in self.counts.values())

    @property
    def counterexamples(self) -> list:
        return self.fixtures

    def to_dict(self) -> dict:
        draws = self.sampling.get("domain_draws", 0)
        accepted = self.sampling.get("domain_accepted", 0)
        sampling = dict(self.sampling)
        sampling["acceptance_rate"] = (accepted / draws) if draws else 0.0
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "counts": self.counts,
            "margins": self.margins,
            "sampling": sampling,
            "fixtures": self.fixtures,
            "failures_total": self.failures_total,
            "warnings_total": self.warnings_total,
            "duration_seconds": self.duration_seconds,
        }


def report_bytes(report_dict: dict, include_duration: bool = False) -> bytes:
    """Canonical bytes of a report, by default with the duration field removed."""
    data = dict(report_dict)
    if not include_duration:
        data.pop("duration_seconds", None)
    return dump_json(data).encode("utf-8")


def _chunk_args(args):
    return engine.run_chunk(*args)


def run_campaign(
    config: CampaignConfig, jobs: int = 1, out_path=None
) -> CampaignReport:
    """Run every per-sample check of a campaign and aggregate the results.

    ``jobs`` > 1 fans fixed-size chunks out to a process pool; chunking and
    fold order never depend on the worker count, so results are identical to a
    serial run.  When ``out_path`` is given the report JSON is written there.
    """
    start_time = time.perf_counter()
    cfg = config.to_dict()
    total = config.num_samples
    bounds = [
        (a, min(a + engine.CHUNK_SIZE, total))
        for a in range(0, total, engine.CHUNK_SIZE)
    ]
    if jobs > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_chunk_args, [(cfg, a, b) for a, b in bounds]))
    else:
        results = [engine.run_chunk(cfg, a, b) for a, b in bounds]
    folded = engine.fold_chunk_results(results, config.max_fixtures)
    report = CampaignReport(
        config=config,
        counts=folded["counts"],
        margins=folded["margins"],
        sampling=folded["sampling"],
        fixtures=folded["fixtures"],
        duration_seconds=time.perf_counter() - start_time,
    )
    if out_path is not None:
        write_json(out_path, report.to_dict())
    return report


def load_geometry(source) -> PointGeometry:
    """Build a PointGeometry from a JSON file path or an already-parsed dict."""
    data = source if isinstance(source, dict) else read_json(source)
    context = "geometry" if isinstance(source, dict) else f"geometry {source}"
    try:
        metric = LorentzianMetric(np.array(_require(data, "metric", context)))
        target = RiemannianMetric(np.array(_require(data, "target_metric", context)))
        dphi = np.array(_require(data, "dphi", context), dtype=float)
        return PointGeometry(metric=metric, target_metric=target, dphi=dphi)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of recomputing a fixture: fresh values plus recorded comparison.

    ``matches`` is True when every recorded status field (ok booleans, causal
    classes, consistency) is reproduced; recomputed floats are reported but
    compared only through those statuses.
    """

    kind: str
    verdict: DECVerdict | None
    matches: bool
    recorded: dict
    recomputed: dict


_DEC_KINDS = ("dec", "dec_energy", "dec_flux")
_FIXTURE_KINDS = _DEC_KINDS + (
    "rank_condition",
    "convexity_lemma",
    "supporting_hyperplane",
    "pointwise_corollary",
    "invariant_routes",
    "wedge_identity",
    "cauchy_schwarz",
)


def replay_fixture(source) -> ReplayResult:
    """Recompute a persisted fixture and compare against its recorded verdict.

    Accepts a path or an in-memory fixture dict.  Replay is deterministic: the
    same fixture always reproduces bitwise-identical recomputed values; the
    comparison with the recorded block is at status level since the original
    may have been produced by the batched engine.
    """
    data = source if isinstance(source, dict) else read_json(source)
    context = "fixture" if isinstance(source, dict) else f"fixture {source}"
    _check_schema_version(data, context)
    kind = _require(data, "kind", context)
    if kind not in _FIXTURE_KINDS:
        raise ConfigError(f"{context} has unknown kind {kind!r}")
    geom = load_geometry(
        {
            "metric": _require(data, "metric", context),
            "target_metric": _require(data, "target_metric", context),
            "dphi": _require(data, "dphi", context),
        }
    )
    lagr_info = _require(data, "lagrangian", context)
    lagr = resolve_lagrangian(
        str(lagr_info["name"]), dict(lagr_info.get("parameters", {})), geom.dim
    )
    tol = data.get("tolerances", {})
    tol_dec = float(tol.get("dec", 1e-9))
    tol_alg = float(tol.get("algebraic", 1e-9))
    recorded = dict(data.get("recorded", {}))

    def status_match(recomputed: dict) -> bool:
        return all(
            recorded[key] == recomputed[key]
            for key in recorded
            if key in recomputed and isinstance(recomputed[key], (bool, str, int))
        )

    verdict = None
    if kind in _DEC_KINDS:
        direction = np.array(_require(data, "direction", context), dtype=float)
        t = stress_general(geom, lagr)
        scale = stress_scale_general(geom, lagr)
        tnorm = float(np.linalg.norm(t.tensor))
        witness = dec_witness(geom.metric, t.tensor, direction, tol_dec)
        if tnorm <= VACUOUS_RTOL * scale:
            energy = flux = CheckStatus.VACUOUS
        else:
            energy = CheckStatus.PASS if witness.energy_ok else CheckStatus.FAIL
            flux = CheckStatus.PASS if witness.flux_ok else CheckStatus.FAIL
        verdict = DECVerdict(
            lagrangian_name=lagr.name,
            energy_positivity=energy,
            flux_causality=flux,
            witnesses=(witness,),
            tensor_norm=tnorm,
            tensor_scale=scale,
        )
        recomputed = {
            "energy": witness.energy,
            "energy_scale": witness.energy_scale,
            "flux_quadratic": witness.flux_quadratic,
            "flux_scale": witness.flux_scale,
            "flux_class": witness.flux_class.value,
            "energy_ok": witness.energy_ok,
            "flux_ok": witness.flux_ok,
        }
    elif kind == "rank_condition":
        check = check_rank_condition(geom, int(_require(data, "degree", context)), tol_dec)
        recomputed = {
            "rank": check.rank,
            "stress_norm": check.stress_norm,
            "scale": check.scale,
            "consistent": check.consistent,
        }
    elif kind == "convexity_lemma":
        direction = np.array(_require(data, "direction", context), dtype=float)
        check = check_convexity_lemma(geom, lagr, direction, tol_dec)
        recomputed = {
            "component_classes": [c.value for c in check.component_classes],
            "combined_class": check.combined_class.value,
            "premise": check.premise,
            "conclusion": check.conclusion,
            "holds": check.holds,
        }
    elif kind == "supporting_hyperplane":
        s = invariants_charpoly(strain(geom).matrix).s
        f = float(lagr.evaluate(s))
        dot = float(np.asarray(lagr.gradient(s)) @ s)
        margin = (f - dot) / max(1.0, abs(f), abs(dot))
        recomputed = {
            "value": f,
            "gradient_dot_s": dot,
            "margin": margin,
            "holds": margin >= -tol_dec,
        }
    elif kind == "pointwise_corollary":
        check = check_pointwise_corollary(geom, lagr, tol_dec)
        recomputed = {
            "dphi_norm": check.dphi_norm,
            "tensor_norm": check.tensor_norm,
            "scale": check.scale,
            "holds": check.holds,
        }
    elif kind == "invariant_routes":
        d = strain(geom).matrix
        routes = {
            "s_charpoly": invariants_charpoly(d).s,
            "s_newton": invariants_newton(d).s,
            "s_wedge": invariants_wedge(d).s,
        }
        ref = routes["s_charpoly"]
        residual = 0.0
        for key in ("s_newton", "s_wedge"):
            other = routes[key]
            denom = np.maximum(1.0, np.maximum(np.abs(ref), np.abs(other)))
            residual = max(residual, float(np.max(np.abs(ref - other) / denom)))
        recomputed = {
            "residual": residual,
            "holds": residual <= tol_alg,
            **{k: v.tolist() for k, v in routes.items()},
        }
    else:  # wedge_identity or cauchy_schwarz
        degree = int(_require(data, "degree", context))
        frame = canonical_frame(geom.metric)
        decomp = wedge_decomposition(geom, degree, frame)
        t = stress_elementary(geom, degree).tensor
        e0 = frame.vector(0)
        t00 = float(e0 @ t @ e0)
        if kind == "wedge_identity":
            denom = max(
                1.0,
                abs(t00),
                0.5 * (abs(decomp.perp_sum) + abs(decomp.parallel_sum)),
            )
            residual = abs(t00 - decomp.energy) / denom
            recomputed = {"residual": residual, "holds": residual <= tol_alg}
        else:
            momentum = np.array(
                [float(e0 @ t @ frame.vector(i)) for i in range(1, geom.dim)]
            )
            excess = (float(np.sum(momentum**2)) - t00**2) / max(1.0, t00**2)
            recomputed = {"excess": excess, "holds": excess <= tol_alg}

    return ReplayResult(
        kind=kind,
        verdict=verdict,
        matches=status_match(recomputed),
        recorded=recorded,
        recomputed=recomputed,
    )
