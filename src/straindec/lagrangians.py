"""Catalog of invariant-vector Lagrangians and empirical audits of their flags.

A Lagrangian here is a scalar function of the strain invariant vector
(s_1, ..., s_dim) together with its gradient, a domain predicate, and three
declared structural flags:

* defocusing: every partial derivative is nonnegative on the domain,
* zeroed: F(0) = 0,
* nondegenerate: the first partial derivative is strictly positive.

``verify_flags`` samples the domain and hunts for counterexamples to the
declared flags and to the admissibility-style inequalities (midpoint
concavity, sub-additivity, supporting hyperplane, negative semidefinite
Hessian).  Sampling can refute a declared flag but never prove one.

Evaluate/gradient/domain callables follow a batched convention: they accept
arrays of shape (..., dim) and return shapes (...), (..., dim) and (...)
respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, SamplerStarvationError

# |F(0)| above this absolute floor refutes the zeroed flag.
ZEROED_ATOL = 1e-12
# Relative tolerance for sampled inequality checks.
AUDIT_TOL = 1e-9
# Relative slack for the finite-difference Hessian checks at the first
# HESSIAN_SPOTS sampled points (second differences carry far more roundoff
# than direct evaluations).
HESSIAN_TOL = 1e-5
HESSIAN_SPOTS = 12
# Default floor keeping square-root arguments away from the branch point.
DOMAIN_DELTA = 1e-10


@dataclass(frozen=True)
class LagrangianFlags:
    """Declared structural properties of a Lagrangian."""

    defocusing: bool
    zeroed: bool
    nondegenerate: bool


@dataclass(frozen=True)
class LagrangianSpec:
    """A Lagrangian on invariant vectors of a fixed dimension.

    ``parameters`` holds plain scalars sufficient to rebuild the spec by name
    (used when configs and reports are serialized).  ``min_rank`` is the
    least rank of dphi whose invariants can lie in the domain: s_k vanishes
    identically below rank k, so a domain that needs s_k >= delta > 0 has no
    point there.
    """

    name: str
    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    domain_predicate: Callable[[np.ndarray], np.ndarray]
    flags: LagrangianFlags
    parameters: dict = field(default_factory=dict)
    min_rank: int = 0


def _always_inside(v) -> np.ndarray:
    return np.ones(np.shape(v)[:-1], dtype=bool)


def _require_finite(name: str, *values) -> None:
    # NaN fails every ordered comparison, so range checks alone let it through.
    if not all(math.isfinite(float(v)) for v in values):
        raise ValueError(f"{name} parameters must be finite, got {values}")


def linear_combination(
    coefficients,
    dim: int | None = None,
    *,
    flags: LagrangianFlags | None = None,
    name: str = "linear_combination",
) -> LagrangianSpec:
    """F(v) = sum_j c_j v_j on all invariant vectors.

    Coefficients are padded with zeros (or truncated) to ``dim``.  Default
    flags are honest: defocusing iff every coefficient is nonnegative,
    nondegenerate iff the first coefficient is positive.  Passing ``flags``
    overrides them, which is how deliberately mis-declared specs are built for
    audit tests.
    """
    c = np.atleast_1d(np.asarray(coefficients, dtype=float)).ravel()
    _require_finite(name, *c.tolist())
    if dim is None:
        dim = c.size
    if dim < 1:
        raise ValueError("invariant dimension must be at least 1")
    full = np.zeros(dim)
    full[: min(dim, c.size)] = c[:dim]

    def ev(v):
        return np.asarray(v, dtype=float) @ full

    def grad(v):
        shape = np.shape(v)
        return np.broadcast_to(full, shape).copy() if shape != (dim,) else full.copy()

    if flags is None:
        flags = LagrangianFlags(
            defocusing=bool(np.all(full >= 0.0)),
            zeroed=True,
            nondegenerate=bool(full[0] > 0.0),
        )
    return LagrangianSpec(
        name=name,
        dim=dim,
        evaluate=ev,
        gradient=grad,
        domain_predicate=_always_inside,
        flags=flags,
        parameters={"coefficients": full.tolist()},
    )


def wave_map(dim: int) -> LagrangianSpec:
    """F(v) = v_1, the wave-map Lagrangian (trace of the strain)."""
    return replace(linear_combination([1.0], dim, name="wave_map"), parameters={})


def skyrme(c1: float, c2: float, dim: int) -> LagrangianSpec:
    """F(v) = c1 v_1 + c2 v_2 with nonnegative couplings."""
    if dim < 2:
        raise ValueError("skyrme needs invariant dimension at least 2")
    if c1 < 0.0 or c2 < 0.0:
        raise ValueError("skyrme couplings must be nonnegative")
    return replace(
        linear_combination([c1, c2], dim, name="skyrme"),
        parameters={"c1": float(c1), "c2": float(c2)},
    )


def born_infeld(b: float, dim: int, delta: float = DOMAIN_DELTA) -> LagrangianSpec:
    """F(v) = sqrt(b^dim + sum_j b^(dim-j) v_j) - b^(dim/2).

    The argument of the root is det(b I + D) written in invariants; the domain
    keeps it at least ``delta`` away from the branch point.
    """
    _require_finite("born_infeld", b, delta)
    if b <= 0.0:
        raise ValueError("born_infeld scale b must be positive")
    if dim < 1:
        raise ValueError("invariant dimension must be at least 1")
    try:
        const = float(b**dim)
    except OverflowError:
        raise ValueError(f"born_infeld scale b = {b} overflows b**dim at dim {dim}") from None
    weights = b ** (dim - np.arange(1, dim + 1, dtype=float))
    root0 = float(np.sqrt(const))

    def arg(v):
        return np.asarray(const + np.asarray(v, dtype=float) @ weights)

    def ev(v):
        return np.sqrt(arg(v)) - root0

    def grad(v):
        a = arg(v)
        return weights * (0.5 / np.sqrt(a))[..., None]

    def inside(v):
        return arg(v) >= delta

    return LagrangianSpec(
        name="born_infeld",
        dim=dim,
        evaluate=ev,
        gradient=grad,
        domain_predicate=inside,
        flags=LagrangianFlags(defocusing=True, zeroed=True, nondegenerate=True),
        parameters={"b": float(b), "delta": float(delta)},
    )


def minimal_surface(dim: int, delta: float = DOMAIN_DELTA) -> LagrangianSpec:
    """F(v) = sqrt(v_{dim-1}), defined where that invariant is nonnegative.

    The relevant partial derivative blows up at the branch point, so the
    domain keeps v_{dim-1} >= delta.  The first partial vanishes whenever
    dim > 2, so the spec is only flagged nondegenerate in dimension 2.
    """
    if dim < 2:
        raise ValueError("minimal_surface needs invariant dimension at least 2")
    _require_finite("minimal_surface", delta)
    index = dim - 2

    def ev(v):
        return np.sqrt(np.asarray(v, dtype=float)[..., index])

    def grad(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(np.shape(v))
        out[..., index] = 0.5 / np.sqrt(v[..., index])
        return out

    def inside(v):
        return np.asarray(v, dtype=float)[..., index] >= delta

    return LagrangianSpec(
        name="minimal_surface",
        dim=dim,
        evaluate=ev,
        gradient=grad,
        domain_predicate=inside,
        flags=LagrangianFlags(
            defocusing=True, zeroed=True, nondegenerate=(index == 0)
        ),
        parameters={"delta": float(delta)},
        min_rank=dim - 1 if delta > 0.0 else 0,
    )


def _json_float(value) -> float:
    """A JSON number as a float; a bool or a string is an error."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _json_coefficients(value):
    """A JSON number or a list of them as a float or a list of floats."""
    return [_json_float(c) for c in value] if isinstance(value, list) else _json_float(value)


def _json_flags(value) -> dict:
    """An object of exactly the three declared flags, each a JSON boolean."""
    names = {f.name for f in fields(LagrangianFlags)}
    if not (isinstance(value, dict) and set(value) == names
            and all(isinstance(v, bool) for v in value.values())):
        raise TypeError(f"expected an object of booleans {sorted(names)}, got {value!r}")
    return dict(value)


# The parameters each built-in reads and the conversion of their JSON values;
# "flags" overrides the declared flags of a linear combination.
_PARAMETERS = {
    "wave_map": {},
    "skyrme": {"c1": _json_float, "c2": _json_float},
    "born_infeld": {"b": _json_float, "delta": _json_float},
    "linear_combination": {"coefficients": _json_coefficients, "flags": _json_flags},
    "minimal_surface": {"delta": _json_float},
}
BUILTIN_NAMES = tuple(_PARAMETERS)


def canonical_parameters(name: str, parameters: dict | None) -> dict:
    """A built-in Lagrangian's parameters as the JSON values it reads.

    Numbers become floats, ``coefficients`` a float or a list of floats and
    ``flags`` a dict of three bools.  A parameter name the Lagrangian does
    not read is an error, so a misspelt optional parameter cannot silently
    run with its default; so is a value of the wrong JSON type, such as a
    bool or a string for a number.
    """
    if name not in _PARAMETERS:
        raise ConfigError(f"unknown lagrangian {name!r}; built-ins are {BUILTIN_NAMES}")
    readers, given = _PARAMETERS[name], dict(parameters or {})
    unknown = sorted(set(given) - set(readers))
    if unknown:
        raise ConfigError(
            f"lagrangian {name} has unknown parameters {unknown}; it reads {list(readers)}"
        )
    out = {}
    for key, convert in readers.items():
        try:
            if key in given:
                out[key] = convert(given[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"lagrangian {name} parameter {key!r}: {exc}") from exc
    return out


def resolve_lagrangian(name: str, parameters: dict | None, dim: int) -> LagrangianSpec:
    """Rebuild a built-in Lagrangian from its serialized (name, parameters) form.

    The parameters go through ``canonical_parameters`` first, so an unknown
    name, an unknown parameter or a value of the wrong JSON type is a
    ``ConfigError``.
    """
    p = canonical_parameters(name, parameters)
    try:
        if name == "wave_map":
            return wave_map(dim)
        if name == "skyrme":
            return skyrme(p["c1"], p["c2"], dim)
        if name == "born_infeld":
            return born_infeld(p["b"], dim, p.get("delta", DOMAIN_DELTA))
        if name == "linear_combination":
            flags = LagrangianFlags(**p["flags"]) if "flags" in p else None
            return linear_combination(p["coefficients"], dim, flags=flags)
        return minimal_surface(dim, p.get("delta", DOMAIN_DELTA))
    except KeyError as exc:
        raise ConfigError(f"lagrangian {name} is missing parameter {exc}") from exc


def box_rejection_sampler(
    spec: LagrangianSpec,
    low: float = -5.0,
    high: float = 5.0,
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Uniform sampler on [low, high]^dim restricted to the spec's domain.

    Draws batches and keeps in-domain rows; raises SamplerStarvationError with
    the observed acceptance rate if 100 batches cannot fill the
    request.  Raises ConfigError unless low < high and low, high and
    high - low are finite.
    """
    if not (np.isfinite([low, high, high - low]).all() and low < high):
        raise ConfigError(
            f"sample box needs finite low < high with a finite width, "
            f"got low={low}, high={high}"
        )

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        kept: list[np.ndarray] = []
        filled = 0
        drawn = 0
        accepted = 0
        for _ in range(100):
            batch = rng.uniform(low, high, size=(max(count, 64), spec.dim))
            mask = np.asarray(spec.domain_predicate(batch), dtype=bool)
            drawn += batch.shape[0]
            accepted += int(mask.sum())
            if mask.any():
                kept.append(batch[mask])
                filled += int(mask.sum())
            if filled >= count:
                return np.concatenate(kept, axis=0)[:count]
        rate = accepted / drawn if drawn else 0.0
        raise SamplerStarvationError(
            f"domain of {spec.name} accepted {accepted}/{drawn} draws "
            f"on [{low}, {high}]^{spec.dim}; cannot fill {count} slots",
            acceptance_rate=rate,
        )

    return sampler


@dataclass(frozen=True)
class AuditCheck:
    """Outcome of one sampled inequality: comparisons made, violations, worst margin.

    Margins are signed so that negative means violated; ``worst_margin`` is the
    most negative margin observed (0.0 when the check never fired or passed).
    """

    name: str
    total: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class FlagAuditReport:
    """Sampled audit of a Lagrangian's declared flags and admissibility checks."""

    lagrangian: str
    declared: LagrangianFlags
    checks: tuple[AuditCheck, ...]

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no audit check named {name!r}")

    @property
    def flag_mismatches(self) -> tuple[str, ...]:
        """Declared-true flags refuted by the samples."""
        out = []
        if self.declared.zeroed and not self.check("zeroed").passed:
            out.append("zeroed")
        if self.declared.defocusing and not self.check("defocusing").passed:
            out.append("defocusing")
        if self.declared.nondegenerate and not self.check("nondegenerate").passed:
            out.append("nondegenerate")
        return tuple(out)

    @property
    def admissibility_failures(self) -> tuple[str, ...]:
        names = ("f0_nonnegative", "concavity_midpoint", "subadditivity",
                 "supporting_hyperplane", "hessian_nsd")
        return tuple(n for n in names if not self.check(n).passed)


def _fd_hessian(spec: LagrangianSpec, v: np.ndarray) -> np.ndarray | None:
    """Central second differences; None if any stencil point leaves the domain."""
    dim = spec.dim
    steps = 1e-4 * np.maximum(1.0, np.abs(v))
    h = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            pts = []
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    w = v.copy()
                    w[a] += sa * steps[a]
                    w[b] += sb * steps[b]
                    pts.append(w)
            pts = np.array(pts)
            if not np.all(np.asarray(spec.domain_predicate(pts), dtype=bool)):
                return None
            f = np.asarray(spec.evaluate(pts), dtype=float)
            h[a, b] = h[b, a] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * steps[a] * steps[b])
    return h


def verify_flags(
    spec: LagrangianSpec,
    sample_count: int = 1000,
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
    seed: int = 0,
) -> FlagAuditReport:
    """Hunt for counterexamples to the declared flags on sampled domain points.

    Runs eight sampled checks: the three declared flags (zeroed, defocusing,
    nondegenerate) plus F(0) >= 0, midpoint concavity, sub-additivity, the
    supporting-hyperplane inequality F(v) >= grad F(v) . v, and finite
    difference Hessian negative semidefiniteness at a few spot points.  Pair
    checks skip pairs whose midpoint or sum leaves the domain.
    """
    if sample_count < 2:
        raise ValueError("flag audits need at least 2 samples")
    rng = np.random.default_rng(seed)
    if sampler is None:
        sampler = box_rejection_sampler(spec)
    pts = np.atleast_2d(np.asarray(sampler(rng, sample_count), dtype=float))
    if pts.shape != (sample_count, spec.dim):
        raise ConfigError(
            f"sampler returned shape {pts.shape}, expected ({sample_count}, {spec.dim})"
        )
    if not np.all(np.asarray(spec.domain_predicate(pts), dtype=bool)):
        raise ConfigError("sampler produced points outside the declared domain")

    checks: list[AuditCheck] = []

    def record(name, margins, total=None):
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        ok = margins >= 0.0
        ok &= np.isfinite(margins)
        viol = int(np.count_nonzero(~ok))
        worst = float(np.min(margins, initial=0.0)) if margins.size else 0.0
        if not np.isfinite(worst):
            worst = -np.inf
        checks.append(
            AuditCheck(
                name=name,
                total=int(margins.size if total is None else total),
                violations=viol,
                worst_margin=min(worst, 0.0),
            )
        )

    f0 = float(spec.evaluate(np.zeros(spec.dim)))
    record("zeroed", [ZEROED_ATOL - abs(f0)], total=1)
    record("f0_nonnegative", [f0 + ZEROED_ATOL], total=1)

    grads = np.asarray(spec.gradient(pts), dtype=float)
    gscale = np.maximum(1.0, np.max(np.abs(grads), axis=1))
    record("defocusing", np.min(grads, axis=1) + AUDIT_TOL * gscale)
    record("nondegenerate", grads[:, 0] - AUDIT_TOL * gscale)

    vals = np.asarray(spec.evaluate(pts), dtype=float)
    half = sample_count // 2
    u, v = pts[0::2][:half], pts[1::2][:half]
    fu, fv = vals[0::2][:half], vals[1::2][:half]

    mid = 0.5 * (u + v)
    mask = np.asarray(spec.domain_predicate(mid), dtype=bool)
    fmid = np.asarray(spec.evaluate(mid[mask]), dtype=float)
    scale = np.maximum.reduce(
        [np.ones(int(mask.sum())), np.abs(fu[mask]), np.abs(fv[mask]), np.abs(fmid)]
    )
    record(
        "concavity_midpoint",
        fmid - 0.5 * (fu[mask] + fv[mask]) + AUDIT_TOL * scale,
        total=int(mask.sum()),
    )

    tot = u + v
    mask = np.asarray(spec.domain_predicate(tot), dtype=bool)
    ftot = np.asarray(spec.evaluate(tot[mask]), dtype=float)
    scale = np.maximum.reduce(
        [np.ones(int(mask.sum())), np.abs(fu[mask]), np.abs(fv[mask]), np.abs(ftot)]
    )
    record(
        "subadditivity",
        fu[mask] + fv[mask] - ftot + AUDIT_TOL * scale,
        total=int(mask.sum()),
    )

    dots = np.sum(grads * pts, axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(vals), np.abs(dots)))
    record("supporting_hyperplane", vals - dots + AUDIT_TOL * scale)

    margins = []
    spots = 0
    for v_spot in pts[:HESSIAN_SPOTS]:
        h = _fd_hessian(spec, v_spot)
        if h is None:
            continue
        spots += 1
        top = float(np.max(np.linalg.eigvalsh(0.5 * (h + h.T))))
        hscale = max(1.0, float(np.linalg.norm(h)))
        margins.append(HESSIAN_TOL * hscale - top)
    record("hessian_nsd", margins, total=spots)

    return FlagAuditReport(
        lagrangian=spec.name, declared=spec.flags, checks=tuple(checks)
    )
