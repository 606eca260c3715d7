"""Command-line interface: verify, invariants, stress, replay, audit-lagrangian.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .campaign import (
    CampaignReport,
    load_config,
    load_geometry,
    replay_fixture,
    run_campaign,
)
from .dec import strain, stress_general
from .errors import StrainDecError, ConfigError
from .lagrangians import box_rejection_sampler, resolve_lagrangian, verify_flags
from .strain import invariants_charpoly, invariants_newton, invariants_wedge
from .stress import stress_variational


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="straindec",
        description=(
            "Pointwise strain invariants, stress-energy tensors, and "
            "dominant-energy-condition verification campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a campaign from a JSON config file")
    p.add_argument("--config", required=True, help="campaign config JSON path")
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at most one per chunk and per CPU)")

    p = sub.add_parser(
        "invariants", help="print the invariant vector of a geometry, three routes"
    )
    p.add_argument("geometry", help="PointGeometry JSON path")

    p = sub.add_parser(
        "stress", help="print closed-form and oracle stress tensors with residual"
    )
    p.add_argument("geometry", help="PointGeometry JSON path")
    p.add_argument("--lagrangian", required=True, help="built-in Lagrangian name")
    p.add_argument(
        "--params", default="{}", help="Lagrangian parameters as a JSON object"
    )
    p.add_argument(
        "--tol", type=float, default=1e-6, help="relative oracle agreement tolerance"
    )

    p = sub.add_parser("replay", help="recompute a persisted fixture")
    p.add_argument("fixture", help="fixture JSON path")

    p = sub.add_parser(
        "audit-lagrangian", help="sampled audit of a Lagrangian's declared flags"
    )
    p.add_argument("--lagrangian", required=True, help="built-in Lagrangian name")
    p.add_argument(
        "--params", default="{}", help="Lagrangian parameters as a JSON object"
    )
    p.add_argument("--dim", type=int, required=True, help="invariant vector length")
    p.add_argument("--samples", type=int, default=1000, help="domain sample count")
    p.add_argument("--seed", type=int, default=0, help="audit sampler seed")
    p.add_argument("--low", type=float, default=-5.0, help="sample box lower bound")
    p.add_argument("--high", type=float, default=5.0, help="sample box upper bound")
    return parser


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc.msg}") from exc
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    return params


def _print_report(report: CampaignReport) -> None:
    print(f"campaign: {report.config.lagrangian_name}  "
          f"m+1={report.config.m_plus_1} n={report.config.n}  "
          f"samples={report.config.num_samples} "
          f"directions={report.config.num_directions_per_sample} "
          f"seed={report.config.seed} mode={report.config.mode}")
    for name, c in report.counts.items():
        if c["total"] == 0:
            continue
        print(
            f"  {name:<22} pass={c['pass']:<8} fail={c['fail']:<6} "
            f"vacuous={c['vacuous']:<6} warning={c['warning']}"
        )
    for name, value in report.margins.items():
        if value is not None:
            print(f"  {name:<34} {value: .3e}")
    sampling = report.sampling
    draws = sampling.get("domain_draws", 0)
    if draws:
        rate = sampling.get("domain_accepted", 0) / draws
        print(f"  domain acceptance rate             {rate:.4f}")
    if report.fixtures:
        print(f"  fixtures recorded: {len(report.fixtures)}")
    print(f"  duration: {report.duration_seconds:.2f}s  "
          f"failures={report.failures_total} warnings={report.warnings_total}")


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    report = run_campaign(config, jobs=args.jobs, out_path=args.out)
    _print_report(report)
    if config.mode == "violation_search":
        return 0
    return 1 if report.failures_total > 0 else 0


def _format_matrix(a: np.ndarray) -> str:
    return np.array2string(a, precision=12, suppress_small=False)


def _cmd_invariants(args) -> int:
    geom = load_geometry(args.geometry)
    d = strain(geom).matrix
    routes = {
        "charpoly": invariants_charpoly(d),
        "newton": invariants_newton(d),
        "wedge": invariants_wedge(d),
    }
    for name, inv in routes.items():
        print(f"{name:<9} s = {np.array2string(inv.s, precision=15)}")
    ref = routes["charpoly"]
    print(f"power sums p = {np.array2string(ref.power_sums, precision=15)}")
    print(f"rank estimate = {ref.rank_estimate}")
    return 0


def _cmd_stress(args) -> int:
    if not (args.tol > 0.0 and np.isfinite(args.tol)):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol!r}")
    geom = load_geometry(args.geometry)
    lagr = resolve_lagrangian(args.lagrangian, _parse_params(args.params), geom.dim)
    closed = stress_general(geom, lagr)
    oracle = stress_variational(geom, lagr)
    scale = max(1.0, float(np.linalg.norm(closed.tensor)))
    residual = float(np.linalg.norm(closed.tensor - oracle.tensor)) / scale
    print(f"lagrangian: {lagr.name}")
    print(f"T ({closed.provenance}):")
    print(_format_matrix(closed.tensor))
    print(f"T ({oracle.provenance}):")
    print(_format_matrix(oracle.tensor))
    print(f"relative residual: {residual:.3e} (tolerance {args.tol:.1e})")
    if residual > args.tol:
        print("oracle disagreement exceeds tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args) -> int:
    result = replay_fixture(args.fixture)
    print(f"fixture kind: {result.kind}")
    if result.verdict is not None:
        v = result.verdict
        w = v.witnesses[0]
        print(f"energy_positivity: {v.energy_positivity.value}")
        print(f"flux_causality:    {v.flux_causality.value}")
        print(f"T(X,X) = {w.energy!r}   q = {w.flux_quadratic!r}   "
              f"flux class = {w.flux_class.value}")
    for key, value in sorted(result.recomputed.items()):
        print(f"  recomputed {key} = {value!r}")
    if result.recorded:
        print("matches recorded verdict" if result.matches
              else "MISMATCH with recorded verdict")
    return 0 if result.matches else 1


def _cmd_audit(args) -> int:
    spec = resolve_lagrangian(args.lagrangian, _parse_params(args.params), args.dim)
    sampler = box_rejection_sampler(spec, low=args.low, high=args.high)
    report = verify_flags(spec, args.samples, sampler=sampler, seed=args.seed)
    print(f"lagrangian: {spec.name}  declared flags: "
          f"defocusing={spec.flags.defocusing} zeroed={spec.flags.zeroed} "
          f"nondegenerate={spec.flags.nondegenerate}")
    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        print(f"  {check.name:<22} {verdict}  total={check.total:<6} "
              f"violations={check.violations:<6} worst={check.worst_margin: .3e}")
    if report.flag_mismatches:
        print(f"declared flags refuted: {', '.join(report.flag_mismatches)}")
    if report.admissibility_failures:
        print(f"admissibility checks failed: {', '.join(report.admissibility_failures)}")
    # A failing check for a flag declared False is confirmation, not an error.
    return 1 if (report.flag_mismatches or report.admissibility_failures) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "invariants": _cmd_invariants,
        "stress": _cmd_stress,
        "replay": _cmd_replay,
        "audit-lagrangian": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except (StrainDecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
