"""The benchmark's workloads: configs made from a seed, one timed pass, its gates.

- ``grid-serial``: the five theorem Lagrangians x 12 (m+1, n) cells of
  acceptance criterion 1, serial, 8 directions per sample.  Per-sample
  Python sampling dominates here.
- ``dense-directions``: skyrme(1, 1) at 4x4 and 3x3 with 256 directions per
  sample, ``jobs=2``.  The batched kernel and the process pool dominate.
- ``counterexample-harvest``: a violation search on linear_combination
  [1, -5, 0] at 3x3 keeping 2000 fixtures, then the report written as JSON,
  read back, and every fixture replayed through the scalar path.

A pass calls only the public campaign API.  The traced pass (``traced_pass``)
also takes ``run_campaign`` apart into ``engine.run_chunk`` calls and
re-issues the sampling and scalar calls, to attribute time to layers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from straindec import (
    CampaignConfig,
    CampaignReport,
    canonical_frame,
    charpoly_coefficients,
    dec_witness,
    load_geometry,
    replay_fixture,
    report_bytes,
    resolve_lagrangian,
    run_campaign,
    strain,
    stress_general,
    stress_scale_general,
)
from straindec import engine
from straindec.campaign import write_json
# The engine skips the domain check exactly when the predicate is this one.
from straindec.lagrangians import _always_inside
from straindec.sampling import derive_rng, draw_direction_params, draw_geometry_arrays

THEOREM_LAGRANGIANS = (
    ("wave_map", {}),
    ("skyrme", {"c1": 1.0, "c2": 1.0}),
    ("skyrme", {"c1": 2.0, "c2": 0.5}),
    ("linear_combination", {"coefficients": [1.0, 1.0, 1.0]}),
    ("born_infeld", {"b": 10.0}),
)
GRID_DIMS = tuple(itertools.product((2, 3, 4), (1, 2, 3, 4)))
SIGN_FLIPPED = ("linear_combination", {"coefficients": [1.0, -5.0, 0.0]})
HARVEST_MAX_FIXTURES = 2000

# Samples per campaign in a measured pass.  On a 2-core Xeon a pass takes
# 2-5 s, so one 30 s run holds several passes to take medians over.
FULL_SAMPLES = {
    "grid-serial": 512,
    "dense-directions": 8192,
    "counterexample-harvest": 8192,
}
# Samples per campaign in the warm-up pass and the self-test.
TINY_SAMPLES = {
    "grid-serial": 4,
    "dense-directions": 8,
    "counterexample-harvest": 16,
}
NAMES = tuple(FULL_SAMPLES)


@dataclass(frozen=True)
class Cell:
    label: str
    config: CampaignConfig


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    cells: tuple[Cell, ...]


def _cell(name, params, m1, n, samples, ndir, seed, **extra) -> Cell:
    config = CampaignConfig(
        m_plus_1=m1,
        n=n,
        lagrangian_name=name,
        lagrangian_parameters=params,
        num_samples=samples,
        num_directions_per_sample=ndir,
        seed=seed,
        **extra,
    )
    return Cell(f"{name}{json.dumps(params, sort_keys=True)}@{m1}x{n}/seed={seed}", config)


def build(name: str, seed: int, samples: int) -> Workload:
    """The workload's configs for a seed; constructing them validates them."""
    if name == "grid-serial":
        cells = tuple(
            _cell(lname, params, m1, n, samples, 8, seed + 100 * li + di)
            for li, (lname, params) in enumerate(THEOREM_LAGRANGIANS)
            for di, (m1, n) in enumerate(GRID_DIMS)
        )
        return Workload(name, 1, cells)
    if name == "dense-directions":
        skyrme = {"c1": 1.0, "c2": 1.0}
        cells = tuple(
            _cell("skyrme", skyrme, dim, dim, samples, 256, seed + i)
            for i, dim in enumerate((4, 3))
        )
        return Workload(name, 2, cells)
    if name == "counterexample-harvest":
        lname, params = SIGN_FLIPPED
        cell = _cell(
            lname, params, 3, 3, samples, 8, seed,
            mode="violation_search", max_fixtures=HARVEST_MAX_FIXTURES,
        )
        return Workload(name, 1, (cell,))
    raise ValueError(f"unknown workload {name!r}")


class Ops:
    """Counts program calls (campaigns, replays); one that raises yields None."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class PassResult:
    wall_s: float = 0.0
    campaign_s: dict = field(default_factory=dict)  # cell label -> seconds
    samples: int = 0
    digests: dict = field(default_factory=dict)  # cell label -> sha256 of report bytes
    report_bytes: int = 0
    sampling: dict = field(default_factory=dict)  # report sampling counters, summed
    fixtures_kept: int = 0
    replayed: int = 0
    fixtures: list = field(default_factory=list)  # replayed fixtures, kept when traced
    problems: list = field(default_factory=list)


def check_report(cell: Cell, report: CampaignReport) -> list[str]:
    """Theorem cells must pass every check; the harvest must find failures."""
    if cell.config.mode == "violation_search":
        if report.failures_total > 0:
            return []
        return [f"{cell.label}: violation search found no failures"]
    failing = {name: c["fail"] for name, c in report.counts.items() if c["fail"]}
    return [f"{cell.label}: failing checks {failing}"] if failing else []


def replay_report(path: Path, ops: Ops, tracer=None) -> tuple[list, list[str]]:
    """Replay every fixture of a written report; each must reproduce its statuses."""
    span = tracer.span if tracer is not None else _no_span
    fixtures = json.loads(Path(path).read_text(encoding="utf-8"))["fixtures"]
    problems = []
    for i, fixture in enumerate(fixtures):
        with span("campaign.replay_fixture"):
            result = ops.call(replay_fixture, fixture)
        if result is None or not result.matches:
            problems.append(f"fixture {i} ({fixture['kind']}) did not replay")
    return fixtures, problems


def _no_span(name):
    return nullcontext()


def run_pass(wl: Workload, ops: Ops, workdir: Path, tracer=None) -> PassResult:
    """Run every campaign of the workload once, with its reports and gates.

    With a tracer, spans wrap each program call, and a serial campaign is
    taken apart into ``engine.run_chunk`` calls (``serial_campaign``).
    """
    span = tracer.span if tracer is not None else _no_span
    res = PassResult()
    start = time.perf_counter()
    for cell in wl.cells:
        c0 = time.perf_counter()
        if tracer is not None and wl.jobs == 1:
            report = ops.call(serial_campaign, cell.config, tracer)
        else:
            with span("campaign.run_campaign"):
                report = ops.call(run_campaign, cell.config, jobs=wl.jobs)
        c1 = time.perf_counter()
        if report is None:
            res.problems.append(f"{cell.label}: campaign raised")
            continue
        res.campaign_s[cell.label] = c1 - c0
        res.samples += cell.config.num_samples
        data = report.to_dict()
        with span("campaign.report_bytes"):
            blob = report_bytes(data)
        res.digests[cell.label] = hashlib.sha256(blob).hexdigest()
        res.report_bytes += len(blob)
        for key, value in report.sampling.items():
            res.sampling[key] = res.sampling.get(key, 0) + value
        res.fixtures_kept += len(report.fixtures)
        res.problems += check_report(cell, report)
        if cell.config.mode == "violation_search":
            path = workdir / "report.json"
            with span("campaign.write_json"):
                write_json(path, data)
            fixtures, problems = replay_report(path, ops, tracer)
            res.replayed += len(fixtures)
            res.problems += problems
            if tracer is not None:
                res.fixtures += fixtures
    res.wall_s = time.perf_counter() - start
    return res


def serial_campaign(config: CampaignConfig, tracer) -> CampaignReport:
    """``run_campaign(config)`` taken apart: a span per chunk and for the fold."""
    with tracer.span("campaign.run_campaign"):
        start = time.perf_counter()
        cfg = config.to_dict()
        results = []
        for a in range(0, config.num_samples, engine.CHUNK_SIZE):
            b = min(a + engine.CHUNK_SIZE, config.num_samples)
            with tracer.span("engine.run_chunk"):
                chunk = engine.run_chunk(cfg, a, b)
            tracer.count("engine.samples", b - a)
            tracer.count("engine.fixtures_built", len(chunk["fixtures"]))
            results.append(chunk)
        with tracer.span("engine.fold_chunk_results"):
            folded = engine.fold_chunk_results(results, config.max_fixtures)
        return CampaignReport(
            config=config,
            counts=folded["counts"],
            margins=folded["margins"],
            sampling=folded["sampling"],
            fixtures=folded["fixtures"],
            duration_seconds=time.perf_counter() - start,
        )


def _timed(tracer, name, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    tracer.add(name, start, time.perf_counter())
    return out


def _domain_check(lagr, g, h, dphi) -> bool:
    pull = dphi.T @ h @ dphi
    pull = 0.5 * (pull + pull.T)
    s = charpoly_coefficients(np.linalg.inv(g) @ pull)
    return bool(np.all(lagr.domain_predicate(s)))


def sampling_probe(config: CampaignConfig, tracer) -> None:
    """Re-issue the per-sample draws of ``engine.run_chunk``, a span per call.

    Same calls in the same order as the engine: ``derive_rng``, then
    ``draw_geometry_arrays`` until the domain check (charpoly of the strain
    plus ``domain_predicate``) accepts, then ``draw_direction_params``.  The
    draws are thrown away; only their cost is kept.
    """
    lagr = resolve_lagrangian(
        config.lagrangian_name, config.lagrangian_parameters, config.m_plus_1
    )
    restricted = lagr.domain_predicate is not _always_inside
    m1, n = config.m_plus_1, config.n
    with tracer.span("sampling.sample_loop"):
        for index in range(config.num_samples):
            rng = _timed(tracer, "sampling.derive_rng", derive_rng, config.seed, index)
            for _ in range(engine.MAX_DOMAIN_TRIES):
                g, h, dphi, _ = _timed(
                    tracer, "sampling.draw_geometry_arrays", draw_geometry_arrays,
                    rng, m1, n, config.entry_range, config.rank_override,
                )
                if not restricted or _timed(
                    tracer, "lagrangians.domain_check", _domain_check, lagr, g, h, dphi
                ):
                    break
            _timed(
                tracer, "sampling.draw_direction_params", draw_direction_params,
                rng, config.num_directions_per_sample, m1 - 1, config.boost_cap,
            )
    tracer.count("sampling.samples", config.num_samples)


def scalar_probe(fixtures: list, tracer) -> None:
    """Time the scalar calls replay is built from, on the harvested DEC fixtures."""
    for fixture in fixtures:
        if "direction" not in fixture:
            continue
        geom = load_geometry(fixture)
        lagr_info = fixture["lagrangian"]
        lagr = resolve_lagrangian(
            lagr_info["name"], lagr_info.get("parameters", {}), geom.dim
        )
        d = strain(geom).matrix
        direction = np.array(fixture["direction"], dtype=float)
        _timed(tracer, "strain.charpoly_coefficients", charpoly_coefficients, d)
        t = _timed(tracer, "stress.stress_general", stress_general, geom, lagr)
        _timed(tracer, "stress.stress_scale_general", stress_scale_general, geom, lagr)
        _timed(
            tracer, "dec.dec_witness", dec_witness,
            geom.metric, t.tensor, direction, fixture["tolerances"]["dec"],
        )
        _timed(tracer, "multilinear.canonical_frame", canonical_frame, geom.metric)


def traced_pass(wl: Workload, ops: Ops, workdir: Path, tracer) -> PassResult:
    """A traced ``run_pass``, then the layer probes outside its wall time.

    For a pooled workload the probe also runs each campaign serially, and its
    report bytes must equal the pooled ones.
    """
    res = run_pass(wl, ops, workdir, tracer)
    with tracer.span("probe"):
        for cell in wl.cells:
            sampling_probe(cell.config, tracer)
        if wl.jobs > 1:
            for cell in wl.cells:
                report = ops.call(serial_campaign, cell.config, tracer)
                if report is None:
                    res.problems.append(f"{cell.label}: serial campaign raised")
                    continue
                digest = hashlib.sha256(report_bytes(report.to_dict())).hexdigest()
                if digest != res.digests.get(cell.label):
                    res.problems.append(
                        f"{cell.label}: jobs={wl.jobs} report bytes differ from serial"
                    )
        scalar_probe(res.fixtures, tracer)
    return res
