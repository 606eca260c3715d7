#!/usr/bin/env python3
"""straindec benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Run from the repository root:

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 30 --trace 0

It imports straindec from ``src/`` of the checkout it sits in, makes every
config from ``--seed``, repeats passes of the workload for ``--seconds`` and
reports medians.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS threads before numpy is imported: numpy's OpenBLAS would otherwise
# start up to 64 threads in each of the two pool workers on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "cell_us_per_sample_p50": "us",
    "cell_us_per_sample_p80": "us",
    "peak_rss_mb": "MB",
    "correct": "bool",
}
PER_LAYER_UNITS = {
    "sampling.derive_rng_us": "us",
    "sampling.draw_geometry_us": "us",
    "sampling.draw_directions_us": "us",
    "sampling.us_per_sample": "us",
    "sampling.metric_retries": "count",
    "lagrangians.domain_check_us": "us",
    "lagrangians.domain_acceptance": "ratio",
    "engine.run_chunk_us_per_sample": "us",
    "engine.kernel_us_per_sample": "us",
    "engine.sampling_share": "ratio",
    "engine.fixtures_built": "count",
    "engine.fixture_keep_ratio": "ratio",
    "engine.fold_ms": "ms",
    "engine.frame_fallbacks": "count",
    "campaign.pool_overhead_s": "s",
    "campaign.parallel_efficiency": "ratio",
    "campaign.report_mb": "MB",
    "campaign.report_bytes_ms": "ms",
    "campaign.write_json_ms": "ms",
    "campaign.replay_us_per_fixture": "us",
    "campaign.fixtures_per_s": "1/s",
    "strain.charpoly_us": "us",
    "stress.stress_general_us": "us",
    "stress.stress_scale_general_us": "us",
    "dec.dec_witness_us": "us",
    "multilinear.canonical_frame_us": "us",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": {
            v: os.environ[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def setup(name: str, seed: int, traced: bool):
    """Import, config validation and a tiny warm-up pass; returns (seconds, workload)."""
    start = time.perf_counter()
    import straindec
    import workloads
    from tracing import Tracer

    if not Path(straindec.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported straindec from {straindec.__file__}, not {SRC}")
    wl = workloads.build(name, seed, workloads.FULL_SAMPLES[name])
    tiny = workloads.build(name, seed, workloads.TINY_SAMPLES[name])
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.run_pass(tiny, workloads.Ops(), Path(tmp))
        if traced:
            workloads.traced_pass(tiny, workloads.Ops(), Path(tmp), Tracer())
    return time.perf_counter() - start, wl


def fresh_setup_seconds(name: str, seed: int) -> list:
    """Set-up time of fresh processes, so import cost is measured every time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(wl, seconds: float, traced: bool, workdir: Path):
    """Repeat passes until ``seconds`` have gone; a traced run alternates plain and traced."""
    import workloads
    from tracing import Tracer

    ops = workloads.Ops()
    tracer = Tracer() if traced else None
    plain, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(workloads.run_pass(wl, ops, workdir))
        if traced:
            tracer.run_id = f"pass{len(traced_passes)}"
            traced_passes.append(workloads.traced_pass(wl, ops, workdir, tracer))
        if time.perf_counter() >= deadline:
            return ops, plain, traced_passes, tracer


def find_problems(results: list) -> list:
    problems = [p for r in results for p in r.problems]
    first = results[0].digests
    for r in results[1:]:
        for label, digest in r.digests.items():
            if label in first and first[label] != digest:
                problems.append(f"{label}: report bytes changed between passes")
    return problems


def end_to_end(wl, plain: list, setup_s: float, correct: bool) -> dict:
    cell_us = []
    for cell in wl.cells:
        times = [r.campaign_s[cell.label] for r in plain if cell.label in r.campaign_s]
        if times:
            cell_us.append(statistics.median(times) / cell.config.num_samples * 1e6)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in plain),
        "samples_per_s": statistics.median(
            _ratio(r.samples, sum(r.campaign_s.values())) for r in plain
        ),
        "cell_us_per_sample_p50": _nearest_rank(cell_us, 0.5) if cell_us else 0.0,
        "cell_us_per_sample_p80": _nearest_rank(cell_us, 0.8) if cell_us else 0.0,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "correct": 1.0 if correct else 0.0,
    }


def per_layer(wl, plain: list, traced: list, tracer) -> dict:
    """Layer metrics from each traced pass's spans and counts, medians over passes."""
    rows = []
    for k, res in enumerate(traced):
        run_id = f"pass{k}"
        totals = tracer.totals(run_id)
        counts = tracer.counts[run_id]

        def secs(name):
            return totals.get(name, (0.0, 0))[0]

        def per_call_us(name):
            total, n = totals.get(name, (0.0, 0))
            return _ratio(total, n) * 1e6

        samples = counts["sampling.samples"]
        serial_chunk_s = secs("engine.run_chunk")
        # The pooled call carries one outer span and none inside, so its wall
        # is the untraced jobs=2 wall; the probe ran the same chunks serially.
        campaign_wall_s = sum(res.campaign_s.values())
        sampling_us = _ratio(secs("sampling.sample_loop"), samples) * 1e6
        chunk_us = _ratio(secs("engine.run_chunk"), counts["engine.samples"]) * 1e6
        built = counts["engine.fixtures_built"]
        rows.append({
            "sampling.derive_rng_us": _ratio(secs("sampling.derive_rng"), samples) * 1e6,
            "sampling.draw_geometry_us":
                _ratio(secs("sampling.draw_geometry_arrays"), samples) * 1e6,
            "sampling.draw_directions_us":
                _ratio(secs("sampling.draw_direction_params"), samples) * 1e6,
            "sampling.us_per_sample": sampling_us,
            "sampling.metric_retries": res.sampling.get("metric_retries", 0),
            "lagrangians.domain_check_us":
                _ratio(secs("lagrangians.domain_check"), samples) * 1e6,
            "lagrangians.domain_acceptance": _ratio(
                res.sampling.get("domain_accepted", 0), res.sampling.get("domain_draws", 0)
            ),
            "engine.run_chunk_us_per_sample": chunk_us,
            "engine.kernel_us_per_sample": chunk_us - sampling_us,
            "engine.sampling_share": _ratio(sampling_us, chunk_us),
            "engine.fixtures_built": built,
            "engine.fixture_keep_ratio": _ratio(res.fixtures_kept, built),
            "engine.fold_ms": secs("engine.fold_chunk_results") * 1e3,
            "engine.frame_fallbacks": res.sampling.get("frame_fallbacks", 0),
            "campaign.pool_overhead_s": campaign_wall_s - serial_chunk_s / wl.jobs,
            "campaign.parallel_efficiency":
                _ratio(serial_chunk_s, wl.jobs * campaign_wall_s),
            "campaign.report_bytes_ms": secs("campaign.report_bytes") * 1e3,
            "campaign.write_json_ms": secs("campaign.write_json") * 1e3,
            "campaign.replay_us_per_fixture": per_call_us("campaign.replay_fixture"),
            "strain.charpoly_us": per_call_us("strain.charpoly_coefficients"),
            "stress.stress_general_us": per_call_us("stress.stress_general"),
            "stress.stress_scale_general_us": per_call_us("stress.stress_scale_general"),
            "dec.dec_witness_us": per_call_us("dec.dec_witness"),
            "multilinear.canonical_frame_us": per_call_us("multilinear.canonical_frame"),
            "_traced_wall_s": res.wall_s,
        })
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_wall_s = out.pop("_traced_wall_s")
    out["campaign.report_mb"] = statistics.median(r.report_bytes for r in plain) / 1e6
    out["campaign.fixtures_per_s"] = statistics.median(
        _ratio(r.replayed, r.wall_s) for r in plain
    )
    out["trace.overhead_s"] = traced_wall_s - statistics.median(r.wall_s for r in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "straindec" / "__init__.py").is_file():
        print(f"error: no straindec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, False)[0]}))
        return 0
    local_setup_s, wl = setup(args.workload, args.seed, traced)
    setup_times = [] if traced else fresh_setup_seconds(args.workload, args.seed)
    machine = machine_info()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops, plain, traced_passes, tracer = measure(wl, args.seconds, traced, Path(tmp))

    problems = find_problems(plain + traced_passes)
    correct = not problems and ops.failed == 0
    if traced:
        metrics = per_layer(wl, plain, traced_passes, tracer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(wl, plain, statistics.median(setup_times), correct)
        units = END_TO_END_UNITS

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {wl.name} seed={args.seed} jobs={wl.jobs} cells={len(wl.cells)} "
          f"samples/pass={plain[0].samples} plain_passes={len(plain)} "
          f"traced_passes={len(traced_passes)} in-process setup={local_setup_s:.3f}s")
    print(f"pass wall_s: {' '.join(f'{r.wall_s:.4f}' for r in plain)}")
    if traced_passes:
        print(f"traced pass wall_s: {' '.join(f'{r.wall_s:.4f}' for r in traced_passes)}")
    if setup_times:
        print(f"setup_s fresh processes: {' '.join(f'{t:.4f}' for t in setup_times)}")
    for label, digest in plain[0].digests.items():
        print(f"sha256 {digest} {label}")
    print(f"failed_ops_ratio {_ratio(ops.failed, ops.attempted)} "
          f"({ops.failed} of {ops.attempted} campaign and replay calls raised)")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    if len(problems) > 20:
        print(f"PROBLEM ... and {len(problems) - 20} more")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    if traced:
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json.gz"
        tracer.write(path, {"machine": machine, "args": vars(args), "metrics": metrics})
        print(f"trace {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
