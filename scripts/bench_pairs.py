#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<pr>.json.

Each checkout runs its own ``perfbench/run.py --trace 0`` in a fresh process,
one pair per seed: even pairs run the parent first, odd pairs the change
first.  For every end-to-end metric of ``BENCHMARK.json`` and every workload
the file holds both sides' runs, medians and quartiles, the pairs the change
won (ties count for neither), the gain rule (at least 9 in 10 pairs won and a
median gap above the parent's interquartile range) and the regression rule
(the change's median worse by more than the metric's bound).  It also holds,
per seed, whether the two sides printed the same report sha256 lines and
each side's outcome (its ``correct`` and ``failed`` values and ``PROBLEM``
lines), so a failure that only some seeds hit shows which, and the machine
line ``perfbench/run.py`` prints (its ``machine_info()``).

After a workload's pairs, each side runs ``perfbench/run.py --trace 1`` once,
parent first, on the seed after the last pair; the file's ``trace`` block
holds every per-layer metric and the outcome of both runs, by workload.

Example, with the parent commit checked out beside the change:

    git clone . ../parent && git -C ../parent checkout HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --change . --pr 7 \\
        --pairs 10 --first-seed 7001 --workload dense-directions

The file is written to the change checkout as BENCH_<pr>.json.  The script
edits nothing under either checkout's ``perfbench/``; ``run.py`` keeps its
scratch files in ``perfbench/out/``, which git ignores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Share of pairs the change must win, and the pairs needed, to claim a gain.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One ``perfbench/run.py`` run: its final JSON, report digests, machine line
    and ``PROBLEM`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["sha256"] = {
        label: digest
        for digest, label in (ln.split(" ", 2)[1:] for ln in lines if ln.startswith("sha256 "))
    }
    machine = next(ln for ln in lines if ln.startswith("machine "))
    result["machine"] = json.loads(machine.split(" ", 1)[1])
    result["problems"] = [ln.split(" ", 1)[1] for ln in lines if ln.startswith("PROBLEM ")]
    return result


def outcome(run: dict) -> dict:
    """What one run says of its own correctness."""
    return {"correct": run["correct"], "failed": run["failed"], "problems": run["problems"]}


def _spread(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": runs}


def summarize(metric: dict, parent: list, change: list) -> dict:
    """Both sides' spreads and the pair, gain and regression rules for one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p, c = _spread(parent), _spread(change)
    gap = sign * (c["median"] - p["median"])
    worse_by = -gap / (abs(p["median"]) or 1.0)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "change_over_parent_median": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "pairs": len(parent),
        "gain": len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and gap > p["iqr"],
        "worse_than_bound": worse_by > metric["bound"],
    }


def bench_workload(args, workload: str, first_seed: int, metrics: list) -> tuple:
    seeds = list(range(first_seed, first_seed + args.pairs))
    sides = {"parent": [], "change": []}
    order = []
    for i, seed in enumerate(seeds):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(f"{first}-first")
        for side in (first, second):
            sides[side].append(run_once(getattr(args, side), workload, seed, args.seconds))
            print(f"{workload} seed={seed} {side} done", file=sys.stderr, flush=True)
    runs = sides["parent"] + sides["change"]
    summary = {
        "seeds": seeds,
        "pair_order": order,
        "all_correct": all(r["correct"] for r in runs),
        "failed_ops": sum(r["failed"] for r in runs),
        "report_sha256_equal": [
            p["sha256"] == c["sha256"] for p, c in zip(sides["parent"], sides["change"])
        ],
        "outcomes": [
            {"seed": seed, "parent": outcome(p), "change": outcome(c)}
            for seed, p, c in zip(seeds, sides["parent"], sides["change"])
        ],
        "metrics": {
            m["name"]: summarize(
                m,
                [r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                [r["metrics"][m["name"]]["value"] for r in sides["change"]],
            )
            for m in metrics
        },
    }
    return summary, runs[0]["machine"]


def trace_workload(args, workload: str, seed: int) -> dict:
    """One traced run per side, parent first: every per-layer metric of each."""
    out = {"seed": seed, "order": "parent-first"}
    for side in ("parent", "change"):
        run = run_once(getattr(args, side), workload, seed, args.seconds, trace=1)
        out[side] = {name: m["value"] for name, m in run["metrics"].items()}
        out[side].update(outcome(run))
        print(f"{workload} seed={seed} {side} traced", file=sys.stderr, flush=True)
    return out


def _revision(checkout: Path):
    done = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload name; repeat for more")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; workload w uses first-seed + 100 w")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--title", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, since the quartiles need two runs")
    args.parent, args.change = args.parent.resolve(), args.change.resolve()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    out = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "trace_command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g} --trace 1",
        "parent": _revision(args.parent),
        "change": _revision(args.change),
        "method": "each checkout runs its own perfbench/run.py, one pair per seed, even "
                  "pair index parent first, odd change first; quartiles by "
                  "statistics.quantiles(method='inclusive'); a pair is won when the "
                  "change's value is better, ties count for neither; gain: at least "
                  f"{WIN_SHARE:g} of at least {MIN_PAIRS} pairs won and the median gap "
                  "above the parent's IQR; worse_than_bound: the change's median worse "
                  "than the parent's by more than the bound, relative to the parent's",
        "workloads": {},
        "trace": {},
    }
    for w, workload in enumerate(args.workload):
        first_seed = args.first_seed + 100 * w
        out["workloads"][workload], out["machine"] = bench_workload(
            args, workload, first_seed, spec["end_to_end"]
        )
        out["trace"][workload] = trace_workload(args, workload, first_seed + args.pairs)
    path = args.change / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
