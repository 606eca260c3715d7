#!/usr/bin/env python3
"""Print the sha256 of the canonical report bytes for a fixed set of campaigns.

A change that promises identical reports is checked by running this script on
both commits and comparing the output line by line:

    python3 scripts/report_digests.py

The script imports straindec from the ``src/`` of the checkout it sits in,
ahead of any other copy on the path, so each checkout's digests come from
its own code.

The campaigns cover the example config, the determinism criterion's config, a
born_infeld cell with many domain rejections, minimal_surface, rank overrides,
a violation search that records fixtures, a one-dimensional source, a
violation search whose kept fixtures come from three chunks, and skyrme at
4x4 with 256 directions per sample, the dense-directions shape, and a
violation search with 1,024 directions per sample whose kept fixtures come
from several of a chunk's row blocks.  Four
single chunks (``engine.run_chunk`` on samples 0-59, with the failure-forcing
configs of ``tests/test_engine.py::TestFixtureScan``) cover every fixture kind
but convexity_lemma, which no config fails.  The line ``replay_fixtures``
digests the replay of every fixture of the violation_search campaign and of
the four chunks: each fixture's kind, whether it matches, and its recomputed
block.  The last line, ``replay_verdicts``, digests the verdicts of the same
replays in the same order: both statuses, every witness float as
``float.hex``, the causal classes and the tensor norm and scale (None for a
kind without a verdict).
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from straindec import CampaignConfig, run_campaign  # noqa: E402
from straindec.campaign import (  # noqa: E402
    dump_json,
    load_config,
    replay_fixture,
    report_bytes,
)
from straindec.engine import run_chunk  # noqa: E402


def _config(name, params, m1=3, n=3, **kwargs):
    base = {"num_samples": 1024, "num_directions_per_sample": 8, "seed": 7}
    base.update(kwargs)
    return CampaignConfig(
        m_plus_1=m1, n=n, lagrangian_name=name, lagrangian_parameters=params, **base
    )


def campaigns():
    yield "example_campaign", load_config(Path(__file__).with_name("example_campaign.json"))
    yield "criterion_8", _config(
        "skyrme", {"c1": 1.0, "c2": 1.0}, num_samples=2048,
        num_directions_per_sample=4, seed=33,
    )
    yield "born_infeld_b0.5_range1.5", _config("born_infeld", {"b": 0.5}, entry_range=1.5)
    yield "minimal_surface_3x2", _config("minimal_surface", {}, n=2)
    yield "rank_override_0", _config("skyrme", {"c1": 1.0, "c2": 1.0}, rank_override=0)
    yield "rank_override_2", _config("skyrme", {"c1": 1.0, "c2": 1.0}, rank_override=2)
    yield "violation_search", _config(
        "linear_combination", {"coefficients": [1.0, -5.0, 0.0]},
        mode="violation_search", max_fixtures=200,
    )
    yield "m_plus_1_is_1", _config("wave_map", {}, m1=1, n=2)
    # 849 and 853 failures in the first two 512-sample chunks, so the kept
    # fixtures span three chunks and the cap falls inside the third.
    yield "violation_search_cap_crosses_chunks", _config(
        "linear_combination", {"coefficients": [1.0, -5.0, 0.0]},
        num_samples=1536, num_directions_per_sample=1,
        mode="violation_search", max_fixtures=2000,
    )
    yield "dense_directions_4x4", _config(
        "skyrme", {"c1": 1.0, "c2": 1.0}, m1=4, n=4, num_directions_per_sample=256,
    )
    # 1,024 directions per sample, so a chunk's direction checks run in
    # blocks of 16 samples; the 2,000 kept fixtures span about nine blocks.
    yield "violation_search_blocks", _config(
        "linear_combination", {"coefficients": [1.0, -0.02, 0.0]},
        num_samples=512, num_directions_per_sample=1024,
        mode="violation_search", max_fixtures=2000,
    )


def _chunk_config(**overrides):
    base = {
        "m_plus_1": 3,
        "n": 3,
        "num_directions_per_sample": 4,
        "seed": 97,
        "entry_range": 1.0,
        "boost_cap": 5.0,
        "rank_override": None,
        "max_fixtures": 100,
        "lagrangian": {"name": "skyrme", "parameters": {"c1": 1.0, "c2": 1.0}},
        "tolerances": {"algebraic": 1e-9, "dec": 1e-9, "oracle": 1e-6},
    }
    base.update(overrides)
    return base


def chunks():
    """Raw chunk configs whose tolerances force every check kind but one to fail."""
    flipped = {
        "name": "linear_combination",
        "parameters": {"coefficients": [1.0, -5.0, 0.0]},
    }
    yield "chunk_negative_tolerances", _chunk_config(
        lagrangian=flipped, rank_override=1,
        tolerances={"algebraic": -1.0, "dec": -1.0, "oracle": 1e-6},
    )
    yield "chunk_huge_dec_tolerance", _chunk_config(
        tolerances={"algebraic": 1e-9, "dec": 1e300, "oracle": 1e-6}
    )
    yield "chunk_zero_algebraic_tolerance", _chunk_config(
        m_plus_1=2, n=2, tolerances={"algebraic": 0.0, "dec": 1e-9, "oracle": 1e-6}
    )
    yield "chunk_sign_flipped", _chunk_config(lagrangian=flipped)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verdict(verdict):
    """A replayed DECVerdict as JSON values, every float as its hex pattern."""
    if verdict is None:
        return None
    return {
        "lagrangian": verdict.lagrangian_name,
        "energy_positivity": verdict.energy_positivity.value,
        "flux_causality": verdict.flux_causality.value,
        "witnesses": [
            {
                "direction": [float(x).hex() for x in w.direction],
                "energy": w.energy.hex(),
                "energy_scale": w.energy_scale.hex(),
                "flux": [float(y).hex() for y in w.flux],
                "flux_quadratic": w.flux_quadratic.hex(),
                "flux_scale": w.flux_scale.hex(),
                "flux_class": w.flux_class.value,
                "energy_ok": w.energy_ok,
                "flux_ok": w.flux_ok,
            }
            for w in verdict.witnesses
        ],
        "tensor_norm": verdict.tensor_norm.hex(),
        "tensor_scale": verdict.tensor_scale.hex(),
    }


def main() -> int:
    replayed = []
    for label, config in campaigns():
        report = run_campaign(config).to_dict()
        print(f"{hashlib.sha256(report_bytes(report)).hexdigest()}  {label}")
        if label == "violation_search":
            replayed += report["fixtures"]
    for label, config in chunks():
        chunk = run_chunk(config, 0, 60)
        print(f"{_digest(dump_json(chunk))}  {label}")
        replayed += chunk["fixtures"]
    results = [replay_fixture(fixture) for fixture in replayed]
    outcomes = [
        {"kind": r.kind, "matches": r.matches, "recomputed": r.recomputed} for r in results
    ]
    print(f"{_digest(dump_json(outcomes))}  replay_fixtures")
    verdicts = [_verdict(r.verdict) for r in results]
    print(f"{_digest(dump_json(verdicts))}  replay_verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
