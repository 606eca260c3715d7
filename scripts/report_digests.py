#!/usr/bin/env python3
"""Print the sha256 of the canonical report bytes for a fixed set of campaigns.

A change that promises identical reports is checked by running this script on
both commits and comparing the output line by line:

    PYTHONPATH=src python3 scripts/report_digests.py

The campaigns cover the example config, the determinism criterion's config, a
born_infeld cell with many domain rejections, minimal_surface, rank overrides,
a violation search that records fixtures, and a one-dimensional source.
"""

import hashlib
import sys
from pathlib import Path

from straindec import CampaignConfig, run_campaign
from straindec.campaign import load_config, report_bytes


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


def main() -> int:
    for label, config in campaigns():
        digest = hashlib.sha256(report_bytes(run_campaign(config).to_dict())).hexdigest()
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
