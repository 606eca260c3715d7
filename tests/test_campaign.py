"""Campaign configs, reports, fixture replay, and the command-line interface.

Determinism contract under test: for a fixed config the report bytes (minus
wall-clock duration) are identical across runs and across worker counts.
"""

import concurrent.futures
import copy
import dataclasses
import json
import pickle
import math
import os
import re
import sys
import threading
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import test_engine
from test_dump_json import value_at
from straindec import (
    CampaignConfig,
    CausalClass,
    ConfigError,
    load_config,
    load_geometry,
    replay_fixture,
    report_bytes,
    resolve_lagrangian,
    run_campaign,
    sample_geometry,
)
from straindec import campaign, dec, engine
from straindec.campaign import (
    MAX_DIRECTIONS_PER_SAMPLE,
    MAX_M_PLUS_1,
    MAX_N,
    dump_json,
    write_json,
)
from straindec.cli import main
from straindec.dec import CheckStack
from straindec.engine import run_chunk
from straindec.sampling import sample_timelike_directions

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _wave_config(**overrides):
    base = dict(
        m_plus_1=2,
        n=2,
        lagrangian_name="wave_map",
        num_samples=100,
        num_directions_per_sample=4,
        seed=11,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _violating_config(**overrides):
    """Sign-flipped second invariant: fails energy positivity generically.

    Needs dim 3: in dim 2 the top invariant carries the metric determinant's
    sign and never goes positive, so the flip would only feed energy in.
    """
    base = dict(
        m_plus_1=3,
        n=3,
        lagrangian_name="linear_combination",
        lagrangian_parameters={"coefficients": [1.0, -5.0, 0.0]},
        num_samples=40,
        num_directions_per_sample=4,
        seed=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _harvest_config():
    """40 samples whose 63 failures fill a 35-fixture cap partway through."""
    return _violating_config(
        num_directions_per_sample=1, mode="violation_search", max_fixtures=35
    )


def _skyrme_config_dict():
    return _wave_config(
        m_plus_1=3, lagrangian_name="skyrme", lagrangian_parameters={"c1": 1.0, "c2": 1.0}
    ).to_dict()


# Every config-file value, dotted inside its section.
_CONFIG_PATHS = [
    "m_plus_1", "n", "num_samples", "num_directions_per_sample", "seed",
    "entry_range", "boost_cap", "rank_override", "mode", "max_fixtures",
    "tolerances.algebraic", "tolerances.dec", "tolerances.oracle",
    "lagrangian.name", "lagrangian.parameters",
]
# Each value with a JSON null, list or object, except a null rank_override (its
# default).
_WRONG_TYPES = [
    (path, value)
    for path in _CONFIG_PATHS
    for value in (None, [1, 2], {"a": 1})
    if not (path == "rank_override" and value is None)
]


class TestConfigValidation:
    def test_round_trip_through_dict(self):
        config = _wave_config(rank_override=1, mode="violation_search")
        again = CampaignConfig.from_dict(config.to_dict())
        assert again == config

    def test_round_trip_through_file(self, tmp_path):
        config = _wave_config(seed=123, entry_range=2.5)
        path = tmp_path / "config.json"
        write_json(path, config.to_dict())
        assert load_config(path) == config

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError, match="num_samples"):
            _wave_config(num_samples=0)

    def test_zero_directions_rejected(self):
        with pytest.raises(ConfigError, match="directions"):
            _wave_config(num_directions_per_sample=0)

    @pytest.mark.parametrize("name", ["algebraic_tol", "dec_tol", "oracle_tol"])
    def test_nonpositive_tolerances_rejected(self, name):
        with pytest.raises(ConfigError, match="tolerance"):
            _wave_config(**{name: 0.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["algebraic_tol", "dec_tol", "oracle_tol"])
    def test_nonfinite_tolerances_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            _wave_config(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["entry_range", "boost_cap"])
    def test_nonfinite_sampling_ranges_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            _wave_config(**{name: value})

    def test_sampling_span_must_be_finite(self):
        # 2 * 1e308 overflows: the dphi span [-1e308, 1e308] is not finite.
        with pytest.raises(ConfigError, match="entry_range"):
            _wave_config(entry_range=1e308)

    def test_nonfinite_values_rejected_from_json(self):
        data = _wave_config().to_dict()
        data["tolerances"]["dec"] = float("nan")
        with pytest.raises(ConfigError, match="dec_tol"):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("cap", [20.0, 40.0, 800.0])
    def test_boost_cap_beyond_usable_precision_rejected(self, cap):
        # cosh(r) ~ e^r: past ln(1/eps) / 4 ~ 9.0 normalizing X loses half the digits.
        with pytest.raises(ConfigError, match="boost_cap"):
            _wave_config(boost_cap=cap)

    def test_boost_cap_at_the_limit_accepted(self):
        assert _wave_config(boost_cap=9.0).boost_cap == 9.0

    @pytest.mark.parametrize(
        "name, params, m1",
        [
            ("skyrme", {"c1": float("nan"), "c2": 1.0}, 3),
            ("linear_combination", {"coefficients": [1.0, float("inf"), 0.0]}, 3),
            ("born_infeld", {"b": float("nan")}, 2),
            ("minimal_surface", {"delta": float("inf")}, 3),
        ],
    )
    def test_nonfinite_lagrangian_parameters_rejected(self, name, params, m1):
        with pytest.raises(ConfigError, match=f"lagrangian {name}"):
            _wave_config(m_plus_1=m1, lagrangian_name=name, lagrangian_parameters=params)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            _wave_config(seed=2**64)
        with pytest.raises(ConfigError, match="seed"):
            _wave_config(seed=-1)

    def test_rank_override_bounds(self):
        with pytest.raises(ConfigError, match="rank_override"):
            _wave_config(rank_override=3)
        assert _wave_config(rank_override=2).rank_override == 2

    # minimal_surface keeps s_m >= delta, and s_m vanishes below rank m.
    @pytest.mark.parametrize("dims, field", [
        (dict(m_plus_1=4, n=2), "n = 2"),
        (dict(m_plus_1=3, n=1), "n = 1"),
        (dict(m_plus_1=4, n=4, rank_override=2), "rank_override = 2"),
        (dict(m_plus_1=3, n=3, rank_override=1), "rank_override = 1"),
    ])
    def test_rank_below_the_domain_rejected(self, dims, field):
        with pytest.raises(ConfigError, match=field):
            _wave_config(lagrangian_name="minimal_surface", **dims)

    def test_rank_high_enough_accepted(self):
        accepted = 0
        for m1 in range(2, 6):
            for n in range(1, 6):
                for rank in (None, *range(min(m1, n) + 1)):
                    drawn = min(m1, n) if rank is None else rank
                    for delta in (1e-10, 0.0, -1.0):
                        config = dict(
                            m_plus_1=m1, n=n, rank_override=rank,
                            lagrangian_name="minimal_surface",
                            lagrangian_parameters={"delta": delta},
                        )
                        if delta > 0.0 and drawn < m1 - 1:
                            with pytest.raises(ConfigError):
                                _wave_config(**config)
                            continue
                        _wave_config(**config)
                        accepted += 1
                    _wave_config(m_plus_1=m1, n=n, rank_override=rank)
        assert accepted > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            _wave_config(mode="explore")

    def test_unknown_lagrangian_rejected(self):
        with pytest.raises(ConfigError, match="unknown lagrangian"):
            _wave_config(lagrangian_name="phantom")

    def test_unknown_field_rejected(self):
        data = _wave_config().to_dict()
        data["extra_knob"] = True
        with pytest.raises(ConfigError, match="unknown fields"):
            CampaignConfig.from_dict(data)

    def test_missing_field_rejected(self):
        data = _wave_config().to_dict()
        del data["num_samples"]
        with pytest.raises(ConfigError, match="num_samples"):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("path, value", _WRONG_TYPES)
    def test_wrong_json_type_names_the_field(self, path, value):
        data = _skyrme_config_dict()
        section, _, key = path.rpartition(".")
        (data[section] if section else data)[key] = value
        with pytest.raises(ConfigError, match=path.split(".")[0]):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("path, value", [
        ("num_samples", 2.7),
        ("seed", -0.5),
        ("rank_override", 1.9),
        ("num_samples", True),
        ("max_fixtures", False),
        ("m_plus_1", float("nan")),
        ("n", "2"),
    ])
    def test_integer_field_rejects_other_values(self, path, value):
        data = _skyrme_config_dict()
        data[path] = value
        with pytest.raises(ConfigError, match=f"'{path}'"):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("value", [2, 2.0])
    def test_integral_numbers_accepted_for_integer_fields(self, value):
        names = ("m_plus_1", "n", "num_samples", "num_directions_per_sample", "seed",
                 "rank_override", "max_fixtures")
        data = _skyrme_config_dict()
        for name in names:
            data[name] = value
        config = CampaignConfig.from_dict(data)
        assert all(type(getattr(config, name)) is int for name in names)
        assert all(getattr(config, name) == 2 for name in names)

    @pytest.mark.parametrize("name, value", [
        ("num_samples", 2.7),
        ("seed", True),
        ("max_fixtures", 1.5),
        ("m_plus_1", 3.0),
        ("n", "2"),
        ("num_directions_per_sample", np.float64(4.0)),
        ("rank_override", 1.0),
        ("seed", np.bool_(False)),
    ])
    def test_direct_construction_rejects_non_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            _wave_config(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("dec_tol", "1e-3"),
        ("entry_range", True),
        ("boost_cap", None),
    ])
    def test_direct_construction_rejects_non_numbers(self, name, value):
        with pytest.raises(ConfigError, match=name):
            _wave_config(**{name: value})

    def test_direct_construction_stores_numpy_integers_as_int(self):
        config = _wave_config(num_samples=np.int64(7), seed=np.uint64(2**63),
                              rank_override=np.int32(1), max_fixtures=np.int8(3))
        names = ("num_samples", "seed", "rank_override", "max_fixtures")
        assert all(type(getattr(config, name)) is int for name in names)
        assert CampaignConfig.from_dict(json.loads(dump_json(config.to_dict()))) == config

    def test_directions_capped(self):
        cap = MAX_DIRECTIONS_PER_SAMPLE
        assert _wave_config(num_directions_per_sample=cap).num_directions_per_sample == cap
        for count in (cap + 1, 10**9):
            with pytest.raises(ConfigError, match="num_directions_per_sample"):
                _wave_config(num_directions_per_sample=count)
        data = _skyrme_config_dict()
        data["num_directions_per_sample"] = 10**9
        with pytest.raises(ConfigError, match="num_directions_per_sample"):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("m_plus_1", MAX_M_PLUS_1 + 1), ("m_plus_1", 40), ("n", MAX_N + 1), ("n", 100_000),
    ])
    def test_dimensions_capped_before_anything_is_built(self, monkeypatch, name, value):
        at_caps = _wave_config(m_plus_1=MAX_M_PLUS_1, n=MAX_N)
        assert (at_caps.m_plus_1, at_caps.n) == (MAX_M_PLUS_1, MAX_N)
        data = _skyrme_config_dict()
        data[name] = value
        monkeypatch.setattr(campaign, "resolve_lagrangian", None)  # never reached
        with pytest.raises(ConfigError, match=f"{name} {value} exceeds"):
            _wave_config(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} {value} exceeds"):
            CampaignConfig.from_dict(data)

    def test_unknown_lagrangian_parameter_names_it(self):
        data = _skyrme_config_dict()
        data["lagrangian"] = {"name": "born_infeld", "parameters": {"b": 1, "detla": 0.5}}
        with pytest.raises(ConfigError, match="born_infeld has unknown parameters.*detla"):
            CampaignConfig.from_dict(data)

    def test_lagrangian_parameters_must_be_an_object(self):
        data = _skyrme_config_dict()
        data["lagrangian"]["parameters"] = [["c1", 1.0], ["c2", 1.0]]
        with pytest.raises(ConfigError, match="lagrangian.parameters"):
            CampaignConfig.from_dict(data)

    def test_absent_optional_fields_take_the_defaults(self):
        data = _skyrme_config_dict()
        for key in ("num_directions_per_sample", "seed", "tolerances", "entry_range",
                    "boost_cap", "rank_override", "mode", "max_fixtures"):
            del data[key]
        del data["lagrangian"]["parameters"]
        data["lagrangian"]["name"] = "wave_map"
        assert CampaignConfig.from_dict(data) == CampaignConfig(
            m_plus_1=3, n=2, lagrangian_name="wave_map", num_samples=100
        )

    def test_schema_version_checked_on_load(self, tmp_path):
        data = _wave_config().to_dict()
        data["schema_version"] = 99
        path = tmp_path / "config.json"
        write_json(path, data)
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_truncated_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(dump_json(_wave_config().to_dict())[:40])
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


def _exact_json(value) -> bool:
    """Whether ``value`` is built of dicts with str keys, lists and exact JSON scalars."""
    if type(value) is dict:
        return all(type(k) is str and _exact_json(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_exact_json, value))
    return type(value) in (str, int, float, bool, type(None))


# skyrme(1, 2) at 3x3 with every float field given as an integral number.
_INTEGRAL = dict(
    m_plus_1=3, n=3, lagrangian_name="skyrme", num_samples=20,
    num_directions_per_sample=2, seed=4, entry_range=1, boost_cap=2, oracle_tol=1,
)
_FLOAT_FIELDS = ("algebraic_tol", "dec_tol", "oracle_tol", "entry_range", "boost_cap")


def _integral_config(number):
    values = {k: number(v) if k in _FLOAT_FIELDS else v for k, v in _INTEGRAL.items()}
    return CampaignConfig(**values, lagrangian_parameters={"c1": number(1), "c2": number(2)})


def _integral_config_file():
    data = _integral_config(float).to_dict()
    data.update(entry_range=1, boost_cap=2)
    data["tolerances"]["oracle"] = 1
    data["lagrangian"]["parameters"] = {"c1": 1, "c2": 2}
    return CampaignConfig.from_dict(json.loads(json.dumps(data)))


class TestCanonicalValues:
    @pytest.mark.parametrize("make", [
        lambda: _integral_config(int),
        lambda: _integral_config(np.float64),
        _integral_config_file,
    ], ids=["python_ints", "numpy_floats", "file_ints"])
    def test_equal_configs_give_equal_report_bytes(self, make):
        config, reference = make(), _integral_config(float)
        assert config == reference
        echo = config.to_dict()
        assert _exact_json(echo) and echo == reference.to_dict()
        assert [type(getattr(config, name)) for name in _FLOAT_FIELDS] == [float] * 5
        assert dump_json(echo) == dump_json(reference.to_dict())
        assert report_bytes(run_campaign(config).to_dict()) == report_bytes(
            run_campaign(reference).to_dict()
        )

    @pytest.mark.parametrize("config", [
        _integral_config(int),
        _violating_config(
            lagrangian_parameters={"coefficients": [1, -5, 0], "flags": {
                "defocusing": True, "zeroed": True, "nondegenerate": True}},
            entry_range=2, mode="violation_search", max_fixtures=5,
        ),
    ], ids=["skyrme", "linear_combination"])
    def test_a_reports_config_echo_reproduces_it(self, config):
        first = run_campaign(config).to_dict()
        echo = json.loads(dump_json(first["config"]))
        again = run_campaign(CampaignConfig.from_dict(echo)).to_dict()
        assert report_bytes(again) == report_bytes(first)

    def test_equal_configs_hash_equal(self):
        configs = [_integral_config(number) for number in (int, float, np.float64)]
        configs.append(_integral_config_file())
        assert len({hash(config) for config in configs}) == 1
        keyed = {configs[0]: "first"}
        for config in configs:
            keyed[config] = "last"
        assert keyed == {configs[0]: "last"} and len(set(configs)) == 1
        # 0.0 == -0.0, so the hash may not see the sign of a zero either.
        zeros = [_violating_config(lagrangian_parameters={"coefficients": [1, -5, z]})
                 for z in (0.0, -0.0)]
        assert zeros[0] == zeros[1] and hash(zeros[0]) == hash(zeros[1])
        other = dataclasses.replace(configs[0], seed=5)
        assert other != configs[0] and other not in keyed

    def test_editing_to_dict_leaves_the_config(self):
        config = _violating_config(
            lagrangian_parameters={"coefficients": [1, -5, 0], "flags": {
                "defocusing": True, "zeroed": True, "nondegenerate": True}},
        )
        before, digest = config.to_dict(), hash(config)
        echo = config.to_dict()
        echo["lagrangian"]["parameters"]["coefficients"][0] = "oops"
        echo["lagrangian"]["parameters"]["flags"]["zeroed"] = False
        echo["lagrangian"]["parameters"]["extra"] = 1.0
        assert config.lagrangian_parameters["coefficients"] == [1.0, -5.0, 0.0]
        assert config.to_dict() == before and hash(config) == digest
        assert run_campaign(config).to_dict()["config"] == before

    def test_editing_the_parameters_read_leaves_the_config(self):
        config = _violating_config(
            lagrangian_parameters={"coefficients": [1, -5, 0], "flags": {
                "defocusing": True, "zeroed": True, "nondegenerate": True}},
            max_fixtures=5,
        )
        before, digest, twin = config.to_dict(), hash(config), dataclasses.replace(config)
        report = report_bytes(run_campaign(config).to_dict())
        params = config.lagrangian_parameters
        params["coefficients"][0] = "oops"
        params["flags"]["zeroed"] = False
        params["extra"] = 1.0
        config.lagrangian_parameters["coefficients"].append(2.0)
        assert config.lagrangian_parameters == {
            "coefficients": [1.0, -5.0, 0.0],
            "flags": {"defocusing": True, "zeroed": True, "nondegenerate": True},
        }
        assert config == twin and hash(config) == digest and config.to_dict() == before
        assert report_bytes(run_campaign(config).to_dict()) == report
        assert pickle.loads(pickle.dumps(config)) == config
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.lagrangian_parameters = {}

    def test_names_and_mode_stored_as_str(self):
        class Text(str):
            pass

        config = _wave_config(lagrangian_name=Text("wave_map"), mode=Text("verify"))
        assert type(config.lagrangian_name) is str and type(config.mode) is str
        assert _exact_json(config.to_dict())


class TestRunCampaign:
    def test_wave_map_campaign_is_clean(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_campaign(_wave_config(), out_path=out)
        assert report.failures_total == 0
        assert report.counts["dec_energy"]["total"] == 100 * 4
        assert report.counts["rank_condition"]["total"] == 100 * 2
        assert report.counts["pointwise_corollary"]["total"] == 100
        assert report.fixtures == []
        written = json.loads(out.read_text())
        assert written["schema_version"] == 1
        assert written["failures_total"] == 0
        assert 0.0 < written["sampling"]["acceptance_rate"] <= 1.0

    def test_report_bytes_reproducible(self):
        config = _wave_config(seed=77)
        a = report_bytes(run_campaign(config).to_dict())
        b = report_bytes(run_campaign(config).to_dict())
        assert a == b
        # The duration field is the only nondeterministic part.
        assert b"duration_seconds" not in a

    def test_parallel_run_matches_serial_bytes(self):
        # Three chunks so the pool actually splits the work.
        config = _wave_config(n=1, num_samples=1030, seed=19,
                              num_directions_per_sample=2)
        serial = report_bytes(run_campaign(config, jobs=1).to_dict())
        parallel = report_bytes(run_campaign(config, jobs=4).to_dict())
        assert serial == parallel

    @pytest.fixture
    def workers(self, monkeypatch):
        """The max_workers of every pool started, each pool mapping in this process."""
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return workers

    # Three chunks of at most 512 samples.
    THREE_CHUNKS = {"n": 1, "num_samples": 1030, "seed": 19, "num_directions_per_sample": 2}

    def test_pool_has_at_most_one_worker_per_chunk(self, workers, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        config = _wave_config(**self.THREE_CHUNKS)
        serial = report_bytes(run_campaign(config, jobs=1).to_dict())
        assert report_bytes(run_campaign(config, jobs=6).to_dict()) == serial
        assert report_bytes(run_campaign(config, jobs=2).to_dict()) == serial
        assert workers == [3, 2]

    def test_pool_has_at_most_one_worker_per_cpu(self, workers, monkeypatch):
        # os.cpu_count() may return None; one CPU runs the chunks serially.
        config = _wave_config(**self.THREE_CHUNKS)
        serial = report_bytes(run_campaign(config, jobs=1).to_dict())
        for cpus in (None, 1, 2):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert report_bytes(run_campaign(config, jobs=500).to_dict()) == serial
        assert workers == [2]

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2", None])
    def test_rejects_jobs_not_a_positive_integer(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_campaign(_wave_config(num_samples=10), jobs=jobs)

    def test_verify_mode_counts_violations(self):
        report = run_campaign(_violating_config())
        assert report.failures_total > 0
        assert report.margins["min_energy_margin"] < 0

    def test_violation_search_caps_fixtures(self):
        report = run_campaign(_violating_config(max_fixtures=5))
        assert len(report.fixtures) == 5

    def test_serial_fixture_room_matches_pool_and_uncapped_fold(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_SIZE", 8)
        config = _harvest_config()
        cfg = config.to_dict()
        bounds = [(a, a + 8) for a in range(0, config.num_samples, 8)]
        uncapped = [run_chunk(dict(cfg, max_fixtures=10**6), a, b) for a, b in bounds]
        kept = np.cumsum([len(res["fixtures"]) for res in uncapped])
        # The cap falls inside the third chunk.
        assert kept[1] < config.max_fixtures < kept[2]
        serial = report_bytes(run_campaign(config).to_dict())
        assert serial == report_bytes(run_campaign(config, jobs=2).to_dict())
        folded = engine.fold_chunk_results(uncapped, config.max_fixtures)
        report = json.loads(serial)
        assert report["fixtures"] == folded["fixtures"]
        assert {k: report[k] for k in ("counts", "margins")} == {
            k: folded[k] for k in ("counts", "margins")
        }
        assert {fx["sample_index"] // 8 for fx in report["fixtures"]} == {0, 1, 2}

    def test_fold_drops_each_result_as_it_arrives(self, monkeypatch):
        # Each chunk's result carries an 8 MB payload that the fold ignores.
        # Folding results as they arrive holds one of them at a time, so the
        # traced memory at the start of the last chunk is that at the second.
        payload = 8 << 20
        run_one, at_start = engine.run_chunk, []

        def heavy_chunk(cfg, start, stop):
            at_start.append(tracemalloc.get_traced_memory()[0])
            return dict(run_one(cfg, start, stop), payload=bytearray(payload))

        monkeypatch.setattr(engine, "run_chunk", heavy_chunk)
        monkeypatch.setattr(engine, "CHUNK_SIZE", 8)
        tracemalloc.start()
        try:
            report = run_campaign(_wave_config(num_samples=40))
        finally:
            tracemalloc.stop()
        assert report.counts["dec_energy"]["total"] == 40 * 4
        assert len(at_start) == 5
        assert abs(at_start[-1] - at_start[1]) < payload

    def test_serial_loop_passes_each_chunk_the_room_left(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_SIZE", 8)
        config = _harvest_config()
        caps = []

        def recording_run_chunk(cfg, start, stop):
            caps.append(cfg["max_fixtures"])
            return run_chunk(cfg, start, stop)

        monkeypatch.setattr(engine, "run_chunk", recording_run_chunk)
        report = run_campaign(config)
        cfg = dict(config.to_dict(), max_fixtures=10**6)
        built = [
            len(run_chunk(cfg, a, a + 8)["fixtures"])
            for a in range(0, config.num_samples, 8)
        ]
        room = config.max_fixtures - np.concatenate([[0], np.cumsum(built)[:-1]])
        assert caps == np.maximum(room, 0).tolist()
        assert caps[-1] == 0
        assert len(report.fixtures) == config.max_fixtures

    def test_fixtures_of_a_sample_share_their_geometry(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_SIZE", 8)
        config = _violating_config(mode="violation_search", max_fixtures=200)
        serial, pooled = (run_campaign(config, jobs=jobs) for jobs in (1, 2))
        for report in (serial, pooled):
            by_sample = {}
            for fx in report.fixtures:
                by_sample.setdefault(fx["sample_index"], []).append(fx)
            assert max(map(len, by_sample.values())) > 4
            for fixtures in by_sample.values():
                first = fixtures[0]
                for name in ("metric", "target_metric", "dphi"):
                    assert all(fx[name] is first[name] for fx in fixtures)
                assert len({id(fx) for fx in fixtures}) == len(fixtures)
        data = serial.to_dict()
        blob = report_bytes(data)
        assert blob == report_bytes(copy.deepcopy(data))
        assert blob == report_bytes(json.loads(dump_json(data)))
        assert blob == report_bytes(pooled.to_dict())

    def test_recorded_fixture_replays_to_same_statuses(self):
        report = run_campaign(_violating_config(max_fixtures=3))
        for fx in report.fixtures:
            result = replay_fixture(fx)
            assert result.matches, (fx["kind"], result.recorded, result.recomputed)


class TestGeometryIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "geom.json"
        write_json(
            path,
            {
                "metric": [[-1.0, 0.0], [0.0, 1.0]],
                "target_metric": [[1.0, 0.0], [0.0, 1.0]],
                "dphi": [[1.0, 0.0], [0.0, 1.0]],
            },
        )
        geom = load_geometry(path)
        assert geom.dim == 2
        assert geom.target_dim == 2

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="target_metric"):
            load_geometry({"metric": [[-1.0]], "dphi": [[1.0]]})

    def test_wrong_signature_wrapped_as_config_error(self):
        with pytest.raises(ConfigError, match="signature"):
            load_geometry(
                {
                    "metric": [[1.0, 0.0], [0.0, 1.0]],
                    "target_metric": [[1.0, 0.0], [0.0, 1.0]],
                    "dphi": [[1.0, 0.0], [0.0, 1.0]],
                }
            )


class TestReplayFixture:
    def test_committed_golden_fixture(self):
        result = replay_fixture(FIXTURE_DIR / "dec_wave_map.json")
        assert result.kind == "dec"
        assert result.matches
        w = result.verdict.witnesses[0]
        assert w.energy == pytest.approx(1.0)
        assert w.flux_quadratic == pytest.approx(-1.0)
        assert w.flux_class is CausalClass.PAST_TIMELIKE

    def test_tampered_status_is_flagged(self):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data["recorded"]["energy_ok"] = False
        result = replay_fixture(data)
        assert not result.matches

    def test_recorded_floats_do_not_gate_matching(self):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data["recorded"]["energy"] = 123.456
        assert replay_fixture(data).matches

    def test_unknown_kind_rejected(self):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data["kind"] = "mystery"
        with pytest.raises(ConfigError, match="kind"):
            replay_fixture(data)

    def test_schema_version_checked(self):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data["schema_version"] = 0
        with pytest.raises(ConfigError, match="schema_version"):
            replay_fixture(data)

    @pytest.mark.parametrize("degree", [0, 3])
    def test_degree_out_of_range_names_the_field(self, degree):
        # The golden fixture's geometry is 2x2, so degrees run over 1 .. 2.
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data.update(kind="rank_condition", degree=degree)
        with pytest.raises(ConfigError, match=r"field 'degree': .*\[1, 2\], got"):
            replay_fixture(data)

    def test_corollary_without_its_flags_names_the_lagrangian(self):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data.update(kind="pointwise_corollary", lagrangian={
            "name": "linear_combination", "parameters": {"coefficients": [1.0, -5.0]},
        })
        with pytest.raises(ConfigError, match="field 'lagrangian': pointwise corollary"):
            replay_fixture(data)

    def test_convexity_lemma_fixture_records_and_replays(self, tmp_path, capsys):
        # No campaign config fails the combination lemma, so the engine's
        # record function builds the fixture along the canonical timelike leg.
        geom = sample_geometry(3, 3, rng=np.random.default_rng(8))
        params = {"c1": 1.0, "c2": 1.0}
        stack = CheckStack.at(geom, resolve_lagrangian("skyrme", params, 3))
        e0 = stack.frames[0][0, :, 0]
        fixture = {
            "schema_version": 1, "sample_index": 0, "seed": 0, "m_plus_1": 3, "n": 3,
            "lagrangian": {"name": "skyrme", "parameters": params},
            "tolerances": {"algebraic": 1e-9, "dec": 1e-9},
            "metric": geom.metric.entries.tolist(),
            "target_metric": geom.target_metric.entries.tolist(),
            "dphi": geom.dphi.tolist(),
            "kind": "convexity_lemma",
            **engine.FIXTURES["convexity_lemma"](stack.along(e0[None, None]), 0, 0),
        }
        assert replay_fixture(fixture).matches
        path = tmp_path / "convexity.json"
        write_json(path, fixture)
        assert main(["replay", str(path)]) == 0
        flipped = copy.deepcopy(fixture)
        flipped["recorded"]["holds"] = not fixture["recorded"]["holds"]
        write_json(path, flipped)
        assert main(["replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        write_json(path, dict(fixture, direction=(2.0 * e0).tolist()))
        assert main(["replay", str(path)]) == 2
        assert "unit timelike" in capsys.readouterr().err


def _replay_repr(fixture) -> str:
    """Everything a replay returns but ``recorded``, floats at full precision."""
    result = replay_fixture(fixture)
    with np.printoptions(floatmode="unique"):
        return repr((result.kind, result.matches, result.recomputed, result.verdict))


def _fresh(fixture):
    """A replay's outcome with nothing reused: its repr, or its exception."""
    campaign._last_replay = None
    return _outcome(fixture)


def _outcome(fixture):
    try:
        return _replay_repr(fixture)
    except Exception as exc:  # noqa: BLE001 (the outcome under test)
        return type(exc), str(exc)


def _memo_fixture_sets():
    """Fixture lists in sample order: the fixture-scan configs, then a harvest."""
    for config in test_engine.TestFixtureScan.CONFIGS:
        yield run_chunk(dict(config, max_fixtures=10**6), 0, 60)["fixtures"]
    report = run_campaign(_violating_config(
        num_samples=2048, mode="violation_search", max_fixtures=2000
    ))
    yield json.loads(dump_json(report.fixtures))


def _count_witnesses(monkeypatch) -> list:
    """A list that gains an entry at each ``dec.batch_dec_witness`` call."""
    calls = []
    witness = dec.batch_dec_witness
    monkeypatch.setattr(
        dec, "batch_dec_witness", lambda *args: calls.append(1) or witness(*args)
    )
    return calls


def _replay_key(fixture):
    """The memo key ``replay_fixture`` computes; None if its settings do not validate."""
    try:
        settings = campaign._replay_settings(fixture, "fixture")
    except ConfigError:
        return None
    return campaign._replay_key(fixture, *settings)


def _orders(count):
    half = (count + 1) // 2
    interleaved = [i for pair in zip(range(half), range(half, count)) for i in pair]
    if count % 2:
        interleaved.append(half - 1)
    return {
        "forward": list(range(count)),
        "reverse": list(range(count))[::-1],
        "interleaved": interleaved,
    }


def _same(a, b) -> bool:
    """Bitwise equality of stack fields: arrays, tuples, dataclasses, scalars."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return type(a) is type(b) and a == b


def _rows(value, rows):
    """Rows ``rows`` of a stack field: an array, or a tuple or dataclass of them."""
    if isinstance(value, np.ndarray):
        return value[rows]
    if isinstance(value, tuple):
        return tuple(_rows(item, rows) for item in value)
    return type(value)(**{
        f.name: _rows(getattr(value, f.name), rows) for f in dataclasses.fields(value)
    })


# The fields that read directions, which only a stack along them holds; the
# fields a stack along directions shares with the stack it was made from;
# and every field that reads no direction.
_VIEW_FIELDS = [
    "witness", "components", "premise", "conclusion", "dec_energy", "dec_flux",
    "convexity_lemma",
]
_SHARED_FIELDS = ["g_inv", "elementary", "terms", "tensor", "tensor_norm", "scale"]
_STACK_FIELDS = [
    name for name, value in vars(CheckStack).items()
    if isinstance(value, cached_property) and name not in _VIEW_FIELDS
]


class TestReplayMemo:
    """Replay reuses the previous fixture's direction-independent work, exactly."""

    @pytest.fixture(autouse=True)
    def _clear_memo(self):
        campaign._last_replay = None
        yield
        campaign._last_replay = None

    def test_every_order_matches_a_fresh_replay(self):
        for fixtures in _memo_fixture_sets():
            fresh = [_fresh(fx) for fx in fixtures]
            for name, order in _orders(len(fixtures)).items():
                campaign._last_replay = None
                for i in order:
                    assert _replay_repr(fixtures[i]) == fresh[i], (name, i)

    def test_consecutive_fixtures_of_a_sample_hit(self):
        fixtures = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"]
        a, b = fixtures[0], fixtures[1]
        assert a["dphi"] == b["dphi"]
        replay_fixture(a)
        cached = campaign._last_replay
        replay_fixture(b)
        # A hit reuses the cached geometry, Lagrangian and stack objects.
        assert campaign._last_replay[0] == cached[0]
        for i in (1, 2, 3):
            assert campaign._last_replay[i] is cached[i]
        assert isinstance(cached[3], CheckStack)

    def test_inverts_the_metric_once_per_miss(self, monkeypatch):
        fixtures = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"]
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
        stacks = []
        for fixture in fixtures:
            replay_fixture(fixture)
            stack = campaign._last_replay[3]
            if not stacks or stacks[-1] is not stack:
                stacks.append(stack)
        assert len(fixtures) > len(stacks) > 1
        assert len(calls) == len(stacks)

    @pytest.mark.parametrize("parsed", [False, True])
    def test_a_twin_reuses_the_witness(self, monkeypatch, parsed):
        fixtures = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"]
        energy, flux = test_engine._dec_twins(fixtures)[0]
        if parsed:  # a report read back shares no object between the twins
            energy, flux = json.loads(dump_json([energy, flux]))
        expected = _fresh(flux)
        calls = _count_witnesses(monkeypatch)
        campaign._last_replay = None
        replay_fixture(energy)
        assert _replay_repr(flux) == expected
        assert len(calls) == 1

    def test_no_stale_view(self, monkeypatch):
        # Negative tolerances fail every direction and every degree, so one
        # sample has DEC fixtures along several directions and degree kinds.
        fixtures = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[0], max_fixtures=10**6), 0, 60
        )["fixtures"]
        sample = [fx for fx in fixtures if fx["sample_index"] == fixtures[0]["sample_index"]]
        energy, flux = test_engine._dec_twins(sample)[0]
        other = next(
            fx for fx in sample
            if fx["kind"] == "dec_energy" and fx["direction"] != energy["direction"]
        )
        degree = next(fx for fx in sample if "degree" in fx)
        other_sample = next(
            fx for fx in fixtures
            if fx["kind"] == "dec_flux" and fx["sample_index"] != energy["sample_index"]
        )
        calls = _count_witnesses(monkeypatch)
        sequences = [
            ([energy, other], 2),
            ([energy, other, flux], 3),
            ([energy, degree, flux], 1),
            ([energy, degree, other], 2),
            ([energy, other_sample, flux], 3),
        ]
        for sequence, witnesses in sequences:
            expected = [_fresh(fx) for fx in sequence]
            campaign._last_replay = None
            calls.clear()
            assert [_replay_repr(fx) for fx in sequence] == expected
            assert len(calls) == witnesses

    def test_views_share_a_stack_without_writing_to_it(self):
        geom = sample_geometry(3, 3, rng=np.random.default_rng(3))
        lagr = resolve_lagrangian("skyrme", {"c1": 1.0, "c2": 1.0}, 3)
        # No stack field reads directions: all of them compute without any.
        bare = CheckStack.at(geom, lagr)
        for name in _STACK_FIELDS:
            getattr(bare, name)
        assert not hasattr(bare, "directions")
        frame = bare.frames[0][0]
        rng = np.random.default_rng(4)
        a, b = (
            sample_timelike_directions(frame, rng, 4)[None] for _ in range(2)
        )
        shared = CheckStack.at(geom, lagr)
        views = [shared.along(a), shared.along(b)]
        for view, x in zip(views, (a, b)):
            fresh = CheckStack.at(geom, lagr).along(x)
            for name in _VIEW_FIELDS + _STACK_FIELDS:
                assert _same(getattr(view, name), getattr(fresh, name)), name
            # The shared fields are the stack's own arrays.
            for name in _SHARED_FIELDS:
                mine, its = (getattr(st, name) for st in (view, shared))
                if name != "terms":
                    mine, its = (mine,), (its,)
                assert all(map(np.shares_memory, mine, its)), name
        # The shared stack holds the shared fields, computed for the views,
        # and no field of theirs.
        assert set(_SHARED_FIELDS) <= set(vars(shared))
        assert not {"directions", *_VIEW_FIELDS} & set(vars(shared))
        # Directions A and B give different witnesses, so a stale field shows.
        assert not _same(views[0].witness, views[1].witness)

    @pytest.mark.parametrize("batch, step", [(8, 3), (160, 64)])
    def test_a_view_of_rows_is_those_rows_of_the_whole_view(self, batch, step):
        # K = 8 and blocks with a remainder; at (160, 64) the whole stack
        # has CONTRACT_MIN_ROWS direction rows or more, and its blocks fewer.
        lagr = resolve_lagrangian("skyrme", {"c1": 1.0, "c2": 1.0}, 4)
        rng = np.random.default_rng(5)
        geoms = [sample_geometry(4, 4, rng=rng) for _ in range(batch)]
        st = CheckStack(
            np.stack([geom.metric.entries for geom in geoms]),
            np.stack([geom.target_metric.entries for geom in geoms]),
            np.stack([geom.dphi for geom in geoms]),
            lagr,
        )
        directions = np.stack(
            [sample_timelike_directions(frame, rng, 8) for frame in st.frames[0]]
        )
        whole = st.along(directions)
        for lo in range(0, batch, step):
            rows = slice(lo, lo + step)
            view = st.along(directions[rows], rows)
            # A stack of those rows alone, sharing nothing with ``st``.
            alone = CheckStack(st.g[rows], st.h[rows], st.dphi[rows], lagr).along(
                directions[rows]
            )
            for name in _VIEW_FIELDS:
                expected = _rows(getattr(whole, name), rows)
                assert _same(getattr(view, name), expected), (name, lo)
                assert _same(getattr(alone, name), expected), (name, lo)

    def test_near_misses_replay_as_if_fresh(self):
        base = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"][0]
        golden = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())

        def reshaped(fx, name, shape):
            flat = np.array(fx[name]).reshape(shape)
            return dict(fx, **{name: flat.tolist()})

        def negated_zero(fx):
            dphi = [row[:] for row in fx["dphi"]]
            assert dphi[0][1] == 0.0
            dphi[0][1] = -0.0
            return dict(fx, dphi=dphi)

        def with_lagrangian(fx, coefficients):
            lagr = {"name": "linear_combination",
                    "parameters": {"coefficients": coefficients}}
            return dict(fx, lagrangian=lagr)

        cases = [
            (base, reshaped(base, "dphi", (9,))),
            (base, reshaped(base, "dphi", (1, 9))),
            (base, reshaped(base, "metric", (1, 9))),
            (golden, reshaped(golden, "dphi", (4, 1))),
            (golden, negated_zero(golden)),
            (base, dict(base, tolerances={"algebraic": 1e-9, "dec": 1e300})),
            (base, dict(base, tolerances={"algebraic": 1e300, "dec": 1e-9})),
            (base, dict(base, tolerances={"algebraic": 1e-9, "dec": -0.0})),
            (base, with_lagrangian(base, [1.0, -4.0, 0.0])),
            (base, with_lagrangian(base, [1.0, -5.0, -0.0])),
            (base, with_lagrangian(base, [1.0, -5.0])),
            (base, dict(base, lagrangian={"name": "skyrme",
                                          "parameters": {"c1": 1.0, "c2": 5.0}})),
            # Geometry or settings that do not validate; some still give a key.
            (base, dict(base, metric=[[-1.0, 0.0, 0.0], [0.0, 1.0]])),
            (base, dict(base, metric=[["x"] * 3] * 3)),
            (base, dict(base, dphi=None)),
            (base, {k: v for k, v in base.items() if k != "dphi"}),
            (base, dict(base, lagrangian="linear_combination")),
            (base, dict(base, tolerances=[1e-9])),
            (base, dict(base, tolerances={"dec": "loose"})),
        ]
        # The same key, with content that is checked on every call.
        malformed = [
            dict(base, direction=[0.0, 1.0, 0.0]),
            dict(base, direction=[1.0, 0.0]),
            {k: v for k, v in base.items() if k != "direction"},
            dict(base, kind="wedge_identity", degree=4),
            dict(base, kind="rank_condition", degree="two"),
            dict(base, kind="pointwise_corollary"),
            dict(base, schema_version=2),
            dict(base, kind="mystery"),
        ]
        cases += [(base, near) for near in malformed]
        for i, (valid, near) in enumerate(cases):
            expected = _fresh(near)
            campaign._last_replay = None
            _replay_repr(valid)
            assert _outcome(near) == expected, i
            key = _replay_key(near)
            if near in malformed:
                assert isinstance(expected, tuple), i
            elif key is not None:
                assert key != _replay_key(valid), i

    def test_buffers_never_leave_a_key(self, monkeypatch):
        # The key is a pickle, which records each value's type, dtype and
        # shape and every float's bits: values with the same bytes or equal
        # values of another type give another key, and the second never hits.
        base = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"][0]
        dphi, metric = np.array(base["dphi"]), np.array(base["metric"])

        def scalars(rows, dtype):
            return [[np.float64(x).view(dtype) for x in row] for row in rows]

        def first_entry(value):
            rows = [list(row) for row in base["dphi"]]
            rows[0][0] = value
            return dict(base, dphi=rows)

        cases = [
            (dict(base, dphi=dphi), dict(base, dphi=dphi.reshape(9))),
            (dict(base, metric=metric), dict(base, metric=metric.view(np.int64))),
            (dict(base, dphi=scalars(base["dphi"], np.float64)),
             dict(base, dphi=scalars(base["dphi"], np.int64))),
            (first_entry(0.0), first_entry(-0.0)),
            (first_entry(1.0), first_entry(1)),
            (first_entry(1.0), first_entry(True)),
            (base, dict(base, dphi=[tuple(row) for row in base["dphi"]])),
        ]
        loads = []
        load = campaign.load_geometry
        monkeypatch.setattr(
            campaign, "load_geometry", lambda data: loads.append(1) or load(data)
        )
        for i, (valid, near) in enumerate(cases):
            key = _replay_key(near)
            assert key is not None and key != _replay_key(valid), i
            expected = _fresh(near)
            campaign._last_replay = None
            assert _outcome(valid) == _fresh(valid), i
            assert campaign._last_replay is not None, i
            loads.clear()
            assert _outcome(near) == expected, i
            assert loads == [1], i

    def test_returned_arrays_do_not_alias_the_memo(self):
        fixtures = run_chunk(
            dict(test_engine.TestFixtureScan.CONFIGS[3], max_fixtures=10**6), 0, 60
        )["fixtures"]
        fx = next(f for f in fixtures if f["kind"] == "dec_energy")
        expected = _fresh(fx)
        for _ in range(2):
            result = replay_fixture(fx)
            for w in result.verdict.witnesses:
                w.direction[...] = np.nan
                w.flux[...] = np.nan
        assert _replay_repr(fx) == expected

    def test_concurrent_replays_match_fresh(self):
        fixtures = next(_memo_fixture_sets())[:120]
        fresh = [_fresh(fx) for fx in fixtures]
        campaign._last_replay = None
        errors = []

        def worker(offset):
            try:
                for k in range(len(fixtures)):
                    i = (k + offset) % len(fixtures)
                    if _replay_repr(fixtures[i]) != fresh[i]:
                        errors.append(i)
            except Exception as exc:  # noqa: BLE001 (reported below)
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(7 * t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    write_json(path, config.to_dict())
    return str(path)


def _write_geometry(tmp_path):
    path = tmp_path / "geom.json"
    write_json(
        path,
        {
            "metric": [[-1.0, 0.0], [0.0, 1.0]],
            "target_metric": [[1.0, 0.0], [0.0, 1.0]],
            "dphi": [[1.0, 0.0], [0.0, 1.0]],
        },
    )
    return str(path)


class TestCLI:
    def test_verify_clean_exits_zero(self, tmp_path, capsys):
        config = _write_config(tmp_path, _wave_config(num_samples=30))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        assert "failures=0" in capsys.readouterr().out
        assert out.exists()

    def test_verify_failures_exit_one(self, tmp_path):
        config = _write_config(tmp_path, _violating_config(num_samples=20))
        assert main(["verify", "--config", config]) == 1

    def test_violation_search_exit_zero_despite_failures(self, tmp_path, capsys):
        config = _write_config(
            tmp_path, _violating_config(num_samples=20, mode="violation_search")
        )
        assert main(["verify", "--config", config]) == 0
        assert "fixtures recorded" in capsys.readouterr().out

    @staticmethod
    def _no_chunks(*args):
        raise AssertionError("a chunk ran before the report path was checked")

    def test_verify_unwritable_report_exits_two(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path, _wave_config(num_samples=10))
        monkeypatch.setattr(engine, "run_chunk", self._no_chunks)
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(out) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verify_report_onto_a_directory_exits_two(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path, _wave_config(num_samples=10))
        monkeypatch.setattr(engine, "run_chunk", self._no_chunks)
        assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path}: it is a directory")

    @pytest.mark.parametrize("section, value, key", [
        ("tolerances", {"dce": 1e-3}, "dce"),
        ("lagrangian", {"name": "wave_map", "parmeters": {}}, "parmeters"),
    ])
    def test_verify_unknown_section_key_exit_two(self, tmp_path, capsys, section, value, key):
        data = _wave_config().to_dict()
        data[section] = value
        config = tmp_path / "config.json"
        write_json(config, data)
        assert main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{section}' has unknown fields: ['{key}']" in err

    def test_verify_missing_config_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_verify_truncated_config_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"schema_version\": 1,")
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("path, value", [
        ("num_samples", None),
        ("seed", [1]),
        ("lagrangian", {"name": "skyrme", "parameters": [1, 2]}),
        ("entry_range", True),
        ("boost_cap", "3"),
        ("tolerances", {"dec": "1e-3"}),
        ("tolerances", {"algebraic": False}),
        ("lagrangian", {"name": "skyrme", "parameters": {"c1": True, "c2": 1.0}}),
        ("lagrangian", {"name": "born_infeld", "parameters": {"b": 1.0, "delta": "0.1"}}),
        ("lagrangian", {"name": "minimal_surface", "parameters": {"delta": True}}),
        ("lagrangian", {"name": "linear_combination", "parameters": {"coefficients": "15"}}),
        ("lagrangian", {"name": "linear_combination",
                        "parameters": {"coefficients": ["1", "-5", "0"]}}),
        ("lagrangian", {"name": "linear_combination",
                        "parameters": {"coefficients": [True, False]}}),
        ("lagrangian", {"name": "linear_combination", "parameters": {
            "coefficients": [1, 1],
            "flags": {"defocusing": "no", "zeroed": "no", "nondegenerate": "no"}}}),
    ])
    def test_verify_wrong_json_type_exit_two(self, tmp_path, capsys, path, value):
        data = _skyrme_config_dict()
        data[path] = value
        config = tmp_path / "config.json"
        write_json(config, data)
        assert main(["verify", "--config", str(config)]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("m_plus_1", MAX_M_PLUS_1 + 1), ("n", MAX_N + 1)])
    def test_verify_dimension_past_its_cap_exit_two(self, tmp_path, capsys, name, value):
        data = _skyrme_config_dict()
        data[name] = value
        config = tmp_path / "config.json"
        write_json(config, data)
        assert main(["verify", "--config", str(config)]) == 2
        assert f"{name} {value} exceeds" in capsys.readouterr().err

    def test_verify_rank_below_the_domain_exit_two(self, tmp_path, capsys):
        data = _wave_config(m_plus_1=4).to_dict()
        data["lagrangian"] = {"name": "minimal_surface", "parameters": {}}
        config = tmp_path / "config.json"
        write_json(config, data)
        assert main(["verify", "--config", str(config)]) == 2
        assert "n = 2" in capsys.readouterr().err

    def test_verify_non_finite_report_value_names_its_path(self, tmp_path, capsys):
        # dphi entries near 1e160 overflow the pullback: records and margins turn NaN.
        data = {"schema_version": 1, "m_plus_1": 3, "n": 3,
                "lagrangian": {"name": "wave_map"}, "num_samples": 32,
                "entry_range": 1e160}
        config = tmp_path / "config.json"
        write_json(config, data)
        out = tmp_path / "report.json"
        with np.errstate(all="ignore"):
            assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
            report = run_campaign(CampaignConfig.from_dict(data)).to_dict()
        err = capsys.readouterr().err
        path = re.search(r"not JSON compliant: \S+ at (\S+)$", err.strip()).group(1)
        value = value_at(report, path)
        assert isinstance(value, float) and not math.isfinite(value), (path, value)

    def test_jobs_flag_two(self, tmp_path, capsys):
        config = _write_config(tmp_path, _wave_config(num_samples=25))
        assert main(["verify", "--config", config, "--jobs", "2"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_jobs_flag_zero_exit_two(self, tmp_path, capsys):
        config = _write_config(tmp_path, _wave_config(num_samples=10))
        assert main(["verify", "--config", config, "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_invariants_prints_three_routes(self, tmp_path, capsys):
        geometry = _write_geometry(tmp_path)
        assert main(["invariants", geometry]) == 0
        out = capsys.readouterr().out
        for route in ("charpoly", "newton", "wedge"):
            assert route in out
        assert "rank estimate = 2" in out

    def test_stress_agreement_exits_zero(self, tmp_path, capsys):
        geometry = _write_geometry(tmp_path)
        code = main(["stress", geometry, "--lagrangian", "skyrme",
                     "--params", "{\"c1\": 1.0, \"c2\": 0.5}"])
        assert code == 0
        assert "relative residual" in capsys.readouterr().out

    def test_stress_impossible_tolerance_exits_one(self, tmp_path, capsys):
        geometry = _write_geometry(tmp_path)
        code = main(["stress", geometry, "--lagrangian", "wave_map",
                     "--tol", "1e-30"])
        assert code == 1
        assert "exceeds tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_stress_tolerance_not_positive_finite_exit_two(self, tmp_path, capsys, tol):
        geometry = _write_geometry(tmp_path)
        assert main(["stress", geometry, "--lagrangian", "wave_map", f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_stress_bad_params_exit_two(self, tmp_path, capsys):
        geometry = _write_geometry(tmp_path)
        assert main(["stress", geometry, "--lagrangian", "wave_map",
                     "--params", "not json"]) == 2
        assert main(["stress", geometry, "--lagrangian", "wave_map",
                     "--params", "[1,2]"]) == 2
        for name, params, bad in [
            ("linear_combination", '{"coefficients": [1, 1], "flags": {"defocusing": true}}',
             "flags"),
            ("linear_combination", '{"coefficients": {"a": 1}}', "coefficients"),
            ("linear_combination", '{"coefficients": "15"}', "coefficients"),
            ("skyrme", '{"c1": true, "c2": 1}', "c1"),
        ]:
            capsys.readouterr()
            assert main(["stress", geometry, "--lagrangian", name, "--params", params]) == 2
            assert f"parameter '{bad}'" in capsys.readouterr().err

    def test_stress_unknown_lagrangian_exit_two(self, tmp_path):
        geometry = _write_geometry(tmp_path)
        assert main(["stress", geometry, "--lagrangian", "phantom"]) == 2

    def test_replay_golden_exits_zero(self, capsys):
        code = main(["replay", str(FIXTURE_DIR / "dec_wave_map.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches recorded verdict" in out
        assert "past-timelike" in out

    @pytest.mark.parametrize("name, value", [
        ("lagrangian", {"parameters": {}}),
        ("lagrangian", "wave_map"),
        ("lagrangian", {"name": "wave_map", "parameters": [1, 2]}),
        ("tolerances", [1e-9]),
        ("tolerances", {"dec": None}),
        ("recorded", 5),
        ("degree", 2.7),
        ("degree", True),
        ("degree", "2"),
        ("kind", ["dec"]),
        ("direction", {"t": 1.0}),
        ("lagrangian", {"name": "linear_combination", "parameters": {"coefficients": {"a": 1}}}),
        ("tolerances", {"dec": "nan"}),
        ("tolerances", {"dec": math.inf}),
        ("tolerances", {"dec": -math.inf}),
        ("tolerances", {"algebraic": math.nan}),
        ("tolerances", {"dec": "1e-3"}),
    ])
    def test_replay_malformed_field_exits_two(self, tmp_path, capsys, name, value):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        if name == "degree":
            data["kind"] = "rank_condition"
        data[name] = value
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(data))  # json writes NaN and Infinity
        assert main(["replay", str(path)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("metric", [["-1", "0"], ["0", "1"]]),
        ("target_metric", [[True, 0.0], [0.0, 1.0]]),
        ("dphi", [[1.0, "0.5"], [0.0, 1.0]]),
    ])
    @pytest.mark.parametrize("command", [["invariants"], ["stress", "--lagrangian", "wave_map"]])
    def test_geometry_entry_not_a_number_exits_two(self, tmp_path, capsys, command, name, value):
        data = json.loads(Path(_write_geometry(tmp_path)).read_text())
        data[name] = value
        path = tmp_path / "geometry.json"
        write_json(path, data)
        assert main([command[0], str(path), *command[1:]]) == 2
        assert f"field '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("metric", [["-1.0", "0.0"], ["0.0", "1.0"]]),
        ("dphi", [[True, 0.0], [0.0, True]]),
        ("direction", ["1.0", "0.0"]),
        ("direction", [True, 0.0]),
    ])
    def test_replay_entry_not_a_number_exits_two(self, tmp_path, capsys, name, value):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data[name] = value
        path = tmp_path / "fixture.json"
        write_json(path, data)
        assert main(["replay", str(path)]) == 2
        assert f"field '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify", "--config"], ["replay"]])
    def test_non_object_file_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "five.json"
        path.write_text("5\n")
        assert main([*command, str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_replay_tampered_exits_one(self, tmp_path, capsys):
        data = json.loads((FIXTURE_DIR / "dec_wave_map.json").read_text())
        data["recorded"]["flux_ok"] = False
        path = tmp_path / "tampered.json"
        write_json(path, data)
        assert main(["replay", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_audit_clean_lagrangian_exits_zero(self, capsys):
        code = main(["audit-lagrangian", "--lagrangian", "skyrme",
                     "--params", "{\"c1\": 1.0, \"c2\": 1.0}",
                     "--dim", "4", "--samples", "400"])
        assert code == 0
        assert "declared flags" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "box", [("nan", "5"), ("-5", "inf"), ("-1e308", "1e308"), ("1", "1"), ("5", "-5")]
    )
    def test_audit_bad_box_exit_two(self, box, capsys):
        code = main(["audit-lagrangian", "--lagrangian", "skyrme",
                     "--params", "{\"c1\": 1.0, \"c2\": 1.0}",
                     "--dim", "3", "--samples", "8",
                     f"--low={box[0]}", f"--high={box[1]}"])
        assert code == 2
        assert "sample box" in capsys.readouterr().err

    def test_audit_misdeclared_flags_exit_one(self, capsys):
        # Mixed-sign combination with a forced defocusing=True declaration;
        # the audit must refute the lie.
        params = json.dumps(
            {
                "coefficients": [1.0, -5.0],
                "flags": {
                    "defocusing": True,
                    "zeroed": True,
                    "nondegenerate": True,
                },
            }
        )
        code = main(["audit-lagrangian", "--lagrangian", "linear_combination",
                     "--params", params, "--dim", "2", "--samples", "400"])
        assert code == 1
        assert "refuted" in capsys.readouterr().out

    def test_audit_malformed_flags_exit_two(self, capsys):
        # JSON strings are not booleans: "no" must not declare a flag true.
        params = json.dumps({"coefficients": [1.0, -5.0], "flags": {
            "defocusing": "no", "zeroed": "no", "nondegenerate": "no"}})
        code = main(["audit-lagrangian", "--lagrangian", "linear_combination",
                     "--params", params, "--dim", "2", "--samples", "40"])
        assert code == 2
        assert "parameter 'flags'" in capsys.readouterr().err

    def test_audit_admissibility_defect_exit_one(self, capsys):
        # Root-type value on mixed-sign boxes breaks sub-additivity.
        code = main(["audit-lagrangian", "--lagrangian", "born_infeld",
                     "--params", "{\"b\": 1.0}",
                     "--dim", "3", "--samples", "600"])
        assert code == 1
        assert "admissibility checks failed" in capsys.readouterr().out

    def test_audit_bad_dim_exit_two(self):
        assert main(["audit-lagrangian", "--lagrangian", "skyrme",
                     "--params", "{\"c1\": 1.0, \"c2\": 1.0}",
                     "--dim", "1"]) == 2
