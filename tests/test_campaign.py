"""Campaign configs, reports, fixture replay, and the command-line interface.

Determinism contract under test: for a fixed config the report bytes (minus
wall-clock duration) are identical across runs and across worker counts.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from straindec import (
    CampaignConfig,
    CausalClass,
    ConfigError,
    load_config,
    load_geometry,
    replay_fixture,
    report_bytes,
    run_campaign,
)
from straindec.campaign import dump_json, write_json
from straindec.cli import main

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

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            _wave_config(seed=2**64)
        with pytest.raises(ConfigError, match="seed"):
            _wave_config(seed=-1)

    def test_rank_override_bounds(self):
        with pytest.raises(ConfigError, match="rank_override"):
            _wave_config(rank_override=3)
        assert _wave_config(rank_override=2).rank_override == 2

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

    def test_verify_mode_counts_violations(self):
        report = run_campaign(_violating_config())
        assert report.failures_total > 0
        assert report.margins["min_energy_margin"] < 0

    def test_violation_search_caps_fixtures(self):
        report = run_campaign(_violating_config(max_fixtures=5))
        assert len(report.fixtures) == 5
        assert report.counterexamples is report.fixtures

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

    def test_verify_missing_config_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_verify_truncated_config_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"schema_version\": 1,")
        assert main(["verify", "--config", str(path)]) == 2

    def test_jobs_env_override(self, tmp_path, monkeypatch, capsys):
        config = _write_config(tmp_path, _wave_config(num_samples=25))
        monkeypatch.setenv("STRAIN_DEC_JOBS", "2")
        assert main(["verify", "--config", config]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["zero", "0"])
    def test_jobs_env_invalid_exit_two(self, tmp_path, monkeypatch, value):
        config = _write_config(tmp_path, _wave_config(num_samples=10))
        monkeypatch.setenv("STRAIN_DEC_JOBS", value)
        assert main(["verify", "--config", config]) == 2

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

    def test_stress_bad_params_exit_two(self, tmp_path):
        geometry = _write_geometry(tmp_path)
        assert main(["stress", geometry, "--lagrangian", "wave_map",
                     "--params", "not json"]) == 2
        assert main(["stress", geometry, "--lagrangian", "wave_map",
                     "--params", "[1,2]"]) == 2

    def test_stress_unknown_lagrangian_exit_two(self, tmp_path):
        geometry = _write_geometry(tmp_path)
        assert main(["stress", geometry, "--lagrangian", "phantom"]) == 2

    def test_replay_golden_exits_zero(self, capsys):
        code = main(["replay", str(FIXTURE_DIR / "dec_wave_map.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches recorded verdict" in out
        assert "past-timelike" in out

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
