"""Seed-derived generators, geometry draws, and boosted timelike directions."""

import numpy as np
import pytest

from straindec import (
    ConditioningError,
    LorentzianMetric,
    RiemannianMetric,
    SamplerStarvationError,
    charpoly_coefficients,
    derive_rng,
    rank_of_map,
    resolve_lagrangian,
    sample_geometry,
    sample_timelike_directions,
)
from straindec import sampling
from straindec.lagrangians import _always_inside
from straindec.sampling import (
    MAX_DOMAIN_TRIES,
    assemble_directions,
    draw_chunk_arrays,
    draw_direction_params,
    draw_geometry_arrays,
)


class TestDeriveRng:
    def test_pure_function_of_seed_and_index(self):
        a = derive_rng(123, 7).uniform(size=16)
        b = derive_rng(123, 7).uniform(size=16)
        np.testing.assert_array_equal(a, b)

    def test_indices_decorrelate_streams(self):
        a = derive_rng(123, 0).uniform(size=16)
        b = derive_rng(123, 1).uniform(size=16)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            derive_rng(-1, 0)
        with pytest.raises(ValueError):
            derive_rng(2**64, 0)
        with pytest.raises(ValueError):
            derive_rng(0, -1)
        derive_rng(2**64 - 1, 0)  # top of the range is fine


class TestGeometryDraws:
    def test_shapes_and_validity(self):
        g, h, dphi, retries = draw_geometry_arrays(derive_rng(5, 0), 4, 3)
        assert g.shape == (4, 4) and h.shape == (3, 3) and dphi.shape == (3, 4)
        assert retries >= 0
        LorentzianMetric(g)
        RiemannianMetric(h)
        assert np.max(np.abs(dphi)) <= 1.0

    def test_bitwise_deterministic(self):
        a = draw_geometry_arrays(derive_rng(5, 3), 3, 2)
        b = draw_geometry_arrays(derive_rng(5, 3), 3, 2)
        for x, y in zip(a[:3], b[:3]):
            np.testing.assert_array_equal(x, y)

    def test_entry_range_bounds_dphi(self):
        _, _, dphi, _ = draw_geometry_arrays(derive_rng(5, 0), 3, 2, entry_range=0.25)
        assert np.max(np.abs(dphi)) <= 0.25

    def test_entry_range_zero_gives_zero_map(self):
        _, _, dphi, _ = draw_geometry_arrays(derive_rng(5, 0), 3, 2, entry_range=0.0)
        np.testing.assert_array_equal(dphi, np.zeros((2, 3)))

    def test_rank_override_exact(self):
        for r in (0, 1, 2):
            _, _, dphi, _ = draw_geometry_arrays(
                derive_rng(5, 1), 3, 2, rank_override=r
            )
            assert rank_of_map(dphi) == r
        _, _, dphi, _ = draw_geometry_arrays(derive_rng(5, 1), 3, 2, rank_override=0)
        np.testing.assert_array_equal(dphi, np.zeros((2, 3)))

    def test_validation(self):
        rng = derive_rng(5, 0)
        with pytest.raises(ValueError):
            draw_geometry_arrays(rng, 0, 2)
        with pytest.raises(ValueError):
            draw_geometry_arrays(rng, 2, 2, entry_range=-1.0)
        with pytest.raises(ValueError):
            draw_geometry_arrays(rng, 2, 2, rank_override=3)

    def test_sample_geometry_wraps_arrays(self):
        geom = sample_geometry(3, 2, rng=derive_rng(5, 4))
        assert geom.dim == 3 and geom.target_dim == 2
        g2, h2, d2, _ = draw_geometry_arrays(derive_rng(5, 4), 3, 2)
        np.testing.assert_array_equal(geom.metric.entries, g2)
        np.testing.assert_array_equal(geom.dphi, d2)


class TestDirections:
    def test_param_validation(self):
        rng = derive_rng(1, 0)
        with pytest.raises(ValueError):
            draw_direction_params(rng, 0, 2)
        with pytest.raises(ValueError):
            draw_direction_params(rng, 4, 2, boost_cap=-1.0)

    def test_unit_timelike_and_future_pointing(self):
        for index in range(5):
            rng = derive_rng(42, index)
            g, _, _, _ = draw_geometry_arrays(rng, 4, 2)
            metric = LorentzianMetric(g)
            from straindec import canonical_frame

            frame = canonical_frame(metric)
            xs = sample_timelike_directions(frame.basis, rng, 16)
            assert xs.shape == (16, 4)
            for x in xs:
                assert metric.inner(x, x) == pytest.approx(-1.0, abs=1e-9)
                # future-pointing: negative product with the frame's time leg
                assert metric.inner(x, frame.vector(0)) < 0.0

    def test_boost_cap_limits_gamma(self):
        metric = LorentzianMetric(np.diag([-1.0, 1.0, 1.0]))
        basis = np.eye(3)
        xs = sample_timelike_directions(basis, derive_rng(3, 0), 64, boost_cap=2.0)
        assert np.max(np.abs(xs[:, 0])) <= np.cosh(2.0) + 1e-12

    def test_zero_boost_returns_time_leg(self):
        basis = np.eye(2)
        xs = sample_timelike_directions(basis, derive_rng(3, 0), 4, boost_cap=0.0)
        np.testing.assert_allclose(xs, np.tile([1.0, 0.0], (4, 1)), atol=1e-12)

    def test_dimension_one_always_time_leg(self):
        basis = np.array([[2.0]])
        xs = sample_timelike_directions(basis, derive_rng(3, 0), 3)
        np.testing.assert_array_equal(xs, np.full((3, 1), 2.0))

    def test_zero_normal_falls_back_to_first_spatial_leg(self):
        basis = np.eye(3)
        xs = assemble_directions(basis, np.array([1.0]), np.zeros((1, 2)))
        want = np.array([[np.cosh(1.0), np.sinh(1.0), 0.0]])
        np.testing.assert_allclose(xs, want, atol=1e-12)


class _Starved(Exception):
    def __init__(self, rate):
        super().__init__(rate)
        self.rate = rate


def _scalar_chunk(seed, start, stop, m1, n, ndir, entry_range, boost_cap,
                  rank_override, lagr):
    """The one-sample-at-a-time draw loop that draw_chunk_arrays must equal."""
    restricted = lagr is not None and lagr.domain_predicate is not _always_inside
    counters = {"domain_draws": 0, "domain_accepted": 0, "metric_retries": 0}
    rows = []
    for index in range(start, stop):
        rng = derive_rng(seed, index)
        tries = 0
        while True:
            g, h, dphi, retries = draw_geometry_arrays(
                rng, m1, n, entry_range, rank_override,
                condition_bound=sampling.DEFAULT_CONDITION_BOUND,
            )
            counters["metric_retries"] += retries
            counters["domain_draws"] += 1
            if not restricted:
                break
            pull = dphi.T @ h @ dphi
            pull = 0.5 * (pull + pull.T)
            s = charpoly_coefficients(np.linalg.inv(g) @ pull)
            if bool(np.all(lagr.domain_predicate(s))):
                break
            tries += 1
            if tries >= MAX_DOMAIN_TRIES:
                raise _Starved(counters["domain_accepted"] / counters["domain_draws"])
        counters["domain_accepted"] += 1
        rows.append((g, h, dphi) + draw_direction_params(rng, ndir, m1 - 1, boost_cap))
    return [np.stack(col) for col in zip(*rows)], counters


def _assert_chunk_matches(seed, start, stop, m1, n, ndir=3, entry_range=1.0,
                          boost_cap=5.0, rank_override=None, lagr=None):
    *arrays, counters = draw_chunk_arrays(
        seed, start, stop, m1, n, ndir, entry_range, boost_cap, rank_override, lagr
    )
    want, want_counters = _scalar_chunk(
        seed, start, stop, m1, n, ndir, entry_range, boost_cap, rank_override, lagr
    )
    for got, ref in zip(arrays, want, strict=True):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
    assert counters == want_counters
    return counters


class TestChunkDraw:
    @pytest.mark.parametrize("m1", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_scalar_stream(self, m1, n):
        _assert_chunk_matches(61, 0, 40, m1, n, lagr=resolve_lagrangian("wave_map", {}, m1))

    @pytest.mark.parametrize("m1", [1, 2, 3, 4, 5])
    def test_rank_overrides(self, m1):
        n = 3
        for rank in range(min(m1, n) + 1):
            _assert_chunk_matches(62, 0, 30, m1, n, rank_override=rank)

    def test_born_infeld_with_many_rejections(self):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        counters = _assert_chunk_matches(63, 0, 120, 3, 3, entry_range=1.5, lagr=lagr)
        assert counters["domain_accepted"] < 0.8 * counters["domain_draws"]

    def test_minimal_surface(self):
        lagr = resolve_lagrangian("minimal_surface", {}, 3)
        counters = _assert_chunk_matches(64, 0, 80, 3, 2, lagr=lagr)
        assert counters["domain_accepted"] < counters["domain_draws"]

    def test_chunk_not_starting_at_zero(self):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        _assert_chunk_matches(65, 1000, 1064, 3, 2, entry_range=1.5, lagr=lagr)

    def test_metric_retries_replay_the_scalar_loop(self, monkeypatch):
        # A bound this tight rejects many first metric candidates.
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 2.0)
        counters = _assert_chunk_matches(66, 0, 60, 3, 2)
        assert counters["metric_retries"] > 0

    def test_conditioning_error_matches_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 1.0)
        with pytest.raises(ConditioningError):
            draw_chunk_arrays(66, 0, 4, 3, 2, 3)
        with pytest.raises(ConditioningError):
            _scalar_chunk(66, 0, 4, 3, 2, 3, 1.0, 5.0, None, None)

    def test_starvation_rate_matches_scalar_loop(self):
        # Sample 30 starves; accepted slots both before and after it take the
        # fast path, and only those before it may count toward the rate.
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 1)
        with pytest.raises(SamplerStarvationError) as info:
            draw_chunk_arrays(14, 0, 64, 1, 3, 3, 2.5, 5.0, None, lagr)
        with pytest.raises(_Starved) as want:
            _scalar_chunk(14, 0, 64, 1, 3, 3, 2.5, 5.0, None, lagr)
        assert "sample 30:" in str(info.value)
        assert 0.0 < info.value.acceptance_rate == want.value.rate

    def test_empty_chunk(self):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        *arrays, counters = draw_chunk_arrays(1, 5, 5, 3, 2, 4, lagrangian=lagr)
        shapes = [(0, 3, 3), (0, 2, 2), (0, 2, 3), (0, 4), (0, 4, 2)]
        assert [a.shape for a in arrays] == shapes
        assert counters == {"domain_draws": 0, "domain_accepted": 0, "metric_retries": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 0, 2, 3)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 0)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 3, boost_cap=-1.0)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 3, rank_override=3)
