"""Seed-derived generators, geometry draws, and boosted timelike directions."""

import functools

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
from straindec.multilinear import CONTRACT_MAX_DEPTH, CONTRACT_MIN_ROWS
from straindec.sampling import (
    BOOST_CAP,
    MAX_DOMAIN_TRIES,
    batch_assemble_directions,
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


# Seeds and index ranges for the chunk seeding: the ends of the seed range, a
# seed with two entropy words, and the last indices with a one-word spawn key.
_SEEDING_SEEDS = [0, 1, 2**40 + 3, 2**64 - 1]
_SEEDING_RANGES = [(0, 1001), (2**32 - 2, 2**32)]


class TestChunkSeeding:
    """The chunk path's arithmetic copy of numpy's SeedSequence and PCG64 seeding.

    It copies numpy internals, so a numpy release that changes either fails here.
    """

    @pytest.mark.parametrize("seed", _SEEDING_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for start, stop in _SEEDING_RANGES:
            words = sampling._spawn_seed_words(seed, start, stop)
            want = np.array([
                np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
                for i in range(start, stop)
            ])
            assert words.dtype == np.uint64
            assert np.array_equal(words, want)

    @pytest.mark.parametrize("seed", _SEEDING_SEEDS)
    def test_generator_states_match_derive_rng(self, seed):
        for start, stop in _SEEDING_RANGES:
            rngs = sampling._chunk_generators(seed, start, stop)
            for index, rng in zip(range(start, stop), rngs, strict=True):
                assert rng.bit_generator.state == derive_rng(seed, index).bit_generator.state

    def test_two_word_spawn_keys_are_not_seeded(self):
        # A chunk reaching index 2**32 takes a fresh derive_rng generator per slot.
        rngs = list(sampling._chunk_generators(3, 2**32 - 1, 2**32 + 1))
        assert rngs[0] is not rngs[1]
        for index, rng in zip((2**32 - 1, 2**32), rngs, strict=True):
            assert rng.bit_generator.state == derive_rng(3, index).bit_generator.state

    def test_seed_bounds(self):
        for seed, start in ((-1, 0), (2**64, 0), (0, -1)):
            with pytest.raises(ValueError):
                next(sampling._chunk_generators(seed, start, start + 1))


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
        xs = batch_assemble_directions(basis[None], np.ones((1, 1)), np.zeros((1, 1, 2)))[0]
        want = np.array([[np.cosh(1.0), np.sinh(1.0), 0.0]])
        np.testing.assert_allclose(xs, want, atol=1e-12)


def _stacked_directions(frames, rapidity, normals):
    """The stacked formula of ``batch_assemble_directions``, the oracle for its rows.

    Lengths by ``np.linalg.norm``, the fallback by ``np.where`` and the
    spatial sum by ``np.einsum``, each over the whole (B, K, dim) stack.
    """
    batch, dim, _ = frames.shape
    if dim == 1:
        return np.broadcast_to(frames[:, None, :, 0], (batch, rapidity.shape[1], 1)).copy()
    lengths = np.linalg.norm(normals, axis=2, keepdims=True)
    fallback = np.zeros(dim - 1)
    fallback[0] = 1.0
    unit = np.where(lengths > 0.0, normals / np.where(lengths == 0.0, 1.0, lengths), fallback)
    return np.cosh(rapidity)[:, :, None] * frames[:, None, :, 0] + np.sinh(rapidity)[
        :, :, None
    ] * np.einsum("bkl,bdl->bdk", frames[:, :, 1:], unit)


def _two_lane_directions(frames, rapidity, normals):
    """The directions summed term by term in the row kernel's orders.

    Each length as u_0 u_0 + u_1 u_1 + ... in increasing component, and the
    spatial sum in two lanes, the even and the odd legs, each in increasing
    leg, then lane 0 + lane 1 + 0.0.  The oracle past CONTRACT_MAX_DEPTH
    spatial legs, where einsum and ``np.linalg.norm`` order their sums
    otherwise.
    """
    spatial = normals.shape[2]
    squares = normals * normals
    lengths = functools.reduce(np.add, [squares[..., l] for l in range(spatial)])
    lengths = np.sqrt(lengths)[..., None]
    fallback = np.zeros(spatial)
    fallback[0] = 1.0
    unit = np.where(lengths > 0.0, normals / np.where(lengths > 0.0, lengths, 1.0), fallback)
    terms = frames[:, None, :, 1:] * unit[:, :, None, :]
    lanes = [functools.reduce(np.add, [terms[..., l] for l in range(lane, spatial, 2)])
             for lane in range(min(spatial, 2))]
    leg = functools.reduce(np.add, lanes) + 0.0
    return (np.cosh(rapidity)[:, :, None] * frames[:, None, :, 0]
            + np.sinh(rapidity)[:, :, None] * leg)


class TestBatchAssembleDirections:
    """The row kernel gives the stacked formula's bits, zero and non-finite normals included."""

    @staticmethod
    def _inputs(dim, rows, batch, seed):
        """Random frames and normals, with rows of awkward normals and rapidities.

        Per sample: a zero normal, a -0.0 normal, a huge one whose square
        overflows, an inf, a NaN, a tiny one whose square underflows, and a
        normal along one axis with -0.0 elsewhere; rapidities 0 and BOOST_CAP,
        a frame with -0.0 entries and one with inf.
        """
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((batch, dim, dim))
        rapidity = BOOST_CAP * rng.random((batch, rows))
        normals = rng.standard_normal((batch, rows, dim - 1))
        rapidity[0] = 0.0
        rapidity[1] = BOOST_CAP
        frames[2, :, 1:] = -0.0
        frames[3, 0, 0] = np.inf
        if dim > 1:
            normals[:, 0] = 0.0
            normals[:, -1] = -0.0
            normals[4] = 0.0
            normals[5, :, 0] = 1e200
            normals[6, :, -1] = np.inf
            normals[7, :, 0] = np.nan
            normals[8] = 1e-170
            normals[9] = -0.0
            normals[9, :, 0] = -3.0
        return frames, rapidity, normals

    @staticmethod
    def _check(frames, rapidity, normals, reference=_stacked_directions):
        # The reference reads a C-ordered copy of the frames: the directions do
        # not depend on the frames' memory layout.
        with np.errstate(all="ignore"):
            want = reference(np.ascontiguousarray(frames), rapidity, normals)
            got = batch_assemble_directions(frames, rapidity, normals)
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 8, 256])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_rows_equal_the_stacked_formula(self, dim, rows):
        batch = max(2 * CONTRACT_MIN_ROWS // rows, 12) + 3
        self._check(*self._inputs(dim, rows, batch, 10 * dim + rows))

    @pytest.mark.parametrize(
        "batch, rows", [(1, 1), (1, 8), (12, 8), (127, 8), (128, 8), (3, 341), (4, 256)]
    )
    def test_either_side_of_the_size_rule(self, batch, rows):
        frames, rapidity, normals = self._inputs(4, rows, max(batch, 12), batch)
        self._check(frames[:batch], rapidity[:batch], normals[:batch])

    @pytest.mark.parametrize("spatial", [CONTRACT_MAX_DEPTH, CONTRACT_MAX_DEPTH + 1])
    def test_either_side_of_the_depth_rule(self, spatial):
        # Up to CONTRACT_MAX_DEPTH spatial legs the rows keep the stacked
        # formula's bits; past it, the two lanes of the rows.
        reference = (_stacked_directions if spatial <= CONTRACT_MAX_DEPTH
                     else _two_lane_directions)
        self._check(*self._inputs(spatial + 1, 256, 16, spatial), reference)

    def test_stack_past_one_engine_block(self):
        # 130 samples of 256 rows: more than engine.CONTRACT_BLOCK_ROWS rows,
        # assembled in one call.
        self._check(*self._inputs(4, 256, 130, 1))

    def test_strided_inputs(self):
        frames, rapidity, normals = self._inputs(4, 512, 12, 2)
        self._check(frames, rapidity[:, ::2], normals[:, ::2].copy()[:, :, ::-1])
        # A Fortran-ordered frame gives the bits of its C-ordered copy.
        self._check(np.asfortranarray(frames), rapidity, normals)
        # So does a transposed basis as a batch of one.
        basis = np.ascontiguousarray(frames[5].T)
        with np.errstate(all="ignore"):
            got, want = (
                batch_assemble_directions(b[None], rapidity[5][None], normals[5][None])[0]
                for b in (basis.T, basis.T.copy())
            )
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("batch, rows", [(3, 0), (0, 8), (0, 0)])
    def test_empty_stacks(self, dim, batch, rows):
        frames = np.broadcast_to(np.eye(dim), (batch, dim, dim))
        self._check(frames, np.zeros((batch, rows)), np.zeros((batch, rows, dim - 1)))
        one = batch_assemble_directions(np.eye(dim)[None], np.zeros((1, 0)),
                                        np.zeros((1, 0, dim - 1)))[0]
        assert one.shape == (0, dim)

    def test_scalar_api_equals_the_stacked_formula(self):
        frames, rapidity, normals = self._inputs(3, 8, 12, 3)
        for k in range(12):
            with np.errstate(all="ignore"):
                got = batch_assemble_directions(frames[k][None], rapidity[k][None],
                                                normals[k][None])[0]
                want = _stacked_directions(frames[k : k + 1], rapidity[k : k + 1],
                                           normals[k : k + 1])[0]
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _reference_geometry(rng, m_plus_1, n, entry_range, rank_override):
    """The scalar draw as first written with ``Generator.uniform``; an
    independent reference for the kernels behind ``draw_geometry_arrays``."""
    eta = np.eye(m_plus_1)
    eta[0, 0] = -1.0
    retries = 0
    g = None
    for _ in range(sampling.MAX_METRIC_TRIES):
        r = rng.uniform(-1.0, 1.0, size=(m_plus_1, m_plus_1))
        ell = np.eye(m_plus_1) + sampling.PERTURBATION * r
        cand = ell.T @ eta @ ell
        cand = 0.5 * (cand + cand.T)
        w = np.linalg.eigvalsh(cand)
        ok_sig = w[0] < 0.0 and (m_plus_1 == 1 or w[1] > 0.0)
        bound = sampling.DEFAULT_CONDITION_BOUND
        if ok_sig and np.max(np.abs(w)) <= bound * np.min(np.abs(w)):
            g = cand
            break
        retries += 1
    if g is None:
        raise ConditioningError("no metric satisfying the condition bound")
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    h = a.T @ a + sampling.RIDGE * np.eye(n)
    h = 0.5 * (h + h.T)
    dphi = rng.uniform(-entry_range, entry_range, size=(n, m_plus_1))
    if rank_override is not None:
        u, sv, vt = np.linalg.svd(dphi, full_matrices=False)
        sv[rank_override:] = 0.0
        dphi = (u * sv) @ vt if rank_override else np.zeros(dphi.shape)
    return g, h, dphi, retries


def _reference_directions(rng, count, spatial_dim, boost_cap):
    return rng.uniform(0.0, boost_cap, size=count), rng.normal(size=(count, spatial_dim))


def _assert_draws_match_reference(seed, m1, n, entry_range, rank_override, boost_cap):
    retries = 0
    for index in range(12):
        got_rng, ref_rng = derive_rng(seed, index), derive_rng(seed, index)
        got = draw_geometry_arrays(got_rng, m1, n, entry_range, rank_override)
        got += draw_direction_params(got_rng, 5, m1 - 1, boost_cap)
        ref = _reference_geometry(ref_rng, m1, n, entry_range, rank_override)
        ref += _reference_directions(ref_rng, 5, m1 - 1, boost_cap)
        for x, y in zip(got, ref, strict=True):
            assert np.shape(x) == np.shape(y)
            assert np.array_equal(x, y)
        # Both consumed the same number of draws.
        assert got_rng.random() == ref_rng.random()
        retries += got[3]
    return retries


class TestScalarDrawReference:
    @pytest.mark.parametrize("m1", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("rank", ["none", "zero", "full"])
    def test_matches_uniform_reference(self, m1, n, rank):
        rank_override = {"none": None, "zero": 0, "full": min(m1, n)}[rank]
        for entry_range in (0.0, 1.5):
            for boost_cap in (0.0, 5.0):
                _assert_draws_match_reference(
                    71, m1, n, entry_range, rank_override, boost_cap
                )

    def test_metric_retries_match_reference(self, monkeypatch):
        # A bound this tight rejects many first metric candidates.
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 2.0)
        assert _assert_draws_match_reference(72, 3, 2, 1.0, None, 5.0) > 0

    def test_conditioning_error_matches_reference(self, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 1.0)
        with pytest.raises(ConditioningError):
            draw_geometry_arrays(derive_rng(73, 0), 3, 2)
        with pytest.raises(ConditioningError):
            _reference_geometry(derive_rng(73, 0), 3, 2, 1.0, None)


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


def _drawn_chunk(seed, start, stop, m1, n, ndir, block, *args):
    """draw_chunk_arrays' (g, h, dphi, rapidity, normals) and counters, the
    direction blocks joined; also the row count of each block."""
    g, h, dphi, blocks, counters = draw_chunk_arrays(
        seed, start, stop, m1, n, ndir, block, *args
    )
    blocks = list(blocks)
    sizes = [len(rap) for rap, _ in blocks]
    rapidity = np.concatenate([rap for rap, _ in blocks] or [np.empty((0, ndir))])
    normals = np.concatenate([nor for _, nor in blocks] or [np.empty((0, ndir, m1 - 1))])
    return [g, h, dphi, rapidity, normals], counters, sizes


def _assert_chunk_matches(seed, start, stop, m1, n, ndir=3, entry_range=1.0,
                          boost_cap=5.0, rank_override=None, lagr=None, blocks=(1, 7)):
    """The chunk draw, in blocks of each size in ``blocks`` and in one block,
    equals the scalar loop bit for bit."""
    want, want_counters = _scalar_chunk(
        seed, start, stop, m1, n, ndir, entry_range, boost_cap, rank_override, lagr
    )
    for block in (*blocks, stop - start):
        arrays, counters, sizes = _drawn_chunk(
            seed, start, stop, m1, n, ndir, block, entry_range, boost_cap,
            rank_override, lagr,
        )
        assert sizes == [len(range(lo, min(lo + block, stop - start)))
                         for lo in range(0, stop - start, block)]
        for got, ref in zip(arrays, want, strict=True):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
        assert counters == want_counters
    return counters


@pytest.fixture
def redrawn(monkeypatch):
    """The sample indices the chunk draw hands to the scalar path."""
    seen = set()
    real = sampling.derive_rng

    def derive(seed, index):
        seen.add(index)
        return real(seed, index)

    monkeypatch.setattr(sampling, "derive_rng", derive)
    return seen


@pytest.fixture
def state_sets(monkeypatch):
    """The (state, inc) pairs the chunk draw sets on a generator, in order."""
    calls = []
    real = sampling._set_state

    def set_state(rng, state, inc):
        calls.append((state, inc))
        real(rng, state, inc)

    monkeypatch.setattr(sampling, "_set_state", set_state)
    return calls


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

    def test_born_infeld_with_many_rejections(self, redrawn):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        counters = _assert_chunk_matches(63, 0, 120, 3, 3, entry_range=1.5, lagr=lagr)
        assert counters["domain_accepted"] < 0.8 * counters["domain_draws"]
        # Redrawn slots in the first block of 7 and in later ones.
        assert min(redrawn) < 7 <= max(redrawn)

    def test_minimal_surface(self, redrawn):
        lagr = resolve_lagrangian("minimal_surface", {}, 3)
        counters = _assert_chunk_matches(64, 0, 80, 3, 2, lagr=lagr)
        assert counters["domain_accepted"] < counters["domain_draws"]
        assert min(redrawn) < 7 <= max(redrawn)

    def test_chunk_not_starting_at_zero(self):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        _assert_chunk_matches(65, 1000, 1064, 3, 2, entry_range=1.5, lagr=lagr)

    @pytest.mark.parametrize("start, stop", [(2**32 - 5, 2**32), (2**32 - 3, 2**32 + 2)])
    def test_chunk_at_the_last_one_word_spawn_keys(self, start, stop):
        # Indices from 2**32 on have a two-word spawn key and take derive_rng.
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        _assert_chunk_matches(67, start, stop, 3, 2, entry_range=1.5, lagr=lagr,
                              blocks=(1, 2))

    def test_metric_retries_replay_the_scalar_loop(self, monkeypatch, redrawn):
        # A bound this tight rejects many first metric candidates.
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 2.0)
        counters = _assert_chunk_matches(66, 0, 60, 3, 2)
        assert counters["metric_retries"] > 0
        assert min(redrawn) < 7 <= max(redrawn)

    @pytest.mark.parametrize("block, later", [(2048, 0), (512, 0), (16, 496), (1, 511)])
    def test_later_slots_set_their_state_once_more(self, block, later, state_sets):
        # Seeding sets each slot's state once; a chunk of one block (K = 8
        # directions in engine.run_chunk) sets none again.
        *_, blocks, _ = draw_chunk_arrays(5, 0, 512, 4, 3, 8, block)
        assert len(state_sets) == 512
        list(blocks)
        assert len(state_sets) == 512 + later
        # A later slot's block starts where its geometry's 16 + 21 doubles end.
        want = []
        for index in range(min(block, 512), 512):
            rng = derive_rng(5, index)
            rng.random(37)
            pcg = rng.bit_generator.state["state"]
            want.append((pcg["state"], pcg["inc"]))
        assert state_sets[512:] == want

    def test_conditioning_error_matches_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(sampling, "DEFAULT_CONDITION_BOUND", 1.0)
        with pytest.raises(ConditioningError):
            draw_chunk_arrays(66, 0, 4, 3, 2, 3, 2)
        with pytest.raises(ConditioningError):
            _scalar_chunk(66, 0, 4, 3, 2, 3, 1.0, 5.0, None, None)

    def test_starvation_rate_matches_scalar_loop(self):
        # Sample 30 starves; accepted slots both before and after it take the
        # fast path, and only those before it may count toward the rate.
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 1)
        with pytest.raises(SamplerStarvationError) as info:
            draw_chunk_arrays(14, 0, 64, 1, 3, 3, 8, 2.5, 5.0, None, lagr)
        with pytest.raises(_Starved) as want:
            _scalar_chunk(14, 0, 64, 1, 3, 3, 2.5, 5.0, None, lagr)
        assert "sample 30:" in str(info.value)
        assert 0.0 < info.value.acceptance_rate == want.value.rate

    def test_empty_chunk(self):
        lagr = resolve_lagrangian("born_infeld", {"b": 0.5}, 3)
        g, h, dphi, blocks, counters = draw_chunk_arrays(1, 5, 5, 3, 2, 4, 3, lagrangian=lagr)
        assert [a.shape for a in (g, h, dphi)] == [(0, 3, 3), (0, 2, 2), (0, 2, 3)]
        assert list(blocks) == []
        assert counters == {"domain_draws": 0, "domain_accepted": 0, "metric_retries": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 0, 2, 3, 2)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 0, 2)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 3, 2, boost_cap=-1.0)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 3, 2, rank_override=3)
        with pytest.raises(ValueError):
            draw_chunk_arrays(1, 0, 4, 2, 2, 3, 0)
