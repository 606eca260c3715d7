"""Parity between the batched campaign engine and the scalar check API.

The scalar path below re-derives every chunk aggregate one sample at a time:
the public single-point functions, the batch-of-one ``CheckStack.at`` for the
rank, combination-lemma, hyperplane and corollary masks, and
``batch_wedge_split`` on one frame for the wedge identity.  The engine must
reproduce the same counters exactly and the same extremal margins up to
roundoff reordering.
"""

import json
import tracemalloc

import numpy as np
import pytest

from straindec import (
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    SamplerStarvationError,
    canonical_frame,
    charpoly_coefficients,
    dec_witness,
    invariants_charpoly,
    invariants_newton,
    invariants_wedge,
    replay_fixture,
    resolve_lagrangian,
    strain,
    stress_elementary,
    stress_general,
    stress_scale_general,
)
from straindec import CampaignConfig, dec, engine, run_campaign, sampling
from straindec.campaign import dump_json, report_bytes
from straindec.engine import (
    CHECK_NAMES,
    MAX_DOMAIN_TRIES,
    empty_chunk_result,
    fold_chunk_results,
    run_chunk,
)
from straindec.dec import (
    VACUOUS_RTOL,
    CheckStack,
    batch_dec_witness,
    batch_flux,
    corollary_applies,
)
from straindec.lagrangians import _always_inside, canonical_parameters
from straindec.multilinear import (
    CONTRACT_MIN_ROWS,
    batch_contract,
    canonical_frames,
    congruence,
    frobenius,
    metric_pairing,
    principal_minor_sums,
)
from straindec.sampling import (
    batch_assemble_directions,
    derive_rng,
    draw_chunk_arrays,
    draw_direction_params,
    draw_geometry_arrays,
)
from straindec.strain import (
    batch_charpoly_coefficients,
    batch_invariants_newton,
    batch_invariants_wedge,
    batch_power_sums,
    batch_pullback,
    batch_rank,
    batch_route_residual,
    batch_strain,
)
from straindec.stress import (
    batch_combination,
    batch_combination_scale,
    batch_elementary_scales,
    batch_elementary_tensors,
    batch_invariant_gradients,
    batch_wedge_checks,
    batch_wedge_split,
    lagrangian_terms,
)


def _config(**overrides):
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


def _route_residual_scalar(a, b):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def _scalar_reference(config, start, stop):
    """Slow per-sample recomputation of run_chunk's counters and margins."""
    m1 = config["m_plus_1"]
    n = config["n"]
    ndir = config["num_directions_per_sample"]
    seed = config["seed"]
    entry_range = config["entry_range"]
    boost_cap = config["boost_cap"]
    rank_override = config["rank_override"]
    tol_alg = config["tolerances"]["algebraic"]
    tol_dec = config["tolerances"]["dec"]
    lagr = resolve_lagrangian(
        config["lagrangian"]["name"], config["lagrangian"]["parameters"], m1
    )
    restricted = lagr.domain_predicate is not _always_inside
    qualifies = (
        lagr.flags.defocusing and lagr.flags.zeroed and lagr.flags.nondegenerate
    )

    out = empty_chunk_result()
    counts, samp = out["counts"], out["sampling"]
    e_margins, q_margins, h_margins = [], [], []
    route_resids, wedge_resids, cs_excesses = [], [], []

    for index in range(start, stop):
        rng = derive_rng(seed, index)
        tries = 0
        while True:
            g, h, dphi, retries = draw_geometry_arrays(
                rng, m1, n, entry_range, rank_override
            )
            samp["metric_retries"] += retries
            samp["domain_draws"] += 1
            if not restricted:
                samp["domain_accepted"] += 1
                break
            pull = dphi.T @ h @ dphi
            pull = 0.5 * (pull + pull.T)
            s_try = charpoly_coefficients(np.linalg.inv(g) @ pull)
            if bool(np.all(lagr.domain_predicate(s_try))):
                samp["domain_accepted"] += 1
                break
            tries += 1
            assert tries < MAX_DOMAIN_TRIES, "scalar reference starved"
        rap, normals = draw_direction_params(rng, ndir, m1 - 1, boost_cap)

        geom = PointGeometry(
            metric=LorentzianMetric(g), target_metric=RiemannianMetric(h), dphi=dphi
        )
        frame = canonical_frame(geom.metric)
        xs = batch_assemble_directions(frame.basis[None], rap[None], normals[None])[0]

        tensor = stress_general(geom, lagr).tensor
        scale = stress_scale_general(geom, lagr)
        tnorm = float(np.linalg.norm(tensor))
        vacuous = tnorm <= VACUOUS_RTOL * scale

        counts["dec_energy"]["total"] += ndir
        counts["dec_flux"]["total"] += ndir
        witnesses = [dec_witness(geom.metric, tensor, x, tol_dec) for x in xs]
        if vacuous:
            counts["dec_energy"]["vacuous"] += ndir
            counts["dec_flux"]["vacuous"] += ndir
        else:
            for w in witnesses:
                counts["dec_energy"]["pass" if w.energy_ok else "fail"] += 1
                counts["dec_flux"]["pass" if w.flux_ok else "fail"] += 1
                e_margins.append(w.energy_margin)
                q_margins.append(w.flux_margin)

        x0 = xs[0] / np.sqrt(-float(xs[0] @ g @ xs[0]))
        view = CheckStack.at(geom, lagr, tol_dec).along(x0[None, None])
        for degree in range(1, m1 + 1):
            counts["rank_condition"]["total"] += 1
            if view.rank_condition[0, degree - 1]:
                counts["rank_condition"]["pass"] += 1
            elif view.vanished[0, degree - 1]:
                counts["rank_condition"]["warning"] += 1
            else:
                counts["rank_condition"]["fail"] += 1

        counts["convexity_lemma"]["total"] += 1
        counts["convexity_lemma"]["pass" if view.convexity_lemma[0] else "fail"] += 1
        counts["supporting_hyperplane"]["total"] += 1
        counts["supporting_hyperplane"][
            "pass" if view.supporting_hyperplane[0] else "fail"
        ] += 1
        h_margins.append(float(view.hyperplane_margin[0]))

        if qualifies:
            counts["pointwise_corollary"]["total"] += 1
            counts["pointwise_corollary"][
                "pass" if view.pointwise_corollary[0] else "fail"
            ] += 1

        d_mat = strain(geom).matrix
        s_a = invariants_charpoly(d_mat).s
        resid = max(
            _route_residual_scalar(s_a, invariants_newton(d_mat).s),
            _route_residual_scalar(s_a, invariants_wedge(d_mat).s),
        )
        counts["invariant_routes"]["total"] += 1
        counts["invariant_routes"]["pass" if resid <= tol_alg else "fail"] += 1
        route_resids.append(resid)

        e0 = frame.vector(0)
        pf = congruence(frame.basis[None], geom.pullback()[None])
        for degree in range(1, m1 + 1):
            perp, par = (float(v[0]) for v in batch_wedge_split(pf, degree))
            tj = stress_elementary(geom, degree).tensor
            t00 = float(e0 @ tj @ e0)
            denom = max(1.0, abs(t00), 0.5 * (abs(perp) + abs(par)))
            w_resid = abs(t00 - 0.5 * (perp + par)) / denom
            counts["wedge_identity"]["total"] += 1
            counts["wedge_identity"]["pass" if w_resid <= tol_alg else "fail"] += 1
            wedge_resids.append(w_resid)
            momentum = np.array(
                [float(e0 @ tj @ frame.vector(i)) for i in range(1, m1)]
            )
            excess = (float(np.sum(momentum**2)) - t00**2) / max(1.0, t00**2)
            counts["cauchy_schwarz"]["total"] += 1
            counts["cauchy_schwarz"]["pass" if excess <= tol_alg else "fail"] += 1
            cs_excesses.append(excess)

    margins = out["margins"]
    if e_margins:
        margins["min_energy_margin"] = min(e_margins)
        margins["max_flux_quadratic_margin"] = max(q_margins)
    margins["min_hyperplane_margin"] = min(h_margins) if h_margins else None
    margins["max_invariant_route_residual"] = max(route_resids)
    margins["max_wedge_identity_residual"] = max(wedge_resids)
    margins["max_cauchy_schwarz_excess"] = max(cs_excesses)
    return out


def _assert_parity(config, start, stop):
    got = run_chunk(config, start, stop)
    want = _scalar_reference(config, start, stop)
    assert got["counts"] == want["counts"]
    for key in ("domain_draws", "domain_accepted", "metric_retries"):
        assert got["sampling"][key] == want["sampling"][key]
    # O(1) margins agree to rounding; pure-roundoff residual margins just have
    # to be tiny on both sides (their exact value is reduction-order noise).
    for name in ("min_energy_margin", "max_flux_quadratic_margin",
                 "min_hyperplane_margin"):
        if want["margins"][name] is None:
            assert got["margins"][name] is None
        else:
            assert got["margins"][name] == pytest.approx(
                want["margins"][name], rel=1e-9, abs=1e-12
            )
    for name in ("max_invariant_route_residual", "max_wedge_identity_residual",
                 "max_cauchy_schwarz_excess"):
        assert got["margins"][name] <= 1e-11
        assert want["margins"][name] <= 1e-11
    return got


class TestChunkParity:
    def test_skyrme_unrestricted(self):
        got = _assert_parity(_config(), 0, 48)
        assert got["counts"]["dec_energy"]["fail"] == 0
        assert got["counts"]["dec_energy"]["total"] == 48 * 4

    def test_born_infeld_rejection_path(self):
        config = _config(
            m_plus_1=2,
            n=2,
            entry_range=2.0,
            seed=31,
            lagrangian={"name": "born_infeld", "parameters": {"b": 1.0}},
        )
        got = _assert_parity(config, 0, 40)
        # The restricted domain must actually have rejected something.
        assert got["sampling"]["domain_draws"] > 40
        assert got["sampling"]["domain_accepted"] == 40

    def test_rank_override_path(self):
        config = _config(
            n=2,
            rank_override=1,
            seed=12,
            lagrangian={"name": "wave_map", "parameters": {}},
        )
        got = _assert_parity(config, 0, 30)
        # Degrees 2 and 3 exceed the forced rank, so two thirds vanish.
        assert got["counts"]["rank_condition"]["pass"] == 30 * 3
        assert got["counts"]["pointwise_corollary"]["total"] == 30

    def test_violation_mode_lagrangian_counts_failures(self):
        config = _config(
            lagrangian={
                "name": "linear_combination",
                "parameters": {"coefficients": [1.0, -5.0, 0.0]},
            },
            seed=3,
        )
        got = run_chunk(config, 0, 32)
        want = _scalar_reference(config, 0, 32)
        assert got["counts"] == want["counts"]
        assert got["counts"]["dec_energy"]["fail"] > 0
        assert len(got["fixtures"]) > 0

    def test_nonzero_start_offset(self):
        _assert_parity(_config(seed=55), 100, 130)


class TestChunking:
    def test_empty_chunk(self):
        assert run_chunk(_config(), 5, 5) == empty_chunk_result()

    def test_split_invariance_of_counts(self):
        config = _config(seed=8)
        whole = run_chunk(config, 0, 45)
        parts = fold_chunk_results(
            [run_chunk(config, 0, 15), run_chunk(config, 15, 30),
             run_chunk(config, 30, 45)],
            max_fixtures=100,
        )
        assert whole["counts"] == parts["counts"]
        assert whole["sampling"] == parts["sampling"]
        for name, value in whole["margins"].items():
            if value is None:
                assert parts["margins"][name] is None
            else:
                assert parts["margins"][name] == pytest.approx(
                    value, rel=1e-9, abs=1e-11
                )

    def test_starvation_raises(self):
        # det(strain) <= 0 always (odd metric signature, PSD pullback), so a
        # root argument dominated by the top invariant can never be sampled.
        config = _config(
            m_plus_1=4,
            n=4,
            entry_range=5.0,
            lagrangian={"name": "born_infeld", "parameters": {"b": 0.01}},
        )
        with pytest.raises(SamplerStarvationError) as info:
            run_chunk(config, 0, 4)
        assert 0.0 <= info.value.acceptance_rate < 0.05


class TestFixtureScan:
    """Fixtures come from exactly the failed checks, in sample and check order."""

    CONFIGS = [
        # Negative tolerances fail the DEC, rank, hyperplane, route, wedge and
        # Cauchy-Schwarz checks; a huge DEC tolerance fails the corollary.
        _config(
            lagrangian={
                "name": "linear_combination",
                "parameters": {"coefficients": [1.0, -5.0, 0.0]},
            },
            rank_override=1,
            tolerances={"algebraic": -1.0, "dec": -1.0, "oracle": 1e-6},
        ),
        _config(tolerances={"algebraic": 1e-9, "dec": 1e300, "oracle": 1e-6}),
        _config(
            m_plus_1=2,
            n=2,
            tolerances={"algebraic": 0.0, "dec": 1e-9, "oracle": 1e-6},
        ),
        _config(
            lagrangian={
                "name": "linear_combination",
                "parameters": {"coefficients": [1.0, -5.0, 0.0]},
            },
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_one_fixture_per_failure(self, config):
        config = dict(config, max_fixtures=10**6)
        got = run_chunk(config, 0, 60)
        for name in CHECK_NAMES:
            kinds = [fx for fx in got["fixtures"] if fx["kind"] == name]
            assert len(kinds) == got["counts"][name]["fail"]
        order = [fx["sample_index"] for fx in got["fixtures"]]
        assert order == sorted(order)

    def test_all_failing_kinds_covered(self):
        kinds = set()
        for config in self.CONFIGS:
            kinds |= {fx["kind"] for fx in run_chunk(config, 0, 60)["fixtures"]}
        assert kinds == set(CHECK_NAMES) - {"convexity_lemma"}

    @pytest.mark.parametrize("config", CONFIGS)
    def test_every_fixture_replays(self, config):
        fixtures = run_chunk(dict(config, max_fixtures=10**6), 0, 60)["fixtures"]
        assert fixtures
        for fx in fixtures:
            result = replay_fixture(fx)
            assert result.matches, (fx["kind"], result.recorded, result.recomputed)

    @pytest.mark.parametrize(
        "kind",
        ["supporting_hyperplane", "invariant_routes", "wedge_identity", "cauchy_schwarz"],
    )
    def test_loosened_tolerance_flags_a_changed_verdict(self, kind):
        # These records carry no status; replay compares the recomputed verdict
        # with the failure that made the engine record them.
        fixtures = run_chunk(self.CONFIGS[0], 0, 60)["fixtures"]
        fx = next(fx for fx in fixtures if fx["kind"] == kind)
        assert replay_fixture(fx).matches
        fx = dict(fx, tolerances={"algebraic": 1e300, "dec": 1e300, "oracle": 1e-6})
        result = replay_fixture(fx)
        assert result.recomputed["holds"] is True
        assert result.matches is False

    @pytest.mark.parametrize("config", [CONFIGS[0], CONFIGS[3]])
    def test_dec_twins_share_direction_and_recorded(self, config):
        fixtures = run_chunk(dict(config, max_fixtures=10**6), 0, 60)["fixtures"]
        dec = [fx for fx in fixtures if fx["kind"] in ("dec_energy", "dec_flux")]
        twins = _dec_twins(fixtures)
        assert twins and len(twins) < len(dec)
        for energy, flux in twins:
            assert energy["direction"] is flux["direction"]
            assert energy["recorded"] is flux["recorded"]
        # Fixtures of different directions share no record.
        directions = {(fx["sample_index"], tuple(fx["direction"])) for fx in dec}
        assert len({id(fx["recorded"]) for fx in dec}) == len(directions)
        assert len({id(fx["direction"]) for fx in dec}) == len(directions)

    @pytest.mark.parametrize("config", [CONFIGS[0], CONFIGS[3]])
    def test_record_dec_runs_once_per_direction(self, config, monkeypatch):
        calls = []

        def counted(st, k, i):
            calls.append((k, i))
            return engine._record_dec(st, k, i)

        groups = ((("dec_energy", counted), ("dec_flux", counted)),)
        monkeypatch.setattr(engine, "FIXTURE_GROUPS", groups + engine.FIXTURE_GROUPS[1:])
        fixtures = run_chunk(dict(config, max_fixtures=10**6), 0, 60)["fixtures"]
        dec = [fx for fx in fixtures if fx["kind"] in ("dec_energy", "dec_flux")]
        assert len(calls) == len(set(calls)) == len(dec) - len(_dec_twins(fixtures))

    def test_fixtures_hold_canonical_parameters(self):
        # A hand-built chunk config may give numbers as ints or numpy floats;
        # the fixtures hold the floats a CampaignConfig would store.
        config = _config(lagrangian={
            "name": "linear_combination",
            "parameters": {"coefficients": [np.float64(1.0), -5, 0]},
        })
        fixtures = run_chunk(config, 0, 20)["fixtures"]
        assert fixtures
        params = fixtures[0]["lagrangian"]["parameters"]
        assert params == {"coefficients": [1.0, -5.0, 0.0]}
        assert all(type(c) is float for c in params["coefficients"])
        assert dump_json(fixtures) == json.dumps(fixtures, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("cap", [0, 1, 7, 50])
    def test_cap_truncates_the_same_sequence(self, cap):
        config = self.CONFIGS[0]
        full = run_chunk(dict(config, max_fixtures=10**6), 0, 30)["fixtures"]
        capped = run_chunk(dict(config, max_fixtures=cap), 0, 30)["fixtures"]
        assert capped == full[:cap]


def _dec_twins(fixtures):
    """(dec_energy, dec_flux) pairs of one sample and direction, adjacent as recorded."""
    return [
        (a, b) for a, b in zip(fixtures, fixtures[1:])
        if (a["kind"], b["kind"]) == ("dec_energy", "dec_flux")
        and a["sample_index"] == b["sample_index"] and a["direction"] == b["direction"]
    ]


class TestFold:
    def _chunk(self, fail=0, min_e=None, fixtures=()):
        out = empty_chunk_result()
        out["counts"]["dec_energy"]["fail"] = fail
        out["margins"]["min_energy_margin"] = min_e
        out["fixtures"] = list(fixtures)
        return out

    def test_counts_add_and_margins_fold_by_sense(self):
        folded = fold_chunk_results(
            [self._chunk(fail=2, min_e=0.5), self._chunk(fail=3, min_e=-0.25)],
            max_fixtures=10,
        )
        assert folded["counts"]["dec_energy"]["fail"] == 5
        assert folded["margins"]["min_energy_margin"] == -0.25

    def test_none_margins_are_skipped(self):
        folded = fold_chunk_results(
            [self._chunk(min_e=None), self._chunk(min_e=0.125)], max_fixtures=10
        )
        assert folded["margins"]["min_energy_margin"] == 0.125

    def test_fixture_cap_preserves_order(self):
        folded = fold_chunk_results(
            [self._chunk(fixtures=["a", "b"]), self._chunk(fixtures=["c", "d"])],
            max_fixtures=3,
        )
        assert folded["fixtures"] == ["a", "b", "c"]

    def test_all_check_names_present(self):
        out = empty_chunk_result()
        assert set(out["counts"]) == set(CHECK_NAMES)


class TestKernelBatchInvariance:
    """Row k of a batched kernel equals the kernel on that row alone, bit for bit.

    A batch of 512 samples with 4 directions is 2,048 rows, so its
    contractions run batch_contract's lane kernel while a row alone runs
    np.einsum (``CONTRACT_MIN_ROWS``); a batch of 64 stays below that rule.
    """

    @staticmethod
    def _stack(m1, batch):
        name, params = ("skyrme", {"c1": 1.0, "c2": 1.0}) if m1 > 1 else ("wave_map", {})
        lagr = resolve_lagrangian(name, params, m1)
        g, h, dphi, blocks, _ = draw_chunk_arrays(
            41, 0, batch, m1, 3, 4, batch, 1.0, 5.0, None, lagr
        )
        (rapidity, normals), = blocks
        return lagr, (g, h, dphi, rapidity, normals)

    @staticmethod
    def _kernels(lagr, g, h, dphi, rap, normals):
        """Every batched kernel on one stack, keyed by name, batch axis first."""
        g_inv = np.linalg.inv(g)
        pull, d = batch_strain(g_inv, h, dphi)
        s = batch_charpoly_coefficients(d)
        s_full = np.concatenate([np.ones((len(s), 1)), s], axis=1)
        terms = lagrangian_terms(lagr, s)
        tensors = batch_elementary_tensors(g, pull, d, s)
        scales = batch_elementary_scales(g, pull, d, s)
        tensor = batch_combination(g, tensors, terms)
        frames, _ = canonical_frames(g)
        xs = batch_assemble_directions(frames, rap, normals)
        witness = batch_dec_witness(g, g_inv, tensor, xs, 1e-9)
        x0 = witness.directions[:, 0]
        flux = batch_flux(g, g_inv, x0, np.einsum("bjkl,bl->bjk", tensors, x0), 1e-9)
        newton, wedge = batch_invariants_newton(d), batch_invariants_wedge(d)
        return {
            "congruence": congruence(dphi, h),
            "frobenius": frobenius(pull),
            "metric_pairing": metric_pairing(xs, g, xs),
            "metric_pairing_shared_x": metric_pairing(x0, g, xs),
            "principal_minor_sums": principal_minor_sums(d, [(0,), (0, g.shape[1] - 1)]),
            "batch_pullback": batch_pullback(h, dphi),
            "batch_strain": d,
            "batch_charpoly_coefficients": s,
            "batch_rank": batch_rank(dphi),
            "batch_power_sums": batch_power_sums(d),
            "batch_invariants_newton": newton,
            "batch_invariants_wedge": wedge,
            "batch_route_residual": batch_route_residual(s, newton, wedge),
            "batch_invariant_gradients": batch_invariant_gradients(d, s_full),
            "batch_elementary_tensors": tensors,
            "batch_elementary_scales": scales,
            "lagrangian_terms": np.column_stack(terms),
            "batch_combination": tensor,
            "batch_combination_scale": batch_combination_scale(g, scales, s, terms),
            "canonical_frames": frames,
            "batch_wedge_checks": np.stack(
                batch_wedge_checks(pull, frames, tensors), axis=1
            ),
            "batch_assemble_directions": xs,
            "batch_contract": batch_contract(tensor, xs),
            "batch_dec_witness": np.stack(
                [witness.directions[..., 0], witness.energy, witness.energy_scale], axis=1
            ),
            "batch_flux": np.stack(
                [flux.quadratic, flux.scale, flux.orientation, flux.y[..., 0]], axis=1
            ),
        }

    @pytest.mark.parametrize("batch", [64, 512])
    @pytest.mark.parametrize("m1", [1, 2, 3, 4, 5])
    def test_row_equals_batch_of_one(self, m1, batch):
        # 64 samples of 4 directions stay below batch_contract's size rule.
        assert (batch * 4 >= CONTRACT_MIN_ROWS) == (batch == 512)
        lagr, arrays = self._stack(m1, batch)
        full = self._kernels(lagr, *arrays)
        for k in (0, 1, 17, batch - 1):
            row = self._kernels(lagr, *(a[k : k + 1] for a in arrays))
            for name, value in full.items():
                assert np.array_equal(value[k : k + 1], row[name]), (name, k)


def _whole_chunk(config, start, stop):
    """run_chunk's result from one view along every direction of the chunk at once.

    The reference for the row blocks: ``CheckStack(...).along(directions)`` on
    the whole chunk, tallied, folded and scanned for fixtures in one pass, each
    record function reading that one view.
    """
    m1, n, seed = config["m_plus_1"], config["n"], config["seed"]
    tol_alg, tol_dec = config["tolerances"]["algebraic"], config["tolerances"]["dec"]
    name, params = config["lagrangian"]["name"], config["lagrangian"]["parameters"]
    params = canonical_parameters(name, params)
    lagr = resolve_lagrangian(name, params, m1)
    out, batch = empty_chunk_result(), stop - start
    gs, hs, dps, blocks, drawn = draw_chunk_arrays(
        seed, start, stop, m1, n, config["num_directions_per_sample"], batch,
        config["entry_range"], config["boost_cap"], config["rank_override"], lagr,
    )
    (raps, normals), = blocks
    out["sampling"].update(drawn)
    st = CheckStack(gs, hs, dps, lagr, tol_dec, tol_alg)
    frames, out["sampling"]["frame_fallbacks"] = st.frames
    st = st.along(batch_assemble_directions(frames, raps, normals))
    counted = ~st.vacuous[:, None]
    failed = {}
    for check in CHECK_NAMES:
        if check == "pointwise_corollary" and not corollary_applies(lagr):
            continue
        ok = getattr(st, check).reshape(batch, -1)
        passed, failed[check] = (
            (ok & counted, ~ok & counted) if check.startswith("dec_") else (ok, ~ok)
        )
        if check == "rank_condition":
            failed[check] &= ~st.vanished
        count = out["counts"][check]
        count["total"] += passed.size
        count["pass"] += int(passed.sum())
        count["fail"] += int(failed[check].sum())
        if check.startswith("dec_"):
            count["vacuous"] += int(st.vacuous.sum()) * passed.shape[1]
    out["counts"]["rank_condition"]["warning"] += int((~st.rank_condition & st.vanished).sum())
    margins, w, rows = out["margins"], st.witness, counted[:, 0]
    if rows.any():
        margins["min_energy_margin"] = float(
            np.min(engine._ratio(w.energy, w.energy_scale)[rows])
        )
        margins["max_flux_quadratic_margin"] = float(
            np.max(engine._ratio(w.flux.quadratic, w.flux.scale)[rows])
        )
    margins["min_hyperplane_margin"] = float(np.min(st.hyperplane_margin))
    margins["max_invariant_route_residual"] = float(np.max(st.route_residual))
    margins["max_wedge_identity_residual"] = float(np.max(st.wedge[0]))
    margins["max_cauchy_schwarz_excess"] = float(np.max(st.wedge[1]))
    fixtures = out["fixtures"]
    shared = {
        "lagrangian": {"name": name, "parameters": params},
        "tolerances": {"algebraic": tol_alg, "dec": tol_dec},
    }
    flagged = np.any([mask.any(axis=1) for mask in failed.values()], axis=0)
    for k in np.flatnonzero(flagged).tolist():
        sample = {
            "schema_version": engine.SCHEMA_VERSION, "sample_index": start + k,
            "seed": seed, "m_plus_1": m1, "n": n, **shared, "metric": gs[k].tolist(),
            "target_metric": hs[k].tolist(), "dphi": dps[k].tolist(),
        }
        for group in engine.FIXTURE_GROUPS:
            if group[0][0] not in failed:
                continue
            for i in range(failed[group[0][0]].shape[1]):
                for kind, record in group:
                    if failed[kind][k, i]:
                        if len(fixtures) >= config["max_fixtures"]:
                            return out
                        fixtures.append({**sample, "kind": kind, **record(st, k, i)})
    return out


def _assert_blocks_equal_whole(config, start, stop):
    got, want = run_chunk(config, start, stop), _whole_chunk(config, start, stop)
    assert got["counts"] == want["counts"]
    assert got["sampling"] == want["sampling"]
    assert dump_json(got["margins"]) == dump_json(want["margins"])
    assert dump_json(got["fixtures"]) == dump_json(want["fixtures"])
    return got


class TestRowBlocks:
    """run_chunk's direction checks, one row block at a time, equal the whole chunk's."""

    SMALL_DIRECTIONS = {"name": "linear_combination",
                        "parameters": {"coefficients": [1.0, -0.02, 0.0]}}

    def test_uneven_blocks_with_a_remainder(self):
        # 16,384 // 300 = 54 samples a block: nine full blocks and one of 26.
        config = _config(num_directions_per_sample=300, lagrangian=self.SMALL_DIRECTIONS,
                         max_fixtures=10**6)
        assert 512 % (engine.CONTRACT_BLOCK_ROWS // 300) == 26
        got = _assert_blocks_equal_whole(config, 100, 612)
        indices = [fx["sample_index"] for fx in got["fixtures"]]
        assert indices[0] < 154 and indices[-1] >= 100 + 9 * 54

    def test_violation_search_fixtures_span_blocks(self):
        # The violation_search_blocks golden chunk: 2,000 fixtures from
        # samples 8 to 128, about nine 16-sample blocks.
        config = _config(num_directions_per_sample=1024, lagrangian=self.SMALL_DIRECTIONS,
                         max_fixtures=2000, seed=7)
        got = _assert_blocks_equal_whole(config, 0, 512)
        assert len(got["fixtures"]) == 2000
        assert got["fixtures"][-1]["sample_index"] // 16 >= 8

    def test_cap_inside_a_later_block(self):
        config = _config(num_directions_per_sample=300, lagrangian=self.SMALL_DIRECTIONS,
                         max_fixtures=10**6)
        full = run_chunk(config, 0, 512)["fixtures"]
        cap = sum(fx["sample_index"] < 3 * 54 for fx in full) + 1
        capped = _assert_blocks_equal_whole(dict(config, max_fixtures=cap), 0, 512)
        assert dump_json(capped["fixtures"]) == dump_json(full[:cap])
        assert capped["fixtures"][-1]["sample_index"] >= 3 * 54
        assert capped["counts"] == run_chunk(config, 0, 512)["counts"]

    def test_every_sample_vacuous(self):
        config = _config(num_directions_per_sample=300, rank_override=0)
        got = _assert_blocks_equal_whole(config, 0, 512)
        assert got["counts"]["dec_energy"]["vacuous"] == 512 * 300
        assert got["margins"]["min_energy_margin"] is None

    @pytest.mark.parametrize("config", TestFixtureScan.CONFIGS)
    def test_small_blocks_interleave_every_kind(self, config, monkeypatch):
        # Blocks of 3 samples, so failures of the chunk-wide checks and the
        # directed ones interleave across block boundaries.
        monkeypatch.setattr(engine, "CONTRACT_BLOCK_ROWS", 3 * 4)
        _assert_blocks_equal_whole(dict(config, max_fixtures=10**6), 5, 65)
        _assert_blocks_equal_whole(dict(config, max_fixtures=40), 5, 65)

    def test_jobs_do_not_change_the_report(self):
        config = CampaignConfig(
            m_plus_1=3, n=3, lagrangian_name="linear_combination",
            lagrangian_parameters={"coefficients": [1.0, -0.02, 0.0]},
            num_samples=1024, num_directions_per_sample=1024, seed=11,
            mode="violation_search", max_fixtures=2500,
        )
        serial = report_bytes(run_campaign(config, jobs=1).to_dict())
        assert serial == report_bytes(run_campaign(config, jobs=2).to_dict())

    @pytest.mark.parametrize("num_dirs", [8, 300, 1024])
    def test_kernels_get_at_most_one_block(self, num_dirs, monkeypatch):
        # The direction kernels size their scratch to the stack they get, so
        # run_chunk's blocks are what bounds it.
        rows = []

        def counted(real):
            def kernel(*args):
                rows.append(args[1].shape[0] * args[1].shape[1])
                return real(*args)
            return kernel

        monkeypatch.setattr(engine, "batch_assemble_directions",
                            counted(engine.batch_assemble_directions))
        monkeypatch.setattr(dec, "batch_contract", counted(dec.batch_contract))
        run_chunk(_config(num_directions_per_sample=num_dirs), 0, 512)
        full = min(512, engine.CONTRACT_BLOCK_ROWS // num_dirs) * num_dirs
        assert max(rows) == full <= engine.CONTRACT_BLOCK_ROWS

    @pytest.mark.parametrize("num_dirs", [0, -3])
    def test_no_directions_is_the_draws_error(self, num_dirs):
        # A raw config dict reaches the draw without CampaignConfig's checks.
        with pytest.raises(ValueError, match="need at least one direction"):
            run_chunk(_config(num_directions_per_sample=num_dirs), 0, 4)

    def test_chunk_memory_is_bounded(self):
        # Every (512, 1024, 4) direction stack held at once traced 131 MB;
        # the whole chunk's drawn directions, 12 and 24 MB at 4x4 with 256
        # and 1,024 directions and 48 MB at 8x8.  With one block drawn at a
        # time the peaks are about 9, 8 and 16 MB, and do not grow with K.
        for dim, num_dirs, bound in ((4, 256, 12e6), (4, 1024, 12e6), (8, 1024, 20e6)):
            config = _config(m_plus_1=dim, n=dim, num_directions_per_sample=num_dirs)
            tracemalloc.start()
            try:
                run_chunk(config, 0, 512)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (dim, num_dirs, peak)

    @pytest.mark.parametrize("num_dirs, later", [(8, 0), (300, 512 - 54), (1024, 512 - 16)])
    def test_a_slot_past_the_first_block_sets_its_state_once_more(
        self, num_dirs, later, monkeypatch
    ):
        # Seeding sets each slot's state once and draws the first block's
        # directions from the live streams; so a chunk of one block (K = 8,
        # as in grid-serial and counterexample-harvest) sets none again.
        sets = []
        real = sampling._set_state
        monkeypatch.setattr(sampling, "_set_state", lambda *args: (sets.append(args[1:]),
                                                                   real(*args)))
        run_chunk(_config(num_directions_per_sample=num_dirs), 0, 512)
        assert len(sets) == 512 + later
