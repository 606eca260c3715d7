"""Parity between the batched campaign engine and the scalar check API.

The scalar path below re-derives every chunk aggregate one sample at a time
using only public functions; the engine must reproduce the same counters
exactly and the same extremal margins up to roundoff reordering.
"""

import numpy as np
import pytest

from straindec import (
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    SamplerStarvationError,
    canonical_frame,
    charpoly_coefficients,
    check_convexity_lemma,
    check_pointwise_corollary,
    check_rank_condition,
    dec_witness,
    invariants_charpoly,
    invariants_newton,
    invariants_wedge,
    resolve_lagrangian,
    strain,
    stress_elementary,
    stress_general,
    stress_scale_general,
    wedge_decomposition,
)
from straindec.engine import (
    CHECK_NAMES,
    MAX_DOMAIN_TRIES,
    VACUOUS_RTOL,
    empty_chunk_result,
    fold_chunk_results,
    run_chunk,
)
from straindec.lagrangians import _always_inside
from straindec.sampling import (
    assemble_directions,
    derive_rng,
    draw_direction_params,
    draw_geometry_arrays,
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
        xs = assemble_directions(frame.basis, rap, normals)

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

        for degree in range(1, m1 + 1):
            rc = check_rank_condition(geom, degree, tol_dec)
            counts["rank_condition"]["total"] += 1
            if rc.consistent:
                counts["rank_condition"]["pass"] += 1
            elif rc.vanished:
                counts["rank_condition"]["warning"] += 1
            else:
                counts["rank_condition"]["fail"] += 1

        x0 = xs[0] / np.sqrt(-float(xs[0] @ g @ xs[0]))
        lemma = check_convexity_lemma(geom, lagr, x0, tol_dec)
        counts["convexity_lemma"]["total"] += 1
        counts["convexity_lemma"]["pass" if lemma.holds else "fail"] += 1
        counts["supporting_hyperplane"]["total"] += 1
        counts["supporting_hyperplane"][
            "pass" if lemma.hyperplane_ok else "fail"
        ] += 1
        h_margins.append(lemma.hyperplane_margin)

        if qualifies:
            pc = check_pointwise_corollary(geom, lagr, tol_dec)
            counts["pointwise_corollary"]["total"] += 1
            counts["pointwise_corollary"]["pass" if pc.holds else "fail"] += 1

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
        for degree in range(1, m1 + 1):
            decomp = wedge_decomposition(geom, degree, frame)
            tj = stress_elementary(geom, degree).tensor
            t00 = float(e0 @ tj @ e0)
            denom = max(
                1.0,
                abs(t00),
                0.5 * (abs(decomp.perp_sum) + abs(decomp.parallel_sum)),
            )
            w_resid = abs(t00 - decomp.energy) / denom
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

    @pytest.mark.parametrize("cap", [0, 1, 7, 50])
    def test_cap_truncates_the_same_sequence(self, cap):
        config = self.CONFIGS[0]
        full = run_chunk(dict(config, max_fixtures=10**6), 0, 30)["fixtures"]
        capped = run_chunk(dict(config, max_fixtures=cap), 0, 30)["fixtures"]
        assert capped == full[:cap]


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
