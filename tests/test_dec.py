"""Energy-condition witnesses and verdicts: hand examples, vacuous branches,
invariance under direction rescaling / map rescaling / coordinate changes, and
the supporting rank, combination, and corollary checks, read from the fields
of ``CheckStack.at`` and its view ``along`` as the engine and replay read them."""

import numpy as np
import pytest

from straindec import (
    CausalClass,
    CheckStatus,
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    born_infeld,
    canonical_frame,
    check_dec,
    dec_witness,
    invariants_charpoly,
    linear_combination,
    skyrme,
    strain,
    stress_general,
    wave_map,
)
from straindec.dec import (
    CheckStack,
    batch_dec_witness,
    require_corollary_flags,
    require_timelike,
)
from straindec.sampling import sample_geometry


def _identity_geometry():
    return PointGeometry(
        metric=LorentzianMetric(np.diag([-1.0, 1.0])),
        target_metric=RiemannianMetric(np.eye(2)),
        dphi=np.eye(2),
    )


def _zero_map_geometry(dim=2):
    g = -np.eye(dim)
    g[1:, 1:] *= -1.0
    return PointGeometry(
        metric=LorentzianMetric(g),
        target_metric=RiemannianMetric(np.eye(dim)),
        dphi=np.zeros((dim, dim)),
    )


class TestWitness:
    def test_wave_map_identity_hand_example(self):
        geom = _identity_geometry()
        w = dec_witness(geom.metric, np.eye(2), [1.0, 0.0])
        assert w.energy == pytest.approx(1.0)
        np.testing.assert_allclose(w.flux, [-1.0, 0.0], atol=1e-14)
        assert w.flux_quadratic == pytest.approx(-1.0)
        assert w.flux_class is CausalClass.PAST_TIMELIKE
        assert w.energy_ok and w.flux_ok
        assert w.energy / w.energy_scale == pytest.approx(1.0 / np.sqrt(2.0))

    def test_direction_gets_normalized(self):
        geom = _identity_geometry()
        w = dec_witness(geom.metric, np.eye(2), [2.0, 0.0])
        np.testing.assert_allclose(w.direction, [1.0, 0.0], atol=1e-14)

    def test_rejects_spacelike_direction(self):
        geom = _identity_geometry()
        with pytest.raises(ValueError, match="timelike"):
            dec_witness(geom.metric, np.eye(2), [0.0, 1.0])

    @pytest.mark.parametrize("tensor, match", [
        (np.full((3, 3), np.nan), "non-finite"),
        (np.diag([np.inf, np.inf, np.inf]), "non-finite"),
        (np.diag([1.0, -np.inf, 1.0]), "non-finite"),
        (np.eye(2), "dimension 2, metric 3"),
        (np.eye(4), "dimension 4, metric 3"),
        (np.ones((3, 2)), "square"),
        (np.ones(3), "square"),
        ([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "not symmetric"),
    ])
    def test_rejects_a_tensor_it_cannot_judge(self, tensor, match):
        # A non-finite or malformed tensor is an error, never a silent fail.
        metric = LorentzianMetric(np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=match):
            dec_witness(metric, tensor, [1.0, 0.0, 0.0])

    def test_accepts_symmetry_within_the_metric_rule(self):
        # The metric's rule: off by at most SYMMETRY_RTOL relative to the largest entry.
        metric = LorentzianMetric(np.diag([-1.0, 1.0, 1.0]))
        t = np.eye(3)
        t[0, 1], t[1, 0] = 0.5, 0.5 + 1e-13
        assert dec_witness(metric, t, [1.0, 0.0, 0.0]).energy == 1.0
        t[1, 0] = 0.5 + 1e-11
        with pytest.raises(ValueError, match="not symmetric"):
            dec_witness(metric, t, [1.0, 0.0, 0.0])

    def test_negative_energy_detected(self):
        geom = _identity_geometry()
        w = dec_witness(geom.metric, -np.eye(2), [1.0, 0.0])
        assert w.energy == pytest.approx(-1.0)
        assert not w.energy_ok

    def test_spacelike_flux_detected(self):
        # T mapping X into a spacelike direction fails causality.
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        geom = _identity_geometry()
        w = dec_witness(geom.metric, t, [1.0, 0.0])
        assert w.flux_class is CausalClass.SPACELIKE
        assert not w.flux_ok

    def test_invariant_under_direction_rescaling(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        t = np.eye(3)
        frame_x = np.linalg.eigh(geom.metric.entries)[1][:, 0]
        a = dec_witness(geom.metric, t, frame_x)
        b = dec_witness(geom.metric, t, 3.7 * frame_x)
        np.testing.assert_allclose(a.direction, b.direction, atol=1e-12)
        assert a.energy == pytest.approx(b.energy, rel=1e-12)
        assert a.flux_class is b.flux_class


class TestCheckDec:
    def test_wave_map_identity_passes(self):
        verdict = check_dec(_identity_geometry(), wave_map(2), num_directions=8, seed=4)
        assert verdict.energy_positivity is CheckStatus.PASS
        assert verdict.flux_causality is CheckStatus.PASS
        assert len(verdict.witnesses) == 8
        assert all(w.energy_ok and w.flux_ok for w in verdict.witnesses)

    def test_inverts_the_metric_once(self, monkeypatch):
        # Each call's stack inverts g once, for the strain and the fluxes.
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        geom = sample_geometry(4, 4, rng=np.random.default_rng(8))
        check_dec(geom, skyrme(1.0, 1.0, 4), num_directions=16)
        assert calls == [(1, 4, 4)]
        check_dec(geom, skyrme(1.0, 1.0, 4), seed=1)
        assert calls == [(1, 4, 4)] * 2

    def test_zero_map_is_vacuous(self):
        verdict = check_dec(_zero_map_geometry(), wave_map(2))
        assert verdict.energy_positivity is CheckStatus.VACUOUS
        assert verdict.flux_causality is CheckStatus.VACUOUS
        assert verdict.energy_positivity.value == "vacuous_T_zero"

    def test_rank_deficient_second_invariant_is_vacuous(self):
        # L = s_2 with a rank-1 map: T vanishes identically, the degenerate
        # case where strict positivity genuinely fails.
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.array([[1.0, 0.0], [0.0, 0.0]]),
        )
        verdict = check_dec(geom, linear_combination([0.0, 1.0]))
        assert verdict.energy_positivity is verdict.flux_causality is CheckStatus.VACUOUS
        assert verdict.tensor_norm <= 1e-12

    def test_sign_flipped_lagrangian_fails(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        verdict = check_dec(geom, linear_combination([-1.0], dim=2), seed=2)
        assert verdict.energy_positivity is CheckStatus.FAIL

    def test_deterministic_in_seed(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        a = check_dec(geom, wave_map(3), seed=11)
        b = check_dec(geom, wave_map(3), seed=11)
        for wa, wb in zip(a.witnesses, b.witnesses):
            np.testing.assert_array_equal(wa.direction, wb.direction)
            assert wa.energy == wb.energy

    def test_requires_a_direction(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="direction"):
            check_dec(geom, wave_map(2), num_directions=0)

    def test_reduced_theorem_suite(self, rng):
        # Miniature of the full verification campaign: defocusing + zeroed
        # Lagrangians never produce a non-vacuous failure.
        specs = [
            wave_map(3),
            skyrme(1.0, 1.0, 3),
            skyrme(2.0, 0.5, 3),
            linear_combination([1.0, 1.0, 1.0]),
            born_infeld(10.0, 3),
        ]
        for i in range(30):
            geom = sample_geometry(3, 2, rng=rng)
            for spec in specs:
                verdict = check_dec(geom, spec, num_directions=4, seed=i)
                assert verdict.energy_positivity is not CheckStatus.FAIL
                assert verdict.flux_causality is not CheckStatus.FAIL

    def test_energy_margin_invariant_under_map_rescaling(self, rng):
        # dphi -> beta dphi scales T quadratically for the wave map, so the
        # relative margins and all statuses are unchanged.
        geom = sample_geometry(3, 2, rng=rng)
        boosted = PointGeometry(
            metric=geom.metric,
            target_metric=geom.target_metric,
            dphi=10.0 * geom.dphi,
        )
        a = check_dec(geom, wave_map(3), seed=5)
        b = check_dec(boosted, wave_map(3), seed=5)
        assert a.energy_positivity is b.energy_positivity
        assert a.flux_causality is b.flux_causality
        for wa, wb in zip(a.witnesses, b.witnesses):
            assert wa.energy / wa.energy_scale == pytest.approx(
                wb.energy / wb.energy_scale, rel=1e-9
            )
            assert wa.flux_class is wb.flux_class

    def test_verdict_invariant_under_coordinate_change(self, rng):
        # g -> S^T g S, dphi -> dphi S, with T transforming covariantly:
        # energies and causal classes cannot move.
        geom = sample_geometry(3, 3, rng=rng)
        s_mat = np.eye(3) + 0.25 * rng.uniform(-1, 1, size=(3, 3))
        changed = PointGeometry(
            metric=LorentzianMetric(s_mat.T @ geom.metric.entries @ s_mat),
            target_metric=geom.target_metric,
            dphi=geom.dphi @ s_mat,
        )
        spec = skyrme(1.0, 1.0, 3)
        a = check_dec(geom, spec, seed=9)
        b = check_dec(changed, spec, seed=9)
        assert a.energy_positivity is b.energy_positivity
        assert a.flux_causality is b.flux_causality

        # Spot-check full witness invariance on one explicit direction pair.
        from straindec import stress_general

        x = a.witnesses[0].direction
        wa = dec_witness(geom.metric, stress_general(geom, spec).tensor, x)
        wb = dec_witness(
            changed.metric,
            stress_general(changed, spec).tensor,
            np.linalg.solve(s_mat, x),
        )
        assert wa.energy == pytest.approx(wb.energy, rel=1e-9)
        assert wa.flux_quadratic == pytest.approx(wb.flux_quadratic, rel=1e-9)
        assert wa.flux_class is wb.flux_class


def test_canonical_frame_is_the_basis_check_dec_boosts_from():
    for m_plus_1 in (1, 2, 3, 5):
        geom = sample_geometry(m_plus_1, 2, rng=np.random.default_rng(m_plus_1))
        frame = canonical_frame(geom.metric)
        assert frame.shape == (m_plus_1, m_plus_1)
        np.testing.assert_array_equal(frame, CheckStack.at(geom).frames[0][0])


def _rank_masks(geom, tol=1e-9):
    """(rank, vanished, consistent) per degree, as the engine tallies rank_condition."""
    stack = CheckStack.at(geom, tol=tol)
    return int(stack.rank[0]), stack.vanished[0], stack.rank_condition[0]


class TestRankCondition:
    def test_zero_map_consistent(self):
        rank, vanished, consistent = _rank_masks(_zero_map_geometry(3))
        assert rank == 0
        assert vanished.all() and consistent.all()

    def test_constructed_ranks(self, rng):
        for r in (0, 1, 2, 3):
            geom = sample_geometry(4, 3, rank_override=r, rng=rng)
            rank, vanished, consistent = _rank_masks(geom)
            assert rank == r
            assert consistent.all(), r
            np.testing.assert_array_equal(vanished, np.arange(1, 5) > r)

    def test_inflated_tolerance_exposes_warning_branch(self, rng):
        # With an absurd tolerance every tensor counts as vanished, so a
        # degree at or below the rank is inconsistent but vanished: the
        # engine counts that as a warning, not a failure.
        geom = sample_geometry(3, 3, rng=rng)
        rank, vanished, consistent = _rank_masks(geom, tol=1e9)
        assert rank >= 1
        assert vanished[0] and not consistent[0]


class TestConvexityLemma:
    def _lemma(self, geom, lagr, x):
        """Batch-of-one view along the unit direction ``x``, as replay builds it."""
        x = require_timelike(geom.metric, x, unit=True)
        return CheckStack.at(geom, lagr).along(x[None, None])

    def _unit_direction(self, geom):
        return canonical_frame(geom.metric)[:, 0]

    def test_wave_map_single_component(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        view = self._lemma(geom, wave_map(3), self._unit_direction(geom))
        classes = [view.components.causal_class(0, j) for j in range(3)]
        assert classes[0] is view.witness.flux.causal_class(0, 0)
        assert view.convexity_lemma[0]
        # Unweighted degrees carry no component: they classify as zero.
        assert classes[1] is CausalClass.ZERO
        assert classes[2] is CausalClass.ZERO

    def test_skyrme_premise_and_conclusion(self, rng):
        for _ in range(10):
            geom = sample_geometry(3, 3, rng=rng)
            view = self._lemma(geom, skyrme(1.0, 1.0, 3), self._unit_direction(geom))
            assert view.premise[0] and view.conclusion[0] and view.convexity_lemma[0]
            assert view.supporting_hyperplane[0]
            assert view.hyperplane_margin[0] == pytest.approx(0.0, abs=1e-12)

    def test_born_infeld_hyperplane_strictly_positive(self, rng):
        # Concavity through zero forces F(s) >= grad F . s with slack.
        geom = sample_geometry(3, 3, rng=rng)
        stack = CheckStack.at(geom, born_infeld(2.0, 3))
        assert stack.supporting_hyperplane[0]
        assert stack.hyperplane_margin[0] >= 0.0

    def test_rejects_non_unit_direction(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="unit timelike"):
            self._lemma(geom, wave_map(2), 2.0 * self._unit_direction(geom))

    def test_rejects_dimension_mismatch(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        with pytest.raises(ValueError, match="dimension"):
            self._lemma(geom, wave_map(2), self._unit_direction(geom))


class TestPointwiseCorollary:
    def _corollary(self, geom, lagr):
        """(T zero, dphi small, corollary holds) for sample 0, as the engine tallies them."""
        require_corollary_flags(lagr)
        stack = CheckStack.at(geom, lagr)
        tensor_zero, dphi_small = (bool(m[0]) for m in stack.corollary)
        return tensor_zero, dphi_small, bool(stack.pointwise_corollary[0])

    def test_zero_map_trivially_holds(self):
        assert self._corollary(_zero_map_geometry(), wave_map(2)) == (True, True, True)

    def test_generic_samples_hold(self, rng):
        for _ in range(10):
            geom = sample_geometry(3, 2, rng=rng)
            tensor_zero, _, holds = self._corollary(geom, skyrme(1.0, 1.0, 3))
            assert holds
            assert not tensor_zero

    def test_requires_all_three_flags(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="nondegenerate"):
            self._corollary(geom, linear_combination([0.0, 1.0]))

    def test_tiny_map_counts_as_small(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.full((2, 2), 1e-14),
        )
        _, dphi_small, holds = self._corollary(geom, wave_map(2))
        assert dphi_small
        assert holds


def _geometry_types():
    """One instance of each frozen geometry dataclass with an ndarray field."""
    geom = sample_geometry(3, 2, rng=np.random.default_rng(3))
    frame = canonical_frame(geom.metric)
    stress = stress_general(geom, wave_map(3))
    g, x = geom.metric.entries[None], frame.T[None, :1]
    stack = batch_dec_witness(g, np.linalg.inv(g), stress.tensor[None], x)
    return {
        "LorentzianMetric": geom.metric,
        "RiemannianMetric": geom.target_metric,
        "PointGeometry": geom,
        "StrainTensor": strain(geom),
        "InvariantVector": invariants_charpoly(strain(geom).matrix),
        "StressEnergy": stress,
        "FluxStack": stack.flux,
        "WitnessStack": stack,
        "DECWitness": dec_witness(geom.metric, stress.tensor, frame[:, 0]),
    }


@pytest.mark.parametrize("name", [
    "LorentzianMetric", "RiemannianMetric", "PointGeometry",
    "StrainTensor", "InvariantVector", "StressEnergy", "FluxStack",
    "WitnessStack", "DECWitness",
])
def test_geometry_types_compare_without_raising(name):
    # ndarray fields make a generated __eq__ raise; these types compare by identity.
    x, y = _geometry_types()[name], _geometry_types()[name]
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) in (True, False)
    assert (x != y) in (True, False)
    assert hash(x) == hash(x) and isinstance(hash(y), int)
