"""Energy-condition witnesses and verdicts: hand examples, vacuous branches,
invariance under direction rescaling / map rescaling / coordinate changes, and
the supporting rank, combination, and corollary checks."""

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
    check_convexity_lemma,
    check_dec,
    check_pointwise_corollary,
    check_rank_condition,
    dec_witness,
    linear_combination,
    skyrme,
    strain,
    strain_invariants,
    stress_general,
    wave_map,
    wedge_decomposition,
)
from straindec.dec import batch_dec_witness
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
        assert w.energy_margin == pytest.approx(1.0 / np.sqrt(2.0))

    def test_direction_gets_normalized(self):
        geom = _identity_geometry()
        w = dec_witness(geom.metric, np.eye(2), [2.0, 0.0])
        np.testing.assert_allclose(w.direction, [1.0, 0.0], atol=1e-14)

    def test_rejects_spacelike_direction(self):
        geom = _identity_geometry()
        with pytest.raises(ValueError, match="timelike"):
            dec_witness(geom.metric, np.eye(2), [0.0, 1.0])

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
        assert verdict.passed and not verdict.vacuous
        assert len(verdict.witnesses) == 8
        assert all(w.energy_ok and w.flux_ok for w in verdict.witnesses)

    def test_inverts_the_metric_once(self, monkeypatch):
        # CheckStack.at hands the geometry's inverse to the stack.
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        geom = sample_geometry(4, 4, rng=np.random.default_rng(8))
        check_dec(geom, skyrme(1.0, 1.0, 4), num_directions=16)
        assert calls == [(1, 4, 4)]
        check_dec(geom, skyrme(1.0, 1.0, 4), seed=1)
        assert len(calls) == 1

    def test_zero_map_is_vacuous(self):
        verdict = check_dec(_zero_map_geometry(), wave_map(2))
        assert verdict.energy_positivity is CheckStatus.VACUOUS
        assert verdict.flux_causality is CheckStatus.VACUOUS
        assert verdict.energy_positivity.value == "vacuous_T_zero"
        assert verdict.vacuous and verdict.passed

    def test_rank_deficient_second_invariant_is_vacuous(self):
        # L = s_2 with a rank-1 map: T vanishes identically, the degenerate
        # case where strict positivity genuinely fails.
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.array([[1.0, 0.0], [0.0, 0.0]]),
        )
        verdict = check_dec(geom, linear_combination([0.0, 1.0]))
        assert verdict.vacuous
        assert verdict.tensor_norm <= 1e-12

    def test_sign_flipped_lagrangian_fails(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        verdict = check_dec(geom, linear_combination([-1.0], dim=2), seed=2)
        assert verdict.energy_positivity is CheckStatus.FAIL
        assert not verdict.passed

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
            assert wa.energy_margin == pytest.approx(wb.energy_margin, rel=1e-9)
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


class TestRankCondition:
    def test_zero_map_consistent(self):
        check = check_rank_condition(_zero_map_geometry(3), 1)
        assert check.rank == 0
        assert check.vanished and check.expected_vanishing
        assert check.consistent and check.warning is None

    def test_constructed_ranks(self, rng):
        for r in (0, 1, 2, 3):
            geom = sample_geometry(4, 3, rank_override=r, rng=rng)
            for degree in (1, 2, 3, 4):
                check = check_rank_condition(geom, degree)
                assert check.rank == r
                assert check.consistent, (r, degree)
                assert check.vanished == (degree > r)

    def test_inflated_tolerance_exposes_warning_branch(self, rng):
        # With an absurd tolerance every tensor counts as vanished, so a
        # degree at or below the rank reports the non-generic warning.
        geom = sample_geometry(3, 3, rng=rng)
        check = check_rank_condition(geom, 1, tol=1e9)
        assert check.vanished and not check.expected_vanishing
        assert not check.consistent
        assert "non-generic" in check.warning


class TestConvexityLemma:
    def _unit_direction(self, geom):
        from straindec import canonical_frame

        return canonical_frame(geom.metric).vector(0)

    def test_wave_map_single_component(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        x = self._unit_direction(geom)
        check = check_convexity_lemma(geom, wave_map(3), x)
        assert check.component_classes[0] is check.combined_class
        assert check.holds
        # Unweighted degrees carry no component: they classify as zero.
        assert check.component_classes[1] is CausalClass.ZERO
        assert check.component_classes[2] is CausalClass.ZERO

    def test_skyrme_premise_and_conclusion(self, rng):
        for _ in range(10):
            geom = sample_geometry(3, 3, rng=rng)
            x = self._unit_direction(geom)
            check = check_convexity_lemma(geom, skyrme(1.0, 1.0, 3), x)
            assert check.premise and check.conclusion and check.holds
            assert check.hyperplane_ok
            assert check.hyperplane_margin == pytest.approx(0.0, abs=1e-12)

    def test_born_infeld_hyperplane_strictly_positive(self, rng):
        # Concavity through zero forces F(s) >= grad F . s with slack.
        geom = sample_geometry(3, 3, rng=rng)
        x = self._unit_direction(geom)
        check = check_convexity_lemma(geom, born_infeld(2.0, 3), x)
        assert check.hyperplane_ok
        assert check.hyperplane_margin >= 0.0

    def test_rejects_non_unit_direction(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="unit timelike"):
            check_convexity_lemma(
                geom, wave_map(2), 2.0 * self._unit_direction(geom)
            )

    def test_rejects_dimension_mismatch(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        with pytest.raises(ValueError, match="dimension"):
            check_convexity_lemma(geom, wave_map(2), self._unit_direction(geom))


class TestPointwiseCorollary:
    def test_zero_map_trivially_holds(self):
        check = check_pointwise_corollary(_zero_map_geometry(), wave_map(2))
        assert check.tensor_zero and check.dphi_small and check.holds

    def test_generic_samples_hold(self, rng):
        for _ in range(10):
            geom = sample_geometry(3, 2, rng=rng)
            check = check_pointwise_corollary(geom, skyrme(1.0, 1.0, 3))
            assert check.holds
            assert not check.tensor_zero

    def test_requires_all_three_flags(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="nondegenerate"):
            check_pointwise_corollary(geom, linear_combination([0.0, 1.0]))

    def test_tiny_map_counts_as_small(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.full((2, 2), 1e-14),
        )
        check = check_pointwise_corollary(geom, wave_map(2))
        assert check.dphi_small
        assert check.holds

    def test_dphi_floor_decides_small_and_holds(self):
        # Below a negative floor not even the zero map is small, so a zero
        # tensor breaks the implication.
        check = check_pointwise_corollary(
            _zero_map_geometry(), wave_map(2), dphi_floor=-1.0
        )
        assert check.tensor_zero and not check.dphi_small and not check.holds


def _geometry_types():
    """One instance of each frozen geometry dataclass with an ndarray field."""
    geom = sample_geometry(3, 2, rng=np.random.default_rng(3))
    frame = canonical_frame(geom.metric)
    stress = stress_general(geom, wave_map(3))
    g, x = geom.metric.entries[None], frame.basis.T[None, :1]
    stack = batch_dec_witness(g, np.linalg.inv(g), stress.tensor[None], x)
    return {
        "LorentzianMetric": geom.metric,
        "RiemannianMetric": geom.target_metric,
        "OrthonormalFrame": frame,
        "PointGeometry": geom,
        "StrainTensor": strain(geom),
        "InvariantVector": strain_invariants(geom),
        "StressEnergy": stress,
        "WedgeDecomposition": wedge_decomposition(geom, 1, frame),
        "FluxStack": stack.flux,
        "WitnessStack": stack,
        "DECWitness": dec_witness(geom.metric, stress.tensor, frame.vector(0)),
    }


@pytest.mark.parametrize("name", [
    "LorentzianMetric", "RiemannianMetric", "OrthonormalFrame", "PointGeometry",
    "StrainTensor", "InvariantVector", "StressEnergy", "WedgeDecomposition",
    "FluxStack", "WitnessStack", "DECWitness",
])
def test_geometry_types_compare_without_raising(name):
    # ndarray fields make a generated __eq__ raise; these types compare by identity.
    x, y = _geometry_types()[name], _geometry_types()[name]
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) in (True, False)
    assert (x != y) in (True, False)
    assert hash(x) == hash(x) and isinstance(hash(y), int)
