"""Lagrangian catalog: values, gradients against finite differences, domains,
and the sampled flag audits (including the known sub-additivity defect of the
square-root determinant family on sign-mixed invariant vectors)."""

import numpy as np
import pytest

from conftest import fd_gradient
from straindec import (
    ConfigError,
    DomainError,
    LagrangianFlags,
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    SamplerStarvationError,
    born_infeld,
    box_rejection_sampler,
    linear_combination,
    minimal_surface,
    resolve_lagrangian,
    skyrme,
    stress_general,
    verify_flags,
    wave_map,
)
from straindec.lagrangians import BUILTIN_NAMES


class TestWaveMap:
    def test_picks_out_first_invariant(self):
        spec = wave_map(3)
        assert spec.evaluate(np.array([0.0, -1.0, 2.0])) == 0.0
        assert spec.evaluate(np.array([2.5, -1.0, 2.0])) == 2.5

    def test_gradient(self):
        np.testing.assert_array_equal(
            wave_map(3).gradient(np.zeros(3)), [1.0, 0.0, 0.0]
        )

    def test_flags(self):
        flags = wave_map(2).flags
        assert flags.defocusing and flags.zeroed and flags.nondegenerate


class TestSkyrme:
    def test_value_example(self):
        # s = (1, -1, -1) from D = diag(-1, 1, 1): 1 + (-1) = 0.
        spec = skyrme(1.0, 1.0, 3)
        assert spec.evaluate(np.array([1.0, -1.0, -1.0])) == 0.0

    def test_gradient(self):
        np.testing.assert_array_equal(
            skyrme(2.0, 0.5, 3).gradient(np.zeros(3)), [2.0, 0.5, 0.0]
        )

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValueError, match="nonnegative"):
            skyrme(1.0, -1.0, 3)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError, match="at least 2"):
            skyrme(1.0, 1.0, 1)


class TestBornInfeld:
    def test_zeroed(self):
        assert born_infeld(2.0, 3).evaluate(np.zeros(3)) == 0.0

    def test_hand_value(self):
        # b = 1, dim 2: F = sqrt(1 + s1 + s2) - 1; v = (3, 0) gives 1.
        spec = born_infeld(1.0, 2)
        assert spec.evaluate(np.array([3.0, 0.0])) == pytest.approx(1.0)

    def test_weights_scale_with_b(self):
        # b = 2, dim 2: F = sqrt(4 + 2 s1 + s2) - 2.
        spec = born_infeld(2.0, 2)
        v = np.array([1.0, 3.0])
        assert spec.evaluate(v) == pytest.approx(3.0 - 2.0)

    def test_domain_error_carries_vector(self):
        # dphi = diag(3, 0) puts s = (-9, 0) outside born_infeld(1)'s domain.
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.diag([3.0, 0.0]),
        )
        with pytest.raises(DomainError) as info:
            stress_general(geom, born_infeld(1.0, 2))
        np.testing.assert_array_equal(info.value.vector, [-9.0, 0.0])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="positive"):
            born_infeld(0.0, 2)

    def test_rejects_a_scale_whose_power_overflows(self):
        # b**3 passes the largest double from b = 1e103 on.
        with pytest.raises(ValueError, match=r"b = 1e\+103 overflows b\*\*dim at dim 3"):
            born_infeld(1e103, 3)
        with pytest.raises(ValueError, match=r"b = 1e\+300"):
            born_infeld(1e300, 3)
        assert born_infeld(1e102, 3).evaluate(np.zeros(3)) == 0.0


class TestMinimalSurface:
    def test_value_and_gradient(self):
        spec = minimal_surface(3)
        v = np.array([7.0, 4.0, -2.0])
        assert spec.evaluate(v) == 2.0
        np.testing.assert_allclose(spec.gradient(v), [0.0, 0.25, 0.0])

    def test_domain_excludes_negative_branch(self):
        spec = minimal_surface(3)
        assert not spec.domain_predicate(np.array([1.0, -1.0, 1.0]))

    def test_nondegenerate_only_in_dimension_two(self):
        assert minimal_surface(2).flags.nondegenerate
        assert not minimal_surface(3).flags.nondegenerate


class TestLinearCombination:
    def test_padding_and_truncation(self):
        spec = linear_combination([1.0, 2.0], dim=4)
        np.testing.assert_array_equal(spec.parameters["coefficients"], [1, 2, 0, 0])
        spec = linear_combination([1.0, 2.0, 3.0], dim=2)
        np.testing.assert_array_equal(spec.parameters["coefficients"], [1, 2])

    def test_honest_default_flags(self):
        assert linear_combination([1.0, -5.0]).flags == LagrangianFlags(
            defocusing=False, zeroed=True, nondegenerate=True
        )
        assert linear_combination([0.0, 1.0]).flags == LagrangianFlags(
            defocusing=True, zeroed=True, nondegenerate=False
        )

    def test_flag_override(self):
        lying = LagrangianFlags(defocusing=True, zeroed=True, nondegenerate=True)
        assert linear_combination([1.0, -5.0], flags=lying).flags == lying

    def test_batched_evaluate(self):
        spec = linear_combination([1.0, 2.0])
        batch = np.array([[1.0, 1.0], [0.0, -1.0]])
        np.testing.assert_array_equal(spec.evaluate(batch), [3.0, -2.0])
        assert spec.gradient(batch).shape == (2, 2)


class TestNonFiniteParameters:
    # NaN < 0 is False, so a sign check alone would let NaN through.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: skyrme(float("nan"), 1.0, 3),
            lambda: skyrme(1.0, float("inf"), 3),
            lambda: born_infeld(float("nan"), 2),
            lambda: born_infeld(float("inf"), 2),
            lambda: born_infeld(1.0, 2, delta=float("nan")),
            lambda: linear_combination([1.0, float("-inf")]),
            lambda: linear_combination([float("nan")], 3),
            lambda: minimal_surface(3, delta=float("nan")),
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestGradientsAgainstFiniteDifferences:
    def _specs(self):
        return [
            wave_map(3),
            skyrme(1.5, 0.7, 3),
            born_infeld(2.0, 3),
            linear_combination([0.3, -1.2, 0.8]),
            minimal_surface(3),
        ]

    def test_all_builtins(self, rng):
        for spec in self._specs():
            for _ in range(10):
                v = rng.uniform(0.5, 2.0, size=spec.dim)
                assert bool(spec.domain_predicate(v))
                got = np.asarray(spec.gradient(v), dtype=float)
                want = fd_gradient(lambda w, s=spec: float(s.evaluate(w)), v)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


class TestResolve:
    def test_round_trips_every_builtin(self):
        built = [
            wave_map(3),
            skyrme(1.0, 2.0, 3),
            born_infeld(1.5, 3),
            linear_combination([1.0, -5.0, 0.0]),
            minimal_surface(3),
        ]
        for spec in built:
            again = resolve_lagrangian(spec.name, spec.parameters, 3)
            assert again.name == spec.name
            assert again.flags == spec.flags
            v = np.array([1.0, 2.0, 0.5])
            assert float(again.evaluate(v)) == float(spec.evaluate(v))
        assert set(s.name for s in built) == set(BUILTIN_NAMES)

    def test_flags_override_key(self):
        spec = resolve_lagrangian(
            "linear_combination",
            {
                "coefficients": [1.0, -5.0],
                "flags": {"defocusing": True, "zeroed": True, "nondegenerate": True},
            },
            2,
        )
        assert spec.flags.defocusing  # deliberately mis-declared

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_recorded_parameters_resolve(self, dim):
        lying = LagrangianFlags(defocusing=True, zeroed=True, nondegenerate=True)
        built = [
            wave_map(dim),
            skyrme(1.0, 2.0, dim),
            born_infeld(1.5, dim, delta=1e-8),
            linear_combination([1.0, -5.0], dim),
            minimal_surface(dim, delta=1e-8),
        ]
        recorded = [(spec.parameters, spec) for spec in built]
        flagged = linear_combination([1.0, -5.0], dim, flags=lying)
        recorded.append(({**flagged.parameters, "flags": vars(lying)}, flagged))
        for parameters, spec in recorded:
            again = resolve_lagrangian(spec.name, parameters, dim)
            assert again.parameters == spec.parameters
            assert again.flags == spec.flags

    @pytest.mark.parametrize(
        "name, params, unknown",
        [
            ("wave_map", {"c1": 1.0}, "c1"),
            ("skyrme", {"c1": 1.0, "c2": 1.0, "zz": 3}, "zz"),
            ("born_infeld", {"b": 1.0, "detla": 0.5}, "detla"),
            ("linear_combination", {"coefficient": [1.0]}, "coefficient"),
            ("minimal_surface", {"b": 1.0}, "'b'"),
            ("skyrme", {"c1": 1.0, "c2": 1.0, "flags": {}}, "flags"),
        ],
    )
    def test_unknown_parameter_rejected(self, name, params, unknown):
        with pytest.raises(ConfigError, match=f"{name} has unknown parameters.*{unknown}"):
            resolve_lagrangian(name, params, 3)

    _NO_FLAGS = {"defocusing": "no", "zeroed": "no", "nondegenerate": "no"}

    @pytest.mark.parametrize(
        "name, params, bad",
        [
            ("linear_combination", {"coefficients": "15"}, "coefficients"),
            ("linear_combination", {"coefficients": ["1", "-5", "0"]}, "coefficients"),
            ("linear_combination", {"coefficients": [True, False]}, "coefficients"),
            ("linear_combination", {"coefficients": {"a": 1}}, "coefficients"),
            ("linear_combination", {"coefficients": None}, "coefficients"),
            ("skyrme", {"c1": True, "c2": 1.0}, "c1"),
            ("skyrme", {"c1": 1.0, "c2": [1.0]}, "c2"),
            ("born_infeld", {"b": "1", "delta": 0.1}, "b"),
            ("born_infeld", {"b": 1.0, "delta": "0.1"}, "delta"),
            ("minimal_surface", {"delta": True}, "delta"),
            ("linear_combination", {"coefficients": [1, 1], "flags": _NO_FLAGS}, "flags"),
            ("linear_combination",
             {"coefficients": [1, 1], "flags": {"defocusing": True}}, "flags"),
            ("linear_combination",
             {"coefficients": [1, 1], "flags": {**_NO_FLAGS, "zeroed": True, "x": True}},
             "flags"),
            ("linear_combination", {"coefficients": [1, 1], "flags": [True] * 3}, "flags"),
            ("linear_combination", {"coefficients": [1, 1], "flags": None}, "flags"),
        ],
    )
    def test_malformed_parameter_rejected(self, name, params, bad):
        with pytest.raises(ConfigError, match=f"lagrangian {name} parameter '{bad}'"):
            resolve_lagrangian(name, params, 3)

    def test_json_numbers_accepted(self):
        spec = resolve_lagrangian("linear_combination", {"coefficients": 2}, 3)
        assert spec.parameters == {"coefficients": [2.0, 0.0, 0.0]}
        assert resolve_lagrangian("skyrme", {"c1": 1, "c2": 0}, 3).parameters == {
            "c1": 1.0, "c2": 0.0
        }

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown lagrangian"):
            resolve_lagrangian("nope", {}, 2)

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="missing parameter"):
            resolve_lagrangian("skyrme", {"c1": 1.0}, 2)


class TestRejectionSampler:
    def test_fills_restricted_domain(self, rng):
        spec = born_infeld(1.0, 2)
        pts = box_rejection_sampler(spec)(rng, 500)
        assert pts.shape == (500, 2)
        assert np.all(spec.domain_predicate(pts))

    def test_starvation_reports_acceptance_rate(self, rng):
        # Domain empty inside the box: v_0 >= 10 can never be drawn from [0, 5].
        spec = linear_combination([1.0])
        impossible = type(spec)(
            name=spec.name,
            dim=spec.dim,
            evaluate=spec.evaluate,
            gradient=spec.gradient,
            domain_predicate=lambda v: np.asarray(v)[..., 0] >= 10.0,
            flags=spec.flags,
            parameters=spec.parameters,
        )
        sampler = box_rejection_sampler(impossible, low=0.0, high=5.0)
        with pytest.raises(SamplerStarvationError) as info:
            sampler(rng, 10)
        assert info.value.acceptance_rate == 0.0


class TestVerifyFlags:
    def test_skyrme_audit_fully_clean(self):
        report = verify_flags(skyrme(1.0, 1.0, 3), sample_count=1000, seed=3)
        assert all(c.passed for c in report.checks)
        assert report.flag_mismatches == ()
        assert report.admissibility_failures == ()
        # Linearity makes sub-additivity an exact equality.
        assert report.check("subadditivity").violations == 0
        assert report.check("subadditivity").total > 100

    def test_minimal_surface_dimension_two_clean(self):
        report = verify_flags(minimal_surface(2), sample_count=1000, seed=5)
        assert all(c.passed for c in report.checks)

    def test_honest_negative_flags_are_not_mismatches(self):
        # Declared defocusing=False, so a failing defocusing check confirms
        # the declaration instead of refuting it.
        report = verify_flags(linear_combination([1.0, -5.0]), sample_count=500, seed=1)
        assert not report.check("defocusing").passed
        assert report.flag_mismatches == ()
        assert report.admissibility_failures == ()

    def test_misdeclared_defocusing_is_caught(self):
        lying = LagrangianFlags(defocusing=True, zeroed=True, nondegenerate=True)
        spec = linear_combination([1.0, -5.0], flags=lying)
        report = verify_flags(spec, sample_count=500, seed=1)
        assert "defocusing" in report.flag_mismatches
        assert not all(c.passed for c in report.checks)

    def test_born_infeld_subadditivity_defect_on_mixed_signs(self):
        # sqrt(c + w.v) - sqrt(c) is concave and zeroed but not sub-additive
        # once one argument is negative: the audit must expose that while the
        # declared flags themselves survive.
        report = verify_flags(born_infeld(1.0, 2), sample_count=1000, seed=7)
        assert report.flag_mismatches == ()
        assert report.admissibility_failures == ("subadditivity",)
        sub = report.check("subadditivity")
        assert sub.violations > 0
        assert sub.worst_margin < -1e-3

    def test_born_infeld_clean_on_nonnegative_cone(self):
        # Restricted to v >= 0 the function is concave through the origin in
        # a nonnegative direction, hence sub-additive: all checks pass.
        spec = born_infeld(1.0, 2)
        sampler = box_rejection_sampler(spec, low=0.0, high=5.0)
        report = verify_flags(spec, sample_count=1000, sampler=sampler, seed=7)
        assert all(c.passed for c in report.checks)

    def test_sampler_shape_contract(self):
        spec = wave_map(2)
        with pytest.raises(ConfigError, match="shape"):
            verify_flags(spec, sample_count=10, sampler=lambda rng, n: np.zeros((3, 2)))

    def test_sampler_domain_contract(self):
        spec = minimal_surface(2)
        bad = lambda rng, n: np.full((n, 2), -1.0)  # noqa: E731
        with pytest.raises(ConfigError, match="outside"):
            verify_flags(spec, sample_count=10, sampler=bad)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="at least 2"):
            verify_flags(wave_map(2), sample_count=1)

    def test_unknown_check_name_raises(self):
        report = verify_flags(wave_map(2), sample_count=10, seed=0)
        with pytest.raises(KeyError):
            report.check("no_such_check")
