"""Stress-energy: closed forms against the finite-difference variational
oracle, combination linearity, a-priori scale bounds, and the Gram-minor
decomposition of frame components."""

import numpy as np
import pytest

from straindec import (
    DomainError,
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    StepError,
    born_infeld,
    canonical_frame,
    charpoly_coefficients,
    linear_combination,
    minimal_surface,
    skyrme,
    strain,
    stress_elementary,
    stress_general,
    stress_scale,
    stress_scale_general,
    stress_variational,
    wave_map,
    wedge_decomposition,
)
from straindec.lagrangians import LagrangianSpec
from straindec.sampling import sample_geometry
from straindec.stress import batch_invariant_gradients


def _identity_geometry(dim=2):
    g = -np.eye(dim)
    g[1:, 1:] *= -1.0
    return PointGeometry(
        metric=LorentzianMetric(g),
        target_metric=RiemannianMetric(np.eye(dim)),
        dphi=np.eye(dim),
    )


def _rel_residual(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))))


def _in_domain_geometry(rng, spec, m_plus_1, n, tries=500):
    """Random geometry whose invariants sit comfortably inside spec's domain."""
    for _ in range(tries):
        geom = sample_geometry(m_plus_1, n, rng=rng)
        s = charpoly_coefficients(strain(geom).matrix)
        if spec.name == "minimal_surface":
            # keep clear of the square-root branch point for stable differences
            if s[spec.dim - 2] < 0.05:
                continue
        elif not bool(spec.domain_predicate(s)):
            continue
        return geom
    raise RuntimeError(f"could not sample a domain point for {spec.name}")


class TestElementary:
    def test_wave_map_identity_example(self):
        # j = 1, Minkowski identity data: s1 = 0 so T = pullback = I.
        t = stress_elementary(_identity_geometry(), 1)
        np.testing.assert_allclose(t.tensor, np.eye(2), atol=1e-14)
        assert t.provenance == "closed_form"
        assert t.lagrangian_name == "s_1"

    def test_degree_two_identity_example(self):
        # Same geometry, j = 2: T = diag(1/2, -1/2), energy 1/2, past flux.
        geom = _identity_geometry()
        t = stress_elementary(geom, 2).tensor
        np.testing.assert_allclose(t, np.diag([0.5, -0.5]), atol=1e-14)
        x = np.array([1.0, 0.0])
        assert float(x @ t @ x) == pytest.approx(0.5)
        y = geom.metric.inverse() @ t @ x
        np.testing.assert_allclose(y, [-0.5, 0.0], atol=1e-14)

    def test_zero_map_gives_zero_tensor(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.zeros((2, 3)),
        )
        for j in (1, 2, 3):
            np.testing.assert_array_equal(
                stress_elementary(geom, j).tensor, np.zeros((3, 3))
            )

    def test_degree_bounds(self):
        geom = _identity_geometry()
        with pytest.raises(ValueError):
            stress_elementary(geom, 0)
        with pytest.raises(ValueError):
            stress_elementary(geom, 3)

    def test_symmetric_output(self, rng):
        for _ in range(10):
            geom = sample_geometry(4, 3, rng=rng)
            for j in (1, 2, 3, 4):
                t = stress_elementary(geom, j).tensor
                assert np.max(np.abs(t - t.T)) < 1e-12 * max(1.0, np.max(np.abs(t)))


def _gradient(d, s_full, degree):
    """M_degree of one strain, from ``batch_invariant_gradients`` on a batch of one."""
    return batch_invariant_gradients(d[None], s_full[None])[0, degree - 1]


class TestGradientMatrix:
    def test_first_two_degrees(self):
        d = np.diag([-1.0, 1.0, 1.0])
        s_full = np.concatenate(([1.0], charpoly_coefficients(d)))
        np.testing.assert_allclose(_gradient(d, s_full, 1), np.eye(3))
        # M_2 = s_1 I - D.
        np.testing.assert_allclose(
            _gradient(d, s_full, 2),
            s_full[1] * np.eye(3) - d,
            atol=1e-14,
        )

    def test_trace_recovers_degree_times_invariant(self, rng):
        # tr(D M_j) = j s_j, the derivative identity behind the closed form.
        d = rng.uniform(-1, 1, size=(4, 4))
        s_full = np.concatenate(([1.0], charpoly_coefficients(d)))
        for j in (1, 2, 3, 4):
            m = _gradient(d, s_full, j)
            assert np.trace(d @ m) == pytest.approx(j * s_full[j], rel=1e-9, abs=1e-10)


class TestGeneral:
    def test_wave_map_reduces_to_first_elementary(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        a = stress_general(geom, wave_map(3)).tensor
        b = stress_elementary(geom, 1).tensor
        assert _rel_residual(a, b) < 1e-14

    def test_skyrme_combination_linearity(self):
        # g = diag(-1,1,1,1), h = I3, dphi = [I3 | 0]: componentwise sum.
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0, 1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(3)),
            dphi=np.hstack([np.eye(3), np.zeros((3, 1))]),
        )
        combo = stress_general(geom, skyrme(1.0, 1.0, 4)).tensor
        parts = stress_elementary(geom, 1).tensor + stress_elementary(geom, 2).tensor
        assert np.max(np.abs(combo - parts)) < 1e-12

    def test_linear_combination_weights(self, rng):
        geom = sample_geometry(3, 3, rng=rng)
        coeffs = [0.7, -1.3, 2.1]
        combo = stress_general(geom, linear_combination(coeffs)).tensor
        parts = sum(
            c * stress_elementary(geom, j + 1).tensor for j, c in enumerate(coeffs)
        )
        assert _rel_residual(combo, parts) < 1e-12

    def test_domain_violation_raises(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.array([[3.0, 0.0], [0.0, 0.0]]),
        )
        # s = (-9, 0) puts the root argument at -8, outside the domain.
        with pytest.raises(DomainError):
            stress_general(geom, born_infeld(1.0, 2))

    def test_dimension_mismatch(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        with pytest.raises(ValueError, match="dimension"):
            stress_general(geom, wave_map(2))


class TestVariationalOracle:
    def test_wave_map_identity(self):
        t = stress_variational(_identity_geometry(), wave_map(2))
        np.testing.assert_allclose(t.tensor, np.eye(2), atol=1e-8)
        assert t.provenance == "variational_oracle"

    def test_elementary_degree_two_identity(self):
        t = stress_variational(_identity_geometry(), linear_combination([0.0, 1.0]))
        np.testing.assert_allclose(t.tensor, np.diag([0.5, -0.5]), atol=1e-8)

    def test_zero_map_zero_tensor(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.zeros((2, 2)),
        )
        t = stress_variational(geom, wave_map(2))
        assert np.max(np.abs(t.tensor)) < 1e-10

    def test_agrees_with_closed_form_across_builtins(self, rng):
        specs = [
            wave_map(3),
            skyrme(1.0, 1.0, 3),
            born_infeld(2.0, 3),
            linear_combination([0.5, 1.5, -0.4]),
            minimal_surface(3),
        ]
        for spec in specs:
            for _ in range(6):
                geom = _in_domain_geometry(rng, spec, 3, 3)
                closed = stress_general(geom, spec).tensor
                oracle = stress_variational(geom, spec).tensor
                assert _rel_residual(closed, oracle) < 1e-6

    def test_richardson_tightens_agreement(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        spec = skyrme(1.0, 1.0, 3)
        closed = stress_general(geom, spec).tensor
        refined = stress_variational(geom, spec, richardson=True).tensor
        assert _rel_residual(closed, refined) < 1e-8

    def test_step_error_when_domain_admits_no_step(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        s0 = charpoly_coefficients(
            geom.metric.inverse() @ geom.pullback()
        )
        # Domain = the single base point: every finite-difference stencil
        # leaves it, so all step retries are consumed.
        pin = LagrangianSpec(
            name="pinned",
            dim=2,
            evaluate=lambda v: np.sum(np.asarray(v), axis=-1),
            gradient=lambda v: np.ones(np.shape(v)),
            domain_predicate=lambda v: np.all(
                np.abs(np.asarray(v) - s0) <= 1e-12, axis=-1
            ),
            flags=wave_map(2).flags,
        )
        with pytest.raises(StepError, match="step"):
            stress_variational(geom, pin)

    def test_rejects_nonpositive_step(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        with pytest.raises(ValueError, match="positive"):
            stress_variational(geom, wave_map(2), step=0.0)

    def test_base_point_domain_check(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.array([[3.0, 0.0], [0.0, 0.0]]),
        )
        with pytest.raises(DomainError):
            stress_variational(geom, born_infeld(1.0, 2))


class TestScales:
    def test_elementary_scale_bounds_norm(self, rng):
        for _ in range(15):
            geom = sample_geometry(4, 3, rng=rng)
            for j in (1, 2, 3, 4):
                tnorm = float(np.linalg.norm(stress_elementary(geom, j).tensor))
                assert tnorm <= stress_scale(geom, j) * (1.0 + 1e-12)

    def test_general_scale_bounds_norm(self, rng):
        spec = skyrme(2.0, 0.5, 3)
        for _ in range(15):
            geom = sample_geometry(3, 3, rng=rng)
            tnorm = float(np.linalg.norm(stress_general(geom, spec).tensor))
            assert tnorm <= stress_scale_general(geom, spec) * (1.0 + 1e-12)

    @pytest.mark.parametrize("stress_fn", [stress_general, stress_scale_general])
    def test_general_scale_validates_like_the_tensor(self, stress_fn):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(3)),
            dphi=np.diag([2.0, 0.0, 0.0]),
        )
        # s = (-4, 0, 0) puts det(b I + D) at -0.875, outside born_infeld(0.5)'s domain.
        with pytest.raises(DomainError):
            stress_fn(geom, born_infeld(0.5, 3))
        with pytest.raises(ValueError, match="lagrangian dimension 2 does not match geometry 3"):
            stress_fn(geom, wave_map(2))


class TestWedgeDecomposition:
    def test_zero_map_all_zero(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(3)),
            dphi=np.zeros((3, 3)),
        )
        frame = canonical_frame(geom.metric)
        for j in (1, 2, 3):
            w = wedge_decomposition(geom, j, frame)
            assert w.perp_sum == 0.0 and w.parallel_sum == 0.0
            np.testing.assert_array_equal(w.mixed_terms, 0.0)

    def test_degree_one_identity_example(self):
        geom = _identity_geometry()
        w = wedge_decomposition(geom, 1, canonical_frame(geom.metric))
        assert w.perp_sum == pytest.approx(1.0)
        assert w.parallel_sum == pytest.approx(1.0)
        assert w.energy == pytest.approx(1.0)

    def test_degree_two_energy_split(self):
        geom = _identity_geometry(3)
        w = wedge_decomposition(geom, 2, canonical_frame(geom.metric))
        t = stress_elementary(geom, 2).tensor
        e0 = np.array([1.0, 0.0, 0.0])
        assert w.perp_sum + w.parallel_sum == pytest.approx(
            2.0 * float(e0 @ t @ e0), abs=1e-12
        )
        assert w.energy == pytest.approx(1.5)

    def test_energy_and_momentum_match_contraction(self, rng):
        for m_plus_1 in (2, 3, 4):
            for _ in range(8):
                geom = sample_geometry(m_plus_1, 3, rng=rng)
                frame = canonical_frame(geom.metric)
                for j in range(1, m_plus_1 + 1):
                    w = wedge_decomposition(geom, j, frame)
                    t = stress_elementary(geom, j).tensor
                    e0 = frame.vector(0)
                    want_e = float(e0 @ t @ e0)
                    scale = max(1.0, abs(want_e))
                    assert abs(w.energy - want_e) < 1e-9 * scale
                    for i in range(1, m_plus_1):
                        want_m = float(e0 @ t @ frame.vector(i))
                        assert abs(w.momentum[i - 1] - want_m) < 1e-9 * max(
                            1.0, abs(want_m)
                        )

    def test_cauchy_schwarz_chain(self, rng):
        # Sum of squared momenta never beats the squared energy.
        for _ in range(20):
            geom = sample_geometry(3, 3, rng=rng)
            frame = canonical_frame(geom.metric)
            for j in (1, 2, 3):
                w = wedge_decomposition(geom, j, frame)
                lhs = float(np.sum(w.momentum**2))
                assert lhs <= w.energy**2 + 1e-9 * max(1.0, w.energy**2)

    def test_invalid_frame_rejected(self, rng):
        geom = sample_geometry(3, 2, rng=rng)
        from straindec import OrthonormalFrame

        with pytest.raises(ValueError, match="orthonormality"):
            wedge_decomposition(geom, 1, OrthonormalFrame(np.eye(3) * 3.0))

    def test_degree_bounds(self, rng):
        geom = sample_geometry(2, 2, rng=rng)
        frame = canonical_frame(geom.metric)
        with pytest.raises(ValueError):
            wedge_decomposition(geom, 0, frame)
        with pytest.raises(ValueError):
            wedge_decomposition(geom, 3, frame)
