"""Strain tensors and the three invariant routes, checked against eigenvalue
subset sums and an elimination-based rank oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    elementary_from_eigenvalues,
    elimination_rank,
    random_metric_entries,
    random_spd_entries,
)
from straindec import (
    LorentzianMetric,
    PointGeometry,
    RiemannianMetric,
    charpoly_coefficients,
    derive_rng,
    invariants_charpoly,
    invariants_newton,
    invariants_wedge,
    power_sums,
    rank_of_map,
    resolve_lagrangian,
    strain,
)
from straindec.dec import CheckStack
from straindec.sampling import sample_geometry


def _identity_geometry():
    return PointGeometry(
        metric=LorentzianMetric(np.diag([-1.0, 1.0])),
        target_metric=RiemannianMetric(np.eye(2)),
        dphi=np.eye(2),
    )


class TestStrainTensor:
    def test_identity_pullback(self):
        st_ = strain(_identity_geometry())
        np.testing.assert_allclose(st_.pullback, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(st_.matrix, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_zero_map(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.zeros((2, 3)),
        )
        st_ = strain(geom)
        np.testing.assert_array_equal(st_.matrix, np.zeros((3, 3)))

    def test_rank_one_map(self):
        geom = PointGeometry(
            metric=LorentzianMetric(np.diag([-1.0, 1.0])),
            target_metric=RiemannianMetric(np.eye(2)),
            dphi=np.array([[1.0, 0.0], [0.0, 0.0]]),
        )
        st_ = strain(geom)
        np.testing.assert_allclose(st_.pullback, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(st_.matrix, np.diag([-1.0, 0.0]), atol=1e-14)

    def test_pullback_is_psd(self, rng):
        for _ in range(20):
            geom = sample_geometry(4, 3, rng=rng)
            w = np.linalg.eigvalsh(strain(geom).pullback)
            assert w[0] >= -1e-10 * max(1.0, w[-1])

    def test_rejects_wrong_dphi_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PointGeometry(
                metric=LorentzianMetric(np.diag([-1.0, 1.0])),
                target_metric=RiemannianMetric(np.eye(2)),
                dphi=np.eye(3),
            )

    def test_rejects_nonfinite_dphi(self):
        with pytest.raises(ValueError, match="finite"):
            PointGeometry(
                metric=LorentzianMetric(np.diag([-1.0, 1.0])),
                target_metric=RiemannianMetric(np.eye(2)),
                dphi=np.array([[np.nan, 0.0], [0.0, 0.0]]),
            )


class TestPowerSums:
    def test_diagonal_example(self):
        # D = diag(-1, 1, 1): p_1 = 1, p_2 = 3, p_3 = 1.
        np.testing.assert_allclose(
            power_sums(np.diag([-1.0, 1.0, 1.0])), [1.0, 3.0, 1.0], atol=1e-14
        )


class TestInvariantRoutes:
    def test_diagonal_example_all_routes(self):
        # (lambda + 1)(lambda - 1)^2 expands to s = (1, -1, -1).
        d = np.diag([-1.0, 1.0, 1.0])
        for route in (invariants_charpoly, invariants_newton, invariants_wedge):
            iv = route(d)
            np.testing.assert_allclose(iv.s, [1.0, -1.0, -1.0], atol=1e-13)
            np.testing.assert_allclose(iv.power_sums, [1.0, 3.0, 1.0], atol=1e-13)

    def test_newton_closes_the_diagonal_example(self):
        # s_2 = (p_1^2 - p_2) / 2 for the same matrix.
        p = power_sums(np.diag([-1.0, 1.0, 1.0]))
        assert (p[0] ** 2 - p[1]) / 2.0 == pytest.approx(-1.0, abs=1e-14)

    def test_zero_matrix(self):
        for route in (invariants_charpoly, invariants_newton, invariants_wedge):
            np.testing.assert_array_equal(route(np.zeros((4, 4))).s, np.zeros(4))

    def test_agreement_against_eigenvalue_oracle(self, rng):
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                d = rng.uniform(-1.0, 1.0, size=(dim, dim))
                eigs = np.linalg.eigvals(d)
                want = np.array(
                    [elementary_from_eigenvalues(eigs, j).real for j in range(1, dim + 1)]
                )
                for route in (invariants_charpoly, invariants_newton, invariants_wedge):
                    got = route(d).s
                    denom = np.maximum(1.0, np.abs(want))
                    assert np.max(np.abs(got - want) / denom) < 1e-9

    def test_three_routes_agree_on_strains(self, rng):
        for _ in range(25):
            geom = sample_geometry(4, 3, rng=rng)
            d = strain(geom).matrix
            a = invariants_charpoly(d).s
            b = invariants_newton(d).s
            c = invariants_wedge(d).s
            denom = np.maximum(1.0, np.abs(a))
            assert np.max(np.abs(a - b) / denom) < 1e-9
            assert np.max(np.abs(a - c) / denom) < 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "batch_route_residual divides by max(1, |s|), not by the size of the "
        "terms that cancel; the fix moves margins, so it waits for schema v2"
    ))
    def test_routes_agree_at_the_default_entry_range(self):
        # A false invariant_routes failure at entry_range 1: sample 5453 of
        # seed 61 has s = [57.35, 1.09, -2.44, -0.073], and the routes differ
        # by 1.27e-9 relative to max(1, |s_j|), past the 1e-9 tolerance.
        # perfbench's dense-directions workload reads correct 0 at --seed 61.
        geom = sample_geometry(4, 4, rng=derive_rng(61, 5453))
        lagr = resolve_lagrangian("skyrme", {"c1": 1.0, "c2": 1.0}, 4)
        assert CheckStack.at(geom, lagr).invariant_routes[0]

    @given(
        d=hnp.arrays(
            dtype=np.float64,
            shape=st.sampled_from([(2, 2), (3, 3), (4, 4)]),
            elements=st.floats(min_value=-1.0, max_value=1.0),
        )
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_newton_identity_holds_for_charpoly_route(self, d):
        # j s_j = sum_i (-1)^(i-1) s_{j-i} p_i ties the two routes together.
        dim = d.shape[0]
        s = charpoly_coefficients(d)
        p = power_sums(d)
        s_full = np.concatenate(([1.0], s))
        for j in range(1, dim + 1):
            acc = sum(
                (-1.0) ** (i - 1) * s_full[j - i] * p[i - 1] for i in range(1, j + 1)
            )
            scale = max(1.0, abs(acc), abs(j * s_full[j]))
            assert abs(j * s_full[j] - acc) <= 1e-10 * scale

    def test_top_invariant_is_determinant(self, rng):
        d = rng.uniform(-1.0, 1.0, size=(4, 4))
        assert invariants_charpoly(d).s[-1] == pytest.approx(
            np.linalg.det(d), rel=1e-10, abs=1e-12
        )

    def test_basis_independence(self, rng):
        # A coordinate change g -> S^T g S, dphi -> dphi S conjugates the
        # strain, so the invariants cannot move.
        geom = sample_geometry(3, 3, rng=rng)
        s_mat = np.eye(3) + 0.3 * rng.uniform(-1, 1, size=(3, 3))
        changed = PointGeometry(
            metric=LorentzianMetric(s_mat.T @ geom.metric.entries @ s_mat),
            target_metric=geom.target_metric,
            dphi=geom.dphi @ s_mat,
        )
        a = invariants_charpoly(strain(geom).matrix)
        b = invariants_charpoly(strain(changed).matrix)
        denom = np.maximum(1.0, np.abs(a.s))
        assert np.max(np.abs(a.s - b.s) / denom) < 1e-9
        assert rank_of_map(geom.dphi) == rank_of_map(changed.dphi)


class TestRank:
    def test_zero_map_rank(self):
        assert rank_of_map(np.zeros((2, 2))) == 0

    def test_rank_one_example(self):
        assert rank_of_map(np.array([[1.0, 0.0], [0.0, 0.0]])) == 1

    def test_matches_elimination_oracle(self, rng):
        for _ in range(20):
            rows, cols = rng.integers(1, 5, size=2)
            r = int(rng.integers(0, min(rows, cols) + 1))
            if r == 0:
                a = np.zeros((rows, cols))
            else:
                a = rng.uniform(-1, 1, size=(rows, r)) @ rng.uniform(
                    -1, 1, size=(r, cols)
                )
            assert rank_of_map(a) == elimination_rank(a) == r

    def test_rank_override_geometries(self, rng):
        for r in (0, 1, 2, 3):
            geom = sample_geometry(4, 3, rank_override=r, rng=rng)
            assert rank_of_map(geom.dphi) == r

    def test_invariants_vanish_beyond_rank(self, rng):
        for r in (0, 1, 2):
            for _ in range(10):
                geom = sample_geometry(4, 3, rank_override=r, rng=rng)
                s = CheckStack.at(geom).s[0]
                dnorm = float(np.linalg.norm(strain(geom).matrix))
                for j in range(r + 1, 5):
                    assert abs(s[j - 1]) <= 1e-9 * max(1.0, dnorm) ** j


class TestStrainInvariants:
    def test_wrapper_consistency(self, rng):
        # The invariants the batched kernels read are the charpoly route's.
        geom = sample_geometry(3, 2, rng=rng)
        stack = CheckStack.at(geom)
        (pull, d), s = stack.strain, stack.s
        st = strain(geom)
        np.testing.assert_array_equal(pull[0], st.pullback)
        np.testing.assert_array_equal(d[0], st.matrix)
        np.testing.assert_array_equal(s[0], charpoly_coefficients(st.matrix))
        np.testing.assert_array_equal(stack.g[0], geom.metric.entries)
