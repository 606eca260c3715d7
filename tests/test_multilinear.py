"""Exterior powers, metrics, frames, and causal classification.

Oracles: cofactor-expansion determinants for compound entries, explicit
eigenvalue subset sums for compound traces.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cofactor_det, elementary_from_eigenvalues, random_metric_entries
from straindec import (
    CausalClass,
    ConditioningError,
    LorentzianMetric,
    OrthonormalFrame,
    RiemannianMetric,
    canonical_frame,
    causal_classify,
    exterior_power,
    induced_metric_on_wedge,
    orthonormalize,
    principal_minor_sum,
    wedge_basis,
)
from straindec.multilinear import (
    CONTRACT_MAX_DEPTH,
    CONTRACT_MIN_ROWS,
    batch_contract,
    canonical_frames,
    lane_sum,
)

MINK2 = LorentzianMetric(np.diag([-1.0, 1.0]))


class TestMetricValidation:
    def test_accepts_minkowski(self):
        g = LorentzianMetric(np.diag([-1.0, 1.0, 1.0]))
        assert g.dim == 3
        assert g.inner([1, 0, 0], [1, 0, 0]) == -1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            LorentzianMetric(np.array([[-1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_positive_definite(self):
        with pytest.raises(ValueError, match="signature"):
            LorentzianMetric(np.eye(2))

    def test_rejects_two_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="signature"):
            LorentzianMetric(np.diag([-1.0, -1.0, 1.0]))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(ConditioningError):
            LorentzianMetric(np.diag([-1.0, 1e-9]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            LorentzianMetric(np.zeros((2, 3)))

    def test_inverse_roundtrip(self, rng):
        g = LorentzianMetric(random_metric_entries(rng, 4))
        np.testing.assert_allclose(
            g.inverse() @ g.entries, np.eye(4), atol=1e-12
        )

    def test_riemannian_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive"):
            RiemannianMetric(np.diag([1.0, -1.0]))

    def test_riemannian_accepts_spd(self, rng):
        a = rng.uniform(-1, 1, size=(3, 3))
        h = RiemannianMetric(a.T @ a + 0.1 * np.eye(3))
        assert h.dim == 3


class TestWedgeBasis:
    def test_lexicographic_order(self):
        b = wedge_basis(4, 2)
        assert b.multi_indices == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert b.size == 6

    def test_degree_zero_single_empty_index(self):
        b = wedge_basis(3, 0)
        assert b.multi_indices == ((),)
        assert b.size == 1

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            wedge_basis(3, 4)


class TestExteriorPower:
    def test_degree_one_returns_matrix(self, rng):
        a = rng.uniform(-1, 1, size=(4, 4))
        np.testing.assert_array_equal(exterior_power(a, 1), a)

    def test_diagonal_example(self):
        # A = diag(-1, 1, 1), degree 2: minors diag(-1, -1, 1), trace -1.
        out = exterior_power(np.diag([-1.0, 1.0, 1.0]), 2)
        np.testing.assert_allclose(out, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)
        assert np.trace(out) == pytest.approx(-1.0, abs=1e-14)

    def test_identity_any_degree(self):
        for degree in (1, 2, 3, 4):
            out = exterior_power(np.eye(4), degree)
            np.testing.assert_allclose(out, np.eye(out.shape[0]), atol=1e-14)

    def test_top_degree_is_determinant(self, rng):
        a = rng.uniform(-1, 1, size=(4, 4))
        out = exterior_power(a, 4)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(cofactor_det(a), rel=1e-12)

    def test_entries_are_minors(self, rng):
        a = rng.uniform(-1, 1, size=(5, 5))
        basis = wedge_basis(5, 3)
        out = exterior_power(a, 3)
        for row, col in [(0, 0), (2, 7), (9, 4), (5, 5)]:
            sub = a[np.ix_(basis.multi_indices[row], basis.multi_indices[col])]
            assert out[row, col] == pytest.approx(cofactor_det(sub), rel=1e-10, abs=1e-12)

    def test_functoriality_cauchy_binet(self, rng):
        # Compound of a product is the product of compounds.
        for degree in (2, 3):
            a = rng.uniform(-1, 1, size=(4, 4))
            b = rng.uniform(-1, 1, size=(4, 4))
            lhs = exterior_power(a @ b, degree)
            rhs = exterior_power(a, degree) @ exterior_power(b, degree)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)

    def test_trace_equals_eigenvalue_subset_sums(self, rng):
        a = rng.uniform(-1, 1, size=(5, 5))
        eigs = np.linalg.eigvals(a)
        for degree in range(1, 6):
            want = elementary_from_eigenvalues(eigs, degree)
            assert abs(want.imag) < 1e-9
            got = np.trace(exterior_power(a, degree))
            assert got == pytest.approx(want.real, rel=1e-9, abs=1e-10)

    def test_principal_minor_sum_matches_compound_trace(self, rng):
        a = rng.uniform(-1, 1, size=(5, 5))
        for degree in range(1, 6):
            assert principal_minor_sum(a, degree) == pytest.approx(
                float(np.trace(exterior_power(a, degree))), rel=1e-12, abs=1e-12
            )

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            exterior_power(np.eye(3), 0)
        with pytest.raises(ValueError):
            exterior_power(np.eye(3), 4)


class TestInducedWedgeMetric:
    def test_identity(self):
        np.testing.assert_allclose(
            induced_metric_on_wedge(np.eye(4), 2), np.eye(6), atol=1e-14
        )

    def test_minkowski_signature_split(self):
        # Wedges containing the timelike leg get norm -1, the rest +1.
        out = induced_metric_on_wedge(np.diag([-1.0, 1.0, 1.0]), 2)
        np.testing.assert_allclose(out, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    def test_psd_form_induces_psd_gram(self, rng):
        a = rng.uniform(-1, 1, size=(3, 5))
        q = a.T @ a  # rank 3 PSD on a 5-dim space
        for degree in (1, 2, 3):
            w = np.linalg.eigvalsh(induced_metric_on_wedge(q, degree))
            assert w[0] >= -1e-10 * max(1.0, w[-1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            induced_metric_on_wedge(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)


class TestOrthonormalize:
    def test_rescales_already_orthogonal_seed(self):
        frame = orthonormalize(MINK2, [2.0, 0.0])
        np.testing.assert_allclose(frame.basis, np.eye(2), atol=1e-14)

    def test_normalization_forces_half(self):
        g = LorentzianMetric(np.diag([-4.0, 1.0]))
        frame = orthonormalize(g, [1.0, 0.0])
        np.testing.assert_allclose(frame.vector(0), [0.5, 0.0], atol=1e-14)
        frame.validate(g)

    def test_random_metrics_give_orthonormal_frames(self, rng):
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                g = LorentzianMetric(random_metric_entries(rng, dim))
                base = canonical_frame(g)
                # tilt the timelike leg to exercise a non-coordinate seed
                seed = base.vector(0) + 0.3 * base.vector(1)
                frame = orthonormalize(g, seed)
                frame.validate(g)

    def test_seed_whose_largest_component_is_spacelike(self):
        # g has eigenvalues 3 and -1, and g(s, s) = -0.75 for s = (0.5, -1):
        # the pivot left out of the sweep is e_1, the spacelike coordinate.
        g = LorentzianMetric(np.array([[1.0, 2.0], [2.0, 1.0]]))
        seed = np.array([0.5, -1.0])
        assert g.inner(seed, seed) == -0.75
        frame = orthonormalize(g, seed)
        frame.validate(g)
        np.testing.assert_array_equal(frame.vector(0), seed / np.sqrt(0.75))

    def test_rejects_spacelike_seed(self):
        with pytest.raises(ValueError, match="timelike"):
            orthonormalize(MINK2, [0.0, 1.0])

    def test_rejects_null_seed(self):
        with pytest.raises(ValueError, match="timelike"):
            orthonormalize(MINK2, [1.0, 1.0])

    def test_rejects_wrong_shape_seed(self):
        with pytest.raises(ValueError, match="shape"):
            orthonormalize(MINK2, [1.0, 0.0, 0.0])


class TestCanonicalFrame:
    def test_coordinate_seed_when_timelike(self):
        frame = canonical_frame(LorentzianMetric(np.diag([-4.0, 1.0])))
        np.testing.assert_allclose(frame.vector(0), [0.5, 0.0], atol=1e-14)

    def test_eigenvector_seed_when_coordinate_spacelike(self):
        # Rotate Minkowski so the first coordinate direction is spacelike.
        c, s = np.cos(1.2), np.sin(1.2)
        r = np.array([[c, -s], [s, c]])
        g = LorentzianMetric(r.T @ np.diag([-1.0, 1.0]) @ r)
        assert g.entries[0, 0] > 0.0
        frame = canonical_frame(g)
        frame.validate(g)

    def test_stack_redoes_exactly_the_spacelike_e0_rows(self, rng):
        # Sampled metrics have a timelike e_0; rotating Minkowski space makes
        # it spacelike, and canonical_frames must redo just those rows.
        dim = 3
        rows = [random_metric_entries(rng, dim) for _ in range(6)]
        for angle in (1.0, 1.2, 1.4):
            c, s = np.cos(angle), np.sin(angle)
            r = np.eye(dim)
            r[:2, :2] = [[c, -s], [s, c]]
            rows.insert(2 * len(rows) // 3, r.T @ np.diag([-1.0, 1.0, 2.0]) @ r)
        g = np.array(rows)
        spacelike = g[:, 0, 0] > 0.0
        assert spacelike.sum() == 3
        frames, redone = canonical_frames(g)
        assert redone == 3
        for k in range(len(g)):
            OrthonormalFrame(frames[k]).validate(LorentzianMetric(g[k]))
            alone, redone_alone = canonical_frames(g[k : k + 1])
            np.testing.assert_array_equal(frames[k], alone[0])
            assert redone_alone == int(spacelike[k])

    def test_deterministic(self, rng):
        g = LorentzianMetric(random_metric_entries(rng, 4))
        a = canonical_frame(g)
        b = canonical_frame(g)
        np.testing.assert_array_equal(a.basis, b.basis)

    def test_frame_validate_rejects_bad_gram(self):
        frame = OrthonormalFrame(np.eye(2) * 2.0)
        with pytest.raises(ValueError, match="orthonormality"):
            frame.validate(MINK2)


class TestCausalClassify:
    @pytest.mark.parametrize(
        "vector, expected",
        [
            ([-1.0, 0.0], CausalClass.PAST_TIMELIKE),
            ([-1.0, 1.0], CausalClass.PAST_NULL),
            ([0.0, 1.0], CausalClass.SPACELIKE),
            ([1.0, 0.0], CausalClass.FUTURE_TIMELIKE),
            ([1.0, 1.0], CausalClass.FUTURE_NULL),
            ([0.0, 0.0], CausalClass.ZERO),
        ],
    )
    def test_minkowski_table(self, vector, expected):
        assert causal_classify(MINK2, [1.0, 0.0], vector) is expected

    def test_rejects_non_timelike_reference(self):
        with pytest.raises(ValueError, match="timelike"):
            causal_classify(MINK2, [0.0, 1.0], [1.0, 0.0])

    def test_near_null_band_is_relative(self):
        # A hair inside the null cone still classifies null at tol 1e-9.
        y = np.array([1.0, 1.0 - 1e-12])
        assert causal_classify(MINK2, [1.0, 0.0], y) is CausalClass.FUTURE_NULL
        # Far enough inside it becomes timelike.
        y = np.array([1.0, 0.9])
        assert causal_classify(MINK2, [1.0, 0.0], y) is CausalClass.FUTURE_TIMELIKE

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        t=st.floats(min_value=-2.0, max_value=2.0),
        z=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_invariant_under_positive_rescaling(self, scale, t, z):
        y = np.array([t, z])
        norm2 = float(y @ y)
        # Stay clear of the zero floor and of the null-band decision boundary,
        # where one-ulp rounding of scale*y can legitimately flip the verdict.
        assume(norm2 > 1e-8)
        qhat = abs(z * z - t * t) / (np.sqrt(2.0) * norm2)
        assume(abs(qhat - 1e-9) > 1e-11)
        base = causal_classify(MINK2, [1.0, 0.0], y)
        assert causal_classify(MINK2, [1.0, 0.0], scale * y) is base

    @given(
        t=st.floats(min_value=-2.0, max_value=2.0),
        z=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_negation_swaps_time_orientation(self, t, z):
        y = np.array([t, z])
        cls = causal_classify(MINK2, [1.0, 0.0], y)
        neg = causal_classify(MINK2, [1.0, 0.0], -y)
        swap = {
            CausalClass.FUTURE_TIMELIKE: CausalClass.PAST_TIMELIKE,
            CausalClass.PAST_TIMELIKE: CausalClass.FUTURE_TIMELIKE,
            CausalClass.FUTURE_NULL: CausalClass.PAST_NULL,
            CausalClass.PAST_NULL: CausalClass.FUTURE_NULL,
            CausalClass.SPACELIKE: CausalClass.SPACELIKE,
            CausalClass.ZERO: CausalClass.ZERO,
        }
        assert neg is swap[cls]

    def test_past_causal_predicate(self):
        assert CausalClass.PAST_NULL.is_past_causal
        assert CausalClass.PAST_TIMELIKE.is_past_causal
        assert not CausalClass.FUTURE_NULL.is_past_causal
        assert not CausalClass.ZERO.is_past_causal
        assert CausalClass.PAST_NULL.is_causal
        assert not CausalClass.SPACELIKE.is_causal


class TestBatchContract:
    """batch_contract returns the bits of np.einsum("bkl,bdl->bdk"), signed zeros included."""

    @staticmethod
    def _check(monkeypatch, m, x, kernel=True):
        """Compare with einsum; with ``kernel`` the lane kernel must run, not einsum."""
        want = np.einsum("bkl,bdl->bdk", m, x)
        if kernel:
            def refuse(*args, **kwargs):
                raise AssertionError("batch_contract fell back to np.einsum")

            monkeypatch.setattr(np, "einsum", refuse)
        got = batch_contract(m, x)
        monkeypatch.undo()
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def _signed_zeros(m, x):
        """Rows of +0, -0 and zero matrices, and products of either sign that cancel."""
        m[0] = 0.0
        m[1] = -0.0
        x[2] = -0.0
        m[3, :, ::2] = -0.0
        x[3, :, 1::2] = -0.0
        x[4, :, :] = 0.0
        m[4] = -np.abs(m[4])
        m[5] = 1.0
        x[5, :, 0] = 2.0
        x[5, :, 1:] = -2.0 / max(x.shape[2] - 1, 1)
        return m, x

    @pytest.mark.parametrize("rows", [1, 8, 256])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_equals_einsum(self, monkeypatch, dim, rows):
        rng = np.random.default_rng(100 * dim + rows)
        batch = max(2 * CONTRACT_MIN_ROWS // rows, 6) + 3
        m = rng.standard_normal((batch, dim, dim))
        x = rng.standard_normal((batch, rows, dim))
        self._check(monkeypatch, *self._signed_zeros(m, x))

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_sliced_frame_operand(self, monkeypatch, dim):
        """The spatial legs frames[:, :, 1:] against (B, K, dim - 1) unit normals."""
        rng = np.random.default_rng(dim)
        frames = rng.standard_normal((12, dim, dim))
        unit = rng.standard_normal((12, 256, dim - 1))
        frames[0, :, 1:] = -0.0
        unit[1] = 0.0
        self._check(monkeypatch, frames[:, :, 1:], unit)

    @pytest.mark.parametrize(
        "batch, rows", [(1, 1023), (1, 1024), (341, 3), (256, 4), (3, 341), (4, 256)]
    )
    def test_either_side_of_the_size_rule(self, monkeypatch, batch, rows):
        rng = np.random.default_rng(batch)
        m = rng.standard_normal((batch, 4, 4))
        x = rng.standard_normal((batch, rows, 4))
        self._check(monkeypatch, m, x, kernel=batch * rows >= CONTRACT_MIN_ROWS)

    @pytest.mark.parametrize("depth", [CONTRACT_MAX_DEPTH, CONTRACT_MAX_DEPTH + 1])
    def test_either_side_of_the_depth_rule(self, monkeypatch, depth):
        rng = np.random.default_rng(depth)
        m = rng.standard_normal((8, depth, depth))
        x = rng.standard_normal((8, 256, depth))
        self._check(monkeypatch, m, x, kernel=depth <= CONTRACT_MAX_DEPTH)

    def test_strided_operand_goes_to_einsum(self, monkeypatch):
        # einsum sums a strided last axis in another order than the lanes.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 4, 4))
        x = rng.standard_normal((8, 256, 8))[:, :, ::2]
        self._check(monkeypatch, m, x, kernel=False)

    def test_nonfinite_entries_match_silently(self, monkeypatch):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 4, 4))
        x = rng.standard_normal((8, 256, 4))
        m[0, 0, 0] = np.inf
        m[1, :, 0] = np.inf
        x[1, :, 0] = 0.0
        x[2, 5, 3] = np.nan
        with np.errstate(all="raise"):
            self._check(monkeypatch, m, x)


class TestLaneSum:
    """lane_sum, the one copy of einsum's two-lane order, on (B, K) rows.

    Up to CONTRACT_MAX_DEPTH terms it gives the bits of batch_contract's
    einsum for any number of rows, below and above CONTRACT_MIN_ROWS; einsum
    unrolls longer sums four vectors at a time, so one term more is out of
    its reach.
    """

    @staticmethod
    def _lanes(m, x):
        """lane_sum of m[:, l, None] * x[:, :, l] into a fresh (B, K) row."""
        depth = x.shape[2]
        out = np.empty(x.shape[:2])
        got = lane_sum(
            [m[:, l, None] for l in range(depth)],
            [x[:, :, l] for l in range(depth)],
            out,
            np.empty((3,) + out.shape),
        )
        assert got is out
        return got

    @staticmethod
    def _einsum(m, x):
        return np.einsum("bkl,bdl->bdk", m[:, None, :], x)[:, :, 0]

    @pytest.mark.parametrize("rows", [CONTRACT_MIN_ROWS - 1, CONTRACT_MIN_ROWS])
    @pytest.mark.parametrize("depth", range(1, CONTRACT_MAX_DEPTH + 1))
    def test_equals_einsum(self, depth, rows):
        rng = np.random.default_rng(10 * depth + rows)
        m = rng.standard_normal((6, depth))
        x = rng.standard_normal((6, rows, depth))
        m[0] = -0.0
        x[1] = -0.0
        m[2, ::2] = -0.0
        x[2, :, 1::2] = 0.0
        m[3, 0] = np.inf
        x[4, 7, -1] = np.nan
        x[5, 3] = 1e300
        with np.errstate(all="raise"):
            got = self._lanes(m, x)
        want = self._einsum(m, x)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_einsum_orders_deeper_sums_otherwise(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, CONTRACT_MAX_DEPTH + 1))
        x = rng.standard_normal((8, 256, CONTRACT_MAX_DEPTH + 1))
        assert not np.array_equal(self._lanes(m, x), self._einsum(m, x))
