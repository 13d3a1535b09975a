"""Power-family means of compositions.

The mean interpolates between the closed geometric mean (alpha = 0) and
the re-closed arithmetic mean (alpha = 1); weighted and path variants
share the same kernel.
"""

import numpy as np
import pytest

from simplexreg import (
    DegenerateInputError,
    ValidationError,
    ZeroNotAllowedError,
    closure,
    frechet_mean,
    frechet_path,
    weighted_frechet_mean,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFrechetMean:
    def test_single_row(self):
        u = np.array([[0.2, 0.3, 0.5]])
        for a in (-1.0, 0.0, 0.5, 1.0):
            assert np.allclose(frechet_mean(u, a), u[0], atol=1e-15)

    def test_mirrored_pair_is_centered(self):
        U = np.array([[0.2, 0.8], [0.8, 0.2]])
        for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
            m = frechet_mean(U, a)
            assert np.array_equal(m, [0.5, 0.5])

    def test_alpha_one_is_arithmetic_mean(self, rng):
        U = closure(rng.random((60, 5)) + 0.01)
        m = frechet_mean(U, 1.0)
        assert np.max(np.abs(m - U.mean(axis=0))) <= 1e-12

    def test_alpha_zero_is_geometric_mean(self, rng):
        U = closure(rng.random((40, 4)) + 0.01)
        g = np.exp(np.log(U).mean(axis=0))
        assert np.max(np.abs(frechet_mean(U, 0.0) - g / g.sum())) <= 1e-12

    def test_small_alpha_approaches_zero_case(self, rng):
        U = closure(rng.random((50, 6)) + 0.01)
        m0 = frechet_mean(U, 0.0)
        m_eps = frechet_mean(U, 1e-6)
        assert np.max(np.abs(m_eps - m0)) <= 1e-4

    def test_row_permutation_invariant(self, rng):
        U = closure(rng.random((30, 4)) + 0.01)
        perm = rng.permutation(30)
        for a in (-1.0, 0.0, 1.0):
            assert np.allclose(
                frechet_mean(U, a), frechet_mean(U[perm], a), atol=1e-12
            )

    def test_output_on_simplex(self, rng):
        U = closure(rng.random((25, 7)) + 0.01)
        for a in (-1.0, -0.3, 0.0, 0.3, 1.0):
            m = frechet_mean(U, a)
            assert np.all(m > 0)
            assert abs(m.sum() - 1.0) <= 1e-12

    def test_zeros_require_positive_alpha(self):
        U = np.array([[0.0, 0.4, 0.6], [0.2, 0.3, 0.5]])
        m = frechet_mean(U, 0.5)
        assert abs(m.sum() - 1.0) <= 1e-12
        for a in (0.0, -0.5):
            with pytest.raises(ZeroNotAllowedError):
                frechet_mean(U, a)

    def test_alpha_out_of_range(self, rng):
        U = closure(rng.random((5, 3)) + 0.1)
        with pytest.raises(ValidationError):
            frechet_mean(U, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            frechet_mean(np.empty((0, 3)), 1.0)


class TestWeightedFrechetMean:
    def test_equal_weights_match_unweighted(self, rng):
        U = closure(rng.random((20, 4)) + 0.01)
        w = np.full(20, 1.0)
        for a in (-1.0, 0.0, 0.5, 1.0):
            assert np.allclose(
                weighted_frechet_mean(U, w, a), frechet_mean(U, a), atol=1e-12
            )

    def test_point_mass_returns_that_row(self, rng):
        U = closure(rng.random((10, 5)) + 0.01)
        w = np.zeros(10)
        w[3] = 2.5
        for a in (-1.0, 0.0, 1.0):
            assert np.allclose(weighted_frechet_mean(U, w, a), U[3], atol=1e-12)

    def test_known_two_row_value(self):
        # weights (3, 1) on rows (0, 1) and (1, 0) at alpha = 1 average
        # to (1/4, 3/4)
        U = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = weighted_frechet_mean(U, [3.0, 1.0], 1.0)
        assert np.allclose(m, [0.25, 0.75], atol=1e-15)

    def test_weight_scale_invariant(self, rng):
        U = closure(rng.random((15, 3)) + 0.01)
        w = rng.random(15) + 0.1
        a = 0.5
        m1 = weighted_frechet_mean(U, w, a)
        m2 = weighted_frechet_mean(U, 10.0 * w, a)
        assert np.max(np.abs(m1 - m2)) <= 1e-12

    def test_zero_total_weight_rejected(self, rng):
        U = closure(rng.random((4, 3)) + 0.1)
        with pytest.raises(DegenerateInputError):
            weighted_frechet_mean(U, np.zeros(4), 1.0)

    def test_negative_weight_rejected(self, rng):
        U = closure(rng.random((4, 3)) + 0.1)
        with pytest.raises(ValidationError):
            weighted_frechet_mean(U, [1.0, -1.0, 1.0, 1.0], 1.0)

    def test_length_mismatch_rejected(self, rng):
        U = closure(rng.random((4, 3)) + 0.1)
        with pytest.raises(ValidationError):
            weighted_frechet_mean(U, [1.0, 2.0], 1.0)

    def test_nonfinite_weight_rejected(self, rng):
        U = closure(rng.random((3, 3)) + 0.1)
        with pytest.raises(ValidationError):
            weighted_frechet_mean(U, [1.0, np.nan, 1.0], 1.0)


class TestWeightRefusals:
    """Weights are refused as weights: the function and the row they belong
    to, not a closure message."""

    @pytest.mark.parametrize("w, message", [
        ([1.0, -1.0], "row 1: weight -1.0 must be finite and nonnegative"),
        ([np.nan, 1.0], "row 0: weight nan must be finite and nonnegative"),
        ([1.0, np.inf], "row 1: weight inf must be finite and nonnegative"),
    ])
    def test_bad_weight_names_its_row(self, w, message):
        U = [[0.2, 0.8], [0.5, 0.5]]
        with pytest.raises(ValidationError, match=f"^weighted_frechet_mean: {message}$"):
            weighted_frechet_mean(U, w, 0.5)

    def test_all_zero_weights_are_degenerate(self):
        with pytest.raises(DegenerateInputError,
                           match="^weighted_frechet_mean: every weight is zero$"):
            weighted_frechet_mean([[0.2, 0.8], [0.5, 0.5]], [0.0, 0.0], 0.5)


class TestFrechetPath:
    def test_grid_order_and_shape(self, rng):
        U = closure(rng.random((12, 4)) + 0.01)
        alphas = (-1.0, -0.5, 0.0, 0.5, 1.0)
        path = frechet_path(U, alphas)
        assert [a for a, _ in path] == list(alphas)
        for a, m in path:
            assert np.allclose(m, frechet_mean(U, a), atol=1e-15)

    def test_symmetric_data_constant_path(self):
        U = np.array([[0.3, 0.7], [0.7, 0.3]])
        path = frechet_path(U, np.linspace(-1, 1, 9))
        for _, m in path:
            assert np.array_equal(m, [0.5, 0.5])

    def test_path_moves_smoothly(self, rng):
        # the mean varies continuously in alpha: refining the grid must
        # shrink the largest step between consecutive means
        U = closure(rng.random((30, 3)) + 0.01)

        def max_step(k):
            path = frechet_path(U, np.linspace(-1.0, 1.0, k))
            pts = np.array([m for _, m in path])
            return np.max(np.abs(np.diff(pts, axis=0)))

        assert max_step(41) < max_step(5)

    def test_invalid_alpha_in_grid(self, rng):
        U = closure(rng.random((5, 3)) + 0.1)
        with pytest.raises(ValidationError):
            frechet_path(U, [0.0, 1.2])
