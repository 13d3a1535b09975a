"""Closure and validation gates.

Covers the closure operator (scale invariance, idempotence, degenerate
input rejection), the composition/predictor ingestion gates with their
row-naming error messages, and the zero-pattern report.
"""

import re

import numpy as np
import pytest

from simplexreg import (
    SUM_TOL,
    DegenerateInputError,
    ValidationError,
    as_composition,
    as_composition_matrix,
    as_predictor_matrix,
    closure,
    clr,
    fit_alpha_knn,
    fit_kld,
    js_divergence,
    kl_divergence,
    validate_composition_matrix,
    weighted_frechet_mean,
)
from simplexreg.simplex import _composition_fault

U20 = closure(np.random.default_rng(3).random((20, 3)) + 0.05)


class TestClosure:
    def test_halves(self):
        out = closure([2.0, 2.0])
        assert np.array_equal(out, [0.5, 0.5])

    def test_known_vector(self):
        # 1 + 3 + 4 = 8, all parts dyadic so the quotients are exact
        out = closure([1.0, 3.0, 4.0])
        assert np.array_equal(out, [0.125, 0.375, 0.5])

    def test_already_closed_is_fixed_point(self):
        x = np.array([0.3, 0.7])
        assert np.array_equal(closure(x), x)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(11)
        x = rng.random((50, 7)) * 10
        once = closure(x)
        assert np.array_equal(closure(once), once)

    def test_closed_rows_decided_per_row(self):
        # The first row sums to 1 + 4.4e-16 and is left undivided; the
        # second row's sum 0.8 must not force a division on it too.
        nearly = [0.1, 0.2, 0.3, 0.4 + 4.4e-16]
        mixed = closure([nearly, [0.2, 0.2, 0.2, 0.2]])
        assert np.array_equal(mixed[0], closure(nearly))
        assert np.array_equal(mixed[1], [0.25, 0.25, 0.25, 0.25])
        by_column = closure(np.array([nearly, [0.2, 0.2, 0.2, 0.2]]).T, axis=0)
        assert np.array_equal(by_column.T, mixed)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.random((30, 5)) + 0.01
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert np.allclose(closure(c * x), closure(x), atol=1e-12)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(13)
        out = closure(rng.random((200, 9)) * 100)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_axis_argument(self):
        x = np.array([[1.0, 1.0], [3.0, 1.0]])
        out = closure(x, axis=0)
        assert np.allclose(out.sum(axis=0), 1.0)

    def test_scalar_closes_to_one(self):
        assert closure(5.0) == 1.0
        assert closure(5.0, axis=0) == 1.0

    @pytest.mark.parametrize("values, message", [
        ([[0.5, 0.5], [np.nan, 1.0]], "closure: row 1: non-finite value"),
        ([[0.5, 0.5], [0.2, -1.0]], "closure: row 1: negative component"),
        ([[-1.0, 1.0], [np.nan, 1.0]], "closure: row 1: non-finite value"),
        ([1.0, np.inf, 2.0], "closure: entry 1: non-finite value"),
        ([1.0, 2.0, -3.0], "closure: entry 2: negative component"),
        (np.nan, "closure: entry 0: non-finite value"),
        ([[[1.0, 1.0], [1.0, -1.0]]], "closure: entry (0, 1, 1): negative component"),
    ], ids=["row-nan", "row-negative", "nan-first", "entry-inf", "entry-negative", "scalar",
            "3-d"])
    def test_refusal_names_row_or_entry(self, values, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            closure(values)

    @pytest.mark.parametrize("axis, message", [
        (3, "closure: axis 3 is out of range for 1-D input"),
        (-2, "closure: axis -2 is out of range for 1-D input"),
        (1.5, "axis must be an integer, got 1.5"),
        (True, "axis must be an integer, got True"),
    ])
    def test_axis_is_a_count_in_range(self, axis, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            closure([1.0, 2.0], axis=axis)

    def test_integral_float_axis(self):
        assert np.array_equal(closure([[1.0, 3.0]], axis=1.0), [[0.25, 0.75]])

    def test_zeros_allowed_when_slice_positive(self):
        out = closure([0.0, 1.0, 3.0])
        assert np.array_equal(out, [0.0, 0.25, 0.75])

    def test_all_zero_slice_rejected(self):
        with pytest.raises(DegenerateInputError):
            closure([0.0, 0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            closure([[1.0, 1.0], [0.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            closure([0.5, -0.1, 0.6])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            closure([0.5, np.nan])
        with pytest.raises(ValidationError):
            closure([0.5, np.inf])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            closure([])


class TestAsComposition:
    def test_reclose_within_tolerance(self):
        u = as_composition([0.3, 0.7 + 5e-10])
        assert abs(u.sum() - 1.0) <= 1e-12

    def test_reject_outside_tolerance(self):
        with pytest.raises(ValidationError):
            as_composition([0.3, 0.71])

    def test_tolerance_boundary(self):
        # 2x the ingestion tolerance must be rejected, half accepted
        with pytest.raises(ValidationError):
            as_composition([0.5, 0.5 + 2 * SUM_TOL])
        as_composition([0.5, 0.5 + SUM_TOL / 2])

    def test_single_part_rejected(self):
        with pytest.raises(ValidationError):
            as_composition([1.0])

    def test_scalar_rejected(self):
        with pytest.raises(ValidationError):
            as_composition(0.5)

    def test_exactly_closed_returned_as_is(self):
        u = np.array([0.25, 0.25, 0.5])
        assert as_composition(u) is u


class TestAsCompositionMatrix:
    def test_accepts_valid(self):
        U = np.array([[0.2, 0.8], [0.5, 0.5]])
        out = as_composition_matrix(U)
        assert out is U

    def test_error_names_offending_row(self):
        U = [[0.2, 0.8], [0.2, 0.9]]
        with pytest.raises(ValidationError, match="row 1"):
            as_composition_matrix(U)

    def test_negative_row_named(self):
        U = [[0.2, 0.8], [1.2, -0.2]]
        with pytest.raises(ValidationError, match="row 1"):
            as_composition_matrix(U)

    def test_1d_rejected(self):
        with pytest.raises(ValidationError):
            as_composition_matrix([0.2, 0.8])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError):
            as_composition_matrix(np.empty((0, 3)))

    def test_reclosure_leaves_clean_rows_alone(self):
        U = np.array([[0.25, 0.75], [0.5, 0.5 + 4e-10]])
        out = as_composition_matrix(U)
        assert np.array_equal(out[0], [0.25, 0.75])
        assert abs(out[1].sum() - 1.0) <= 1e-12


class TestCompositionRule:
    """One row rule and one closed-row rule for every composition gate."""

    # r0 sums to 1 + 4.4e-16 and is already closed; r1 is 5e-10 off.
    R0 = [0.1, 0.2, 0.3, 0.4 + 4.4e-16]
    R1 = [0.1, 0.2, 0.3, 0.4 + 5e-10]

    def test_row_bits_independent_of_other_rows(self):
        together = as_composition_matrix([self.R0, self.R1])
        assert np.array_equal(together[0], as_composition_matrix([self.R0])[0])
        assert np.array_equal(together[0], self.R0)
        assert np.array_equal(together[1], closure(self.R1))
        assert np.array_equal(together, closure([self.R0, self.R1]))

    @pytest.mark.parametrize("U, expected", [
        ([[0.5, 0.5], [0.3, 0.7]], None),
        ([[0.5, 0.5], [0.3, 0.7 + SUM_TOL / 2]], None),
        ([[0.5, 0.6], [np.nan, 1.0], [-0.1, 1.1]], (1, "non-finite value")),
        ([[0.5, 0.6], [0.5, 0.5], [-0.1, 1.1]], (2, "negative component")),
        ([[0.5, 0.5], [0.5, 0.6]], (1, f"sum 1.1 outside tolerance {SUM_TOL}")),
        ([[0.5, 0.5 + 2 * SUM_TOL]],
         (0, f"sum {0.5 + (0.5 + 2 * SUM_TOL)!r} outside tolerance {SUM_TOL}")),
    ])
    def test_fault_names_first_row_of_first_kind(self, U, expected):
        assert _composition_fault(np.array(U)) == expected


class TestAsPredictorMatrix:
    def test_1d_promoted_to_column(self):
        X = as_predictor_matrix([1.0, 2.0, 3.0])
        assert X.shape == (3, 1)

    def test_2d_passthrough(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert as_predictor_matrix(X) is X

    def test_nonfinite_named(self):
        with pytest.raises(ValidationError, match="row 1"):
            as_predictor_matrix([[1.0], [np.nan]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            as_predictor_matrix(np.empty((0, 2)))


class TestNonNumericInput:
    """Caller data that numpy cannot read as numbers raises a ValidationError
    naming the input, not numpy's bare ValueError or TypeError."""

    @pytest.mark.parametrize("call, what", [
        (lambda: as_predictor_matrix("abc"), "predictor matrix"),
        (lambda: as_predictor_matrix([[1.0], [1.0, 2.0]]), "predictor matrix"),
        (lambda: fit_alpha_knn([["a"]] * 20, U20, 1, 2), "predictor matrix"),
        (lambda: as_composition_matrix([["a", "b"]]), "composition matrix"),
        (lambda: as_composition(["a", "b"]), "composition"),
        (lambda: closure({"a": 1}), "closure input"),
        (lambda: clr([["a", "b"]]), "composition"),
        (lambda: weighted_frechet_mean(U20, ["a"] * 20, 1), "weights"),
        (lambda: kl_divergence(["a", "b"], [0.5, 0.5]), "y"),
        (lambda: js_divergence([0.5, 0.5], ["a", "b"]), "yhat"),
        (lambda: fit_kld(None, U20).predict("abc"), "predictor matrix"),
    ], ids=["predictors-str", "predictors-ragged", "fit-knn", "composition-matrix",
            "composition", "closure", "clr", "weights", "kl", "js", "kld-intercept-only"])
    def test_typed_error_names_the_input(self, call, what):
        with pytest.raises(ValidationError, match=f"^{what} must be numeric: "):
            call()


class TestZeroReport:
    def test_zero_free(self):
        U = np.array([[0.2, 0.8], [0.5, 0.5]])
        rep = validate_composition_matrix(U)
        assert rep.rows == 2
        assert rep.zero_rows == 0
        assert not rep.has_zeros
        assert rep.column_zero_counts == (0, 0)

    def test_counts(self):
        U = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.25, 0.75, 0.0],
                [0.2, 0.3, 0.5],
                [0.0, 0.0, 1.0],
            ]
        )
        rep = validate_composition_matrix(U)
        assert rep.rows == 4
        assert rep.zero_rows == 3
        assert rep.has_zeros
        assert rep.column_zero_counts == (2, 1, 1)

    def test_synthetic_zero_row_count(self):
        # 92 rows, exactly 42 of them carry at least one zero part
        rng = np.random.default_rng(5)
        U = closure(rng.random((92, 6)) + 0.05)
        pick = rng.choice(92, size=42, replace=False)
        U[pick, 0] = 0.0
        U = closure(U)
        rep = validate_composition_matrix(U)
        assert rep.rows == 92
        assert rep.zero_rows == 42

    def test_does_not_mutate(self):
        U = closure(np.random.default_rng(6).random((10, 4)))
        before = U.copy()
        validate_composition_matrix(U)
        assert np.array_equal(U, before)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValidationError):
            validate_composition_matrix([[0.2, 0.9]])
