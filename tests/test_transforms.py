"""Log-ratio and power-family coordinate transforms.

Checks hand-computed coordinate values, round-trip identities, the
Helmert contrast matrix, numerical stability of the inverse maps under
extreme coordinates, and the small-exponent limit of the power-family
transform.
"""

import math
import warnings

import numpy as np
import pytest

from simplexreg import (
    OutOfRangeError,
    ValidationError,
    ZeroNotAllowedError,
    alpha_inverse,
    alpha_transform,
    alr,
    alr_inverse,
    check_alpha,
    closure,
    clr,
    clr_inverse,
    fit_logratio_ols,
    helmert_submatrix,
    ilr,
    ilr_inverse,
    power_transform,
    transforms,
)
from simplexreg.regressors import _kld_forward


def random_compositions(rng, n, D):
    return closure(rng.random((n, D)) + 0.05)


class TestCheckAlpha:
    def test_accepts_range(self):
        assert check_alpha(-1.0) == -1.0
        assert check_alpha(0.0) == 0.0
        assert check_alpha(1.0) == 1.0

    def test_rejects_outside(self):
        for bad in (1.0000001, -1.5, 2.0):
            with pytest.raises(ValidationError):
                check_alpha(bad)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                check_alpha(bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_alpha("half")


class TestHelmert:
    def test_d2(self):
        H = helmert_submatrix(2)
        assert np.allclose(H, [[1 / math.sqrt(2), -1 / math.sqrt(2)]])

    def test_d3(self):
        H = helmert_submatrix(3)
        s2, s6 = math.sqrt(2), math.sqrt(6)
        expect = [[1 / s2, -1 / s2, 0.0], [1 / s6, 1 / s6, -2 / s6]]
        assert np.allclose(H, expect, atol=1e-15)

    def test_rows_orthonormal(self):
        for D in (2, 3, 5, 11):
            H = helmert_submatrix(D)
            assert H.shape == (D - 1, D)
            assert np.allclose(H @ H.T, np.eye(D - 1), atol=1e-12)

    def test_rows_orthogonal_to_ones(self):
        for D in (2, 4, 9):
            H = helmert_submatrix(D)
            assert np.allclose(H @ np.ones(D), 0.0, atol=1e-12)

    def test_cached_and_readonly(self):
        H = helmert_submatrix(4)
        assert helmert_submatrix(4) is H
        assert not H.flags.writeable
        with pytest.raises(ValueError):
            H[0, 0] = 99.0

    def test_bad_size(self):
        with pytest.raises(ValidationError):
            helmert_submatrix(1)
        with pytest.raises(ValidationError):
            helmert_submatrix(2.5)


class TestAlr:
    def test_known_value(self):
        # log(0.8 / 0.2) = log 4
        v = alr([0.2, 0.8])
        assert v.shape == (1,)
        assert abs(v[0] - math.log(4.0)) <= 1e-15

    def test_matrix_shape(self):
        rng = np.random.default_rng(0)
        U = random_compositions(rng, 20, 6)
        assert alr(U).shape == (20, 5)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for D in (2, 3, 5, 10):
            U = random_compositions(rng, 100, D)
            back = alr_inverse(alr(U))
            assert np.max(np.abs(back - U)) <= 1e-12

    def test_inverse_round_trip_from_coordinates(self):
        rng = np.random.default_rng(2)
        V = rng.normal(size=(50, 4)) * 3
        again = alr(alr_inverse(V))
        assert np.max(np.abs(again - V)) <= 1e-10

    def test_inverse_overflow_safe(self):
        # softmax with an implicit leading zero must survive huge logits
        u = alr_inverse([800.0, 0.0])
        assert np.all(np.isfinite(u))
        assert abs(u.sum() - 1.0) <= 1e-12
        assert u[1] == pytest.approx(1.0)
        u2 = alr_inverse([-800.0, -900.0])
        assert u2[0] == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroNotAllowedError):
            alr([0.0, 1.0])


class TestClr:
    def test_known_value(self):
        # log u minus its mean; for (0.2, 0.8) that is +/- log(4)/2
        y = clr([0.2, 0.8])
        half = math.log(4.0) / 2
        assert np.allclose(y, [-half, half], atol=1e-15)

    def test_coordinates_sum_to_zero(self):
        rng = np.random.default_rng(3)
        Y = clr(random_compositions(rng, 200, 7))
        assert np.max(np.abs(Y.sum(axis=1))) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        U = random_compositions(rng, 100, 5)
        assert np.max(np.abs(clr_inverse(clr(U)) - U)) <= 1e-12

    def test_inverse_shift_invariant(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(30, 4))
        a = clr_inverse(Y)
        b = clr_inverse(Y + 17.5)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_inverse_overflow_safe(self):
        u = clr_inverse([1000.0, 0.0, -1000.0])
        assert np.all(np.isfinite(u))
        assert u[0] == pytest.approx(1.0)


class TestFarCoordinates:
    """A coordinate more than finfo.max below its row's top: the shift before
    the exponential must not overflow, and every other row keeps its bits."""

    @staticmethod
    def unguarded(Y):
        return closure(np.exp(Y - Y.max(axis=1, keepdims=True)))

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ilr_inverse([1e308, 1e308]), [1.0, 0.0, 0.0])
            assert np.array_equal(clr_inverse([1e308, -1e308, 0.0]), [1.0, 0.0, 0.0])
            assert np.array_equal(alpha_inverse([[1e308, 1e308]], 0.0), [[1.0, 0.0, 0.0]])

    def test_bits_equal_the_unguarded_shift(self):
        rng = np.random.default_rng(26)
        Y = rng.normal(size=(400, 5)) * 10.0 ** rng.integers(-3, 307, size=(400, 1))
        Y[::7, 0] = 1e308  # these rows' ranges overflow
        Y[::7, 1] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = clr_inverse(Y)
        with np.errstate(over="ignore"):
            assert np.array_equal(got, self.unguarded(Y))


class TestIlr:
    def test_uniform_maps_to_origin(self):
        z = ilr([1 / 3, 1 / 3, 1 / 3])
        assert np.array_equal(z, np.zeros(2))

    def test_known_value_d2(self):
        # first Helmert contrast of clr(0.2, 0.8): (log(0.2/0.8)) / sqrt(2)
        z = ilr([0.2, 0.8])
        assert abs(z[0] - math.log(0.25) / math.sqrt(2)) <= 1e-12

    def test_norm_matches_clr(self):
        # the Helmert rows are orthonormal on the clr plane
        rng = np.random.default_rng(6)
        U = random_compositions(rng, 100, 6)
        n_ilr = np.linalg.norm(ilr(U), axis=1)
        n_clr = np.linalg.norm(clr(U), axis=1)
        assert np.max(np.abs(n_ilr - n_clr)) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for D in (2, 3, 5, 10):
            U = random_compositions(rng, 100, D)
            assert np.max(np.abs(ilr_inverse(ilr(U)) - U)) <= 1e-12

    def test_round_trip_from_coordinates(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(50, 6)) * 2
        assert np.max(np.abs(ilr(ilr_inverse(Z)) - Z)) <= 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ZeroNotAllowedError):
            ilr([0.5, 0.5, 0.0])


class TestPowerTransform:
    def test_alpha_one_identity(self):
        rng = np.random.default_rng(9)
        U = random_compositions(rng, 40, 5)
        assert np.array_equal(power_transform(U, 1.0), U)

    def test_alpha_zero_uniform(self):
        out = power_transform([0.1, 0.2, 0.7], 0.0)
        assert np.array_equal(out, np.full(3, 1 / 3))

    def test_known_value(self):
        # squares of (0.2, 0.8) re-closed: (0.04, 0.64) -> (1/17, 16/17)
        out = power_transform([0.2, 0.8], 1.0)
        assert np.allclose(out, [0.2, 0.8])
        sq = power_transform(np.array([[0.2, 0.8]]), 0.5)
        root = np.sqrt([0.2, 0.8])
        assert np.allclose(sq[0], root / root.sum(), atol=1e-15)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(10)
        U = random_compositions(rng, 50, 4)
        for a in (-1.0, -0.5, 0.5, 1.0):
            out = power_transform(U, a)
            assert np.all(out >= 0)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_zeros_need_positive_alpha(self):
        u = [0.0, 0.4, 0.6]
        out = power_transform(u, 0.5)
        assert out[0] == 0.0
        for a in (0.0, -0.5):
            with pytest.raises(ZeroNotAllowedError):
                power_transform(u, a)


class TestAlphaTransform:
    def test_zero_alpha_is_ilr(self):
        rng = np.random.default_rng(11)
        U = random_compositions(rng, 30, 5)
        assert np.array_equal(alpha_transform(U, 0.0), ilr(U))

    def test_uniform_maps_to_origin(self):
        u = np.full(4, 0.25)
        for a in (-1.0, -0.3, 0.4, 1.0):
            assert np.allclose(alpha_transform(u, a), 0.0, atol=1e-12)

    def test_known_value_d2(self):
        # D * closure(u^1) - 1 = (0.2, -0.2); contrast gives 0.4 / sqrt(2)
        z = alpha_transform([0.6, 0.4], 1.0)
        assert abs(z[0] - 0.4 / math.sqrt(2)) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for D in (3, 5, 10):
            U = random_compositions(rng, 100, D)
            for a in (-1.0, -0.5, 0.5, 1.0):
                back = alpha_inverse(alpha_transform(U, a), a)
                assert np.max(np.abs(back - U)) <= 1e-10

    def test_small_alpha_near_ilr(self):
        rng = np.random.default_rng(13)
        U = random_compositions(rng, 100, 4)
        gap = np.max(np.abs(alpha_transform(U, 1e-4) - ilr(U)))
        assert gap < 1e-3

    def test_gap_shrinks_with_alpha(self):
        rng = np.random.default_rng(14)
        U = random_compositions(rng, 100, 4)
        Z0 = ilr(U)
        gaps = [
            np.max(np.abs(alpha_transform(U, a) - Z0))
            for a in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_zeros_need_positive_alpha(self):
        u = [0.0, 0.4, 0.6]
        alpha_transform(u, 0.5)
        for a in (0.0, -0.5):
            with pytest.raises(ZeroNotAllowedError):
                alpha_transform(u, a)

    def test_out_of_range_alpha(self):
        with pytest.raises(ValidationError):
            alpha_transform([0.5, 0.5], 1.01)


class TestAlphaInverse:
    def test_origin_maps_to_uniform(self):
        # 2 coordinates at the origin invert to the uniform 3-part composition
        for a in (-1.0, -0.5, 0.5, 1.0):
            u = alpha_inverse(np.zeros(2), a)
            assert np.allclose(u, 1 / 3, atol=1e-15)

    def test_zero_alpha_is_ilr_inverse(self):
        rng = np.random.default_rng(15)
        Z = rng.normal(size=(20, 4))
        assert np.array_equal(alpha_inverse(Z, 0.0), ilr_inverse(Z))

    def test_rejects_coordinates_outside_image(self):
        # alpha = 1, D = 2: t = z * H^T + 1 goes negative for large z
        with pytest.raises(OutOfRangeError):
            alpha_inverse([10.0], 1.0)

    def test_refusal_prints_a_plain_number(self):
        with pytest.raises(OutOfRangeError, match=r"component -3\.5355339059327373e\+307 is negative"):
            alpha_inverse([-1e308, 1.0], 0.5)

    def test_boundary_round_trip(self):
        # coordinates of (1, 0) sit on the image boundary and stay
        # invertible for positive alpha
        z = alpha_transform([1.0, 0.0], 1.0)
        u = alpha_inverse(z, 1.0)
        assert np.allclose(u, [1.0, 0.0], atol=1e-12)

    def test_zero_preimage_needs_positive_alpha(self):
        # z chosen so that one pre-image part is exactly 0: fine for
        # alpha > 0, impossible to raise to a negative power
        h = helmert_submatrix(2)[0, 0]
        z = np.array([1.0 / h])
        assert np.allclose(alpha_inverse(z, 1.0), [1.0, 0.0], atol=1e-15)
        with pytest.raises(OutOfRangeError):
            alpha_inverse(-z, -1.0)
        with pytest.raises(OutOfRangeError):
            alpha_inverse(z, -1.0)

    @pytest.mark.parametrize("D", [3, 4, 6, 10])
    @pytest.mark.parametrize("a", [0.01, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_round_trip_keeps_zero_parts(self, a, D):
        # A zero part's pre-image component rounds to a few ulps either side
        # of 0; it comes back as an exact zero.
        rng = np.random.default_rng(D)
        U = rng.random((40, D)) ** 3 + 0.01
        U[::2, 1] = 0.0
        U[::3, -1] = 0.0
        U = closure(U)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = alpha_inverse(alpha_transform(U, a), a)
        assert np.array_equal(back == 0, U == 0)
        assert np.abs(back - U).max() <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_component_past_rounding_refused(self, a):
        # A pre-image part at -1e-9 lies far outside rounding's reach.
        t = np.array([-1e-9, 1.5 + 5e-10, 1.5 + 5e-10])
        z = ((t - 1.0) / a) @ helmert_submatrix(3).T
        with pytest.raises(OutOfRangeError, match=r"^alpha_inverse: row 0: pre-image component "
                                                  r"-1\.0000000\d*e-09 is negative; the point"):
            alpha_inverse(z, a)

    def test_matrix_shape(self):
        rng = np.random.default_rng(16)
        Z = rng.normal(size=(25, 2)) * 0.1
        U = alpha_inverse(Z, 0.5)
        assert U.shape == (25, 3)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) <= 1e-12


class TestInverseOverflow:
    """The inverse maps take z @ H only for rows whose coordinates are at most
    finfo.max / sqrt(D), and refuse any other by row and value; alpha_inverse
    divides a row whose largest power could overflow by the part giving it."""

    @pytest.mark.parametrize("call, op", [
        (ilr_inverse, "ilr_inverse"),
        (lambda z: alpha_inverse(z, 0.0), "alpha_inverse"),
        (lambda z: alpha_inverse(z, 0.5), "alpha_inverse"),
        (lambda z: alpha_inverse(z, -0.5), "alpha_inverse"),
    ], ids=["ilr", "alpha0", "alpha0.5", "alpha-0.5"])
    def test_overflowing_contrast_refused_by_row(self, call, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError,
                               match=rf"^{op}: row 0: coordinate 1\.7e\+308 is too large to invert$"):
                call([1.7e308, 1.7e308])
            with pytest.raises(OutOfRangeError, match=rf"^{op}: row 1: coordinate -1\.7e\+308 "):
                call([[0.1, 0.2], [1.0, -1.7e308]])

    @pytest.mark.parametrize("D", range(2, 9))
    def test_coordinates_at_the_bound_invert(self, D):
        # z along the signs of each column of H gives that column's largest
        # clr coordinate; at the bound it stays finite.
        H = helmert_submatrix(D)
        z = np.finfo(float).max / math.sqrt(D) * np.where(H.T >= 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (ilr_inverse(z), alpha_inverse(z, 0.0)):
                assert np.all(np.isfinite(u))
                assert np.abs(u.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("a, far", [
        (0.002, [4.6, 0.1, 0.1, 0.1, 0.1]),  # 4.6 ** 500 overflows
        (-0.01, [1e-10, 1.25, 1.25, 1.25, 1.25]),  # 1e-10 ** -100 overflows
    ])
    def test_far_row_closes_without_overflow(self, a, far):
        H = helmert_submatrix(5)
        t = np.array([far, [1.2, 0.9, 1.0, 0.8, 1.1]])  # the second row is ordinary
        z = ((t - 1.0) / a) @ H.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = alpha_inverse(z, a)
        vertex = np.eye(5)[np.argmax(far) if a > 0 else np.argmin(far)]
        assert np.abs(u[0] - vertex).max() <= 1e-12
        y = (z @ H)[1]
        assert np.array_equal(u[1], closure((a * y + 1.0) ** (1.0 / a)))

    def test_refusals_name_the_row(self):
        with pytest.raises(OutOfRangeError, match=r"^alpha_inverse: row 1: pre-image component "
                                                  r"-\S+ is negative"):
            alpha_inverse([[0.0], [10.0]], 1.0)
        h = helmert_submatrix(2)[0, 0]
        with pytest.raises(OutOfRangeError, match=r"^alpha_inverse: row 1: pre-image component "
                                                  r"0\.0 is zero, which a negative alpha cannot"):
            alpha_inverse([[0.0], [-1.0 / h]], -1.0)


class TestOverflowingPowers:
    """At alpha < 0 a part whose power overflows, alone or in the closure's
    row sum of D powers, is refused up front, naming the row and alpha."""

    @pytest.mark.parametrize("transform", [power_transform, alpha_transform])
    def test_single_power_overflow(self, transform):
        with pytest.raises(ZeroNotAllowedError,
                           match=rf"^{transform.__name__}: row 1: part 5e-324 overflows "
                                 r"when raised to alpha, got alpha=-1\.0$"):
            transform([[0.5, 0.5], [1.0, 5e-324]], -1.0)

    @pytest.mark.parametrize("transform", [power_transform, alpha_transform])
    def test_row_sum_overflow(self, transform):
        # Each power is 1e308, finite; two of them sum to inf.
        with pytest.raises(ZeroNotAllowedError, match=r"row 0: part 1e-308 .*alpha=-1\.0$"):
            transform([1e-308, 1e-308, 1.0], -1.0)

    @pytest.mark.parametrize("transform", [power_transform, alpha_transform])
    def test_zero_names_the_row(self, transform):
        with pytest.raises(ZeroNotAllowedError,
                           match=r"row 1: a zero part needs alpha strictly positive"):
            transform([[0.5, 0.5], [1.0, 0.0]], -0.5)

    def test_milder_alpha_is_accepted(self):
        w = power_transform([1.0, 5e-324], -0.5)
        assert np.all(np.isfinite(w)) and w[1] > 0.99
        assert np.all(np.isfinite(alpha_transform([1.0, 5e-324], -0.5)))


class TestOnePartRule:
    """Each public transform reads its input once and each forward one checks
    its parts once, by the alpha rule whose alpha = 0 case is the log-ratio
    maps'; a zero refusal names the function called and the row."""

    def test_each_transform_reads_and_checks_once(self, monkeypatch):
        U = closure(np.random.default_rng(0).random((5, 4)) + 0.1)
        Z = transforms.ilr(U)
        calls = {}

        def counted(name):
            inner = getattr(transforms, name)

            def wrapper(*args, **kwargs):
                calls[current][name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(transforms, name, wrapper)
        counted("_as_rows")
        counted("_check_parts")
        cases = {
            "alr": lambda: alr(U), "alr_inverse": lambda: alr_inverse(Z),
            "clr": lambda: clr(U), "clr_inverse": lambda: clr_inverse(U),
            "ilr": lambda: ilr(U), "ilr_inverse": lambda: ilr_inverse(Z),
            "power_transform": lambda: power_transform(U, -0.5),
            "alpha_transform(0)": lambda: alpha_transform(U, 0.0),
            "alpha_transform(0.5)": lambda: alpha_transform(U, 0.5),
            "alpha_inverse(0)": lambda: alpha_inverse(Z, 0.0),
            "alpha_inverse(0.5)": lambda: alpha_inverse(Z * 0.1, 0.5),
        }
        for current, call in cases.items():
            calls[current] = {"_as_rows": 0, "_check_parts": 0}
            call()
        forward = {"alr", "clr", "ilr", "power_transform", "alpha_transform(0)",
                   "alpha_transform(0.5)"}
        assert calls == {name: {"_as_rows": 1, "_check_parts": int(name in forward)}
                         for name in cases}

    @pytest.mark.parametrize("name, call", [
        ("alr", alr),
        ("clr", clr),
        ("ilr", ilr),
        ("alpha_transform", lambda U: alpha_transform(U, 0.0)),
        ("fit_logratio_ols", lambda U: fit_logratio_ols(np.arange(3.0), U)),
        ("fit_logratio_ols", lambda U: fit_logratio_ols(np.arange(3.0), U, "ilr")),
    ], ids=["alr", "clr", "ilr", "alpha_transform", "ols-alr", "ols-ilr"])
    def test_zero_refusal_names_function_and_row(self, name, call):
        U = [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]]
        with pytest.raises(ZeroNotAllowedError,
                           match=rf"^{name}: row 1: a zero part needs alpha strictly "
                                 r"positive, got alpha=0\.0$"):
            call(U)

    def test_negative_part_is_refused_before_zeros(self):
        with pytest.raises(ValidationError, match=r"^ilr: row 1: negative component$"):
            ilr([[0.5, 0.5, 0.0], [0.6, 0.6, -0.2]])


class TestRefusalsNameTheRow:
    """A non-finite input to any transform or inverse names the function and
    the row."""

    @pytest.mark.parametrize("call", [
        alr, clr, ilr, alr_inverse, clr_inverse, ilr_inverse,
        lambda v: power_transform(v, 0.5), lambda v: alpha_transform(v, 0.5),
        lambda v: alpha_inverse(v, 0.5),
    ], ids=["alr", "clr", "ilr", "alr_inverse", "clr_inverse", "ilr_inverse",
            "power_transform", "alpha_transform", "alpha_inverse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, call, bad):
        rows = np.full((3, 3), 1 / 3)
        rows[2, 1] = bad
        with pytest.raises(ValidationError, match=r"^\w+: row 2: non-finite value$"):
            call(rows)


def _outcome(call):
    # The output's bytes, or the refusal's type and message.
    try:
        return call().tobytes()
    except ValidationError as err:
        return type(err).__name__, str(err)


class TestColumnFold:
    """The part rules and `alpha_inverse` take row minimums and maximums as
    an elementwise fold over the D columns in row blocks
    (`transforms._fold_rows`), not as numpy's row reduction
    `U.min(axis=1)`: equal values, NaN included, and the same outputs and
    refusal messages."""

    @staticmethod
    def row_reduction(ufunc, A):
        return ufunc.reduce(A, axis=1)

    @pytest.mark.parametrize("D", [2, 4, 7, 9, 17])
    def test_fold_equals_row_reduction(self, D):
        # Above seven parts numpy's row reduction may give a zero minimum
        # the other sign; every rule that reads one tests it with == 0.
        rng = np.random.default_rng(D)
        A = rng.random((3000, D))
        cells, low = rng.random(A.shape), 0.0
        for value, share in ((0.0, 0.2), (-0.0, 0.2), (np.nan, 0.01), (1e-308, 0.02)):
            A[(low <= cells) & (cells < low + share)] = value
            low += share
        assert np.isnan(A).any() and (np.signbit(A) & (A == 0)).any() and (A == 1e-308).any()
        for arr in (A, np.asfortranarray(A), A[::-1, ::-1]):
            for ufunc in (np.minimum, np.maximum):
                got = transforms._fold_rows(ufunc, arr)
                assert np.array_equal(got, self.row_reduction(ufunc, arr), equal_nan=True)

    @pytest.mark.parametrize("D", [3, 9])
    def test_part_rule_refuses_the_same_rows(self, monkeypatch, D):
        rng = np.random.default_rng(40 + D)
        U = closure(rng.random((60, D)) + 0.05)
        for r, value in zip(rng.choice(60, size=12, replace=False),
                            [0.0, -0.0, 1e-308, 5e-324] * 3):
            U[r, rng.integers(D)] = value
        calls = [lambda a=a, rows=rows: transforms._check_alpha_parts(U[rows], a, "op", 7) or U
                 for a in (0.0, -0.5, -1.0)
                 for rows in [slice(None)] + [slice(r, r + 1) for r in range(60)]]
        folded = [_outcome(c) for c in calls]
        monkeypatch.setattr(transforms, "_fold_rows", self.row_reduction)
        assert [_outcome(c) for c in calls] == folded
        # Zeros of either sign at every alpha <= 0 (six rows and the whole
        # matrix), tiny parts at -1 only: -0.0 ** -1 is -inf, yet refused.
        assert sum(isinstance(o, tuple) for o in folded) == 7 + 7 + 13

    @pytest.mark.parametrize("call", [power_transform, alpha_transform])
    def test_negative_zero_refused_at_odd_negative_alpha(self, call):
        U = np.array([[0.3, 0.3, 0.4], [0.5, -0.0, 0.5]])
        with pytest.raises(ZeroNotAllowedError, match=(
                r"^\w+: row 1: a zero part needs alpha strictly positive, got alpha=-1\.0$")):
            call(U, -1.0)

    @pytest.mark.parametrize("d", [2, 8])
    def test_alpha_inverse_outputs_and_messages(self, monkeypatch, d):
        rng = np.random.default_rng(50 + d)
        Z = rng.normal(size=(80, d)) * rng.choice([0.1, 1.0, 10.0], size=(80, 1))
        zeros = rng.random((4, d + 1))
        zeros[:, 0] = 0.0
        Z[:4] = alpha_transform(closure(zeros), 0.5)  # a part within rounding of 0 at 0.5
        calls = [lambda a=a, rows=rows: alpha_inverse(Z[rows], a)
                 for a in (-1.0, -0.5, 0.5, 1.0)
                 for rows in [slice(None)] + [slice(r, r + 1) for r in range(80)]]
        folded = [_outcome(c) for c in calls]
        monkeypatch.setattr(transforms, "_fold_rows", self.row_reduction)
        assert [_outcome(c) for c in calls] == folded
        assert {type(o) for o in folded} == {bytes, tuple}


def _parent_softmax(eta):
    # The max-shifted softmax of [0 | eta] as alr_inverse and the logit fit
    # each wrote it before they shared transforms._softmax.
    shift = np.maximum(eta.max(axis=1), 0.0)
    expv = np.exp(eta - shift[:, None])
    denom = np.exp(-shift) + expv.sum(axis=1)
    out = np.empty((eta.shape[0], eta.shape[1] + 1))
    out[:, 0] = np.exp(-shift) / denom
    out[:, 1:] = expv / denom[:, None]
    nll_terms = shift + np.log(denom)
    return out, nll_terms, expv / denom[:, None]


class TestSharedSoftmax:
    """alr_inverse and the logit fit's forward pass share one softmax kernel,
    bitwise equal to the formulas each used to restate."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 33])
    def test_alr_inverse_bits(self, d):
        rng = np.random.default_rng(d)
        V = rng.normal(size=(60, d)) * rng.choice([1.0, 30.0, 300.0], size=(60, 1))
        V[::4] += 750.0  # rows above 700, whose plain exponential overflows
        want = _parent_softmax(V)[0]
        assert alr_inverse(V).tobytes() == want.tobytes()
        assert alr_inverse(V[5]).tobytes() == want[5].tobytes()

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_kld_forward_bits(self, d):
        rng = np.random.default_rng(10 + d)
        n = 80
        X1 = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        B = rng.normal(size=(3, d)) * 40.0
        B[0, 0] = 720.0  # an intercept above 700 in one logit
        U = closure(rng.random((n, d + 1)))
        nll, W = _kld_forward(X1, U[:, 1:], B)
        eta = X1 @ B
        assert eta.max() > 700.0
        _, terms, want_W = _parent_softmax(eta)
        assert nll == float(terms.sum() - (U[:, 1:] * eta).sum())
        assert np.ascontiguousarray(W).tobytes() == want_W.tobytes()
