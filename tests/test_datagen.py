"""Synthetic data generation.

Noiseless draws must be exactly recoverable by the matching parametric
fit; seeded draws must replay bit for bit; zero injection must touch
exactly the promised rows and nothing else.
"""

import numpy as np
import pytest

from simplexreg import (
    SimSpec,
    ValidationError,
    alr,
    alr_inverse,
    as_composition_matrix,
    fit_logratio_ols,
    gen_polynomial,
    gen_segmented,
    generate,
    inject_zeros,
    simplex_link,
)


class TestSimSpec:
    def test_defaults(self):
        spec = SimSpec(n=100, D=4)
        assert spec.link == "polynomial"
        assert spec.degree == 1
        assert spec.coef_seed == 0 and spec.data_seed == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimSpec(n=1, D=3)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=1)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, link="sigmoid")
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, degree=4)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, zero_fraction=1.0)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, noise_scale=-0.1)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, link="segmented", predictors=2)
        with pytest.raises(ValidationError):
            SimSpec(n=10, D=3, predictors=0)

    @pytest.mark.parametrize("field", ["coef_seed", "data_seed"])
    def test_negative_seed_rejected(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be a non-negative"):
            SimSpec(n=10, D=3, **{field: -1})

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        spec = SimSpec(n=10, D=3, data_seed=seq)
        X, _, _ = gen_polynomial(spec)
        assert np.array_equal(X, np.random.default_rng(seq).standard_normal((10, 1)))

    def test_knobs_the_data_never_reads_rejected(self):
        # gen_segmented never reads degree, and D // 3 = 0 parts are
        # zeroed when D = 2; both used to write the data of the default.
        with pytest.raises(ValidationError, match="segmented link has no degree"):
            SimSpec(n=10, D=3, link="segmented", degree=3)
        with pytest.raises(ValidationError, match="zero_fraction needs D >= 3"):
            SimSpec(n=10, D=2, zero_fraction=0.4)
        SimSpec(n=10, D=3, link="segmented", degree=1)
        SimSpec(n=10, D=2, zero_fraction=0.0)
        SimSpec(n=10, D=3, zero_fraction=0.4)

    def test_zero_fraction_that_zeroes_no_row_rejected(self):
        # floor(0.05 * 10) = 0 rows: the data would equal zero_fraction = 0.
        with pytest.raises(ValidationError, match="zeroes no row of n = 10"):
            SimSpec(n=10, D=3, zero_fraction=0.05)
        _, U, _ = gen_polynomial(SimSpec(n=10, D=3, zero_fraction=0.1))
        assert (U == 0).any(axis=1).sum() == 1


class TestSimplexLink:
    def test_zero_row_is_uniform(self):
        U = simplex_link(np.zeros((1, 2)))
        assert np.allclose(U[0], 1 / 3, atol=1e-15)

    def test_saturation(self):
        U = simplex_link(np.array([[50.0, 0.0]]))
        assert U[0, 1] == pytest.approx(1.0)

    def test_is_softmax_with_leading_zero(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(20, 3))
        assert np.array_equal(simplex_link(F), alr_inverse(F))

    def test_requires_matrix(self):
        with pytest.raises(ValidationError):
            simplex_link(np.zeros(3))


class TestGenPolynomial:
    def test_shapes(self):
        spec = SimSpec(n=50, D=5, predictors=3)
        X, U, coef = gen_polynomial(spec)
        assert X.shape == (50, 3)
        assert U.shape == (50, 5)
        assert coef.shape == (4, 4)
        as_composition_matrix(U)

    def test_deterministic_replay(self):
        spec = SimSpec(n=40, D=4, coef_seed=3, data_seed=9)
        X1, U1, C1 = gen_polynomial(spec)
        X2, U2, C2 = gen_polynomial(spec)
        assert np.array_equal(X1, X2)
        assert np.array_equal(U1, U2)
        assert np.array_equal(C1, C2)

    def test_coef_seed_independent_of_data_seed(self):
        a = gen_polynomial(SimSpec(n=30, D=4, coef_seed=3, data_seed=1))
        b = gen_polynomial(SimSpec(n=30, D=4, coef_seed=3, data_seed=2))
        assert np.array_equal(a[2], b[2])
        assert not np.array_equal(a[0], b[0])

    def test_noiseless_degree1_exactly_linear(self):
        spec = SimSpec(n=400, D=4, predictors=2, noise_scale=0.0)
        X, U, coef = gen_polynomial(spec)
        model = fit_logratio_ols(X, U, "alr")
        assert np.max(np.abs(model.coef - coef)) <= 1e-8

    def test_noiseless_higher_degree_reconstruction(self):
        for degree in (2, 3):
            spec = SimSpec(n=200, D=3, degree=degree, noise_scale=0.0)
            X, U, coef = gen_polynomial(spec)
            F = coef[0] + (X**degree) @ coef[1:]
            assert np.max(np.abs(alr(U) - F)) <= 1e-10

    def test_link_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gen_polynomial(SimSpec(n=20, D=3, link="segmented"))


class TestGenSegmented:
    def test_predictor_grid(self):
        spec = SimSpec(n=101, D=4, link="segmented", noise_scale=0.0)
        z, U, coef = gen_segmented(spec)
        assert z.shape == (101, 1)
        assert z[0, 0] == -1.0 and z[-1, 0] == 1.0
        steps = np.diff(z[:, 0])
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_branch_values(self):
        # noiseless: F(1) = b_pos, F(-1) = -b_neg, F(0) = 0
        spec = SimSpec(n=201, D=5, link="segmented", noise_scale=0.0)
        z, U, coef = gen_segmented(spec)
        b_pos, b_neg = coef[0], coef[1]
        F = alr(U)
        assert np.allclose(F[-1], b_pos, atol=1e-10)
        assert np.allclose(F[0], -b_neg, atol=1e-10)
        mid = np.argmin(np.abs(z[:, 0]))
        assert np.allclose(F[mid], 0.0, atol=1e-10)

    def test_latent_map_continuous_at_kink(self):
        spec = SimSpec(n=2001, D=3, link="segmented", noise_scale=0.0)
        z, U, coef = gen_segmented(spec)
        F = alr(U)
        gaps = np.abs(np.diff(F, axis=0)).max(axis=1)
        assert gaps.max() <= 0.01

    def test_deterministic_replay(self):
        spec = SimSpec(n=60, D=3, link="segmented", coef_seed=4, data_seed=5)
        a = gen_segmented(spec)
        b = gen_segmented(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dispatch(self):
        spec = SimSpec(n=30, D=3, link="segmented")
        z1, U1, c1 = generate(spec)
        z2, U2, c2 = gen_segmented(spec)
        assert np.array_equal(U1, U2)


class TestInjectZeros:
    def test_exact_row_count_and_component_count(self):
        rng = np.random.default_rng(20)
        U = alr_inverse(rng.normal(size=(100, 5)))
        out = inject_zeros(U, 0.2, seed=1)
        zero_rows = np.flatnonzero((out == 0).any(axis=1))
        assert zero_rows.size == 20
        # D = 6 floors to 2 zeroed components per selected row
        assert np.all((out[zero_rows] == 0).sum(axis=1) == 2)

    def test_unselected_rows_bit_exact(self):
        rng = np.random.default_rng(21)
        U = alr_inverse(rng.normal(size=(50, 3)))
        out = inject_zeros(U, 0.3, seed=2)
        zero_rows = (out == 0).any(axis=1)
        assert np.array_equal(out[~zero_rows], U[~zero_rows])
        assert not np.shares_memory(out, U)

    def test_rows_stay_closed(self):
        rng = np.random.default_rng(22)
        U = alr_inverse(rng.normal(size=(80, 4)))
        out = inject_zeros(U, 0.5, seed=3)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
        as_composition_matrix(out)

    def test_small_d_unchanged(self):
        # D = 2 floors to zero components per row, so nothing happens
        rng = np.random.default_rng(23)
        U = alr_inverse(rng.normal(size=(30, 1)))
        out = inject_zeros(U, 0.5, seed=4)
        assert np.array_equal(out, U)

    def test_zero_fraction_unchanged(self):
        rng = np.random.default_rng(24)
        U = alr_inverse(rng.normal(size=(30, 4)))
        assert np.array_equal(inject_zeros(U, 0.0, seed=5), U)

    def test_redraw_survives_mass_concentration(self):
        # all mass in one part: zeroing that part would zero the row, so
        # the draw must retry until it picks the empty parts
        U = np.tile([0.0, 0.0, 1.0], (10, 1))
        out = inject_zeros(U, 0.5, seed=6)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(out, U)

    def test_generator_seed_continues_stream(self):
        rng = np.random.default_rng(25)
        U = alr_inverse(rng.normal(size=(40, 3)))
        g1 = np.random.default_rng(7)
        g2 = np.random.default_rng(7)
        a = inject_zeros(U, 0.25, g1)
        b = inject_zeros(U, 0.25, g2)
        assert np.array_equal(a, b)
        c = inject_zeros(U, 0.25, seed=7)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [True, -1, 2.5, "x"])
    def test_seed_follows_the_seed_rule(self, seed):
        U = np.tile([0.2, 0.3, 0.5], (10, 1))
        with pytest.raises(ValidationError, match="seed"):
            inject_zeros(U, 0.5, seed)
        assert np.array_equal(inject_zeros(U, 0.5, 7.0), inject_zeros(U, 0.5, 7))
        sequence = np.random.SeedSequence(7)
        assert np.array_equal(inject_zeros(U, 0.5, sequence), inject_zeros(U, 0.5, 7))

    def test_fraction_bounds(self):
        U = np.tile([0.2, 0.3, 0.5], (10, 1))
        with pytest.raises(ValidationError):
            inject_zeros(U, 1.0, seed=0)
        with pytest.raises(ValidationError):
            inject_zeros(U, -0.1, seed=0)

    def test_zero_fraction_flows_through_generation(self):
        base = SimSpec(n=100, D=5, zero_fraction=0.0, coef_seed=1, data_seed=2)
        withz = SimSpec(n=100, D=5, zero_fraction=0.2, coef_seed=1, data_seed=2)
        Xa, Ua, _ = gen_polynomial(base)
        Xb, Ub, _ = gen_polynomial(withz)
        assert np.array_equal(Xa, Xb)
        zero_rows = (Ub == 0).any(axis=1)
        assert zero_rows.sum() == 20
        assert np.array_equal(Ub[~zero_rows], Ua[~zero_rows])
