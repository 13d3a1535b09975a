"""Nonparametric regression for compositional responses.

A composition is a vector of nonnegative parts carrying relative
information; rows of responses live on the simplex while predictors are
ordinary Euclidean vectors.  The package provides the transform toolbox
(log-ratio and power families), power-family means, exact nearest
neighbor search, four regression families with a shared fit/predict
interface, cross-validated tuning, synthetic data generators, CSV
ingestion, and a timing harness.  The `simplexreg` console script wraps
the common workflows.
"""

from .bench import BenchCell, BenchReport, BenchScenario, run_bench
from .datagen import (
    SimSpec,
    gen_polynomial,
    gen_segmented,
    generate,
    inject_zeros,
    simplex_link,
)
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DegenerateWeightsError,
    OutOfRangeError,
    SimplexRegError,
    TuningError,
    ValidationError,
    ZeroNotAllowedError,
)
from .frechet import frechet_mean, frechet_path, weighted_frechet_mean
from .ingestion import (
    DatasetSchema,
    apply_standardization,
    latlon_to_euclidean,
    load_csv,
    standardize,
    write_csv,
    write_dataset_csv,
)
from .neighbors import NeighborIndex, build_index, pairwise_distances
from .regressors import (
    KERNELS,
    AlphaKernelModel,
    AlphaKernelSpec,
    AlphaKnnModel,
    AlphaKnnSpec,
    KldModel,
    KldSpec,
    LogRatioOlsModel,
    LogRatioOlsSpec,
    fit_alpha_kernel,
    fit_alpha_knn,
    fit_kld,
    fit_logratio_ols,
    predict_alpha_kernel,
    predict_alpha_knn,
    predict_kld,
    predict_logratio_ols,
)
from .selection import (
    DEFAULT_CLAMP,
    DivergenceScore,
    TuningGrid,
    TuningReport,
    cross_validated_score,
    default_alpha_grid,
    default_h_grid,
    default_k_grid,
    js_divergence,
    kl_divergence,
    make_folds,
    tune,
)
from .simplex import (
    SUM_TOL,
    ZeroReport,
    as_composition,
    as_composition_matrix,
    as_predictor_matrix,
    closure,
    validate_composition_matrix,
)
from .transforms import (
    alpha_inverse,
    alpha_transform,
    alr,
    alr_inverse,
    check_alpha,
    clr,
    clr_inverse,
    helmert_submatrix,
    ilr,
    ilr_inverse,
    power_transform,
)

__version__ = "0.1.0"
