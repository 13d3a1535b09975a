"""Workload definitions and the seeded input generator.

Each workload fixes the shape of one user session: the training set, the
query set and the `tune` arguments.  The seed given on the command line
draws the rows; the true coefficients are part of the workload, so the
same link is learned on every seed and the holdout divergence measures
the estimator rather than how hard one random link happens to be.
"""

from dataclasses import dataclass

import numpy as np

from simplexreg import datagen, ingestion


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_query: int
    D: int
    predictors: int
    zero_fraction: float
    decimals: int  # predictors rounded to this many decimals; -1 keeps them exact
    model: str  # "aknn" or "akernel"
    metric: str  # tuning divergence
    coef_seed: int

    @property
    def response_cols(self):
        return ",".join(f"y{j + 1}" for j in range(self.D))

    @property
    def predictor_cols(self):
        return ",".join(f"x{j + 1}" for j in range(self.predictors))

    def tune_argv(self, train, report):
        return [
            "tune", "--input", train,
            "--response-cols", self.response_cols,
            "--predictor-cols", self.predictor_cols,
            "--model", self.model, "--metric", self.metric,
            "--threads", "1", "--output", report,
        ]

    def fit_argv(self, train, selected, model_file):
        cell = ["--k", str(selected["k"])] if self.model == "aknn" else ["--h", repr(selected["h"])]
        return [
            "fit", "--input", train,
            "--response-cols", self.response_cols,
            "--predictor-cols", self.predictor_cols,
            "--model", self.model, "--alpha", repr(selected["alpha"]), *cell,
            "--output", model_file,
        ]

    def predict_argv(self, query, model_file, predictions):
        return [
            "predict", "--input", query, "--model-file", model_file,
            "--response-cols", self.response_cols, "--output", predictions,
        ]


# Why each workload exists, and which layer it stresses: WORKLOADS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="knn-large",
            n_train=30_000, n_query=5_000, D=4, predictors=1, zero_fraction=0.0,
            decimals=-1, model="aknn", metric="kl", coef_seed=11,
        ),
        Workload(
            name="kernel-small",
            n_train=3_000, n_query=5_000, D=4, predictors=2, zero_fraction=0.0,
            decimals=-1, model="akernel", metric="kl", coef_seed=12,
        ),
        Workload(
            name="knn-zeros-ties",
            n_train=3_000, n_query=5_000, D=6, predictors=3, zero_fraction=0.2,
            decimals=1, model="aknn", metric="js", coef_seed=13,
        ),
    )
}


def _draw(workload, n, data_seed):
    spec = datagen.SimSpec(
        n=n, D=workload.D, link="polynomial", degree=1,
        predictors=workload.predictors, noise_scale=0.1,
        zero_fraction=workload.zero_fraction,
        coef_seed=workload.coef_seed, data_seed=data_seed,
    )
    X, U, _ = datagen.generate(spec)  # zero injection runs inside generate
    if workload.decimals >= 0:
        X = np.round(X, workload.decimals)
    return X, U


def write_inputs(workload, seed, train_path, query_path):
    """Write the training and query CSVs that `seed` determines.

    Training and query rows come from two independent children of one
    SeedSequence, so the query set is never a slice of the training set.
    """
    train_seed, query_seed = np.random.SeedSequence(seed).spawn(2)
    X, U = _draw(workload, workload.n_train, train_seed)
    ingestion.write_dataset_csv(train_path, X, U)
    X, U = _draw(workload, workload.n_query, query_seed)
    ingestion.write_dataset_csv(query_path, X, U)
