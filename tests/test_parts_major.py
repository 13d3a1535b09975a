"""Parts-major evaluation keeps the bits of the row-major formulas.

The distance kernel and both power-mean grids reduce over the p
predictors or the D parts with whole-array adds.  For p, D <= 7 those
adds round exactly like numpy's row-wise sums, so every check here is
`np.array_equal` against the row-major formula.  The kernel family's
query blocks must not change any bit, must still name the first
degenerate query row, and tuning stays byte-identical across thread
counts.  Within a block, the row tiles that hold the distances and the
kernel weights must not change any bit either.
"""

import time

import numpy as np
import pytest

from simplexreg import DegenerateWeightsError, build_index, closure, fit_alpha_knn
from simplexreg import regressors
from simplexreg.frechet import _power, _unpower
from simplexreg.neighbors import _distances_to, _row_blocks
from simplexreg.regressors import iter_kernel_grid_predictions, iter_knn_grid_predictions
from simplexreg.selection import TuningGrid, tune


def _row_sum_distances(X, q):
    return np.sqrt(((X - q) * (X - q)).sum(-1))


def _predictors(rng, rows, p, kind):
    if kind == "lattice":
        # rounded values make many exactly equal distances
        return np.round(rng.normal(size=(rows, p)), 1)
    # columns spanning twelve orders of magnitude
    return rng.normal(size=(rows, p)) * 10.0 ** np.arange(-6, 6, 12 / p)[:p]


@pytest.mark.parametrize("kind", ["lattice", "mixed-scale"])
@pytest.mark.parametrize("p", range(1, 8))
def test_distances_equal_row_sum_formula(p, kind):
    rng = np.random.default_rng(p)
    X = _predictors(rng, 200, p, kind)
    Q = _predictors(rng, 40, p, kind)
    ii = rng.integers(0, len(X), size=(len(Q), 11))
    cand = rng.integers(0, len(X), size=25)
    shapes = {
        "pairwise": (X[None, :, :], Q[:, None, :]),
        "brute-block": (X[None, :, :], Q[5:17, None, :]),
        "kd-gather": (X[ii], Q[:, None, :]),
        "single-row": (X[cand], Q[3]),
    }
    for name, (A, b) in shapes.items():
        got = _distances_to(A, b)
        assert np.array_equal(got, _row_sum_distances(A, b)), name


def _row_major_knn_cells(index, U, Q, alphas, ks, order="C"):
    # The (m, k, D) iterator that parts-major evaluation replaced; order "F"
    # closes its cells over the parts as the grid iterator does.
    k_max = min(max(ks), index.n)
    idx, _ = index.query_batch(Q, k_max)
    nbr = U[idx]
    cum = np.empty_like(nbr)
    for ai, a in enumerate(alphas):
        np.cumsum(_power(nbr, a, out=cum), axis=1, out=cum)
        for ki, k in enumerate(ks):
            yield ai, ki, None if k > index.n else _unpower(
                np.array(cum[:, k - 1, :] / k, order=order), a)


@pytest.mark.parametrize("D, strategy, gather_first", [
    pytest.param(D, s, g, id=f"{D}-{s}" + "-gather-first" * g)
    for D in (2, 7, 8) for s in ("brute", "kdtree") for g in (False, True)])
def test_knn_cells_equal_row_major_iterator(D, strategy, gather_first):
    # n < m * k_max powers the training rows, then gathers them (a tune fold);
    # n >= m * k_max gathers the neighbors, then powers them (predict's blocks).
    n, m, ks = (400, 3, (1, 2, 9, 50, 120)) if gather_first else (150, 37, (1, 2, 9, 50, 151))
    rng = np.random.default_rng(D)
    X = np.round(rng.normal(size=(n, 2)), 1)
    U = closure(rng.random((n, D)) + 0.02)
    Q = rng.normal(size=(m, 2))
    index = build_index(X, strategy=strategy)
    assert (n >= m * min(max(ks), n)) == gather_first
    alphas = (-1.0, -0.4, 0.0, 0.3, 1.0)
    # From D = 8 a row-major closure rounds unlike the iterator's closure
    # over the parts; below that the row-major formula itself is the reference.
    old = list(_row_major_knn_cells(index, U, Q, alphas, ks, order="F" if D >= 8 else "C"))
    new = list(iter_knn_grid_predictions(index, U, Q, alphas, ks))
    assert [c[:2] for c in new] == [c[:2] for c in old]
    for (ai, ki, want), (_, _, got) in zip(old, new):
        if want is None:
            assert got is None
            continue
        assert np.array_equal(got, want)
        model = fit_alpha_knn(X, U, alphas[ai], ks[ki], strategy=strategy)
        assert np.array_equal(model.predict(Q), want)


def _parts_major_knn_cells(index, U, Q, alphas, ks):
    # The (D, k_max, m) iterator that the row-major gather replaced.
    k_max = min(max(ks), index.n)
    nbr = np.take(U.T, index.query_batch(Q, k_max)[0].T, axis=1)
    cum = np.empty_like(nbr)
    for ai, a in enumerate(alphas):
        _power(nbr, a, out=cum)
        for i in range(1, k_max):
            np.add(cum[:, i - 1], cum[:, i], out=cum[:, i])
        for ki, k in enumerate(ks):
            yield ai, ki, None if k > index.n else _unpower((cum[:, k - 1, :] / k).T, a)


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("strategy", ["brute", "kdtree"])
def test_knn_cells_equal_parts_major_iterator(strategy, m):
    # At D = 9 a row-major sum over the parts rounds unlike the parts-major
    # one, so the gather must keep every cell's parts-major bits.  m = 1
    # powers the gathered neighbors, m = 40 the training rows; ks repeat
    # and run past n.
    rng = np.random.default_rng(m)
    X = np.round(rng.normal(size=(60, 2)), 1)
    U = closure(rng.random((60, 9)) ** 4 + 1e-9)
    Q = rng.normal(size=(m, 2))
    index = build_index(X, strategy=strategy)
    alphas = (-1.0, -0.4, 0.0, 0.5, 1.0)
    ks = (9, 1, 20, 9, 61)
    old = list(_parts_major_knn_cells(index, U, Q, alphas, ks))
    new = list(iter_knn_grid_predictions(index, U, Q, alphas, ks))
    assert [c[:2] for c in new] == [c[:2] for c in old]
    for (_, _, want), (_, _, got) in zip(old, new):
        assert (got is None) if want is None else np.array_equal(got, want)
    if m > 1:  # one row is both C- and Fortran-ordered
        row_major = list(_row_major_knn_cells(index, U, Q, alphas, ks))
        assert any(want is not None and not np.array_equal(want, other)
                   for (_, _, want), (_, _, other) in zip(old, row_major))


def _kernel_cells(monkeypatch, chunk_bytes, *args):
    monkeypatch.setattr(regressors, "_CHUNK_BYTES", chunk_bytes)
    return list(iter_kernel_grid_predictions(*args))


def _blocked_cells(monkeypatch, muladds, *args):
    # Kernel blocks hold at least R = max(ceil(muladds / (n * D)),
    # A * D + 1) rows, so `_STACK_MULADDS` steers the block count.
    monkeypatch.setattr(regressors, "_STACK_MULADDS", muladds)
    return list(iter_kernel_grid_predictions(*args))


@pytest.mark.parametrize("D", [4, 7])
def test_kernel_blocks_equal_one_block(monkeypatch, D):
    # R = m // 3 = 352 rows of n = 1000: six blocks of 176-177 rows, each
    # one GEMM of both bandwidths (352-354 rows, above 1e6 multiply-adds),
    # against one 1058-row block.
    rng = np.random.default_rng(D)
    n, m = 1000, 2 * 524 + 10
    X = rng.normal(size=(n, 2))
    U = closure(rng.random((n, D)) + 0.02)
    Q = rng.normal(size=(m, 2))
    args = (X, U, Q, (-1.0, 0.0, 0.5, 1.0), (0.2, 1.0), "gaussian")
    muladds = n * D * (m // 3)
    assert m // (muladds // (n * D)) >= 3
    one = _blocked_cells(monkeypatch, n * D * (m + 1), *args)
    blocked = _blocked_cells(monkeypatch, muladds, *args)
    assert [c[:2] for c in blocked] == [c[:2] for c in one]
    for (_, _, want), (_, _, got) in zip(one, blocked):
        assert np.array_equal(got, want)


def test_kernel_degenerate_row_in_later_block(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 1))
    U = closure(rng.random((40, 3)) + 0.05)
    Q = rng.normal(size=(28, 1))
    Q[[8, 15]] = 1e3  # every weight underflows at h = 1 in rows 8 and 15
    calls = []
    fill_weights = regressors._fill_weights

    def counted(W, base, h, kernel, tiles):
        calls.append(h)
        return fill_weights(W, base, h, kernel, tiles)

    monkeypatch.setattr(regressors, "_fill_weights", counted)
    # R = A * D + 1 = 7 and H = 2: blocks of b = ceil(R / H) = 4 rows, both
    # bandwidths in one GEMM of 8 rows; row 8 lies in block 8 // b
    b = -(-7 // 2)
    cells = _blocked_cells(monkeypatch, 1, X, U, Q, (0.5, 1.0), (1.0, 1e4), "gaussian")
    dead = [pred for _, hi, pred in cells if hi == 0]
    assert len(dead) == 2
    assert all(isinstance(e, DegenerateWeightsError) for e in dead)
    assert all(e.query_index == 8 for e in dead)
    assert "query row 8" in str(dead[0])
    assert all(isinstance(pred, np.ndarray) for _, hi, pred in cells if hi == 1)
    # the dead bandwidth is not evaluated again after its dying block
    assert calls.count(1.0) == 8 // b + 1
    assert calls.count(1e4) == len(Q) // b


def _tiled_chunk(n, m):
    # A budget whose row tiles hold m // 16 rows, while the block rule
    # (R > m rows at this n) keeps the one-block GEMM.
    chunk = 4 * 8 * n * m
    assert -(-regressors._STACK_MULADDS // (n * 4)) > m
    assert len(_row_blocks(m, 8 * n, chunk // 64)) > 1
    return chunk


@pytest.mark.parametrize("kernel", sorted(regressors.KERNELS))
def test_kernel_tiles_equal_one_tile(monkeypatch, kernel):
    rng = np.random.default_rng(11)
    n, m = 70, 40
    X = rng.normal(size=(n, 2))
    U = closure(rng.random((n, 4)) + 0.02)
    Q = rng.normal(size=(m, 2))
    args = (X, U, Q, (-1.0, 0.0, 0.5, 1.0), (0.2, 1.0, 5.0), kernel)
    one = _kernel_cells(monkeypatch, 2**40, *args)
    tiled = _kernel_cells(monkeypatch, _tiled_chunk(n, m), *args)
    assert [c[:2] for c in tiled] == [c[:2] for c in one]
    for (_, _, want), (_, _, got) in zip(one, tiled):
        assert np.array_equal(got, want)


def test_kernel_degenerate_row_in_later_tile(monkeypatch):
    rng = np.random.default_rng(5)
    n, m = 40, 32
    X = rng.normal(size=(n, 1))
    U = closure(rng.random((n, 3)) + 0.05)
    Q = rng.normal(size=(m, 1))
    Q[[3, 9]] = 1e3  # every weight underflows at h = 1 in rows 3 and 9
    chunk = _tiled_chunk(n, m)
    assert _row_blocks(m, 8 * n, chunk // 64)[1] == slice(2, 4)  # row 3: the second tile
    for budget in (2**40, chunk):
        cells = _kernel_cells(monkeypatch, budget, X, U, Q, (0.5, 1.0), (1.0, 1e4), "gaussian")
        dead = [pred for _, hi, pred in cells if hi == 0]
        assert len(dead) == 2
        assert all(isinstance(e, DegenerateWeightsError) and e.query_index == 3 for e in dead)
        assert "query row 3" in str(dead[0])
        assert all(isinstance(pred, np.ndarray) for _, hi, pred in cells if hi == 1)


@pytest.mark.parametrize("family", ["alpha-knn", "alpha-kernel"])
def test_tune_bytes_identical_across_threads_at_D7(family):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(240, 2))
    U = closure(rng.random((240, 7)) + 0.02)
    alphas = (-1.0, 0.0, 0.5, 1.0)
    if family == "alpha-knn":
        grid = TuningGrid(alphas=alphas, ks=(2, 5, 20), folds=5, seed=3)
    else:
        grid = TuningGrid(alphas=alphas, hs=(0.2, 0.6, 2.0), folds=5, seed=3)
    one = tune(X, U, family, grid, threads=1).to_json()
    two = tune(X, U, family, grid, threads=2).to_json()
    assert one == two


def test_distance_kernel_beats_row_sum_formula():
    # Ratio gate, never absolute seconds: p whole-array adds against a
    # sum over a length-p trailing axis (measured 5-8x).
    rng = np.random.default_rng(11)
    X = rng.normal(size=(2700, 2))
    Q = rng.normal(size=(300, 2))

    def best_of_3(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn(X[None, :, :], Q[:, None, :])
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of_3(_distances_to) <= 0.5 * best_of_3(_row_sum_distances)
