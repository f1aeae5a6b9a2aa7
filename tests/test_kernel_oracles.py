"""Exact oracles for the hot-path kernels: the logistic function, the LSTM
forward/backward pass and its forward without history, the sliding
windows and their scaling as views, the Monte-Carlo portfolio variance, the
selection that scores several forecasts on one set of draws, the selection
in chunks and the reuse of one Monte-Carlo workspace across days.

Each fast kernel keeps every GEMM, sum and product of its reference in the
same order, so the comparisons here are bit for bit, not within a tolerance.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import skip_unless_golden_build
from sentfolio import pipeline, portfolio_opt
from sentfolio.forecast_lstm import LstmConfig, LstmModel, _sigmoid, make_windows, train
from sentfolio.errors import DegenerateMarketError
from sentfolio.portfolio_opt import (
    CHUNK_ROWS,
    VOL_FLOOR,
    Moments,
    MonteCarloWorkspace,
    frontier_samples,
    mean_variance_select,
    predictive_weights,
)
from sentfolio.market_data import SplitSpec, split_chronological
from sentfolio.synthetic import make_panel


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# -- logistic function ------------------------------------------------------

def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_inputs():
    tiny = np.finfo(float).tiny
    edges = np.arange(745.0, 801.0)
    special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3, -tiny / 3,
               tiny, -tiny, 1e-310, -1e-310]
    normal = 10.0 * np.random.default_rng(0).standard_normal(100_000)
    return np.concatenate([special, edges, -edges, edges + 0.5, -edges - 0.5, normal])


class TestSigmoid:
    def test_matches_two_branch_formula(self):
        x = sigmoid_inputs()
        out = np.empty_like(x)
        _sigmoid(x, out=out, e=np.empty_like(x))
        assert_bits(out, two_branch_sigmoid(x))

    def test_in_place(self):
        x = sigmoid_inputs().reshape(-1, 4)
        expected = two_branch_sigmoid(x)
        _sigmoid(x, out=x, e=np.empty_like(x))
        assert_bits(x, expected)

    def test_nan_maps_to_nan_without_warning(self):
        x = np.array([np.nan, -np.nan, 1.0, np.nan, -2.0])
        out = np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sigmoid(x, out=out, e=np.empty_like(x))
        assert np.isnan(out[[0, 1, 3]]).all()
        assert_bits(out[[2, 4]], two_branch_sigmoid(x[[2, 4]]))


# -- LSTM forward and BPTT ----------------------------------------------------

def reference_forward(model, X):
    """Per-step forward pass with the unpacked gates, as first written."""
    H = model.config.hidden_size
    B, T, _ = X.shape
    layers = []
    xs = X.transpose(1, 0, 2)
    for W, U, b in zip(model.W, model.U, model.b):
        gates = np.empty((T, B, 4 * H))
        c = np.zeros((T + 1, B, H))
        h = np.zeros((T + 1, B, H))
        for t in range(T):
            z = xs[t] @ W + h[t] @ U + b
            a = gates[t]
            a[...] = two_branch_sigmoid(z)
            a[:, 2 * H : 3 * H] = np.tanh(z[:, 2 * H : 3 * H])
            i, f, g, o = (a[:, k * H : (k + 1) * H] for k in range(4))
            c[t + 1] = f * c[t] + i * g
            h[t + 1] = o * np.tanh(c[t + 1])
        layers.append((xs, gates, c, h))
        xs = h[1:]
    return xs[-1] @ model.W_out + model.b_out, layers


def reference_backward(model, dY, layers):
    """Per-step BPTT with the gate products spelled out, as first written."""
    H = model.config.hidden_size
    T, B = layers[0][1].shape[:2]
    grads = [None] * (3 * len(layers))
    dh_seq = np.zeros((T, B, H))
    dh_seq[-1] = dY @ model.W_out.T
    for l in range(len(layers) - 1, -1, -1):
        xs, gates, c, h = layers[l]
        dW = np.zeros_like(model.W[l])
        dU = np.zeros_like(model.U[l])
        db = np.zeros_like(model.b[l])
        tc = np.tanh(c[1:])
        dz = np.empty((T, B, 4 * H))
        dh_next = dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            i, f, g, o = (gates[t, :, k * H : (k + 1) * H] for k in range(4))
            dc = dh * o * (1.0 - tc[t] * tc[t]) + dc_next
            dz[t, :, :H] = dc * g * i * (1.0 - i)
            dz[t, :, H : 2 * H] = dc * c[t] * f * (1.0 - f)
            dz[t, :, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            dz[t, :, 3 * H :] = dh * tc[t] * o * (1.0 - o)
            dW += xs[t].T @ dz[t]
            dU += h[t].T @ dz[t]
            db += dz[t].sum(axis=0)
            dh_next = dz[t] @ model.U[l].T
            dc_next = dc * f
        grads[3 * l : 3 * l + 3] = dW, dU, db
        if l:
            dh_seq = dz @ model.W[l].T
    grads += [layers[-1][3][-1].T @ dY, dY.sum(axis=0)]
    return np.concatenate([g.ravel() for g in grads])


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("hidden", [4, 13, 16])
@pytest.mark.parametrize("width", [30, 12])
def test_lstm_matches_per_step_reference(num_layers, hidden, width):
    rng = np.random.default_rng(100 * num_layers + hidden + width)
    n_assets = width // 6
    for batch in (1, 7, 32, 194, 554):
        model = LstmModel(LstmConfig(hidden_size=hidden, num_layers=num_layers, seed=batch),
                          n_assets)
        X = rng.uniform(size=(batch, 6, width))
        Y = rng.uniform(size=(batch, n_assets))
        for _ in range(3):  # fresh Adam state, then two updated ones
            y_ref, layers_ref = reference_forward(model, X)
            y, layers = model._forward_scaled(X)
            assert_bits(y, y_ref)
            for got, want in zip(layers, layers_ref):
                for a, b in zip(got, want):
                    assert_bits(a, b)
            err = y_ref - Y
            assert model.loss(X, Y) == float(np.mean(err ** 2))
            loss, grad = model.loss_and_grads(X, Y)
            assert loss == float(np.mean(err * err))
            assert_bits(grad, reference_backward(model, 2.0 * err / err.size, layers_ref))
            model.adam_step(grad)


@pytest.mark.parametrize("num_layers", [1, 3])
def test_forward_without_history_matches_training_forward(num_layers):
    """``loss`` and ``forward`` keep no per-step gates or cells, and give bit
    for bit what the training forward gives."""
    rng = np.random.default_rng(num_layers)
    for batch in (1, 17, 32, 194, 554):
        model = LstmModel(LstmConfig(hidden_size=13, num_layers=num_layers, seed=batch), 5)
        raw = rng.uniform(50.0, 150.0, size=(batch, 6, 30))
        model.fit_scaler(raw.reshape(-1, 30))
        X = model.scale_inputs(raw)
        Y = rng.uniform(size=(batch, 5))
        y_train, layers = model._forward_scaled(X)
        y, none = model._forward_scaled(X, history=False)
        assert len(layers) == num_layers and none == []
        assert_bits(y, y_train)
        err = y_train - Y
        assert model.loss(X, Y) == float(np.mean(err ** 2))
        assert_bits(model.forward(raw), model._prices(y_train))
        # one window is a batch of one: B = 1 has GEMMs of its own
        assert_bits(model.forward(raw[:1]), model._prices(model._forward_scaled(X[:1])[0]))


@pytest.mark.parametrize("window", [1, 6])
def test_windows_are_a_read_only_view_of_stacked_rows(window):
    panel = make_panel(seed=4, n_days=60)
    feats = panel.feature_matrix()
    X, _ = make_windows(panel, window)
    assert_bits(X, np.stack([feats[k : k + window] for k in range(len(feats) - window)]))
    assert not X.flags.writeable and np.shares_memory(X, panel.values)


def owner(a):
    """The array that holds the memory ``a`` views."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


@pytest.mark.parametrize("num_layers", [1, 3])
def test_forward_on_a_view_matches_forward_on_a_copy(num_layers):
    """Windows viewed on one matrix are scaled as that matrix, once, and
    forecast bit for bit as their stacked copy; without history the top
    layer keeps one rolling row, and gives what full history gives."""
    panel = make_panel(seed=num_layers, n_days=600)
    for batch in (1, 17, 32, 194, 554):
        model = LstmModel(LstmConfig(hidden_size=13, num_layers=num_layers, seed=batch), 5)
        model.fit_scaler(panel.feature_matrix())
        X, _ = make_windows(panel.slice(0, batch + 6))
        copy = np.ascontiguousarray(X)
        scaled, scaled_copy = model.scale_inputs(X), model.scale_inputs(copy)
        assert_bits(scaled, scaled_copy)
        if batch > 1:  # B = 1 has no second window to share rows with
            assert not scaled.flags.writeable and not np.shares_memory(scaled, X)
            assert owner(scaled).shape == (batch + 5, 30)  # each scaled row once
        assert_bits(model.forward(X), model.forward(copy))
        y, _ = model._forward_scaled(scaled, history=False)
        y_train, _ = model._forward_scaled(scaled_copy)
        assert_bits(y, y_train)


def test_windows_of_any_layout_are_scaled_entry_by_entry():
    """Windows whose step and window strides are equal share rows and are
    scaled as one matrix; any other batch is scaled as it is.  Either way
    each entry is (x - min) / span."""
    rng = np.random.default_rng(8)
    model = LstmModel(LstmConfig(hidden_size=4, num_layers=1), 5)
    model.fit_scaler(rng.uniform(size=(40, 30)))
    raw = rng.uniform(size=(40, 6, 30))
    matrix = rng.uniform(size=(45, 30))
    shared = np.lib.stride_tricks.sliding_window_view(matrix[::-1], 6, axis=0).transpose(0, 2, 1)
    for X in (raw, raw[::2], raw[:, ::-1], raw.transpose(1, 0, 2), shared,
              np.broadcast_to(matrix[0], (40, 6, 30))):
        assert_bits(model.scale_inputs(X), (X - model.feature_min) / model.feature_span)


@pytest.mark.parametrize("num_layers", [1, 3])
def test_training_on_the_view_matches_training_on_a_copy(num_layers):
    panel = make_panel(seed=5, n_days=300)
    tr, va, _ = split_chronological(panel, SplitSpec())
    config = LstmConfig(hidden_size=8, num_layers=num_layers, epochs=3, seed=num_layers)
    runs = []
    for as_copy in (False, True):
        model = LstmModel(config, 5)
        model.fit_scaler(tr.feature_matrix())
        windows = [make_windows(split) for split in (tr, va)]
        if as_copy:
            windows = [(np.ascontiguousarray(X), Y) for X, Y in windows]
        runs.append((train(model, *windows), model.theta))
    (report, theta), (report_copy, theta_copy) = runs
    assert_bits(theta, theta_copy)
    assert report == report_copy


def test_training_both_variants_of_an_allocate_sized_panel_stays_small():
    """2000 days of 5 assets, a 4-unit LSTM: a copy of the scaled train
    windows alone is 1 400 x 6 x 30 x 8 B = 2 MB (3.8 MiB in all before
    they became a view)."""
    panel = make_panel(seed=11, n_days=2000)
    config = LstmConfig(hidden_size=4, num_layers=1, learning_rate=0.01, epochs=1, seed=11)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pipeline.train_variants(panel, SplitSpec(), config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


# -- Monte-Carlo portfolio variance -----------------------------------------

def random_cov(rng, n):
    A = rng.standard_normal((n, n + 3)) * 0.02
    return A @ A.T


@pytest.mark.parametrize("n_assets", range(1, 13))
def test_frontier_variance_matches_einsum(n_assets):
    rng = np.random.default_rng(n_assets)
    mu = rng.normal(0.001, 0.01, n_assets)
    for cov in (random_cov(rng, n_assets), np.zeros((n_assets, n_assets))):
        m = Moments(mu=mu, cov=cov)
        for count in (1, 7, 50_000):
            W, vol, rows = frontier_samples(m, count, seed=count)
            ((exp_ret, sharpe),) = rows
            draws = np.random.default_rng(count).exponential(size=(count, n_assets))
            assert_bits(W, draws / draws.sum(axis=1, keepdims=True))
            variance = np.einsum("ij,jk,ik->i", W, cov, W)
            expected_vol = np.sqrt(np.maximum(variance, 0.0))
            assert_bits(exp_ret, W @ mu)
            assert_bits(vol, expected_vol)
            # a zero-volatility sample gets Sharpe 0
            assert_bits(sharpe, np.where(
                expected_vol < VOL_FLOOR, 0.0, (W @ mu) / np.maximum(expected_vol, VOL_FLOOR)))


@pytest.mark.parametrize("n_assets", range(1, 13))
def test_shared_selection_matches_single_rows(n_assets):
    """V expected-return rows scored on one draw pick, bit for bit, what
    each row picks on its own."""
    rng = np.random.default_rng(100 + n_assets)
    cov = random_cov(rng, n_assets)
    for n_rows in (1, 2, 3):
        mus = rng.normal(0.001, 0.01, (n_rows, n_assets))
        for count in (1, 7, 50_000):
            shared = mean_variance_select(Moments(mu=mus, cov=cov), count, seed=count)
            assert len(shared) == n_rows
            for mu, got in zip(mus, shared):
                (want,) = mean_variance_select(Moments(mu=mu, cov=cov), count, seed=count)
                assert_bits(got.weights.as_array(), want.weights.as_array())
                for field in ("exp_return", "volatility", "sharpe"):
                    assert_bits(getattr(got, field), getattr(want, field))
        flat = Moments(mu=mus, cov=np.zeros((n_assets, n_assets)))
        with pytest.raises(DegenerateMarketError):
            mean_variance_select(flat, 7, seed=7)


def test_frontier_rows_are_single_gemvs():
    rng = np.random.default_rng(5)
    mus = rng.normal(0.001, 0.01, (3, 5))
    W, vol, rows = frontier_samples(Moments(mu=mus, cov=random_cov(rng, 5)), 50_000, seed=3)
    scored = 0
    # each row's scores hold until the next row is scored
    for mu, (exp_ret, sharpe) in zip(mus, rows):
        assert_bits(exp_ret, W @ mu)
        assert_bits(sharpe, np.where(vol < VOL_FLOOR, 0.0, (W @ mu) / np.maximum(vol, VOL_FLOOR)))
        scored += 1
    assert scored == 3


# -- one Monte-Carlo workspace across days ----------------------------------

def test_standard_exponential_into_out_matches_exponential():
    out = np.empty((50_000, 5))
    for seed in range(50):
        np.random.default_rng(seed).standard_exponential(out=out)
        assert_bits(out, np.random.default_rng(seed).exponential(scale=1.0, size=(50_000, 5)))


def select_or_degenerate(m, count, seed, workspace=None):
    try:
        return mean_variance_select(m, count, seed=seed, workspace=workspace)
    except DegenerateMarketError:
        return None


@pytest.mark.parametrize("n_assets", range(1, 13))
def test_reused_workspace_matches_fresh_selection(n_assets):
    """A run of days in one workspace, with an all-zero covariance day between
    two normal days, picks bit for bit what fresh arrays pick each day."""
    rng = np.random.default_rng(200 + n_assets)
    zero = np.zeros((n_assets, n_assets))
    covs = [random_cov(rng, n_assets), random_cov(rng, n_assets), zero,
            random_cov(rng, n_assets)]
    count = 50_000
    workspace = MonteCarloWorkspace(count, n_assets)
    for day, cov in enumerate(covs):
        m = Moments(mu=rng.normal(0.001, 0.01, (2, n_assets)), cov=cov)
        got = select_or_degenerate(m, count, day, workspace)
        want = select_or_degenerate(m, count, day)
        assert (got is None) == (want is None) == (cov is zero)
        for g, w in zip(got or (), want or ()):
            assert_bits(g.weights.as_array(), w.weights.as_array())
            for field in ("exp_return", "volatility", "sharpe"):
                assert_bits(getattr(g, field), getattr(w, field))


def test_frontier_without_workspace_returns_fresh_arrays():
    rng = np.random.default_rng(9)
    m = Moments(mu=rng.normal(0.001, 0.01, 5), cov=random_cov(rng, 5))
    W, vol, rows = frontier_samples(m, 1000, seed=1)
    ((exp_ret, sharpe),) = rows
    first = [a.copy() for a in (W, vol, exp_ret, sharpe)]
    W2, _, rows2 = frontier_samples(m, 1000, seed=2)
    list(rows2)
    assert not np.array_equal(W2, first[0])
    for kept, copy in zip((W, vol, exp_ret, sharpe), first):
        assert_bits(kept, copy)


# -- one selection in chunks --------------------------------------------------

def one_shot_frontier(m, count, seed):
    """Every sample of one selection in one workspace, as first written:
    (W, vol, flat, [(exp_ret, sharpe) per row])."""
    n = m.mu.shape[-1]
    W = np.random.default_rng(seed).standard_exponential(size=(count, n))
    cols = W.T.copy()
    if n < 8:
        total = cols[0].copy()
        for col in cols[1:]:
            total += col
    else:
        total = W.sum(axis=1)
    W /= total[:, None]
    cols /= total
    variance = np.zeros(count)
    for j in range(n):
        for k in range(n):
            variance += cols[j] * m.cov[j, k] * cols[k]
    vol = np.sqrt(np.maximum(variance, 0.0))
    flat = vol < VOL_FLOOR
    divisor = np.maximum(vol, VOL_FLOOR) if flat.any() else vol
    rows = []
    for mu in np.atleast_2d(m.mu):
        exp_ret = W @ mu
        sharpe = exp_ret / divisor
        sharpe[flat] = 0.0
        rows.append((exp_ret, sharpe))
    return W, vol, flat, rows


def one_shot_select(m, count, seed):
    """(sample index, exp_return, volatility, sharpe) per row, picked over
    all samples at once; None when every sample is flat."""
    W, vol, flat, rows = one_shot_frontier(m, count, seed)
    if flat.all():
        return None
    return [(int(np.argmax(sharpe)),) + tuple(
        float(a[np.argmax(sharpe)]) for a in (exp_ret, vol, sharpe)) for exp_ret, sharpe in rows]


def chunk_sizes(count):
    """The chunks of a selection of ``count`` samples in its own workspace:
    full ones, save that a full chunk which would leave one row takes 8
    rows fewer, so that the last holds 9."""
    full, tail = divmod(count, CHUNK_ROWS)
    sizes = [CHUNK_ROWS] * full + [tail] * (tail > 0)
    if full and tail == 1:
        sizes[-2:] = [CHUNK_ROWS - 8, 9]
    return sizes


def chunked_select(monkeypatch, m, count, seed):
    """mean_variance_select's picks and every sample it scored, chunk by
    chunk: (picks or None, W, vol, [(exp_ret, sharpe) per row]), and the
    chunks' sizes."""
    chunks = []

    def recording(*args):
        W, vol, rows = frontier_samples(*args)
        chunks.append((W.copy(), vol.copy(), [(r.copy(), s.copy()) for r, s in rows]))
        return W, vol, iter(chunks[-1][2])

    monkeypatch.setattr(portfolio_opt, "frontier_samples", recording)
    try:
        picks = mean_variance_select(m, count, seed=seed)
    except DegenerateMarketError:
        picks = None
    monkeypatch.undo()
    rows = [tuple(np.concatenate(parts) for parts in zip(*row_chunks))
            for row_chunks in zip(*(c[2] for c in chunks))]
    return (picks, np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]), rows, [len(c[1]) for c in chunks])


def assert_chunked_matches_one_shot(monkeypatch, m, count, seed):
    picks, W, vol, rows, sizes = chunked_select(monkeypatch, m, count, seed)
    assert sizes == chunk_sizes(count)
    W_ref, vol_ref, _, rows_ref = one_shot_frontier(m, count, seed)
    assert_bits(W, W_ref)
    assert_bits(vol, vol_ref)
    assert len(rows) == len(rows_ref)
    for (exp_ret, sharpe), (exp_ref, sharpe_ref) in zip(rows, rows_ref):
        assert_bits(exp_ret, exp_ref)
        assert_bits(sharpe, sharpe_ref)
    want = one_shot_select(m, count, seed)
    assert (picks is None) == (want is None)
    for got, (index, exp_return, volatility, sharpe) in zip(picks or (), want or ()):
        assert_bits(got.weights.as_array(), W_ref[index])
        assert_bits(got.exp_return, exp_return)
        assert_bits(got.volatility, volatility)
        assert_bits(got.sharpe, sharpe)
    return want


@pytest.mark.parametrize("n_assets", [1, 5, 12])
@pytest.mark.parametrize("n_rows", [1, 2])
@pytest.mark.parametrize("count", [1, 7, 8193, 50_000])
def test_chunked_selection_matches_one_shot(monkeypatch, n_assets, n_rows, count):
    """50 000 samples are six chunks of CHUNK_ROWS and a tail of 848, 8 193
    are a chunk of 8 184 and a tail of 9."""
    rng = np.random.default_rng(1000 * n_assets + count)
    m = Moments(mu=rng.normal(0.001, 0.01, (n_rows, n_assets)), cov=random_cov(rng, n_assets))
    assert assert_chunked_matches_one_shot(monkeypatch, m, count, seed=count) is not None


def test_chunked_selection_breaks_a_planted_tie_to_the_first_sample(monkeypatch):
    """With equal expected returns and a covariance of equal entries every
    Sharpe ratio is the same up to rounding: the maximum repeats in several
    chunks, and the pick is its first sample."""
    m = Moments(mu=np.full((2, 5), 0.001), cov=np.full((5, 5), 1e-4))
    _, _, _, rows = one_shot_frontier(m, 50_000, seed=1)
    sharpe = rows[0][1]
    assert len(set(np.flatnonzero(sharpe == sharpe.max()) // CHUNK_ROWS)) > 1
    assert_chunked_matches_one_shot(monkeypatch, m, 50_000, seed=1)


def test_chunked_selection_picks_the_first_nan(monkeypatch):
    """A NaN forecast makes every Sharpe ratio of its row NaN; np.argmax
    picks the first, and the other row is picked as alone."""
    rng = np.random.default_rng(3)
    mus = rng.normal(0.001, 0.01, (2, 5))
    mus[1, 2] = np.nan
    want = assert_chunked_matches_one_shot(
        monkeypatch, Moments(mu=mus, cov=random_cov(rng, 5)), 50_000, seed=3)
    assert want[1][0] == 0 and math.isnan(want[1][3])


def test_chunked_selection_on_a_near_flat_covariance(monkeypatch):
    """A covariance scaled so that the three least volatile samples fall
    below VOL_FLOOR: some chunks hold flat samples (Sharpe 0), others not."""
    rng = np.random.default_rng(4)
    mus, cov = rng.normal(0.001, 0.01, (2, 5)), random_cov(rng, 5)
    _, vol, _, _ = one_shot_frontier(Moments(mu=mus, cov=cov), 50_000, seed=4)
    m = Moments(mu=mus, cov=cov * (VOL_FLOOR / np.sort(vol)[3]) ** 2)
    _, _, flat, _ = one_shot_frontier(m, 50_000, seed=4)
    per_chunk = [flat[lo : lo + CHUNK_ROWS].any() for lo in range(0, 50_000, CHUNK_ROWS)]
    assert 0 < flat.sum() < flat.size and 0 < sum(per_chunk) < len(per_chunk)
    assert_chunked_matches_one_shot(monkeypatch, m, 50_000, seed=4)


def test_workspace_of_every_sample_is_one_chunk(monkeypatch):
    """Given a workspace of all 50 000 rows, a selection draws and scores
    them in one frontier_samples call, which leaves the last row's scores of
    every sample in the workspace, and picks bit for bit what the default
    chunks pick."""
    rng = np.random.default_rng(6)
    m = Moments(mu=rng.normal(0.001, 0.01, (2, 5)), cov=random_cov(rng, 5))
    calls = []

    def counted(*args):
        calls.append(args[1])
        return frontier_samples(*args)

    monkeypatch.setattr(portfolio_opt, "frontier_samples", counted)
    ws = MonteCarloWorkspace(50_000, 5)
    got = mean_variance_select(m, 50_000, seed=6, workspace=ws)
    assert calls == [50_000]
    W, vol, _, rows = one_shot_frontier(m, 50_000, seed=6)
    for buffer, want in zip((ws.W, ws.variance, ws.term, ws.total), (W, vol, *rows[-1])):
        assert_bits(buffer, want)
    calls.clear()
    want = mean_variance_select(m, 50_000, seed=6)
    assert len(calls) == 7
    for g, w in zip(got, want):
        assert_bits(g.weights.as_array(), w.weights.as_array())
        for field in ("exp_return", "volatility", "sharpe"):
            assert_bits(getattr(g, field), getattr(w, field))


@pytest.mark.parametrize("scores", [
    [1.0, 5.0, 5.0, 2.0, 0.0, 5.0, 3.0, 4.0],  # a later equal maximum loses
    [1.0, 5.0, 6.0, np.nan, np.nan, 9.0, 2.0, 3.0],  # a NaN wins, and keeps winning
])
def test_chunked_selection_merges_picks_as_argmax(monkeypatch, scores):
    """In chunks of 2 the pick is np.argmax over all 8 samples.  Each
    scripted sample's expected return is its index."""
    drawn = []

    def scripted(m, count, rng, ws):
        W, _, _, _, _, flat = ws._head(count)
        W[...] = 0.5
        flat[...] = False
        index = np.arange(len(drawn), len(drawn) + count, dtype=float)
        drawn.extend(index)
        return W, np.ones(count), iter([(index, np.array(scores)[index.astype(int)])])

    monkeypatch.setattr(portfolio_opt, "CHUNK_ROWS", 2)
    monkeypatch.setattr(portfolio_opt, "frontier_samples", scripted)
    (pick,) = mean_variance_select(Moments(mu=np.zeros(2), cov=np.eye(2)), count=8, seed=0)
    assert len(drawn) == 8
    assert pick.exp_return == np.argmax(scores)
    assert_bits(pick.sharpe, scores[int(np.argmax(scores))])


def test_chunked_selection_all_flat_raises():
    with pytest.raises(DegenerateMarketError):
        mean_variance_select(Moments(mu=np.full((2, 5), 0.01), cov=np.zeros((5, 5))), 50_000)


@pytest.mark.parametrize("n_assets", range(1, 17))
def test_chunks_score_every_sample_as_one_draw(monkeypatch, n_assets):
    """Past one, two and three chunks by 1 to 40 samples, and at 50 000,
    every sample's volatility, expected return and Sharpe ratio in the
    chunks equals, bit for bit, its own in one frontier_samples call over
    all of them.  A one-row GEMV rounds unlike a row of a longer one, so a
    lone last row would break this.  How a row rounds is the BLAS's, so this
    runs only on the numpy and BLAS build of the golden digests."""
    skip_unless_golden_build()
    rng = np.random.default_rng(n_assets)
    m = Moments(mu=rng.normal(0.001, 0.01, (2, n_assets)), cov=random_cov(rng, n_assets))
    for count in [*range(CHUNK_ROWS + 1, CHUNK_ROWS + 41), 2 * CHUNK_ROWS + 1,
                  3 * CHUNK_ROWS + 1, 50_000]:
        _, _, vol, rows, _ = chunked_select(monkeypatch, m, count, seed=count)
        _, vol_ref, rows_ref = frontier_samples(m, count, seed=count)
        for (exp_ret, sharpe), (exp_ref, sharpe_ref) in zip(rows, rows_ref):
            assert_bits(exp_ret, exp_ref)
            assert_bits(sharpe, sharpe_ref)
        assert_bits(vol, vol_ref)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_covariance_raises_before_drawing(monkeypatch, zero):
    """On a covariance of zeros every variance is 0: the selection raises
    what it raises when every drawn sample is flat, and draws nothing.  A
    covariance too small for any sample to reach VOL_FLOOR draws first."""
    draws = []
    draw = portfolio_opt._draw_simplex
    monkeypatch.setattr(portfolio_opt, "_draw_simplex",
                        lambda W, *rest: draws.append(len(W)) or draw(W, *rest))
    message = "^all sampled portfolios have zero volatility$"
    with pytest.raises(DegenerateMarketError, match=message):
        mean_variance_select(Moments(mu=np.full((2, 5), 0.01), cov=np.full((5, 5), zero)), 50_000)
    assert draws == []
    with pytest.raises(DegenerateMarketError, match=message):
        mean_variance_select(Moments(mu=np.full((2, 5), 0.01), cov=np.eye(5) * 1e-300), 50_000)
    assert draws == chunk_sizes(50_000)


def test_a_backtest_selection_holds_one_small_workspace():
    """One predictive_weights call of 50 000 samples on 5 assets: the
    workspace of 8 192 rows takes 0.81 MiB, where one of 16 384 took
    1.6 MiB."""
    rng = np.random.default_rng(0)
    last = np.full((3, 5), 100.0)
    pred = last * (1.0 + rng.normal(0.0, 0.01, size=(2, 3, 5)))
    trailing = [rng.normal(0.0, 0.02, size=(50, 5)) for _ in range(3)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        predictive_weights(pred, last, trailing, count=50_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20
