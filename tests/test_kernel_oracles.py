"""Exact oracles for the hot-path kernels: the logistic function, the LSTM
forward/backward pass, the Monte-Carlo portfolio variance, the selection
that scores several forecasts on one set of draws and the reuse of one
Monte-Carlo workspace across days.

Each fast kernel keeps every GEMM, sum and product of its reference in the
same order, so the comparisons here are bit for bit, not within a tolerance.
"""

import warnings

import numpy as np
import pytest

from sentfolio.forecast_lstm import LstmConfig, LstmModel, _sigmoid
from sentfolio.errors import DegenerateMarketError
from sentfolio.portfolio_opt import (
    VOL_FLOOR,
    Moments,
    MonteCarloWorkspace,
    frontier_samples,
    mean_variance_select,
)


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
        _sigmoid(x, out=out)
        assert_bits(out, two_branch_sigmoid(x))

    def test_in_place(self):
        x = sigmoid_inputs().reshape(-1, 4)
        expected = two_branch_sigmoid(x)
        _sigmoid(x, out=x)
        assert_bits(x, expected)

    def test_nan_maps_to_nan_without_warning(self):
        x = np.array([np.nan, -np.nan, 1.0, np.nan, -2.0])
        out = np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sigmoid(x, out=out)
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
    scored = list(rows)
    assert len(scored) == 3
    for mu, (exp_ret, sharpe) in zip(mus, scored):
        assert_bits(exp_ret, W @ mu)
        assert_bits(sharpe, np.where(vol < VOL_FLOOR, 0.0, (W @ mu) / np.maximum(vol, VOL_FLOOR)))


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
