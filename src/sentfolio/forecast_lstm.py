"""Stacked LSTM price forecaster: 6-day feature windows to next-day prices.

Forward, backward (BPTT) and Adam are implemented directly on numpy arrays so
gradients can be verified against central finite differences.  Gate layout in
each fused weight matrix is [input, forget, cell, output].

All weights live in one float64 vector ``LstmModel.theta``, in the order
W[0], U[0], b[0], ..., W[L-1], U[L-1], b[L-1], W_out, b_out (row-major); the
named weights, the gradient and the Adam moments share that layout.  Only
training keeps per-step arrays: for backprop its forward pass keeps per
layer the activated gates (T, B, 4H) and the cell and hidden states c, h
(T+1, B, H), whose index 0 is the zero initial state.  ``loss`` and
``forward`` run the same step with one (B, 4H) gate buffer and one cell
state per layer, and keep only the hidden states that the next layer reads:
all T of a lower layer, and the one row that the top layer's next step reads.

``make_windows`` views the feature matrix: window i is rows i..i+T-1, so
each row is stored once.  ``scale_inputs`` keeps that layout.  It scales
such windows' matrix once and views the result the same way, where a copy
of the windows would hold each scaled row T times.

The step kernels write into those arrays in place, but every GEMM, sum and
product runs on the same operands and in the same order as the plain
per-step formulas, so losses, gradients and trained weights are bit-identical
to them (``tests/test_kernel_oracles.py`` checks this).  The input projection
``x_t W`` and the ``dW``/``dU`` accumulations therefore stay one GEMM per
step: one GEMM over all T*B rows makes OpenBLAS pick another kernel at some
row counts.  With 30 inputs and 4H = 52 that changes entries by up to 6.7e-16
at B = 194 and 554, and at B = 1 it changes every shape tried.

Each epoch re-scores the whole train set only to log ``train_mse``.  Dropping
that pass waits for a benchmark change, because the benchmark pins
``forecast_lstm.loss.calls`` at 2 per epoch and model.

The panel sizes the network: ``LstmModel(config, n_assets)`` reads
``n_assets * len(FEATURE_NAMES)`` features and predicts ``n_assets`` prices,
the ``PRICE_COLUMNS`` of the feature matrix.  A checkpoint (format 2) is one
JSON object holding ``config``, ``n_assets``, the input scaler's ``min`` and
``span``, and ``theta`` as one list; the target scaler is its
``PRICE_COLUMNS``, so it is not stored.  JSON writes each float's shortest
round-tripping repr, so a loaded model forecasts bit for bit as the saved
one, and saving it again gives the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, DimensionError, DivergenceError,
                     InsufficientDataError, ParseError, SentfolioError)
from .market_data import FEATURE_NAMES, PRICE_COLUMNS, AlignedPanel

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = 2


@dataclass
class LstmConfig:
    hidden_size: int = 13
    num_layers: int = 3
    learning_rate: float = 0.004
    window: int = 6
    batch_size: int = 32
    epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_size", "num_layers", "window", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"lstm.{name} must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigurationError("lstm.learning_rate must be positive")
        if self.seed < 0:
            raise ConfigurationError("lstm.seed must be >= 0")


@dataclass
class TrainReport:
    train_mse: list[float]
    val_mse: list[float]
    best_epoch: int

    def __post_init__(self):
        if self.val_mse and not (0 <= self.best_epoch < len(self.val_mse)
                                 and self.val_mse[self.best_epoch] == min(self.val_mse)):
            raise SentfolioError(
                f"best_epoch {self.best_epoch} is not an argmin of val_mse"
            )


class MinMaxScaler:
    """Per-feature [0,1] scaling; constant features map to 0 and back exactly."""

    def __init__(self):
        self.min_: np.ndarray | None = None
        self.span_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.min_ is not None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=float)
        self.min_ = X.min(axis=0)
        span = X.max(axis=0) - self.min_
        span[span < 1e-12] = 1.0
        self.span_ = span
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise DimensionError("scaler not fitted")
        out = np.asarray(X, dtype=float) - self.min_
        out /= self.span_
        return out

    def inverse(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise DimensionError("scaler not fitted")
        return np.asarray(X, dtype=float) * self.span_ + self.min_

    def subset(self, columns: slice) -> "MinMaxScaler":
        out = MinMaxScaler()
        out.min_ = self.min_[columns].copy()
        out.span_ = self.span_[columns].copy()
        return out


def _sigmoid(x: np.ndarray, out: np.ndarray, e: np.ndarray) -> None:
    """Overflow-free logistic function of ``x``, written into ``out`` (which
    may be ``x`` itself); ``e``, of x's shape, is a work buffer that aliases
    neither.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    bit for bit the two-branch formula, with the numerator max(e, [x >= 0])
    taken without masks or fancy indexing.  NaN stays NaN.
    """
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e


def _parameter_shapes(config: LstmConfig, n_assets: int) -> list[tuple[int, ...]]:
    """The shapes of the weights in ``theta`` order."""
    H = config.hidden_size
    shapes: list[tuple[int, ...]] = []
    in_dim = n_assets * len(FEATURE_NAMES)
    for _ in range(config.num_layers):
        shapes += [(in_dim, 4 * H), (H, 4 * H), (4 * H,)]
        in_dim = H
    return shapes + [(H, n_assets), (n_assets,)]


class LstmModel:
    """Joint multi-asset forecaster; one network maps the stacked feature
    window of ``n_assets`` assets to all their prices at once.

    ``theta`` is updated in place only: ``W``, ``U``, ``b``, ``W_out`` and
    ``b_out`` are views of it."""

    def __init__(self, config: LstmConfig, n_assets: int):
        self.config = config
        self.n_assets = n_assets
        self.scaler = MinMaxScaler()
        H = config.hidden_size
        self._shapes = _parameter_shapes(config, n_assets)
        self._bounds = np.cumsum([0] + [math.prod(s) for s in self._shapes]).tolist()
        self.theta = np.zeros(self._bounds[-1])
        params = self._split(self.theta)
        self.W, self.U, self.b = params[0:-2:3], params[1:-2:3], params[2:-2:3]
        self.W_out, self.b_out = params[-2:]
        rng = np.random.default_rng(config.seed)
        bound = 1.0 / np.sqrt(H)
        for W, U, b in zip(self.W, self.U, self.b):
            W[...] = rng.uniform(-bound, bound, size=W.shape)
            U[...] = rng.uniform(-bound, bound, size=U.shape)
            b[H : 2 * H] = 1.0  # forget-gate bias
        self.W_out[...] = rng.uniform(-bound, bound, size=self.W_out.shape)
        self._adam_m = np.zeros_like(self.theta)
        self._adam_v = np.zeros_like(self.theta)
        self._adam_t = 0

    # -- parameter plumbing -------------------------------------------------

    def _split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a theta-sized vector, one per parameter, in theta order."""
        bounds = self._bounds
        return [vec[lo:hi].reshape(s) for lo, hi, s in zip(bounds, bounds[1:], self._shapes)]

    def fit_scaler(self, train_features: np.ndarray) -> None:
        """Fit min/max on the training split's feature matrix only; never
        refit afterwards."""
        self.scaler.fit(train_features)

    @property
    def target_scaler(self) -> MinMaxScaler:
        """The scaling of the forecast targets: ``scaler``'s PRICE_COLUMNS."""
        return self.scaler.subset(PRICE_COLUMNS)

    # -- forward / backward -------------------------------------------------

    def _forward_scaled(self, X: np.ndarray, history: bool = True):
        """X: (B, T, F) scaled. Returns (B, n_assets) scaled predictions and,
        with ``history``, the per-layer (inputs, gates, c, h) arrays that
        backward reads.  Without it every step writes its gates into one
        (B, 4H) buffer and its cell state over the last, the top layer's
        hidden state goes the same way, and the list is empty."""
        width = self.W[0].shape[0]
        if X.ndim != 3 or X.shape[2] != width:
            raise DimensionError(f"expected (B, T, {width}), got {X.shape}")
        B, T, _ = X.shape
        H = self.config.hidden_size
        layers = []
        xs = X.transpose(1, 0, 2)
        hU = np.empty((B, 4 * H))  # h U, then the sigmoid's work buffer
        top = len(self.W) - 1
        # Step t reads row t % len and writes row (t + 1) % len of c and h,
        # and writes its gates into row t % len: one row is a rolling state.
        for l, (W, U, b) in enumerate(zip(self.W, self.U, self.b)):
            gates = np.empty((T if history else 1, B, 4 * H))
            c = np.zeros((T + 1 if history else 1, B, H))
            h = np.zeros((T + 1 if history or l < top else 1, B, H))
            for t in range(T):
                a = gates[t % len(gates)]  # z = x W + h U + b, summed in that order
                np.matmul(xs[t], W, out=a)
                a += np.matmul(h[t % len(h)], U, out=hU)
                a += b
                g = np.tanh(a[:, 2 * H : 3 * H])
                _sigmoid(a, out=a, e=hU)
                a[:, 2 * H : 3 * H] = g
                c_next = c[(t + 1) % len(c)]
                np.multiply(a[:, H : 2 * H], c[t % len(c)], out=c_next)
                g *= a[:, :H]
                c_next += g
                h_next = h[(t + 1) % len(h)]
                np.tanh(c_next, out=h_next)
                h_next *= a[:, 3 * H :]
            if history:
                layers.append((xs, gates, c, h))
            xs = h[1:]
        return h[T % len(h)] @ self.W_out + self.b_out, layers

    def _backward(self, dY: np.ndarray, layers) -> np.ndarray:
        """Gradient in theta order, given dLoss/dY (B, n_assets)."""
        H = self.config.hidden_size
        grad = np.zeros_like(self.theta)
        views = self._split(grad)
        views[-2][...] = layers[-1][3][-1].T @ dY  # h at the last step of the top layer
        views[-1][...] = dY.sum(axis=0)
        T, B = layers[0][1].shape[:2]
        # dh_seq[t] = gradient wrt this layer's hidden output at step t
        dh_seq = np.zeros((T, B, H))
        dh_seq[-1] = dY @ self.W_out.T
        i, f, g, o = (slice(k * H, (k + 1) * H) for k in range(4))
        dh, dc, dh_next, dc_next = (np.zeros((B, H)) for _ in range(4))
        for l in range(len(layers) - 1, -1, -1):
            xs, gates, c, h = layers[l]
            dW, dU, db = views[3 * l : 3 * l + 3]
            U_T = self.U[l].T
            tc = np.tanh(c[1:])
            d_tc = 1.0 - tc * tc
            # Each gate block of dz is (first * gate) * one_minus, the
            # left-to-right products of
            #   dc*g*i*(1-i), dc*c*f*(1-f), dc*i*(1-g*g), dh*tc*o*(1-o),
            # with 1 as the g block's gate factor (x * 1 == x exactly).
            gate = gates.copy()
            gate[:, :, g] = 1.0
            one_minus = 1.0 - gates
            np.multiply(gates[:, :, g], gates[:, :, g], out=one_minus[:, :, g])
            np.subtract(1.0, one_minus[:, :, g], out=one_minus[:, :, g])
            dz = np.empty((T, B, 4 * H))
            dh_next.fill(0.0)
            dc_next.fill(0.0)
            for t in range(T - 1, -1, -1):
                a, dz_t = gates[t], dz[t]
                np.add(dh_seq[t], dh_next, out=dh)
                np.multiply(dh, a[:, o], out=dc)
                dc *= d_tc[t]
                dc += dc_next
                np.multiply(dc, a[:, g], out=dz_t[:, i])
                np.multiply(dc, c[t], out=dz_t[:, f])
                np.multiply(dc, a[:, i], out=dz_t[:, g])
                np.multiply(dh, tc[t], out=dz_t[:, o])
                dz_t *= gate[t]
                dz_t *= one_minus[t]
                dW += xs[t].T @ dz_t
                dU += h[t].T @ dz_t
                db += dz_t.sum(axis=0)
                np.matmul(dz_t, U_T, out=dh_next)
                np.multiply(dc, a[:, f], out=dc_next)
            if l:  # becomes the lower layer's output gradient
                dh_seq = dz @ self.W[l].T
        return grad

    def loss_and_grads(self, X_scaled: np.ndarray, Y_scaled: np.ndarray):
        y, layers = self._forward_scaled(X_scaled)
        err = y - Y_scaled
        return float(np.mean(err * err)), self._backward(2.0 * err / err.size, layers)

    def loss(self, X_scaled: np.ndarray, Y_scaled: np.ndarray) -> float:
        y, _ = self._forward_scaled(X_scaled, history=False)
        return float(np.mean((y - Y_scaled) ** 2))

    # -- public API ---------------------------------------------------------

    def scale_inputs(self, X: np.ndarray) -> np.ndarray:
        """Raw (B, T, F) windows, scaled.  Where window i's step t is row
        i + t of one matrix, as in ``make_windows``' view (equal strides on
        the first two axes), that matrix is scaled once and viewed the same
        way, read-only.  Any other batch is scaled into one new array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 3 or len(X) < 2 or X.strides[0] != X.strides[1]:
            return self.scaler.transform(X)
        B, T, F = X.shape
        rows = np.lib.stride_tricks.as_strided(
            X, (B + T - 1, F), X.strides[1:], writeable=False)
        return _windows(self.scaler.transform(rows), T)

    def forward(self, window: np.ndarray) -> np.ndarray:
        """One raw (window, F) feature window (or a batch) to unscaled next-day
        prices, F being 6 per asset."""
        single = window.ndim == 2
        X = window[None, ...] if single else window
        if X.shape[1] != self.config.window:
            raise DimensionError(
                f"expected {self.config.window} timesteps, got {X.shape[1]}"
            )
        y_scaled, _ = self._forward_scaled(self.scale_inputs(X), history=False)
        y = self.target_scaler.inverse(y_scaled)
        return y[0] if single else y

    def adam_step(self, grad: np.ndarray) -> None:
        self._adam_t += 1
        m, v, t = self._adam_m, self._adam_v, self._adam_t
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        self.theta -= self.config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _windows(matrix: np.ndarray, window: int) -> np.ndarray:
    """The read-only (len(matrix) - window + 1, window, F) view of
    ``matrix`` whose window i is rows i..i+window-1."""
    return np.lib.stride_tricks.sliding_window_view(matrix, window, axis=0).transpose(0, 2, 1)


def make_windows(panel: AlignedPanel, window: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Sliding stride-1 windows: inputs (N, window, F) raw features, a
    read-only view of the panel's feature matrix that holds each row once,
    and targets (N, n_assets) raw prices, the PRICE_COLUMNS of the row
    following each window."""
    feats = panel.feature_matrix()
    n = feats.shape[0]
    if n < window + 1:
        raise InsufficientDataError(f"need >= {window + 1} rows, have {n}")
    return _windows(feats[:-1], window), feats[window:, PRICE_COLUMNS].copy()


def train(
    model: LstmModel,
    train_windows: tuple[np.ndarray, np.ndarray],
    val_windows: tuple[np.ndarray, np.ndarray],
) -> TrainReport:
    """Mini-batch Adam on scaled-space MSE; keeps the best-validation weights.

    Bit-reproducible for a fixed config seed: batch order comes from a
    dedicated Generator and all reductions are index-ordered.
    """
    cfg = model.config
    X_tr, Y_tr = train_windows
    X_va, Y_va = val_windows
    if X_tr.shape[0] == 0 or X_va.shape[0] == 0:
        raise InsufficientDataError("empty train or validation window set")
    if not model.scaler.fitted:
        raise DimensionError("fit_scaler must run before train")
    Xs_tr = model.scale_inputs(X_tr)
    Ys_tr = model.target_scaler.transform(Y_tr)
    Xs_va = model.scale_inputs(X_va)
    Ys_va = model.target_scaler.transform(Y_va)

    rng = np.random.default_rng(cfg.seed + 1)
    train_mse: list[float] = []
    val_mse: list[float] = []
    best_epoch = 0
    best_val = np.inf
    best_theta = model.theta.copy()
    n = Xs_tr.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, grad = model.loss_and_grads(Xs_tr[idx], Ys_tr[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            model.adam_step(grad)
        tr = model.loss(Xs_tr, Ys_tr)
        va = model.loss(Xs_va, Ys_va)
        if not (np.isfinite(tr) and np.isfinite(va)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        train_mse.append(tr)
        val_mse.append(va)
        if va < best_val:
            best_val = va
            best_epoch = epoch
            best_theta = model.theta.copy()
    model.theta[...] = best_theta
    return TrainReport(train_mse=train_mse, val_mse=val_mse, best_epoch=best_epoch)


def gradient_check(
    model: LstmModel,
    window: tuple[np.ndarray, np.ndarray],
    probe_count: int = 50,
    seed: int = 0,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over randomly probed parameter entries of a single window's loss."""
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    X, Y = window
    if X.ndim == 2:
        X = X[None, ...]
        Y = Y[None, ...]
    Xs = model.scale_inputs(np.asarray(X, dtype=float))
    Ys = model.target_scaler.transform(np.asarray(Y, dtype=float))
    _, grad = model.loss_and_grads(Xs, Ys)
    theta = model.theta
    rng = np.random.default_rng(seed)
    probes = rng.choice(theta.size, size=min(probe_count, theta.size), replace=False)
    worst = 0.0
    for k in probes:
        orig = theta[k]
        theta[k] = orig + step
        loss_plus = model.loss(Xs, Ys)
        theta[k] = orig - step
        loss_minus = model.loss(Xs, Ys)
        theta[k] = orig
        g_num = (loss_plus - loss_minus) / (2.0 * step)
        g_ana = grad[k]
        err = abs(g_ana - g_num) / max(abs(g_ana) + abs(g_num), 1e-8)
        worst = max(worst, err)
    return worst


def predict_series(model: LstmModel, panel: AlignedPanel) -> np.ndarray:
    """Walk-forward predictions of rows ``window`` onward of ``panel``: the
    prediction of row t reads rows t - window .. t - 1 only."""
    X, _ = make_windows(panel, model.config.window)
    return model.forward(X)


# -- checkpointing ----------------------------------------------------------

def save_checkpoint(model: LstmModel, path: str | Path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.__dict__,
        "n_assets": model.n_assets,
        "scaler": {
            "min": model.scaler.min_.tolist(),
            "span": model.scaler.span_.tolist(),
        },
        "theta": model.theta.tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def _finite(value, kinds: tuple[type, ...] = (int, float)) -> bool:
    """Whether ``value`` is of one of ``kinds`` (so not a bool) and finite."""
    try:
        return type(value) in kinds and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _numbers(path: str | Path, field: str, value, size: int) -> np.ndarray:
    """``value`` as a float array; a ParseError unless it is a list of
    ``size`` finite numbers."""
    if not isinstance(value, list) or len(value) != size:
        got = f"{len(value)} entries" if isinstance(value, list) else repr(value)
        raise ParseError(f"{path}: {field} must be a list of {size} numbers, got {got}")
    if not all(map(_finite, value)):
        raise ParseError(f"{path}: {field} holds a non-finite or non-number entry")
    return np.array(value, dtype=float)


def load_checkpoint(path: str | Path) -> LstmModel:
    """The model that ``save_checkpoint`` wrote to ``path``.

    A ParseError names the file and the field of a damaged checkpoint: a
    format other than CHECKPOINT_FORMAT, a missing field, a missing or
    unknown ``config`` key or a bad config value, an ``n_assets`` that is
    not a positive int, a ``scaler.min`` or ``scaler.span`` not of
    ``n_assets * len(FEATURE_NAMES)`` entries, a ``theta`` not of the length
    that ``config`` and ``n_assets`` give, or a non-finite number."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: format must be {CHECKPOINT_FORMAT}")
    for field in ("config", "n_assets", "scaler", "theta"):
        if field not in payload:
            raise ParseError(f"{path}: {field} missing")
    config, n_assets, scaler = payload["config"], payload["n_assets"], payload["scaler"]
    defaults = LstmConfig().__dict__
    if not isinstance(config, dict) or config.keys() != defaults.keys():
        keys = config if isinstance(config, dict) else {}
        raise ParseError(f"{path}: config keys missing {[k for k in defaults if k not in keys]},"
                         f" unknown {[k for k in keys if k not in defaults]}")
    for key, value in config.items():
        # the default's type; a float key takes an int too
        if not _finite(value, (int, float) if type(defaults[key]) is float else (int,)):
            raise ParseError(f"{path}: config.{key} must be a finite "
                             f"{type(defaults[key]).__name__}, got {value!r}")
    try:
        config = LstmConfig(**config)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: config: {exc}") from exc
    if type(n_assets) is not int or n_assets < 1:
        raise ParseError(f"{path}: n_assets must be a positive int, got {n_assets!r}")
    if not isinstance(scaler, dict):
        raise ParseError(f"{path}: scaler must hold min and span")
    # theta holds weights of every layer, and its length bounds the model's
    # size: check both before the layers' shapes are listed
    theta = payload["theta"]
    if not isinstance(theta, list) or len(theta) < config.num_layers:
        raise ParseError(f"{path}: theta must be a list of at least "
                         f"num_layers = {config.num_layers} numbers")
    theta = _numbers(path, "theta", theta,
                     sum(math.prod(s) for s in _parameter_shapes(config, n_assets)))
    width = n_assets * len(FEATURE_NAMES)
    model = LstmModel(config, n_assets)
    model.scaler.min_ = _numbers(path, "scaler.min", scaler.get("min"), width)
    model.scaler.span_ = _numbers(path, "scaler.span", scaler.get("span"), width)
    model.theta[...] = theta
    return model
