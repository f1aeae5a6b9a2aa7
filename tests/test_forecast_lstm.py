import json
import math
import re

import numpy as np
import pytest

from sentfolio.cli import USER_ERRORS
from sentfolio.errors import DimensionError, InsufficientDataError, ParseError, SentfolioError
from sentfolio.forecast_lstm import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LstmConfig,
    LstmModel,
    MinMaxScaler,
    TrainReport,
    gradient_check,
    load_checkpoint,
    make_windows,
    predict_series,
    save_checkpoint,
    train,
)
from sentfolio.market_data import PRICE_COLUMNS, SplitSpec, align_panel, split_chronological
from sentfolio.synthetic import make_panel

from conftest import make_prices


def single_asset_panel(closes):
    return align_panel([make_prices("A", closes)])


def small_config(**kw):
    defaults = dict(hidden_size=8, num_layers=1, batch_size=16, epochs=50, seed=3)
    defaults.update(kw)
    return LstmConfig(**defaults)


def fitted_model(panel, config):
    model = LstmModel(config, len(panel.assets))
    model.fit_scaler(panel.feature_matrix())
    return model


def views(model):
    """The named weights of ``model``, in theta order."""
    layers = [p for l in range(model.config.num_layers)
              for p in (model.W[l], model.U[l], model.b[l])]
    return layers + [model.W_out, model.b_out]


class TestScaler:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 5, size=(40, 7))
        sc = MinMaxScaler().fit(X)
        np.testing.assert_allclose(sc.inverse(sc.transform(X)), X, atol=1e-10)

    def test_constant_feature(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        sc = MinMaxScaler().fit(X)
        out = sc.transform(X)
        assert (out[:, 0] == 0.0).all()
        np.testing.assert_allclose(sc.inverse(out), X, atol=1e-12)

    def test_params_frozen_after_fit(self):
        sc = MinMaxScaler().fit(np.arange(10.0).reshape(-1, 1))
        before = (sc.min_.copy(), sc.span_.copy())
        sc.transform(np.array([[100.0]]))
        np.testing.assert_array_equal(sc.min_, before[0])
        np.testing.assert_array_equal(sc.span_, before[1])


class TestMakeWindows:
    def test_minimal_seven_rows(self):
        X, Y = make_windows(single_asset_panel([1.0] * 7))
        assert X.shape[0] == 1 and Y.shape[0] == 1

    def test_ten_rows_four_windows(self):
        X, Y = make_windows(single_asset_panel(list(range(1, 11))))
        assert X.shape == (4, 6, 6)

    def test_target_is_row_k_plus_6(self):
        closes = [float(i) for i in range(1, 11)]
        panel = single_asset_panel(closes)
        X, Y = make_windows(panel)
        for k in range(4):
            assert Y[k, 0] == closes[k + 6]
            assert X[k, 0, 0] == closes[k]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            make_windows(single_asset_panel([1.0] * 6))


class TestForward:
    def test_zero_params_zero_input(self):
        panel = single_asset_panel([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        model = fitted_model(panel, small_config())
        model.theta[...] = 0.0
        # scaled zero input -> scaled zero output -> inverse of zero vector
        expected = model.target_scaler.inverse(np.zeros(1))
        # forward() scales the raw window first, so feed the raw values that
        # scale to zero (the per-feature minima)
        raw = model.scaler.inverse(np.zeros((6, 6)))
        np.testing.assert_allclose(model.forward(raw), expected, atol=1e-12)

    def test_deterministic(self):
        panel = single_asset_panel(list(np.linspace(10, 20, 12)))
        model = fitted_model(panel, small_config())
        X, _ = make_windows(panel)
        np.testing.assert_array_equal(model.forward(X[0]), model.forward(X[0]))

    def test_shape_mismatch(self):
        panel = single_asset_panel([1.0] * 8)
        model = fitted_model(panel, small_config())
        with pytest.raises(DimensionError):
            model.forward(np.zeros((3, 6)))

    def test_hand_unrolled_tiny_net(self):
        # 1 asset (6 inputs), 1 layer, hidden 2, 2 timesteps, hand-set
        # weights; oracle below unrolls the cell recurrence with plain floats
        cfg = LstmConfig(hidden_size=2, num_layers=1, window=2, epochs=1, seed=0)
        model = LstmModel(cfg, 1)
        model.scaler.min_ = np.zeros(6)
        model.scaler.span_ = np.ones(6)
        W = np.array([[0.3, -0.2, 0.5, 0.1, -0.4, 0.25, 0.6, -0.1],
                      [0.05, 0.1, -0.15, 0.2, 0.0, -0.3, 0.1, 0.2],
                      [-0.1, 0.3, 0.2, -0.05, 0.15, 0.1, -0.2, 0.05],
                      [0.2, -0.1, 0.05, 0.1, -0.25, 0.3, 0.0, -0.15],
                      [0.0, 0.15, -0.2, 0.25, 0.1, -0.05, 0.3, 0.1],
                      [-0.3, 0.05, 0.1, 0.0, 0.2, 0.15, -0.1, 0.25]])
        U = np.array([[0.1, 0.2, -0.3, 0.4, 0.05, -0.15, 0.2, 0.3],
                      [-0.2, 0.1, 0.4, -0.3, 0.2, 0.1, -0.25, 0.15]])
        b = np.array([0.01, -0.02, 1.0, 1.1, 0.03, -0.04, 0.05, 0.06])
        Wo = np.array([[0.7], [-0.9]])
        bo = np.array([0.2])
        for view, value in zip(views(model), (W, U, b, Wo, bo)):
            view[...] = value

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        x = [[0.4, 0.1, -0.2, 0.7, 0.0, 1.0], [-0.6, 0.3, 0.5, -0.1, 0.2, 0.9]]
        h = [0.0, 0.0]
        c = [0.0, 0.0]
        for t in range(2):
            z = [sum(x[t][k] * W[k, j] for k in range(6))
                 + h[0] * U[0, j] + h[1] * U[1, j] + b[j] for j in range(8)]
            i = [sig(z[0]), sig(z[1])]
            f = [sig(z[2]), sig(z[3])]
            g = [math.tanh(z[4]), math.tanh(z[5])]
            o = [sig(z[6]), sig(z[7])]
            c = [f[k] * c[k] + i[k] * g[k] for k in range(2)]
            h = [o[k] * math.tanh(c[k]) for k in range(2)]
        expected = h[0] * Wo[0, 0] + h[1] * Wo[1, 0] + bo[0]
        got = model.forward(np.array(x))
        assert got[0] == pytest.approx(expected, abs=1e-12)


class TestTrain:
    def test_constant_panel_converges(self):
        panel = single_asset_panel([50.0] * 20)
        cfg = small_config(epochs=200)
        model = fitted_model(panel, cfg)
        X, Y = make_windows(panel)
        report = train(model, (X, Y), (X, Y))
        assert min(report.train_mse) < 1e-6

    def test_sine_beats_persistence(self):
        t = np.arange(80)
        closes = (100 + 10 * np.sin(2 * np.pi * t / 20)).tolist()
        panel = single_asset_panel(closes)
        tr, va, te = split_chronological(panel, SplitSpec(0.7, 0.15, 0.15))
        cfg = small_config(epochs=300, hidden_size=12)
        model = LstmModel(cfg, 1)
        model.fit_scaler(tr.feature_matrix())
        Xtr, Ytr = make_windows(tr)
        Xva, Yva = make_windows(va)
        report = train(model, (Xtr, Ytr), (Xva, Yva))
        # persistence oracle: predict the day-6 price for day 7
        Xs = model.scale_inputs(Xva)
        Ys = model.target_scaler.transform(Yva)
        persist = Xs[:, -1, PRICE_COLUMNS]
        persist_mse = float(np.mean((persist - Ys) ** 2))
        assert report.val_mse[report.best_epoch] < persist_mse

    def test_seeded_determinism(self):
        panel = single_asset_panel(list(np.linspace(10, 30, 25)))
        cfg = small_config(epochs=2)
        runs = []
        for _ in range(2):
            model = fitted_model(panel, cfg)
            X, Y = make_windows(panel)
            report = train(model, (X, Y), (X, Y))
            runs.append(report.train_mse[0])
        assert runs[0] == runs[1]  # bit-identical

    def test_final_below_initial(self):
        panel = single_asset_panel(list(np.linspace(10, 30, 25)))
        cfg = small_config(epochs=80)
        model = fitted_model(panel, cfg)
        X, Y = make_windows(panel)
        report = train(model, (X, Y), (X, Y))
        assert report.train_mse[-1] < report.train_mse[0]

    @pytest.mark.parametrize("best_epoch", [0, 2, 3, -2])
    def test_report_refuses_best_epoch_off_the_argmin(self, best_epoch):
        # -2 indexes the minimum from the end; 3 is past the last epoch
        with pytest.raises(SentfolioError, match="argmin") as info:
            TrainReport(train_mse=[3.0, 2.0, 1.5], val_mse=[2.0, 1.0, 1.5], best_epoch=best_epoch)
        assert not isinstance(info.value, USER_ERRORS)  # a defect: exit 1


class TestGradientCheck:
    def test_correct_backprop(self):
        panel = single_asset_panel(list(np.linspace(10, 20, 15)))
        cfg = small_config(num_layers=2)
        model = fitted_model(panel, cfg)
        X, Y = make_windows(panel)
        assert gradient_check(model, (X[0], Y[0]), probe_count=100, seed=1) < 1e-4

    def test_sign_flip_detected(self, monkeypatch):
        panel = single_asset_panel(list(np.linspace(10, 20, 15)))
        model = fitted_model(panel, small_config())
        X, Y = make_windows(panel)
        original = model.loss_and_grads

        def flipped(Xs, Ys):
            loss, grads = original(Xs, Ys)
            return loss, [-g for g in grads]

        monkeypatch.setattr(model, "loss_and_grads", flipped)
        err = gradient_check(model, (X[0], Y[0]), probe_count=50, seed=1)
        # |(-g) - g| / (|-g| + |g|) = 1 for every probed entry
        assert err == pytest.approx(1.0, abs=0.05)

    def test_zero_parameter_model(self):
        panel = single_asset_panel(list(np.linspace(10, 20, 15)))
        model = fitted_model(panel, small_config())
        model.theta[...] = 0.0
        X, Y = make_windows(panel)
        assert gradient_check(model, (X[0], Y[0]), probe_count=200, seed=2) < 1e-4


class TestPredictSeries:
    def test_minimal_segment(self):
        panel = single_asset_panel([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        model = fitted_model(panel, small_config())
        preds = predict_series(model, panel)
        assert preds.shape == (1, 1)  # one forecast, of the last row

    def test_no_lookahead(self):
        closes = list(np.linspace(10, 20, 16))
        panel = single_asset_panel(closes)
        model = fitted_model(panel, small_config())
        base = predict_series(model, panel)
        perturbed = list(closes)
        perturbed[12] *= 1.5  # prediction dates 6..12 must not change
        after = predict_series(model, single_asset_panel(perturbed))
        np.testing.assert_array_equal(base[:7], after[:7])
        assert not np.allclose(base[7:], after[7:])

    def test_constant_panel_prediction(self):
        panel = single_asset_panel([50.0] * 24)
        cfg = small_config(epochs=200)
        model = fitted_model(panel, cfg)
        X, Y = make_windows(panel)
        train(model, (X, Y), (X, Y))
        preds = predict_series(model, panel)
        np.testing.assert_allclose(preds, 50.0, rtol=0.01)


class TestParameterVector:
    def test_parameters_are_views_of_theta(self):
        model = LstmModel(small_config(num_layers=2), 1)
        params = views(model)
        assert sum(p.size for p in params) == model.theta.size
        assert all(np.shares_memory(p, model.theta) for p in params)
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for p in params]), model.theta)
        params[1][0, 2] = 7.5  # U of layer 0
        assert model.U[0][0, 2] == 7.5 and 7.5 in model.theta
        model.theta[-1] = -3.25  # last entry of b_out
        assert model.b_out[-1] == -3.25 and params[-1][-1] == -3.25

    def test_adam_step_matches_per_array_reference(self):
        cfg = small_config(num_layers=2)
        model = LstmModel(cfg, 1)
        ref = [p.copy() for p in views(model)]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        rng = np.random.default_rng(5)
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape) for p in ref]
            model.adam_step(np.concatenate([g.ravel() for g in grads]))
            for p, g, mk, vk in zip(ref, grads, m, v):
                mk[...] = ADAM_BETA1 * mk + (1.0 - ADAM_BETA1) * g
                vk[...] = ADAM_BETA2 * vk + (1.0 - ADAM_BETA2) * g * g
                m_hat = mk / (1.0 - ADAM_BETA1**t)
                v_hat = vk / (1.0 - ADAM_BETA2**t)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            for got, want in zip(views(model), ref):
                np.testing.assert_array_equal(got, want)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        panel = make_panel(seed=2, n_days=40, assets=("AAA", "BBB", "CCC"))
        model = fitted_model(panel, small_config(epochs=2))
        X, Y = make_windows(panel)
        train(model, (X, Y), (X, Y))
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.forward(X).tobytes() == model.forward(X).tobytes()
        assert again.theta.tobytes() == model.theta.tobytes()
        assert again.config == model.config and again.n_assets == 3
        save_checkpoint(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    # damage -> (the field its ParseError names, the edit of the checkpoint)
    DAMAGES = {
        "theta one short": ("theta", lambda c: c["theta"].pop()),
        "theta one long": ("theta", lambda c: c["theta"].append(0.5)),
        "n_assets against theta": ("theta", lambda c: c.update(n_assets=4)),
        "n_assets a string": ("n_assets", lambda c: c.update(n_assets="5")),
        "n_assets zero": ("n_assets", lambda c: c.update(n_assets=0)),
        "n_assets a bool": ("n_assets", lambda c: c.update(n_assets=True)),
        "unknown config key": ("config", lambda c: c["config"].update(dropout=0.1)),
        "missing config key": ("config", lambda c: c["config"].pop("window")),
        "float hidden_size": ("config.hidden_size",
                              lambda c: c["config"].update(hidden_size=8.0)),
        "zero epochs": ("config", lambda c: c["config"].update(epochs=0)),
        "missing scaler": ("scaler", lambda c: c.pop("scaler")),
        "scaler.min one short": ("scaler.min", lambda c: c["scaler"]["min"].pop()),
        "scaler.span one long": ("scaler.span", lambda c: c["scaler"]["span"].append(1.0)),
        "NaN in theta": ("theta", lambda c: c["theta"].__setitem__(7, math.nan)),
        "inf in scaler.min": ("scaler.min", lambda c: c["scaler"]["min"].__setitem__(0, math.inf)),
        "huge int in scaler.span": ("scaler.span",
                                    lambda c: c["scaler"]["span"].__setitem__(0, 10**400)),
        "NaN learning rate": ("config.learning_rate",
                              lambda c: c["config"].update(learning_rate=math.nan)),
        "format 1": ("format", lambda c: c.update(format=1)),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damage_is_a_parse_error_naming_the_field(self, tmp_path, damage):
        field, edit = self.DAMAGES[damage]
        panel = make_panel(seed=2, n_days=40, assets=("AAA", "BBB", "CCC"))
        path = tmp_path / "model.json"
        save_checkpoint(fitted_model(panel, small_config(num_layers=2)), path)
        checkpoint = json.loads(path.read_text())
        edit(checkpoint)
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {re.escape(field)}\b"):
            load_checkpoint(path)


class TestGradientAcrossSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_init_gradients(self, seed, five_asset_panel):
        cfg = LstmConfig(hidden_size=13, num_layers=3, epochs=1, seed=seed)
        model = LstmModel(cfg, 5)
        model.fit_scaler(five_asset_panel.feature_matrix())
        X, Y = make_windows(five_asset_panel)
        # looser bound than the single-seed check: deep-layer gradients can be
        # ~1e-8, where central differences lose digits to cancellation
        assert gradient_check(model, (X[seed % len(X)], Y[seed % len(X)]),
                              probe_count=60, seed=seed) < 5e-4
