"""Parameter layout, initialization, forwards, gradients, optimizers, and
checkpoints for the two sequence classifiers.

The gradient oracle throughout is central finite differences, an independent
route from the analytic backward passes.
"""

import json
import math
import struct

import numpy as np
import pytest

from conftest import needs_two_blas_threads
from test_kernel_reference import full_run_levels
from skelgest.neuralnet import (
    AdamState,
    CheckpointError,
    GradCheckReport,
    HeadKind,
    LstmSpec,
    ModelParameters,
    TcnSpec,
    TrainConfig,
    TrainingDivergedError,
    adam_update,
    batch_loss_and_grad,
    clip_gradient,
    finite_difference_gradient,
    fit,
    forward,
    grad_check,
    init_parameters,
    load_checkpoint,
    max_relative_error,
    param_count,
    param_views,
    save_checkpoint,
    sgd_update,
    sigmoid,
    softmax,
    train_step,
)
from skelgest.neuralnet import common, lstm, tcn

LSTM_SMALL = LstmSpec(input_dim=3, hidden_dim=4, n_classes=2)
TCN_SMALL = TcnSpec(input_dim=3, channels=4, kernel=2, dilations=(1, 2), n_classes=2)


def receptive_field(spec):
    """Frames of input visible to a TCN's last time step."""
    return 1 + (spec.kernel - 1) * sum(spec.dilations)


def tcn_level_outputs(model, x):
    """A TCN's per-level outputs (B, W, C) on (B, W, D) input: each level's
    input is the previous level's output.  The full-sequence reference form
    computes every step; the library computes only the last step's cone."""
    top, caches = full_run_levels(model, x)
    return [inp for inp, _, _ in caches[1:]] + [top]


class TestParamLayout:
    def test_lstm_count_by_hand(self):
        # gates: 4H x D + 4H x H + 4H; head: K x H + K
        d, h, k = 3, 4, 2
        expected = 4 * h * d + 4 * h * h + 4 * h + k * h + k
        assert param_count(LSTM_SMALL) == expected == 138

    def test_tcn_count_by_hand(self):
        # level 0: 2*3*4 w + 4 b + 3*4 proj; level 1: 2*4*4 w + 4 b (no proj);
        # head: 2*4 + 2
        expected = (2 * 3 * 4 + 4 + 3 * 4) + (2 * 4 * 4 + 4) + (2 * 4 + 2)
        assert param_count(TCN_SMALL) == expected == 86

    def test_views_shapes_and_write_through(self):
        flat = np.zeros(param_count(LSTM_SMALL))
        views = param_views(LSTM_SMALL, flat)
        assert views["w_x"].shape == (16, 3)
        assert views["w_h"].shape == (16, 4)
        assert views["b"].shape == (16,)
        assert views["w_head"].shape == (2, 4)
        assert views["b_head"].shape == (2,)
        views["w_head"][1, 2] = 9.0
        assert 9.0 in flat

    def test_tcn_proj_only_when_widths_differ(self):
        views = param_views(TCN_SMALL, np.zeros(param_count(TCN_SMALL)))
        assert "proj0_w" in views and "proj1_w" not in views
        same = TcnSpec(input_dim=4, channels=4, kernel=2, dilations=(1,), n_classes=2)
        assert "proj0_w" not in param_views(same, np.zeros(param_count(same)))

    def test_views_reject_wrong_size(self):
        with pytest.raises(ValueError, match="layout"):
            param_views(LSTM_SMALL, np.zeros(10))


class TestSpecValidation:
    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            LstmSpec(input_dim=0, hidden_dim=4, n_classes=2)
        with pytest.raises(ValueError):
            TcnSpec(input_dim=3, channels=0)
        with pytest.raises(ValueError):
            TcnSpec(input_dim=3, kernel=0)

    @pytest.mark.parametrize("dilations", [(), (2, 1), (1, 3), (1, 1), (1, 2, 6)])
    def test_bad_dilations(self, dilations):
        with pytest.raises(ValueError):
            TcnSpec(input_dim=3, dilations=dilations)

    def test_sigmoid_head_needs_one_logit(self):
        with pytest.raises(ValueError, match="n_classes == 1"):
            ModelParameters(
                spec=LSTM_SMALL, head=HeadKind.SIGMOID,
                values=np.zeros(param_count(LSTM_SMALL)),
            )

    def test_non_finite_values_rejected(self):
        values = np.zeros(param_count(LSTM_SMALL))
        values[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ModelParameters(spec=LSTM_SMALL, head=HeadKind.SOFTMAX, values=values)


class TestReceptiveField:
    def test_default_stack_sees_31_frames(self):
        assert receptive_field(TcnSpec(input_dim=28)) == 31

    @pytest.mark.parametrize(
        "kernel,dilations,expected",
        [(2, (1, 2), 4), (3, (1, 2), 7), (3, (1, 2, 4, 8), 31), (1, (1,), 1)],
    )
    def test_formula(self, kernel, dilations, expected):
        spec = TcnSpec(input_dim=3, kernel=kernel, dilations=dilations)
        assert receptive_field(spec) == expected


class TestInitParameters:
    def test_deterministic_per_seed(self):
        a = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=42)
        b = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=42)
        c = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_lstm_forget_bias_one_rest_zero(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=0)
        views = model.unpack()
        h = LSTM_SMALL.hidden_dim
        assert np.array_equal(views["b"][h : 2 * h], np.ones(h))
        assert np.array_equal(views["b"][:h], np.zeros(h))
        assert np.array_equal(views["b"][2 * h :], np.zeros(2 * h))
        assert np.array_equal(views["b_head"], np.zeros(2))

    def test_xavier_bounds(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=1)
        views = model.unpack()
        d, h = LSTM_SMALL.input_dim, LSTM_SMALL.hidden_dim
        limit = math.sqrt(6.0 / (d + h))
        assert np.max(np.abs(views["w_x"])) <= limit
        assert np.max(np.abs(views["w_h"])) <= math.sqrt(6.0 / (h + h))
        assert np.max(np.abs(views["w_x"])) > 0

    def test_tcn_biases_zero(self):
        model = init_parameters(TCN_SMALL, HeadKind.SOFTMAX, seed=2)
        views = model.unpack()
        assert np.array_equal(views["conv0_b"], np.zeros(4))
        assert np.array_equal(views["conv1_b"], np.zeros(4))
        assert np.array_equal(views["b_head"], np.zeros(2))


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(5, 7)) * 10)
        assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(p >= 0)

    def test_softmax_stable_at_huge_logits(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(p))
        assert abs(p[0] - 1.0) <= 1e-12

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.max(np.abs(softmax(logits) - softmax(logits + 500.0))) <= 1e-12

    def test_sigmoid_stable_and_symmetric(self):
        z = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
        s = sigmoid(z)
        assert np.all(np.isfinite(s))
        assert s[2] == 0.5
        assert np.max(np.abs(s + sigmoid(-z) - 1.0)) <= 1e-12
        assert s[0] >= 0.0 and s[4] <= 1.0

    def test_sigmoid_matches_closed_form(self):
        z = np.linspace(-20, 20, 41)
        expected = 1.0 / (1.0 + np.exp(-z))
        assert np.max(np.abs(sigmoid(z) - expected)) <= 1e-12


EPS_PROB = 1e-12


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of integer targets under (B, K) probs.

    Probabilities are clamped at 1e-12 before the log so that a confidently
    wrong model yields a large finite loss rather than an infinity.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets)
    if probs.ndim == 1:
        probs = probs[None]
        targets = np.atleast_1d(targets)
    picked = probs[np.arange(probs.shape[0]), targets.astype(int)]
    return float(-np.log(np.maximum(picked, EPS_PROB)).mean())


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy between probabilities and 0/1 targets."""
    p = np.clip(np.asarray(probs, dtype=np.float64).reshape(-1), EPS_PROB, 1.0 - EPS_PROB)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


class TestLosses:
    def test_cross_entropy_hand_value(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
        got = cross_entropy(probs, np.array([0, 1]))
        assert abs(got - (-(math.log(0.5) + math.log(0.8)) / 2)) <= 1e-12

    def test_cross_entropy_clamps_zero_probability(self):
        got = cross_entropy(np.array([[0.0, 1.0]]), np.array([0]))
        assert abs(got - (-math.log(1e-12))) <= 1e-9

    def test_binary_cross_entropy_hand_value(self):
        got = binary_cross_entropy(np.array([0.8, 0.4]), np.array([1.0, 0.0]))
        assert abs(got - (-(math.log(0.8) + math.log(0.6)) / 2)) <= 1e-12

    def test_binary_cross_entropy_clips_both_ends(self):
        assert np.isfinite(binary_cross_entropy(np.array([1.0]), np.array([0.0])))
        assert np.isfinite(binary_cross_entropy(np.array([0.0]), np.array([1.0])))


class TestForward:
    @pytest.mark.parametrize("spec", [LSTM_SMALL, TCN_SMALL], ids=["lstm", "tcn"])
    def test_output_shape_and_simplex(self, spec):
        model = init_parameters(spec, HeadKind.SOFTMAX, seed=3)
        rng = np.random.default_rng(4)
        single = forward(model, rng.normal(size=(6, 3)))
        batch = forward(model, rng.normal(size=(5, 6, 3)))
        assert single.shape == (2,)
        assert batch.shape == (5, 2)
        assert abs(single.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(batch.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("spec", [LSTM_SMALL, TCN_SMALL], ids=["lstm", "tcn"])
    def test_batched_matches_unbatched(self, spec):
        model = init_parameters(spec, HeadKind.SOFTMAX, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 7, 3))
        batch = forward(model, x)
        for i in range(4):
            assert np.max(np.abs(batch[i] - forward(model, x[i]))) <= 1e-12

    def test_zero_parameters_give_uniform_probabilities(self):
        spec = LstmSpec(input_dim=3, hidden_dim=4, n_classes=5)
        model = ModelParameters(
            spec=spec, head=HeadKind.SOFTMAX, values=np.zeros(param_count(spec))
        )
        rng = np.random.default_rng(7)
        probs = forward(model, rng.normal(size=(2, 6, 3)))
        assert np.max(np.abs(probs - 0.2)) <= 1e-12

    def test_sigmoid_head_scalar_probability(self):
        spec = LstmSpec(input_dim=3, hidden_dim=4, n_classes=1)
        model = init_parameters(spec, HeadKind.SIGMOID, seed=8)
        rng = np.random.default_rng(9)
        p = forward(model, rng.normal(size=(3, 5, 3)))
        assert p.shape == (3, 1)
        assert np.all((p > 0) & (p < 1))

    @pytest.mark.parametrize("call", ["forward", "loss_and_grad"])
    @pytest.mark.parametrize("kernel,spec", [(lstm, LSTM_SMALL), (tcn, TCN_SMALL)],
                             ids=["lstm", "tcn"])
    def test_a_window_of_zero_frames_is_refused(self, kernel, spec, call):
        """Neither net scores a window without frames: there is no last step."""
        model = init_parameters(spec, HeadKind.SOFTMAX, seed=3)
        args = (np.zeros((2, 0, 3)),) + ((np.array([0, 1]),) if call == "loss_and_grad" else ())
        with pytest.raises(ValueError, match=r"expected input \(\.\.\., W, 3\), "
                                             r"got shape \(2, 0, 3\)"):
            getattr(kernel, call)(model, *args)


class TestTcnStructure:
    def _model(self):
        spec = TcnSpec(input_dim=3, channels=4, kernel=3, dilations=(1, 2, 4, 8))
        return spec, init_parameters(spec, HeadKind.SOFTMAX, seed=10)

    def test_causality_no_future_leakage(self):
        """Changing frame t never changes any level's output before t."""
        spec, model = self._model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 40, 3))
        base = tcn_level_outputs(model, x)
        bumped = x.copy()
        bumped[0, 20] += 5.0
        after = tcn_level_outputs(model, bumped)
        for level_base, level_after in zip(base, after):
            assert np.array_equal(level_base[0, :20], level_after[0, :20])
        assert not np.array_equal(base[-1][0, 20:], after[-1][0, 20:])

    def test_receptive_field_boundary_at_last_step(self):
        """RF = 31, so the last of 40 steps sees frames 9..39 and nothing
        before frame 9."""
        spec, model = self._model()
        assert receptive_field(spec) == 31
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 40, 3))
        last = tcn_level_outputs(model, x)[-1][0, -1]

        outside = x.copy()
        outside[0, 8] += 5.0
        assert np.array_equal(
            tcn_level_outputs(model, outside)[-1][0, -1], last
        )
        inside = x.copy()
        inside[0, 9] += 5.0
        assert not np.array_equal(
            tcn_level_outputs(model, inside)[-1][0, -1], last
        )

    def test_library_kernel_reads_exactly_the_receptive_field(self):
        """The same boundary through `tcn.forward` itself, which computes
        only the last step's cone."""
        spec, model = self._model()
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 40, 3))
        probs = tcn.forward(model, x)

        outside = x.copy()
        outside[0, 8] += 5.0
        assert tcn.forward(model, outside).tobytes() == probs.tobytes()
        inside = x.copy()
        inside[0, 9] += 5.0
        assert tcn.forward(model, inside).tobytes() != probs.tobytes()

    def test_empty_window_rejected(self):
        spec, model = self._model()
        with pytest.raises(ValueError, match="expected input"):
            tcn.forward(model, np.zeros((2, 0, 3)))
        with pytest.raises(ValueError, match="expected input"):
            tcn.loss_and_grad(model, np.zeros((2, 0, 3)), np.array([0, 1]))

    def test_level_count(self):
        spec, model = self._model()
        rng = np.random.default_rng(13)
        outs = tcn_level_outputs(model, rng.normal(size=(1, 12, 3)))
        assert len(outs) == 4
        assert all(o.shape == (1, 12, 4) for o in outs)


class TestGradients:
    CONFIGS = [
        ("lstm-softmax", LstmSpec(3, 4, 3), HeadKind.SOFTMAX),
        ("lstm-sigmoid", LstmSpec(3, 4, 1), HeadKind.SIGMOID),
        ("tcn-softmax", TcnSpec(3, 4, 2, (1, 2), 3), HeadKind.SOFTMAX),
        ("tcn-sigmoid", TcnSpec(3, 4, 2, (1, 2), 1), HeadKind.SIGMOID),
    ]

    @pytest.mark.parametrize("name,spec,head", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_analytic_matches_central_difference(self, name, spec, head):
        model = init_parameters(spec, head, seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 9, 3))
        if head is HeadKind.SOFTMAX:
            targets = rng.integers(0, spec.n_classes, size=4)
        else:
            targets = rng.integers(0, 2, size=4).astype(np.float64)
        report = grad_check(model, x, targets, tolerance=1e-6)
        assert report.passed, f"{name}: {report.max_rel_error}"
        assert report.n_checked == param_count(spec)

    def test_loss_value_matches_forward_probabilities(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=16)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 6, 3))
        targets = np.array([0, 1, 0])
        loss, _ = batch_loss_and_grad(model, x, targets)
        assert abs(loss - cross_entropy(forward(model, x), targets)) <= 1e-12

    def test_subsampled_check_and_report(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=18)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 5, 3))
        report = grad_check(model, x, np.array([0, 1]), n_samples=10, seed=1)
        assert report.n_checked == 10
        assert report.arch == "lstm" and report.head == "softmax"
        assert report.passed

    def test_negative_tolerance_rejected(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=20)
        with pytest.raises(ValueError, match="tolerance"):
            grad_check(model, np.zeros((1, 3, 3)), np.array([0]), tolerance=-1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_tolerance_rejected(self, value):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=20)
        with pytest.raises(ValueError, match=f"tolerance must be finite, got {value}"):
            grad_check(model, np.zeros((1, 3, 3)), np.array([0]), tolerance=value)

    def test_zero_tolerance_always_fails(self):
        """Analytic and finite-difference values can never agree to the last
        bit, so tolerance 0 is a guaranteed-failure sanity probe."""
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=21)
        rng = np.random.default_rng(22)
        report = grad_check(
            model, rng.normal(size=(2, 5, 3)), np.array([0, 1]), tolerance=0.0
        )
        assert not report.passed

    def test_finite_difference_indices_subset(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 4, 3))
        targets = np.array([1, 0])
        full = finite_difference_gradient(model, x, targets)
        some = finite_difference_gradient(model, x, targets, indices=np.array([0, 5, 9]))
        assert np.array_equal(some[[0, 5, 9]], full[[0, 5, 9]])
        assert some[1] == 0.0

    def test_max_relative_error_hand_cases(self):
        assert max_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        # small values: denominator floors at 1
        assert max_relative_error(np.array([0.0]), np.array([1e-3])) == 1e-3
        # large values: denominator is the bigger magnitude
        assert abs(max_relative_error(np.array([100.0]), np.array([110.0])) - 10 / 110) <= 1e-15

    def test_report_passed_property(self):
        good = GradCheckReport("lstm", "softmax", 5, 1e-9, 1e-6)
        bad = GradCheckReport("lstm", "softmax", 5, 1e-3, 1e-6)
        assert good.passed and not bad.passed


class TestOptimizers:
    def test_sgd_exact(self):
        values = np.array([1.0, -2.0, 3.0])
        grad = np.array([0.5, 0.5, -1.0])
        assert np.array_equal(sgd_update(values, grad, 0.1), values - 0.1 * grad)

    def test_adam_first_step_closed_form(self):
        """With zeroed state, bias correction makes step 1 exactly
        lr * g / (|g| + eps)."""
        config = TrainConfig()
        values = np.array([1.0, 2.0, 3.0])
        grad = np.array([10.0, -0.4, 0.0])
        state = AdamState.zeros(3)
        new = adam_update(values, grad, state, config)
        expected = values - config.learning_rate * grad / (np.abs(grad) + config.adam_eps)
        assert np.max(np.abs(new - expected)) <= 1e-15
        assert state.t == 1
        assert np.max(np.abs(state.m - 0.1 * grad)) <= 1e-15
        assert np.max(np.abs(state.v - 0.001 * grad**2)) <= 1e-15

    def test_adam_two_steps_match_reference_recurrence(self):
        config = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(25)
        values = rng.normal(size=4)
        g1, g2 = rng.normal(size=4), rng.normal(size=4)
        state = AdamState.zeros(4)
        v1 = adam_update(values, g1, state, config)
        v2 = adam_update(v1, g2, state, config)

        m = 0.1 * g1
        v = 0.001 * g1**2
        m = 0.9 * m + 0.1 * g2
        v = 0.999 * v + 0.001 * g2**2
        m_hat = m / (1 - 0.9**2)
        v_hat = v / (1 - 0.999**2)
        expected = v1 - 0.01 * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        assert np.max(np.abs(v2 - expected)) <= 1e-15

    def test_clip_gradient(self):
        grad = np.array([3.0, 4.0])  # norm 5
        clipped = clip_gradient(grad, 2.5)
        assert abs(np.linalg.norm(clipped) - 2.5) <= 1e-12
        assert np.max(np.abs(clipped - grad / 2.0)) <= 1e-12
        same = clip_gradient(grad, 10.0)
        assert np.array_equal(same, grad)
        with pytest.raises(ValueError):
            clip_gradient(grad, 0.0)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)

    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_train_config_refuses_a_non_finite_step_setting(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            TrainConfig(**{name: value})


def _toy_problem(seed=26, n=24, w=8):
    """Two classes separable by the mean of the first feature."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, w, 3)) * 0.1
    targets = np.arange(n) % 2
    x[targets == 1, :, 0] += 3.0
    return x, targets


class TestFit:
    def test_loss_decreases_and_learns(self):
        x, targets = _toy_problem()
        model = init_parameters(LstmSpec(3, 8, 2), HeadKind.SOFTMAX, seed=27)
        result = fit(model, x, targets, TrainConfig(epochs=50, shuffle_seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        predicted = np.argmax(forward(result.model, x), axis=1)
        assert np.mean(predicted == targets) == 1.0

    def test_bitwise_deterministic(self):
        x, targets = _toy_problem()
        config = TrainConfig(epochs=5, shuffle_seed=3)
        runs = [
            fit(init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=28), x, targets, config)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].model.values, runs[1].model.values)
        assert runs[0].epoch_losses == runs[1].epoch_losses

    def test_shuffle_seed_changes_trajectory(self):
        x, targets = _toy_problem()
        a = fit(
            init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=29),
            x, targets, TrainConfig(epochs=3, shuffle_seed=0, batch_size=8),
        )
        b = fit(
            init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=29),
            x, targets, TrainConfig(epochs=3, shuffle_seed=1, batch_size=8),
        )
        assert not np.array_equal(a.model.values, b.model.values)

    def test_sgd_optimizer_path(self):
        x, targets = _toy_problem()
        model = init_parameters(LstmSpec(3, 8, 2), HeadKind.SOFTMAX, seed=30)
        result = fit(
            model, x, targets,
            TrainConfig(optimizer="sgd", learning_rate=0.5, epochs=30),
        )
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_input_validation(self):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=31)
        with pytest.raises(ValueError, match=r"\(N, W, D\)"):
            fit(model, np.zeros((4, 3)), np.zeros(4), TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="targets"):
            fit(model, np.zeros((4, 5, 3)), np.zeros(3), TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="empty"):
            fit(model, np.zeros((0, 5, 3)), np.zeros(0), TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        """Astronomically large weights overflow the conv stack to non-finite
        values, which the step guard must catch rather than propagate."""
        spec = TcnSpec(3, 4, 2, (1, 2), 2)
        values = np.full(param_count(spec), 1e200)
        model = ModelParameters(spec=spec, head=HeadKind.SOFTMAX, values=values)
        rng = np.random.default_rng(32)
        with pytest.raises(TrainingDivergedError):
            train_step(
                model, rng.normal(size=(2, 6, 3)), np.array([0, 1]),
                TrainConfig(), AdamState.zeros(values.size),
            )


@pytest.mark.parametrize("count, calls", [(1, ["body"]), (2, [1, "body", 2])])
def test_one_blas_thread_sets_the_count_only_when_it_is_not_1(count, calls, monkeypatch):
    """At a count of 1 ``set_num_threads`` is never called; otherwise the
    count is set to 1 around the block and then restored."""
    seen = []
    monkeypatch.setattr(common, "_OPENBLAS_THREADS", (lambda: count, seen.append))
    with common.one_blas_thread():
        seen.append("body")
    assert seen == calls


@needs_two_blas_threads
def test_fit_does_not_depend_on_the_callers_blas_thread_count():
    get, put = common._OPENBLAS_THREADS
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 32, 28))
    targets = (rng.random(40) < 0.5).astype(np.float64)
    config = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01)
    before = get()
    trained = []
    try:
        for threads in (2, 1):
            put(threads)
            model = init_parameters(LstmSpec(28, 32, 1), HeadKind.SIGMOID, seed=3)
            trained.append(fit(model, x, targets, config).model.values.tobytes())
            assert get() == threads
    finally:
        put(before)
    assert trained[0] == trained[1]


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        model = init_parameters(TCN_SMALL, HeadKind.SOFTMAX, seed=33)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"seed": 7, "config_digest": "abc123"})
        loaded, header = load_checkpoint(path)
        assert np.array_equal(loaded.values, model.values)
        assert loaded.spec == model.spec
        assert loaded.head is HeadKind.SOFTMAX
        assert header["seed"] == 7
        assert header["config_digest"] == "abc123"
        assert header["param_count"] == param_count(TCN_SMALL)
        assert header["format"] == "skelgest-checkpoint"

    def test_lstm_round_trip(self, tmp_path):
        model = init_parameters(LstmSpec(3, 4, 1), HeadKind.SIGMOID, seed=34)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.head is HeadKind.SIGMOID
        assert np.array_equal(loaded.values, model.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a skelgest checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=35)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "spec,head,text",
        [(LstmSpec(3, 4, 2), HeadKind.SOFTMAX,
          '{"arch": {"hidden_dim": 4, "input_dim": 3, "kind": "lstm", "n_classes": 2}, '
          '"format": "skelgest-checkpoint", "head": "softmax", "param_count": 138, '
          '"seed": 7, "version": 1}'),
         (TcnSpec(3, 4, 2, (1, 2), 1), HeadKind.SIGMOID,
          '{"arch": {"channels": 4, "dilations": [1, 2], "input_dim": 3, "kernel": 2, '
          '"kind": "tcn", "n_classes": 1}, "format": "skelgest-checkpoint", '
          '"head": "sigmoid", "param_count": 81, "seed": 7, "version": 1}')],
        ids=["lstm-softmax", "tcn-sigmoid"],
    )
    def test_header_bytes(self, spec, head, text, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_parameters(spec, head, seed=1), extra={"seed": 7})
        data = path.read_bytes()
        (length,) = struct.unpack("<Q", data[8:16])
        assert data[:8] == b"SKGCKPT1"
        assert data[16 : 16 + length].decode("utf-8") == text
        assert len(data) == 16 + length + 8 * param_count(spec)

    @staticmethod
    def _with_arch(tmp_path, edit):
        """A checkpoint of LSTM_SMALL whose header's arch object ``edit`` changed."""
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, init_parameters(LSTM_SMALL, HeadKind.SOFTMAX, seed=36))
        data = path.read_bytes()
        (length,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16 : 16 + length])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob
                         + data[16 + length :])
        return path

    @pytest.mark.parametrize(
        "edit,fragment",
        [(lambda h: h["arch"].update(kind="gru"), "unknown architecture kind 'gru'"),
         (lambda h: h["arch"].pop("kind"), "unknown architecture kind None"),
         (lambda h: h.pop("arch"), "'arch'"),
         (lambda h: h["arch"].pop("hidden_dim"), "'hidden_dim'")],
        ids=["unknown-kind", "no-kind", "no-arch", "no-field"],
    )
    def test_unreadable_arch_names_the_file(self, tmp_path, edit, fragment):
        path = self._with_arch(tmp_path, edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and fragment in str(info.value)

    def test_extra_arch_field_is_ignored(self, tmp_path):
        path = self._with_arch(tmp_path, lambda h: h["arch"].update(channels=9))
        loaded, _ = load_checkpoint(path)
        assert loaded.spec == LSTM_SMALL
