"""Tests for the loss, optimizer, epoch schedule, training loop, and the
finite-difference gradient checker."""

import numpy as np
import pytest

from reference_impls import spectral_projection
from hsdenoise.hsio import gen_synthetic
from hsdenoise.metrics import psnr
from hsdenoise.network import (
    WeightsError,
    build_network,
    desk_config,
    load_weights,
    save_weights,
)
from hsdenoise.noise import add_gaussian_iid, synthesize_case
from hsdenoise.qru import ConfigError, make_variant
from hsdenoise.tensors import ShapeError, conv3d_backward, conv3d_forward
from hsdenoise.training import (
    AdamState,
    TrainOptions,
    adam_step,
    grad_check,
    load_optimizer_state,
    mse_loss,
    save_optimizer_state,
    schedule_for_epoch,
    train,
    _build_val_pairs,
    _corrupt,
)


def smooth_patches(n, h, w, b, seed=0):
    """Clean low-frequency cubes in [0.15, 0.85], shaped (1, h, w, b)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        u = rng.uniform(-1, 1, size=3)
        yy, xx, bb = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w),
                                 np.linspace(0, 1, b), indexing="ij")
        cube = 0.5 + 0.35 * np.sin(2 * np.pi * (u[0] * yy + u[1] * xx + u[2] * bb))
        out.append(cube[np.newaxis].astype(np.float32))
    return out


class TestProjectionReference:
    """The rank-r spectral projection, the line a learned net must clear:
    its gain over the noisy input on the three held-out cubes
    gen_synthetic(64, 64, 31, [300, i]) at sigma 50, noise seed [400, i]."""

    # Per cube: noisy PSNR, the best gain over r in 1..16 (an oracle bound:
    # r is picked with the clean cube in hand; r = 1 on every cube), and the
    # gain at r = 4, the generator's term count, fixed ahead of time.
    FIGURES = ((14.143, 12.996, 9.005), (14.172, 11.974, 9.059), (14.154, 11.576, 9.022))

    def test_gain_over_noisy_input(self):
        for i, (noisy_db, best_gain, fixed_gain) in enumerate(self.FIGURES):
            clean = gen_synthetic(64, 64, 31, [300, i])
            noisy = add_gaussian_iid(clean, 50, [400, i])
            base = psnr(noisy, clean)
            gains = [psnr(spectral_projection(noisy, r), clean) - base for r in range(1, 17)]
            assert abs(base - noisy_db) <= 0.01
            assert int(np.argmax(gains)) == 0
            assert abs(gains[0] - best_gain) <= 0.01
            assert abs(gains[3] - fixed_gain) <= 0.01


class TestMseLoss:
    def test_known_value(self):
        """Constant offset of 0.5 gives loss 0.25."""
        pred = np.full((2, 3), 1.5)
        target = np.ones((2, 3))
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(0.25)
        assert np.allclose(grad, 2.0 * 0.5 / 6.0)

    def test_zero_at_match(self):
        """Identical tensors give zero loss and zero gradient."""
        x = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_grad_matches_fd(self):
        """Loss gradient agrees with a central difference."""
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        bumped = pred.copy()
        bumped[1, 2] += eps
        hi, _ = mse_loss(bumped, target)
        bumped[1, 2] -= 2 * eps
        lo, _ = mse_loss(bumped, target)
        assert grad[1, 2] == pytest.approx((hi - lo) / (2 * eps), rel=1e-6)

    def test_shape_mismatch(self):
        """Mismatched operands are rejected."""
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAdam:
    def test_first_step_magnitude(self):
        """Bias correction makes the first update very close to lr."""
        p = np.zeros(4, dtype=np.float32)
        g = np.array([1.0, -2.0, 0.5, 10.0], dtype=np.float32)
        state = AdamState([p])
        adam_step(state, [p], [g], lr=1e-2)
        assert np.allclose(np.abs(p), 1e-2, rtol=1e-4)
        assert np.all(np.sign(p) == -np.sign(g))

    def test_zero_grad_is_noop(self):
        """Zero gradients leave parameters untouched."""
        p = np.array([1.0, 2.0], dtype=np.float32)
        state = AdamState([p])
        adam_step(state, [p], [np.zeros(2, dtype=np.float32)], lr=0.1)
        assert np.array_equal(p, np.array([1.0, 2.0], dtype=np.float32))
        assert state.step == 1

    def test_deterministic_sequence(self):
        """Two identical update sequences land on identical parameters."""
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(3, 3)).astype(np.float32) for _ in range(5)]
        results = []
        for _ in range(2):
            p = np.ones((3, 3), dtype=np.float32)
            state = AdamState([p])
            for g in grads:
                adam_step(state, [p], [g], lr=1e-3)
            results.append(p.copy())
        assert np.array_equal(results[0], results[1])

    def test_moments_stay_float64(self):
        """Moment buffers keep float64 precision for float32 parameters."""
        p = np.zeros(3, dtype=np.float32)
        state = AdamState([p])
        adam_step(state, [p], [np.ones(3, dtype=np.float32)], lr=1e-3)
        assert state.m[0].dtype == np.float64
        assert state.v[0].dtype == np.float64

    def test_state_mismatch_rejected(self):
        """A state built for another model is refused."""
        p = np.zeros(3, dtype=np.float32)
        state = AdamState([p, p.copy()])
        with pytest.raises(ConfigError):
            adam_step(state, [p], [p.copy()], lr=1e-3)


class TestSchedule:
    def test_stage1_cells(self):
        """Stage 1 runs 30 epochs at sigma 50, batch 16, lr 1e-3 then 1e-4."""
        for epoch in (0, 10, 19):
            s = schedule_for_epoch(epoch)
            assert (s.stage, s.lr, s.batch_size, s.regime, s.sigma) == \
                (1, 1e-3, 16, "fixed", 50.0)
        for epoch in (20, 22, 29):
            s = schedule_for_epoch(epoch)
            assert (s.stage, s.lr, s.batch_size) == (1, 1e-4, 16)

    def test_stage2_cells(self):
        """Stage 2 is blind in [30, 70] at batch 64 with a three-step lr."""
        for epoch, lr in ((30, 1e-3), (34, 1e-3), (35, 1e-4), (44, 1e-4),
                          (45, 1e-5), (47, 1e-5), (49, 1e-5)):
            s = schedule_for_epoch(epoch)
            assert (s.stage, s.lr, s.batch_size, s.regime) == (2, lr, 64, "blind")
            assert s.sigma_range == (30.0, 70.0)

    def test_stage3_cells(self):
        """Stage 3 mixes cases 1-4 at batch 64 with lr drops at 85 and 95."""
        for epoch, lr in ((50, 1e-3), (84, 1e-3), (85, 1e-4), (90, 1e-4),
                          (94, 1e-4), (95, 1e-5), (99, 1e-5)):
            s = schedule_for_epoch(epoch)
            assert (s.stage, s.lr, s.batch_size, s.regime) == (3, lr, 64, "mixture")
            assert s.cases == (1, 2, 3, 4)

    def test_every_epoch_covered(self):
        """All 100 epochs resolve, and the stages partition 30/20/50."""
        stages = [schedule_for_epoch(e).stage for e in range(100)]
        assert stages.count(1) == 30
        assert stages.count(2) == 20
        assert stages.count(3) == 50
        assert stages == sorted(stages)

    def test_out_of_range_rejected(self):
        """Epochs outside [0, 100) and non-integers are errors."""
        for bad in (-1, 100, 250):
            with pytest.raises(ConfigError):
                schedule_for_epoch(bad)
        with pytest.raises(ConfigError):
            schedule_for_epoch(1.5)


class TestCorruption:
    def test_fixed_regime_matches_direct_call(self):
        """Stage-1 corruption is exactly seeded iid gaussian."""
        patch = smooth_patches(1, 8, 8, 5, seed=4)[0]
        stage = schedule_for_epoch(0)
        got = _corrupt(patch, stage, [9, 0, 3])
        want = add_gaussian_iid(patch[0], 50.0, [9, 0, 3])[np.newaxis].astype(np.float32)
        assert np.array_equal(got, want)

    def test_blind_regime_sigma_stream(self):
        """Stage-2 corruption draws sigma from its own substream."""
        patch = smooth_patches(1, 8, 8, 5, seed=5)[0]
        stage = schedule_for_epoch(30)
        got = _corrupt(patch, stage, [9, 30, 0])
        sigma = float(np.random.default_rng([9, 30, 0, 0]).uniform(30.0, 70.0))
        assert 30.0 <= sigma <= 70.0
        want = add_gaussian_iid(patch[0], sigma, [9, 30, 0, 1])[np.newaxis].astype(np.float32)
        assert np.array_equal(got, want)

    def test_mixture_regime_case_stream(self):
        """Stage-3 corruption picks one of the four complex cases."""
        patch = smooth_patches(1, 8, 8, 6, seed=6)[0]
        stage = schedule_for_epoch(50)
        got = _corrupt(patch, stage, [9, 50, 1])
        pick = np.random.default_rng([9, 50, 1, 0]).integers(0, 4)
        case = int(stage.cases[pick])
        want, _ = synthesize_case(patch[0], case, [9, 50, 1, 1])
        assert np.array_equal(got, want[np.newaxis].astype(np.float32))


class TestTrainLoop:
    def test_loss_drops_on_small_run(self):
        """A few epochs of denoising clearly reduce the training loss."""
        patches = smooth_patches(8, 12, 12, 6, seed=7)
        model = build_network(desk_config(width=6, n_layers=3), seed=1)
        opts = TrainOptions(seed=5, epochs=6, policy="fixed", lr=2e-3,
                            batch_size=4, sigma=25.0)
        _, log = train(model, patches, opts)
        losses = [row["loss"] for row in log.rows]
        assert losses[-1] < 0.6 * losses[0]

    def test_same_seed_bitwise_identical(self):
        """Two fresh runs with one seed produce identical weights and CSV."""
        patches = smooth_patches(6, 8, 8, 4, seed=8)
        runs = []
        for _ in range(2):
            model = build_network(desk_config(width=4, n_layers=3), seed=2)
            _, log = train(model, patches, TrainOptions(
                seed=3, epochs=3, policy="fixed", lr=1e-3, batch_size=2, sigma=30.0))
            runs.append((model.param_arrays(), log.to_csv()))
        for pa, pb in zip(runs[0][0], runs[1][0]):
            assert np.array_equal(pa, pb)
        assert runs[0][1] == runs[1][1]

    def test_network_input_grad_not_computed(self, monkeypatch):
        """Training never asks for the input gradient that it discards."""
        import hsdenoise.network as network

        calls = []
        backward = network.Model.backward

        def record(self, traces, grad_output, input_grad=True):
            calls.append(input_grad)
            return backward(self, traces, grad_output, input_grad)

        monkeypatch.setattr(network.Model, "backward", record)
        model = build_network(desk_config(width=4, n_layers=3), seed=2)
        train(model, smooth_patches(4, 8, 8, 4, seed=9), TrainOptions(
            seed=3, epochs=1, policy="fixed", lr=1e-3, batch_size=2, sigma=30.0))
        assert calls == [False, False]

    def test_resume_reproduces_straight_run(self):
        """Stopping after two epochs and resuming matches the 4-epoch run."""
        patches = smooth_patches(6, 8, 8, 4, seed=9)
        cfg = desk_config(width=4, n_layers=3)

        model_a = build_network(cfg, seed=11)
        state_a, _ = train(model_a, patches, TrainOptions(
            seed=13, epochs=4, policy="fixed", lr=1e-3, batch_size=2, sigma=25.0))

        model_b = build_network(cfg, seed=11)
        state_b, _ = train(model_b, patches, TrainOptions(
            seed=13, epochs=2, policy="fixed", lr=1e-3, batch_size=2, sigma=25.0))
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            save_weights(f"{tmp}/w.q3dw", model_b)
            save_optimizer_state(f"{tmp}/s.q3da", state_b)
            model_c = load_weights(f"{tmp}/w.q3dw")
            state_c = load_optimizer_state(f"{tmp}/s.q3da")
        assert state_c.epoch == 2
        train(model_c, patches, TrainOptions(
            seed=13, epochs=4, start_epoch=state_c.epoch, policy="fixed",
            lr=1e-3, batch_size=2, sigma=25.0), state=state_c)

        for pa, pc in zip(model_a.param_arrays(), model_c.param_arrays()):
            assert np.array_equal(pa, pc)
        for ma, mc in zip(state_a.m, state_c.m):
            assert np.array_equal(ma, mc)

    def test_checkpoints_written(self, tmp_path):
        """The epoch-50 checkpoint is a loadable weight and optimizer pair."""
        patches = smooth_patches(4, 8, 8, 4, seed=10)
        model = build_network(desk_config(width=4, n_layers=3), seed=3)
        train(model, patches, TrainOptions(
            seed=1, epochs=50, start_epoch=48, policy="fixed", lr=1e-3, batch_size=2,
            sigma=25.0, checkpoint_dir=str(tmp_path)))
        loaded = load_weights(str(tmp_path / "weights_epoch050.q3dw"))
        for pa, pb in zip(model.param_arrays(), loaded.param_arrays()):
            assert np.array_equal(pa, pb)
        state = load_optimizer_state(str(tmp_path / "optim_epoch050.q3da"))
        assert state.epoch == 50

    def test_csv_has_no_wall_time(self):
        """Wall time stays out of the CSV artifact; loggers still see it."""
        patches = smooth_patches(2, 8, 8, 4, seed=12)
        model = build_network(desk_config(width=4, n_layers=3), seed=4)
        _, log = train(model, patches, TrainOptions(
            seed=2, epochs=1, policy="fixed", lr=1e-3, batch_size=2, sigma=25.0))
        header = log.to_csv().splitlines()[0]
        assert header == "epoch,stage,lr,batch_size,loss,val_psnr"
        assert "seconds" in log.rows[0]

    def test_val_psnr_reported(self):
        """Validation patches produce a numeric per-epoch psnr column."""
        patches = smooth_patches(4, 8, 8, 4, seed=13)
        val = smooth_patches(2, 8, 8, 4, seed=14)
        model = build_network(desk_config(width=4, n_layers=3), seed=5)
        _, log = train(model, patches, TrainOptions(
            seed=6, epochs=1, policy="fixed", lr=1e-3, batch_size=2, sigma=25.0,
            val_patches=val))
        assert log.rows[0]["val_psnr"] is not None
        assert log.rows[0]["val_psnr"] > 5.0

    def test_val_psnr_is_mean_denoise_psnr(self):
        """val_psnr is the mean PSNR of Model.denoise on each fixed noisy
        validation patch against its clean patch."""
        patches = smooth_patches(4, 8, 8, 4, seed=13)
        val = smooth_patches(3, 8, 8, 4, seed=14)
        model = build_network(desk_config(width=4, n_layers=3), seed=5)
        _, log = train(model, patches, TrainOptions(
            seed=6, epochs=1, policy="fixed", lr=1e-3, batch_size=2, sigma=25.0,
            val_patches=val))
        want = np.mean([psnr(model.denoise(noisy[0]), clean[0])
                        for noisy, clean in _build_val_pairs(val, 6)])
        assert log.rows[0]["val_psnr"] == float(want)

    @pytest.mark.parametrize("first", [19, 29, 34, 44, 49, 84, 94])
    def test_schedule_policy_with_step_cap(self, first):
        """Under the default schedule policy, two epochs across each
        curriculum boundary log the schedule's stage, batch size and learning
        rate, and max_steps_per_epoch=1 cuts each epoch to one Adam step,
        though 40 patches fill three stage-1 batches of 16."""
        patches = smooth_patches(40, 8, 8, 4, seed=16)
        model = build_network(desk_config(width=4, n_layers=3), seed=8)
        state, log = train(model, patches, TrainOptions(
            seed=4, epochs=first + 2, start_epoch=first, max_steps_per_epoch=1))
        for row, epoch in zip(log.rows, (first, first + 1), strict=True):
            spec = schedule_for_epoch(epoch)
            assert (row["epoch"], row["stage"], row["batch_size"], row["lr"]) == (
                epoch, spec.stage, spec.batch_size, spec.lr)
        assert log.rows[1]["lr"] != log.rows[0]["lr"]
        assert log.rows[1]["stage"] == log.rows[0]["stage"] + (first in (29, 49))
        assert (state.step, state.epoch) == (2, first + 2)

    def test_bad_options_rejected(self):
        """Empty patch lists, bad policies, and bad ranges are errors."""
        model = build_network(desk_config(width=4, n_layers=3), seed=6)
        with pytest.raises(ConfigError):
            train(model, [], TrainOptions(epochs=1))
        with pytest.raises(ConfigError):
            TrainOptions(policy="annealed")
        with pytest.raises(ConfigError):
            TrainOptions(epochs=0)
        with pytest.raises(ConfigError, match="101 epochs run past the 100-epoch schedule"):
            TrainOptions(epochs=101)
        with pytest.raises(ConfigError):
            TrainOptions(epochs=2, start_epoch=2)
        for size in (0, -1):
            with pytest.raises(ConfigError, match=f"batch size .* got {size}"):
                TrainOptions(policy="fixed", batch_size=size)
        for steps in (0, -2):
            with pytest.raises(ConfigError, match=f"max steps .* got {steps}"):
                TrainOptions(max_steps_per_epoch=steps)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_learning_rate_rejected(self, lr):
        """A learning rate outside (0, inf) is refused up front: NaN or Inf
        would write non-finite weights, zero or negative ones no descent."""
        with pytest.raises(ConfigError, match=f"learning rate .* got {lr}"):
            TrainOptions(policy="fixed", lr=lr)

    def test_foreign_state_rejected(self):
        """An optimizer state sized for another model is refused."""
        patches = smooth_patches(2, 8, 8, 4, seed=15)
        model = build_network(desk_config(width=4, n_layers=3), seed=7)
        other = build_network(desk_config(width=6, n_layers=3), seed=7)
        state = AdamState(other.param_arrays())
        with pytest.raises(ConfigError):
            train(model, patches, TrainOptions(epochs=1, policy="fixed"), state=state)


class TestOptimizerStateIO:
    def test_round_trip(self, tmp_path):
        """Save/load preserves step, epoch, and moment bits."""
        rng = np.random.default_rng(16)
        p = [rng.normal(size=(2, 3)).astype(np.float32), rng.normal(size=4).astype(np.float32)]
        state = AdamState(p)
        for _ in range(3):
            adam_step(state, p, [rng.normal(size=a.shape).astype(np.float32) for a in p],
                      lr=1e-3)
        state.epoch = 7
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, state)
        back = load_optimizer_state(path)
        assert back.step == state.step
        assert back.epoch == 7
        assert (back.beta1, back.beta2, back.eps) == (state.beta1, state.beta2, state.eps)
        for a, b in zip(state.m + state.v, back.m + back.v):
            assert np.array_equal(a, b)

    def test_loaded_state_keeps_file_hyperparameters(self, tmp_path):
        """A new state takes Adam's fixed 0.9, 0.999 and 1e-8; a loaded one
        keeps the betas and eps its file holds, whatever they are."""
        state = AdamState([np.zeros(3, dtype=np.float32)])
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)
        state.beta1, state.beta2, state.eps = 0.8, 0.99, 1e-6
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, state)
        back = load_optimizer_state(path)
        assert (back.beta1, back.beta2, back.eps) == (0.8, 0.99, 1e-6)

    def test_truncated_file_rejected(self, tmp_path):
        """A cut-off file reports the byte offset it failed at."""
        p = [np.zeros((2, 2), dtype=np.float32)]
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, AdamState(p))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-9])
        with pytest.raises(WeightsError, match="byte"):
            load_optimizer_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        """Files that do not start with the sidecar magic are refused."""
        path = str(tmp_path / "s.q3da")
        open(path, "wb").write(b"NOPE" + b"\x00" * 60)
        with pytest.raises(WeightsError, match="magic"):
            load_optimizer_state(path)

    @staticmethod
    def saved_state(tmp_path, edit):
        """Path of a two-array state file, after edit(state) on a valid one."""
        state = AdamState([np.zeros((2, 2), dtype=np.float32), np.zeros(3, dtype=np.float32)])
        state.m[1][:] = 0.5
        state.v[1][:] = 0.25
        edit(state)
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, state)
        return path

    @pytest.mark.parametrize("part, idx, value, rule", [
        ("m", 1, np.nan, "finite"),
        ("m", 0, -np.inf, "finite"),
        ("v", 1, np.nan, "finite and non-negative"),
        ("v", 0, -1e-12, "finite and non-negative"),
    ], ids=["m-nan", "m-inf", "v-nan", "v-negative"])
    def test_unusable_moment_rejected(self, tmp_path, part, idx, value, rule):
        """A moment that is not finite, or a negative second moment, would
        make every later loss NaN: the reader refuses it, naming the array
        and the part."""
        def poison(state):
            getattr(state, part)[idx].flat[1] = value

        path = self.saved_state(tmp_path, poison)
        with pytest.raises(WeightsError, match=f"^array {idx} {part}: 1 values not {rule}$"):
            load_optimizer_state(path)

    @pytest.mark.parametrize("name, value", [
        ("beta1", 1.0), ("beta1", -0.5), ("beta2", np.nan), ("eps", 0.0), ("eps", np.inf),
    ])
    def test_unusable_hyperparameter_rejected(self, tmp_path, name, value):
        """A beta outside [0, 1) or an eps that is not positive and finite
        is refused, naming the hyperparameter and its value."""
        path = self.saved_state(tmp_path, lambda s: setattr(s, name, value))
        with pytest.raises(WeightsError, match=f"^{name} is {value}: betas must be in "
                                               r"\[0, 1\), eps finite and > 0$"):
            load_optimizer_state(path)

    def test_boundary_hyperparameters_accepted(self, tmp_path):
        """beta = 0 (no averaging) and a zero second moment can run."""
        state = AdamState([np.zeros(3, dtype=np.float32)])
        state.beta1, state.beta2, state.eps = 0.0, 0.0, 1e-300
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, state)
        back = load_optimizer_state(path)
        assert (back.beta1, back.beta2, back.eps) == (0.0, 0.0, 1e-300)

    def test_trailing_bytes_rejected(self, tmp_path):
        """Extra bytes after the last array are an error."""
        p = [np.zeros(3, dtype=np.float32)]
        path = str(tmp_path / "s.q3da")
        save_optimizer_state(path, AdamState(p))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(WeightsError, match="trailing"):
            load_optimizer_state(path)


class _ScaledGrads:
    """Wrapper that corrupts every parameter gradient by 10 percent."""

    def __init__(self, unit):
        self.unit = unit

    def astype(self, dtype):
        return _ScaledGrads(self.unit.astype(dtype))

    def param_arrays(self):
        return self.unit.param_arrays()

    def param_names(self):
        return self.unit.param_names()

    def forward(self, x, keep_trace=False):
        return self.unit.forward(x, keep_trace)

    def backward(self, trace, grad_y):
        gx, grads = self.unit.backward(trace, grad_y)
        return gx, [1.1 * g for g in grads]


class _NanBiasGrad(_ScaledGrads):
    """Wrapper whose bias gradient reads NaN in its first element."""

    def astype(self, dtype):
        return _NanBiasGrad(self.unit.astype(dtype))

    def backward(self, trace, grad_y):
        gx, (gw, gb) = self.unit.backward(trace, grad_y)
        gb = gb.copy()
        gb[0] = np.nan
        return gx, [gw, gb]


class _LinearConv:
    """A bare convolution, exactly linear in its parameters, with the
    unit interface grad_check needs."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stride = (1, 1, 1)

    def astype(self, dtype):
        return _LinearConv(self.kernel.astype(dtype))

    def param_arrays(self):
        return [self.kernel.weight, self.kernel.bias]

    def param_names(self):
        return ["w.weight", "w.bias"]

    def forward(self, x, keep_trace=False):
        return conv3d_forward(x, self.kernel, self.stride), (x if keep_trace else None)

    def backward(self, x, grad_y):
        gx, gw, gb = conv3d_backward(x, self.kernel, self.stride, grad_y)
        return gx, [gw, gb]


class TestGradCheck:
    def test_small_model_passes(self):
        """The full-network analytic gradient survives a central difference."""
        model = build_network(desk_config(width=3, n_layers=3), seed=21)
        x = 0.5 * np.random.default_rng(22).standard_normal((1, 1, 5, 5, 4))
        report = grad_check(model, x.astype(np.float32))
        assert report.passed, report.format()
        assert len(report.rows) == len(model.param_arrays())

    def test_identity_unit_is_exact(self):
        """On a layer linear in its parameters the check is exact to rounding."""
        unit = _LinearConv(make_variant("c3d").build(
            np.random.default_rng(23), 2, 3, (1, 1, 1), "forward").banks[0])
        x = np.random.default_rng(24).standard_normal((1, 2, 4, 4, 3)).astype(np.float32)
        report = grad_check(unit, x, tolerance=1e-7)
        assert report.passed, report.format()

    def test_corrupted_gradient_detected(self):
        """A 10 percent gradient error fails the 1e-3 tolerance loudly."""
        factory = make_variant("qru3d")
        rng = np.random.default_rng(25)
        unit = _ScaledGrads(factory.build(rng, 1, 2, (1, 1, 1), "forward"))
        x = 0.5 * np.random.default_rng(26).standard_normal((1, 1, 4, 4, 3))
        report = grad_check(unit, x.astype(np.float32))
        assert not report.passed
        assert "FAIL" in report.format()

    def test_nan_error_fails_its_group(self):
        """A NaN relative error fails its group and the report; it does not
        vanish inside a running max."""
        unit = _NanBiasGrad(_LinearConv(make_variant("c3d").build(
            np.random.default_rng(23), 2, 3, (1, 1, 1), "forward").banks[0]))
        x = np.random.default_rng(24).standard_normal((1, 2, 4, 4, 3)).astype(np.float32)
        report = grad_check(unit, x)
        errs = dict(report.rows)
        assert errs["w.weight"] < 1e-6 and np.isnan(errs["w.bias"])
        assert np.isnan(report.max_rel_err) and not report.passed
        assert "w.bias" in [line.split()[0] for line in report.format().splitlines()
                            if line.endswith("FAIL")]

    @pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
    def test_eps_must_be_positive_and_finite(self, eps):
        unit = make_variant("c3d").build(np.random.default_rng(23), 1, 1, (1, 1, 1), "forward")
        with pytest.raises(ConfigError, match="eps must be positive and finite"):
            grad_check(unit, np.zeros((1, 1, 4, 4, 3), np.float32), eps=eps)

    def test_report_names_groups(self):
        """The report lists one row per named parameter group."""
        factory = make_variant("qru3d")
        rng = np.random.default_rng(27)
        unit = factory.build(rng, 1, 2, (1, 1, 1), "bidirectional")
        x = 0.5 * np.random.default_rng(28).standard_normal((1, 1, 4, 4, 3))
        report = grad_check(unit, x.astype(np.float32))
        names = [r[0] for r in report.rows]
        assert names == unit.param_names()
        assert "fwd.wz.weight" in names and "bwd.wf.bias" in names
        assert report.passed, report.format()
