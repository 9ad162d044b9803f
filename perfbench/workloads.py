"""The three workloads: inputs made from the seed, one op, and its check.

Each workload writes its inputs into a work directory during set-up and
hands the program only those files (or arrays). `op()` is the timed unit of
work and `collect()` reads its outputs after the clock stops. The float64
references are computed by `reference()` only after the last op, so that
their memory never enters the op's peak RSS; `check()` then compares each
collected output and returns failure messages, empty when it is right.
"""

import contextlib
import csv
import io
import math
import os

import numpy as np

import reference

# Largest |program - float64 reference| allowed on a denoised cube in [0, 1].
# The float32 program reads 5e-7 here, and a float32-GEMM core (3e-7 relative
# per convolution) stays far below 1e-4, while a wrong offset or stride moves
# outputs by 1e-2 or more.
DENOISE_ATOL = 1e-4
# Relative error allowed between the first step's float32 gradients and the
# float64 shadow's, per parameter array (float32 activations give ~1e-5).
GRAD_RTOL = 1e-3
# Finite-difference check of the first step's gradient g along a random unit
# direction d, with losses from the independent reference forward: allowed
# |fd - g.d| as a share of |g| / sqrt(n), the size of a typical g.d. Right
# gradients read 1e-8 to 1e-7; one wrong index in the pooling backward, 2e-2.
FD_TOL = 1e-3
FD_EPS = 1e-4
# GCS cells are written with 8 significant digits.
GCS_RTOL = 1e-6


def _quiet(fn, *args):
    """Call fn with the program's stdout chatter discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _write_inputs(hs, workdir, height, width, bands, seed):
    """Clean cube, its case-5 (mixture) corruption and the seeded weights."""
    clean = hs.hsio.gen_synthetic(height, width, bands, seed)
    noisy, _ = hs.noise.synthesize_case(clean, 5, [seed, 1])
    paths = {k: os.path.join(workdir, k) for k in ("clean.hsi", "noisy.hsi", "net.q3dw")}
    hs.hsio.write_hsi(paths["clean.hsi"], clean)
    hs.hsio.write_hsi(paths["noisy.hsi"], noisy.astype(np.float32))
    model = hs.network.build_network(hs.network.standard_config(), seed)
    hs.network.save_weights(paths["net.q3dw"], model)
    return paths


def _remove(*paths):
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


class Denoise:
    """`hsdenoise denoise` then `hsdenoise eval` on a 1x64x64x31 cube."""

    name = "denoise-64x64x31"
    voxels = 64 * 64 * 31

    def __init__(self, hs, workdir, seed):
        self.hs = hs
        self.paths = _write_inputs(hs, workdir, 64, 64, 31, seed)
        self.out = os.path.join(workdir, "denoised.hsi")
        self.csv = os.path.join(workdir, "metrics.csv")
        self.clean = self.expected = None

    def op(self):
        _remove(self.out, self.csv)
        p = self.paths
        codes = (
            _quiet(self.hs.cli.main, ["denoise", p["noisy.hsi"], self.out,
                                      "--weights", p["net.q3dw"]]),
            _quiet(self.hs.cli.main, ["eval", self.out, p["noisy.hsi"],
                                      "--clean", p["clean.hsi"], "--out", self.csv]),
        )
        if codes != (0, 0):
            raise RuntimeError(f"denoise/eval exit codes {codes}")

    def collect(self):
        with open(self.csv) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        return reference.read_hsi(self.out).copy(), {r[0]: float(r[1]) for r in rows[1:]}

    def reference(self):
        self.clean = reference.read_hsi(self.paths["clean.hsi"])
        layers = reference.read_q3dw(self.paths["net.q3dw"])
        self.expected = reference.denoise(layers, reference.read_hsi(self.paths["noisy.hsi"]))

    def check(self, collected):
        out, reported = collected
        if out.shape != self.expected.shape:
            return [f"denoised shape {out.shape}, expected {self.expected.shape}"]
        if not np.isfinite(out).all():
            return ["denoised cube has non-finite values"]
        fails = []
        err = float(np.max(np.abs(out - self.expected)))
        if err > DENOISE_ATOL:
            fails.append(f"denoised cube differs from the float64 reference by {err:.3g}")
        want = reference.psnr(out, self.clean)
        got = reported.get(self.out, math.nan)
        if not abs(got - want) <= 1e-4:
            fails.append(f"eval reports mpsnr {got}, direct PSNR is {want:.6f}")
        return fails


class Train:
    """One Adam step of `training.train` on a batch of 4 patches 16x16x31.

    The learning rate is 1e-4, the schedule's stage-1 rate after epoch 20,
    so that the loss falls from the random initial weights at every step.
    At 1e-3, Adam's first step (about lr times the gradient's sign in every
    parameter) overshoots on some seeds: 0.37 -> 1.82 on seed 22.
    """

    name = "train-4x16x16x31"
    voxels = 4 * 16 * 16 * 31

    def __init__(self, hs, workdir, seed):
        self.hs = hs
        self.seed = seed
        cube = hs.hsio.gen_synthetic(32, 32, 31, seed)
        self.patches = [np.ascontiguousarray(p.data[np.newaxis], dtype=np.float32)
                        for p in hs.hsio.extract_patches(cube, spatial=16, stride=16)]
        self.weights = os.path.join(workdir, "net.q3dw")
        hs.network.save_weights(self.weights, hs.network.build_network(
            hs.network.standard_config(), seed))
        self.model = hs.network.load_weights(self.weights)
        self.initial = [p.copy() for p in self.model.param_arrays()]
        self.state = None
        self.losses = []
        self.first_step = None
        self.first_step_fails = []

    def op(self):
        epoch = len(self.losses)
        options = self.hs.training.TrainOptions(
            seed=self.seed, epochs=epoch + 1, start_epoch=epoch, policy="fixed",
            lr=1e-4, batch_size=4, sigma=50.0, max_steps_per_epoch=1)
        self.state, log = self.hs.training.train(self.model, self.patches, options,
                                                 state=self.state)
        self.losses.append(log.rows[-1]["loss"])

    def collect(self):
        return self.losses[-1]

    def warm_up(self):
        """The first step, with its batch and gradients captured for the
        float64 shadow comparison (the capture is part of set-up)."""
        training = self.hs.training
        seen = {}
        forward, mse_loss, adam_step = self.model.forward, training.mse_loss, training.adam_step

        def capture_forward(x, *a, **k):
            seen["noisy"] = np.array(x)
            return forward(x, *a, **k)

        def capture_loss(pred, target):
            seen["clean"] = np.array(target)
            return mse_loss(pred, target)

        def capture_step(state, params, grads, lr):
            seen["grads"] = [np.array(g) for g in grads]
            return adam_step(state, params, grads, lr)

        self.model.forward = capture_forward
        training.mse_loss, training.adam_step = capture_loss, capture_step
        try:
            self.op()
        finally:
            del self.model.forward
            training.mse_loss, training.adam_step = mse_loss, adam_step
        self.first_step = seen

    def reference(self):
        """The first step again on a float64 shadow of the initial weights
        (catches precision loss), and its gradient against finite
        differences of the independent reference forward (catches a wrong
        gradient that both precisions share)."""
        seen = self.first_step
        if not seen or "grads" not in seen:
            self.first_step_fails = ["the first step did not complete"]
            return
        noisy, clean = seen["noisy"].astype(np.float64), seen["clean"].astype(np.float64)
        shadow = self.model.astype(np.float64)
        for p, p0 in zip(shadow.param_arrays(), self.initial):
            p[...] = p0
        out, traces = shadow.forward(noisy, keep_traces=True)
        loss, grad = self.hs.training.mse_loss(out, clean)
        _, grads = shadow.backward(traces, grad)
        fails = []
        self.first_grad_rel_err = 0.0
        for name, g32, g64 in zip(shadow.param_names(), seen["grads"], grads):
            rel = float(np.linalg.norm(g32 - g64) / max(np.linalg.norm(g64), 1e-30))
            self.first_grad_rel_err = max(self.first_grad_rel_err, rel)
            if not rel <= GRAD_RTOL:
                fails.append(f"gradient {name} off the float64 shadow by {rel:.3g}")
        del shadow, out, traces, grads

        layers = reference.read_q3dw(self.weights)
        params = [a for layer in layers for bank in layer.banks for a in bank]

        def ref_loss(step):
            for p, p0, d in zip(params, self.initial, direction):
                p[...] = p0 + step * d
            return float(np.mean((reference.network_forward(layers, noisy) - clean) ** 2))

        rng = np.random.default_rng([self.seed, 3])
        direction = [rng.standard_normal(p.shape) for p in params]
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]
        first = ref_loss(0.0)
        if not abs(first - self.losses[0]) <= 1e-6 * first:
            fails.append(f"first loss {self.losses[0]} vs reference forward {first}")
        fd = (ref_loss(FD_EPS) - ref_loss(-FD_EPS)) / (2 * FD_EPS)
        g = [g.astype(np.float64) for g in seen["grads"]]
        gd = sum(float(np.sum(a * d)) for a, d in zip(g, direction))
        typical = max(math.sqrt(sum(float(np.sum(a * a)) for a in g)
                                / sum(a.size for a in g)), 1e-300)
        self.first_grad_fd_err = abs(fd - gd) / typical
        if not self.first_grad_fd_err <= FD_TOL:
            fails.append(f"gradient along a random direction is {gd:.6g}, "
                         f"finite differences give {fd:.6g}")
        self.first_step_fails = fails

    def check(self, loss):
        return [] if math.isfinite(loss) else [f"loss {loss} is not finite"]

    def check_run(self):
        """The first step's gradients, and progress over the whole run."""
        fails = list(self.first_step_fails)
        if len(self.losses) > 1 and not self.losses[-1] < self.losses[0]:
            fails.append(f"last loss {self.losses[-1]:.4g} not below first {self.losses[0]:.4g}")
        return fails


class Gcs:
    """`hsdenoise gcs --layer first` on a 24x24x220 cube."""

    name = "gcs-24x24x220"
    voxels = 24 * 24 * 220
    eps = 1e-6

    def __init__(self, hs, workdir, seed):
        self.hs = hs
        self.seed = seed
        self.paths = _write_inputs(hs, workdir, 24, 24, 220, seed)
        self.prefix = os.path.join(workdir, "gcs", "l1")
        self.directions = ("forward", "backward")
        self.cells = None

    def outputs(self):
        return [f"{self.prefix}.{d}.csv" for d in self.directions] + [
            f"{self.prefix}.relative.csv", f"{self.prefix}.pgm", f"{self.prefix}.meta"]

    def op(self):
        _remove(*self.outputs())
        code = _quiet(self.hs.cli.main, ["gcs", self.paths["noisy.hsi"], "--weights",
                                         self.paths["net.q3dw"], "--layer", "first",
                                         "--out-prefix", self.prefix])
        if code != 0:
            raise RuntimeError(f"gcs exit code {code}")

    def collect(self):
        missing = [p for p in self.outputs() if not os.path.isfile(p)]
        return missing, {d: _read_gcs_csv(f"{self.prefix}.{d}.csv") for d in self.directions}

    def reference(self):
        """Spot cells by the direct product of gates, from the first layer's
        pooling traces as the program computes them inside `gcs`."""
        model = self.hs.network.load_weights(self.paths["net.q3dw"])
        cube = self.hs.hsio.read_hsi(self.paths["noisy.hsi"])
        x = np.ascontiguousarray(cube[np.newaxis, np.newaxis], dtype=np.float32)
        _, unit_trace = model.units[0].forward(x, keep_trace=True)
        traces = {t.direction: t
                  for t in self.hs.gcs.pooling_traces({"units": [unit_trace]}, 0)}
        rng = np.random.default_rng([self.seed, 220])
        bands = cube.shape[2]
        self.cells = {}
        for d in self.directions:
            pairs = [tuple(sorted(rng.integers(0, bands, 2))) for _ in range(6)]
            pairs += [(0, bands - 1), (bands // 2, bands // 2)]
            if d == "backward":
                pairs = [(j, i) for i, j in pairs]
            t = traces[d]
            self.cells[d] = [(i, j, reference.gcs_cell(t.z, t.f, t.h, d, i, j, self.eps))
                             for i, j in pairs]

    def check(self, collected):
        missing, matrices = collected
        fails = [f"missing {p}" for p in missing]
        for d, (values, excluded, h_numel) in matrices.items():
            n = values.shape[0]
            rows, cols = np.indices((n, n))
            wrong_side = rows > cols if d == "forward" else rows < cols
            present = ~np.isnan(values)
            live = (excluded < h_numel)[np.newaxis, :]
            if (present != (~wrong_side & live)).any():
                fails.append(f"{d}: defined cells do not form the {d} triangle")
            for i, j, want in self.cells[d]:
                got = values[i, j]
                if not abs(got - want) <= GCS_RTOL * abs(want):
                    fails.append(f"{d} cell ({i + 1},{j + 1}) is {got}, "
                                 f"direct product of gates gives {want:.8g}")
        return fails


def _read_gcs_csv(path):
    """(values with NaN for absent cells, excluded per band, h_numel)."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                rows.append(line.rstrip("\n").split(","))
    values = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows[1:]])
    excluded = np.array([int(e) for e in meta["excluded"].split(",")])
    return values, excluded, int(meta["h_numel"])


WORKLOADS = {w.name: w for w in (Denoise, Train, Gcs)}
