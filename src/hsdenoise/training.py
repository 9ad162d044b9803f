"""Training loop, optimizer, epoch schedule, and gradient checking.

The optimizer keeps its moment vectors in float64 even when the model
parameters are float32; update arithmetic happens in float64 and only the
final step is cast back to the parameter dtype.  Together with the seeded
per-epoch RNG streams this makes a run reproducible bit for bit, including
across an interrupt/resume boundary.

Optimizer state sidecar format (Q3DA), little-endian throughout:

  magic     4 bytes  b"Q3DA"
  version   u16      1
  step      u64      number of optimizer steps taken so far
  epoch     u32      number of completed epochs
  n_arrays  u32      parameter array count
  beta1     f64
  beta2     f64
  eps       f64
  then per parameter array:
    ndim    u32
    dims    ndim x u32
    m       float64 raw bytes, C order
    v       float64 raw bytes, C order
"""

import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .hsio import BlobReader
from .metrics import psnr
from .network import WeightsError, save_weights
from .noise import add_gaussian_iid, synthesize_case
from .tensors import ConfigError, ShapeError


def mse_loss(pred, target):
    """Mean squared error and its gradient with respect to `pred`."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad.astype(pred.dtype)


class AdamState:
    """First/second moment estimates, kept in float64 regardless of the
    parameter dtype.  `epoch` counts completed epochs so a resumed run can
    pick up exactly where the interrupted one stopped."""

    __slots__ = ("m", "v", "step", "epoch", "beta1", "beta2", "eps")

    def __init__(self, params):
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in params]
        self.step = 0
        self.epoch = 0
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8

    def check_params(self, params):
        """Raise ConfigError unless the moments are shaped like params."""
        if len(self.m) != len(params) or any(
                m.shape != p.shape for m, p in zip(self.m, params)):
            raise ConfigError("optimizer state does not match this model")


def adam_step(state, params, grads, lr):
    """One Adam update, in place on `params`.

    Moments and the bias-corrected update are computed in float64; the final
    delta is cast to each parameter's dtype.
    """
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ConfigError("optimizer state does not match parameter list")
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        g64 = g.astype(np.float64)
        m *= b1
        m += (1.0 - b1) * g64
        v *= b2
        v += (1.0 - b2) * (g64 * g64)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p -= update.astype(p.dtype)


def save_optimizer_state(path, state):
    """Write an Adam state sidecar (format documented in the module header)."""
    with open(path, "wb") as fh:
        fh.write(b"Q3DA")
        fh.write(struct.pack("<HQII", 1, state.step, state.epoch, len(state.m)))
        fh.write(struct.pack("<ddd", state.beta1, state.beta2, state.eps))
        for m, v in zip(state.m, state.v):
            fh.write(struct.pack("<I", m.ndim))
            fh.write(struct.pack(f"<{m.ndim}I", *m.shape))
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_optimizer_state(path):
    """Read an Adam state sidecar back into an AdamState, betas and eps too;
    a state no Adam step can run from (see the checks) is refused."""
    reader = BlobReader.open(path, WeightsError, b"Q3DA", 1)
    step, epoch, n_arrays = reader.unpack("<QII", "header")
    beta1, beta2, eps = reader.unpack("<ddd", "hyperparameters")
    for name, value, ok in (("beta1", beta1, 0 <= beta1 < 1), ("beta2", beta2, 0 <= beta2 < 1),
                            ("eps", eps, 0 < eps < np.inf)):
        if not ok:
            raise WeightsError(f"{name} is {value}: betas must be in [0, 1), eps finite and > 0")
    state = AdamState([])
    state.step, state.epoch = step, epoch
    state.beta1, state.beta2, state.eps = beta1, beta2, eps
    for idx in range(n_arrays):
        (ndim,) = reader.unpack("<I", f"array {idx} ndim")
        dims = reader.unpack(f"<{ndim}I", f"array {idx} dims")
        m, v = (reader.array("<f8", dims, f"array {idx} {part}") for part in "mv")
        if v.size and v.min() < 0:
            reader.refuse(f"array {idx} v", v < 0, "negative values")
        state.m.append(m)
        state.v.append(v)
    reader.finish()
    return state


@dataclass(slots=True, frozen=True, eq=False, repr=False)
class StageSpec:
    """Settings for one epoch: learning rate, batch size, noise regime."""

    stage: int
    lr: float
    batch_size: int
    regime: str
    sigma: float | None = None
    sigma_range: tuple | None = None
    cases: tuple | None = None


SCHEDULE_EPOCHS = 100
POLICIES = ("schedule", "fixed")  # the curriculum, or constant lr, batch and sigma

# Each row holds from its first epoch to the next row's: (first epoch, its StageSpec).
_CURRICULUM = (
    (0, StageSpec(1, 1e-3, 16, "fixed", sigma=50.0)),
    (20, StageSpec(1, 1e-4, 16, "fixed", sigma=50.0)),
    (30, StageSpec(2, 1e-3, 64, "blind", sigma_range=(30.0, 70.0))),
    (35, StageSpec(2, 1e-4, 64, "blind", sigma_range=(30.0, 70.0))),
    (45, StageSpec(2, 1e-5, 64, "blind", sigma_range=(30.0, 70.0))),
    (50, StageSpec(3, 1e-3, 64, "mixture", cases=(1, 2, 3, 4))),
    (85, StageSpec(3, 1e-4, 64, "mixture", cases=(1, 2, 3, 4))),
    (95, StageSpec(3, 1e-5, 64, "mixture", cases=(1, 2, 3, 4))),
)
CHECKPOINT_EPOCHS = (50, 100)  # ends of stage 2 and of the curriculum


def schedule_for_epoch(epoch):
    """Stage settings for a zero-based epoch of the 100-epoch curriculum: the
    StageSpec of the last `_CURRICULUM` row at or before `epoch`."""
    if not isinstance(epoch, (int, np.integer)) or isinstance(epoch, bool):
        raise ConfigError(f"epoch must be an integer, got {epoch!r}")
    if epoch < 0 or epoch >= SCHEDULE_EPOCHS:
        raise ConfigError(f"epoch {epoch} outside the schedule range [0, {SCHEDULE_EPOCHS})")
    for first, stage in reversed(_CURRICULUM):
        if epoch >= first:
            return stage


@dataclass(slots=True, eq=False, repr=False)
class TrainOptions:
    """Knobs for `train`.  policy "schedule" follows the staged curriculum;
    policy "fixed" uses a constant lr/batch/sigma (handy for small runs)."""

    seed: int = 0
    epochs: int = 100
    start_epoch: int = 0
    policy: str = "schedule"
    lr: float = 1e-3
    batch_size: int = 16
    sigma: float = 50.0
    val_patches: list | None = None
    checkpoint_dir: str | None = None
    max_steps_per_epoch: int | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown training policy {self.policy!r}")
        if self.epochs <= 0:
            raise ConfigError("epochs must be positive")
        if self.policy == "schedule" and self.epochs > SCHEDULE_EPOCHS:
            raise ConfigError(f"{self.epochs} epochs run past the {SCHEDULE_EPOCHS}-epoch "
                              f"schedule; use policy fixed for longer runs")
        if self.start_epoch < 0 or self.start_epoch >= self.epochs:
            raise ConfigError(f"start epoch {self.start_epoch} outside [0, {self.epochs})")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.max_steps_per_epoch is not None and self.max_steps_per_epoch < 1:
            raise ConfigError(
                f"max steps per epoch must be at least 1, got {self.max_steps_per_epoch}")


class TrainLog:
    """Per-epoch records.  The CSV rendering deliberately omits wall time so
    two runs with the same seed produce identical artifacts; timing is
    reported on stdout only."""

    def __init__(self):
        self.rows = []

    def to_csv(self):
        lines = ["epoch,stage,lr,batch_size,loss,val_psnr\n"]
        for row in self.rows:
            val = "" if row["val_psnr"] is None else f"{row['val_psnr']:.6f}"
            lines.append(f"{row['epoch']},{row['stage']},{row['lr']:.8g},"
                         f"{row['batch_size']},{row['loss']:.10e},{val}\n")
        return "".join(lines)


def _corrupt(clean, stage, seed_path):
    """Noisy version of one clean patch (C, H, W, B) under the stage regime.

    The seed path pins the corruption to (run seed, epoch, sample slot), so
    the same patch in the same slot of the same epoch is always corrupted
    identically, independent of batch boundaries.
    """
    cube = np.ascontiguousarray(clean[0])
    if stage.regime == "fixed":
        noisy = add_gaussian_iid(cube, stage.sigma, seed_path)
    else:
        rng = np.random.default_rng(list(seed_path) + [0])
        if stage.regime == "blind":
            sigma = float(rng.uniform(*stage.sigma_range))
            noisy = add_gaussian_iid(cube, sigma, list(seed_path) + [1])
        else:
            case = int(stage.cases[rng.integers(0, len(stage.cases))])
            noisy, _ = synthesize_case(cube, case, list(seed_path) + [1])
    return noisy[np.newaxis]


def _val_psnr(model, val_pairs):
    return float(np.mean([psnr(model.denoise(noisy[0]), clean[0]) for noisy, clean in val_pairs]))


def _build_val_pairs(val_patches, seed):
    """Fix the validation corruption once (sigma 50 iid) so the metric is
    comparable across epochs and runs."""
    pairs = []
    for i, clean in enumerate(val_patches):
        noisy = add_gaussian_iid(clean[0], 50.0, [seed, 999_983, i])
        pairs.append((noisy[np.newaxis], clean))
    return pairs


def train(model, patches, options, state=None, log_fn=None):
    """Run the training loop over a list of clean patches (each (1, H, W, B)).

    Returns (state, log).  Pass back the returned state (or one loaded from a
    Q3DA sidecar) with options.start_epoch set to resume; a resumed run
    reproduces the uninterrupted one bit for bit because every random choice
    is keyed by (seed, epoch) rather than by any carried-over RNG state.
    """
    if not patches:
        raise ConfigError("no training patches")
    params = model.param_arrays()
    if state is None:
        state = AdamState(params)
    else:
        state.check_params(params)
    log = TrainLog()
    say = log_fn if log_fn is not None else (lambda s: None)
    val_pairs = _build_val_pairs(options.val_patches, options.seed) \
        if options.val_patches else None
    fixed = StageSpec(0, options.lr, options.batch_size, "fixed", sigma=options.sigma)

    for epoch in range(options.start_epoch, options.epochs):
        stage = schedule_for_epoch(epoch) if options.policy == "schedule" else fixed
        t0 = time.perf_counter()
        rng = np.random.default_rng([options.seed, epoch])
        order = rng.permutation(len(patches))
        losses = []
        for start in range(0, len(order), stage.batch_size)[:options.max_steps_per_epoch]:
            slots = order[start:start + stage.batch_size]
            clean = np.stack([patches[i] for i in slots])
            noisy = np.stack([
                _corrupt(patches[i], stage, [options.seed, epoch, int(slot)])
                for slot, i in zip(range(start, start + len(slots)), slots)])
            out, traces = model.forward(noisy, keep_traces=True)
            loss, grad = mse_loss(out, clean)
            _, grads = model.backward(traces, grad, input_grad=False)
            adam_step(state, params, grads, stage.lr)
            losses.append(loss)
        state.epoch = epoch + 1
        seconds = time.perf_counter() - t0
        mean_loss = float(np.mean(losses))
        val = _val_psnr(model, val_pairs) if val_pairs else None
        log.rows.append({"epoch": epoch, "stage": stage.stage, "lr": stage.lr,
                         "batch_size": stage.batch_size, "loss": mean_loss,
                         "val_psnr": val, "seconds": seconds})
        val_txt = "" if val is None else f"  val_psnr {val:.2f}"
        say(f"epoch {epoch:3d}  stage {stage.stage}  lr {stage.lr:g}  "
            f"loss {mean_loss:.4e}{val_txt}  ({seconds:.1f}s)")
        if options.checkpoint_dir and (epoch + 1) in CHECKPOINT_EPOCHS:
            os.makedirs(options.checkpoint_dir, exist_ok=True)
            tag = f"epoch{epoch + 1:03d}"
            save_weights(f"{options.checkpoint_dir}/weights_{tag}.q3dw", model)
            save_optimizer_state(f"{options.checkpoint_dir}/optim_{tag}.q3da", state)
    return state, log


@dataclass(slots=True, eq=False, repr=False)
class GradCheckReport:
    """Per-parameter-group comparison of analytic vs numeric gradients."""

    rows: list
    tolerance: float

    @property
    def max_rel_err(self):
        """Largest relative error over the groups; NaN if any group's is."""
        return float(np.max([r[1] for r in self.rows])) if self.rows else 0.0

    @property
    def passed(self):
        return self.max_rel_err <= self.tolerance

    def format(self):
        width = max(len(r[0]) for r in self.rows) if self.rows else 4
        lines = [f"{'group'.ljust(width)}  rel_err     verdict"]
        for name, err in self.rows:
            verdict = "ok" if err <= self.tolerance else "FAIL"
            lines.append(f"{name.ljust(width)}  {err:.4e}  {verdict}")
        lines.append(f"max {self.max_rel_err:.4e}  tolerance {self.tolerance:.1e}  "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def grad_check(target, x, tolerance=1e-3, eps=1e-3):
    """Central-difference check of every parameter gradient of a unit or model.

    The target is shadowed in float64 before anything is measured; the check
    perturbs each float64 parameter by +/-eps and compares the resulting loss
    slope against the analytic backward pass, reporting the max relative
    error per parameter group (relative to max(|analytic|, |numeric|, 1e-6)).
    `target` is a Model or any unit exposing forward/backward/param_arrays.
    A NaN error (a non-finite gradient or loss) is that group's worst and
    fails it. tolerance and eps must be positive and finite: an infinite
    tolerance would pass every check, and a zero eps divides by zero.
    """
    for name, value in (("tolerance", tolerance), ("eps", eps)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    shadow = target.astype(np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    params = shadow.param_arrays()
    names = shadow.param_names()

    # Positional flag: units and models agree on the argument order.
    out, traces = shadow.forward(x64, True)
    gy = np.ones_like(out) / out.size

    def loss():
        y, _ = shadow.forward(x64)
        return float(np.sum(y * gy))

    _, analytic = shadow.backward(traces, gy)
    rows = []
    for name, p, g in zip(names, params, analytic):
        flat_p = p.reshape(-1)
        flat_g = np.asarray(g, dtype=np.float64).reshape(-1)
        errs = np.zeros(flat_p.size)
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + eps
            hi = loss()
            flat_p[i] = keep - eps
            lo = loss()
            flat_p[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(flat_g[i]), abs(numeric), 1e-6)
            errs[i] = abs(flat_g[i] - numeric) / denom
        rows.append((name, float(errs.max(initial=0.0))))
    return GradCheckReport(rows, tolerance)
