"""Span tracing from outside the program, and the per-layer metrics.

A span is recorded around each call into a wrapped public function:
(name, start, end, parent span, op id, nominal FLOP, computed bytes). The
wrappers are installed where each name is looked up at call time (qru
imports the convolutions by name, training imports add_gaussian_iid by
name, the CLI imports from the modules inside each command), and they are
removed again when the traced op ends. The spans stay in memory until the
run writes them out.

Work counts come from array shapes only, so they repeat exactly and stay
comparable when a later core uses another algorithm:
  conv3d_forward    2 * c2 * k^3 FLOP per output element (N * c1 * voxels)
  tconv3d_forward   2 * c2 * k^3 FLOP per input element (the adjoint map)
  *_backward        twice the matching forward map (input and weight grads)
  qru_pool_forward  4 FLOP per element, qru_pool_backward 6
Bytes are the compulsory traffic: every array argument read plus every
array result written, at its own dtype.
"""

import contextlib
import time

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "flop", "bytes")

CONVS = ("conv3d_forward", "tconv3d_forward", "conv3d_backward", "tconv3d_backward")
POOLS = ("qru_pool_forward", "qru_pool_backward")
POOL_FLOP_PER_ELEMENT = {"qru_pool_forward": 4, "qru_pool_backward": 6}


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += _nbytes(v)
        elif hasattr(v, "weight") and hasattr(v, "bias"):
            total += _nbytes((v.weight, v.bias))
        elif hasattr(v, "z") and hasattr(v, "f") and hasattr(v, "h"):
            total += _nbytes((v.z, v.f, v.h))
    return total


def conv_flop(name, args, result):
    """Nominal FLOP of one convolution call, from shapes only."""
    x, weight = args[0], np.shape(args[1].weight)
    per_element = 2 * weight[1] * int(np.prod(weight[2:]))
    if name == "conv3d_forward":
        return per_element * np.size(result)
    if name == "conv3d_backward":
        return 2 * per_element * np.size(args[3])
    return (2 if name == "tconv3d_backward" else 1) * per_element * np.size(x)


def pool_flop(name, args, result):
    z = args[0].z if name == "qru_pool_backward" else args[0]
    return POOL_FLOP_PER_ELEMENT[name] * np.size(z)


class Tracer:
    """Records spans while active; wrappers are pass-through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self._patched = []

    def wrap(self, fn, name, work=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op, 0, 0]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if work is not None:
                span[5] = work(args, result)
                span[6] = _nbytes(args) + _nbytes((result,))
            return result

        return traced

    def patch(self, owner, attr, name, work=None, fn=None):
        """Replace owner.attr by a traced wrapper (of fn, if given) until
        unpatch_all(). An attribute the owner does not hold itself, such as
        a method seen through an instance, is deleted again on unpatch."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, self.wrap(fn or original, name, work))

    def unpatch_all(self):
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """One root span per op, with tracing on inside it."""
        span = ["bench.op", time.perf_counter(), 0.0, -1, op_id, 0, 0]
        self.op, self.active = op_id, True
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.active = False

    def instrument_model(self, model):
        """Wrap the model's forward/backward and each unit's as L01..Lnn."""
        self.patch(model, "forward", "network.forward")
        self.patch(model, "backward", "network.backward")
        for j, unit in enumerate(model.units):
            tag = f"network.L{j + 1:02d}"
            self.patch(unit, "forward", tag + ".fwd")
            self.patch(unit, "backward", tag + ".bwd")
        return model

    def install(self, hs):
        """Wrap every public function the workloads reach, where it is looked up."""
        for mod in (hs.tensors, hs.qru):
            for name in CONVS:
                self.patch(mod, name, "tensors." + name,
                           lambda args, result, n=name: conv_flop(n, args, result))
            for name in ("activate", "activate_grad"):
                self.patch(mod, name, "tensors." + name)
        for name in POOLS:
            self.patch(hs.qru, name, "qru." + name,
                       lambda args, result, n=name: pool_flop(n, args, result))
        for name in ("train", "adam_step", "mse_loss"):
            self.patch(hs.training, name, "training." + name)
        self.patch(hs.training, "add_gaussian_iid", "noise.add_gaussian_iid")
        self.patch(hs.noise, "add_gaussian_iid", "noise.add_gaussian_iid")
        self.patch(hs.gcs, "gcs_matrix", "gcs.gcs_matrix")
        for name in ("read_hsi", "write_hsi"):
            self.patch(hs.hsio, name, "hsio." + name)
        for name in ("psnr", "ssim", "sam"):
            self.patch(hs.metrics, name, "metrics." + name)
        self.patch(hs.cli, "main", "cli")

        load = hs.network.load_weights
        self.patch(hs.network, "load_weights", "network.load_weights",
                   fn=lambda *a, **k: self.instrument_model(load(*a, **k)))


# (name, unit, better) of every per-layer metric, in report order. Rates
# are nominal FLOP (or computed bytes) over the span time that did the
# work; roofline_frac divides by the float64 GEMM rate of the same run,
# because the convolution cores accumulate in float64.
def _per_layer_names():
    names = []
    for fn in CONVS:
        names += [(f"tensors.{fn}.calls", "count", "lower"),
                  (f"tensors.{fn}.self_ms", "ms", "lower"),
                  (f"tensors.{fn}.gflop", "GFLOP", "lower"),
                  (f"tensors.{fn}.gbyte", "GB", "lower"),
                  (f"tensors.{fn}.gflop_s", "GFLOP/s", "higher"),
                  (f"tensors.{fn}.roofline_frac", "ratio", "higher")]
    names += [("tensors.activate.self_ms", "ms", "lower"),
              ("tensors.activate_grad.self_ms", "ms", "lower")]
    for fn in POOLS:
        names += [(f"qru.{fn}.calls", "count", "lower"),
                  (f"qru.{fn}.self_ms", "ms", "lower"),
                  (f"qru.{fn}.gbyte", "GB", "lower"),
                  (f"qru.{fn}.gbyte_s", "GB/s", "higher"),
                  (f"qru.{fn}.flop_per_byte", "FLOP/B", "higher")]
    names += [("qru.unit.self_ms", "ms", "lower")]
    names += [(f"network.{fn}.self_ms", "ms", "lower")
              for fn in ("forward", "backward", "load_weights")]
    for j in range(1, 13):
        names += [(f"network.L{j:02d}.fwd_ms", "ms", "lower"),
                  (f"network.L{j:02d}.bwd_ms", "ms", "lower"),
                  (f"network.L{j:02d}.gflop", "GFLOP", "lower"),
                  (f"network.L{j:02d}.gflop_s", "GFLOP/s", "higher"),
                  (f"network.L{j:02d}.roofline_frac", "ratio", "higher")]
    names += [(f"training.{fn}.self_ms", "ms", "lower")
              for fn in ("train", "adam_step", "mse_loss")]
    names += [("noise.add_gaussian_iid.self_ms", "ms", "lower"),
              ("gcs.gcs_matrix.self_ms", "ms", "lower"),
              ("hsio.read_hsi.self_ms", "ms", "lower"),
              ("hsio.write_hsi.self_ms", "ms", "lower"),
              ("metrics.psnr.self_ms", "ms", "lower"),
              ("metrics.ssim.self_ms", "ms", "lower"),
              ("metrics.sam.self_ms", "ms", "lower"),
              ("cli.self_ms", "ms", "lower")]
    names += [(f"probe.gemm_{p}_gflop_s", "GFLOP/s", "higher")
              for p in ("f64", "f32", "f64_1t", "f32_1t")]
    names += [("trace.op_ms", "ms", "lower"),
              ("trace.untraced_op_ms", "ms", "lower"),
              ("trace.overhead_ms", "ms", "lower"),
              ("trace.span_cost_ms", "ms", "lower"),
              ("trace.glue_ms", "ms", "lower"),
              ("trace.uncovered_ms", "ms", "lower"),
              ("trace.spans", "count", "lower")]
    return names


PER_LAYER = _per_layer_names()


def span_cost_s(calls=20000):
    """Seconds of bookkeeping one traced call adds around the function."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    traced = tracer.wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer_metrics(spans, op, rates, untraced_s):
    """Every PER_LAYER metric for one traced op (absent layers read 0)."""
    idx = [i for i, s in enumerate(spans) if s[4] == op]
    dur = {i: spans[i][2] - spans[i][1] for i in idx}
    child = dict.fromkeys(idx, 0.0)
    for i in idx:
        if spans[i][3] >= 0:
            child[spans[i][3]] += dur[i]
    calls, self_ms, total_ms, flop, nbytes = {}, {}, {}, {}, {}
    layer_flop = {}
    for i in idx:
        name = spans[i][0]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (dur[i] - child[i])
        total_ms[name] = total_ms.get(name, 0.0) + 1e3 * dur[i]
        flop[name] = flop.get(name, 0) + spans[i][5]
        nbytes[name] = nbytes.get(name, 0) + spans[i][6]
        if spans[i][5]:
            p = spans[i][3]
            while p >= 0 and not spans[p][0].startswith("network.L"):
                p = spans[p][3]
            if p >= 0:
                layer = spans[p][0].rsplit(".", 1)[0]
                layer_flop[layer] = layer_flop.get(layer, 0) + spans[i][5]

    m = {}
    for fn in CONVS:
        key = "tensors." + fn
        ms = self_ms.get(key, 0.0)
        gf_s = _ratio(flop.get(key, 0) / 1e9, ms / 1e3)
        m.update({f"{key}.calls": calls.get(key, 0), f"{key}.self_ms": ms,
                  f"{key}.gflop": flop.get(key, 0) / 1e9, f"{key}.gbyte": nbytes.get(key, 0) / 1e9,
                  f"{key}.gflop_s": gf_s, f"{key}.roofline_frac": _ratio(gf_s, rates["f64"])})
    for fn in ("activate", "activate_grad"):
        m[f"tensors.{fn}.self_ms"] = self_ms.get("tensors." + fn, 0.0)
    for fn in POOLS:
        key = "qru." + fn
        ms = self_ms.get(key, 0.0)
        m.update({f"{key}.calls": calls.get(key, 0), f"{key}.self_ms": ms,
                  f"{key}.gbyte": nbytes.get(key, 0) / 1e9,
                  f"{key}.gbyte_s": _ratio(nbytes.get(key, 0) / 1e9, ms / 1e3),
                  f"{key}.flop_per_byte": _ratio(flop.get(key, 0), nbytes.get(key, 0))})
    m["qru.unit.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("network.L"))
    for fn in ("forward", "backward", "load_weights"):
        m[f"network.{fn}.self_ms"] = self_ms.get("network." + fn, 0.0)
    for j in range(1, 13):
        key = f"network.L{j:02d}"
        fwd, bwd = total_ms.get(key + ".fwd", 0.0), total_ms.get(key + ".bwd", 0.0)
        gf = layer_flop.get(key, 0) / 1e9
        gf_s = _ratio(gf, (fwd + bwd) / 1e3)
        m.update({f"{key}.fwd_ms": fwd, f"{key}.bwd_ms": bwd, f"{key}.gflop": gf,
                  f"{key}.gflop_s": gf_s, f"{key}.roofline_frac": _ratio(gf_s, rates["f64"])})
    for key in ("training.train", "training.adam_step", "training.mse_loss",
                "noise.add_gaussian_iid", "gcs.gcs_matrix", "hsio.read_hsi",
                "hsio.write_hsi", "metrics.psnr", "metrics.ssim", "metrics.sam"):
        m[key + ".self_ms"] = self_ms.get(key, 0.0)
    m["cli.self_ms"] = self_ms.get("cli", 0.0)
    for p in ("f64", "f32", "f64_1t", "f32_1t"):
        m[f"probe.gemm_{p}_gflop_s"] = rates[p]
    op_ms = total_ms.get("bench.op", 0.0)
    m.update({"trace.op_ms": op_ms, "trace.untraced_op_ms": 1e3 * untraced_s,
              "trace.overhead_ms": op_ms - 1e3 * untraced_s,
              "trace.span_cost_ms": len(idx) * span_cost_s() * 1e3,
              "trace.glue_ms": self_ms.get("bench.glue", 0.0),
              "trace.uncovered_ms": self_ms.get("bench.op", 0.0),
              "trace.spans": len(idx)})
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}
