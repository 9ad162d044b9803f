"""Command-line surface binding the library into reproducible workflows.

One executable with subcommands: train, denoise, add-noise, eval, gcs,
gradcheck, gen-synthetic.  Every command is deterministic given its flags
and seeds; artifacts embed the resolved settings (text artifacts as leading
comment lines, binary artifacts via a .meta sidecar) and never carry
timestamps.  `_write_outputs` writes every file a command makes, so that
header is written in one place, and removes them all when one fails. Only
train's weights and optimizer states, its result, stay if its log fails.
"""

import argparse
import os
import sys

import numpy as np

from . import gcs, hsio, metrics, network, noise, qru, thread_setting, training


class _BadValue(ValueError, argparse.ArgumentTypeError):
    """A value a caster refuses: argparse prints it after the flag,
    parse_config_file after the file, line and key."""


def _bool_key(text):
    lowered = str(text).strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise _BadValue(f"expected on/off, got {text!r}")


def _choice_key(*options):
    def cast(text):
        if text not in options:
            raise _BadValue(f"expected one of {options}, got {text!r}")
        return text
    return cast


def _non_negative_int(text):
    if not str(text).strip().isdecimal():
        raise _BadValue(f"expected a non-negative integer, got {text!r}")
    return int(text)


# The documented RunConfig key set: key -> (caster, default). CLI flags
# override file keys; file keys override these defaults.
CONFIG_KEYS = {
    "preset": (_choice_key("desk", "benchmark"), "desk"),
    "kind": (_choice_key(*qru.VARIANT_KINDS), "qru3d"),
    "schedule": (_choice_key(*network.SCHEDULE_MODES), "alternating"),
    "width-multiplier": (float, 1.0),
    "width": (int, 8),
    "layers": (int, 3),
    "residual": (_bool_key, True),
    "seed": (_non_negative_int, 0),
    "epochs": (int, 100),
    "policy": (_choice_key(*training.POLICIES), "schedule"),
    "lr": (float, 1e-3),
    "batch-size": (int, 16),
    "sigma": (float, 50.0),
    "patch-size": (int, 64),
    "patch-stride": (int, 0),
    "augment": (_choice_key(*hsio.AUGMENTS), "none"),
}


def parse_config_file(path):
    """Read `key = value` lines; unknown keys are rejected outright."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in CONFIG_KEYS:
                known = ", ".join(sorted(CONFIG_KEYS))
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r} (known: {known})")
            caster = CONFIG_KEYS[key][0]
            try:
                values[key] = caster(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_settings(args):
    """Defaults, overridden by the config file, overridden by flags."""
    settings = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            settings[key] = flag
    return settings


def _write_outputs(command, settings, files):
    """Write a command's files in order, path -> content: a cube through
    hsio.write_hsi, bytes as they are, text after `# command:` and the
    settings as sorted `# key: value` lines. If one cannot be written, the
    files written before it are removed: a command leaves all or none of
    those (train passes only its log, so its weights and states stay)."""
    lines = [f"# command: {command}"] + [f"# {key}: {settings[key]}" for key in sorted(settings)]
    header = "\n".join(lines) + "\n"
    written = []
    try:
        for path, content in files.items():
            if isinstance(content, np.ndarray):
                hsio.write_hsi(path, content)
            else:
                with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
                    fh.write(content if isinstance(content, bytes) else header + content)
            written.append(path)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def cmd_gen_synthetic(args):
    cube = hsio.gen_synthetic(args.height, args.width, args.bands, args.seed)
    _write_outputs("gen-synthetic", {
        "height": args.height, "width": args.width, "bands": args.bands,
        "seed": args.seed, "out": args.out}, {args.out: cube, args.out + ".meta": ""})
    print(f"wrote {args.out} ({args.height}x{args.width}x{args.bands})")
    return 0


def cmd_add_noise(args):
    cube = hsio.read_hsi(args.input)
    meta = {"input": args.input, "output": args.output, "seed": args.seed}
    if args.case is not None:
        noisy, report = noise.synthesize_case(cube, args.case, args.seed)
        meta["case"], regime = args.case, f"case {args.case}"
    else:
        noisy = noise.add_gaussian_iid(cube, args.iid_sigma, args.seed)
        report = noise.CorruptionReport("iid-gaussian")
        report.sigma_per_band = [float(args.iid_sigma)] * cube.shape[2]
        meta["iid-sigma"], regime = args.iid_sigma, f"iid sigma {args.iid_sigma:g}"
    report_path = args.report or args.output + ".report.txt"
    _write_outputs("add-noise", meta, {args.output: noisy, report_path: report.to_text()})
    print(f"wrote {args.output} ({regime}); report in {report_path}")
    return 0


def cmd_denoise(args):
    model = network.load_weights(args.weights)
    cube = hsio.read_hsi(args.input)
    _write_outputs("denoise", {
        "weights": args.weights, "input": args.input, "output": args.output},
        {args.output: model.denoise(cube), args.output + ".meta": ""})
    print(f"wrote {args.output} ({'x'.join(map(str, cube.shape))})")
    return 0


def cmd_eval(args):
    clean = hsio.read_hsi(args.clean).astype("float64")
    cubes = []
    for path in args.inputs:
        cube = hsio.read_hsi(path).astype("float64")
        if cube.shape != clean.shape:
            raise ValueError(
                f"{path} shape {cube.shape} does not match clean {clean.shape}")
        cubes.append((path, cube))
    height, width = clean.shape[:2]
    window = metrics.SSIM_WINDOW
    if min(height, width) < window:
        raise ValueError(f"{args.clean}: spatial extent {height}x{width} is below the "
                         f"{window}x{window} minimum of the SSIM window")
    header = ["file", "mpsnr", "mssim", "sam"]
    header += [f"psnr_b{j + 1}" for j in range(clean.shape[2])]
    lines = [",".join(header)]
    for path, cube in cubes:
        per_band = metrics.psnr_per_band(cube, clean)
        row = [path, f"{per_band.mean():.6f}", f"{metrics.ssim(cube, clean):.6f}",
               f"{metrics.sam(cube, clean):.6f}"] + [f"{v:.6f}" for v in per_band]
        lines.append(",".join(row))
        print(f"{path}: mpsnr {row[1]} mssim {row[2]} sam {row[3]}")
    _write_outputs("eval", {"clean": args.clean}, {args.out: "\n".join(lines) + "\n"})
    print(f"wrote {args.out}")
    return 0


def _layer_index(text, n_layers):
    if text == "first":
        return 0
    if text == "last":
        return n_layers - 1
    try:
        number = int(text)
    except ValueError:
        raise ValueError(f"--layer takes 'first', 'last', or a 1-based index, got {text!r}")
    if number < 1 or number > n_layers:
        raise ValueError(f"--layer {number} outside 1..{n_layers}")
    return number - 1


def cmd_gcs(args):
    if os.path.basename(args.out_prefix) in ("", os.curdir, os.pardir):
        raise ValueError(f"--out-prefix {args.out_prefix!r} names a directory, not a file prefix")
    model = network.load_weights(args.weights)
    layer = _layer_index(args.layer, len(model.units))
    matrices = gcs.layer_matrices(model, hsio.read_hsi(args.input), layer, args.eps)
    parent = os.path.dirname(args.out_prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    meta = {"weights": args.weights, "input": args.input,
            "layer": args.layer, "eps": args.eps}
    # One dense view of the direction matrices: each cell's larger defined value.
    overlay = np.fmax.reduce([m.values for m in matrices])
    counts = gcs.relative_bands(overlay, matrices[0].h_numel)
    bodies = {f"{m.direction}.csv": gcs.gcs_to_csv(m) for m in matrices}
    bodies["relative.csv"] = "band,total,forward,backward\n" + "".join(
        f"{j},{total},{fwd},{bwd}\n" for j, (total, fwd, bwd) in enumerate(zip(*counts), 1))
    bodies["meta"] = ""
    bodies["pgm"] = gcs.values_to_pgm(overlay)
    _write_outputs("gcs", meta, {f"{args.out_prefix}.{suffix}": body
                                 for suffix, body in bodies.items()})
    print("wrote " + " ".join(f"{args.out_prefix}.{suffix}" for suffix in bodies))
    return 0


# The gradcheck suite's units: (name, kind, cin, cout, stride, direction,
# transposed, input shape), the middle five VariantFactory.build's arguments.
# Unit i draws its weights from [seed, i] and its input from [seed, 100 + i].
_GRADCHECK_UNITS = (
    ("conv3d unit", "c3d", 2, 3, (1, 1, 1), "forward", False, (1, 2, 4, 4, 3)),
    ("conv3d stride-2 unit", "c3d", 2, 2, (2, 2, 1), "forward", False, (1, 2, 4, 4, 3)),
    ("tconv3d unit", "c3d", 2, 2, (2, 2, 1), "forward", True, (1, 2, 2, 2, 3)),
    ("qru3d forward unit", "qru3d", 1, 2, (1, 1, 1), "forward", False, (1, 1, 4, 4, 3)),
    ("qru3d backward unit", "qru3d", 1, 2, (1, 1, 1), "backward", False, (1, 1, 4, 4, 3)),
    ("qru3d bidirectional unit", "qru3d", 1, 2, (1, 1, 1), "bidirectional", False,
     (1, 1, 4, 4, 3)),
    ("qru2d forward unit", "qru2d", 1, 2, (1, 1, 1), "forward", False, (1, 1, 4, 4, 3)),
)


def _gradcheck_cases(seed):
    def rng(tag):
        return np.random.default_rng([seed, tag])

    def sample(shape, tag):
        return (0.5 * rng(tag).standard_normal(shape)).astype(np.float32)

    cases = []
    for i, (name, kind, *build_args, shape) in enumerate(_GRADCHECK_UNITS):
        unit = qru.make_variant(kind).build(rng(i), *build_args)
        cases.append((name, unit, sample(shape, 100 + i)))
    for name, kind, tag in (("reduced network", "qru3d", 107), ("reduced c3d network", "c3d", 108)):
        net = network.build_network(network.desk_config(width=3, n_layers=3, kind=kind), seed)
        cases.append((name, net, sample((1, 1, 5, 5, 4), tag)))
    return cases


def cmd_gradcheck(args):
    failures = 0
    for name, target, x in _gradcheck_cases(args.seed):
        report = training.grad_check(target, x, tolerance=args.tolerance, eps=args.eps)
        status = "PASS" if report.passed else "FAIL"
        print(f"== {name}: {status} (max rel err {report.max_rel_err:.3e})")
        if args.verbose or not report.passed:
            print(report.format())
        if not report.passed:
            failures += 1
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


def _load_patch_arrays(paths, size, stride, augment):
    arrays = []
    bands = None
    for path in paths:
        cube = hsio.read_hsi(path)
        if bands is None:
            bands = cube.shape[2]
        elif cube.shape[2] != bands:
            raise ValueError(
                f"{path} has {cube.shape[2]} bands, earlier cubes had {bands}")
        if min(cube.shape[:2]) < size:
            raise ValueError(f"{path} is {cube.shape[0]}x{cube.shape[1]}, smaller than "
                             f"--patch-size {size}")
        for patch in hsio.extract_patches(cube, spatial=size, stride=stride, augment=augment):
            arrays.append(np.ascontiguousarray(patch.data[np.newaxis],
                                               dtype=np.float32))
    return arrays


def cmd_train(args):
    if args.resume_state is not None and args.resume_weights is None:
        raise ValueError("--resume-state needs --resume-weights, the weights it trained")
    settings = resolve_settings(args)
    meta = {}

    def read(key):
        """A setting the run uses: the log's header records each one read."""
        meta[key] = settings[key]
        return settings[key]

    size = read("patch-size")
    stride = settings["patch-stride"] or size
    patches = _load_patch_arrays(args.data, size, stride, read("augment"))
    val_patches = _load_patch_arrays(args.val, size, size, "none") if args.val else None

    if args.resume_weights is not None:
        model = network.load_weights(args.resume_weights)
    else:
        shared = dict(kind=read("kind"), schedule=read("schedule"),
                      global_residual=read("residual"))
        if read("preset") == "benchmark":
            config = network.standard_config(width_multiplier=read("width-multiplier"), **shared)
        else:
            config = network.desk_config(width=read("width"), n_layers=read("layers"), **shared)
        model = network.build_network(config, read("seed"))
    req = model.config.downsample_factor()
    if size % req[0] or size % req[1]:
        raise ValueError(f"--patch-size {size} is not a multiple of "
                         f"{req[0]}x{req[1]}, the network's H x W downsampling factor")

    state = None
    start_epoch = 0
    if args.resume_state is not None:
        state = training.load_optimizer_state(args.resume_state)
        state.check_params(model.param_arrays())
        start_epoch = state.epoch
    policy = read("policy")
    # The curriculum sets lr, batch and sigma, so only --policy fixed reads them.
    fixed = read if policy == "fixed" else settings.get
    options = training.TrainOptions(
        seed=read("seed"), epochs=read("epochs"), start_epoch=start_epoch,
        policy=policy, lr=fixed("lr"), batch_size=fixed("batch-size"),
        sigma=fixed("sigma"), val_patches=val_patches, checkpoint_dir=args.out_dir,
        max_steps_per_epoch=args.max_steps_per_epoch)
    os.makedirs(args.out_dir, exist_ok=True)
    state, log = training.train(model, patches, options, state=state, log_fn=print)
    network.save_weights(os.path.join(args.out_dir, "weights_final.q3dw"), model)
    training.save_optimizer_state(os.path.join(args.out_dir, "optim_final.q3da"), state)
    meta["patch-stride"] = stride
    for key in ("data", "val", "max-steps-per-epoch", "resume-weights", "resume-state"):
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            meta[key] = " ".join(value) if isinstance(value, list) else value
    log_path = os.path.join(args.out_dir, "trainlog.csv")
    _write_outputs("train", meta, {log_path: log.to_csv()})
    print(f"wrote {log_path} and final weights in {args.out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsdenoise",
        description="Hyperspectral denoising toolkit: train, apply, and "
                    "inspect band-recurrent denoising networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a seeded synthetic cube")
    p.add_argument("--out", required=True)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--bands", type=int, default=31)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("add-noise", help="corrupt a cube and write a report")
    p.add_argument("input")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", type=int, choices=noise.CASES)
    group.add_argument("--iid-sigma", type=float)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_add_noise)

    p = sub.add_parser("denoise", help="apply trained weights to a cube")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="metrics of cubes against a clean cube")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--clean", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gcs", help="band-contribution analysis of one layer")
    p.add_argument("input")
    p.add_argument("--weights", required=True)
    p.add_argument("--layer", default="first",
                   help="'first', 'last', or a 1-based layer index")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=cmd_gcs)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--data", nargs="+", required=True, help="training cubes (.hsi)")
    p.add_argument("--val", nargs="+", help="validation cubes (.hsi)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume-weights")
    p.add_argument("--resume-state")
    p.add_argument("--max-steps-per-epoch", type=int)
    for key, (caster, _) in CONFIG_KEYS.items():
        p.add_argument(f"--{key}", type=caster, default=None, dest=key.replace("-", "_"))
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None):
    try:
        thread_setting()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
