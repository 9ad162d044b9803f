"""Tests for the command-line surface.

Most tests drive main() in-process for speed; determinism checks run real
subprocesses so they cover interpreter startup and environment handling.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from reference_impls import heat_map_pixels, relative_counts
from hsdenoise.cli import main, parse_config_file, resolve_settings
from hsdenoise.gcs import gcs_matrix, gcs_to_csv, pooling_traces
from hsdenoise.hsio import HsiError, gen_synthetic, read_hsi, write_hsi
from hsdenoise.network import (Model, NetworkConfig, WeightsError, build_network, desk_config,
                               load_weights, save_weights, standard_config)
from hsdenoise.noise import synthesize_case
from hsdenoise.qru import make_variant
from hsdenoise.tensors import ConfigError
from hsdenoise.training import AdamState, load_optimizer_state, save_optimizer_state

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_python(*args, cwd=None, env=None):
    """A fresh interpreter on this checkout's package, with `env` (default:
    this process's environment) and this checkout's absolute src/ put first
    on PYTHONPATH, so neither an inherited PYTHONPATH nor the working
    directory picks the package."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True)


def make_cube(tmp_path, name, shape=(16, 16, 4), seed=0, lo=0.2, hi=0.8):
    rng = np.random.default_rng(seed)
    cube = (lo + (hi - lo) * rng.random(shape)).astype(np.float32)
    path = str(tmp_path / name)
    write_hsi(path, cube)
    return path, cube


def make_weights(tmp_path, width=4, n_layers=3, seed=1):
    model = build_network(desk_config(width=width, n_layers=n_layers), seed=seed)
    path = str(tmp_path / "w.q3dw")
    save_weights(path, model)
    return path


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        """File keys beat defaults; flags beat file keys."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nlr = 0.01  # comment\n\n# full-line comment\n")
        values = parse_config_file(str(cfg))
        assert values == {"seed": 7, "lr": 0.01}

        class Args:
            config = str(cfg)
            seed = 9
        args = Args()
        for key in ("lr", "epochs"):
            setattr(args, key.replace("-", "_"), None)
        settings = resolve_settings(args)
        assert settings["seed"] == 9
        assert settings["lr"] == 0.01
        assert settings["epochs"] == 100

    def test_unknown_key_rejected(self, tmp_path):
        """Unknown config keys fail loudly with the file location."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown config key 'momentum'"):
            parse_config_file(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        """Type errors in values name the key and line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        with pytest.raises(ValueError, match="bad value for epochs"):
            parse_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        """Lines without '=' are refused."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(str(cfg))


class TestGenSynthetic:
    def test_writes_cube_and_meta(self, tmp_path, capsys):
        """The cube lands on disk with a settings sidecar."""
        out = str(tmp_path / "c.hsi")
        code = run_cli("gen-synthetic", "--out", out, "--height", 12,
                       "--width", 10, "--bands", 5, "--seed", 3)
        assert code == 0
        cube = read_hsi(out)
        assert cube.shape == (12, 10, 5)
        meta = open(out + ".meta").read()
        assert "# command: gen-synthetic" in meta
        assert "# seed: 3" in meta


class TestAddNoise:
    def test_case_output_and_report(self, tmp_path):
        """Case corruption writes the cube and a 1-based band report."""
        src, cube = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 6), seed=1)
        out = str(tmp_path / "noisy.hsi")
        code = run_cli("add-noise", src, out, "--case", 2, "--seed", 5)
        assert code == 0
        noisy = read_hsi(out)
        assert noisy.shape == cube.shape
        assert not np.array_equal(noisy, cube)
        report = open(out + ".report.txt").read()
        assert "# command: add-noise" in report
        assert "# seed: 5" in report
        assert "regime:" in report

    def test_iid_mode(self, tmp_path):
        """Plain gaussian mode reports its sigma."""
        src, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=2)
        out = str(tmp_path / "noisy.hsi")
        assert run_cli("add-noise", src, out, "--iid-sigma", 25, "--seed", 1) == 0
        report = open(out + ".report.txt").read()
        assert "iid-gaussian" in report

    @pytest.mark.parametrize("flags, given, absent, regime", [
        (("--case", 5), "# case: 5\n", "# iid-sigma:", "regime: case-5"),
        (("--iid-sigma", 30), "# iid-sigma: 30.0\n", "# case:", "regime: iid-gaussian"),
    ], ids=["case", "iid"])
    def test_report_records_only_given_regime(self, tmp_path, flags, given, absent, regime):
        """The report's header names the regime flag given and not the other
        one, so no header line reads None; its body names the regime."""
        src, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=3)
        out = str(tmp_path / "noisy.hsi")
        assert run_cli("add-noise", src, out, *flags, "--seed", 4) == 0
        report = open(out + ".report.txt").read()
        header = [line for line in report.splitlines() if line.startswith("# ")]
        assert not [line for line in header if line.endswith(": None")]
        assert given in report
        assert absent not in report
        assert regime in report.splitlines()

    def test_unwritable_report_leaves_no_cube(self, tmp_path, capsys):
        """A --report that cannot be written fails the command, and the noisy
        cube goes with it: exit 2, one error line, neither file on disk."""
        src, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=3)
        out = tmp_path / "noisy.hsi"
        report = tmp_path / "missing" / "r.txt"
        assert run_cli("add-noise", src, out, "--case", 2, "--report", report) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(report)!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["clean.hsi"]

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_rejected(self, tmp_path, capsys, sigma):
        """A NaN or infinite sigma exits 2 and writes no cube."""
        src, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=2)
        out = tmp_path / "noisy.hsi"
        assert run_cli("add-noise", src, str(out), "--iid-sigma", sigma, "--seed", 1) == 2
        assert "sigma must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        """A NaN sample exits 2 naming its count and band, with no cube or
        report: case 5 could overwrite it and hide the bad source."""
        src, cube = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 6), seed=1)
        cube[2, 3, 4] = np.nan
        write_hsi(src, cube)
        out = tmp_path / "noisy.hsi"
        assert run_cli("add-noise", src, str(out), "--case", 5, "--seed", 0) == 2
        err = capsys.readouterr().err
        assert f"{src}: 1 non-finite samples" in err and "band(s) 5;" in err
        assert not out.exists()
        assert not (tmp_path / "noisy.hsi.report.txt").exists()

    def test_missing_input_fails(self, tmp_path, capsys):
        """A missing input exits nonzero with a diagnostic."""
        code = run_cli("add-noise", str(tmp_path / "nope.hsi"),
                       str(tmp_path / "out.hsi"), "--case", 1)
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDenoise:
    def test_band_count_agnostic(self, tmp_path):
        """Weights built for one band count run on another."""
        weights = make_weights(tmp_path)
        for bands in (3, 6):
            src, _ = make_cube(tmp_path, f"in{bands}.hsi", shape=(8, 8, bands),
                               seed=bands)
            out = str(tmp_path / f"out{bands}.hsi")
            assert run_cli("denoise", src, out, "--weights", weights) == 0
            restored = read_hsi(out)
            assert restored.shape == (8, 8, bands)
            assert restored.min() >= 0.0 and restored.max() <= 1.0

    def test_any_spatial_extent(self, tmp_path):
        """Benchmark-shaped weights on a 10x13 cube: the output is the
        10x13 corner of the forward pass on the cube reflect-padded to
        12x16."""
        import hsdenoise.network as network
        model = build_network(network.standard_config(), seed=0)
        weights = str(tmp_path / "bench.q3dw")
        save_weights(weights, model)
        src, cube = make_cube(tmp_path, "odd.hsi", shape=(10, 13, 3), seed=3)
        out = str(tmp_path / "out.hsi")
        assert run_cli("denoise", src, out, "--weights", weights) == 0
        padded = np.pad(cube, ((0, 2), (0, 3), (0, 0)), mode="reflect")
        full, _ = model.forward(padded[np.newaxis, np.newaxis])
        want = np.clip(full[0, 0, :10, :13], 0.0, 1.0)
        assert np.array_equal(read_hsi(out), want)

    def test_model_denoise_writes_cli_bytes(self, tmp_path):
        """Model.denoise, called with the cube alone, returns the bytes that
        `hsdenoise denoise` writes for the same weights and 10x13 cube."""
        model = build_network(standard_config(), seed=0)
        weights = str(tmp_path / "bench.q3dw")
        save_weights(weights, model)
        src, cube = make_cube(tmp_path, "odd.hsi", shape=(10, 13, 3), seed=3)
        out = str(tmp_path / "out.hsi")
        assert run_cli("denoise", src, out, "--weights", weights) == 0
        restored = model.denoise(cube)
        assert restored.shape == cube.shape and restored.dtype == np.float32
        assert restored.tobytes() == read_hsi(out).tobytes()

    def test_residual_flag_switches_output(self, tmp_path, capsys):
        """The residual flag is byte 4 of the weights file (1 on, 2 off), so
        denoise, with no flag of its own, runs each model as it was saved:
        the same banks write other bytes with the residual off, and the
        bytes of that model's own Model.denoise. A --residual flag is
        refused."""
        src, cube = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=6)
        units = build_network(desk_config(width=4), seed=1).units
        blobs = {}
        for residual, version in ((True, 1), (False, 2)):
            model = Model(NetworkConfig(units, residual))
            weights = tmp_path / f"w{version}.q3dw"
            save_weights(weights, model)
            assert weights.read_bytes()[4:6] == bytes([version, 0])
            out = str(tmp_path / f"out{version}.hsi")
            assert run_cli("denoise", src, out, "--weights", weights) == 0
            blobs[residual] = read_hsi(out).tobytes()
            assert blobs[residual] == model.denoise(cube).tobytes()
            assert "# residual: " not in open(out + ".meta").read()
        assert blobs[True] != blobs[False]
        with pytest.raises(SystemExit) as exc:
            run_cli("denoise", src, tmp_path / "flag.hsi", "--weights", weights,
                    "--residual", "off")
        assert exc.value.code == 2
        assert "unrecognized arguments: --residual off" in capsys.readouterr().err
        assert not (tmp_path / "flag.hsi").exists()

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        """A NaN or Inf sample fails with its count and bands, no output."""
        weights = make_weights(tmp_path)
        src, cube = make_cube(tmp_path, "in.hsi", shape=(16, 16, 8), seed=5)
        cube[3, 4, 1] = np.nan
        cube[0, 0, 6] = np.inf
        cube[9, 2, 6] = -np.inf
        write_hsi(src, cube)
        out = tmp_path / "out.hsi"
        assert run_cli("denoise", src, str(out), "--weights", weights) == 2
        err = capsys.readouterr().err
        assert "3 non-finite samples" in err and "band(s) 2, 7;" in err
        assert not out.exists()

    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, part):
        """One NaN weight or bias in layer 6 would turn the whole output
        NaN: load_weights refuses the file, naming the layer and the part,
        and denoise exits 2 without output."""
        model = build_network(desk_config(width=4, n_layers=8), seed=1)
        bank = model.units[5].banks[1]
        (bank.weight if part == "weights" else bank.bias).flat[2] = np.nan
        weights = str(tmp_path / "nan.q3dw")
        save_weights(weights, model)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(16, 16, 8), seed=5)
        out = tmp_path / "out.hsi"
        assert run_cli("denoise", src, str(out), "--weights", weights) == 2
        assert f"layer 6 {part}: 1 non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("residual", [True, False])
    def test_output_channels_must_match_input(self, tmp_path, capsys, residual):
        """A weights file may state a 1 -> 4 -> 4 -> 3 network, as
        save_weights writes whatever units it is given; load_weights refuses
        it, naming both channel counts, and denoise and gcs exit 2 on it with
        one error line each and no output."""
        rng = np.random.default_rng(5)
        units = [make_variant("qru3d").build(rng, cin, cout, (1, 1, 1), direction)
                 for cin, cout, direction in ((1, 4, "bidirectional"), (4, 4, "forward"),
                                              (4, 3, "bidirectional"))]
        weights = str(tmp_path / "w.q3dw")
        save_weights(weights, SimpleNamespace(
            units=units, config=SimpleNamespace(global_residual=residual)))
        message = "network outputs 3 channels but its input has 1"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_weights(weights)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 3), seed=5)
        out = tmp_path / "out"
        assert run_cli("denoise", src, out / "d.hsi", "--weights", weights) == 2
        assert run_cli("gcs", src, "--weights", weights, "--out-prefix", out / "g") == 2
        assert capsys.readouterr().err == f"error: {message}\n" * 2
        assert not out.exists()


class TestEval:
    def test_metrics_csv(self, tmp_path):
        """The CSV holds one row per input with per-band psnr columns."""
        clean, cube = make_cube(tmp_path, "clean.hsi", shape=(12, 12, 3), seed=4)
        noisy_path = str(tmp_path / "noisy.hsi")
        write_hsi(noisy_path, cube + 0.1)
        out = str(tmp_path / "metrics.csv")
        assert run_cli("eval", noisy_path, clean, "--clean", clean, "--out", out) == 0
        lines = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert lines[0] == "file,mpsnr,mssim,sam,psnr_b1,psnr_b2,psnr_b3"
        noisy_row = lines[1].split(",")
        assert float(noisy_row[1]) == pytest.approx(20.0, abs=1e-5)
        clean_row = lines[2].split(",")
        assert clean_row[1] == "inf"
        assert float(clean_row[2]) == pytest.approx(1.0)

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        """A NaN sample in an input or in the clean cube fails with its count
        and band, and no metrics file, instead of scoring a perfect match."""
        clean, cube = make_cube(tmp_path, "clean.hsi", shape=(16, 16, 4), seed=7)
        bad = str(tmp_path / "bad.hsi")
        cube[5, 6, 2] = np.nan
        write_hsi(bad, cube)
        out = tmp_path / "metrics.csv"
        for inputs, cleaned in (([clean, bad], clean), ([clean], bad)):
            assert run_cli("eval", *inputs, "--clean", cleaned, "--out", out) == 2
            err = capsys.readouterr().err
            assert f"{bad}: 1 non-finite samples" in err and "band(s) 3;" in err
            assert not out.exists()

    def test_too_small_cube_rejected(self, tmp_path, capsys):
        """SSIM needs one whole 11x11 window: a smaller cube fails naming the
        clean file, its extent and the minimum, and writes no metrics file."""
        clean, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=8)
        out = tmp_path / "metrics.csv"
        assert run_cli("eval", clean, "--clean", clean, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{clean}: spatial extent 8x8 is below the 11x11 minimum" in err
        assert not out.exists()

    def test_shape_mismatch_fails(self, tmp_path, capsys):
        """Inputs must match the clean cube's shape."""
        clean, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=5)
        other, _ = make_cube(tmp_path, "other.hsi", shape=(8, 8, 4), seed=6)
        code = run_cli("eval", other, "--clean", clean,
                       "--out", str(tmp_path / "m.csv"))
        assert code == 2
        assert "does not match" in capsys.readouterr().err


class TestGcsCommand:
    def test_artifacts_written(self, tmp_path):
        """First-layer analysis emits branch CSVs, counts, and a heat map."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 5), seed=7)
        prefix = str(tmp_path / "g")
        assert run_cli("gcs", src, "--weights", weights,
                       "--out-prefix", prefix) == 0
        fwd = open(prefix + ".forward.csv").read()
        bwd = open(prefix + ".backward.csv").read()
        assert "# direction: forward" in fwd
        assert "# direction: backward" in bwd
        rel = [ln for ln in open(prefix + ".relative.csv").read().splitlines()
               if not ln.startswith("#")]
        assert rel[0] == "band,total,forward,backward"
        assert len(rel) == 1 + 5
        blob = open(prefix + ".pgm", "rb").read()
        assert blob.startswith(b"P5\n5 5\n255\n")

    def test_wrote_line_lists_every_file(self, tmp_path, capsys):
        """The `wrote` line names each of the five files gcs writes."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 5), seed=7)
        prefix = str(tmp_path / "out" / "g")
        assert run_cli("gcs", src, "--weights", weights, "--out-prefix", prefix) == 0
        named = capsys.readouterr().out.split()
        assert named[0] == "wrote"
        assert sorted(named[1:]) == sorted(
            os.path.join(tmp_path, "out", f) for f in os.listdir(tmp_path / "out"))
        assert len(named) == 6

    def test_layer_selector(self, tmp_path, capsys):
        """Layer names resolve; out-of-range indices fail."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        prefix = str(tmp_path / "g2")
        assert run_cli("gcs", src, "--weights", weights, "--layer", "last",
                       "--out-prefix", prefix) == 0
        code = run_cli("gcs", src, "--weights", weights, "--layer", "9",
                       "--out-prefix", prefix)
        assert code == 2
        assert "outside 1..3" in capsys.readouterr().err

    def test_layer_name_rejected(self, tmp_path, capsys):
        """A --layer that is neither a name nor a number exits 2 saying what
        it takes, and writes nothing."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", weights, "--layer", "middle",
                       "--out-prefix", str(out_dir / "g"))
        assert code == 2
        assert ("--layer takes 'first', 'last', or a 1-based index, got 'middle'"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_zero_epsilon_fails_without_output(self, tmp_path, capsys):
        """--eps 0 exits 2 and leaves no artifact behind."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", weights, "--eps", 0,
                       "--out-prefix", str(out_dir / "g"))
        assert code == 2
        assert "eps must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_infinite_epsilon_fails_without_output(self, tmp_path, capsys):
        """--eps inf would exclude every element and write every cell empty:
        it exits 2, names the value and leaves no artifact behind."""
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", weights, "--eps", "inf",
                       "--out-prefix", str(out_dir / "g"))
        assert code == 2
        assert "eps must be positive and finite, got inf" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        """A NaN sample fails with its count and band, no artifacts."""
        weights = make_weights(tmp_path)
        src, cube = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        cube[5, 1, 3] = np.nan
        write_hsi(src, cube)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", weights, "--out-prefix", str(out_dir / "g"))
        assert code == 2
        err = capsys.readouterr().err
        assert "1 non-finite samples" in err and "band(s) 4;" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("layer, h_numel", [("first", 16 * 66 * 64), ("3", 32 * 33 * 32)],
                             ids=["first", "layer3"])
    def test_non_dividing_cube_runs(self, tmp_path, layer, h_numel):
        """Benchmark-shaped weights: a 66-pixel extent is reflect-padded to
        68 and each trace cropped back to the cube's own positions, so
        h_numel counts only those: 66x64 at layer 1, ceil(66 * 34 / 68) x 32
        at the stride-2 layer 3. Each of its files is written, with one
        relative row per band."""
        import hsdenoise.network as network
        model = build_network(network.standard_config(), seed=0)
        weights = str(tmp_path / "bench.q3dw")
        save_weights(weights, model)
        src, _ = make_cube(tmp_path, "odd.hsi", shape=(66, 64, 4), seed=3)
        prefix = str(tmp_path / "g")
        assert run_cli("gcs", src, "--weights", weights, "--layer", layer,
                       "--out-prefix", prefix) == 0
        directions = ["forward", "backward"] if layer == "first" else ["backward"]
        for d in directions:
            assert f"# h_numel: {h_numel}\n" in open(f"{prefix}.{d}.csv").read()
        for suffix in [f"{d}.csv" for d in directions] + ["relative.csv", "pgm", "meta"]:
            assert os.path.getsize(f"{prefix}.{suffix}") > 0
        rows = open(prefix + ".relative.csv").read().splitlines()
        assert [row.split(",")[0] for row in rows if row[0].isdigit()] == ["1", "2", "3", "4"]
        assert open(prefix + ".pgm", "rb").read().startswith(b"P5\n4 4\n255\n")

    @pytest.mark.parametrize("shape", [(8, 8, 16), (10, 7, 16)], ids=["dividing", "padded"])
    def test_summary_matches_cell_oracle(self, tmp_path, shape):
        """relative.csv and the heat map of a bidirectional layer equal the
        cell-by-cell oracles over the layer's two matrices: counts from the
        forward matrix above the diagonal, the backward one below it, either
        on it; pixels round(255 v / max) of that dense view."""
        from hsdenoise.gcs import layer_matrices
        model = build_network(standard_config(), seed=4)
        weights = str(tmp_path / "w.q3dw")
        save_weights(weights, model)
        src, cube = make_cube(tmp_path, "in.hsi", shape=shape, seed=9)
        prefix = str(tmp_path / "g")
        assert run_cli("gcs", src, "--weights", weights, "--out-prefix", prefix) == 0
        fwd, bwd = layer_matrices(model, cube, 0)
        want = relative_counts(fwd.values, bwd.values, fwd.h_numel)
        rows = [ln for ln in open(prefix + ".relative.csv").read().splitlines()
                if not ln.startswith("#")][1:]
        assert [tuple(map(int, r.split(",")[1:])) for r in rows] == want
        assert any(0 < t < shape[2] for t, _, _ in want)
        n = shape[2]
        blob = open(prefix + ".pgm", "rb").read()
        header = f"P5\n{n} {n}\n255\n".encode()
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(n, n)
        assert pixels.tolist() == heat_map_pixels(fwd.values, bwd.values)

    @pytest.mark.parametrize("case", ["eps", "c3d"])
    def test_bad_request_fails_before_forward(self, tmp_path, capsys, monkeypatch, case):
        """A bad --eps or a layer without a recurrence exits 2 without any
        forward pass, of the network or of one unit, and without artifacts."""
        import hsdenoise.network as network
        import hsdenoise.qru as qru

        def no_forward(self, *args, **kwargs):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr(network.Model, "forward", no_forward)
        monkeypatch.setattr(qru.QruUnit, "forward", no_forward)
        monkeypatch.setattr(qru.QruUnit, "direction_traces", no_forward)
        if case == "eps":
            weights, flags, message = make_weights(tmp_path), ["--eps", "nan"], "eps must be positive"
        else:
            model = build_network(desk_config(width=4, kind="c3d"), seed=1)
            weights = str(tmp_path / "c3d.q3dw")
            save_weights(weights, model)
            flags, message = ["--layer", 2], "layer 2 has no pooling recurrence"
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", weights, *flags,
                       "--out-prefix", str(out_dir / "g"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("tail", [os.sep, os.sep + os.curdir])
    def test_directory_prefix_rejected(self, tmp_path, capsys, monkeypatch, tail):
        """A prefix naming a directory ('out/' or 'out/.') would write hidden
        files into it: it exits 2 with one error line naming --out-prefix,
        before the weights are read, and writes nothing."""
        import hsdenoise.network as network

        def no_load(*args, **kwargs):
            raise AssertionError("weights read")

        monkeypatch.setattr(network, "load_weights", no_load)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 4), seed=8)
        out_dir = tmp_path / "out"
        code = run_cli("gcs", src, "--weights", str(tmp_path / "w.q3dw"),
                       "--out-prefix", str(out_dir) + tail)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out-prefix")
        assert not out_dir.exists()

    def test_last_layer_peaks_no_higher_than_first(self, tmp_path):
        """Only the analysed unit keeps traces: on a 24x24x220 case-5 cube
        with the standard net, --layer last peaks under tracemalloc no
        higher than --layer first (57.1 and 79.7 MiB; 232.7 MiB for --layer
        last when every earlier layer kept its traces)."""
        weights = str(tmp_path / "net.q3dw")
        save_weights(weights, build_network(standard_config(), seed=7))
        noisy, _ = synthesize_case(gen_synthetic(24, 24, 220, 7), 5, [7, 1])
        src = str(tmp_path / "noisy.hsi")
        write_hsi(src, noisy.astype(np.float32))
        peaks = {}
        assert not tracemalloc.is_tracing()
        for layer in ("first", "last"):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = run_cli("gcs", src, "--weights", weights, "--layer", layer,
                               "--out-prefix", str(tmp_path / layer))
                peaks[layer] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks["last"] <= peaks["first"], {k: v / 2**20 for k, v in peaks.items()}

    def test_matrices_match_full_forward(self, tmp_path):
        """gcs on one layer writes the matrices of the full traced pass's
        traces of that layer."""
        weights = make_weights(tmp_path, n_layers=5)
        src, cube = make_cube(tmp_path, "in.hsi", shape=(8, 8, 6), seed=10)
        prefix = str(tmp_path / "g3")
        assert run_cli("gcs", src, "--weights", weights, "--layer", 3,
                       "--out-prefix", prefix) == 0
        x = cube[np.newaxis, np.newaxis]
        _, traces = load_weights(weights).forward(x, keep_traces=True)
        for tr in pooling_traces(traces, 2):
            text = open(f"{prefix}.{tr.direction}.csv").read()
            assert text.endswith(gcs_to_csv(gcs_matrix(tr)))

    @pytest.mark.parametrize("layer", ["first", "last"])
    def test_bidirectional_matrices_match_full_forward(self, tmp_path, layer):
        """gcs on the standard net's bidirectional first or last layer writes
        one matrix per trace of that layer in the full traced pass."""
        weights = str(tmp_path / "net.q3dw")
        model = build_network(standard_config(), seed=3)
        save_weights(weights, model)
        src, cube = make_cube(tmp_path, "in.hsi", shape=(8, 8, 6), seed=11)
        prefix = str(tmp_path / layer)
        assert run_cli("gcs", src, "--weights", weights, "--layer", layer,
                       "--out-prefix", prefix) == 0
        _, traces = model.forward(cube[np.newaxis, np.newaxis], keep_traces=True)
        branches = pooling_traces(traces, 0 if layer == "first" else len(model.units) - 1)
        assert [tr.direction for tr in branches] == ["forward", "backward"]
        for tr in branches:
            text = open(f"{prefix}.{tr.direction}.csv").read()
            assert text.endswith(gcs_to_csv(gcs_matrix(tr)))

    def test_first_direction_h_freed_before_second(self, tmp_path, monkeypatch):
        """gcs --layer first drops the forward trace before the backward
        direction's recurrence runs: no h it pooled earlier is still alive."""
        import weakref

        import hsdenoise.qru as qru

        made = []
        pool = qru.qru_pool_forward

        def watched(z, f, d, out=None):
            assert all(ref() is None for ref in made), "an earlier h is still alive"
            h = pool(z, f, d, out)
            made.append(weakref.ref(h))
            return h

        monkeypatch.setattr(qru, "qru_pool_forward", watched)
        weights = make_weights(tmp_path)
        src, _ = make_cube(tmp_path, "in.hsi", shape=(8, 8, 5), seed=12)
        assert run_cli("gcs", src, "--weights", weights, "--out-prefix",
                       str(tmp_path / "g")) == 0
        assert len(made) == 2

    def test_first_layer_holds_one_direction(self, tmp_path):
        """gcs --layer first on the standard net and a 24x24x220 case-5 cube
        makes no unit output and holds one h while gcs_matrix runs: its
        tracemalloc peak stays within the stacked gate buffer, one h, the
        float64 c rows and the two block buffers of gcs_matrix, plus 10
        percent (62.7 MiB against 63.3; 79.7 with both h and y alive)."""
        import hsdenoise.gcs as gcs

        weights = str(tmp_path / "net.q3dw")
        save_weights(weights, build_network(standard_config(), seed=7))
        noisy, _ = synthesize_case(gen_synthetic(24, 24, 220, 7), 5, [7, 1])
        src = str(tmp_path / "noisy.hsi")
        write_hsi(src, noisy.astype(np.float32))
        numel, bands = 16 * 24 * 24, 220
        h_bytes = 4 * numel * bands
        bound = 1.1 * (4 * h_bytes + h_bytes + 8 * numel * bands
                       + 2 * 8 * gcs._BLOCK_BANDS * numel)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = run_cli("gcs", src, "--weights", weights, "--layer", "first",
                           "--out-prefix", str(tmp_path / "first"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f}"


class TestGradcheckCommand:
    @pytest.mark.parametrize("eps", ["nan", "0", "inf"])
    def test_bad_eps_rejected(self, capsys, eps):
        """An eps that is not positive and finite exits 2 before any check:
        NaN slopes would otherwise pass every group, and 0 divides by zero."""
        assert run_cli("gradcheck", "--eps", eps) == 2
        out = capsys.readouterr()
        assert f"eps must be positive and finite, got {float(eps)!r}" in out.err
        assert "passed" not in out.out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_rejected(self, capsys, tolerance):
        """A tolerance that is not positive and finite exits 2 with one error
        line before any check: inf would pass every check, and nan, 0 or -1
        would fail every one and blame the gradients."""
        assert run_cli("gradcheck", f"--tolerance={tolerance}") == 2
        out = capsys.readouterr()
        assert out.err.splitlines() == [
            f"error: tolerance must be positive and finite, got {float(tolerance)!r}"]
        assert out.out == ""

    def test_every_case_passes(self):
        """In a fresh process on two threads, every case passes: nine
        `== <case>: PASS` lines, then the verdict line, exit 0, no stderr."""
        proc = run_python("-m", "hsdenoise", "gradcheck",
                          env={**os.environ, "HSDENOISE_THREADS": "2"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 10
        assert all(re.fullmatch(r"== .+: PASS \(max rel err \S+\)", line) for line in lines[:9])
        assert lines[9] == "all gradient checks passed"
        assert proc.stderr == ""

    def test_failed_case_reported(self, capsys, monkeypatch):
        """With one case failing, gradcheck prints that case's table (and no
        other, without --verbose), counts it on stderr and exits 1."""
        import hsdenoise.training as training

        calls = []

        def one_fails(target, x, tolerance, eps):
            calls.append(target)
            err = 0.5 if len(calls) == 3 else 0.0
            return training.GradCheckReport([("layer01.w", err)], tolerance)

        monkeypatch.setattr(training, "grad_check", one_fails)
        assert run_cli("gradcheck") == 1
        out = capsys.readouterr()
        assert "== tconv3d unit: FAIL (max rel err 5.000e-01)" in out.out
        assert "layer01.w  5.0000e-01  FAIL" in out.out
        assert out.out.count("rel_err     verdict") == 1
        assert "all gradient checks passed" not in out.out
        assert "1 gradient check(s) failed" in out.err
        assert len(calls) == 9


class TestFlagValues:
    @pytest.mark.parametrize("command", ["gen-synthetic", "add-noise", "gradcheck", "train",
                                         "config"])
    def test_negative_seed_names_flag(self, tmp_path, capsys, command):
        """A negative --seed, or a config line `seed = -1`, exits 2 naming the
        flag (or key and line), before any file or --out-dir exists."""
        src, _ = make_cube(tmp_path, "in.hsi", shape=(16, 16, 4), seed=9)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "out"
        argv = {
            "gen-synthetic": ["gen-synthetic", "--out", out, "--seed", "-1"],
            "add-noise": ["add-noise", src, out, "--case", 5, "--seed", "-1"],
            "gradcheck": ["gradcheck", "--seed", "-1"],
            "train": ["train", "--data", src, "--out-dir", out, "--patch-size", 8,
                      "--seed", "-1"],
            "config": ["train", "--config", cfg, "--data", src, "--out-dir", out,
                       "--patch-size", 8],
        }[command]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        if command == "config":
            assert (f"{cfg}:1: bad value for seed: expected a non-negative integer, got '-1'"
                    in captured.err)
        else:
            assert ("argument --seed: expected a non-negative integer, got '-1'"
                    in captured.err)
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["in.hsi", "run.cfg"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--kind", "qru4d", "expected one of ('qru3d', 'qru2d', 'c3d'), got 'qru4d'"),
        ("--residual", "maybe", "expected on/off, got 'maybe'"),
    ], ids=["choice", "bool"])
    def test_bad_train_flag_says_what_it_takes(self, tmp_path, capsys, flag, value, message):
        """A train flag refused by its config key's caster exits 2 with the
        message the config file would give, after the flag's name."""
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data", "in.hsi", "--out-dir", out_dir, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestTrainCommand:
    def test_small_fixed_run(self, tmp_path):
        """A tiny fixed-policy run writes weights, state, and the log."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = str(tmp_path / "run")
        code = run_cli("train", "--data", src, "--out-dir", out_dir,
                       "--policy", "fixed", "--epochs", 2, "--width", 4,
                       "--batch-size", 2, "--sigma", 25, "--patch-size", 8,
                       "--seed", 3)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "weights_final.q3dw"))
        assert os.path.exists(os.path.join(out_dir, "optim_final.q3da"))
        log = open(os.path.join(out_dir, "trainlog.csv")).read()
        assert "# command: train" in log
        assert "epoch,stage,lr,batch_size,loss,val_psnr" in log
        assert "seconds" not in log

    def test_log_names_inputs(self, tmp_path):
        """Runs that differ only in --max-steps-per-epoch train different
        weights, so each log names that flag's value and the --data and
        --val files."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        val, _ = make_cube(tmp_path, "val.hsi", shape=(8, 8, 4), seed=10)
        runs = []
        for steps in (1, 2):
            out_dir = tmp_path / f"run{steps}"
            assert run_cli("train", "--data", src, "--val", val, "--out-dir", out_dir,
                           "--policy", "fixed", "--epochs", 1, "--width", 4,
                           "--batch-size", 2, "--patch-size", 8,
                           "--max-steps-per-epoch", steps) == 0
            log = (out_dir / "trainlog.csv").read_text()
            assert f"# max-steps-per-epoch: {steps}\n" in log
            assert f"# data: {src}\n" in log and f"# val: {val}\n" in log
            runs.append(((out_dir / "weights_final.q3dw").read_bytes(), log))
        assert runs[0][0] != runs[1][0]
        assert runs[0][1] != runs[1][1]

    def test_stepless_run_rejected(self, tmp_path, capsys):
        """A batch size under which no step could run exits 2 and writes no log."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir),
                       "--policy", "fixed", "--epochs", 1, "--width", 4,
                       "--batch-size", -1, "--sigma", 25, "--patch-size", 8)
        assert code == 2
        assert "batch size must be at least 1, got -1" in capsys.readouterr().err
        assert not (out_dir / "trainlog.csv").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_rejected(self, tmp_path, capsys, sigma):
        """A NaN or infinite --sigma exits 2 before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir),
                       "--policy", "fixed", "--epochs", 1, "--width", 2,
                       "--batch-size", 2, "--sigma", sigma, "--patch-size", 8)
        assert code == 2
        assert f"sigma must be finite and non-negative, got {float(sigma)}" in \
            capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_bad_learning_rate_rejected(self, tmp_path, capsys, lr):
        """A NaN, infinite or zero --lr exits 2 before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir),
                       "--policy", "fixed", "--epochs", 1, "--width", 2,
                       "--batch-size", 2, "--lr", lr, "--patch-size", 8)
        assert code == 2
        assert f"learning rate must be positive and finite, got {float(lr)}" in \
            capsys.readouterr().err
        assert not out_dir.exists()

    def test_indivisible_patch_size_rejected(self, tmp_path, capsys):
        """A --patch-size the encoder cannot halve twice exits 2 naming the
        option, before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir),
                       "--preset", "benchmark", "--epochs", 1, "--batch-size", 2,
                       "--patch-size", 6)
        assert code == 2
        assert "--patch-size 6 is not a multiple of 4x4" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--patch-size", "0"], "patch size must be positive, got 0"),
        (["--patch-size", "8", "--patch-stride", "-1"], "stride must be positive, got -1"),
    ], ids=["size-0", "stride-minus-1"])
    def test_bad_patch_grid_rejected(self, tmp_path, capsys, flags, message):
        """A patch size or stride that tiles no grid exits 2 with the patch
        extractor's message, before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir), *flags,
                       "--policy", "fixed", "--epochs", 1, "--width", 2, "--batch-size", 2)
        assert code == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--resume-weights", "--resume-state"])
    def test_empty_resume_path_rejected(self, tmp_path, capsys, monkeypatch, flag):
        """An empty resume path is a file that cannot be read, not a flag left
        out: it exits 2 before any step, and before --out-dir is created. An
        empty --resume-state comes with the weights it needs."""
        import hsdenoise.training as training

        def no_train(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", no_train)
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        weights = [] if flag == "--resume-weights" else ["--resume-weights",
                                                         make_weights(tmp_path, width=2)]
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir), *weights, flag, "",
                       "--policy", "fixed", "--epochs", 1, "--width", 2,
                       "--batch-size", 2, "--patch-size", 8)
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--preset", "benchmark", "--width-multiplier", "inf"],
         "width multiplier must be positive and finite, got inf"),
        (["--preset", "benchmark", "--width-multiplier", "nan"],
         "width multiplier must be positive and finite, got nan"),
        (["--width", "0"], "layer 1 maps 1 -> 0 channels"),
        (["--width", "-3"], "layer 1 maps 1 -> -3 channels"),
    ], ids=["multiplier-inf", "multiplier-nan", "width-0", "width-minus-3"])
    def test_bad_width_rejected(self, tmp_path, capsys, flags, message):
        """A width or width multiplier that builds no network exits 2 with a
        message naming the value, before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir), *flags,
                       "--policy", "fixed", "--epochs", 1, "--batch-size", 2,
                       "--patch-size", 8)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out_dir.exists()

    def test_epochs_past_schedule_rejected(self, tmp_path, capsys):
        """The default schedule policy covers 100 epochs: asking for more
        exits 2 naming the schedule, before --out-dir is created, instead of
        failing at epoch 100 with no final weights or log."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(8, 8, 4), seed=9)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", src, "--out-dir", str(out_dir), "--epochs", 101,
                       "--max-steps-per-epoch", 1, "--width", 2, "--patch-size", 8)
        assert code == 2
        assert "101 epochs run past the 100-epoch schedule" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--data", "--val"])
    def test_non_finite_cube_rejected(self, tmp_path, capsys, monkeypatch, flag):
        """A NaN sample in a --data or --val cube exits 2, naming the file,
        count and band, before any step and without outputs."""
        import hsdenoise.training as training

        def no_train(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", no_train)
        good, _ = make_cube(tmp_path, "good.hsi", shape=(16, 16, 4), seed=9)
        bad, cube = make_cube(tmp_path, "bad.hsi", shape=(16, 16, 4), seed=9)
        cube[5, 6, 2] = np.nan
        write_hsi(bad, cube)
        cubes = ["--data", bad] if flag == "--data" else ["--data", good, "--val", bad]
        out_dir = tmp_path / "run"
        code = run_cli("train", *cubes, "--out-dir", str(out_dir), "--policy", "fixed",
                       "--epochs", 1, "--width", 2, "--batch-size", 2, "--patch-size", 8)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: 1 non-finite samples" in err and "band(s) 3;" in err
        assert not out_dir.exists()

    def test_val_without_paths_rejected(self, tmp_path, capsys):
        """--val with no cube after it exits 2 before --out-dir is created,
        rather than training without validation."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=9)
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data", src, "--out-dir", out_dir, "--policy", "fixed",
                    "--epochs", 1, "--width", 2, "--patch-size", 8, "--val")
        assert exc.value.code == 2
        assert "argument --val: expected at least one argument" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--data", "--val"])
    def test_cube_smaller_than_patch_named(self, tmp_path, capsys, flag):
        """A --data or --val cube smaller than --patch-size exits 2 naming the
        file, its H x W and the patch size, before --out-dir is created."""
        good, _ = make_cube(tmp_path, "good.hsi", shape=(16, 16, 4), seed=9)
        small, _ = make_cube(tmp_path, "small.hsi", shape=(3, 5, 4), seed=9)
        cubes = ["--data", small] if flag == "--data" else ["--data", good, "--val", small]
        out_dir = tmp_path / "run"
        code = run_cli("train", *cubes, "--out-dir", str(out_dir), "--policy", "fixed",
                       "--epochs", 1, "--width", 2, "--batch-size", 2, "--patch-size", 8)
        assert code == 2
        assert f"{small} is 3x5, smaller than --patch-size 8" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_resume_matches_straight_run(self, tmp_path):
        """Two epochs plus a resumed two equal a straight four, bitwise."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed", "--width", 4,
                  "--batch-size", 2, "--sigma", 25, "--patch-size", 8,
                  "--seed", 4]
        dir_a = str(tmp_path / "a")
        assert run_cli("train", *common, "--out-dir", dir_a, "--epochs", 4) == 0
        dir_b = str(tmp_path / "b")
        assert run_cli("train", *common, "--out-dir", dir_b, "--epochs", 2) == 0
        dir_c = str(tmp_path / "c")
        assert run_cli("train", *common, "--out-dir", dir_c, "--epochs", 4,
                       "--resume-weights", os.path.join(dir_b, "weights_final.q3dw"),
                       "--resume-state", os.path.join(dir_b, "optim_final.q3da")) == 0
        blob_a = open(os.path.join(dir_a, "weights_final.q3dw"), "rb").read()
        blob_c = open(os.path.join(dir_c, "weights_final.q3dw"), "rb").read()
        assert blob_a == blob_c

    def test_mismatched_state_fails_before_out_dir(self, tmp_path, capsys):
        """Resuming a width-3 run's optimizer state with width-4 weights
        exits 2 with one error line, before --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed", "--epochs", 1,
                  "--batch-size", 2, "--patch-size", 8]
        first = tmp_path / "first"
        assert run_cli("train", *common, "--width", 3, "--out-dir", first) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        code = run_cli("train", *common, "--out-dir", out_dir,
                       "--resume-weights", make_weights(tmp_path, width=4),
                       "--resume-state", first / "optim_final.q3da")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "optimizer state does not match this model" in err
        assert not out_dir.exists()

    def test_state_without_weights_refused(self, tmp_path, capsys):
        """A state belongs to the weights it trained, whether or not it
        matches a fresh model's shapes: --resume-state alone exits 2 naming
        both flags, before --out-dir is created, instead of running the
        optimizer's epoch and moments on new weights. For a width-2 model
        the flags, not the shapes, are named."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed",
                  "--batch-size", 2, "--patch-size", 8]
        first = tmp_path / "first"
        assert run_cli("train", *common, "--width", 4, "--epochs", 1, "--out-dir", first) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        for width in (4, 2):
            code = run_cli("train", *common, "--width", width, "--epochs", 2,
                           "--out-dir", out_dir, "--resume-state", first / "optim_final.q3da")
            assert code == 2
            err = capsys.readouterr().err
            assert err == "error: --resume-state needs --resume-weights, the weights it trained\n"
            assert not out_dir.exists()

    def test_nan_moment_state_fails_before_out_dir(self, tmp_path, capsys):
        """A state file holding a NaN first moment, given with its weights,
        exits 2 with one error line naming the array, before --out-dir is
        created, instead of training on NaN losses."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed", "--width", 4,
                  "--batch-size", 2, "--patch-size", 8]
        first = tmp_path / "first"
        assert run_cli("train", *common, "--epochs", 1, "--out-dir", first) == 0
        capsys.readouterr()
        state = load_optimizer_state(str(first / "optim_final.q3da"))
        state.m[0].flat[0] = np.nan
        bad = tmp_path / "nan.q3da"
        save_optimizer_state(bad, state)
        out_dir = tmp_path / "run"
        code = run_cli("train", *common, "--epochs", 2, "--out-dir", out_dir,
                       "--resume-weights", first / "weights_final.q3dw", "--resume-state", bad)
        assert code == 2
        assert capsys.readouterr().err == "error: array 0 m: 1 values not finite\n"
        assert not out_dir.exists()

    def test_resumed_log_names_weights_not_architecture(self, tmp_path):
        """A run resumed from weights trains the network those weights hold,
        so its log records the weights and state files, not the architecture
        settings (here a --kind the run did not have)."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed", "--width", 4,
                  "--batch-size", 2, "--patch-size", 8]
        first = tmp_path / "first"
        assert run_cli("train", *common, "--epochs", 1, "--out-dir", first) == 0
        fresh = open(first / "trainlog.csv").read()
        for key in ("preset", "kind", "schedule", "width", "layers"):
            assert f"# {key}: " in fresh
        assert "# resume-" not in fresh
        weights, state = first / "weights_final.q3dw", first / "optim_final.q3da"
        out_dir = tmp_path / "run"
        assert run_cli("train", *common, "--epochs", 2, "--out-dir", out_dir, "--kind", "c3d",
                       "--resume-weights", weights, "--resume-state", state) == 0
        log = open(out_dir / "trainlog.csv").read()
        for key in ("preset", "kind", "schedule", "width", "layers", "width-multiplier"):
            assert f"# {key}: " not in log
        assert f"# resume-weights: {weights}\n" in log
        assert f"# resume-state: {state}\n" in log
        model = load_weights(str(out_dir / "weights_final.q3dw"))
        assert {spec.kind for spec in model.config.layers} == {"qru3d"}

    def test_resume_keeps_the_files_residual(self, tmp_path):
        """A run resumed from residual-off weights trains and saves a
        residual-off model, whatever --residual says, and its log leaves
        out the residual setting, which the weights file states."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=10)
        common = ["--data", src, "--policy", "fixed", "--width", 4,
                  "--batch-size", 2, "--patch-size", 8]
        first = tmp_path / "first"
        assert run_cli("train", *common, "--epochs", 1, "--out-dir", first,
                       "--residual", "off") == 0
        assert "# residual: False\n" in open(first / "trainlog.csv").read()
        out_dir = tmp_path / "run"
        assert run_cli("train", *common, "--epochs", 2, "--out-dir", out_dir,
                       "--residual", "on",
                       "--resume-weights", first / "weights_final.q3dw",
                       "--resume-state", first / "optim_final.q3da") == 0
        final = out_dir / "weights_final.q3dw"
        assert final.read_bytes()[4:6] == bytes([2, 0])
        assert load_weights(str(final)).config.global_residual is False
        assert "# residual: " not in open(out_dir / "trainlog.csv").read()

    @pytest.mark.parametrize("policy, preset, kept, dropped", [
        ("schedule", "desk", {"width": 3, "layers": 4},
         ("lr", "batch-size", "sigma", "width-multiplier")),
        ("fixed", "desk", {"lr": 0.002, "batch-size": 2, "sigma": 10.0, "width": 3, "layers": 4},
         ("width-multiplier",)),
        ("fixed", "benchmark", {"lr": 0.002, "batch-size": 2, "sigma": 10.0,
                                "width-multiplier": 0.25}, ("width", "layers")),
    ], ids=["schedule-desk", "fixed-desk", "fixed-benchmark"])
    def test_log_records_only_settings_read(self, tmp_path, policy, preset, kept, dropped):
        """The log's header holds the settings the run read: lr, batch size
        and sigma only under --policy fixed, only its own preset's size keys,
        the patch stride it used and its --data cube. The other flags are
        still accepted."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=12)
        out_dir = tmp_path / "run"
        assert run_cli("train", "--data", src, "--out-dir", out_dir, "--epochs", 1,
                       "--policy", policy, "--preset", preset, "--patch-size", 8,
                       "--lr", 0.002, "--batch-size", 2, "--sigma", 10, "--width", 3,
                       "--layers", 4, "--width-multiplier", 0.25) == 0
        log = open(out_dir / "trainlog.csv").read()
        for key, value in dict(kept, **{"patch-stride": 8, "data": src}).items():
            assert f"# {key}: {value}\n" in log
        for key in dropped:
            assert f"# {key}: " not in log

    def test_config_file_drives_run(self, tmp_path):
        """Settings can come from a config file."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("policy = fixed\nepochs = 1\nwidth = 4\nbatch-size = 2\n"
                       "sigma = 25\npatch-size = 8\nseed = 5\n")
        out_dir = str(tmp_path / "run")
        assert run_cli("train", "--config", str(cfg), "--data", src,
                       "--out-dir", out_dir) == 0
        log = open(os.path.join(out_dir, "trainlog.csv")).read()
        assert "# policy: fixed" in log

    def test_config_file_settings_logged_only_if_read(self, tmp_path):
        """A curriculum desk run's log records a config file's width, which
        the run read, and not its width multiplier, lr, batch size or sigma,
        which it did not."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=13)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width-multiplier = 0.5\nlr = 0.5\nbatch-size = 3\nsigma = 10\n"
                       "width = 3\n")
        out_dir = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--data", src, "--out-dir", out_dir,
                       "--preset", "desk", "--policy", "schedule", "--epochs", 1,
                       "--patch-size", 8) == 0
        log = open(out_dir / "trainlog.csv").read()
        assert "# width: 3\n" in log
        for key in ("width-multiplier", "lr", "batch-size", "sigma"):
            assert f"# {key}: " not in log

    @pytest.mark.parametrize("line, message", [
        ("residual = maybe", "bad value for residual: expected on/off, got 'maybe'"),
        ("kind = qru4d", "bad value for kind: expected one of ('qru3d', 'qru2d', 'c3d'), "
                         "got 'qru4d'"),
    ], ids=["bool", "choice"])
    def test_bad_config_value_fails(self, tmp_path, capsys, line, message):
        """A config value its key cannot take exits 2 naming the key, before
        --out-dir is created."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=12)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_dir = tmp_path / "run"
        code = run_cli("train", "--config", str(cfg), "--data", src,
                       "--out-dir", str(out_dir))
        assert code == 2
        assert f"{cfg}:1: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_band_count_mismatch_fails(self, tmp_path, capsys):
        """--data cubes of 4 and 5 bands exit 2 naming the second file,
        before --out-dir is created."""
        first, _ = make_cube(tmp_path, "four.hsi", shape=(8, 8, 4), seed=13)
        second, _ = make_cube(tmp_path, "five.hsi", shape=(8, 8, 5), seed=14)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--data", first, second, "--out-dir", str(out_dir),
                       "--policy", "fixed", "--epochs", 1, "--width", 2, "--patch-size", 8)
        assert code == 2
        assert f"{second} has 5 bands, earlier cubes had 4" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        """Unknown keys in the config file abort before any work."""
        src, _ = make_cube(tmp_path, "train.hsi", shape=(16, 16, 4), seed=12)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimizer = sgd\n")
        code = run_cli("train", "--config", str(cfg), "--data", src,
                       "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


class TestFailedWrite:
    """A command whose last file cannot be written, as a directory stands at
    its path, exits 2 with one error line and leaves none of its files."""

    @pytest.mark.parametrize("argv, last", [
        (["gen-synthetic", "--out", "{o}/c.hsi", "--height", 8, "--width", 8, "--bands", 3],
         "c.hsi.meta"),
        (["add-noise", "{i}/clean.hsi", "{o}/n.hsi", "--case", 2], "n.hsi.report.txt"),
        (["denoise", "{i}/clean.hsi", "{o}/d.hsi", "--weights", "{i}/w.q3dw"], "d.hsi.meta"),
        (["gcs", "{i}/clean.hsi", "--weights", "{i}/w.q3dw", "--out-prefix", "{o}/g"], "g.pgm"),
    ], ids=["gen-synthetic", "add-noise", "denoise", "gcs"])
    def test_leaves_no_files(self, tmp_path, capsys, argv, last):
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        (out / last).mkdir(parents=True)
        make_cube(inputs, "clean.hsi", shape=(8, 8, 3), seed=6)
        make_weights(inputs)
        assert run_cli(*(str(a).format(i=inputs, o=out) for a in argv)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert os.listdir(out) == [last]


class TestTruncatedFiles:
    """Every proper prefix of a valid file is refused with the format's own
    error naming a byte offset, and the command reading it exits with 2."""

    def check_prefixes(self, tmp_path, blob, reader, error, argv):
        path = tmp_path / "cut"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(error) as info:
                reader(str(path))
            assert re.search(r"(byte|offset) \d+", str(info.value)), (n, info.value)
            assert run_cli(*argv(str(path))) == 2, n

    def test_hsi_prefixes(self, tmp_path):
        src, _ = make_cube(tmp_path, "c.hsi", shape=(2, 2, 2), seed=13)
        out = tmp_path / "noisy.hsi"
        self.check_prefixes(tmp_path, open(src, "rb").read(), read_hsi, HsiError,
                            lambda p: ("add-noise", p, out, "--iid-sigma", 10))

    def test_q3dw_prefixes(self, tmp_path):
        src, _ = make_cube(tmp_path, "c.hsi", shape=(4, 4, 2), seed=14)
        path = tmp_path / "w.q3dw"
        save_weights(path, build_network(desk_config(width=1, kind="c3d"), seed=2))
        out = tmp_path / "out.hsi"
        self.check_prefixes(tmp_path, path.read_bytes(), load_weights, WeightsError,
                            lambda p: ("denoise", src, out, "--weights", p))

    def test_q3da_prefixes(self, tmp_path):
        src, _ = make_cube(tmp_path, "c.hsi", shape=(4, 4, 2), seed=15)
        weights = make_weights(tmp_path, width=1)
        path = tmp_path / "s.q3da"
        save_optimizer_state(path, AdamState([np.zeros((2, 2), dtype=np.float32)]))
        out_dir = tmp_path / "run"
        self.check_prefixes(tmp_path, path.read_bytes(), load_optimizer_state, WeightsError,
                            lambda p: ("train", "--data", src, "--out-dir", out_dir,
                                       "--patch-size", 4, "--resume-weights", weights,
                                       "--resume-state", p))


# A residual-off desk train: a rerun case itself, and run once by the
# rerun_inputs fixture so that the flagless denoise case reads a weights file
# whose byte 4 is 2.
RESIDUAL_OFF_TRAIN = ["train", "--data", "{d}/cube.hsi", "--policy", "fixed", "--epochs", 1,
                      "--width", 4, "--batch-size", 2, "--patch-size", 8, "--residual", "off"]

# Each rerun case reads its inputs from one shared directory, by absolute
# path, and writes under the directory it runs in.
RERUN_CASES = [
    pytest.param(["gen-synthetic", "--out", "c.hsi", "--height", 12, "--width", 12,
                  "--bands", 4, "--seed", 2], None, id="gen-synthetic"),
    pytest.param(["add-noise", "{d}/cube.hsi", "noisy.hsi", "--case", 5, "--seed", 7,
                  "--report", "report.txt"], None, id="add-noise"),
    pytest.param(["denoise", "{d}/odd.hsi", "out.hsi", "--weights", "{d}/net.q3dw"],
                 "wrote out.hsi (18x14x8)", id="denoise"),
    pytest.param(["denoise", "{d}/odd.hsi", "out.hsi", "--weights", "{d}/off/weights_final.q3dw"],
                 "wrote out.hsi (18x14x8)", id="denoise-residual-off"),
    pytest.param(["gcs", "{d}/bands8.hsi", "--weights", "{d}/net.q3dw", "--layer", "last",
                  "--out-prefix", "gcs/last"], None, id="gcs-last"),
    *[pytest.param(["train", "--data", "{d}/cube.hsi", "--out-dir", "run", "--policy", policy,
                    "--epochs", 1, "--width", 4, "--batch-size", 2, "--patch-size", 8],
                   None, id=f"train-{policy}") for policy in ("fixed", "schedule")],
    *[pytest.param(["train", "--data", "{d}/cube.hsi", "--out-dir", "run", "--preset",
                    "benchmark", "--kind", kind, "--width-multiplier", 0.25, "--policy", "fixed",
                    "--epochs", 1, "--batch-size", 2, "--patch-size", 8,
                    "--max-steps-per-epoch", 1], None, id=f"benchmark-{kind}")
      for kind in ("qru3d", "qru2d")],
    pytest.param(["train", "--data", "{d}/big.hsi", "--out-dir", "run", "--policy", "fixed",
                  "--epochs", 1, "--width", 4, "--batch-size", 4, "--patch-size", 16,
                  "--patch-stride", 8, "--augment", "full", "--max-steps-per-epoch", 2],
                 None, id="augment-full"),
    pytest.param([*RESIDUAL_OFF_TRAIN, "--out-dir", "run"], None, id="train-residual-off"),
]


@pytest.fixture(scope="module")
def rerun_inputs(tmp_path_factory):
    """Seeded cubes, the standard net's weights and the residual-off train's
    run directory for the rerun cases."""
    d = tmp_path_factory.mktemp("inputs")
    for name, shape in (("cube", (16, 16, 4)), ("bands8", (16, 16, 8)), ("odd", (18, 14, 8)),
                        ("big", (32, 32, 4))):
        write_hsi(str(d / f"{name}.hsi"), gen_synthetic(*shape, 0))
    save_weights(str(d / "net.q3dw"), build_network(standard_config(), seed=0))
    argv = [str(a).format(d=d) for a in RESIDUAL_OFF_TRAIN]
    assert run_cli(*argv, "--out-dir", d / "off") == 0
    assert (d / "off" / "weights_final.q3dw").read_bytes()[4:6] == bytes([2, 0])
    return d


class TestDeterminism:
    @pytest.mark.parametrize("argv, says", RERUN_CASES)
    def test_rerun_writes_same_bytes(self, tmp_path, rerun_inputs, argv, says):
        """One command, run twice in fresh processes from sibling directories,
        writes the same files byte for byte, header lines included. The two
        runs get different string-hash salts, so an artifact written in set
        order fails here. Stdout is not compared: train prints timings."""
        argv = [str(a).format(d=rerun_inputs) for a in argv]
        runs = []
        for run, salt in (("a", "1"), ("b", "2")):
            cwd = tmp_path / run
            cwd.mkdir()
            proc = run_python("-m", "hsdenoise", *argv, cwd=cwd,
                              env={**os.environ, "PYTHONHASHSEED": salt})
            assert proc.returncode == 0, proc.stderr
            if says is not None:
                assert says in proc.stdout.splitlines()
            runs.append({str(f.relative_to(cwd)): f.read_bytes()
                         for f in sorted(cwd.rglob("*")) if f.is_file()})
        a, b = runs
        assert a and list(a) == list(b)
        for name in a:
            assert a[name], f"{name} is empty"
            assert a[name] == b[name], f"{name} differs between runs"

    def test_thread_env_accepted(self, tmp_path):
        """HSDENOISE_THREADS=1 runs fine and changes nothing numerically."""
        src, _ = make_cube(tmp_path, "clean.hsi", shape=(8, 8, 3), seed=14)
        outs = []
        for threads in ("", "1"):
            out = tmp_path / f"n{threads}.hsi"
            proc = run_python("-m", "hsdenoise", "add-noise", src, out, "--case", 1,
                              "--seed", 3, env={**os.environ, "HSDENOISE_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_package_import_applies_thread_env(self):
        """HSDENOISE_THREADS reaches the math libraries only if it is set
        before numpy loads. Importing the package, which loads no numpy,
        copies a positive count into every library's variable that is not
        already set, and copies any other value nowhere."""
        names = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"]
        code = ("import os, sys, hsdenoise\n"
                "loaded = 'numpy' in sys.modules\n"
                "import hsdenoise.cli\n"
                f"print(loaded, [os.environ.get(n) for n in {names!r}])")
        env = {n: v for n, v in os.environ.items() if n not in names}
        cases = [({"HSDENOISE_THREADS": "3"}, ["3", "3", "3", "3"]),
                 ({"HSDENOISE_THREADS": "3", "OPENBLAS_NUM_THREADS": "1"}, ["3", "1", "3", "3"]),
                 ({"HSDENOISE_THREADS": "lots"}, [None] * 4)]
        for extra, want in cases:
            proc = run_python("-c", code, env={**env, **extra})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == f"False {want}", extra

    def test_commands_run_without_scipy(self, tmp_path):
        """scipy serves only rescale augmentation: with every scipy import
        refused, gen-synthetic, add-noise, a rotate-augmented train, and
        denoise, eval and gcs with the trained weights all exit 0."""
        code = (
            "import sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "from hsdenoise.cli import main\n"
            "d = sys.argv[1]\n"
            "runs = [\n"
            "    ['gen-synthetic', '--out', f'{d}/clean.hsi', '--height', '16',\n"
            "     '--width', '16', '--bands', '8', '--seed', '4'],\n"
            "    ['add-noise', f'{d}/clean.hsi', f'{d}/noisy.hsi', '--case', '5'],\n"
            "    ['train', '--data', f'{d}/clean.hsi', '--out-dir', f'{d}/run',\n"
            "     '--policy', 'fixed', '--epochs', '1', '--width', '4', '--batch-size', '4',\n"
            "     '--patch-size', '8', '--augment', 'rotate'],\n"
            "    ['denoise', f'{d}/noisy.hsi', f'{d}/out.hsi',\n"
            "     '--weights', f'{d}/run/weights_final.q3dw'],\n"
            "    ['eval', f'{d}/out.hsi', '--clean', f'{d}/clean.hsi', '--out', f'{d}/m.csv'],\n"
            "    ['gcs', f'{d}/noisy.hsi', '--weights', f'{d}/run/weights_final.q3dw',\n"
            "     '--layer', 'first', '--out-prefix', f'{d}/g'],\n"
            "]\n"
            "for argv in runs:\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n")
        proc = run_python("-c", code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert os.path.getsize(tmp_path / "g.pgm") > 0

    def test_package_import_leaves_scipy_unloaded(self):
        """Importing every hsdenoise module loads no scipy."""
        code = ("import importlib, pkgutil, sys, hsdenoise\n"
                "for mod in pkgutil.iter_modules(hsdenoise.__path__):\n"
                "    importlib.import_module('hsdenoise.' + mod.name)\n"
                "sys.exit('scipy' in sys.modules)")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr or "scipy was imported"

    def test_bad_thread_env_rejected(self, tmp_path):
        """A HSDENOISE_THREADS that is not a positive integer exits 2 with one
        error line naming the variable and no traceback, and writes nothing."""
        proc = run_python("-m", "hsdenoise", "gen-synthetic", "--out", "lots.hsi",
                          "--height", 8, "--width", 8, "--bands", 4, cwd=tmp_path,
                          env={**os.environ, "HSDENOISE_THREADS": "lots"})
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "HSDENOISE_THREADS" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == []
