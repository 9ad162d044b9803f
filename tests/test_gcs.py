"""Tests for the band-contribution diagnostics."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from reference_impls import bands_first_copy, gcs_csv_per_cell, phi
from hsdenoise import gcs
from hsdenoise.gcs import (
    GcsMatrix,
    gcs_matrix,
    gcs_to_csv,
    pooling_traces,
    relative_bands,
    values_to_pgm,
)
from hsdenoise.network import build_network, desk_config, standard_config
from hsdenoise.qru import BACKWARD, FORWARD, PoolingTrace, qru_pool_forward
from hsdenoise.tensors import ConfigError


def random_trace(n_bands, direction=FORWARD, seed=0, shape=(1, 2, 3, 3)):
    """A consistent trace: random z and f with h from the real recurrence."""
    rng = np.random.default_rng(seed)
    z = np.tanh(rng.normal(size=shape + (n_bands,)))
    f = 1.0 / (1.0 + np.exp(-rng.normal(size=shape + (n_bands,))))
    h = qru_pool_forward(z, f, direction)
    return PoolingTrace(z, f, h, direction)


def assert_matches_phi(tr, m):
    """Every cell and exclusion count of m against fresh per-cell phi
    products in float64; absent cells must be NaN."""
    wide = PoolingTrace(*(np.asarray(a, np.float64) for a in (tr.z, tr.f, tr.h)),
                        tr.direction)
    n, h_numel = m.n_bands, wide.h[..., 0].size
    for j in range(1, n + 1):
        include = np.abs(wide.h[..., j - 1]) >= m.eps
        assert m.excluded[j - 1] == h_numel - np.count_nonzero(include)
        for i in range(1, n + 1):
            upstream = i <= j if tr.direction == FORWARD else i >= j
            if not (upstream and include.any()):
                assert np.isnan(m.values[i - 1, j - 1])
                continue
            ratio = phi(wide, i, j)[include] / wide.h[..., j - 1][include]
            want = np.sqrt(np.sum(ratio * ratio))
            assert m.values[i - 1, j - 1] == pytest.approx(want, rel=1e-10, abs=0)


class TestPhi:
    def test_diagonal_is_gated_candidate(self):
        """phi(j, j) is the empty gate product times (1 - f_j) z_j."""
        tr = random_trace(5, seed=1)
        for j in (1, 3, 5):
            want = (1.0 - tr.f[..., j - 1]) * tr.z[..., j - 1]
            assert np.array_equal(phi(tr, j, j), want)

    def test_zero_gate_kills_cross_terms(self):
        """With f identically zero only the diagonal survives."""
        tr = random_trace(4, seed=2)
        tr = PoolingTrace(tr.z, np.zeros_like(tr.f),
                          qru_pool_forward(tr.z, np.zeros_like(tr.f), FORWARD),
                          FORWARD)
        assert np.all(phi(tr, 1, 4) == 0.0)
        assert np.array_equal(phi(tr, 4, 4), tr.z[..., 3])

    def test_contributions_sum_to_hidden_state(self):
        """Summing phi over contributors reconstructs h_j, both directions."""
        for direction in (FORWARD, BACKWARD):
            tr = random_trace(7, direction=direction, seed=3)
            for j in range(1, 8):
                if direction == FORWARD:
                    contributors = range(1, j + 1)
                else:
                    contributors = range(j, 8)
                total = sum(phi(tr, i, j) for i in contributors)
                assert np.allclose(total, tr.h[..., j - 1], atol=1e-5)

    def test_order_violation_rejected(self):
        """Indices against the walk direction are errors, as are bad ranges."""
        fwd = random_trace(4, FORWARD, seed=4)
        bwd = random_trace(4, BACKWARD, seed=4)
        with pytest.raises(ValueError):
            phi(fwd, 3, 2)
        with pytest.raises(ValueError):
            phi(bwd, 2, 3)
        with pytest.raises(ValueError):
            phi(fwd, 0, 2)
        with pytest.raises(ValueError):
            phi(fwd, 1, 5)

    def test_backward_mirrors_reversed_forward(self):
        """A backward walk equals a forward walk on band-reversed tensors."""
        tr = random_trace(6, FORWARD, seed=5)
        zr = tr.z[..., ::-1].copy()
        fr = tr.f[..., ::-1].copy()
        rev = PoolingTrace(zr, fr, qru_pool_forward(zr, fr, BACKWARD), BACKWARD)
        n = 6
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert np.array_equal(phi(tr, i, j), phi(rev, n + 1 - i, n + 1 - j))


class TestGcsMatrix:
    def test_single_band_norm_of_ones(self):
        """With one band the ratio is identically 1, so the norm is sqrt(n)."""
        rng = np.random.default_rng(6)
        z = 0.5 + 0.4 * rng.random((1, 2, 3, 3, 1))
        f = 1.0 / (1.0 + np.exp(-rng.normal(size=z.shape)))
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD)
        m = gcs_matrix(tr)
        assert m.values[0, 0] == pytest.approx(np.sqrt(m.h_numel), rel=1e-12)
        assert m.excluded[0] == 0

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_same_bytes_either_layout(self, direction):
        """A band-last and a bands-first copy of one trace (30 bands: one
        full block and a partial one) give the same cells."""
        tr = random_trace(30, direction, seed=9, shape=(2, 3, 4, 5))
        tr.h[0, 1, 2, 3, 4] = 0.0
        other = PoolingTrace(*(bands_first_copy(a) for a in (tr.z, tr.f, tr.h)), direction)
        a, b = gcs_matrix(tr), gcs_matrix(other)
        assert a.values.tobytes() == b.values.tobytes()
        np.testing.assert_array_equal(a.excluded, b.excluded)
        assert a.excluded.sum() == 1

    def test_backward_is_flipped_forward_bytes(self):
        """A backward trace's matrix, over two blocks and with exclusions, is
        the forward matrix of the band-flipped trace flipped on both axes,
        byte for byte, and so are its exclusion counts."""
        tr = random_trace(gcs._BLOCK_BANDS + 6, BACKWARD, seed=22)
        flipped = PoolingTrace(*(np.flip(a, -1) for a in (tr.z, tr.f, tr.h)), FORWARD)
        got, want = gcs_matrix(tr, eps=0.05), gcs_matrix(flipped, eps=0.05)
        assert got.excluded.sum() > 0
        assert got.values.tobytes() == want.values[::-1, ::-1].tobytes()
        assert got.excluded.tobytes() == want.excluded[::-1].tobytes()

    def test_forward_triangle_defined(self):
        """Forward traces define i <= j and leave the rest absent."""
        m = gcs_matrix(random_trace(5, FORWARD, seed=7))
        for i in range(5):
            for j in range(5):
                assert m.defined()[i, j] == (i <= j)
        vals = m.values[m.defined()]
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_backward_triangle_defined(self):
        """Backward traces define i >= j."""
        m = gcs_matrix(random_trace(5, BACKWARD, seed=8))
        for i in range(5):
            for j in range(5):
                assert m.defined()[i, j] == (i >= j)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_matches_direct_phi_route(self, direction, dtype):
        """Every cell and exclusion count agrees with fresh per-cell phi
        products, with one walk step whose h is partly below eps and one
        where all of it is."""
        n = 13
        rng = np.random.default_rng(9)
        z = np.tanh(rng.normal(size=(1, 2, 3, 3, n)))
        f = 1.0 / (1.0 + np.exp(-rng.normal(size=z.shape)))
        order = list(range(n)) if direction == FORWARD else list(range(n - 1, -1, -1))
        partly, fully = order[4], order[8]
        # A zero gate and candidate zero h there, whatever came before.
        z[0, 0, ..., partly] = f[0, 0, ..., partly] = 0.0
        z[..., fully] = f[..., fully] = 0.0
        z, f = z.astype(dtype), f.astype(dtype)
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, direction), direction)
        m = gcs_matrix(tr)
        wide = PoolingTrace(*(a.astype(np.float64) for a in (tr.z, tr.f, tr.h)), direction)
        h_numel = z[..., 0].size
        assert m.excluded[partly] == h_numel // 2
        assert m.excluded[fully] == h_numel
        for j in range(1, n + 1):
            include = np.abs(wide.h[..., j - 1]) >= m.eps
            assert m.excluded[j - 1] == h_numel - np.count_nonzero(include)
            for i in range(1, n + 1):
                if order.index(i - 1) > order.index(j - 1) or not include.any():
                    assert np.isnan(m.values[i - 1, j - 1])
                    continue
                ratio = phi(wide, i, j)[include] / wide.h[..., j - 1][include]
                want = np.sqrt(np.sum(ratio * ratio))
                assert m.values[i - 1, j - 1] == pytest.approx(want, rel=1e-10, abs=0)

    def test_non_finite_element_stays_excluded(self):
        """A NaN candidate poisons h from its band on, so eps excludes that
        element there; it spoils no cell, as with the per-cell ratio."""
        n = 6
        tr = random_trace(n, FORWARD, seed=27)
        z = tr.z.copy()
        z[0, 1, 2, 0, 2] = np.nan
        tr = PoolingTrace(z, tr.f, qru_pool_forward(z, tr.f, FORWARD), FORWARD)
        m = gcs_matrix(tr)
        assert m.excluded.tolist() == [0, 0, 1, 1, 1, 1]
        for j in range(1, n + 1):
            include = np.abs(tr.h[..., j - 1]) >= m.eps
            for i in range(1, j + 1):
                ratio = phi(tr, i, j)[include] / tr.h[..., j - 1][include]
                want = np.sqrt(np.sum(ratio * ratio))
                assert m.values[i - 1, j - 1] == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("block", [1, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_blocked_walk_matches_direct_phi_route(self, monkeypatch, direction, dtype,
                                                   block):
        """Blocks of 1, 4 and 5 bands over 13 bands (the last block ragged)
        agree with per-cell phi products, with a partly and a fully
        excluded band in blocks past the first."""
        monkeypatch.setattr(gcs, "_BLOCK_BANDS", block)
        n = 13
        rng = np.random.default_rng(31)
        z = np.tanh(rng.normal(size=(1, 2, 3, 3, n)))
        f = 1.0 / (1.0 + np.exp(-rng.normal(size=z.shape)))
        order = list(range(n)) if direction == FORWARD else list(range(n - 1, -1, -1))
        partly, fully = order[6], order[11]
        z[0, 0, ..., partly] = f[0, 0, ..., partly] = 0.0
        z[..., fully] = f[..., fully] = 0.0
        z, f = z.astype(dtype), f.astype(dtype)
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, direction), direction)
        m = gcs_matrix(tr)
        assert m.excluded[partly] == m.h_numel // 2
        assert m.excluded[fully] == m.h_numel
        assert_matches_phi(tr, m)

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_non_finite_candidate_spoils_no_later_block(self, monkeypatch, direction):
        """A NaN candidate in the first block of four is excluded from every
        later cell: each defined cell stays finite and matches phi."""
        monkeypatch.setattr(gcs, "_BLOCK_BANDS", 4)
        n = 13
        tr = random_trace(n, direction, seed=32)
        band = 1 if direction == FORWARD else n - 2
        z = tr.z.copy()
        z[0, 1, 2, 0, band] = np.nan
        tr = PoolingTrace(z, tr.f, qru_pool_forward(z, tr.f, direction), direction)
        m = gcs_matrix(tr)
        walked = [0] + [1] * (n - 1)
        assert m.excluded.tolist() == (walked if direction == FORWARD else walked[::-1])
        assert np.all(np.isfinite(m.values[m.defined()]))
        assert_matches_phi(tr, m)

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_underflow_across_blocks_reads_zero(self, monkeypatch, direction):
        """Gates near 1e-30 shrink a squared contribution by ~1e-60 per band:
        up to five bands apart cells match phi, from six apart (across
        blocks of four) they underflow to exactly 0.0, never to NaN."""
        monkeypatch.setattr(gcs, "_BLOCK_BANDS", 4)
        n = 13
        rng = np.random.default_rng(33)
        z = 0.5 + 0.4 * rng.random((1, 2, 3, 3, n))
        f = 1e-30 * (0.5 + rng.random(z.shape))
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, direction), direction)
        m = gcs_matrix(tr)
        rows, cols = np.indices((n, n))
        apart = cols - rows if direction == FORWARD else rows - cols
        assert np.array_equal(m.defined(), apart >= 0)
        assert np.all(m.values[apart >= 6] == 0.0)
        assert np.all(m.values[(apart >= 0) & (apart <= 5)] > 0.0)
        assert_matches_phi(tr, m)

    def test_gcs_matrix_allocation_bound(self):
        """On 220 float32 bands, the traced peak stays within its three
        float64 (bands, numel) rows, the include mask, the output and two
        blocks of K rows, plus 10 percent."""
        n, shape = 220, (1, 4, 16, 16)
        tr = random_trace(n, FORWARD, seed=34, shape=shape)
        tr = PoolingTrace(*(a.astype(np.float32) for a in (tr.z, tr.f, tr.h)), FORWARD)
        numel = int(np.prod(shape))
        bound = 1.1 * (3 * 8 * n * numel + n * numel + 8 * n * n
                       + 2 * 8 * gcs._BLOCK_BANDS * numel)
        tracemalloc.start()
        try:
            gcs_matrix(tr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_gcs_matrix_holds_one_float64_copy(self):
        """On 220 float32 bands the walk holds one float64 (bands, numel)
        array, the c rows; the gates and hidden states are cast one block
        at a time. Its traced peak stays within two such arrays."""
        n, shape = 220, (1, 4, 16, 16)
        tr = random_trace(n, FORWARD, seed=34, shape=shape)
        tr = PoolingTrace(*(a.astype(np.float32) for a in (tr.z, tr.f, tr.h)), FORWARD)
        rows_bytes = 8 * n * int(np.prod(shape))
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gcs_matrix(tr)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rows_bytes, f"peak {peak / rows_bytes:.2f} float64 copies"

    def test_epsilon_exclusion_counted(self):
        """Near-zero hidden elements drop out of the norm and are counted."""
        z = np.full((1, 1, 2, 2, 1), 0.5)
        z[0, 0, 0, 0, 0] = 0.0
        f = np.full_like(z, 0.5)
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD)
        m = gcs_matrix(tr)
        assert m.excluded[0] == 1
        assert m.values[0, 0] == pytest.approx(np.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan"), float("inf")])
    def test_nonpositive_epsilon_rejected(self, eps):
        """Without a positive threshold, |h| == 0 would enter the ratio."""
        z = np.zeros((1, 1, 2, 2, 1))
        f = np.full_like(z, 0.5)
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD)
        with pytest.raises(ConfigError, match="eps must be positive"):
            gcs_matrix(tr, eps=eps)

    def test_degenerate_hidden_state_absent(self):
        """An all-zero hidden state yields an absent entry, not zero."""
        z = np.zeros((1, 1, 2, 2, 1))
        f = np.full_like(z, 0.5)
        tr = PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD)
        m = gcs_matrix(tr)
        assert np.isnan(m.values[0, 0])
        assert m.excluded[0] == m.h_numel


class TestRelativeBands:
    def test_single_band_counts_itself(self):
        """A nondegenerate one-band trace has exactly one relative band."""
        rng = np.random.default_rng(10)
        z = 0.5 + 0.4 * rng.random((1, 1, 3, 3, 1))
        f = np.full_like(z, 0.3)
        m = gcs_matrix(PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD))
        total, fwd, bwd = relative_bands(m.values, m.h_numel)
        assert total.tolist() == [1]
        assert fwd.tolist() == [0]
        assert bwd.tolist() == [0]

    def test_zero_gate_isolates_bands(self):
        """With f identically zero each band is its own only contributor."""
        rng = np.random.default_rng(11)
        z = 0.5 + 0.4 * rng.random((1, 1, 3, 3, 4))
        f = np.zeros_like(z)
        m = gcs_matrix(PoolingTrace(z, f, qru_pool_forward(z, f, FORWARD), FORWARD))
        total, fwd, _ = relative_bands(m.values, m.h_numel)
        assert total.tolist() == [1, 1, 1, 1]
        assert fwd.tolist() == [0, 0, 0, 0]

    def test_counts_bounded_and_split_consistent(self):
        """Counts never exceed the band count; splits add up with diagonal."""
        m = gcs_matrix(random_trace(8, FORWARD, seed=12))
        total, fwd, bwd = relative_bands(m.values, m.h_numel)
        diag = (np.diag(m.values) >= 0.1 * np.sqrt(m.h_numel)).astype(np.int64)
        assert np.all(total <= 8)
        assert np.array_equal(total, fwd + bwd + diag)

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_absent_cells_never_count(self, direction):
        """Absent (NaN) cells count nowhere: with every defined cell set to
        the threshold, only the direction's triangle counts, less an
        all-absent band."""
        m = gcs_matrix(random_trace(6, direction, seed=13))
        values = m.values.copy()
        values[:, 2] = np.nan
        defined = ~np.isnan(values)
        total, fwd, bwd = relative_bands(np.where(defined, 1.0, values), 100)
        assert total.tolist() == defined.sum(axis=0).tolist()
        side, empty = (fwd, bwd) if direction == FORWARD else (bwd, fwd)
        assert side.tolist() == ([0, 1, 0, 3, 4, 5] if direction == FORWARD else [5, 4, 0, 2, 1, 0])
        assert empty.tolist() == [0] * 6


class TestNetworkExtraction:
    def test_first_layer_traces(self):
        """A bidirectional first layer yields one trace per branch."""
        model = build_network(desk_config(width=4, n_layers=3), seed=18)
        x = np.random.default_rng(19).standard_normal((1, 1, 6, 6, 4)).astype(np.float32)
        _, net_traces = model.forward(x, keep_traces=True)
        branches = pooling_traces(net_traces, 0)
        assert [t.direction for t in branches] == [FORWARD, BACKWARD]
        for t in branches:
            m = gcs_matrix(t)
            assert m.n_bands == 4

    def test_layer_out_of_range(self):
        """Bad layer indices are rejected."""
        model = build_network(desk_config(width=4, n_layers=3), seed=20)
        x = np.zeros((1, 1, 6, 6, 4), dtype=np.float32)
        _, net_traces = model.forward(x, keep_traces=True)
        with pytest.raises(ConfigError):
            pooling_traces(net_traces, 3)


class TestLayerMatrices:
    @pytest.mark.parametrize("layer", [0, 5, 11])
    def test_matches_full_forward_traces(self, layer):
        """On the standard net, layer_matrices gives, byte for byte, the
        matrices of that layer's traces in the full traced pass: the
        bidirectional ends and a one-direction deep layer."""
        model = build_network(standard_config(), seed=3)
        cube = np.random.default_rng(22).random((8, 8, 6)).astype(np.float32)
        got = gcs.layer_matrices(model, cube, layer)
        _, traces = model.forward(cube[np.newaxis, np.newaxis], keep_traces=True)
        want = [gcs_matrix(t) for t in pooling_traces(traces, layer)]
        assert [m.direction for m in got] == [m.direction for m in want]
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
            assert g.excluded.tobytes() == w.excluded.tobytes()
            assert g.h_numel == w.h_numel

    @pytest.mark.parametrize("layer", [0, 2, 4, 11])
    def test_non_dividing_cube_is_padded_then_cropped(self, layer):
        """A 10x7 cube runs reflect-padded to 12x8, and each matrix equals,
        byte for byte, gcs_matrix of that layer's trace in the padded full
        traced pass, cropped to ceil(10 h_k / 12) x ceil(7 w_k / 8): the
        full-resolution, stride-2, stride-4 and last layers."""
        model = build_network(standard_config(), seed=3)
        cube = np.random.default_rng(23).random((10, 7, 6)).astype(np.float32)
        got = gcs.layer_matrices(model, cube, layer)
        padded = np.pad(cube, ((0, 2), (0, 1), (0, 0)), "reflect")
        _, traces = model.forward(padded[np.newaxis, np.newaxis], keep_traces=True)
        want = []
        for t in pooling_traces(traces, layer):
            hc, wc = (int(np.ceil(n * k / p)) for n, k, p in zip((10, 7), t.h.shape[2:4], (12, 8)))
            want.append(gcs_matrix(PoolingTrace(t.z[:, :, :hc, :wc], t.f[:, :, :hc, :wc],
                                                t.h[:, :, :hc, :wc], t.direction)))
            assert want[-1].h_numel == t.h.shape[1] * hc * wc
        assert [m.direction for m in got] == [m.direction for m in want]
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
            assert g.excluded.tobytes() == w.excluded.tobytes()
            assert g.h_numel == w.h_numel

    @pytest.mark.parametrize("case, layer, eps, message", [
        ("qru3d", 0, float("nan"), "eps must be positive and finite, got nan"),
        ("c3d", 1, 1e-6, "layer 2 has no pooling recurrence"),
        ("standard", 12, 1e-6, r"layer 12 outside 0\.\.11"),
        ("standard", -1, 1e-6, r"layer -1 outside 0\.\.11"),
    ], ids=["eps", "c3d", "past-last", "negative"])
    def test_bad_request_fails_before_any_layer(self, monkeypatch, case, layer, eps, message):
        """A bad eps, a layer without a recurrence, or a layer outside the
        net (a negative one does not wrap to the last) raises ConfigError
        before any layer runs."""
        import hsdenoise.network as network
        import hsdenoise.qru as qru

        def no_run(self, *args, **kwargs):
            raise AssertionError("a layer ran")

        monkeypatch.setattr(network.Model, "unit_input", no_run)
        monkeypatch.setattr(qru.QruUnit, "direction_traces", no_run)
        config = standard_config() if case == "standard" else desk_config(width=4, kind=case)
        model = build_network(config, seed=1)
        cube = np.full((8, 8, 4), 0.5, dtype=np.float32)
        with pytest.raises(ConfigError, match=message):
            gcs.layer_matrices(model, cube, layer, eps)


class TestEmitters:
    def test_csv_round_trip(self):
        """The CSV keeps metadata comments and parseable matrix cells."""
        m = gcs_matrix(random_trace(4, FORWARD, seed=21))
        text = gcs_to_csv(m)
        lines = text.splitlines()
        assert lines[0] == "# direction: forward"
        assert lines[2] == f"# h_numel: {m.h_numel}"
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(body))))
        assert rows[0] == ["band", "1", "2", "3", "4"]
        assert rows[2][1] == ""
        assert float(rows[1][1]) == pytest.approx(m.values[0, 0], rel=1e-6)

    def test_csv_exact_text(self):
        """Absent, tiny, huge and ordinary cells render byte for byte."""
        values = np.array([[0.1, 2.0 / 3.0, 1e-300],
                           [np.nan, 123456789.0, 0.0],
                           [np.nan, np.nan, 1e300]])
        m = GcsMatrix(values, "forward", 18, np.array([0, 3, 18]), 1e-6)
        assert gcs_to_csv(m) == (
            "# direction: forward\n"
            "# eps: 1e-06\n"
            "# h_numel: 18\n"
            "# excluded: 0,3,18\n"
            "band,1,2,3\n"
            "1,0.1,0.66666667,1e-300\n"
            "2,,1.2345679e+08,0\n"
            "3,,,1e+300\n"
        )

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_csv_matches_per_cell_formatter(self, direction):
        """Rows whose defined cells are one run (one format each) and rows
        with a gap (cell by cell) render byte for byte as the per-cell
        formatter: either triangle, an all-NaN column inside the span (a band
        with nothing kept), an inf cell and an all-NaN row."""
        rng = np.random.default_rng(27)
        n = 9
        values = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.integers(-12, 12, (n, n))
        upper = np.triu(np.ones((n, n), dtype=bool))
        values[~(upper if direction == FORWARD else upper.T)] = np.nan
        values[:, 4] = np.nan
        values[2, 6 if direction == FORWARD else 0] = np.inf
        values[7] = np.nan
        m = GcsMatrix(values, direction, 18, np.arange(n), 1e-6)
        assert gcs_to_csv(m) == gcs_csv_per_cell(values, direction, 18, np.arange(n), 1e-6)

    def test_pgm_layout(self):
        """PGM output is binary P5 with one byte per matrix cell."""
        m = gcs_matrix(random_trace(3, FORWARD, seed=22))
        blob = values_to_pgm(m.values)
        assert blob.startswith(b"P5\n3 3\n255\n")
        payload = blob[len(b"P5\n3 3\n255\n"):]
        assert len(payload) == 9
        assert max(payload) == 255
