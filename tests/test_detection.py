"""Screened detection: the simulator's decisions equal the full-metric ones.

``reference_run`` is the full-metric detection loop of ``LinkSimulator.run``
as it stood before screening, kept verbatim as the oracle: for every
configuration, noise level and seed below, the screened loop must return
the identical (errors, bits, censored) triple.  The one edit since is the
stop rule's meaning of ``censored``: a run that stops decisively below
``stop_target`` is not censored, so that return reads False.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as _sfft
from scipy.signal import lfilter

from cskfde import channel as chan
from cskfde import colorimetry as col
from cskfde import config as cfgmod
from cskfde import harness, modem

_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 12)], dtype=np.int64)


def reference_run(sim, sigma, n_bits, seed, stop_target=None,
                  min_bit_errors=None, chunk_blocks=4096):
    """The full-metric loop: every row through ``received @ ct - half_norms``."""
    cfg = sim.config
    n, cp = cfg.n, cfg.cp
    points = sim.constellation.intensities.astype(sim.dtype)
    ct, half_norms = points.T.copy(), 0.5 * np.sum(points ** 2, axis=1)
    min_errors = cfg.min_bit_errors if min_bit_errors is None else min_bit_errors
    rng = chan.make_rng(seed)
    n_blocks_total = max(int(np.ceil(n_bits / (sim.k * n))), 1)
    errors = 0
    bits = 0
    zi = np.zeros((len(sim.taps) - 1, sim.n_bands), dtype=sim.dtype)
    warmup = 1
    done = 0
    while done < n_blocks_total:
        nb = int(min(chunk_blocks, n_blocks_total - done + warmup))
        tx_idx = rng.integers(0, sim.constellation.order, size=nb * n)
        tx = points[tx_idx].reshape(nb, n, sim.n_bands)
        framed = np.concatenate([tx[:, n - cp:], tx], axis=1) if cp else tx
        serial = framed.reshape(nb * (n + cp), sim.n_bands)
        dispersed, zi = lfilter(sim.taps, np.array([1.0], dtype=sim.dtype),
                                serial, axis=0, zi=zi)
        rx = dispersed @ sim.g.T
        if sigma > 0:
            rx += sigma * rng.standard_normal(rx.shape, dtype=sim.dtype)
        rx = rx @ sim.g_inv.T
        payload = rx.reshape(nb, n + cp, sim.n_bands)[:, cp:]
        if cfg.fde:
            spectrum = _sfft.rfft(payload, axis=1)
            spectrum *= sim.zfe_half[None, :, None]
            payload = _sfft.irfft(spectrum, n=n, axis=1)
        received = payload.reshape(nb * n, sim.n_bands)
        metric = received @ ct - half_norms
        det_idx = np.argmax(metric, axis=1)
        diff = sim.labels[det_idx] ^ sim.labels[tx_idx]
        if warmup:
            diff = diff[n:]
            counted = nb - 1
            warmup = 0
        else:
            counted = nb
        errors += int(_POPCOUNT[diff].sum())
        bits += counted * n * sim.k
        done += counted
        if errors >= min_errors:
            if stop_target is None:
                return errors, bits, False
            lo, hi = harness.wilson_interval(errors, bits)
            if lo > stop_target:
                return errors, bits, False
            if hi < stop_target and errors >= min_errors:
                return errors, bits, False
        elif stop_target is not None and bits > 0:
            _, hi = harness.wilson_interval(errors, bits)
            if hi < stop_target:
                return errors, bits, False
    return errors, bits, errors < min_errors


SNRS = (0.0, 8.0, 16.0, 24.0, 32.0, None)  # None: noiseless


def _assert_matches_reference(sim, seeds=(1, 2), blocks=12, chunk_blocks=5,
                              **kwargs):
    for snr in SNRS:
        sigma = 0.0 if snr is None else harness.sigma_from_snr(snr)
        for seed in seeds:
            args = (sigma, blocks * sim.config.n * sim.k, seed)
            want = reference_run(sim, *args, chunk_blocks=chunk_blocks, **kwargs)
            got = sim.run(*args, chunk_blocks=chunk_blocks, **kwargs)
            assert got == want, (snr, seed)


@pytest.mark.parametrize("dt", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("fde_on", [True, False])
@pytest.mark.parametrize("scheme,order", [("tled", 4), ("tled", 16), ("qled", 4),
                                          ("qled", 64), ("qled", 256)])
def test_screened_run_equals_full_metric(scheme, order, fde_on, dt):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=dt, fde=fde_on)
    sim = harness.LinkSimulator(cfg)
    _assert_matches_reference(sim)
    _assert_matches_reference(sim, seeds=(3,), stop_target=1e-3,
                              min_bit_errors=20)
    assert 0 < sim.suspect_rows < sim.detected_rows


@pytest.mark.parametrize("scheme,order", [("tled", 16), ("qled", 64)])
def test_screened_run_equals_full_metric_float64(scheme, order):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=1.0)
    _assert_matches_reference(harness.LinkSimulator(cfg, dtype=np.float64))


@pytest.mark.parametrize("scheme,order,fde_on", [("qled", 4, True),
                                                 ("tled", 16, False)])
def test_one_block_chunks_equal_full_metric(scheme, order, fde_on):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=1.0, fde=fde_on)
    _assert_matches_reference(harness.LinkSimulator(cfg), blocks=6,
                              chunk_blocks=1)


@pytest.mark.parametrize("slice_blocks", [1, 512])
def test_stop_in_mid_stream_equals_full_metric(monkeypatch, slice_blocks):
    """A decisive stop with the draw thread mid-chunk, and mid-slice."""
    monkeypatch.setattr(harness, "_SLICE_BLOCKS", slice_blocks)
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    n_bits = 200 * cfg.n * sim.k
    for snr, seed in ((18.0, 4), (19.0, 4), (20.0, 4)):
        args = (harness.sigma_from_snr(snr), n_bits, seed)
        kwargs = dict(stop_target=1e-3, min_bit_errors=20, chunk_blocks=7)
        got = sim.run(*args, **kwargs)
        assert got == reference_run(sim, *args, **kwargs)
        assert 6 * cfg.n * sim.k < got[1] < n_bits, (snr, got)


def test_numpy_float64_sigma_equals_full_metric():
    """A float64 sigma promotes the scaled noise, as ``sigma * draw`` does."""
    cfg = harness.ExperimentConfig(scheme="qled", order=64, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    args = (np.float64(harness.sigma_from_snr(20.0)), 12 * cfg.n * sim.k, 3)
    assert sim.run(*args, chunk_blocks=5) == reference_run(sim, *args,
                                                           chunk_blocks=5)


def test_chunk_with_exactly_one_suspect_row():
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    args = (harness.sigma_from_snr(20.0), 2 * 64 * sim.k, 10)
    got = sim.run(*args, chunk_blocks=3)
    assert (sim.detected_rows, sim.suspect_rows) == (128, 1)
    assert got == reference_run(sim, *args, chunk_blocks=3)


def test_duplicated_point_is_never_trusted():
    """Coincident points tie; their rows must take the full metric."""
    file_cfg = {"tables": {"tled": {4: [
        [[1.0, 0.0, 0.0], 1], [[0.0, 1.0, 0.0], 2],
        [[0.0, 0.0, 1.0], 3], [[0.0, 0.0, 1.0], 0]]}}}
    constellation = col.build_tled_constellation(
        4, tables=cfgmod.tled_tables_from_config(file_cfg))
    assert constellation.nearest_neighbour_distances.min() == 0.0
    trust = modem.trust_thresholds(constellation, np.float32)
    assert trust[2] == trust[3] == 0.0 and (trust[:2] > 0).all()
    cfg = harness.ExperimentConfig(scheme="tled", order=4, dt=1.0)
    sim = harness.LinkSimulator(cfg, constellation)
    _assert_matches_reference(sim)


def test_points_closer_than_the_float_bound_are_not_trusted():
    """1e-4 apart, the proven gap (5e-10) is below float32 rounding."""
    file_cfg = {"tables": {"tled": {4: [
        [[1.0, 0.0, 0.0], 1], [[0.0, 1.0, 0.0], 2],
        [[0.0, 0.0, 1.0], 3], [[0.0, 1e-4, 1.0 - 1e-4], 0]]}}}
    constellation = col.build_tled_constellation(
        4, tables=cfgmod.tled_tables_from_config(file_cfg))
    single = modem.trust_thresholds(constellation, np.float32)
    assert single[2] == single[3] == 0.0 and (single[:2] > 0).all()
    assert (modem.trust_thresholds(constellation, np.float64) > 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", [4, 16, 64, 4096])
def test_tile_metric_is_bitwise_the_full_product(order, dtype):
    """Guards against a BLAS whose rounding depends on the row count."""
    constellation = col.build_qled_constellation(order)
    ct, half_norms = modem.detection_metric(constellation, dtype)
    rng = np.random.default_rng(order)
    n_rows = 4096
    rows = (constellation.intensities[rng.integers(0, order, n_rows)]
            + 0.05 * rng.standard_normal((n_rows, 4))).astype(dtype)
    full = rows @ ct - half_norms
    for size in range(1, 81):
        subset = np.sort(rng.choice(n_rows, size, replace=False))
        got = np.empty((size, order), dtype=dtype)
        for start, stop, metric in modem.metric_tiles(rows[subset], ct, half_norms):
            got[start:stop] = metric
        assert np.array_equal(got, full[subset]), size
    np.testing.assert_array_equal(modem.nearest_points(rows, ct, half_norms),
                                  np.argmax(full, axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scheme,order", [("tled", 16), ("qled", 64), ("qled", 4096)])
def test_rows_inside_trust_radius_detect_as_their_point(scheme, order, dtype):
    """Rows just inside the trust radius of the most crowded points."""
    constellation = col.build_constellation(scheme, order)
    ct, half_norms = modem.detection_metric(constellation, dtype)
    trust = modem.trust_thresholds(constellation, dtype)
    assert (trust > 0).all()
    rng = np.random.default_rng(0)
    crowded = np.argsort(constellation.nearest_neighbour_distances)[:64]
    sent = np.repeat(crowded, 64)
    push = rng.standard_normal((len(sent), constellation.n_bands))
    push *= 0.999 * np.sqrt(trust[sent].astype(float))[:, None] / \
        np.linalg.norm(push, axis=1)[:, None]
    points = constellation.intensities.astype(dtype)
    rows = (points[sent] + push).astype(dtype)
    assert len(modem.suspect_rows(rows, points[sent], trust[sent])) == 0
    np.testing.assert_array_equal(np.argmax(rows @ ct - half_norms, axis=1), sent)


def test_suspect_rows_treats_nan_as_suspect():
    rows = np.array([[np.nan, 0.0], [0.0, 0.0], [np.inf, 0.0]])
    sent = np.zeros((3, 2))
    np.testing.assert_array_equal(
        modem.suspect_rows(rows, sent, np.ones(3)), [0, 2])


def test_qled_4096_full_chunk_in_bounded_memory():
    """A full default chunk of QLED-4096 needed an 8.6 GB metric matrix."""
    cfg = harness.ExperimentConfig(scheme="qled", order=4096, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    chunk = 4096
    tracemalloc.start()
    try:
        errors, bits, _ = sim.run(harness.sigma_from_snr(31.0),
                                  (chunk - 1) * cfg.n * sim.k, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.detected_rows == (chunk - 1) * cfg.n
    assert bits == (chunk - 1) * cfg.n * sim.k and errors > 0
    assert peak < 512 * 2 ** 20, peak


def test_nearest_neighbour_distances_cached_and_brute_force_exact():
    c = col.build_tled_constellation(16)
    nn = c.nearest_neighbour_distances
    assert nn is c.nearest_neighbour_distances
    d = np.linalg.norm(c.intensities[:, None] - c.intensities[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    np.testing.assert_allclose(nn, d.min(axis=1), rtol=1e-12)
