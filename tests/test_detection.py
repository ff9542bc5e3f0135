"""Screened detection: the simulator's decisions equal the full-metric ones.

``reference_run`` is the full-metric detection loop of ``LinkSimulator.run``
as it stood before screening, kept verbatim as the oracle: for every
configuration, noise level and seed below, the screened loop must return
the identical (errors, bits, censored) triple.  The one edit since is the
stop rule's meaning of ``censored``: a run that stops decisively below
``stop_target`` is not censored, so that return reads False.
"""

import concurrent.futures
import dataclasses
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft as _sfft
import scipy.spatial
from scipy.signal import lfilter
from scipy.spatial import cKDTree

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
                              snrs=SNRS, alongside=None, **kwargs):
    """Returns the runs' (errors, bits, censored) triples."""
    runs = []
    for snr in snrs:
        sigma = 0.0 if snr is None else harness.sigma_from_snr(snr)
        for seed in seeds:
            args = (sigma, blocks * sim.config.n * sim.k, seed)
            want = reference_run(sim, *args, chunk_blocks=chunk_blocks, **kwargs)
            got = sim.run(*args, chunk_blocks=chunk_blocks,
                          alongside=alongside, **kwargs)
            assert got == want, (snr, seed)
            runs.append(got)
    return runs


@pytest.mark.parametrize("dt", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("fde_on", [True, False])
@pytest.mark.parametrize("scheme,order", [("tled", 4), ("tled", 16), ("qled", 4),
                                          ("qled", 64), ("qled", 256)])
def test_screened_run_equals_full_metric(suspect_counts, scheme, order,
                                        fde_on, dt):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=dt, fde=fde_on)
    sim = harness.LinkSimulator(cfg)
    _assert_matches_reference(sim)
    _assert_matches_reference(sim, seeds=(3,), stop_target=1e-3,
                              min_bit_errors=20)
    screened, suspects = np.sum(suspect_counts, axis=0)
    assert 0 < suspects < screened


@pytest.mark.parametrize("slice_blocks", [2, 512])
@pytest.mark.parametrize("scheme,order,fde_on,dt,dtype", [
    ("qled", 16, True, 1.0, np.float32), ("tled", 16, False, 0.1, np.float32),
    ("qled", 64, True, 1.0, np.float64)])
def test_serial_run_equals_full_metric(monkeypatch, started_threads,
                                       slice_blocks, scheme, order, fde_on,
                                       dt, dtype):
    """The serial schedule, which side-by-side curve points take, on the
    calling thread: multi-chunk runs with several tiles a chunk in one
    reused noise buffer (two-block tiles; the last tile of a five-block
    chunk is one block), noiseless runs, runs censored on their budget,
    stops decisively above and below ``stop_target``, and one-tile runs."""
    monkeypatch.setattr(harness, "_SLICE_BLOCKS", slice_blocks)
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=dt,
                                   fde=fde_on)
    sim = harness.LinkSimulator(cfg, dtype=dtype)
    budget = 12 * cfg.n * sim.k
    curve = threading.Event()  # a side-by-side curve's, never set here
    runs = _assert_matches_reference(sim, alongside=curve)
    # errors counted past the first chunk's 4 counted blocks
    assert any(errors and bits > 4 * cfg.n * sim.k for errors, bits, _ in runs)
    censored = _assert_matches_reference(sim, snrs=(24.0, 32.0, None),
                                         min_bit_errors=1 << 62, alongside=curve)
    assert all(bits == budget and flag for _, bits, flag in censored)
    # 0 errors are decisively below 1e-3 from 3842 bits on
    stops = _assert_matches_reference(sim, seeds=(3,), blocks=60,
                                      snrs=(0.0, 32.0), stop_target=1e-3,
                                      min_bit_errors=20, alongside=curve)
    (above_e, above_n, _), (below_e, below_n, _) = stops
    assert above_n < 5 * budget and harness.wilson_interval(above_e, above_n)[0] > 1e-3
    assert below_n < 5 * budget and harness.wilson_interval(below_e, below_n)[1] < 1e-3
    _assert_matches_reference(sim, blocks=1, chunk_blocks=4096, alongside=curve)
    assert started_threads == []


@pytest.mark.parametrize("scheme,order", [("tled", 16), ("qled", 64)])
def test_screened_run_equals_full_metric_float64(scheme, order):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=1.0)
    _assert_matches_reference(harness.LinkSimulator(cfg, dtype=np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fde_on,dt", [(True, 1.0), (True, 0.1), (False, 0.1)])
@pytest.mark.parametrize("order", [1024, 4096])
def test_listed_run_equals_full_metric(metric_rows, suspect_counts, order,
                                       fde_on, dt, dtype):
    """At large orders the suspects are decided among neighbour lists, and
    only the rows the lists cannot prove reach the full metric.  At 0 and
    16 dB nearly every row lies beyond its list's reach and takes the full
    metric; from 24 dB on most suspects are proven."""
    cfg = harness.ExperimentConfig(scheme="qled", order=order, dt=dt,
                                   fde=fde_on)
    sim = harness.LinkSimulator(cfg, dtype=dtype)
    _assert_matches_reference(sim, seeds=(1, 2, 3), snrs=(0.0, 16.0))
    metric_rows.clear()
    suspect_counts.clear()
    snrs = (24.0, 26.0, 28.0, 32.0)
    _assert_matches_reference(sim, seeds=(1, 2, 3), snrs=snrs)
    _assert_matches_reference(sim, seeds=(4,), snrs=snrs, stop_target=1e-3,
                              min_bit_errors=20)
    _, suspects = np.sum(suspect_counts, axis=0)
    assert 0 < sum(metric_rows) < suspects
    assert sim._neighbours is not None


def test_noiseless_run_builds_no_lists(metric_rows):
    """The lists are built by the first run with noise, not before."""
    cfg = harness.ExperimentConfig(scheme="qled", order=4096, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    _assert_matches_reference(sim, snrs=(None,))
    assert sim._neighbours is None
    _assert_matches_reference(sim, snrs=(30.0,))
    assert sim._neighbours is not None


def test_small_orders_build_no_lists(metric_rows, suspect_counts):
    """Below M = 1024 exactly the suspects reach the full metric, also when
    most rows but not all are suspects (20 dB).  The runs end on their bit
    budget, so every row screened is a row counted."""
    cfg = harness.ExperimentConfig(scheme="qled", order=256, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    runs = _assert_matches_reference(sim, snrs=(20.0,), min_bit_errors=1 << 62)
    screened, suspects = np.sum(suspect_counts, axis=0)
    assert screened * sim.k == sum(bits for _, bits, _ in runs)
    assert 0.8 * screened < suspects < screened
    _assert_matches_reference(sim, snrs=(24.0,), min_bit_errors=1 << 62)
    _, suspects = np.sum(suspect_counts, axis=0)
    assert sim._neighbours is None and sum(metric_rows) == suspects


@pytest.mark.parametrize("scheme,order,fde_on", [("qled", 4, True),
                                                 ("tled", 16, False)])
def test_one_block_chunks_equal_full_metric(scheme, order, fde_on):
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=1.0, fde=fde_on)
    _assert_matches_reference(harness.LinkSimulator(cfg), blocks=6,
                              chunk_blocks=1)


@pytest.mark.parametrize("slice_blocks", [1, 512])
def test_stop_in_mid_stream_equals_full_metric(monkeypatch, tile_threads,
                                               slice_blocks):
    """A decisive stop with the draw thread mid-chunk, and mid-slice; with
    one-block slices both threads run tiles of the chunks.  A chunk of one
    tile may be run by either thread, the worker's ahead of time."""
    monkeypatch.setattr(harness, "_SLICE_BLOCKS", slice_blocks)
    ran_on = tile_threads(delay=0.001)
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    n_bits = 200 * cfg.n * sim.k
    for snr, seed in ((18.0, 4), (19.0, 4), (20.0, 4)):
        args = (harness.sigma_from_snr(snr), n_bits, seed)
        kwargs = dict(stop_target=1e-3, min_bit_errors=20, chunk_blocks=7)
        got = sim.run(*args, **kwargs)
        assert got == reference_run(sim, *args, **kwargs)
        assert 6 * cfg.n * sim.k < got[1] < n_bits, (snr, got)
    if slice_blocks == 1:
        assert {who for who, _ in ran_on} == {"caller", "worker"}


@pytest.mark.parametrize("slice_blocks,chunk_blocks", [(1, 5), (2, 7), (2, 6)])
@pytest.mark.parametrize("fde_on,dtype", [(True, np.float32),
                                          (False, np.float32),
                                          (True, np.float64)])
def test_tiles_run_by_both_threads_equal_full_metric(
        monkeypatch, tile_threads, slice_blocks, chunk_blocks, fde_on, dtype):
    monkeypatch.setattr(harness, "_SLICE_BLOCKS", slice_blocks)
    ran_on = tile_threads(delay=0.001)
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0, fde=fde_on)
    sim = harness.LinkSimulator(cfg, dtype=dtype)
    _assert_matches_reference(sim, chunk_blocks=chunk_blocks)
    _assert_matches_reference(sim, seeds=(3,), chunk_blocks=chunk_blocks,
                              stop_target=1e-3, min_bit_errors=20)
    assert {who for who, _ in ran_on} == {"caller", "worker"}


@pytest.mark.parametrize("snr", [None, 16.0])
def test_worker_run_warmup_tile_equals_full_metric(monkeypatch, tile_threads,
                                                   snr):
    """The caller is held as it queues the second chunk, so the worker takes
    the tiles of the first, the warm-up block with them."""
    monkeypatch.setattr(harness, "_SLICE_BLOCKS", 2)
    ran_on = tile_threads(delay=0.0)
    queued = []

    class HeldPool(ThreadPoolExecutor):
        """Holds the caller as it queues the second chunk's indices."""

        def submit(self, fn, *args, **kwargs):
            if getattr(fn, "__name__", None) == "integers":
                queued.append(None)
                if len(queued) == 2:
                    time.sleep(0.2)
            return super().submit(fn, *args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldPool)
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    args = (0.0 if snr is None else harness.sigma_from_snr(snr),
            12 * cfg.n * sim.k, 5)
    assert sim.run(*args, chunk_blocks=5) == reference_run(sim, *args,
                                                           chunk_blocks=5)
    assert ("worker", cfg.n) in ran_on


@pytest.mark.parametrize("snr", [31.0, None])
def test_one_tile_run_starts_no_thread_and_equals_full_metric(started_threads,
                                                              snr):
    """A QLED-4096 point of 196608 bits is 257 blocks with the warm-up, one
    tile: it takes the serial loop, with noise at 31 dB and noiseless as a
    loopback."""
    cfg = harness.ExperimentConfig(scheme="qled", order=4096, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    args = (0.0 if snr is None else harness.sigma_from_snr(snr), 196608, 1)
    got = sim.run(*args)
    assert started_threads == []
    assert got == reference_run(sim, *args)
    assert got[0] > 0 if snr else got[0] == 0


def test_numpy_float64_sigma_equals_full_metric():
    """A numpy float64 sigma gives the noise of the same sigma as a Python
    float, in the simulator's dtype."""
    cfg = harness.ExperimentConfig(scheme="qled", order=64, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    sigma, rest = np.float64(harness.sigma_from_snr(20.0)), (12 * cfg.n * sim.k, 3)
    assert sim.run(sigma, *rest, chunk_blocks=5) == reference_run(
        sim, float(sigma), *rest, chunk_blocks=5)


def test_chunk_with_exactly_one_suspect_row(suspect_counts):
    cfg = harness.ExperimentConfig(scheme="qled", order=16, dt=1.0)
    sim = harness.LinkSimulator(cfg)
    args = (harness.sigma_from_snr(20.0), 2 * 64 * sim.k, 10)
    got = sim.run(*args, chunk_blocks=3)
    assert suspect_counts == [(128, 1)] and got[1] == 128 * sim.k
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
    assert bits == (chunk - 1) * cfg.n * sim.k and errors > 0
    assert peak < 512 * 2 ** 20, peak


def _tree_distances(points):
    return cKDTree(points).query(points, k=2)[0][:, 1]


def _no_tree(points):
    raise AssertionError("the tree search ran")


def test_nearest_neighbour_distances_cached_and_brute_force_exact(monkeypatch):
    c = col.build_tled_constellation(16)
    nn = c.nearest_neighbour_distances
    assert nn is c.nearest_neighbour_distances
    d = np.linalg.norm(c.intensities[:, None] - c.intensities[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    np.testing.assert_array_equal(nn, d.min(axis=1))
    # the pairwise search below col._TREE_MIN_ORDER points and the tree from
    # it give the tree's distances bit for bit, so the trust thresholds too
    coincident = dataclasses.replace(
        c, intensities=np.repeat(c.intensities[:8], 2, axis=0))
    assert not coincident.nearest_neighbour_distances.any()
    shipped = [col.build_constellation(col.TLED, m) for m in col.TLED_ORDERS]
    shipped += [col.build_constellation(col.QLED, m) for m in col.QLED_ORDERS]
    assert min(x.order for x in shipped) < col._TREE_MIN_ORDER \
        <= max(x.order for x in shipped)
    for x in shipped + [coincident]:
        tree = _tree_distances(x.intensities)
        assert np.array_equal(x.nearest_neighbour_distances, tree), x.order
        from_tree = dataclasses.replace(x)
        from_tree.__dict__["nearest_neighbour_distances"] = tree
        for dtype in (np.float32, np.float64):
            assert np.array_equal(modem.trust_thresholds(x, dtype),
                                  modem.trust_thresholds(from_tree, dtype))
    # QLED-1024, the switch's order, searched pairwise as well: on a fresh
    # copy, as the shared build may hold the tree's distances already, and
    # with no tree to fall back on
    c = dataclasses.replace(col.build_qled_constellation(1024))
    assert "nearest_neighbour_distances" not in c.__dict__
    with monkeypatch.context() as m:
        m.setattr(col, "_TREE_MIN_ORDER", 2048)
        m.setattr(scipy.spatial, "cKDTree", _no_tree)
        pairwise = c.nearest_neighbour_distances
    assert np.array_equal(pairwise, _tree_distances(c.intensities))
    # each list holds its point and its nearest others; R_j bounds the rest
    order = c.order
    for dtype in (np.float32, np.float64):
        lists = modem.neighbour_lists(c, dtype)
        assert lists.lists.shape == (order, modem._NEIGHBOURS + 1)
        assert (lists.lists == np.arange(order)[:, None]).any(axis=1).all()
        d = np.linalg.norm(lists.points[:, None] - lists.points[None], axis=-1)
        listed = np.zeros((order, order), dtype=bool)
        listed[np.arange(order)[:, None], lists.lists] = True
        assert (np.where(listed, np.inf, d).min(axis=1) >= lists.reach).all()
        assert (np.where(listed, d, 0).max(axis=1) <= lists.reach).all()


def _list_decisions(constellation, rows, sent, dtype=np.float32):
    """The lists' decisions, and the full metric's; each decision the lists
    prove must be the full metric's."""
    rows = rows.astype(dtype)
    got = modem.list_decisions(rows, sent,
                               modem.neighbour_lists(constellation, dtype))
    with np.errstate(invalid="ignore"):  # inf * 0 in the product
        full = modem.nearest_points(
            rows, *modem.detection_metric(constellation, dtype))
    proven = got >= 0
    np.testing.assert_array_equal(got[proven], full[proven])
    return got, full


def test_shared_build_detects_as_a_fresh_copy(suspect_counts):
    """A noisy QLED-1024 point, on the neighbour-list path, gives the same
    point and the same screening on the process's shared build as on a
    fresh copy of it."""
    cfg = harness.ExperimentConfig(scheme="qled", order=1024, dt=1.0,
                                   max_bits=64 * 64 * 10)
    shared = col.build_qled_constellation(1024)
    points, screens = [], []
    for c in (shared, dataclasses.replace(shared)):
        sim = harness.LinkSimulator(cfg, c)
        suspect_counts.clear()
        points.append(harness.run_ber_point(cfg, 26.0, simulator=sim, seed=4))
        assert sim._neighbours is not None
        screens.append(list(suspect_counts))
    assert points[0].errors > 0 and np.sum(screens[0], axis=0)[1] > 0
    assert points[0] == points[1] and screens[0] == screens[1]


def test_lists_leave_nan_and_infinite_rows_to_the_full_metric():
    c = col.build_qled_constellation(1024)
    rows = np.repeat(c.intensities[:4], 4, axis=0)
    for i, bad in enumerate((np.nan, np.inf, -np.inf, 1e38)):
        rows[4 * i:4 * i + 4, i] = bad
    sent = np.repeat(np.arange(4), 4)
    for dtype in (np.float32, np.float64):
        got, _ = _list_decisions(c, rows, sent, dtype)
        assert (got == -1).all()


def test_lists_on_rows_far_outside_the_gamut():
    """Beyond R_j / 2 a row may still sit near a listed point; beyond R_j
    nothing is proven."""
    c = col.build_qled_constellation(1024)
    lists = modem.neighbour_lists(c, np.float32)
    rng = np.random.default_rng(7)
    sent = rng.integers(0, c.order, 4000)
    push = rng.standard_normal((len(sent), c.n_bands))
    push /= np.linalg.norm(push, axis=1)[:, None]
    s = lists.reach[sent] * rng.uniform(0.5, 1.5, len(sent))
    rows = lists.points[sent] + s[:, None] * push
    proven = _list_decisions(c, rows, sent)[0] >= 0
    assert proven.any() and not proven[s > lists.reach[sent]].any()
    huge = lists.points[sent] + 1e3 * push
    assert (_list_decisions(c, huge, sent)[0] == -1).all()


def test_rows_on_a_bisector_go_to_the_full_metric():
    """A row equidistant from two neighbours ties; the full metric gives
    the lower index, and the lists prove nothing."""
    c = col.build_qled_constellation(1024)
    points = c.intensities.copy()
    # two dyadic points mirrored in the first two bands tie exactly at their
    # midpoint, whatever the rounding
    points[[5, 6]] = [[0.25, 0.375, 0.25, 0.125], [0.375, 0.25, 0.25, 0.125]]
    c = dataclasses.replace(c, intensities=points)
    lists = modem.neighbour_lists(c, np.float32)
    mid = np.array([[0.3125, 0.3125, 0.25, 0.125]] * 2)
    got, full = _list_decisions(c, mid, np.array([5, 6]))
    np.testing.assert_array_equal(got, [-1, -1])
    np.testing.assert_array_equal(full, [5, 5])
    # the midpoint of each point and its nearest neighbour, where those two
    # are the nearest: near-ties
    sent, other = np.arange(c.order), lists.lists[:, 1]
    mids = (lists.points[sent] + lists.points[other]) / 2
    got, full = _list_decisions(c, mids, sent)
    tied = (full == sent) | (full == other)
    assert tied.sum() > c.order / 2 and (got[tied] == -1).all()


def test_lists_with_a_duplicated_point(metric_rows, suspect_counts):
    """Coincident points tie at every row; the full metric decides them."""
    c = col.build_qled_constellation(1024)
    points = c.intensities.copy()
    points[9] = points[10]
    c = dataclasses.replace(c, intensities=points)
    lists = modem.neighbour_lists(c, np.float32)
    assert {9, 10} <= set(lists.lists[9]) and {9, 10} <= set(lists.lists[10])
    rng = np.random.default_rng(3)
    sent = rng.integers(0, c.order, 4000)
    sent[:200] = 9
    rows = lists.points[sent] + 0.01 * rng.standard_normal((4000, c.n_bands))
    got, _ = _list_decisions(c, rows, sent)
    assert (got >= 0).any() and not np.isin(got, [9, 10]).any()
    metric_rows.clear()
    cfg = harness.ExperimentConfig(scheme="qled", order=1024, dt=1.0)
    sim = harness.LinkSimulator(cfg, c)
    _assert_matches_reference(sim, snrs=(26.0, 30.0))
    _, suspects = np.sum(suspect_counts, axis=0)
    assert 0 < sum(metric_rows) < suspects
