"""Harness tests: rates, OOK baseline, BER points, bisection, reproducibility."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from cskfde import channel as chan
from cskfde import colorimetry as col
from cskfde import fde, harness, modem
from cskfde.errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidParameter,
    InvalidTarget,
    SingularMatrix,
    UnsupportedOrder,
)


def qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2))


class TestDataRate:
    def test_reference_rates(self):
        assert harness.data_rate(16) == pytest.approx(85_333_333.333333, abs=1e-3)
        assert harness.data_rate(4096) == 256_000_000.0
        assert harness.data_rate(16, cp=0) == 96_000_000.0

    def test_cp_overhead_fraction(self):
        assert harness.data_rate(64) / harness.data_rate(64, cp=0) == pytest.approx(64 / 72)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            harness.data_rate(1)


class TestOokReference:
    def test_half_target_needs_no_power(self):
        assert harness.ook_reference(0.499999, 1.0) == pytest.approx(0.0, abs=1e-4)

    def test_bisection_oracle_for_qinv(self):
        """Invert Q by plain bisection and compare against the closed form."""
        target = 1e-6
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if qfunc(mid) > target:
                lo = mid
            else:
                hi = mid
        assert harness.ook_reference(target, 1.0) == pytest.approx(0.5 * (lo + hi),
                                                                   abs=1e-9)
        assert harness.ook_reference(target, 1.0) == pytest.approx(4.7534, abs=1e-3)

    def test_linear_in_sigma(self):
        one = harness.ook_reference(1e-6, 1.0)
        assert harness.ook_reference(1e-6, 2.0) == pytest.approx(2 * one)

    def test_invalid_target(self):
        for bad in (0.0, 0.5, 0.7, -1e-3):
            with pytest.raises(InvalidTarget):
                harness.ook_reference(bad, 1.0)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = harness.wilson_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_no_trials(self):
        assert harness.wilson_interval(0, 0) == (0.0, 1.0)


class TestExperimentConfigValidation:
    @pytest.mark.parametrize("kw,error", [
        ({"scheme": "rgb"}, UnsupportedOrder),
        ({"scheme": "tled", "order": 64}, UnsupportedOrder),
        ({"scheme": "qled", "order": 32}, UnsupportedOrder),
        ({"dt": -0.1}, InvalidParameter),
        ({"dt": float("nan")}, InvalidParameter),
        ({"target_ber": 0.0}, InvalidTarget),
        ({"target_ber": 0.5}, InvalidTarget),
        ({"target_ber": float("nan")}, InvalidTarget),
        ({"seed": -1}, InvalidParameter),
        ({"seed": 1 << 64}, InvalidParameter),
        ({"dt": 0.5, "cp": chan.N_TAPS - 2}, InvalidParameter),
        ({"min_bit_errors": 0}, InvalidParameter),
        ({"min_bit_errors": -5}, InvalidParameter),
        ({"max_bits": 0}, InvalidParameter),
    ])
    def test_rejected_at_construction(self, kw, error):
        with pytest.raises(error):
            harness.ExperimentConfig(**kw)

    def test_valid_edges_accepted(self):
        harness.ExperimentConfig(scheme="tled", order=16, dt=0.0, target_ber=0.49)
        harness.ExperimentConfig(scheme="QLED", order=4096, dt=1.0)
        harness.ExperimentConfig(min_bit_errors=1, max_bits=1)
        harness.ExperimentConfig(dt=0.5, cp=chan.N_TAPS - 1)
        harness.ExperimentConfig(dt=0.0, cp=0)

    def test_scheme_is_stored_lower_case(self):
        assert harness.ExperimentConfig(scheme="TLED").scheme == "tled"
        cfg = harness.ExperimentConfig(scheme="Qled", order=16)
        assert cfg.scheme == "qled"
        assert harness.LinkSimulator(cfg).constellation.scheme == "qled"

    @pytest.mark.parametrize("kw,field", [
        ({"fde": "off"}, "fde"),
        ({"fde": 1}, "fde"),
        ({"max_bits": "2e8"}, "max_bits"),
        ({"n": [1, 2]}, "n"),
        ({"order": 4.5}, "order"),
        ({"order": True}, "order"),
        ({"seed": None}, "seed"),
        ({"dt": "x"}, "dt"),
        ({"dt": False}, "dt"),
        ({"scheme": 4}, "scheme"),
    ])
    def test_wrong_type_names_the_field(self, kw, field):
        with pytest.raises(InvalidConfig, match=f"^{field}: expected "):
            harness.ExperimentConfig(**kw)

    def test_values_are_converted_to_the_field_type(self):
        cfg = harness.ExperimentConfig(order=np.int64(16), n=64.0, dt=np.float32(0.5),
                                       target_ber="1e-3", fde=np.bool_(False))
        assert (cfg.order, cfg.n, cfg.dt, cfg.target_ber, cfg.fde) == (16, 64, 0.5,
                                                                       1e-3, False)
        assert [type(v) for v in (cfg.order, cfg.n, cfg.dt, cfg.target_ber,
                                  cfg.fde)] == [int, int, float, float, bool]


def fast_cfg(**kw):
    base = dict(scheme="qled", order=4, dt=0.0, fde=True,
                min_bit_errors=50, max_bits=2_000_000, seed=11)
    base.update(kw)
    return harness.ExperimentConfig(**base)


class TestRunBerPoint:
    def test_noiseless_is_error_free(self):
        cfg = fast_cfg(dt=1.0)
        sim = harness.LinkSimulator(cfg)
        errors, bits, _ = sim.run(0.0, 1_000_000, 1)
        assert errors == 0
        assert bits >= 1_000_000

    def test_deterministic_per_seed(self):
        cfg = fast_cfg()
        a = harness.run_ber_point(cfg, 12.0)
        b = harness.run_ber_point(cfg, 12.0)
        assert (a.errors, a.bits, a.ber) == (b.errors, b.bits, b.ber)

    def test_seed_changes_stream(self):
        cfg = fast_cfg()
        a = harness.run_ber_point(cfg, 12.0, seed=1)
        b = harness.run_ber_point(cfg, 12.0, seed=2)
        assert (a.errors, a.bits) != (b.errors, b.bits)

    def test_censoring_flagged(self):
        cfg = fast_cfg(max_bits=200_000)
        point = harness.run_ber_point(cfg, 21.0)  # far below 50 errors there
        assert point.censored
        assert point.bits >= cfg.max_bits

    def test_decisive_stop_below_target_is_not_censored(self):
        cfg = fast_cfg(max_bits=2_000_000)
        sim = harness.LinkSimulator(cfg)
        errors, bits, censored = sim.run(harness.sigma_from_snr(21.0),
                                         cfg.max_bits, 1, stop_target=1e-2)
        assert errors < cfg.min_bit_errors
        assert bits < cfg.max_bits
        assert censored is False

    def test_stops_at_min_errors(self):
        cfg = fast_cfg()
        point = harness.run_ber_point(cfg, 6.0)  # high BER
        assert point.errors >= cfg.min_bit_errors
        assert point.bits < cfg.max_bits


def _module_chain(sim, sigma, seed, chunk_sizes):
    """(errors, bits) of the link built from the per-block operations, with
    the simulator's draws: per chunk the symbol indices, then the noise."""
    cfg, constellation = sim.config, sim.constellation
    n, cp = cfg.n, cfg.cp
    rng = chan.make_rng(seed)
    model = chan.ChannelModel.from_parameters(cfg.dt, cfg.order, cfg.symbol_rate)
    zfe = fde.build_zfe(model.taps, n)
    zi = None
    errors = counted = 0
    for chunk, nb in enumerate(chunk_sizes):
        tx_idx = rng.integers(0, cfg.order, size=nb * n)
        tx = constellation.intensities[tx_idx].reshape(nb, n, 4)
        serial = np.concatenate([modem.frame(block[None], cp) for block in tx])
        rx, zi = chan.apply_channel(serial, model, chan.G_QLED,
                                    chan.NoiseModel(sigma), zi=zi, rng=rng)
        rx = chan.calibrate(rx, chan.G_QLED).reshape(nb, n + cp, 4)
        # block 0 of the stream is the warm-up, never counted
        for b in range(1 if chunk == 0 else 0, nb):
            payload = rx[b, cp:]
            if cfg.fde:
                payload = fde.equalize_block(payload, zfe)
            det = modem.ml_detect(payload, constellation)
            ref = tx_idx[b * n:(b + 1) * n]
            diff = constellation.labels[det] ^ constellation.labels[ref]
            errors += sum(bin(d).count("1") for d in diff)
            counted += 1
    return errors, counted * n * sim.k


class TestFastPathAgainstPublicOps:
    """The simulator at float64 against the chain of per-block operations
    with the same Philox draws: same bit errors, same bit count."""

    def test_float64_simulator_matches_module_chain(self):
        sim = harness.LinkSimulator(fast_cfg(dt=1.0, order=16), dtype=np.float64)
        n_blocks = 4
        errors, bits, _ = sim.run(0.02, n_blocks * 64 * sim.k, 99,
                                  chunk_blocks=n_blocks + 1)
        # one chunk: the warm-up block plus the counted ones
        assert (errors, bits) == _module_chain(sim, 0.02, 99, [n_blocks + 1])
        assert errors > 0

    @pytest.mark.parametrize("fde_on", [True, False])
    def test_float64_simulator_matches_module_chain_across_chunks(self, fde_on):
        """Six counted blocks in chunks of four: the warm-up block, three
        counted blocks, then a second chunk of three that continues the
        first chunk's dispersion state and random stream."""
        sim = harness.LinkSimulator(fast_cfg(dt=1.0, order=16, fde=fde_on),
                                    dtype=np.float64)
        errors, bits, censored = sim.run(0.02, 6 * 64 * sim.k, 5,
                                         min_bit_errors=1 << 62, chunk_blocks=4)
        assert (errors, bits) == _module_chain(sim, 0.02, 5, [4, 3])
        assert errors > 0 and bits == 6 * 64 * sim.k and censored
        assert sim.detected_rows == 6 * 64


@pytest.mark.parametrize("fde_on", [True, False])
@pytest.mark.parametrize("scheme,order,dt", [("qled", 64, 0.1), ("tled", 16, 0.1),
                                             ("qled", 4, 0.01)])
def test_subnormal_taps_are_zeroed_without_changing_results(scheme, order, dt,
                                                            fde_on):
    """The simulator zeroes float32-subnormal taps; runs with the subnormal
    taps kept give the same errors, bits and suspect rows."""
    cfg = fast_cfg(scheme=scheme, order=order, dt=dt, fde=fde_on)
    tiny = np.finfo(np.float32).tiny
    exact = chan.discretize_impulse_response(dt, order, cfg.symbol_rate).astype(
        np.float32)
    assert ((exact > 0) & (exact < tiny)).any()
    sim = harness.LinkSimulator(cfg)
    assert np.array_equal(sim.taps, np.where(exact < tiny, 0, exact))
    kept = harness.LinkSimulator(cfg)
    kept.taps = exact
    for seed, snr in enumerate([4.0, 10.0, 16.0, None]):
        sigma = 0.0 if snr is None else harness.sigma_from_snr(snr)
        args = (sigma, 200 * 64 * sim.k, seed)
        assert sim.run(*args, chunk_blocks=64) == kept.run(*args, chunk_blocks=64)
    assert (sim.detected_rows, sim.suspect_rows) == (kept.detected_rows,
                                                     kept.suspect_rows)


class TestBadCilMatrix:
    """A bad G fails at construction with a typed error, before any draw."""

    @pytest.mark.parametrize("g,error", [
        (np.array([[1.0, 1.0, 0, 0], [1.0, 1.0, 0, 0], [0, 0, 1.0, 0],
                   [0, 0, 0, 1.0]]), SingularMatrix),
        (np.eye(3), DimensionMismatch),
        (np.where(np.eye(4) == 1, np.nan, 0.0), SingularMatrix),
        (chan.G_TLED, DimensionMismatch),
    ])
    def test_raises_before_the_draw_thread(self, g, error):
        start = threading.active_count()
        with pytest.raises(error):
            harness.LinkSimulator(fast_cfg(), g_matrix=g)
        assert threading.active_count() == start


class TestFindPowerRequirement:
    def test_bisected_threshold_brackets_target(self):
        cfg = fast_cfg(target_ber=1e-3)
        req = harness.find_power_requirement(cfg)
        assert req.achievable
        assert req.bracket_db <= 0.1 + 1e-9
        # BER clearly above target half a dB below, clearly below half a dB above
        sim = harness.LinkSimulator(cfg)
        below = harness.run_ber_point(cfg, req.snr_o_db - 0.5, simulator=sim, seed=7)
        above = harness.run_ber_point(cfg, req.snr_o_db + 0.5, simulator=sim, seed=8)
        assert below.ber > 1e-3
        assert above.ber < 2e-3

    def test_unachievable_when_ceiling_too_low(self):
        cfg = fast_cfg(target_ber=1e-4)
        req = harness.find_power_requirement(cfg, snr_hi=3.0)
        assert not req.achievable
        assert req.requirement_db is None
        assert req.as_table_value == "inf"

    def test_requirement_is_ook_relative(self):
        cfg = fast_cfg(target_ber=1e-3)
        req = harness.find_power_requirement(cfg)
        offset = 10 * np.log10(2 * harness.qfunc_inv(1e-3))
        assert req.requirement_db == pytest.approx(req.snr_o_db - offset)

    def test_invalid_inputs(self):
        cfg = fast_cfg()
        with pytest.raises(InvalidTarget):
            harness.find_power_requirement(replace(cfg, target_ber=0.9))
        with pytest.raises(InvalidParameter):
            harness.find_power_requirement(cfg, snr_lo=10.0, snr_hi=5.0)


class TestSweepDt:
    def test_monotone_in_dt(self):
        cfg = fast_cfg(target_ber=1e-3)
        reqs = harness.sweep_dt(cfg, [0.0, 0.5, 1.0])
        values = [r.requirement_db for r in reqs]
        assert all(r.achievable for r in reqs)
        for a, b in zip(values, values[1:]):
            assert b >= a - 0.1  # non-decreasing within bracket resolution

    def test_fde_off_equals_on_at_zero_dispersion(self):
        on = harness.find_power_requirement(fast_cfg(target_ber=1e-3, fde=True))
        off = harness.find_power_requirement(fast_cfg(target_ber=1e-3, fde=False))
        assert abs(on.requirement_db - off.requirement_db) < 0.25


class TestBerCurve:
    def test_monotone_check_and_serialisation(self, tmp_path):
        cfg = fast_cfg(target_ber=1e-3, max_bits=400_000)
        curve = harness.run_ber_curve(cfg, [6.0, 8.0, 10.0])
        assert curve.is_monotone_non_increasing()
        out = tmp_path / "curve.csv"
        with open(out, "w", newline="") as fh:
            harness.write_curve_csv(fh, curve)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,order,dt,fde,snr_o_db")
        assert len(lines) == 4

    def test_requirements_serialisation(self, tmp_path):
        cfg = fast_cfg(target_ber=1e-3)
        reqs = [harness.find_power_requirement(cfg)]
        csv_path = tmp_path / "req.csv"
        json_path = tmp_path / "req.json"
        with open(csv_path, "w", newline="") as fh:
            harness.write_requirements_csv(fh, reqs)
        with open(json_path, "w") as fh:
            harness.write_requirements_json(fh, reqs)
        assert "qled" in csv_path.read_text()
        import json
        data = json.loads(json_path.read_text())
        assert data["entries"][0]["achievable"] is True


class _Boom(RuntimeError):
    pass


def _assert_no_thread_left(start, timeout=5.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() != start and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == start
    assert not any(t.name.startswith("cskfde-draws") for t in threading.enumerate())


class TestDrawPipeline:
    """The draw thread of LinkSimulator.run: same draws, no stray thread."""

    def test_no_thread_outlives_a_full_run(self):
        start = threading.active_count()
        sim = harness.LinkSimulator(fast_cfg(dt=1.0))
        sim.run(harness.sigma_from_snr(12.0), 20 * 64 * sim.k, 1, chunk_blocks=3)
        _assert_no_thread_left(start)

    def test_no_thread_outlives_a_decisive_stop_at_chunk_one(self):
        start = threading.active_count()
        sim = harness.LinkSimulator(fast_cfg(dt=1.0))
        errors, bits, censored = sim.run(harness.sigma_from_snr(6.0),
                                         200_000_000, 1, stop_target=1e-6)
        assert bits == 4095 * 64 * sim.k and not censored
        _assert_no_thread_left(start)

    def test_no_thread_outlives_a_detection_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise _Boom("detection failed")
        monkeypatch.setattr(modem, "nearest_points", boom)
        start = threading.active_count()
        sim = harness.LinkSimulator(fast_cfg(dt=1.0))
        with pytest.raises(_Boom):
            sim.run(harness.sigma_from_snr(12.0), 200_000_000, 1)
        _assert_no_thread_left(start)

    @pytest.mark.parametrize("fail_at", [1, 5])
    def test_draw_error_reaches_the_caller(self, monkeypatch, fail_at):
        make_rng = chan.make_rng

        class FaultyRng:
            """The real stream, failing at the fail_at-th noise slice."""

            def __init__(self, seed):
                self.rng = make_rng(seed)
                self.calls = 0

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == fail_at:
                    raise _Boom("noise draw failed")
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(chan, "make_rng", FaultyRng)
        monkeypatch.setattr(harness, "_SLICE_BLOCKS", 1)
        start = threading.active_count()
        sim = harness.LinkSimulator(fast_cfg(dt=1.0))
        with pytest.raises(_Boom, match="noise draw failed"):
            sim.run(harness.sigma_from_snr(20.0), 20 * 64 * sim.k, 1,
                    chunk_blocks=3)
        _assert_no_thread_left(start)

    def test_concurrent_runs_under_fast_switching(self):
        """Three callers, each with its own draw thread, on two cores."""
        sims = [harness.LinkSimulator(fast_cfg(dt=1.0)) for _ in range(3)]
        args = [(harness.sigma_from_snr(8.0 + i), 40 * 64 * 2, (4, i))
                for i in range(3)]
        kwargs = dict(min_bit_errors=1 << 30, chunk_blocks=4)
        want = [sim.run(*a, **kwargs) for sim, a in zip(sims, args)]
        got = [None] * 3

        def call(i):
            got[i] = sims[i].run(*args[i], **kwargs)
        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        _assert_no_thread_left(start)

    def test_chunk_sizes_carry_one_warmup_block(self):
        assert harness._chunk_sizes(12, 5) == [5, 5, 3]
        assert harness._chunk_sizes(1, 4096) == [2]
        assert harness._chunk_sizes(3, 1) == [1, 1, 1, 1]
        with pytest.raises(InvalidParameter):
            harness.LinkSimulator(fast_cfg()).run(0.1, 1000, 1, chunk_blocks=0)

    @pytest.mark.parametrize("sigma,n_bits,kwargs,name", [
        (0.1, 0, {}, "n_bits"),
        (0.1, -100, {}, "n_bits"),
        (0.1, 1000, {"min_bit_errors": 0}, "min_bit_errors"),
        (0.1, 1000, {"min_bit_errors": -5}, "min_bit_errors"),
        (0.1, 1000, {"chunk_blocks": 0}, "chunk_blocks"),
        (float("nan"), 1000, {}, "sigma"),
        (float("inf"), 1000, {}, "sigma"),
        (-0.5, 1000, {"min_bit_errors": 5}, "sigma"),
        (np.float64(-0.5), 1000, {}, "sigma"),
    ])
    def test_bad_run_arguments_raise_before_any_thread(
            self, started_threads, sigma, n_bits, kwargs, name):
        sim = harness.LinkSimulator(fast_cfg())
        with pytest.raises(InvalidParameter, match=f"^{name} must be"):
            sim.run(sigma, n_bits, 1, **kwargs)
        assert started_threads == []

    def test_a_stop_cancels_the_next_chunks_noise(self, monkeypatch):
        """A run that stops on its first chunk waits for at most the noise
        slice in progress; the rest of the next chunk is never drawn."""
        make_rng = chan.make_rng
        drawn = []

        class SlowRng:
            """The real stream, each noise slice counted and slowed."""

            def __init__(self, seed):
                self.rng = make_rng(seed)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                time.sleep(0.05)
                draw = self.rng.standard_normal(*args, **kwargs)
                drawn.append(None)
                return draw

        monkeypatch.setattr(chan, "make_rng", SlowRng)
        monkeypatch.setattr(harness, "_SLICE_BLOCKS", 1)
        start = threading.active_count()
        sim = harness.LinkSimulator(fast_cfg(dt=1.0))
        chunk = 8
        errors, bits, censored = sim.run(harness.sigma_from_snr(0.0), 200_000_000,
                                         1, min_bit_errors=1, chunk_blocks=chunk)
        assert errors >= 1 and bits == (chunk - 1) * 64 * sim.k and not censored
        at_return = len(drawn)
        assert at_return - chunk < chunk / 2  # slices of the next chunk
        time.sleep(0.2)
        assert len(drawn) == at_return
        _assert_no_thread_left(start)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sigma", [0.0, 0.0531, np.float64(0.0531)])
    def test_chunk_draws_are_the_serial_draws(self, monkeypatch, dtype, sigma):
        """Sliced draws queued on one worker, with sigma scaled into the
        chunk buffer, equal the serial loop's ``integers`` then
        ``sigma * standard_normal``."""
        monkeypatch.setattr(harness, "_SLICE_BLOCKS", 2)
        sizes = harness._chunk_sizes(12, 5)
        n, cp, order, bands = 8, 2, 64, 4
        rng = chan.make_rng((1, 7))
        want = []
        for nb in sizes:
            want.append(rng.integers(0, order, size=nb * n))
            if sigma > 0:
                want.append(sigma * rng.standard_normal((nb * (n + cp), bands),
                                                        dtype=dtype))
        rng = chan.make_rng((1, 7))
        with ThreadPoolExecutor(1) as pool:
            jobs = []
            for nb in sizes:
                jobs.append(harness._draw_symbols(pool, rng, nb, n, order))
                if sigma > 0:
                    jobs.append(harness._draw_noise(pool, rng, nb, n + cp, bands,
                                                    sigma, dtype))
            got = [harness._ready(job) for job in jobs]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [4, 16, 64, 4096])
    def test_philox_draws_are_slice_invariant(self, order, dtype):
        """Consecutive slices of one call give the values of the whole call,
        also with integer and normal draws interleaved."""
        seed = (3, 11)
        whole, sliced = chan.make_rng(seed), chan.make_rng(seed)
        cuts = np.random.default_rng(order).integers(1, 40, size=30)
        for chunk in range(3):
            n_idx, n_rows = 400 + 37 * chunk, 300 + 11 * chunk
            idx = whole.integers(0, order, size=n_idx)
            noise = whole.standard_normal((n_rows, 4), dtype=dtype)
            parts, start = [], 0
            for cut in cuts:
                parts.append(sliced.integers(0, order, size=min(cut, n_idx - start)))
                start += len(parts[-1])
            parts.append(sliced.integers(0, order, size=n_idx - start))
            assert np.array_equal(np.concatenate(parts), idx)
            out = np.empty((n_rows, 4), dtype=dtype)
            for start in range(0, n_rows, 7):
                sliced.standard_normal(out=out[start:start + 7], dtype=dtype)
            assert np.array_equal(out, noise)


def test_fde_dominates_unequalised_under_dispersion():
    """With ISI present, zero forcing never needs more power than no equaliser."""
    base = fast_cfg(target_ber=1e-3, dt=1.0)
    with_fde = harness.find_power_requirement(base)
    without = harness.find_power_requirement(
        harness.ExperimentConfig(**{**base.__dict__, "fde": False}))
    assert with_fde.achievable and without.achievable
    assert with_fde.requirement_db <= without.requirement_db + 0.1
