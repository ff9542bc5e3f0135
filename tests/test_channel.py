"""Channel tests: tap discretisation, CIL mixing, calibration, noise."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import cskfde
from cskfde import channel as chan
from cskfde import modem
from cskfde.errors import DimensionMismatch, InvalidParameter, SingularMatrix


class TestDiscretizeImpulseResponse:
    def test_zero_dispersion_is_identity(self):
        taps = chan.discretize_impulse_response(0.0, 16)
        np.testing.assert_array_equal(taps, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_geometric_series_oracle_dt_half_m16(self):
        """Dt=0.5, M=16: tau = Ts/4, so taps follow e^{-4k} / geometric sum."""
        taps = chan.discretize_impulse_response(0.5, 16)
        assert chan.N_TAPS == 8
        raw = np.exp(-4.0 * np.arange(8))
        expected = raw / (1 - np.exp(-4.0 * 8)) * (1 - np.exp(-4.0))
        np.testing.assert_allclose(taps, expected, rtol=1e-12)

    def test_geometric_series_oracle_dt1_m4(self):
        taps = chan.discretize_impulse_response(1.0, 4)
        raw = np.exp(-1.0 * np.arange(8))
        np.testing.assert_allclose(taps, raw / raw.sum(), rtol=1e-12)
        assert abs(taps.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("order", [4, 16, 4096])
    def test_tap_invariants(self, dt, order):
        taps = chan.discretize_impulse_response(dt, order)
        assert abs(taps.sum() - 1.0) < 1e-12
        assert (taps >= 0).all()
        # strictly decreasing for dt > 0, up to float underflow of the tail
        assert ((np.diff(taps) < 0) | (taps[1:] == 0.0)).all()

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            chan.discretize_impulse_response(0.5, 1)
        with pytest.raises(InvalidParameter):
            chan.discretize_impulse_response(-0.1, 4)

    def test_channel_model_tau(self):
        """tau = 2 * Dt * T_b with T_b = T_s / log2(M): h[1] / h[0] = exp(-T_s / tau).

        The ratio depends on T_s / tau alone, so any symbol time will do."""
        ts = 1.0
        for dt, order in [(0.5, 16), (1.0, 4), (0.1, 64)]:
            tau = 2.0 * dt * ts / np.log2(order)
            taps = chan.ChannelModel.from_parameters(dt, order).taps
            assert taps[1] / taps[0] == pytest.approx(np.exp(-ts / tau), rel=1e-12)


class TestShippedMatrices:
    def test_tled_entries_bit_exact(self):
        expected = [[0.271, 0.030, 0.0], [0.0, 0.255, 0.0], [0.0, 0.0, 0.200]]
        assert chan.G_TLED.tolist() == expected

    def test_qled_entries_bit_exact(self):
        expected = [[0.200, 0.003, 0.0, 0.0],
                    [0.007, 0.220, 0.003, 0.0],
                    [0.0, 0.002, 0.255, 0.0],
                    [0.0, 0.0, 0.030, 0.271]]
        assert chan.G_QLED.tolist() == expected


class TestDisperse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [4, 16, 64, 4096])
    @pytest.mark.parametrize("dt", [0.0, 0.1, 0.5, 1.0])
    def test_bitwise_equal_to_lfilter_over_chained_calls(self, dt, order,
                                                         dtype):
        """A run of calls, as on successive chunks, the last repeating the
        first input: each is bitwise equal to lfilter from rest, so nothing
        passes from one call to the next."""
        taps = chan.discretize_impulse_response(dt, order).astype(dtype)
        rng = np.random.default_rng(order)
        inputs = [rng.random((n_samples, 4)).astype(dtype)
                  for n_samples in (1000, 7, 1500)]
        for x in inputs + inputs[:1]:
            x[:, 2] = 0.0  # a band held at zero
            want = lfilter(taps, np.array([1.0], dtype=dtype), x, axis=0)
            got = chan.disperse(x, taps)
            assert got.dtype == want.dtype and got.shape == x.shape
            assert np.array_equal(got, want)

    def test_single_tap_passes_through(self):
        x = np.random.default_rng(0).random((10, 3))
        np.testing.assert_array_equal(chan.disperse(x, np.array([1.0])), x)

    def test_input_must_be_samples_by_bands(self):
        with pytest.raises(DimensionMismatch):
            chan.disperse(np.zeros(5), np.ones(3) / 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dt,order,cp", [(0.0, 4, 0), (0.1, 64, 7),
                                             (0.5, 16, 8), (1.0, 4, 16)])
    def test_blocks_are_independent(self, dt, order, cp, dtype):
        """With L >= N_TAPS - 1, the payload rows of a dispersed framed stack
        equal those of each block framed and dispersed alone."""
        taps = chan.discretize_impulse_response(dt, order).astype(dtype)
        nb, n, bands = 5, 32, 4
        stack = np.random.default_rng(cp).random((nb, n, bands)).astype(dtype)
        together = chan.disperse(modem.frame(stack, cp), taps)
        payload = together.reshape(nb, n + cp, bands)[:, cp:]
        for block, got in zip(stack, payload):
            alone = chan.disperse(modem.frame(block[None], cp), taps)
            assert np.array_equal(got, alone[cp:])


def test_import_leaves_scipy_signal_out():
    """scipy.signal costs about a second of import time and is not used."""
    src = str(Path(cskfde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = "import sys, cskfde; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestApplyChannel:
    def test_identity_everything_is_passthrough(self):
        model = chan.ChannelModel.from_parameters(0.0, 4)
        tx = np.random.default_rng(0).random((100, 4))
        rx, _ = chan.apply_channel(tx, model, np.eye(4), chan.NoiseModel(0.0))
        np.testing.assert_allclose(rx, tx, atol=1e-15)

    def test_yellow_impulse_reads_g_column(self):
        """A unit impulse on the yellow band lands column 3 of G on the detectors."""
        model = chan.ChannelModel.from_parameters(0.0, 4)
        tx = np.zeros((1, 4))
        tx[0, 2] = 1.0  # band order B, C, Y, R
        rx, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.0))
        np.testing.assert_array_equal(rx[0], [0.0, 0.003, 0.255, 0.030])

    def test_two_tap_convolution(self):
        model = chan.ChannelModel(np.array([0.8, 0.2]))
        tx = np.zeros((5, 1))
        tx[0] = 1.0
        rx, _ = chan.apply_channel(tx, model, np.eye(1), chan.NoiseModel(0.0))
        np.testing.assert_allclose(rx.ravel(), [0.8, 0.2, 0, 0, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        model = chan.ChannelModel.from_parameters(0.0, 4)
        with pytest.raises(DimensionMismatch):
            chan.apply_channel(np.zeros((4, 3)), model, chan.G_QLED,
                               chan.NoiseModel(0.0))

    def test_deterministic_for_fixed_seed(self):
        model = chan.ChannelModel.from_parameters(0.5, 4)
        tx = np.random.default_rng(1).random((200, 4))
        a, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.1), seed=42)
        b, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.1), seed=42)
        np.testing.assert_array_equal(a, b)
        c, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.1), seed=43)
        assert not np.array_equal(a, c)

    def test_mixing_commutes_with_shared_dispersion(self):
        """G then convolution equals convolution then G when h is shared."""
        model = chan.ChannelModel.from_parameters(1.0, 4)
        tx = np.random.default_rng(2).random((300, 4))
        a, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.0))
        b, _ = chan.apply_channel(tx @ chan.G_QLED.T, model, np.eye(4),
                                  chan.NoiseModel(0.0))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unit_dc_steady_state(self):
        model = chan.ChannelModel.from_parameters(1.0, 4)
        tx = np.full((100, 1), 0.7)
        rx, _ = chan.apply_channel(tx, model, np.eye(1), chan.NoiseModel(0.0))
        np.testing.assert_allclose(rx[20:].ravel(), 0.7, atol=1e-12)

    def test_noise_statistics(self):
        """1e6 zero-signal samples at sigma=1: mean within 0.01, var within 2%."""
        model = chan.ChannelModel.from_parameters(0.0, 4)
        tx = np.zeros((250_000, 4))
        rx, _ = chan.apply_channel(tx, model, np.eye(4), chan.NoiseModel(1.0), seed=7)
        for det in range(4):
            assert abs(rx[:, det].mean()) < 0.01
            assert abs(rx[:, det].var() - 1.0) < 0.02


class TestCalibrate:
    def test_inverts_crosstalk(self):
        model = chan.ChannelModel.from_parameters(0.0, 4)
        tx = np.random.default_rng(3).random((50, 4))
        rx, _ = chan.apply_channel(tx, model, chan.G_QLED, chan.NoiseModel(0.0))
        np.testing.assert_allclose(chan.calibrate(rx, chan.G_QLED), tx, atol=1e-12)

    def test_identity_noop(self):
        rx = np.random.default_rng(4).random((10, 3))
        np.testing.assert_allclose(chan.calibrate(rx, np.eye(3)), rx, atol=1e-15)

    def test_tled_matrix_oracle(self):
        """TLED matrix: calibrate(G x) = x, with the inverse checked by pivoted
        Gaussian elimination."""
        x = np.array([0.5, 0.3, 0.2])
        rx = (chan.G_TLED @ x)[None, :]
        out = chan.calibrate(rx, chan.G_TLED)
        np.testing.assert_allclose(out[0], x, atol=1e-12)
        # independent inversion oracle
        aug = np.hstack([chan.G_TLED.copy(), np.eye(3)])
        for i in range(3):
            p = np.argmax(np.abs(aug[i:, i])) + i
            aug[[i, p]] = aug[[p, i]]
            aug[i] /= aug[i, i]
            for r in range(3):
                if r != i:
                    aug[r] -= aug[r, i] * aug[i]
        np.testing.assert_allclose(aug[:, 3:] @ rx[0], x, atol=1e-12)

    def test_round_trip_identity_tolerance(self):
        for g in (chan.G_TLED, chan.G_QLED):
            eye = chan.calibrate(g.T.copy(), g)  # G^-1 applied to rows of G^T
            np.testing.assert_allclose(eye, np.eye(len(g)), atol=1e-12)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            chan.calibrate(np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_band_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chan.calibrate(np.zeros((2, 4)), chan.G_TLED)


class TestCilInverse:
    def test_matches_numpy_inverse_bitwise(self):
        for g in (chan.G_TLED, chan.G_QLED):
            np.testing.assert_array_equal(chan.cil_inverse(g, len(g)),
                                          np.linalg.inv(g))

    @pytest.mark.parametrize("g", [np.ones((3, 3)), np.zeros((4, 4)),
                                   np.array([[1.0, np.nan], [0.0, 1.0]]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]])])
    def test_singular_or_non_finite(self, g):
        with pytest.raises(SingularMatrix):
            chan.cil_inverse(g, len(g))

    @pytest.mark.parametrize("shape,n_bands", [((3, 3), 4), ((4, 3), 4),
                                               ((4, 4, 1), 4), ((4,), 4)])
    def test_wrong_shape(self, shape, n_bands):
        with pytest.raises(DimensionMismatch):
            chan.cil_inverse(np.ones(shape), n_bands)
