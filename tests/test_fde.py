"""FDE tests: DFT pair contracts, zero-forcing coefficients, block equalisation."""

import numpy as np
import pytest

from cskfde import fde
from cskfde.errors import InvalidLength, SpectralNull


def naive_dft(x):
    """O(N^2) reference transform."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


class TestDftPair:
    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16)
        x[0] = 1.0
        np.testing.assert_allclose(fde.dft(x), np.ones(16), atol=1e-12)

    def test_constant_gives_dc_only(self):
        x = np.full(16, 0.7)
        spec = fde.dft(x)
        assert spec[0] == pytest.approx(16 * 0.7)
        np.testing.assert_allclose(spec[1:], 0.0, atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64)
        np.testing.assert_allclose(fde.dft(x), naive_dft(x), atol=1e-10)

    def test_idft_inverts_dft(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        np.testing.assert_allclose(fde.idft(fde.dft(x)).real, x, atol=1e-12)

    def test_parseval_documented_scaling(self):
        """Sum |x|^2 equals (1/N) sum |X|^2 with the unscaled-forward convention."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=64)
        spec = fde.dft(x)
        assert np.sum(x ** 2) == pytest.approx(np.sum(np.abs(spec) ** 2) / 64)

    @pytest.mark.parametrize("n", [3, 48, 1])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(InvalidLength):
            fde.dft(np.zeros(n))


class TestSpectralChannel:
    """The channel spectrum behind build_zfe's coefficients."""

    def test_unit_dc_and_conjugate_symmetry(self):
        taps = np.exp(-np.arange(8) * 0.8)
        taps /= taps.sum()
        zfe = fde.build_zfe(taps, 64)
        assert abs(zfe[0] - 1.0) < 1e-12
        np.testing.assert_allclose(zfe[1:], np.conj(zfe[1:][::-1]), atol=1e-12)

    def test_too_many_taps(self):
        with pytest.raises(InvalidLength):
            fde.build_zfe(np.ones(65) / 65, 64)


class TestBuildZfe:
    def test_delta_channel_gives_identity(self):
        np.testing.assert_allclose(fde.build_zfe([1.0], 8), np.ones(8), atol=1e-12)

    def test_two_tap_per_bin_oracle(self):
        zfe = fde.build_zfe([0.8, 0.2], 8)
        k = np.arange(8)
        expected = 1.0 / (0.8 + 0.2 * np.exp(-2j * np.pi * k / 8))
        np.testing.assert_allclose(zfe, expected, atol=1e-12)

    def test_unit_sum_taps_give_unit_dc(self):
        taps = np.exp(-np.arange(8) * 0.5)
        taps /= taps.sum()
        assert fde.build_zfe(taps, 64)[0] == pytest.approx(1.0)

    def test_spectral_null_detected(self):
        with pytest.raises(SpectralNull):
            fde.build_zfe([0.5, -0.5], 8)  # DC bin is exactly zero

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidLength):
            fde.build_zfe([1.0], 48)

    def test_inverse_property_on_every_bin(self):
        taps = np.exp(-np.arange(8))
        taps /= taps.sum()
        lam = naive_dft(np.concatenate([taps, np.zeros(56)]))
        np.testing.assert_allclose(fde.build_zfe(taps, 64) * lam, np.ones(64),
                                   atol=1e-9)


class TestEqualizeBlock:
    def test_identity_equaliser(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 2))
        zfe = np.ones(64, dtype=complex)
        np.testing.assert_allclose(fde.equalize_block(x, zfe), x, atol=1e-12)

    def test_inverts_circular_convolution(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=64)
        taps = np.exp(-np.arange(8) * 0.7)
        taps /= taps.sum()
        circ = np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(taps, 64)))
        zfe = fde.build_zfe(taps, 64)
        np.testing.assert_allclose(fde.equalize_block(circ, zfe), x, atol=1e-9)

    def test_dc_preserved(self):
        """z[0] = 1 for unit-sum taps, so the block mean passes through."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        taps = np.exp(-np.arange(8) * 1.1)
        taps /= taps.sum()
        circ = np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(taps, 64)))
        out = fde.equalize_block(circ, fde.build_zfe(taps, 64))
        assert out.mean() == pytest.approx(circ.mean(), abs=1e-9)

    def test_band_order_irrelevant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 4))
        taps = np.exp(-np.arange(8) * 0.9)
        taps /= taps.sum()
        zfe = fde.build_zfe(taps, 64)
        out = fde.equalize_block(x, zfe)
        flipped = fde.equalize_block(x[:, ::-1], zfe)
        np.testing.assert_allclose(out, flipped[:, ::-1], atol=1e-12)

    def test_batched_equalize_is_the_per_block_call(self):
        """equalize over a stack of blocks equals equalize_block on each
        block, bit for bit."""
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(5, 64, 4))
        taps = np.exp(-np.arange(8) * 0.9)
        taps /= taps.sum()
        zfe = fde.build_zfe(taps, 64)
        batched = fde.equalize(stack, zfe[:33])
        for block, out in zip(stack, batched):
            np.testing.assert_array_equal(fde.equalize_block(block, zfe), out)

    def test_length_contract(self):
        zfe = fde.build_zfe([1.0], 64)
        with pytest.raises(InvalidLength):
            fde.equalize_block(np.zeros(32), zfe)


def test_framed_pipeline_matches_circulant_inversion_oracle():
    """End-to-end CP pipeline vs direct time-domain circulant matrix inversion.

    On N=16 blocks: add CP, run linear convolution over the stream, strip CP,
    equalise; compare against solving the circulant system explicitly.
    """
    from scipy.signal import lfilter

    n, cp = 16, 8
    rng = np.random.default_rng(7)
    taps = np.exp(-np.arange(6) * 0.6)
    taps /= taps.sum()
    blocks = rng.normal(size=(5, n))

    # oracle: circulant channel matrix inversion per block
    circulant = np.zeros((n, n))
    padded = np.zeros(n)
    padded[:len(taps)] = taps
    for i in range(n):
        circulant[:, i] = np.roll(padded, i)
    inv = np.linalg.inv(circulant)

    framed = np.concatenate([blocks[:, n - cp:], blocks], axis=1).ravel()
    received = lfilter(taps, [1.0], framed)
    zfe = fde.build_zfe(taps, n)
    # CP >= taps-1, so even the first block sees an effectively circular channel
    for b in range(5):
        rx_block = received[b * (n + cp) + cp: (b + 1) * (n + cp)]
        equalised = fde.equalize_block(rx_block, zfe)
        oracle = inv @ rx_block
        np.testing.assert_allclose(equalised, blocks[b], atol=1e-9)
        np.testing.assert_allclose(oracle, blocks[b], atol=1e-9)
        np.testing.assert_allclose(equalised, oracle, atol=1e-9)
