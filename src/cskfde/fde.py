"""Frequency-domain zero-forcing equalisation of cyclic-prefixed blocks.

Transform convention used throughout the package: the forward DFT carries no
scale factor and the inverse carries 1/N, so the inverse of the forward
transform of x is x and Parseval reads sum |x|^2 == (1/N) sum |X|^2.  numpy's
``fft`` (the channel spectrum of :func:`build_zfe`) and scipy's ``rfft`` and
``irfft`` (:func:`equalize`) follow it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidLength, SpectralNull

_NULL_EPS = 1e-12


def _check_block_length(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise InvalidLength(f"block length must be a power of two, got {n}")


def build_zfe(taps, n: int) -> np.ndarray:
    """Zero-forcing coefficients z[k] = conj(l[k]) / |l[k]|^2 at FFT size
    ``n``, with l the size-n DFT of the zero-padded taps.

    Raises SpectralNull if any channel bin magnitude is below 1e-12 (the
    exponential-decay taps used here never null a bin, but the contract is
    checked rather than assumed).
    """
    taps = np.asarray(taps, dtype=float)
    _check_block_length(n)
    if taps.size == 0 or taps.size > n:
        raise InvalidLength(
            f"need 1..{n} taps for an N={n} transform, got {taps.size}")
    lam = np.fft.fft(taps, n)
    mag2 = np.abs(lam) ** 2
    if np.any(np.sqrt(mag2) < _NULL_EPS):
        raise SpectralNull("channel frequency response has a near-zero bin")
    return np.conj(lam) / mag2


def equalize(payload, zfe_half) -> np.ndarray:
    """Zero-force a (n_blocks, N, n_bands) stack of CP-stripped blocks.

    Real FFT along each block, multiplication by the first N/2 + 1
    zero-forcing coefficients ``zfe_half``, inverse real FFT.  The output is
    real by construction; the coefficients of real taps are conjugate
    symmetric, so the other N/2 - 1 bins carry nothing new.  scipy.fft is
    imported here, so that only an equalised run loads it.
    """
    import scipy.fft
    spectrum = scipy.fft.rfft(payload, axis=1)
    spectrum *= zfe_half[None, :, None]
    return scipy.fft.irfft(spectrum, n=payload.shape[1], axis=1)


def equalize_block(rx_block, zfe) -> np.ndarray:
    """Equalise one CP-stripped block (optionally multi-band, shape (N, bands))
    with the N coefficients of :func:`build_zfe`."""
    x = np.asarray(rx_block, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x.T).T  # (N, bands)
    n = len(zfe)
    if x.shape[0] != n:
        raise InvalidLength(f"block length {x.shape[0]} != equaliser size {n}")
    out = equalize(x[None], np.asarray(zfe)[:n // 2 + 1])[0]
    return out[:, 0] if squeeze else out
