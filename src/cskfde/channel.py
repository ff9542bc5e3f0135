"""Diffuse optical wireless channel: exponential-decay dispersion, colour
cross-talk / insertion loss, additive white Gaussian detector noise and
colour calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, SingularMatrix

# Cross-talk and insertion-loss (CIL) matrices of effective responsivities
# for the shipped front ends.  Rows are receive bands, columns transmit bands.
# TLED order (R, Y, B); QLED order (B, C, Y, R).
G_TLED = np.array([[0.271, 0.030, 0.0],
                   [0.0,   0.255, 0.0],
                   [0.0,   0.0,   0.200]])

G_QLED = np.array([[0.200, 0.003, 0.0,   0.0],
                   [0.007, 0.220, 0.003, 0.0],
                   [0.0,   0.002, 0.255, 0.0],
                   [0.0,   0.0,   0.030, 0.271]])

DEFAULT_N_TAPS = 8


def discretize_impulse_response(dt: float, order: int, symbol_rate: float,
                                n_taps: int = DEFAULT_N_TAPS) -> np.ndarray:
    """Symbol-spaced taps of the exponential-decay impulse response.

    ``dt`` is the rms delay spread normalised to the bit duration
    (D_rms / T_b with D_rms = tau / 2), so tau = 2 * dt * T_b and the taps
    follow h[k] proportional to exp(-k * Ts / tau), truncated to ``n_taps``
    and renormalised to unit sum.  dt = 0 collapses to the identity channel.
    """
    if order < 2:
        raise InvalidParameter(f"modulation order must be >= 2, got {order}")
    if symbol_rate <= 0:
        raise InvalidParameter(f"symbol rate must be positive, got {symbol_rate}")
    if dt < 0:
        raise InvalidParameter(f"normalised delay spread must be >= 0, got {dt}")
    if n_taps < 1:
        raise InvalidParameter(f"need at least one tap, got {n_taps}")
    taps = np.zeros(n_taps)
    if dt == 0:
        taps[0] = 1.0
        return taps
    k = np.log2(order)
    ts_over_tau = k / (2.0 * dt)  # Ts / tau with tau = 2 dt Tb, Tb = Ts / k
    taps = np.exp(-np.arange(n_taps) * ts_over_tau)
    return taps / taps.sum()


@dataclass(frozen=True)
class ChannelModel:
    """Discretised diffuse channel for one (dt, M, Rs) operating point."""

    dt: float
    taps: np.ndarray
    ts: float
    tb: float

    @classmethod
    def from_parameters(cls, dt: float, order: int, symbol_rate: float,
                        n_taps: int = DEFAULT_N_TAPS) -> "ChannelModel":
        taps = discretize_impulse_response(dt, order, symbol_rate, n_taps)
        ts = 1.0 / symbol_rate
        tb = ts / np.log2(order)
        return cls(dt, taps, ts, tb)

    @property
    def tau(self) -> float:
        return 2.0 * self.dt * self.tb


@dataclass(frozen=True)
class NoiseModel:
    """Per-detector AWGN level; sigma = sqrt(No / 2) for single-sided PSD No."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidParameter(f"noise deviation must be >= 0, got {self.sigma}")

    @classmethod
    def from_psd(cls, no: float) -> "NoiseModel":
        if no < 0:
            raise InvalidParameter(f"noise PSD must be >= 0, got {no}")
        return cls(np.sqrt(no / 2.0))


def make_rng(seed) -> np.random.Generator:
    """Counter-based Philox generator so streams replicate across runs.

    ``seed`` may be an int or a (master_seed, stream_index) pair; the pair is
    used directly as the 128-bit Philox key, which keeps per-point streams
    independent and reproducible.
    """
    if isinstance(seed, tuple):
        key = np.array(seed, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    return np.random.Generator(np.random.Philox(seed))


def disperse(x: np.ndarray, taps: np.ndarray, zi: np.ndarray):
    """Per-band linear convolution of a running stream with the channel taps.

    ``x`` is (n_samples, n_bands) and ``zi`` the (len(taps) - 1, n_bands)
    state a previous call returned, or zeros at the start of a stream.
    Returns (y, zf) with y shaped like x.  The arithmetic is that of the FIR
    branch of ``scipy.signal.lfilter(taps, [1.0], x, axis=0, zi=zi)``: one
    ``np.convolve(taps, band)`` per band in the common dtype, ``zi`` added to
    the first len(taps) - 1 rows, then a split into output and state, so
    the results are bitwise equal to lfilter's.
    """
    zi = np.asarray(zi)
    dtype = np.result_type(taps, x, zi)
    taps = np.asarray(taps, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    memory = len(taps) - 1
    if x.ndim != 2 or zi.shape != (memory, x.shape[1]):
        raise DimensionMismatch(
            f"filter state {zi.shape} does not match taps {len(taps)} "
            f"and input {x.shape}")
    n_samples = x.shape[0]
    full = np.empty((n_samples + memory, x.shape[1]), dtype=dtype)
    for band in range(x.shape[1]):
        full[:, band] = np.convolve(taps, x[:, band])
    full[:memory] += zi
    return full[:n_samples], full[n_samples:].copy()


def apply_channel(tx: np.ndarray, model: ChannelModel, g_matrix: np.ndarray,
                  noise: NoiseModel, seed=0, zi=None, rng=None):
    """Propagate per-band symbol streams through the diffuse channel.

    ``tx`` is (n_samples, n_bands).  Each band sees the same dispersion taps
    (linear convolution over the running stream), the CIL matrix mixes bands
    per sample, then i.i.d. Gaussian noise is added at each detector.
    Passing ``zi`` (and reusing the returned filter state) continues one
    stream across successive calls.  Deterministic for a fixed seed.
    """
    tx = np.atleast_2d(np.asarray(tx, dtype=float))
    n_bands = tx.shape[1]
    if g_matrix.shape != (n_bands, n_bands):
        raise DimensionMismatch(
            f"CIL matrix {g_matrix.shape} does not match {n_bands} bands")
    if zi is None:
        zi = np.zeros((len(model.taps) - 1, n_bands))
    dispersed, zf = disperse(tx, model.taps, zi)
    rx = dispersed @ g_matrix.T
    if noise.sigma > 0:
        gen = rng if rng is not None else make_rng(seed)
        rx = rx + gen.normal(0.0, noise.sigma, size=rx.shape)
    return rx, zf


def cil_inverse(g_matrix, n_bands: int) -> np.ndarray:
    """Inverse of the CIL matrix, validated for an ``n_bands`` link.

    Raises DimensionMismatch unless G is n_bands x n_bands, and
    SingularMatrix if G holds NaN or inf, cannot be inverted, or has an
    inverse that is not finite.
    """
    g_matrix = np.asarray(g_matrix, dtype=float)
    if g_matrix.shape != (n_bands, n_bands):
        raise DimensionMismatch(
            f"CIL matrix {g_matrix.shape} must be square and match "
            f"{n_bands} bands")
    if not np.all(np.isfinite(g_matrix)):
        raise SingularMatrix("CIL matrix is not finite")
    try:
        g_inv = np.linalg.inv(g_matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("CIL matrix is not invertible") from exc
    if not np.all(np.isfinite(g_inv)):
        raise SingularMatrix("CIL matrix inverse is not finite")
    return g_inv


def calibrate(rx: np.ndarray, g_matrix: np.ndarray) -> np.ndarray:
    """Colour calibration: per-sample multiplication by the inverse CIL matrix."""
    rx = np.atleast_2d(np.asarray(rx, dtype=float))
    return rx @ cil_inverse(g_matrix, rx.shape[1]).T
