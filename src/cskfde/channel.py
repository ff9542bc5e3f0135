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

# Length of the discretised impulse response; a dispersive channel's memory
# is N_TAPS - 1 symbols, which the cyclic prefix must cover.
N_TAPS = 8


def discretize_impulse_response(dt: float, order: int) -> np.ndarray:
    """Symbol-spaced taps of the exponential-decay impulse response.

    ``dt`` is the rms delay spread normalised to the bit duration
    (D_rms / T_b with D_rms = tau / 2), so tau = 2 * dt * T_b and the taps
    follow h[k] proportional to exp(-k * Ts / tau), truncated to ``N_TAPS``
    and renormalised to unit sum.  dt = 0 collapses to the identity channel.
    """
    if order < 2:
        raise InvalidParameter(f"modulation order must be >= 2, got {order}")
    if dt < 0:
        raise InvalidParameter(f"normalised delay spread must be >= 0, got {dt}")
    taps = np.zeros(N_TAPS)
    if dt == 0:
        taps[0] = 1.0
        return taps
    k = np.log2(order)
    ts_over_tau = k / (2.0 * dt)  # Ts / tau with tau = 2 dt Tb, Tb = Ts / k
    taps = np.exp(-np.arange(N_TAPS) * ts_over_tau)
    return taps / taps.sum()


@dataclass(frozen=True)
class ChannelModel:
    """Discretised diffuse channel: the symbol-spaced dispersion taps."""

    taps: np.ndarray

    @classmethod
    def from_parameters(cls, dt: float, order: int,
                        symbol_rate=None) -> "ChannelModel":
        """The channel of one (dt, M) operating point; ``symbol_rate`` is
        ignored, since the taps do not depend on it."""
        return cls(discretize_impulse_response(dt, order))


@dataclass(frozen=True)
class NoiseModel:
    """Per-detector AWGN level; sigma = sqrt(No / 2) for single-sided PSD No."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidParameter(f"noise deviation must be >= 0, got {self.sigma}")


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


def disperse(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-band convolution of (n_samples, n_bands) rows with the taps, from
    rest: row i is sum_k taps[k] * x[i - k] over the rows of ``x`` only.
    One ``np.convolve(taps, band)`` per band in the common dtype, cut to the
    input length: bit for bit scipy's ``lfilter(taps, [1.0], x, axis=0)``.
    """
    dtype = np.result_type(taps, x)
    taps = np.asarray(taps, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2:
        raise DimensionMismatch(f"input {x.shape} is not (samples, bands)")
    full = np.empty((len(x) + len(taps) - 1, x.shape[1]), dtype=dtype)
    for band in range(x.shape[1]):
        full[:, band] = np.convolve(taps, x[:, band])
    return full[:len(x)]


def apply_channel(tx: np.ndarray, model: ChannelModel, g_matrix: np.ndarray,
                  noise: NoiseModel, seed=0, rng=None):
    """Propagate per-band symbol streams through the diffuse channel.

    ``tx`` is (n_samples, n_bands).  Each band sees the same dispersion taps
    (linear convolution from rest), the CIL matrix mixes bands per sample,
    then i.i.d. Gaussian noise is added at each detector.  Returns (rx, None):
    no state is carried between calls.  Deterministic for a fixed seed.
    """
    tx = np.atleast_2d(np.asarray(tx, dtype=float))
    n_bands = tx.shape[1]
    if g_matrix.shape != (n_bands, n_bands):
        raise DimensionMismatch(
            f"CIL matrix {g_matrix.shape} does not match {n_bands} bands")
    rx = disperse(tx, model.taps) @ g_matrix.T
    if noise.sigma > 0:
        gen = rng if rng is not None else make_rng(seed)
        # the simulator's noise expression, sigma * standard_normal
        draw = gen.standard_normal(rx.shape)
        draw *= noise.sigma
        rx += draw
    return rx, None


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
