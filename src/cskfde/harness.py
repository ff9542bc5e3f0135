"""Monte Carlo experiment engine: BER curves, bisected optical power
requirements and the OOK normalisation baseline.

Optical SNR convention
----------------------
The transmitted CSK envelope is constant with total optical power P_t = 1 W,
so the operating point is written as an optical signal-to-noise ratio

    SNR_o [dB] = 10 * log10(P_t / sigma)

with ``sigma`` the per-detector noise deviation.  Optical power ratios use
10*log10, which makes the equivalent electrical (post-photodiode, square-law)
ratio twice the optical dB value.

Power requirements are reported relative to on-off keying over an AWGN
channel at the same noise level and unit responsivity: an OOK link with
levels {0, 2P} and threshold P needs average power P_ook = sigma * Qinv(ber),
i.e. an ON-level of 2 * P_ook.  Since the CSK envelope is constant (peak
equals average), the requirement compares like with like through the OOK
ON-level:

    requirement [dB] = SNR_o* - 10 * log10(2 * Qinv(target_ber))

where SNR_o* is the bisected threshold of the scheme.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional, Sequence, get_type_hints

import numpy as np
from scipy.special import erfcinv

from . import channel as chan
from . import colorimetry, fde, modem
from .errors import InvalidConfig, InvalidParameter, InvalidTarget, UnsupportedOrder

# The draw worker fills each chunk in slices of this many blocks, one task
# per slice, so a stop waits for at most one slice.
_SLICE_BLOCKS = 512

# The bisection's search range and its stopping bracket, in dB of SNR_o.
_SNR_LO_DB, _SNR_HI_DB, _BRACKET_DB = 0.0, 40.0, 0.1


def qfunc_inv(p: float) -> float:
    """Inverse Gaussian tail function Q^-1."""
    return float(np.sqrt(2.0) * erfcinv(2.0 * p))


def sigma_from_snr(snr_o_db: float) -> float:
    """Noise deviation at unit transmit power for the given optical SNR."""
    return 10.0 ** (-snr_o_db / 10.0)


def ook_normalisation_db(target_ber: float) -> float:
    """SNR_o at which OOK reaches ``target_ber`` (its ON-level referenced)."""
    return 10.0 * np.log10(2.0 * qfunc_inv(target_ber))


def wilson_interval(errors: int, trials: int):
    """95 % Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = 1.96
    p = errors / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(centre - half, 0.0), min(centre + half, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated link configuration, and the one owner of each field's
    default, type and normal form (:func:`_as_type`)."""

    scheme: str = colorimetry.QLED
    order: int = 4
    dt: float = 0.0
    fde: bool = True
    n: int = 64
    cp: int = 8
    target_ber: float = 1e-6
    min_bit_errors: int = 100
    max_bits: int = 200_000_000
    seed: int = 0

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            object.__setattr__(self, name, _as_type(name, kind, getattr(self, name)))
        orders = {colorimetry.TLED: colorimetry.TLED_ORDERS,
                  colorimetry.QLED: colorimetry.QLED_ORDERS}.get(self.scheme)
        if orders is None:
            raise UnsupportedOrder(f"unknown scheme {self.scheme!r}")
        if self.order not in orders:
            raise UnsupportedOrder(
                f"{self.scheme} supports M in {orders}, got {self.order}")
        if not (np.isfinite(self.dt) and self.dt >= 0):
            raise InvalidParameter(f"Dt must be finite and >= 0, got {self.dt}")
        if not 0.0 < self.target_ber < 0.5:
            raise InvalidTarget(
                f"target BER must be in (0, 0.5), got {self.target_ber}")
        for name in ("min_bit_errors", "max_bits"):
            value = getattr(self, name)
            if value < 1:
                raise InvalidParameter(f"{name} must be >= 1, got {value}")
        memory = chan.N_TAPS - 1 if self.dt > 0 else 0
        if self.cp < memory:
            raise InvalidParameter(
                f"cyclic prefix {self.cp} shorter than channel memory {memory}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise InvalidParameter(f"N must be a power of two, got {self.n}")
        if self.cp > self.n:
            raise InvalidParameter(
                f"cyclic prefix {self.cp} longer than block N={self.n}")
        if not 0 <= self.seed < 1 << 64:  # a Philox key word is a uint64
            raise InvalidParameter(f"seed must be in [0, 2**64), got {self.seed}")


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _as_type(name: str, kind: type, value):
    """``value`` as ``kind`` without loss, or InvalidConfig naming the field:
    a bool field takes only a bool, a number field no bool and an int field
    a float only when it is whole; the scheme string is lower-cased."""
    is_bool = isinstance(value, (bool, np.bool_))
    try:
        if kind is str and isinstance(value, str):
            return value.lower()
        if kind is not str and (kind is bool) == is_bool and (
                kind is not int or int(value) == float(value)):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidConfig(f"{name}: expected {kind.__name__}, got {value!r}")


def data_rate(order: int, n: int = ExperimentConfig.n, cp: int = ExperimentConfig.cp,
              symbol_rate: float = 24e6) -> float:
    """Payload bit rate (N / (N + L)) * Rs * log2(M); cp = 0 gives the unframed
    rate.  Rs is used nowhere else: Dt is normalised to the bit time."""
    if (order < 2 or not float(np.log2(order)).is_integer() or n < 1 or cp < 0
            or not (np.isfinite(symbol_rate) and symbol_rate > 0)):
        raise InvalidParameter("invalid rate parameters")
    return (n / (n + cp)) * symbol_rate * np.log2(order)


@dataclass(frozen=True)
class BerPoint:
    snr_o_db: float
    ber: float
    bits: int
    errors: int
    censored: bool = False  # hit max_bits before min_bit_errors


@dataclass
class BerCurve:
    config: ExperimentConfig
    points: list = field(default_factory=list)

    def is_monotone_non_increasing(self) -> bool:
        """BER non-increasing in SNR beyond the Wilson confidence overlap.

        A later (higher-SNR) point only counts as a violation when its whole
        interval sits above the earlier point's interval.
        """
        pts = sorted(self.points, key=lambda p: p.snr_o_db)
        for a, b in zip(pts, pts[1:]):
            _, hi_a = wilson_interval(a.errors, a.bits)
            lo_b, _ = wilson_interval(b.errors, b.bits)
            if lo_b > hi_a:
                return False
        return True


@dataclass(frozen=True)
class PowerRequirement:
    config: ExperimentConfig
    achievable: bool
    snr_o_db: Optional[float]        # absolute bisected threshold
    requirement_db: Optional[float]  # relative to the OOK reference
    bracket_db: float

    @property
    def as_table_value(self) -> str:
        return f"{self.requirement_db:.2f}" if self.achievable else "inf"


def _chunk_sizes(n_blocks_total: int, chunk_blocks: int) -> list:
    """Blocks per chunk; the first chunk also carries the warm-up block."""
    sizes, done, warmup = [], 0, 1
    while done < n_blocks_total:
        nb = int(min(chunk_blocks, n_blocks_total - done + warmup))
        sizes.append(nb)
        done += nb - warmup
        warmup = 0
    return sizes


def _draw(pool, out: np.ndarray, rows_per_block: int, fill):
    """Queue ``fill`` on each ``_SLICE_BLOCKS``-block slice of ``out``.

    Philox fills are slice-invariant, and the pool's one worker runs tasks
    first in, first out, so the slices get the values of one serial call.
    Returns ``(out, tasks)`` for :func:`_ready`.
    """
    step = _SLICE_BLOCKS * rows_per_block
    return out, [pool.submit(fill, out[start:start + step])
                 for start in range(0, len(out), step)]


def _draw_symbols(pool, rng, nb: int, n: int, order: int):
    """Queue the serial loop's ``rng.integers(0, order, size=nb * n)``."""
    def fill(part):
        part[:] = rng.integers(0, order, size=len(part))
    return _draw(pool, np.empty(nb * n, dtype=np.int64), n, fill)


def _draw_noise(pool, rng, nb: int, rows_per_block: int, n_bands: int,
                sigma: float, dtype):
    """Queue the serial loop's ``sigma * rng.standard_normal(shape, dtype)``
    in that product's dtype: a numpy float64 sigma promotes it to float64."""
    def fill(part):
        np.multiply(rng.standard_normal(part.shape, dtype=dtype), sigma, out=part)
    out = np.empty((nb * rows_per_block, n_bands),
                   dtype=np.result_type(sigma, dtype))
    return _draw(pool, out, rows_per_block, fill)


def _ready(job) -> np.ndarray:
    """The buffer of a queued draw once all its slices are in; a draw error
    is raised here, in the caller."""
    out, tasks = job
    wait(tasks[-1:])  # the tasks run in order, so the last one ends last
    for task in tasks:
        task.result()
    return out


class LinkSimulator:
    """Vectorised end-to-end link for one configuration.

    One run is the paper's chain, chunk by chunk, each stage one batched
    function over all blocks of the chunk: constellation mapping ->
    cyclic-prefix framing (:func:`modem.frame`) -> per-band linear
    convolution with the channel taps (:func:`channel.disperse`) -> CIL
    mixing -> detector AWGN -> colour calibration by the validated inverse
    (:func:`channel.cil_inverse`) -> CP removal (the ``[:, cp:]`` slice) ->
    (optional) zero-forcing FDE (:func:`fde.equalize`) -> screened ML
    detection and bit-error count (:func:`modem.count_bit_errors`).  The
    per-block functions of those modules call the same code.  Uniform random
    symbol indices are drawn directly, which is equivalent to mapping
    uniform random bits, and errors are counted by label XOR.  The first
    block of every stream is a warm-up excluded from error counting.

    Blocks are independent: each chunk is dispersed from rest, and a block's
    payload depends only on that block, since L >= ``N_TAPS`` - 1 if Dt > 0.

    The run works in chunks of blocks on two threads.  A one-worker
    ``ThreadPoolExecutor`` alone uses the Philox generator: it draws each
    chunk's symbol indices, then its scaled noise, with the calls and in
    the order of a serial loop, one task per ``_SLICE_BLOCKS`` slice.  The
    calling thread maps, frames, disperses and mixes a chunk while that
    chunk's noise is drawn, then calibrates, equalises and detects it while
    the next chunk is drawn.  The results are those of the serial loop, bit
    for bit.  The run shuts the pool down on every exit, cancelling the
    draws not yet started, so no thread outlives the call.

    Detection is screened: a row within the trust radius of its sent point
    (:func:`modem.trust_thresholds`) provably detects as that point, so only
    the other rows go through the full metric (:func:`modem.nearest_points`).
    The decisions, and so the bit errors, are those of the full metric on
    every row.  A bad CIL matrix raises DimensionMismatch or SingularMatrix
    at construction, before any run starts.
    """

    def __init__(self, config: ExperimentConfig,
                 constellation: Optional[colorimetry.Constellation] = None,
                 g_matrix: Optional[np.ndarray] = None,
                 dtype=np.float32):
        self.config = config
        self.constellation = constellation or colorimetry.build_constellation(
            config.scheme, config.order)
        if g_matrix is None:
            g_matrix = chan.G_TLED if self.constellation.scheme == colorimetry.TLED \
                else chan.G_QLED
        self.k = self.constellation.bits_per_symbol
        self.n_bands = self.constellation.n_bands
        self.g_inv = chan.cil_inverse(g_matrix, self.n_bands).astype(dtype)
        self.g = np.asarray(g_matrix, dtype=dtype)
        self.taps = chan.discretize_impulse_response(
            config.dt, config.order).astype(dtype)
        # subnormal taps make the convolution several times slower; zero them
        self.taps[self.taps < np.finfo(dtype).tiny] = 0
        self.points = self.constellation.intensities.astype(dtype)
        self.ct, self.half_norms = modem.detection_metric(self.constellation, dtype)
        self.trust_sq = modem.trust_thresholds(self.constellation, dtype)
        # rows counted for bit errors, and those the trust test left to the
        # full metric: suspect_rows / detected_rows is the suspect share
        self.detected_rows = 0
        self.suspect_rows = 0
        self.labels = self.constellation.labels
        zfe = fde.build_zfe(self.taps.astype(float), config.n)
        # real-input FFT needs only the first N/2 + 1 bins
        ctype = np.complex64 if dtype == np.float32 else np.complex128
        self.zfe_half = zfe[:config.n // 2 + 1].astype(ctype)
        self.dtype = dtype

    def run(self, sigma: float, n_bits: int, seed,
            stop_target: Optional[float] = None,
            min_bit_errors: Optional[int] = None,
            chunk_blocks: int = 4096):
        """Accumulate bit errors until ``n_bits``, the error floor of the
        stopping rule, or a decisive Wilson comparison against ``stop_target``.

        Returns (errors, bits, censored); ``censored`` means the run used up
        ``n_bits`` before ``min_bit_errors`` and no decisive comparison
        against ``stop_target`` ended it first.  Raises InvalidParameter,
        before any thread starts, unless ``n_bits``, ``min_bit_errors`` and
        ``chunk_blocks`` are >= 1 and ``sigma`` is finite and >= 0.
        """
        cfg = self.config
        n, cp, bands = cfg.n, cfg.cp, self.n_bands
        min_errors = cfg.min_bit_errors if min_bit_errors is None else min_bit_errors
        for name, value in (("n_bits", n_bits), ("min_bit_errors", min_errors),
                            ("chunk_blocks", chunk_blocks)):
            if value < 1:
                raise InvalidParameter(f"{name} must be >= 1, got {value}")
        if not (np.isfinite(sigma) and sigma >= 0):
            raise InvalidParameter(f"sigma must be finite and >= 0, got {sigma}")
        sizes = _chunk_sizes(int(np.ceil(n_bits / (self.k * n))), chunk_blocks)
        errors = 0
        bits = 0
        warmup = 1  # first block of the stream is not counted
        rng, order = chan.make_rng(seed), self.constellation.order
        pool = ThreadPoolExecutor(1, thread_name_prefix="cskfde-draws")
        try:
            # queued in the serial loop's order: per chunk the indices, then
            # the noise; the next chunk's draw is queued as this one is taken
            symbols = _draw_symbols(pool, rng, sizes[0], n, order)
            if sigma > 0:
                noise = _draw_noise(pool, rng, sizes[0], n + cp, bands, sigma,
                                    self.dtype)
            for nb, nb_next in zip(sizes, sizes[1:] + [0]):
                tx_idx = _ready(symbols)
                if nb_next:
                    symbols = _draw_symbols(pool, rng, nb_next, n, order)
                tx = self.points[tx_idx].reshape(nb, n, bands)
                # held to the next chunk, whose buffer then reuses its pages
                dispersed = chan.disperse(modem.frame(tx, cp), self.taps)
                rx = dispersed @ self.g.T
                if sigma > 0:
                    rx += _ready(noise)
                    if nb_next:
                        noise = _draw_noise(pool, rng, nb_next, n + cp, bands,
                                            sigma, self.dtype)
                rx = rx @ self.g_inv.T
                payload = rx.reshape(nb, n + cp, bands)[:, cp:]
                if cfg.fde:
                    payload = fde.equalize(payload, self.zfe_half)
                first = n * warmup  # the warm-up block is not counted
                chunk_errors, suspects = modem.count_bit_errors(
                    payload.reshape(nb * n, bands)[first:],
                    tx.reshape(nb * n, bands)[first:], tx_idx[first:],
                    self.trust_sq, self.ct, self.half_norms, self.labels)
                counted = nb - warmup
                warmup = 0
                self.detected_rows += counted * n
                self.suspect_rows += suspects
                errors += chunk_errors
                bits += counted * n * self.k
                if stop_target is None:
                    if errors >= min_errors:
                        return errors, bits, False
                else:
                    # decisively below the target at any error count;
                    # decisively above it only once the error floor is met
                    lo, hi = wilson_interval(errors, bits)
                    if hi < stop_target or (errors >= min_errors
                                            and lo > stop_target):
                        return errors, bits, False
        finally:
            pool.shutdown(cancel_futures=True)
        return errors, bits, errors < min_errors


def run_ber_point(config: ExperimentConfig, snr_o_db: float,
                  simulator: Optional[LinkSimulator] = None,
                  seed=None, stop_target: Optional[float] = None) -> BerPoint:
    """Measure BER at one optical SNR point.

    Runs until ``min_bit_errors`` errors or ``max_bits`` bits; a point that
    hits the bit budget first is flagged censored.  Deterministic per seed.
    """
    sim = simulator or LinkSimulator(config)
    sigma = sigma_from_snr(snr_o_db)
    errors, bits, censored = sim.run(
        sigma, config.max_bits, config.seed if seed is None else seed,
        stop_target=stop_target)
    return BerPoint(snr_o_db, errors / bits, bits, errors, censored)


def run_ber_curve(config: ExperimentConfig, snr_grid: Sequence[float],
                  constellation=None, g_matrix=None) -> BerCurve:
    """BER at each SNR in the grid, one derived RNG stream per point."""
    sim = LinkSimulator(config, constellation, g_matrix)
    curve = BerCurve(config)
    for i, snr in enumerate(snr_grid):
        point = run_ber_point(config, snr, simulator=sim,
                              seed=(config.seed, i))
        curve.points.append(point)
    return curve


def find_power_requirement(config: ExperimentConfig, constellation=None,
                           g_matrix=None) -> PowerRequirement:
    """Bisect the optical SNR threshold reaching ``config.target_ber`` to a
    0.1 dB bracket.

    If the BER at 40 dB still exceeds the target the requirement is
    reported unachievable (the irreducible-floor case).  The result is the
    threshold in dB relative to the OOK reference at the same noise level.
    """
    target = config.target_ber
    sim = LinkSimulator(config, constellation, g_matrix)
    stream = iter(range(1 << 30))

    def measure(snr):
        return run_ber_point(config, snr, simulator=sim,
                             seed=(config.seed, next(stream)),
                             stop_target=target)

    top = measure(_SNR_HI_DB)
    if top.ber > target:
        return PowerRequirement(config, False, None, None, np.inf)
    lo, hi = _SNR_LO_DB, _SNR_HI_DB
    probe = measure(lo)
    while probe.ber <= target and lo > -30.0:
        hi = lo
        lo -= 10.0
        probe = measure(lo)
    while hi - lo > _BRACKET_DB:
        mid = 0.5 * (lo + hi)
        point = measure(mid)
        if point.ber > target:
            lo = mid
        else:
            hi = mid
    return PowerRequirement(config, True, hi,
                            hi - ook_normalisation_db(target), hi - lo)


# --- result serialisation ---------------------------------------------------

def write_curve_csv(fh, curve: BerCurve) -> None:
    """One row per measured point: scheme, M, Dt, fde, snr_db, ber, bits, errors."""
    w = csv.writer(fh)
    w.writerow(["scheme", "order", "dt", "fde", "snr_o_db", "ber",
                "bits", "errors", "censored"])
    c = curve.config
    for p in curve.points:
        w.writerow([c.scheme, c.order, f"{c.dt:g}", int(c.fde),
                    f"{p.snr_o_db:.4f}", f"{p.ber:.6e}",
                    p.bits, p.errors, int(p.censored)])


def write_requirements_csv(fh, requirements) -> None:
    w = csv.writer(fh)
    w.writerow(["scheme", "order", "dt", "fde", "target_ber",
                "requirement_db", "snr_o_db", "bracket_db"])
    for r in requirements:
        c = r.config
        w.writerow([c.scheme, c.order, f"{c.dt:g}", int(c.fde),
                    f"{c.target_ber:g}", r.as_table_value,
                    "" if r.snr_o_db is None else f"{r.snr_o_db:.3f}",
                    "" if not np.isfinite(r.bracket_db) else f"{r.bracket_db:.3f}"])


def requirements_summary(requirements) -> dict:
    """JSON-ready dict mirroring the published table layout."""
    entries = []
    for r in requirements:
        c = r.config
        entries.append({
            "scheme": c.scheme,
            "order": c.order,
            "dt": c.dt,
            "fde": bool(c.fde),
            "target_ber": c.target_ber,
            "requirement_db": None if not r.achievable else round(r.requirement_db, 3),
            "achievable": r.achievable,
        })
    return {"normalisation": "OOK over AWGN at equal noise level",
            "entries": entries}


def write_requirements_json(fh, requirements) -> None:
    json.dump(requirements_summary(requirements), fh, indent=2, sort_keys=True)
    fh.write("\n")
