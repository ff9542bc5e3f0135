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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, get_type_hints

import numpy as np
from scipy.special import erfcinv

from . import channel as chan
from . import colorimetry, fde, modem
from .errors import InvalidConfig, InvalidParameter, InvalidTarget, UnsupportedOrder

# Each chunk's noise is drawn, and its blocks go through the chain, in
# tiles of this many blocks, one task each, so a stop waits for at most one.
_SLICE_BLOCKS = 512

# The bisection's search range and its stopping bracket, in dB of SNR_o.
_SNR_LO_DB, _SNR_HI_DB, _BRACKET_DB = 0.0, 40.0, 0.1

_SYMBOL_RATE = 24e6  # Rs in symbols/s: the paper's 24 MHz system bandwidth


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
        if self.n < chan.N_TAPS or (self.n & (self.n - 1)) != 0:
            raise InvalidParameter(
                f"N must be a power of two >= {chan.N_TAPS}, got {self.n}")
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


def data_rate(order: int, n: int = ExperimentConfig.n,
              cp: int = ExperimentConfig.cp) -> float:
    """Payload bit rate (N / (N + L)) * Rs * log2(M); cp = 0 gives the unframed
    rate.  Rs is used nowhere else: Dt is normalised to the bit time."""
    if order < 2 or not float(np.log2(order)).is_integer() or n < 1 or cp < 0:
        raise InvalidParameter("invalid rate parameters")
    return (n / (n + cp)) * _SYMBOL_RATE * np.log2(order)


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
    chunk's symbol indices in one call, then its scaled noise in one task
    per ``_SLICE_BLOCKS`` slice, with the calls and in the order of a serial
    loop.  Each slice is also a tile, which one thread takes through the
    whole chain: behind the chunk's noise the worker's queue holds one task
    per tile, and the calling thread goes through the tiles in order, taking
    back each task that ``Future.cancel()`` shows the worker has not started
    and running it itself.  The worker runs the tiles it reaches first.
    Blocks are independent, so the errors summed over the tiles are those of
    the serial loop, bit for bit.  The stop rule is checked once per chunk.
    The run shuts the pool down on every exit, cancelling the tasks not yet
    started, so no thread outlives the call.

    Detection is screened: a row within the trust radius of its sent point
    (:func:`modem.trust_thresholds`) provably detects as that point, so only
    the other rows go through the full metric (:func:`modem.nearest_points`).
    The decisions, and so the bit errors, are those of the full metric on
    every row.  A bad CIL matrix raises DimensionMismatch or SingularMatrix,
    and a constellation of another (scheme, M) than the config's raises
    InvalidParameter, at construction, before any run starts.
    """

    def __init__(self, config: ExperimentConfig,
                 constellation: Optional[colorimetry.Constellation] = None,
                 g_matrix: Optional[np.ndarray] = None,
                 dtype=np.float32):
        self.config = config
        self.constellation = constellation or colorimetry.build_constellation(
            config.scheme, config.order)
        built = (self.constellation.scheme, self.constellation.order)
        if built != (config.scheme, config.order):
            raise InvalidParameter(f"constellation {built} does not match the "
                                   f"config's {(config.scheme, config.order)}")
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

        Schedule: each chunk is sized as it is queued.  The worker's queue
        holds its indices, its noise slices, then one task per tile, and the
        next chunk's are queued as the caller starts on this one.  The caller
        runs each tile whose task it cancels before the worker starts it,
        then collects the worker's tiles, so an error in a tile or a draw on
        either thread is raised here, a worker's when the caller collects
        that chunk.  On any exit the run waits for at most one task.
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
        # +1: the stream's first block is a warm-up, drawn but not counted
        blocks = int(np.ceil(n_bits / (self.k * n))) + 1
        queued = errors = bits = 0
        rng, order = chan.make_rng(seed), self.constellation.order
        pool = ThreadPoolExecutor(1, thread_name_prefix="cskfde-draws")

        def fill(part):  # ufuncs return their ``out``
            return np.multiply(rng.standard_normal(part.shape, dtype=self.dtype),
                               sigma, out=part)

        def queue():
            """Queue the next chunk's indices, its noise slices (the dtype of
            ``sigma * rng.standard_normal(shape, dtype)``; Philox fills are
            slice-invariant and tasks run in order, so the slices hold one
            serial call's values) and a ``_tile`` task per slice.  Returns its
            counted blocks and tiles (task, arguments), or None when none is left."""
            nonlocal queued
            nb = int(min(chunk_blocks, blocks - queued))
            if nb == 0:
                return None
            skip = 0 if queued else n  # tile 0 of chunk 0 skips the warm-up
            queued += nb
            symbols = pool.submit(rng.integers, 0, order, size=nb * n)
            noise = (np.empty((nb * (n + cp), bands),
                              dtype=np.result_type(sigma, self.dtype))
                     if sigma > 0 else None)
            tiles = []
            for start in range(0, nb, _SLICE_BLOCKS):
                stop = start + _SLICE_BLOCKS
                part = None if noise is None else pool.submit(
                    fill, noise[start * (n + cp):stop * (n + cp)])
                tiles.append((symbols, part, slice(start * n, stop * n),
                              0 if start else skip))
            return (nb - 1 if skip else nb,
                    [(pool.submit(self._tile, *tile), tile) for tile in tiles])

        try:
            chunk = queue()
            while chunk is not None:
                (counted, tiles), chunk = chunk, queue()
                counts, kept = [], []
                for task, tile in tiles:
                    if task.cancel():  # the worker has not started it
                        counts.append(self._tile(*tile))
                    else:
                        kept.append(task)
                counts += [task.result() for task in kept]
                chunk_errors, suspects = map(sum, zip(*counts))
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

    def _tile(self, symbols, noise, rows: slice, skip: int):
        """(errors, suspects) of one tile, the blocks of one draw slice:
        ``rows`` of the chunk's indices, which the task ``symbols`` gives,
        and the task ``noise`` (None when sigma = 0) gives its noise.  The
        first ``skip`` rows are not counted."""
        n, cp, bands = self.config.n, self.config.cp, self.n_bands
        tx_idx = symbols.result()[rows]
        nb = len(tx_idx) // n
        tx = self.points[tx_idx].reshape(nb, n, bands)
        rx = chan.disperse(modem.frame(tx, cp), self.taps) @ self.g.T
        if noise is not None:
            rx += noise.result()
        rx = rx @ self.g_inv.T
        payload = rx.reshape(nb, n + cp, bands)[:, cp:]
        if self.config.fde:
            payload = fde.equalize(payload, self.zfe_half)
        return modem.count_bit_errors(
            payload.reshape(nb * n, bands)[skip:], tx.reshape(nb * n, bands)[skip:],
            tx_idx[skip:], self.trust_sq, self.ct, self.half_norms, self.labels)


def run_ber_point(config: ExperimentConfig, snr_o_db: float,
                  simulator: Optional[LinkSimulator] = None,
                  seed=None, stop_target: Optional[float] = None) -> BerPoint:
    """Measure BER at one optical SNR point.

    Runs until ``min_bit_errors`` errors or ``max_bits`` bits; a point that
    hits the bit budget first is flagged censored.  Deterministic per seed.
    A ``simulator`` built for a config that differs from ``config`` in more
    than ``max_bits`` and ``seed`` raises InvalidParameter.
    """
    sim = simulator or LinkSimulator(config)
    built = sim.config
    if replace(config, max_bits=built.max_bits, seed=built.seed) != built:
        raise InvalidParameter(f"simulator built for {built}, not for {config}")
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
