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
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import channel as chan
from . import colorimetry, fde, modem
from .errors import InvalidConfig, InvalidParameter, InvalidTarget, UnsupportedOrder

# Each chunk's noise is drawn, and its blocks go through the chain, in
# tiles of this many blocks.  On the draw pipeline each tile is one task, so
# a stop waits for at most one; the serial loop draws each tile's noise into
# one tile-sized buffer per run.
_SLICE_BLOCKS = 512
_CHUNK_BLOCKS = 4096

# The bisection's search range and its stopping bracket, in dB of SNR_o.
_SNR_LO_DB, _SNR_HI_DB, _BRACKET_DB = 0.0, 40.0, 0.1

_SYMBOL_RATE = 24e6  # Rs in symbols/s: the paper's 24 MHz system bandwidth
_ZIGGURAT_R = 3.6541528853610088  # where numpy's normal sampler's tail starts


def qfunc_inv(p: float) -> float:
    """Inverse Gaussian tail function Q^-1."""
    from scipy.special import erfcinv  # here: only the bisection needs it
    return float(np.sqrt(2.0) * erfcinv(2.0 * p))


def sigma_from_snr(snr_o_db: float) -> float:
    """Noise deviation at unit transmit power for the given optical SNR, as a
    Python float; InvalidParameter where it overflows (below about -3082 dB)."""
    try:
        return 10.0 ** (-float(snr_o_db) / 10.0)
    except OverflowError:
        raise InvalidParameter(f"SNR {snr_o_db} dB overflows sigma") from None


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

    A run works in chunks of blocks, and each chunk in tiles of
    ``_SLICE_BLOCKS`` blocks, which one thread takes through the whole
    chain, scaling its noise by sigma.  Per chunk the Philox generator
    gets the calls of one serial loop, in its order: the chunk's symbol
    indices in one call, then its noise in one bare fill per tile.  Blocks
    are independent, so the errors summed over the tiles are those of the
    serial loop, bit for bit, and the stop rule is checked once per chunk.
    ``run`` has two schedules of those calls:

    - the serial loop, on the calling thread: per chunk the index call,
      then per tile its noise fill into one tile-sized buffer of the run,
      then the tile.  It starts no thread.  A run whose blocks, warm-up
      included, fit in one tile takes it, and so does every point of a
      curve measured side by side (:func:`run_ber_curve`);
    - the draw pipeline, for any other run: a one-worker
      ``ThreadPoolExecutor`` alone uses the generator, and behind the
      chunk's draws its queue holds one task per tile.  The calling thread
      goes through the tiles in order, taking back each task that
      ``Future.cancel()`` shows the worker has not started and running it
      itself; the worker runs the tiles it reaches first.  The run shuts
      the pool down on every exit, cancelling the tasks not yet started,
      so no thread outlives the call.

    Runs may share a simulator across threads: once its neighbour lists
    are built, a run only reads it.

    Detection is screened and exact (:func:`modem.count_bit_errors`).  Its
    neighbour lists, used from M = ``modem._LIST_MIN_ORDER`` on, are built
    when a run is first checked with sigma > 0, before its first draw, so a
    noiseless run builds none; :func:`run_ber_curve` checks every point
    before its threads start, so they build none.

    The zero-forcing coefficients are built only with FDE on, so a channel
    whose spectrum has a null raises SpectralNull only then.  A bad CIL
    matrix raises DimensionMismatch or SingularMatrix, and a constellation
    of another (scheme, M) than the config's raises InvalidParameter, at
    construction, before any run starts.
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
        self._neighbours = None  # see the class docstring
        self.labels = self.constellation.labels
        self.zfe_half = None
        if config.fde:
            zfe = fde.build_zfe(self.taps.astype(float), config.n)
            # real-input FFT needs only the first N/2 + 1 bins
            ctype = np.complex64 if dtype == np.float32 else np.complex128
            self.zfe_half = zfe[:config.n // 2 + 1].astype(ctype)
        self.dtype = dtype
        draw = _ZIGGURAT_R + (np.finfo(dtype).nmant + 1) * np.log(2) / _ZIGGURAT_R
        gain = max(1, np.linalg.norm(self.g_inv, np.inf))
        if config.fde:
            gain *= config.n ** 2 * np.abs(self.zfe_half).max()
        self._sigma_max = float(np.finfo(dtype).max / (2 * gain * draw))

    def run(self, sigma: float, n_bits: int, seed,
            stop_target: Optional[float] = None,
            min_bit_errors: Optional[int] = None,
            chunk_blocks: int = _CHUNK_BLOCKS, *,
            alongside: Optional[threading.Event] = None):
        """Accumulate bit errors until ``n_bits``, the error floor of the
        stopping rule, or a decisive Wilson comparison against ``stop_target``.

        Returns (errors, bits, censored); ``censored`` means the run used up
        ``n_bits`` before ``min_bit_errors`` and no decisive comparison
        against ``stop_target`` ended it first.  Raises InvalidParameter,
        before any thread starts, unless ``n_bits`` and ``chunk_blocks`` are
        finite and >= 1, ``min_bit_errors`` >= 1, ``stop_target`` None or in
        (0, 1) and 0 <= ``sigma`` <= sigma_max.  The noise is
        ``float(sigma)`` times draws in the simulator's dtype, so a sigma of
        any real type gives the same bits, and sigma = 0 draws none.

        sigma_max = max(dtype) / (2 gain D) keeps every stage finite
        (docs/decisions.md derives it): numpy's ziggurat draws |z| < D =
        r + b ln 2 / r, with r = 3.654 and b = 24 bits in float32 (D = 8.21);
        gain = max(1, ||G^-1||_inf), times N^2 max |Z| with FDE on; the 2
        covers the signal.  In float32 that is SNR_o -327 to -330 dB with FDE at N = 64,
        and -366 dB without.

        Schedule (see the class docstring): a run of ``blocks <=
        min(chunk_blocks, _SLICE_BLOCKS)`` takes the serial loop, and any
        other run the draw pipeline, unless ``alongside`` is given: the
        event of a curve whose points run side by side
        (:func:`run_ber_curve`).  Such a run takes the serial loop, and
        once the event is set it raises CancelledError at the end of its
        chunk, so a curve that fails or is interrupted stops its points
        within a chunk.  Either way an error in a tile or a draw is raised
        here, and the outputs are the same bytes.
        """
        min_errors = self._check(sigma, n_bits, stop_target, min_bit_errors,
                                 chunk_blocks)
        sigma = float(sigma)
        # +1: the stream's first block is a warm-up, drawn but not counted
        blocks = int(np.ceil(n_bits / (self.k * self.config.n))) + 1
        schedule = (self._serial if alongside is not None or
                    blocks <= min(chunk_blocks, _SLICE_BLOCKS) else self._pipelined)
        chunks = schedule(sigma, blocks, chan.make_rng(seed), chunk_blocks)
        errors = bits = 0
        try:
            for counted, chunk_errors in chunks:
                errors += chunk_errors
                bits += counted * self.config.n * self.k
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
                if alongside is not None and alongside.is_set():
                    from concurrent.futures import CancelledError
                    raise CancelledError("the curve of this point stopped")
        finally:
            chunks.close()
        return errors, bits, errors < min_errors

    def _check(self, sigma, n_bits, stop_target=None, min_bit_errors=None,
               chunk_blocks=_CHUNK_BLOCKS) -> int:
        """Raise InvalidParameter for arguments that ``run`` refuses, and
        build the neighbour lists for a sigma > 0; returns the run's error
        floor."""
        min_errors = (self.config.min_bit_errors if min_bit_errors is None
                      else min_bit_errors)
        for name, value in (("n_bits", n_bits), ("min_bit_errors", min_errors),
                            ("chunk_blocks", chunk_blocks)):
            if not value >= 1:  # NaN too
                raise InvalidParameter(f"{name} must be >= 1, got {value}")
        for name, value in (("n_bits", n_bits), ("chunk_blocks", chunk_blocks)):
            if value == np.inf:
                raise InvalidParameter(f"{name} must be finite, got {value}")
        if stop_target is not None and not 0 < stop_target < 1:
            raise InvalidParameter(
                f"stop_target must be in (0, 1), got {stop_target}")
        if not 0 <= sigma <= self._sigma_max:
            raise InvalidParameter(
                f"sigma must be in [0, {self._sigma_max:.4g}], got {sigma}")
        if sigma > 0 and self._neighbours is None:
            self._neighbours = modem.neighbour_lists(self.constellation,
                                                    self.dtype)
        return min_errors

    def _serial(self, sigma: float, blocks: int, rng, chunk_blocks):
        """The serial loop: yields (counted blocks, errors) per chunk,
        drawing each tile's noise as the tile needs it."""
        n, cp, order = self.config.n, self.config.cp, self.constellation.order
        tile_blocks = int(min(chunk_blocks, blocks, _SLICE_BLOCKS))
        noise = (np.empty((tile_blocks * (n + cp), self.n_bands), dtype=self.dtype)
                 if sigma > 0 else None)
        done = 0
        while done < blocks:
            nb = int(min(chunk_blocks, blocks - done))
            skip = 0 if done else n  # tile 0 of chunk 0 skips the warm-up
            done += nb
            symbols = rng.integers(0, order, size=nb * n)
            errors = 0
            for start in range(0, nb, _SLICE_BLOCKS):
                stop = min(start + _SLICE_BLOCKS, nb)
                part = None
                if noise is not None:
                    part = noise[:(stop - start) * (n + cp)]
                    rng.standard_normal(dtype=self.dtype, out=part)
                errors += self._tile(
                    symbols[start * n:stop * n], part, sigma, 0 if start else skip)
            yield nb - 1 if skip else nb, errors

    def _pipelined(self, sigma: float, blocks: int, rng, chunk_blocks):
        """The draw pipeline: yields what ``_serial`` yields, with the draws
        on a one-worker pool that also runs the tiles it reaches first."""
        n, cp, bands = self.config.n, self.config.cp, self.n_bands
        order, queued = self.constellation.order, 0
        # imported here and in run_ber_curve, so that importing cskfde and
        # building an unequalised simulator below M = 1024, which loads no
        # scipy module, loads no concurrent.futures (and its logging): 6.5 ms
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(1, thread_name_prefix="cskfde-draws")

        def tile(symbols, noise, rows, skip):
            return self._tile(symbols.result()[rows],
                              None if noise is None else noise.result(),
                              sigma, skip)

        def queue():
            """Queue the next chunk's indices, its noise slices (Philox fills
            are slice-invariant and tasks run in order, so the slices hold one
            serial call's values) and a tile task per slice.  Returns its
            counted blocks and tiles (task, arguments), or None when none is left."""
            nonlocal queued
            nb = int(min(chunk_blocks, blocks - queued))
            if nb == 0:
                return None
            skip = 0 if queued else n  # tile 0 of chunk 0 skips the warm-up
            queued += nb
            symbols = pool.submit(rng.integers, 0, order, size=nb * n)
            # one buffer a chunk: per-slice ones took 18x the page faults, 7% longer
            noise = (np.empty((nb * (n + cp), bands), dtype=self.dtype)
                     if sigma > 0 else None)
            tiles = []
            for start in range(0, nb, _SLICE_BLOCKS):
                stop = start + _SLICE_BLOCKS
                part = None if noise is None else pool.submit(
                    rng.standard_normal, dtype=self.dtype,
                    out=noise[start * (n + cp):stop * (n + cp)])
                tiles.append((symbols, part, slice(start * n, stop * n),
                              0 if start else skip))
            return (nb - 1 if skip else nb,
                    [(pool.submit(tile, *args), args) for args in tiles])

        try:
            chunk = queue()
            while chunk is not None:
                (counted, tiles), chunk = chunk, queue()
                errors, kept = 0, []
                for task, args in tiles:
                    if task.cancel():  # the worker has not started it
                        errors += tile(*args)
                    else:
                        kept.append(task)
                yield counted, errors + sum(task.result() for task in kept)
        finally:
            pool.shutdown(cancel_futures=True)

    def _tile(self, tx_idx, noise, sigma: float, skip: int):
        """The bit errors of one tile: the blocks of the symbol indices
        ``tx_idx``, with ``noise`` (None when sigma = 0) the standard normal
        draws that, scaled by ``sigma`` in place, are their noise.  The
        first ``skip`` rows are not counted."""
        n, cp, bands = self.config.n, self.config.cp, self.n_bands
        nb = len(tx_idx) // n
        tx = np.take(self.points, tx_idx, axis=0).reshape(nb, n, bands)
        rx = chan.disperse(modem.frame(tx, cp), self.taps) @ self.g.T
        if noise is not None:
            rx += np.multiply(noise, sigma, out=noise)
        rx = rx @ self.g_inv.T
        payload = rx.reshape(nb, n + cp, bands)[:, cp:]
        if self.config.fde:
            payload = fde.equalize(payload, self.zfe_half)
        return modem.count_bit_errors(
            payload.reshape(nb * n, bands)[skip:], tx.reshape(nb * n, bands)[skip:],
            tx_idx[skip:], self.trust_sq, self.ct, self.half_norms,
            self.labels, self._neighbours)


def run_ber_point(config: ExperimentConfig, snr_o_db: float,
                  simulator: Optional[LinkSimulator] = None,
                  seed=None, stop_target: Optional[float] = None, *,
                  alongside: Optional[threading.Event] = None) -> BerPoint:
    """Measure BER at one optical SNR point.

    Runs until ``min_bit_errors`` errors or ``max_bits`` bits; a point that
    hits the bit budget first is flagged censored.  Deterministic per seed.
    A ``simulator`` built for a config that differs from ``config`` in more
    than ``max_bits`` and ``seed`` raises InvalidParameter.  ``alongside``
    is passed on to :meth:`LinkSimulator.run`.
    """
    sim = simulator or LinkSimulator(config)
    built = sim.config
    if replace(config, max_bits=built.max_bits, seed=built.seed) != built:
        raise InvalidParameter(f"simulator built for {built}, not for {config}")
    sigma = sigma_from_snr(snr_o_db)
    errors, bits, censored = sim.run(
        sigma, config.max_bits, config.seed if seed is None else seed,
        stop_target=stop_target, alongside=alongside)
    return BerPoint(snr_o_db, errors / bits, bits, errors, censored)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ber_curve(config: ExperimentConfig, snr_grid: Sequence[float],
                  constellation=None, g_matrix=None) -> BerCurve:
    """BER at each SNR in the grid, one derived RNG stream per point.

    Point i draws from its own Philox stream (config.seed, i), so the
    points are independent of the order they run in.  They are measured
    side by side on one thread per CPU this process may run on, never more
    threads than points, each on the serial schedule of
    :meth:`LinkSimulator.run`; a one-point grid, or a process on one CPU,
    measures them one after another on the calling thread, and an empty
    grid gives an empty curve.  Either way the points come back in grid
    order with the same bytes.  Every point's arguments are checked, and
    the simulator's neighbour lists built, before any point starts, so bad
    input raises before any thread starts.  When a point fails or the
    caller is interrupted, the points not started are cancelled and those
    running stop at the end of their chunk.
    """
    sim = LinkSimulator(config, constellation, g_matrix)
    grid = list(snr_grid)
    for snr in grid:
        sim._check(sigma_from_snr(snr), config.max_bits)
    threads = min(len(grid), _cpu_count())
    if threads <= 1:
        return BerCurve(config, [
            run_ber_point(config, snr, simulator=sim, seed=(config.seed, i))
            for i, snr in enumerate(grid)])
    stop = threading.Event()

    def measure(i):
        return run_ber_point(config, grid[i], simulator=sim,
                             seed=(config.seed, i), alongside=stop)

    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(threads, thread_name_prefix="cskfde-points")
    try:
        return BerCurve(config, list(pool.map(measure, range(len(grid)))))
    finally:
        stop.set()  # on an error or an interrupt, running points end a chunk
        pool.shutdown(cancel_futures=True)


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
                    f"{r.snr_o_db:.3f}" if r.achievable else "",
                    f"{r.bracket_db:.3f}" if r.achievable else ""])


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
