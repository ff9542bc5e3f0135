"""Modem: cyclic-prefix framing, screened ML detection and the bit-error
count."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .colorimetry import Constellation
from .errors import InvalidPrefix, LengthMismatch


def frame(tx_blocks, cp: int) -> np.ndarray:
    """Cyclic-prefix framing of a stack of blocks into one serial stream.

    ``tx_blocks`` is (n_blocks, N, n_bands).  Each block gets its last ``cp``
    rows copied to its front, and the framed blocks are laid end to end as
    (n_blocks * (N + cp), n_bands) rows.  Removing the prefix at the
    receiver is the slice ``[:, cp:]`` of the (n_blocks, N + cp, n_bands)
    view of the received stream.
    """
    tx_blocks = np.asarray(tx_blocks)
    n_blocks, n, n_bands = tx_blocks.shape
    if not 0 <= cp <= n:
        raise InvalidPrefix(f"prefix {cp} outside 0..{n}, the payload length")
    framed = np.concatenate([tx_blocks[:, n - cp:], tx_blocks], axis=1)
    return framed.reshape(n_blocks * (n + cp), n_bands)


# --- detection -----------------------------------------------------------------
#
# Detection picks the point c_k maximising the metric r . c_k - ||c_k||^2 / 2,
# which is the point nearest to r.  The metric is evaluated in tiles of at
# most METRIC_TILE_ENTRIES entries, so its memory is bounded whatever the
# number of rows, and a tile stays in cache.  Rows that provably sit deep
# inside the decision region of a known point (see trust_thresholds) need no
# metric at all.  The other rows, the suspects, are gathered; at large orders
# most of them are decided among the sent point's nearest neighbours (see
# list_decisions), and exactly the rest take the full metric.
# docs/decisions.md records the argument and its measurements.

METRIC_TILE_ENTRIES = 1 << 16
TRUST_FRACTION = 0.45  # c in the trust radius c * nn_j; any c < 1/2 is exact
TRUST_MARGIN = 10.0    # proven metric gap over the float error bound

# The smallest order whose suspects are decided among neighbour lists (see
# list_decisions) before the full metric.  On one 256-block tile's suspects,
# lists and fallback took 0.52 ms against 1.76 ms of full metric at
# QLED-1024 (28 dB), but 0.97 against 0.94 ms at QLED-256 (24 dB).
_LIST_MIN_ORDER = 1024

# Each point's list holds itself and its 8 nearest points, so R_j is about
# 2 nn_j.  Of 3064 suspects of a QLED-4096 tile at 31 dB, lists of K = 4, 6,
# 8 and 12 left 437, 171, 158 and 158 rows to the full metric: 8 is the
# smallest K that leaves only the near-ties, and each K costs every suspect.
_NEIGHBOURS = 8


def detection_metric(constellation: Constellation, dtype=float):
    """Precomputed (Cᵀ, ||c||²/2) pair for the argmin distance rule, with
    the points first rounded to ``dtype``."""
    pts = constellation.intensities.astype(dtype)
    return pts.T.copy(), 0.5 * np.sum(pts ** 2, axis=1)


def metric_tiles(rows, ct, half_norms):
    """Yield ``(start, stop, metric)`` with ``metric`` equal to
    ``rows[start:stop] @ ct - half_norms``, covering ``rows`` in order.

    Each tile reuses one buffer, so consume it before asking for the next.
    Every row of a tile equals, bit for bit, the same row of the product
    over all of ``rows``: no product has a single row, because numpy hands
    a 1-row product to BLAS gemv, which rounds differently from the gemm
    rows of a larger product.  A lone last row is therefore computed with
    the row before it, and a lone input row is duplicated.
    """
    n_rows = rows.shape[0]
    if n_rows == 0:
        return
    if n_rows == 1:
        rows = np.concatenate([rows, rows])
    total = rows.shape[0]
    step = max(2, METRIC_TILE_ENTRIES // ct.shape[1])
    buf = np.empty((min(step, total), ct.shape[1]),
                   dtype=np.result_type(rows, ct, half_norms))
    for start in range(0, total, step):
        stop = min(start + step, total)
        start = min(start, stop - 2)
        metric = buf[:stop - start]
        np.matmul(rows[start:stop], ct, out=metric)
        metric -= half_norms
        stop = min(stop, n_rows)
        yield start, stop, metric[:stop - start]


def nearest_points(rows, ct, half_norms) -> np.ndarray:
    """Index of the largest detection metric of each row, ties to the
    lowest index: the full decision, tile by tile."""
    out = np.empty(rows.shape[0], dtype=np.intp)
    for start, stop, metric in metric_tiles(rows, ct, half_norms):
        np.argmax(metric, axis=1, out=out[start:stop])
    return out


def _gamma(k, u):
    """gamma_k = k u / (1 - k u): k roundings of unit roundoff u."""
    return k * u / (1 - k * u)


def _metric_error(n_bands, dtype):
    """The factors (a, b) of the bound a * A + b * H on the rounding error of
    a detection metric computed in ``dtype``, with A a bound on the dot
    product's sum of |r_i c_ki| and H on the half norm: see
    :func:`trust_thresholds`."""
    u = float(np.finfo(dtype).eps) / 2
    return (_gamma(n_bands, u) + u * (1 + _gamma(n_bands, u)),
            _gamma(n_bands + 1, u) + u * (1 + _gamma(n_bands + 1, u)))


def trust_thresholds(constellation: Constellation, dtype=float) -> np.ndarray:
    """Squared trust radii: a row r whose squared distance to point j,
    computed in ``dtype``, is below ``thresholds[j]`` detects as j under
    the full metric of :func:`nearest_points`, bit for bit.

    Point j gets the radius rho_j = TRUST_FRACTION * nn_j, with nn_j the
    distance to its nearest neighbour.  If ||r - c_j|| < rho_j, every other
    point k is at least nn_j - rho_j from r, so the exact metrics
    M_k = r . c_k - ||c_k||^2 / 2 = (||r||^2 - ||r - c_k||^2) / 2 satisfy

        M_j - M_k > ((nn_j - rho_j)^2 - rho_j^2) / 2 = nn_j (nn_j - 2 rho_j) / 2,

    which is 0.05 nn_j^2 at a fraction of 0.45.  The computed metrics are
    within E_j of the exact ones, with u the unit roundoff of ``dtype``,
    n the number of bands and gamma_k = k u / (1 - k u):

    * the n-term dot product is off by at most gamma_n * A_j, where
      A_j = (||c_j|| + rho_j) * max_k ||c_k|| bounds sum_i |r_i c_ki| by
      Cauchy-Schwarz;
    * the rounded half norm is off by at most gamma_(n+1) * H, H the largest
      half norm;
    * the subtraction adds u times the size of its operands.

    So E_j = (gamma_n + u (1 + gamma_n)) A_j + (gamma_(n+1) + u (1 + gamma_(n+1))) H,
    and the computed metric of j beats every other point if the gap exceeds
    2 E_j.  The screening test rounds too: a computed squared distance below
    tau only proves ||r - c_j||^2 < tau / (1 - gamma_(n+2)), so rho_j is
    widened by that factor; and the points are rounded to ``dtype``, which
    moves nn_j by up to twice the largest rounding shift.  A point whose gap
    is not TRUST_MARGIN times 2 E_j gets threshold 0, so its rows always
    take the full metric; coincident points always do.
    """
    exact = constellation.intensities
    pts = exact.astype(dtype).astype(float)
    n_bands = pts.shape[1]
    u = float(np.finfo(dtype).eps) / 2
    offset = pts - exact
    shift = np.sqrt(np.einsum("ij,ij->i", offset, offset).max())
    nn = constellation.nearest_neighbour_distances - 2 * shift
    tau = np.square(np.maximum(TRUST_FRACTION * nn, 0).astype(dtype))
    rho = np.sqrt(tau.astype(float) / (1 - _gamma(n_bands + 2, u))) \
        * (1 + 1e-12)
    norm = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    reach = (norm + rho) * norm.max()
    half = 0.5 * norm.max() ** 2
    dot_err, half_err = _metric_error(n_bands, dtype)
    bound = 2 * (dot_err * reach + half_err * half)
    gap = nn * (nn - 2 * rho) / 2
    trusted = (nn > 2 * rho) & (gap >= TRUST_MARGIN * bound)
    return np.where(trusted, tau, 0).astype(dtype)


def suspect_rows(received, sent, thresholds) -> np.ndarray:
    """Indices of the rows not proven to detect as their sent point: the
    squared distance of ``received[i]`` to ``sent[i]`` is not below
    ``thresholds[i]`` (see :func:`trust_thresholds`).  NaN rows are suspect."""
    resid = received - sent
    dist2 = np.einsum("ij,ij->i", resid, resid)
    return np.flatnonzero(~(dist2 < thresholds))


class Neighbours(NamedTuple):
    """Per-point lists of :func:`list_decisions`, built from the points
    rounded to the simulation dtype by :func:`neighbour_lists`."""

    points: np.ndarray  # (M, n_bands) the rounded points, as float64
    lists: np.ndarray   # (M, K + 1) j's nearest points, j itself included
    reach: np.ndarray   # (M,) R_j: distance to the nearest point off j's list
    err_slope: float    # the float bound of a row r's metrics is
    err_floor: float    # E(r) = err_slope * ||r|| + err_floor


def neighbour_lists(constellation: Constellation,
                    dtype=float) -> Neighbours | None:
    """The list of each point j of ``constellation`` rounded to ``dtype``: j
    and its ``_NEIGHBOURS`` nearest points, with R_j the computed distance
    from j to the next nearest.  None below ``_LIST_MIN_ORDER`` points,
    where the full metric alone is faster.  The search is a
    ``scipy.spatial`` tree, imported here, so that only a run at M >=
    ``_LIST_MIN_ORDER`` loads it."""
    if constellation.order < _LIST_MIN_ORDER:
        return None
    from scipy.spatial import cKDTree
    points = constellation.intensities.astype(dtype).astype(float)
    size = _NEIGHBOURS + 1
    dist, idx = cKDTree(points).query(points, k=size + 1)
    top = np.sqrt(np.einsum("ij,ij->i", points, points).max())
    dot_err, half_err = _metric_error(points.shape[1], dtype)
    return Neighbours(points, idx[:, :size], dist[:, size], dot_err * top,
                      half_err * 0.5 * top ** 2)


def list_decisions(rows, sent_idx, neighbours: Neighbours) -> np.ndarray:
    """The index each row detects as under :func:`nearest_points`, decided
    among the list of its sent point ``sent_idx``, or -1 where the list
    cannot prove it: near-ties, NaN or infinite rows and far outliers.

    Every point off the list of j is at least R_j - s from a row r sent as
    j, with s = ||r - c_j||.  So with d1 and d2 the best and second best of
    the list's distances and d2' = min(d2, R_j - s), the exact metric of the
    list's argmin beats every other point's by at least (d2'^2 - d1^2) / 2.
    The argmin is proven when that gap exceeds TRUST_MARGIN times 2 E(r),
    the float bound of :func:`trust_thresholds` with ||r|| in the
    Cauchy-Schwarz term.  The distances are computed in float64, and each
    is widened or shrunk by a relative slack far above its rounding.  A tie
    in the list gives a zero gap, so ties take the full metric.  A row with
    s >= R_j leaves no room for d2' and is not searched at all, so rows far
    beyond the lists' reach cost one distance each.
    """
    points, lists, reach, err_slope, err_floor = neighbours
    slack = 64 * np.finfo(float).eps  # the distances round at most (n + 3) u
    out = np.full(len(rows), -1, dtype=np.intp)
    r = rows.astype(float)
    # inf and NaN rows are left to the full metric, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        resid = np.take(points, sent_idx, axis=0)
        resid -= r
        s = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        off_list = reach[sent_idx] * (1 - slack) - s * (1 + slack)
    # a NaN s fails this test too
    near = np.flatnonzero(off_list > 0)
    r, off_list = np.take(r, near, axis=0), off_list[near]
    cand = np.take(lists, sent_idx[near], axis=0)
    best = np.zeros(len(r), dtype=np.intp)
    best_sq = np.full(len(r), np.inf)
    second_sq = best_sq.copy()
    # a column at a time: no (rows, K + 1, bands) temporary, and no slower
    for k in range(cand.shape[1]):
        resid = np.take(points, cand[:, k], axis=0)
        resid -= r
        dist2 = np.einsum("ij,ij->i", resid, resid)
        closer = dist2 < best_sq
        second_sq = np.where(closer, best_sq, np.minimum(second_sq, dist2))
        best[closer] = k
        best_sq = np.where(closer, dist2, best_sq)
    second_sq = np.minimum(second_sq, off_list ** 2) * (1 - slack)
    bound = 2 * TRUST_MARGIN * (
        err_slope * np.sqrt(np.einsum("ij,ij->i", r, r)) + err_floor)
    proven = (second_sq - best_sq * (1 + slack)) / 2 > bound
    out[near] = np.where(proven, cand[np.arange(len(r)), best], -1)
    return out


def ml_detect(received, constellation: Constellation) -> np.ndarray:
    """Minimum-Euclidean-distance detection in intensity space.

    Works on one vector or a (n, n_bands) batch; ties resolve to the lowest
    constellation index.  Total on all real inputs.
    """
    r = np.atleast_2d(np.asarray(received, dtype=float))
    if r.shape[1] != constellation.n_bands:
        raise LengthMismatch(
            f"received dimension {r.shape[1]} != {constellation.n_bands} bands")
    idx = nearest_points(r, *detection_metric(constellation))
    return idx if np.asarray(received).ndim > 1 else int(idx[0])


def count_bit_errors(rows, sent_rows, sent_idx, trust_sq, ct, half_norms,
                     labels, neighbours: Neighbours | None = None) -> int:
    """Bit errors of detecting ``rows`` when the points ``sent_idx`` (at
    intensities ``sent_rows``) were sent.

    The detection is screened: a row inside the trust radius of its sent
    point (``trust_sq``, from :func:`trust_thresholds`) detects as that
    point, and the other rows are the suspects.  Given ``neighbours`` (from
    :func:`neighbour_lists`), each suspect is decided among its sent point's
    list (:func:`list_decisions`); without them, none is.  Exactly the
    suspects left undecided go through :func:`nearest_points`, so the errors
    are those of the full metric on every row.  A bit error is a set bit of
    the XOR of the sent and the detected ``labels``.
    """
    suspects = suspect_rows(rows, sent_rows, trust_sq[sent_idx])
    sent = sent_idx[suspects]
    if neighbours is None:
        det_idx = np.full(len(suspects), -1, dtype=np.intp)
    else:
        det_idx = list_decisions(np.take(rows, suspects, axis=0), sent,
                                 neighbours)
    left = np.flatnonzero(det_idx < 0)
    det_idx[left] = nearest_points(np.take(rows, suspects[left], axis=0),
                                   ct, half_norms)
    diff = labels[det_idx] ^ labels[sent]
    return int(np.bitwise_count(diff).sum())
