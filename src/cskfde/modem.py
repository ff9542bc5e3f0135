"""Modem: cyclic-prefix framing, screened ML detection and the bit-error
count."""

from __future__ import annotations

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
    framed = np.concatenate([tx_blocks[:, n - cp:], tx_blocks], axis=1) \
        if cp else tx_blocks
    return framed.reshape(n_blocks * (n + cp), n_bands)


# --- detection -----------------------------------------------------------------
#
# Detection picks the point c_k maximising the metric r . c_k - ||c_k||^2 / 2,
# which is the point nearest to r.  The metric is evaluated in tiles of at
# most METRIC_TILE_ENTRIES entries, so its memory is bounded whatever the
# number of rows, and a tile stays in cache.  Rows that provably sit deep
# inside the decision region of a known point (see trust_thresholds) need no
# metric at all.  docs/decisions.md records the argument and its measurements.

METRIC_TILE_ENTRIES = 1 << 16
TRUST_FRACTION = 0.45  # c in the trust radius c * nn_j; any c < 1/2 is exact
TRUST_MARGIN = 10.0    # proven metric gap over the float error bound

# Above this share of suspect rows, the full metric runs over the contiguous
# rows: gathering nearly all of them costs more than it saves.
_GATHER_MAX_SHARE = 0.75

_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 12)], dtype=np.int64)


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

    def gamma(k):
        return k * u / (1 - k * u)

    offset = pts - exact
    shift = np.sqrt(np.einsum("ij,ij->i", offset, offset).max())
    nn = constellation.nearest_neighbour_distances - 2 * shift
    tau = np.square(np.maximum(TRUST_FRACTION * nn, 0).astype(dtype))
    rho = np.sqrt(tau.astype(float) / (1 - gamma(n_bands + 2))) * (1 + 1e-12)
    norm = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    reach = (norm + rho) * norm.max()
    half = 0.5 * norm.max() ** 2
    bound = 2 * ((gamma(n_bands) + u * (1 + gamma(n_bands))) * reach
                 + (gamma(n_bands + 1) + u * (1 + gamma(n_bands + 1))) * half)
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
                     labels):
    """Bit errors of detecting ``rows`` when the points ``sent_idx`` (at
    intensities ``sent_rows``) were sent, and how many rows were suspect.

    The detection is screened: a row inside the trust radius of its sent
    point (``trust_sq``, from :func:`trust_thresholds`) detects as that
    point, so only the suspect rows go through :func:`nearest_points`, or
    every row once suspects are more than ``_GATHER_MAX_SHARE`` of them.
    The errors are those of the full metric on every row.  A bit error is a
    set bit of the XOR of the sent and the detected ``labels``.
    """
    suspects = suspect_rows(rows, sent_rows, trust_sq[sent_idx])
    n_suspects = len(suspects)
    if n_suspects > _GATHER_MAX_SHARE * len(sent_idx):
        suspects = slice(None)
    det_idx = nearest_points(rows[suspects], ct, half_norms)
    diff = labels[det_idx] ^ labels[sent_idx[suspects]]
    return int(_POPCOUNT[diff].sum()), n_suspects
