"""Colour-shift-keying constellation geometry on the CIE 1931 chromaticity plane.

Symbols are chromaticity coordinates; each is realised by a vector of per-LED
optical intensities that sum to one watt.  For a tri-LED (TLED) system the
intensities are the unique solution of the 3x3 mixing system; a quad-LED
(QLED) system first picks the three LEDs whose gamut sub-region contains the
target colour and then solves the same 3x3 system, so at most three of the
four LEDs are lit for any symbol.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    OutsideGamut,
    SingularTriad,
    UnsupportedOrder,
)

TLED = "tled"
QLED = "qled"

TLED_ORDERS = (4, 8, 16)
QLED_ORDERS = (4, 8, 16, 64, 256, 1024, 4096)

_DET_EPS = 1e-12
_GAMUT_EPS = 1e-9


class Chromaticity(NamedTuple):
    """CIE 1931 xy chromaticity coordinates."""

    x: float
    y: float


def _validate_chromaticity(c) -> Chromaticity:
    x, y = float(c[0]), float(c[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and x + y <= 1.0 + 1e-12):
        raise OutsideGamut(f"({x}, {y}) is not a valid CIE 1931 coordinate")
    return Chromaticity(x, y)


# IEEE 802.15.7 colour-band centre chromaticities used as shipped defaults.
# Band centres: 429 nm (B), 509 nm (C), 564 nm (Y), 656 nm (R).
BAND_B = Chromaticity(0.169, 0.007)
BAND_C = Chromaticity(0.011, 0.733)
BAND_Y = Chromaticity(0.402, 0.597)
BAND_R = Chromaticity(0.729, 0.271)


@dataclass(frozen=True)
class SourceSet:
    """Ordered LED primaries: (name, chromaticity) per band.

    TLED uses three bands ordered (R, Y, B) to match the shipped cross-talk
    matrix; QLED uses four bands ordered (B, C, Y, R) tracing the gamut
    quadrilateral.
    """

    names: tuple
    xy: np.ndarray  # (n_bands, 2)

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        if xy.shape != (len(self.names), 2):
            raise DimensionMismatch("one (x, y) pair per source required")
        for row in xy:
            _validate_chromaticity(row)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) == 3:
            if abs(_triad_det(xy)) < _DET_EPS:
                raise SingularTriad("TLED sources are collinear")
        elif len(self.names) == 4:
            if not _is_convex(xy):
                raise OutsideGamut("QLED sources must form a convex quadrilateral "
                                   "in listed traversal order")
        else:
            raise DimensionMismatch("a source set has 3 or 4 primaries")

    @property
    def n_bands(self) -> int:
        return len(self.names)


def default_tled_sources() -> SourceSet:
    return SourceSet(("R", "Y", "B"), np.array([BAND_R, BAND_Y, BAND_B]))


def default_qled_sources() -> SourceSet:
    return SourceSet(("B", "C", "Y", "R"), np.array([BAND_B, BAND_C, BAND_Y, BAND_R]))


def _triad_det(xy):
    """Orientation determinant of a (3, 2) triad, or of each of (..., 3, 2)."""
    x0, y0 = xy[..., 0, 0], xy[..., 0, 1]
    x1, y1 = xy[..., 1, 0], xy[..., 1, 1]
    x2, y2 = xy[..., 2, 0], xy[..., 2, 1]
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def _is_convex(quad) -> bool:
    n = len(quad)
    signs = []
    for i in range(n):
        a, b, c = quad[i], quad[(i + 1) % n], quad[(i + 2) % n]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        signs.append(cr)
    return all(s < -_DET_EPS for s in signs) or all(s > _DET_EPS for s in signs)


def _mix_intensities(targets, triads_xy) -> np.ndarray:
    """Batched 3x3 chromaticity-to-intensity mixing solve.

    Row i of the result holds the LED intensity fractions (sum 1) that
    reproduce ``targets[i]`` (an (M, 2) array) from the three sources
    ``triads_xy[i]`` ((M, 3, 2)).  Each system is its own LAPACK gesv call
    with one right-hand side, so a row's result does not depend on the batch
    it is solved in.  Raises SingularTriad for collinear sources and
    OutsideGamut when a target needs a negative intensity.
    """
    if (np.abs(_triad_det(triads_xy)) < _DET_EPS).any():
        raise SingularTriad("triad chromaticities are collinear")
    a = np.ones((len(targets), 3, 3))
    a[:, 0] = triads_xy[..., 0]
    a[:, 1] = triads_xy[..., 1]
    rhs = np.ones((len(targets), 3, 1))
    rhs[:, :2, 0] = targets
    intensities = np.linalg.solve(a, rhs)[..., 0]
    outside = intensities.min(axis=1) < -_GAMUT_EPS
    if outside.any():
        i = int(np.argmax(outside))
        raise OutsideGamut(f"({targets[i, 0]}, {targets[i, 1]}) lies outside the "
                           f"triad gamut: I = {intensities[i]}")
    # clamp -1e-9..0 float residue and renormalise
    intensities = np.clip(intensities, 0.0, None)
    return intensities / intensities.sum(axis=1, keepdims=True)


def _target_row(target) -> np.ndarray:
    return np.array([[float(target[0]), float(target[1])]])


def intensity_from_chromaticity(target, triad_xy) -> np.ndarray:
    """Solve the 3x3 chromaticity-to-intensity mixing system.

    Returns the LED intensity fractions (sum 1) reproducing ``target`` from
    the three sources ``triad_xy``.  Raises SingularTriad for collinear
    sources and OutsideGamut when the target needs a negative intensity.
    """
    row = _target_row(target)
    xy = np.asarray(triad_xy, dtype=float)
    if xy.shape != (3, 2):
        raise DimensionMismatch("triad must contain exactly three sources")
    return _mix_intensities(row, xy[None])[0]


# Sub-quadrilateral identifiers in tie-break priority order.  The gamut
# quadrilateral BCYR is split by its edge midpoints p, q, r, s and the
# diagonal crossing o; each sub-quadrilateral holds one corner and is covered
# by the triangle of that corner and its two neighbours.
SUB_QUAD_NAMES = ("pbqo", "oqcr", "sord", "apos")
_SUB_QUAD_TRIADS = ((0, 1, 2),   # pbqo, corner C: B C Y
                    (1, 2, 3),   # oqcr, corner Y: C Y R
                    (2, 3, 0),   # sord, corner R: Y R B
                    (3, 0, 1))   # apos, corner B: R B C


def _sub_quadrilaterals(xy):
    b, c, y, r = xy
    dby, dcr = y - b, r - c
    t = np.linalg.solve(np.column_stack([dby, -dcr]), c - b)
    o = b + t[0] * dby
    p = (b + c) / 2
    q = (c + y) / 2
    rr = (y + r) / 2
    s = (r + b) / 2
    return (np.array([p, c, q, o]),
            np.array([o, q, y, rr]),
            np.array([s, o, rr, r]),
            np.array([b, p, o, s]))


def _in_quad(quad, pts, eps=_GAMUT_EPS) -> np.ndarray:
    """(M,) mask of the (M, 2) points inside the (4, 2) quadrilateral."""
    # sign-consistent cross products, orientation-agnostic
    a, b = quad, np.roll(quad, -1, axis=0)
    crosses = ((b[:, 0] - a[:, 0]) * (pts[:, 1:] - a[:, 1])
               - (b[:, 1] - a[:, 1]) * (pts[:, :1] - a[:, 0]))
    return np.all(crosses >= -eps, axis=1) | np.all(crosses <= eps, axis=1)


def _sub_quad_ids(pts, sources: SourceSet) -> np.ndarray:
    """Sub-quadrilateral id (into SUB_QUAD_NAMES) of each (M, 2) point.

    Boundary ties resolve to the lowest id.
    """
    if sources.n_bands != 4:
        raise DimensionMismatch("QLED triad selection needs four sources")
    outside = ~_in_quad(sources.xy, pts)
    if outside.any():
        i = int(np.argmax(outside))
        raise OutsideGamut(f"({pts[i, 0]}, {pts[i, 1]}) is outside the BCYR quadrilateral")
    quads = _sub_quadrilaterals(sources.xy)
    hits = np.column_stack([_in_quad(quad, pts) for quad in quads])
    seam = ~hits.any(axis=1)
    if seam.any():
        # numerically on a seam none of the >= tests caught; widen tolerance
        hits[seam] = np.column_stack([_in_quad(quad, pts[seam], eps=1e-7)
                                      for quad in quads])
    unmatched = ~hits.any(axis=1)
    if unmatched.any():
        i = int(np.argmax(unmatched))
        raise OutsideGamut(
            f"({pts[i, 0]}, {pts[i, 1]}) not matched to any sub-quadrilateral")
    return np.argmax(hits, axis=1)  # first hit: the lowest id


def _qled_intensities(pts, sources: SourceSet) -> np.ndarray:
    """(M, 4) intensity vectors for the (M, 2) QLED targets (<= 3 LEDs lit)."""
    triads = np.array(_SUB_QUAD_TRIADS)[_sub_quad_ids(pts, sources)]
    part = _mix_intensities(pts, sources.xy[triads])
    part[part < _DET_EPS] = 0.0  # snap solver residue so <=3 entries stay lit
    out = np.zeros((len(pts), 4))
    np.put_along_axis(out, triads, part / part.sum(axis=1, keepdims=True), axis=1)
    return out


def select_qled_triad(target, sources: SourceSet):
    """Pick the three QLED LEDs that mix ``target``.

    Returns ``(sub_quad_id, triad_indices)`` where ``sub_quad_id`` indexes
    SUB_QUAD_NAMES.  Boundary ties resolve to the lowest id.
    """
    sid = int(_sub_quad_ids(_target_row(target), sources)[0])
    return sid, _SUB_QUAD_TRIADS[sid]


def qled_intensity(target, sources: SourceSet) -> np.ndarray:
    """Four-entry intensity vector for a QLED symbol (at most 3 LEDs lit)."""
    return _qled_intensities(_target_row(target), sources)[0]


@dataclass(frozen=True)
class Constellation:
    """Labelled CSK symbol set.

    ``labels[i]`` is the bit pattern (as an int) of point ``i``;
    ``chromaticities[i]`` its xy coordinate and ``intensities[i]`` the
    per-LED optical power fractions.
    """

    scheme: str
    order: int
    labels: np.ndarray          # (M,) int
    chromaticities: np.ndarray  # (M, 2)
    intensities: np.ndarray     # (M, n_bands)
    sources: SourceSet

    def __post_init__(self):
        if len(self.labels) != self.order:
            raise DimensionMismatch("label count must equal the order")
        if not np.array_equal(np.sort(self.labels), np.arange(self.order)):
            raise IndexOutOfRange("labels must be a permutation of 0..M-1")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def n_bands(self) -> int:
        return self.intensities.shape[1]

    @cached_property
    def nearest_neighbour_distances(self) -> np.ndarray:
        """(M,) read-only: intensity-space distance from each point to its
        nearest other point (0 for coincident points), computed once."""
        dist, _ = cKDTree(self.intensities).query(self.intensities, k=2)
        nearest = dist[:, 1]
        nearest.setflags(write=False)
        return nearest

    def min_distance(self) -> float:
        return float(self.nearest_neighbour_distances.min())

    def to_csv(self, path_or_file) -> None:
        fh = path_or_file if hasattr(path_or_file, "write") else \
            open(path_or_file, "w", newline="")
        try:
            writer = csv.writer(fh)
            k = self.bits_per_symbol
            writer.writerow(["label", "x", "y"] +
                            [f"I_{i}" for i in range(self.n_bands)])
            for i in range(self.order):
                writer.writerow([format(int(self.labels[i]), f"0{k}b"),
                                 f"{self.chromaticities[i, 0]:.9f}",
                                 f"{self.chromaticities[i, 1]:.9f}"] +
                                [f"{v:.9f}" for v in self.intensities[i]])
        finally:
            if fh is not path_or_file:
                fh.close()


# --- TLED symbol placement -------------------------------------------------
#
# Barycentric coordinate tables over the source triangle, one row per symbol,
# with the bit label alongside.  The 4-CSK layout is the vertices plus the
# centroid; 8/16-CSK are geometry stand-ins shipped as data so they can be
# swapped from configuration.  The 16-CSK table is a side-3 triangular
# lattice plus six companion points set off by _T16_W; the 8-CSK table is
# vertices, edge midpoints and two interior points on the Y median.

_T16_W = 0.085
_T8_A1 = 0.22
_T8_A2 = 0.3925

TLED_BARYCENTRIC_TABLES = {
    4: (
        ((1.0, 0.0, 0.0), 0b01),
        ((0.0, 1.0, 0.0), 0b10),
        ((0.0, 0.0, 1.0), 0b11),
        ((1 / 3, 1 / 3, 1 / 3), 0b00),
    ),
    8: (
        ((1.0, 0.0, 0.0), 0b000),
        ((0.0, 1.0, 0.0), 0b011),
        ((0.0, 0.0, 1.0), 0b110),
        ((0.5, 0.5, 0.0), 0b001),
        ((0.0, 0.5, 0.5), 0b010),
        ((0.5, 0.0, 0.5), 0b100),
        ((_T8_A1, 1 - 2 * _T8_A1, _T8_A1), 0b111),
        ((_T8_A2, 1 - 2 * _T8_A2, _T8_A2), 0b101),
    ),
    16: (
        ((0.0, 0.0, 1.0), 12),
        ((0.0, 1 / 3, 2 / 3), 15),
        ((0.0, 2 / 3, 1 / 3), 11),
        ((0.0, 1.0, 0.0), 2),
        ((1 / 3, 0.0, 2 / 3), 3),
        ((1 / 3, 1 / 3, 1 / 3), 5),
        ((1 / 3, 2 / 3, 0.0), 6),
        ((2 / 3, 0.0, 1 / 3), 0),
        ((2 / 3, 1 / 3, 0.0), 4),
        ((1.0, 0.0, 0.0), 9),
        ((1 - 2 * _T16_W, _T16_W, _T16_W), 8),
        ((_T16_W, 1 - 2 * _T16_W, _T16_W), 10),
        ((_T16_W, _T16_W, 1 - 2 * _T16_W), 14),
        ((1 / 3 + _T16_W, 1 / 3 + _T16_W, 1 / 3 - 2 * _T16_W), 13),
        ((1 / 3 - 2 * _T16_W, 1 / 3 + _T16_W, 1 / 3 + _T16_W), 1),
        ((1 / 3 + _T16_W, 1 / 3 - 2 * _T16_W, 1 / 3 + _T16_W), 7),
    ),
}


def build_tled_constellation(order: int, sources: SourceSet | None = None,
                             tables=None) -> Constellation:
    """TLED constellation from the shipped (or overridden) barycentric tables."""
    sources = sources or default_tled_sources()
    if sources.n_bands != 3:
        raise DimensionMismatch("TLED needs exactly three sources")
    tables = tables or TLED_BARYCENTRIC_TABLES
    if order not in tables:
        raise UnsupportedOrder(f"TLED supports M in {sorted(tables)}, got {order}")
    rows = tables[order]
    bary = np.array([row[0] for row in rows], dtype=float)
    labels = np.array([row[1] for row in rows], dtype=np.int64)
    chroma = bary @ sources.xy
    intensities = _mix_intensities(
        chroma, np.broadcast_to(sources.xy, (len(chroma), 3, 2)))
    return Constellation(TLED, order, labels, chroma, intensities, sources)


# --- QLED symbol placement -------------------------------------------------

def _gray(n):
    return n ^ (n >> 1)


def _qled_grid_shape(order: int):
    if order == 8:
        return 2, 4  # 1 bit x 2 bits
    root = int(round(np.sqrt(order)))
    return root, root


def build_qled_constellation(order: int, sources: SourceSet | None = None) -> Constellation:
    """QLED constellation: Gray-coded grid mapped onto the BCYR quadrilateral.

    A unit-square grid is carried into the gamut quadrilateral by bilinear
    interpolation of the corner chromaticities; row and column indices are
    Gray coded independently so nearest grid neighbours differ in one bit.
    """
    sources = sources or default_qled_sources()
    if sources.n_bands != 4:
        raise DimensionMismatch("QLED needs exactly four sources")
    if order not in QLED_ORDERS:
        raise UnsupportedOrder(f"QLED supports M in {QLED_ORDERS}, got {order}")
    nu, nv = _qled_grid_shape(order)
    kv = int(np.log2(nv))
    iu, iv = (ix.ravel() for ix in np.meshgrid(np.arange(nu), np.arange(nv),
                                                indexing="ij"))
    u = (iu / max(nu - 1, 1))[:, None]
    v = (iv / max(nv - 1, 1))[:, None]
    b, c, y, r = sources.xy
    chroma = (1 - u) * (1 - v) * b + u * (1 - v) * c + u * v * y + (1 - u) * v * r
    labels = (_gray(iu) << kv) | _gray(iv)
    return Constellation(QLED, order, labels, chroma,
                         _qled_intensities(chroma, sources), sources)


def build_constellation(scheme: str, order: int,
                        tled_sources: SourceSet | None = None,
                        qled_sources: SourceSet | None = None,
                        tled_tables=None) -> Constellation:
    scheme = scheme.lower()
    if scheme == TLED:
        return build_tled_constellation(order, tled_sources, tled_tables)
    if scheme == QLED:
        return build_qled_constellation(order, qled_sources)
    raise UnsupportedOrder(f"unknown scheme {scheme!r}")
