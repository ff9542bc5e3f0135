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


def _triad_det(xy3) -> float:
    (x0, y0), (x1, y1), (x2, y2) = xy3
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def _is_convex(quad) -> bool:
    n = len(quad)
    signs = []
    for i in range(n):
        a, b, c = quad[i], quad[(i + 1) % n], quad[(i + 2) % n]
        cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        signs.append(cr)
    return all(s < -_DET_EPS for s in signs) or all(s > _DET_EPS for s in signs)


def intensity_from_chromaticity(target, triad_xy) -> np.ndarray:
    """Solve the 3x3 chromaticity-to-intensity mixing system.

    Returns the LED intensity fractions (sum 1) reproducing ``target`` from
    the three sources ``triad_xy``.  Raises SingularTriad for collinear
    sources and OutsideGamut when the target needs a negative intensity.
    """
    tx, ty = float(target[0]), float(target[1])
    xy = np.asarray(triad_xy, dtype=float)
    if xy.shape != (3, 2):
        raise DimensionMismatch("triad must contain exactly three sources")
    if abs(_triad_det(xy)) < _DET_EPS:
        raise SingularTriad("triad chromaticities are collinear")
    A = np.array([[xy[0, 0], xy[1, 0], xy[2, 0]],
                  [xy[0, 1], xy[1, 1], xy[2, 1]],
                  [1.0, 1.0, 1.0]])
    intensities = np.linalg.solve(A, np.array([tx, ty, 1.0]))
    if intensities.min() < -_GAMUT_EPS:
        raise OutsideGamut(
            f"({tx}, {ty}) lies outside the triad gamut: I = {intensities}")
    # clamp -1e-9..0 float residue and renormalise
    intensities = np.clip(intensities, 0.0, None)
    return intensities / intensities.sum()


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


def _contains(quad, pt, eps=_GAMUT_EPS) -> bool:
    # sign-consistent cross products, orientation-agnostic
    crosses = []
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        crosses.append((b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]))
    crosses = np.asarray(crosses)
    return bool(np.all(crosses >= -eps) or np.all(crosses <= eps))


def select_qled_triad(target, sources: SourceSet):
    """Pick the three QLED LEDs that mix ``target``.

    Returns ``(sub_quad_id, triad_indices)`` where ``sub_quad_id`` indexes
    SUB_QUAD_NAMES.  Boundary ties resolve to the lowest id.
    """
    if sources.n_bands != 4:
        raise DimensionMismatch("QLED triad selection needs four sources")
    pt = np.array([float(target[0]), float(target[1])])
    if not _contains(sources.xy, pt):
        raise OutsideGamut(f"({pt[0]}, {pt[1]}) is outside the BCYR quadrilateral")
    for sid, quad in enumerate(_sub_quadrilaterals(sources.xy)):
        if _contains(quad, pt):
            return sid, _SUB_QUAD_TRIADS[sid]
    # numerically on a seam none of the >= tests caught; widen tolerance
    for sid, quad in enumerate(_sub_quadrilaterals(sources.xy)):
        if _contains(quad, pt, eps=1e-7):
            return sid, _SUB_QUAD_TRIADS[sid]
    raise OutsideGamut(f"({pt[0]}, {pt[1]}) not matched to any sub-quadrilateral")


def qled_intensity(target, sources: SourceSet) -> np.ndarray:
    """Four-entry intensity vector for a QLED symbol (at most 3 LEDs lit)."""
    _, triad = select_qled_triad(target, sources)
    part = intensity_from_chromaticity(target, sources.xy[list(triad)])
    part[part < _DET_EPS] = 0.0  # snap solver residue so <=3 entries stay lit
    out = np.zeros(4)
    out[list(triad)] = part / part.sum()
    return out


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
        if sorted(self.labels.tolist()) != list(range(self.order)):
            raise IndexOutOfRange("labels must be a permutation of 0..M-1")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.order))

    @property
    def n_bands(self) -> int:
        return self.intensities.shape[1]

    def index_of_label(self) -> np.ndarray:
        """Inverse permutation: label value -> point index."""
        inv = np.empty(self.order, dtype=np.int64)
        inv[self.labels] = np.arange(self.order)
        return inv

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
    intensities = np.array([
        intensity_from_chromaticity(c, sources.xy) for c in chroma])
    return Constellation(TLED, order, labels, chroma, intensities, sources)


# --- QLED symbol placement -------------------------------------------------

def _gray(n: int) -> int:
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
    ku, kv = int(np.log2(nu)), int(np.log2(nv))
    b, c, y, r = sources.xy
    labels, chroma, intensities = [], [], []
    for iu in range(nu):
        for iv in range(nv):
            u = iu / (nu - 1) if nu > 1 else 0.0
            v = iv / (nv - 1) if nv > 1 else 0.0
            pt = (1 - u) * (1 - v) * b + u * (1 - v) * c + u * v * y + (1 - u) * v * r
            labels.append((_gray(iu) << kv) | _gray(iv))
            chroma.append(pt)
            intensities.append(qled_intensity(pt, sources))
    return Constellation(QLED, order, np.array(labels, dtype=np.int64),
                         np.array(chroma), np.array(intensities), sources)


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
