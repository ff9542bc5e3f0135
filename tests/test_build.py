"""Batched constellation build: bit-identical to the per-point build.

The ``reference_*`` functions below are the per-point constellation build as
it stood before batching, kept verbatim (constants included) as the oracle:
every label, chromaticity and intensity of the batched build must equal it
bit for bit, and the public 1-row helpers must raise what it raised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfde import colorimetry as col
from cskfde import config as cfgmod
from cskfde.errors import (
    CskError,
    IndexOutOfRange,
    OutsideGamut,
    SingularTriad,
    UnsupportedOrder,
)

_DET_EPS = 1e-12
_GAMUT_EPS = 1e-9
_SUB_QUAD_TRIADS = ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1))


def _triad_det(xy3) -> float:
    (x0, y0), (x1, y1), (x2, y2) = xy3
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def reference_intensity(target, triad_xy) -> np.ndarray:
    tx, ty = float(target[0]), float(target[1])
    xy = np.asarray(triad_xy, dtype=float)
    if abs(_triad_det(xy)) < _DET_EPS:
        raise SingularTriad("triad chromaticities are collinear")
    A = np.array([[xy[0, 0], xy[1, 0], xy[2, 0]],
                  [xy[0, 1], xy[1, 1], xy[2, 1]],
                  [1.0, 1.0, 1.0]])
    intensities = np.linalg.solve(A, np.array([tx, ty, 1.0]))
    if intensities.min() < -_GAMUT_EPS:
        raise OutsideGamut(
            f"({tx}, {ty}) lies outside the triad gamut: I = {intensities}")
    intensities = np.clip(intensities, 0.0, None)
    return intensities / intensities.sum()


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
    crosses = []
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        crosses.append((b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]))
    crosses = np.asarray(crosses)
    return bool(np.all(crosses >= -eps) or np.all(crosses <= eps))


def reference_triad(target, sources):
    pt = np.array([float(target[0]), float(target[1])])
    if not _contains(sources.xy, pt):
        raise OutsideGamut(f"({pt[0]}, {pt[1]}) is outside the BCYR quadrilateral")
    for sid, quad in enumerate(_sub_quadrilaterals(sources.xy)):
        if _contains(quad, pt):
            return sid, _SUB_QUAD_TRIADS[sid]
    for sid, quad in enumerate(_sub_quadrilaterals(sources.xy)):
        if _contains(quad, pt, eps=1e-7):
            return sid, _SUB_QUAD_TRIADS[sid]
    raise OutsideGamut(f"({pt[0]}, {pt[1]}) not matched to any sub-quadrilateral")


def reference_qled_intensity(target, sources) -> np.ndarray:
    _, triad = reference_triad(target, sources)
    part = reference_intensity(target, sources.xy[list(triad)])
    part[part < _DET_EPS] = 0.0
    out = np.zeros(4)
    out[list(triad)] = part / part.sum()
    return out


def reference_tled(order, sources, tables):
    rows = tables[order]
    bary = np.array([row[0] for row in rows], dtype=float)
    labels = np.array([row[1] for row in rows], dtype=np.int64)
    chroma = bary @ sources.xy
    intensities = np.array([
        reference_intensity(c, sources.xy) for c in chroma])
    return labels, chroma, intensities


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def reference_qled(order, sources):
    nu, nv = (2, 4) if order == 8 else (int(round(np.sqrt(order))),) * 2
    kv = int(np.log2(nv))
    b, c, y, r = sources.xy
    labels, chroma, intensities = [], [], []
    for iu in range(nu):
        for iv in range(nv):
            u = iu / (nu - 1) if nu > 1 else 0.0
            v = iv / (nv - 1) if nv > 1 else 0.0
            pt = (1 - u) * (1 - v) * b + u * (1 - v) * c + u * v * y + (1 - u) * v * r
            labels.append((_gray(iu) << kv) | _gray(iv))
            chroma.append(pt)
            intensities.append(reference_qled_intensity(pt, sources))
    return (np.array(labels, dtype=np.int64), np.array(chroma),
            np.array(intensities))


def _assert_bitwise(constellation, want):
    got = (constellation.labels, constellation.chromaticities,
           constellation.intensities)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


QLED_SOURCES = {
    "default": col.default_qled_sources(),
    # axis-aligned square: grid points fall exactly on the sub-quad seams
    "square": col.SourceSet(("B", "C", "Y", "R"), np.array(
        [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 0.0)])),
    # irregular, traversed counter-clockwise (the default is clockwise)
    "ccw": col.SourceSet(("B", "C", "Y", "R"), np.array(
        [(0.16, 0.02), (0.7, 0.28), (0.42, 0.56), (0.05, 0.61)])),
    # a narrow kite with one short edge
    "kite": col.SourceSet(("B", "C", "Y", "R"), np.array(
        [(0.3, 0.05), (0.05, 0.4), (0.33, 0.62), (0.36, 0.41)])),
}


@pytest.mark.parametrize("name", sorted(QLED_SOURCES))
@pytest.mark.parametrize("order", col.QLED_ORDERS)
def test_qled_build_matches_per_point_build(order, name):
    sources = QLED_SOURCES[name]
    _assert_bitwise(col.build_qled_constellation(order, sources),
                    reference_qled(order, sources))


TLED_SOURCES = {
    "default": col.default_tled_sources(),
    "equilateral": col.SourceSet(("A", "B", "C"), np.array(
        [(0.2, 0.2), (0.6, 0.2), (0.4, 0.5464)])),
}

# a config-supplied table: interior points, an edge point and two vertices
CONFIG_TABLE = {"tables": {"tled": {4: [
    [[0.7, 0.2, 0.1], 0], [[0.0, 0.45, 0.55], 1],
    [[0.0, 0.0, 1.0], 2], [[0.25, 0.5, 0.25], 3]],
    8: [[[1.0, 0.0, 0.0], 5], [[0.0, 1.0, 0.0], 6], [[0.0, 0.0, 1.0], 7],
        [[0.1, 0.1, 0.8], 0], [[0.1, 0.8, 0.1], 1], [[0.8, 0.1, 0.1], 2],
        [[1 / 3, 1 / 3, 1 / 3], 3], [[0.6, 0.0, 0.4], 4]]}}}


@pytest.mark.parametrize("name", sorted(TLED_SOURCES))
@pytest.mark.parametrize("order", col.TLED_ORDERS)
def test_tled_build_matches_per_point_build(order, name):
    sources = TLED_SOURCES[name]
    _assert_bitwise(col.build_tled_constellation(order, sources),
                    reference_tled(order, sources, col.TLED_BARYCENTRIC_TABLES))


@pytest.mark.parametrize("name", sorted(TLED_SOURCES))
@pytest.mark.parametrize("order", [4, 8])
def test_tled_config_table_matches_per_point_build(order, name):
    tables = cfgmod.tled_tables_from_config(CONFIG_TABLE)
    sources = TLED_SOURCES[name]
    _assert_bitwise(col.build_tled_constellation(order, sources, tables),
                    reference_tled(order, sources, tables))
    with pytest.raises(UnsupportedOrder):
        col.build_tled_constellation(16, sources, tables)


def test_tled_table_point_outside_triangle_raises():
    tables = {4: (((1.0, 0.0, 0.0), 0), ((0.0, 1.0, 0.0), 1),
                  ((0.0, 0.0, 1.0), 2), ((1.2, -0.1, -0.1), 3))}
    sources = col.default_tled_sources()
    with pytest.raises(OutsideGamut) as old:
        reference_tled(4, sources, tables)
    with pytest.raises(OutsideGamut) as new:
        col.build_tled_constellation(4, sources, tables)
    assert str(new.value) == str(old.value)


def _outcome(fn, *args):
    """A helper's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except CskError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(new, old):
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert new == old
    elif isinstance(old, tuple):  # (sub_quad_id, triad)
        assert new == old and type(new[0]) is int
    else:
        assert isinstance(new, np.ndarray) and np.array_equal(new, old)


def _seam_points(sources):
    """Vertices, midpoints, the diagonal crossing and points on the seams
    between sub-quadrilaterals, each also nudged off by 1e-10 to 1e-6."""
    pts = list(sources.xy)
    for quad in _sub_quadrilaterals(sources.xy):
        for i in range(4):
            a, b = quad[i], quad[(i + 1) % 4]
            pts += [a, 0.5 * (a + b), 0.3 * a + 0.7 * b]
    nudged = [p + d * np.array(s) for p in pts
              for d in (1e-10, 1e-8, 1e-6) for s in ((1, 0), (0, -1), (-1, 1))]
    return pts + nudged


@pytest.mark.parametrize("name", sorted(QLED_SOURCES))
def test_qled_helpers_match_on_seams(name):
    sources = QLED_SOURCES[name]
    outcomes = set()
    for pt in _seam_points(sources):
        for new_fn, old_fn in ((col.select_qled_triad, reference_triad),
                               (col.qled_intensity, reference_qled_intensity)):
            old = _outcome(old_fn, pt, sources)
            _assert_same_outcome(_outcome(new_fn, pt, sources), old)
            outcomes.add(old[0] if isinstance(old, tuple) else "ok")
    assert OutsideGamut in outcomes and {0, 1, 2, 3} <= outcomes


@given(st.floats(-0.05, 1.0), st.floats(-0.05, 1.0), st.sampled_from(sorted(QLED_SOURCES)))
@settings(max_examples=300, deadline=None)
def test_qled_helpers_match_anywhere(x, y, name):
    sources = QLED_SOURCES[name]
    for new_fn, old_fn in ((col.select_qled_triad, reference_triad),
                           (col.qled_intensity, reference_qled_intensity)):
        _assert_same_outcome(_outcome(new_fn, (x, y), sources),
                             _outcome(old_fn, (x, y), sources))


TRIADS = {
    "tled": col.default_tled_sources().xy,
    "small": np.array([(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)]),
    "collinear": np.array([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]),
    "nearly_collinear": np.array([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3 + 1e-13)]),
}


@given(st.floats(-0.2, 1.0), st.floats(-0.2, 1.0), st.sampled_from(sorted(TRIADS)))
@settings(max_examples=300, deadline=None)
def test_intensity_helper_matches_anywhere(x, y, name):
    _assert_same_outcome(
        _outcome(col.intensity_from_chromaticity, (x, y), TRIADS[name]),
        _outcome(reference_intensity, (x, y), TRIADS[name]))


def test_intensity_helper_errors():
    triad = TRIADS["small"]
    cases = [((0.05, 0.6), triad, OutsideGamut),           # negative intensity
             ((0.2, 0.2), TRIADS["collinear"], SingularTriad),
             ((0.2, 0.2), TRIADS["nearly_collinear"], SingularTriad),
             (triad[0] - (1e-3, 0.0), triad, OutsideGamut)]
    for target, xy, error in cases:
        want = _outcome(reference_intensity, target, xy)
        assert want[0] is error
        assert _outcome(col.intensity_from_chromaticity, target, xy) == want
    # a vertex nudged out by float residue is clamped, not refused
    out = col.intensity_from_chromaticity(triad[0] - (1e-11, 0.0), triad)
    assert np.array_equal(out, reference_intensity(triad[0] - (1e-11, 0.0), triad))


def test_qled_helper_errors():
    sources = col.default_qled_sources()
    for target in [(0.9, 0.05), (0.0, 0.0), (0.5, 0.5)]:
        want = _outcome(reference_triad, target, sources)
        assert want[0] is OutsideGamut
        assert _outcome(col.select_qled_triad, target, sources) == want
        assert _outcome(col.qled_intensity, target, sources) == want


def test_label_permutation_check():
    good = col.build_qled_constellation(4)
    for labels in ([0, 1, 1, 3], [0, 1, 2, 4], [-1, 0, 1, 2]):
        with pytest.raises(IndexOutOfRange):
            col.Constellation(col.QLED, 4, np.array(labels), good.chromaticities,
                              good.intensities, good.sources)
