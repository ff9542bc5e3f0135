"""Constellation geometry tests: mixing solve, triad selection, layouts."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskfde import colorimetry as col
from cskfde.errors import DimensionMismatch, OutsideGamut, SingularTriad, UnsupportedOrder


def gaussian_elimination(a, b):
    """Independent dense solver (partial pivoting), the mixing-solve oracle."""
    a = [row[:] for row in a]
    b = list(b)
    n = len(b)
    for col_i in range(n):
        pivot = max(range(col_i, n), key=lambda r: abs(a[r][col_i]))
        a[col_i], a[pivot] = a[pivot], a[col_i]
        b[col_i], b[pivot] = b[pivot], b[col_i]
        for r in range(col_i + 1, n):
            f = a[r][col_i] / a[col_i][col_i]
            for c in range(col_i, n):
                a[r][c] -= f * a[col_i][c]
            b[r] -= f * b[col_i]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return x


class TestIntensityFromChromaticity:
    def test_vertex_is_pure_source(self):
        triad = [(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)]
        out = col.intensity_from_chromaticity(triad[0], triad)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_gaussian_elimination_oracle(self):
        triad = [(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)]
        target = (0.35, 0.35)
        a = [[0.1, 0.3, 0.7], [0.1, 0.6, 0.3], [1.0, 1.0, 1.0]]
        expected = gaussian_elimination(a, [0.35, 0.35, 1.0])
        out = col.intensity_from_chromaticity(target, triad)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # oracle residual check
        residual = np.array(a) @ np.array(expected) - np.array([0.35, 0.35, 1.0])
        assert np.abs(residual).max() < 1e-12

    def test_collinear_triad_raises(self):
        with pytest.raises(SingularTriad):
            col.intensity_from_chromaticity(
                (0.2, 0.2), [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])

    def test_outside_gamut_raises(self):
        triad = [(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)]
        with pytest.raises(OutsideGamut):
            col.intensity_from_chromaticity((0.05, 0.6), triad)

    def test_unit_sum(self):
        triad = [(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)]
        out = col.intensity_from_chromaticity((0.3, 0.35), triad)
        assert abs(out.sum() - 1.0) < 1e-9

    @given(st.tuples(st.floats(0.01, 0.98), st.floats(0.01, 0.98), st.floats(0.01, 0.98)))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_recovers_chromaticity(self, weights):
        """Mixing then re-projecting x = sum I_n x_n lands back on the target."""
        w = np.array(weights)
        w = w / w.sum()
        triad = np.array([(0.1, 0.1), (0.3, 0.6), (0.7, 0.3)])
        target = w @ triad
        out = col.intensity_from_chromaticity(target, triad)
        reprojected = out @ triad
        np.testing.assert_allclose(reprojected, target, atol=1e-10)
        np.testing.assert_allclose(out, w, atol=1e-9)


class TestSelectQledTriad:
    def setup_method(self):
        self.sources = col.default_qled_sources()

    def test_centre_point_ties_to_lowest_id(self):
        b, c, y, r = self.sources.xy
        dby, dcr = y - b, r - c
        t = np.linalg.solve(np.column_stack([dby, -dcr]), c - b)
        centre = b + t[0] * dby
        sid, triad = col.select_qled_triad(centre, self.sources)
        assert sid == 0  # pbqo wins the four-way tie
        assert triad == (0, 1, 2)

    def test_vertex_b_triad_contains_b(self):
        sid, triad = col.select_qled_triad(self.sources.xy[0], self.sources)
        assert 0 in triad

    def test_interior_of_oqcr_uses_cyr(self):
        # a point slightly inside the Y-corner sub-quadrilateral
        b, c, y, r = self.sources.xy
        probe = 0.9 * y + 0.05 * c + 0.05 * r
        sid, triad = col.select_qled_triad(probe, self.sources)
        assert sid == 1
        assert triad == (1, 2, 3)

    def test_outside_gamut(self):
        with pytest.raises(OutsideGamut):
            col.select_qled_triad((0.9, 0.05), self.sources)

    def test_every_sub_quad_covered_by_its_triad(self):
        """Random gamut points always solve with non-negative intensities."""
        rng = np.random.default_rng(5)
        b, c, y, r = self.sources.xy
        for _ in range(300):
            w = rng.dirichlet(np.ones(4))
            pt = w @ self.sources.xy
            out = col.qled_intensity(pt, self.sources)
            assert out.min() >= 0.0
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.count_nonzero(out) <= 3


class TestTledConstellation:
    def test_order_4_is_vertices_plus_centroid(self):
        c = col.build_tled_constellation(4)
        np.testing.assert_allclose(
            c.intensities,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3]],
            atol=1e-9)

    def test_order_4_synthetic_equilateral(self):
        src = col.SourceSet(("A", "B", "C"),
                            np.array([(0.2, 0.2), (0.6, 0.2), (0.4, 0.5464)]))
        c = col.build_tled_constellation(4, src)
        np.testing.assert_allclose(
            c.intensities,
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3]],
            atol=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            col.build_tled_constellation(32)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_invariants(self, order):
        c = col.build_tled_constellation(order)
        assert len(c.labels) == order
        assert sorted(c.labels.tolist()) == list(range(order))
        np.testing.assert_allclose(c.intensities.sum(axis=1), 1.0, atol=1e-9)
        assert c.intensities.min() >= 0.0 and c.intensities.max() <= 1.0
        assert c.min_distance() > 0.0

    def test_deterministic(self):
        a = col.build_tled_constellation(16)
        b = col.build_tled_constellation(16)
        assert np.array_equal(a.intensities, b.intensities)
        assert np.array_equal(a.labels, b.labels)


class TestQledConstellation:
    def test_order_4_corners_are_unit_vectors(self):
        c = col.build_qled_constellation(4)
        rows = {tuple(np.round(v, 12)) for v in c.intensities}
        assert rows == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}

    def test_zero_label_sits_at_corner_b(self):
        """The all-zero label is the blue LED alone."""
        c = col.build_qled_constellation(4)
        np.testing.assert_allclose(c.intensities[c.labels == 0], [[1, 0, 0, 0]],
                                   atol=1e-12)

    def test_square_quadrilateral_gives_uniform_grid(self):
        """Bilinear image of a square is affine, so the chromaticity grid is uniform."""
        src = col.SourceSet(("B", "C", "Y", "R"),
                            np.array([(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 0.0)]))
        c = col.build_qled_constellation(16, src)
        xs = np.unique(np.round(c.chromaticities[:, 0], 12))
        ys = np.unique(np.round(c.chromaticities[:, 1], 12))
        np.testing.assert_allclose(xs, [0, 0.5 / 3, 1.0 / 3, 0.5], atol=1e-12)
        np.testing.assert_allclose(ys, [0, 0.5 / 3, 1.0 / 3, 0.5], atol=1e-12)

    def test_order_64_gray_adjacency_exhaustive(self):
        """Nearest grid neighbours along each axis differ in exactly one bit."""
        c = col.build_qled_constellation(64)
        labels = c.labels.reshape(8, 8)
        for i in range(8):
            for j in range(8):
                if i + 1 < 8:
                    assert bin(labels[i, j] ^ labels[i + 1, j]).count("1") == 1
                if j + 1 < 8:
                    assert bin(labels[i, j] ^ labels[i, j + 1]).count("1") == 1

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            col.build_qled_constellation(32)

    @pytest.mark.parametrize("order", [4, 8, 16, 64, 256, 1024])
    def test_invariants(self, order):
        c = col.build_qled_constellation(order)
        assert sorted(c.labels.tolist()) == list(range(order))
        np.testing.assert_allclose(c.intensities.sum(axis=1), 1.0, atol=1e-9)
        assert c.intensities.min() >= 0.0
        assert (np.count_nonzero(c.intensities, axis=1) <= 3).all()
        assert c.min_distance() > 0.0

    def test_order_4096_builds(self):
        c = col.build_qled_constellation(4096)
        assert c.order == 4096
        assert (np.count_nonzero(c.intensities, axis=1) <= 3).all()


class TestSourceSetValidation:
    def test_collinear_tled_rejected(self):
        with pytest.raises(SingularTriad):
            col.SourceSet(("A", "B", "C"),
                          np.array([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]))

    def test_nonconvex_qled_rejected(self):
        with pytest.raises(OutsideGamut):
            col.SourceSet(("B", "C", "Y", "R"),
                          np.array([(0.1, 0.1), (0.5, 0.5), (0.1, 0.5), (0.5, 0.1)]))

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            col.SourceSet(("A", "B"), np.array([(0.1, 0.1), (0.2, 0.3)]))


def test_csv_export_layout():
    c = col.build_qled_constellation(4)
    buf = io.StringIO()
    c.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "label,x,y,I_0,I_1,I_2,I_3"
    assert len(lines) == 5
    assert lines[1].startswith("00,")
