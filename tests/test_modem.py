"""Modem tests: cyclic-prefix framing, ML detection, noiseless loopback."""

import dataclasses

import numpy as np
import pytest

from cskfde import colorimetry as col
from cskfde import harness, modem
from cskfde.errors import InvalidPrefix, LengthMismatch


@pytest.fixture(scope="module")
def q4():
    return col.build_qled_constellation(4)


@pytest.fixture(scope="module")
def q16():
    return col.build_qled_constellation(16)


class TestCyclicPrefix:
    def test_paper_vector_form(self):
        """N=4, L=2: payload [0,1,2,3] frames to [2,3,0,1,2,3]."""
        payload = np.arange(4.0).reshape(1, 4, 1)
        np.testing.assert_array_equal(modem.frame(payload, 2).ravel(),
                                      [2, 3, 0, 1, 2, 3])

    def test_zero_prefix_is_identity(self):
        payload = np.arange(16.0).reshape(2, 8, 1)
        np.testing.assert_array_equal(modem.frame(payload, 0),
                                      payload.reshape(16, 1))

    def test_default_frame_length(self):
        assert modem.frame(np.zeros((3, 64, 4)), 8).shape == (3 * 72, 4)

    def test_prefix_longer_than_payload(self):
        with pytest.raises(InvalidPrefix):
            modem.frame(np.zeros((1, 4, 1)), 5)

    def test_negative_prefix(self):
        with pytest.raises(InvalidPrefix):
            modem.frame(np.zeros((1, 4, 1)), -1)

    def test_remove_inverts_add(self):
        """The receiver's CP removal, the [:, cp:] slice, returns the blocks."""
        rng = np.random.default_rng(1)
        payload = rng.random((3, 16, 3))
        framed = modem.frame(payload, 4).reshape(3, 20, 3)
        np.testing.assert_array_equal(framed[:, 4:], payload)

    def test_remove_drops_leading_samples(self):
        framed = modem.frame(np.arange(128.0).reshape(2, 64, 1), 8)
        out = framed.reshape(2, 72)[:, 8:]
        np.testing.assert_array_equal(out.ravel(), np.arange(128.0))

    def test_cp_structure_head_equals_tail(self):
        rng = np.random.default_rng(2)
        framed = modem.frame(rng.random((5, 64, 4)), 8).reshape(5, 72, 4)
        np.testing.assert_array_equal(framed[:, :8], framed[:, -8:])


class TestMlDetect:
    def test_exact_point(self, q16):
        assert modem.ml_detect(q16.intensities[5], q16) == 5

    def test_midpoint_tie_breaks_low(self, q4):
        mid = 0.5 * (q4.intensities[0] + q4.intensities[1])
        assert modem.ml_detect(mid, q4) == 0

    def test_perturbation_within_half_dmin(self, q16):
        """Brute-force d_min oracle: any push below d_min/2 keeps the decision."""
        pts = q16.intensities
        dmin = min(np.linalg.norm(pts[i] - pts[j])
                   for i in range(16) for j in range(i + 1, 16))
        rng = np.random.default_rng(3)
        for _ in range(50):
            idx = rng.integers(0, 16)
            push = rng.normal(size=4)
            push *= 0.49 * dmin / np.linalg.norm(push)
            assert modem.ml_detect(pts[idx] + push, q16) == idx

    def test_common_offset_invariance(self, q16):
        """Shifting sample and alphabet together never changes the argmin."""
        rng = np.random.default_rng(4)
        offset = rng.normal(size=4)
        shifted = dataclasses.replace(q16, intensities=q16.intensities + offset)
        for _ in range(100):
            r = rng.normal(size=4)
            assert modem.ml_detect(r, q16) == modem.ml_detect(r + offset, shifted)

    def test_total_on_wild_inputs(self, q4):
        for r in ([-5, 7, 0.2, 3], [0, 0, 0, 0], [1e6, -1e6, 0, 0]):
            idx = modem.ml_detect(np.array(r, dtype=float), q4)
            assert 0 <= idx < 4

    def test_dimension_contract(self, q4):
        with pytest.raises(LengthMismatch):
            modem.ml_detect(np.zeros(3), q4)


@pytest.mark.parametrize("order", [4, 64])
def test_count_bit_errors_matches_bitwise_label_comparison(order):
    """Screened count against detecting every row and comparing the sent
    and detected labels bit by bit as strings."""
    c = col.build_qled_constellation(order)
    rng = np.random.default_rng(order)
    sent_idx = rng.integers(0, order, size=2000)
    sent = c.intensities[sent_idx]
    # small pushes stay inside the trust radius, large ones leave it
    rows = sent + rng.normal(size=sent.shape) * c.min_distance() * np.where(
        rng.random((2000, 1)) < 0.5, 1e-3, 0.5)
    ct, half_norms = modem.detection_metric(c)
    errors, suspects = modem.count_bit_errors(
        rows, sent, sent_idx, modem.trust_thresholds(c), ct, half_norms,
        c.labels)
    k = c.bits_per_symbol
    detected = modem.ml_detect(rows, c)
    expected = sum(a != b for i, j in zip(sent_idx, detected)
                   for a, b in zip(f"{c.labels[i]:0{k}b}", f"{c.labels[j]:0{k}b}"))
    assert errors == expected > 0
    assert 0 < suspects < 2000


@pytest.mark.parametrize("scheme,order", [("tled", 4), ("tled", 8), ("tled", 16),
                                          ("qled", 4), ("qled", 8), ("qled", 16),
                                          ("qled", 64), ("qled", 256)])
def test_noiseless_frame_loopback(scheme, order):
    """The noiseless link at Dt = 1 with FDE (map, frame, disperse, mix,
    calibrate, strip the prefix, equalise, detect, count) is bit exact."""
    cfg = harness.ExperimentConfig(scheme=scheme, order=order, dt=1.0, fde=True)
    sim = harness.LinkSimulator(cfg)
    n_bits = 8 * cfg.n * sim.k
    errors, bits, _ = sim.run(0.0, n_bits, order)
    assert (errors, bits) == (0, n_bits)
