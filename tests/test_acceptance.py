"""Acceptance suite.

Each criterion prints one PASS/FAIL line and asserts its stated tolerance; a
session that runs every test here writes the lines, in the order they ran,
to ``acceptance_report.txt`` in the working directory.  The Monte Carlo
criteria bisect optical power requirements at BER 1e-6 with at least 100 bit
errors per decision point; expect minutes per table entry.  Criterion 5 (the
property gate) runs before any Monte Carlo measurement is attempted.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from cskfde import channel as chan
from cskfde import colorimetry as col
from cskfde import fde, harness, modem

pytestmark = pytest.mark.acceptance

MASTER_SEED = 1
REPORT_PATH = "acceptance_report.txt"

ALL_SCHEMES = [("tled", m) for m in (4, 8, 16)] + \
              [("qled", m) for m in (4, 8, 16, 64, 256, 1024, 4096)]

# Reference power requirements (dB, normalised to OOK) exercised below.
TABLE_FDE = {
    ("tled", 4, 0.1): 8.1, ("tled", 4, 1.0): 10.8,
    ("tled", 16, 0.1): 12.6, ("tled", 16, 1.0): 13.87,
    ("qled", 4, 0.1): 5.3, ("qled", 4, 1.0): 7.9,
    ("qled", 64, 0.1): 13.62, ("qled", 64, 1.0): 14.42,
}

# Worker processes must not start their own BLAS or OpenMP thread pools:
# two of them on two cores would oversubscribe.  The pins take effect only
# before numpy is first imported, so they go into the environment the
# workers start with.
WORKER_THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}

_report_lines = []
_ran = set()


def record(criterion, name, ok, detail):
    line = f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _report_lines.append(line)
    print(line)
    return ok


@pytest.fixture(autouse=True)
def count_run(request):
    """Note each test of this module that runs."""
    _ran.add(request.node.name)


@pytest.fixture(scope="session", autouse=True)
def report():
    """Write the recorded lines to ``REPORT_PATH`` at the end of the session,
    only when every test of this module ran: a run of some criteria leaves
    the committed report whole."""
    yield
    if _ran >= {name for name in globals() if name.startswith("test_")}:
        with open(REPORT_PATH, "w") as fh:
            fh.writelines(line + "\n" for line in _report_lines)


def _cfg(scheme, order, dt, fde_on):
    return harness.ExperimentConfig(scheme=scheme, order=order, dt=dt,
                                    fde=fde_on, seed=MASTER_SEED)


def _measure_entry(item):
    key, (scheme, order, dt, fde_on) = item
    req = harness.find_power_requirement(_cfg(scheme, order, dt, fde_on))
    return key, req


MEASUREMENT_PLAN = {
    "T4_d01_fde": ("tled", 4, 0.1, True),
    "T4_d1_fde": ("tled", 4, 1.0, True),
    "T16_d01_fde": ("tled", 16, 0.1, True),
    "T16_d1_fde": ("tled", 16, 1.0, True),
    "Q4_d01_fde": ("qled", 4, 0.1, True),
    "Q4_d1_fde": ("qled", 4, 1.0, True),
    "Q64_d01_fde": ("qled", 64, 0.1, True),
    "Q64_d1_fde": ("qled", 64, 1.0, True),
    "T8_d01_fde": ("tled", 8, 0.1, True),
    "Q8_d01_fde": ("qled", 8, 0.1, True),
    "Q16_d01_fde": ("qled", 16, 0.1, True),
    "Q4_d1_raw": ("qled", 4, 1.0, False),
    "T4_d01_raw": ("tled", 4, 0.1, False),
    "T4_d05_raw": ("tled", 4, 0.5, False),
    "T16_d05_raw": ("tled", 16, 0.5, False),
    "T4_d1_raw": ("tled", 4, 1.0, False),
}


# ---------------------------------------------------------------------------
# Criterion 5 first: the property gate that must pass before Monte Carlo.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def property_gate():
    failures = []

    # 5a. noiseless loopback, every scheme/order, Dt in {0, 0.5, 1}, 1e6 bits
    for scheme, order in ALL_SCHEMES:
        constellation = col.build_constellation(scheme, order)
        for dt in (0.0, 0.5, 1.0):
            cfg = _cfg(scheme, order, dt, True)
            sim = harness.LinkSimulator(cfg, constellation)
            errors, bits, _ = sim.run(0.0, 1_000_000, (MASTER_SEED, order))
            if errors != 0 or bits < 1_000_000:
                failures.append(f"loopback {scheme}-{order} dt={dt}: "
                                f"{errors} errors / {bits} bits")

    # 5b. mixing-system round trip and intensity invariants, every point
    for scheme, order in ALL_SCHEMES:
        c = col.build_constellation(scheme, order)
        if not np.allclose(c.intensities.sum(axis=1), 1.0, atol=1e-9):
            failures.append(f"{scheme}-{order}: intensity sums off unit")
        if c.intensities.min() < 0:
            failures.append(f"{scheme}-{order}: negative intensity")
        if scheme == "qled" and (np.count_nonzero(c.intensities, axis=1) > 3).any():
            failures.append(f"{scheme}-{order}: more than 3 LEDs lit")
        reprojected = c.intensities @ c.sources.xy
        if not np.allclose(reprojected, c.chromaticities, atol=1e-10):
            failures.append(f"{scheme}-{order}: chromaticity round trip broke")

    # 5c. the package's transforms against the naive DFT: the channel
    # spectrum behind build_zfe (its coefficients are 1 / spectrum), the
    # inverse identity of equalize's rfft/irfft pair; Parseval
    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    naive = np.array([np.sum(x * np.exp(-2j * np.pi * np.arange(64) * m / 64))
                      for m in range(64)])
    spectrum = 1.0 / fde.build_zfe(x, 64)
    if not np.allclose(spectrum, naive, atol=1e-10):
        failures.append("channel spectrum disagrees with the naive DFT")
    identity = np.ones(33, dtype=complex)
    if not np.allclose(fde.equalize(x[None, :, None], identity)[0, :, 0], x,
                       atol=1e-12):
        failures.append("irfft(rfft(x)) != x")
    if abs(np.sum(x ** 2) - np.sum(np.abs(spectrum) ** 2) / 64) > 1e-9:
        failures.append("Parseval broken under documented scaling")

    # 5d. framed pipeline vs circulant inversion oracle on N = 16
    from scipy.signal import lfilter
    n, cp = 16, 8
    taps = chan.discretize_impulse_response(1.0, 4)
    blocks = rng.normal(size=(4, n))
    framed = np.concatenate([blocks[:, n - cp:], blocks], axis=1).ravel()
    received = lfilter(taps, [1.0], framed)
    circulant = np.zeros((n, n))
    padded = np.zeros(n)
    padded[:len(taps)] = taps
    for i in range(n):
        circulant[:, i] = np.roll(padded, i)
    inv = np.linalg.inv(circulant)
    eq = fde.build_zfe(taps, n)
    for b in range(4):
        rx = received[b * (n + cp) + cp: (b + 1) * (n + cp)]
        if not np.allclose(fde.equalize_block(rx, eq), blocks[b], atol=1e-9):
            failures.append(f"framed pipeline missed block {b}")
        if not np.allclose(inv @ rx, blocks[b], atol=1e-9):
            failures.append(f"circulant oracle missed block {b}")

    # 5e. CIL defaults: bit-exact entries, inverse round trip, column injection
    if chan.G_QLED[:, 2].tolist() != [0.0, 0.003, 0.255, 0.030]:
        failures.append("G_QLED yellow column mismatch")
    for g in (chan.G_TLED, chan.G_QLED):
        if not np.allclose(np.linalg.inv(g) @ g, np.eye(len(g)), atol=1e-12):
            failures.append("G inverse round trip above 1e-12")
    model = chan.ChannelModel.from_parameters(0.0, 4)
    probe = np.zeros((1, 4))
    probe[0, 2] = 1.0
    rx, _ = chan.apply_channel(probe, model, chan.G_QLED, chan.NoiseModel(0.0))
    if rx[0].tolist() != [0.0, 0.003, 0.255, 0.030]:
        failures.append("yellow-band injection does not reproduce column 3")

    # 5f. BER monotonicity in SNR (95% Wilson) on freshly produced curves
    for scheme, order, dt, grid in (("qled", 4, 0.5, [4, 6, 8, 10]),
                                    ("tled", 16, 0.1, [14, 16, 18, 20])):
        cfg = replace(_cfg(scheme, order, dt, True),
                      min_bit_errors=100, max_bits=4_000_000)
        curve = harness.run_ber_curve(cfg, grid)
        if not curve.is_monotone_non_increasing():
            failures.append(f"BER curve not monotone for {scheme}-{order}")

    return failures


def test_criterion_5_property_suite(property_gate):
    ok = record(5, "property suite", not property_gate,
                "all property checks green" if not property_gate
                else "; ".join(property_gate))
    assert ok, property_gate


# ---------------------------------------------------------------------------
# Shared Monte Carlo measurements (run after the property gate).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def measured(property_gate):
    assert not property_gate, "property gate must pass before Monte Carlo runs"
    jobs = int(os.environ.get("CSKFDE_ACCEPTANCE_JOBS", "2"))
    results = {}
    if jobs > 1:
        # spawn, not fork: this process has run threads (LinkSimulator.run
        # draws on a helper thread), and a forked child inherits their locks
        spawn = multiprocessing.get_context("spawn")
        with pytest.MonkeyPatch.context() as mp:
            for name, value in WORKER_THREAD_PINS.items():
                mp.setenv(name, value)
            with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
                for key, req in pool.map(_measure_entry,
                                         MEASUREMENT_PLAN.items()):
                    results[key] = req
    else:
        for item in MEASUREMENT_PLAN.items():
            key, req = _measure_entry(item)
            results[key] = req
    with open("acceptance_measurements.json", "w") as fh:
        json.dump({k: {"achievable": r.achievable,
                       "requirement_db": r.requirement_db}
                   for k, r in results.items()}, fh, indent=1, sort_keys=True)
    return results


# ---------------------------------------------------------------------------
# Criterion 1: data-rate exactness
# ---------------------------------------------------------------------------

def test_criterion_1_data_rates():
    checks = [
        (harness.data_rate(16, 64, 8), (64 / 72) * 24e6 * 4),
        (harness.data_rate(4096, 64, 8), 256e6),
        (harness.data_rate(16, 64, 0), 96e6),
    ]
    ok = all(got == want for got, want in checks)
    record(1, "data-rate exactness",
           ok, "85.33/256/96 Mbit/s reproduced exactly" if ok else f"{checks}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: reference-table FDE spot reproduction, +-0.75 dB
# ---------------------------------------------------------------------------

def test_criterion_2_table_fde_spots(measured):
    tolerance = 0.75
    rows = []
    all_ok = True
    for key, (scheme, order, dt, _) in MEASUREMENT_PLAN.items():
        if not key.endswith("_fde") or (scheme, order, dt) not in TABLE_FDE:
            continue
        expected = TABLE_FDE[(scheme, order, dt)]
        req = measured[key]
        got = req.requirement_db if req.achievable else float("inf")
        ok = req.achievable and abs(got - expected) <= tolerance
        all_ok &= ok
        rows.append(f"{scheme}-{order}@Dt={dt}: {got:.2f} vs {expected} "
                    f"{'ok' if ok else 'MISS'}")
    record(2, "reference FDE requirement spots +-0.75 dB", all_ok, "; ".join(rows))
    assert all_ok, rows


# ---------------------------------------------------------------------------
# Criterion 3: convention-independent deltas
# ---------------------------------------------------------------------------

def test_criterion_3a_fde_gain_qled4_dt1(measured):
    raw, eq = measured["Q4_d1_raw"], measured["Q4_d1_fde"]
    if raw.achievable and eq.achievable:
        delta = raw.requirement_db - eq.requirement_db
        ok = abs(delta - 12.6) <= 1.0
        detail = f"unequalised-FDE = {delta:.2f} dB vs 12.6 +-1.0"
    else:
        ok, delta = False, None
        detail = f"achievable flags raw={raw.achievable} fde={eq.achievable}"
    record(3, "(a) QLED-4 Dt=1 FDE gain", ok, detail)
    assert ok, detail


def test_criterion_3b_tled_qled_gaps(measured):
    expected = {4: 2.8, 8: 2.05, 16: 2.6}
    rows, all_ok = [], True
    pairs = {4: ("T4_d01_fde", "Q4_d01_fde"),
             8: ("T8_d01_fde", "Q8_d01_fde"),
             16: ("T16_d01_fde", "Q16_d01_fde")}
    for m, (t_key, q_key) in pairs.items():
        t, q = measured[t_key], measured[q_key]
        gap = t.requirement_db - q.requirement_db
        ok = abs(gap - expected[m]) <= 0.5
        all_ok &= ok
        rows.append(f"M={m}: {gap:.2f} vs {expected[m]} {'ok' if ok else 'MISS'}")
    record(3, "(b) TLED-QLED FDE gaps +-0.5 dB", all_ok, "; ".join(rows))
    assert all_ok, rows


def test_criterion_3c_tled4_unequalised_dt_slide(measured):
    a, b = measured["T4_d01_raw"], measured["T4_d05_raw"]
    if a.achievable and b.achievable:
        delta = b.requirement_db - a.requirement_db
        ok = abs(delta - 8.1) <= 1.0
        detail = f"Dt 0.1->0.5 = {delta:.2f} dB vs 8.1 +-1.0"
    else:
        ok = False
        detail = f"achievable flags d01={a.achievable} d05={b.achievable}"
    record(3, "(c) TLED-4 unequalised Dt slide", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 4: BER-floor detection
# ---------------------------------------------------------------------------

def test_criterion_4_floor_detection(measured):
    t16 = measured["T16_d05_raw"]
    t4 = measured["T4_d1_raw"]
    q4 = measured["Q4_d1_raw"]
    ok_t16 = not t16.achievable
    ok_t4 = not t4.achievable
    ok_q4 = q4.achievable and abs(q4.requirement_db - 20.5) <= 1.0
    detail = (f"TLED-16@0.5 unach={'yes' if ok_t16 else 'NO'}; "
              f"TLED-4@1 unach={'yes' if ok_t4 else 'NO'}; "
              f"QLED-4@1 = "
              f"{q4.requirement_db:.2f} vs 20.5 +-1.0" if q4.achievable else
              f"TLED-16@0.5 unach={ok_t16}; TLED-4@1 unach={ok_t4}; QLED-4@1 unachievable")
    ok = ok_t16 and ok_t4 and ok_q4
    record(4, "BER-floor detection at 40 dB", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# Criterion 6: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_6_cli_determinism(tmp_path, src_env):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("min_bit_errors: 30\nmax_bits: 400000\ntarget_ber: 0.003\n")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        js = tmp_path / f"{name}.json"
        code = subprocess.run(
            [sys.executable, "-m", "cskfde.cli", "table1",
             "--entries", "qled:4:0.5:fde", "--seed", "7",
             "--config", str(cfg), "--out", str(out), "--json", str(js)],
            capture_output=True, env=src_env).returncode
        assert code == 0
        outputs.append(out.read_bytes() + js.read_bytes())
    ok = outputs[0] == outputs[1]
    # and the loopback subcommand reports a clean run
    proc = subprocess.run(
        [sys.executable, "-m", "cskfde.cli", "loopback-check", "--scheme",
         "qled", "--order", "4096", "--dt", "1", "--fde", "on",
         "--bits", "1000000"], capture_output=True, text=True, env=src_env)
    loop_ok = proc.returncode == 0 and "0 bit errors" in proc.stdout
    record(6, "CLI determinism + loopback",
           ok and loop_ok,
           f"byte-identical reruns={'yes' if ok else 'NO'}, "
           f"4096-QLED loopback clean={'yes' if loop_ok else 'NO'}")
    assert ok and loop_ok
