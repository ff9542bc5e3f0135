"""Fixtures shared by the test modules."""

import os
import threading
import time
from pathlib import Path

import pytest

from cskfde import harness, modem


# the run's draw worker, and the pool of run_ber_curve's side-by-side points
_PREFIXES = ("cskfde-draws", "cskfde-points")


def _cskfde_threads():
    return {t for t in threading.enumerate() if t.name.startswith(_PREFIXES)}


@pytest.fixture(scope="session")
def src_env():
    """The environment of a child interpreter that imports the sources of
    this checkout: its ``src`` first on ``PYTHONPATH``, ahead of any
    installed copy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@pytest.fixture(autouse=True)
def no_cskfde_thread_left():
    """Fail any test that leaves a ``cskfde-draws`` or ``cskfde-points``
    thread alive: every exit of ``LinkSimulator.run`` and of
    ``run_ber_curve`` joins its pool before it returns or raises."""
    before = _cskfde_threads()
    yield
    left = sorted(t.name for t in _cskfde_threads() - before)
    assert not left, f"cskfde threads left running: {left}"


@pytest.fixture()
def started_threads(monkeypatch):
    """The names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording_start(self):
        names.append(self.name)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


@pytest.fixture()
def tile_threads(monkeypatch):
    """``record(delay)`` wraps ``LinkSimulator._tile`` and returns the list it
    fills: per tile run, which thread ran it ("caller", the thread that asked
    for the fixture, or "worker") and the rows it skipped, its last argument.
    The caller waits ``delay`` s before each of its tiles, so that the worker
    reaches some first."""
    caller = threading.current_thread()
    tile = harness.LinkSimulator._tile

    def record(delay):
        ran = []

        def recording(sim, *args):
            on_caller = threading.current_thread() is caller
            ran.append(("caller" if on_caller else "worker", args[-1]))
            if on_caller:
                time.sleep(delay)
            return tile(sim, *args)
        monkeypatch.setattr(harness.LinkSimulator, "_tile", recording)
        return ran
    return record


@pytest.fixture()
def metric_rows(monkeypatch):
    """The list that counts the rows each call of ``modem.nearest_points``
    gets: the rows that reach the full metric."""
    reached = []
    nearest = modem.nearest_points

    def counting(rows, *args):
        reached.append(len(rows))
        return nearest(rows, *args)
    monkeypatch.setattr(modem, "nearest_points", counting)
    return reached


@pytest.fixture()
def suspect_counts(monkeypatch):
    """The list of ``(screened, suspects)`` per call of
    ``modem.suspect_rows``: the rows the trust test screened, and how many of
    them it left suspect.  Every screened tile is listed, also one that a
    stopping run finishes but does not count."""
    counts = []
    screen = modem.suspect_rows

    def counting(received, *args):
        suspects = screen(received, *args)
        counts.append((len(received), len(suspects)))
        return suspects
    monkeypatch.setattr(modem, "suspect_rows", counting)
    return counts
