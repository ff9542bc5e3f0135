"""Fixtures shared by the test modules."""

import threading

import pytest


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
