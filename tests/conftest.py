"""Shared fixtures, and terminal reporting for the acceptance suite.

The acceptance report prints one pass/fail line per criterion at the end
of the run, independent of output capture.
"""

import re

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Shapes of the arrays passed to np.fft.fft and np.fft.ifft, in call order."""
    calls = []

    def counting(transform):
        def wrapper(a, *args, **kwargs):
            calls.append(np.shape(a))
            return transform(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    return calls


@pytest.fixture
def transform_lengths(monkeypatch):
    """(name, length) of each call of np.fft.fft, ifft, rfft and irfft, in call order."""
    calls = []

    def counting(name, transform):
        def wrapper(a, n=None, *args, **kwargs):
            calls.append((name, np.shape(a)[-1] if n is None else n))
            return transform(a, n, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


@pytest.fixture
def poison_ifft(monkeypatch):
    """poison_ifft(k) makes np.fft.ifft fill its result with NaN from call k + 1 on."""

    def arm(good_calls):
        transform, count = np.fft.ifft, [0]

        def ifft(a, *args, **kwargs):
            out = transform(a, *args, **kwargs)
            count[0] += 1
            if count[0] > good_calls:
                out[...] = np.nan
            return out

        monkeypatch.setattr(np.fft, "ifft", ifft)

    return arm


_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if match is None:
        return
    key = int(match.group(1))
    if report.when == "call":
        _ACCEPTANCE[key] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE[key] = report.outcome  # fixture error counts as failure


_TITLES = {
    1: "virial identity",
    2: "mass formula cross-check",
    3: "endpoint dichotomy",
    4: "critical-mass decay slope",
    5: "moderate-speed mass lower bound",
    6: "scaling invariance of the critical norm",
    7: "soliton propagation and scheme order",
    8: "conservation across the suite",
    9: "gauge equivalence round trip",
    10: "scattering signature dichotomy",
    11: "inequality probes",
    12: "determinism of experiment outputs",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[key]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {key:02d} ({_TITLES.get(key, '?')}): {word}"
        )
