"""Shared fixtures and the acceptance-criteria terminal summary.

Tests named ``test_criterion_<k>_*`` (the acceptance gate) are collected
into a per-criterion verdict table printed at the end of every run, one
line per criterion, so the gate's status is visible even inside a large
``pytest -v`` log.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from fuzzyricci import FuzzyTorus
from fuzzyricci.linalg import superop_from_map

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _RESULTS[int(match.group(1))] = (outcome, match.group(2))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_RESULTS):
        outcome, label = _RESULTS[k]
        terminalreporter.write_line(f"criterion {k} ({label.replace('_', ' ')}): {outcome}")


@pytest.fixture(scope="session")
def torus2() -> FuzzyTorus:
    return FuzzyTorus(2, 1)


@pytest.fixture(scope="session")
def torus3() -> FuzzyTorus:
    return FuzzyTorus(3, 1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2


def log_metric(space) -> np.ndarray:
    """``log c = V diag(log w) V*`` from a metric state's eigenpairs, Hermitian up to roundoff."""
    v = space.eigenvectors
    return (v * np.log(space.eigenvalues)) @ v.conj().T


def dense_laplacian(torus: FuzzyTorus) -> np.ndarray:
    """The flat Laplacian's dense ``(n^2, n^2)`` matrix, probed from ``laplacian_apply``."""
    return superop_from_map(torus.n, torus.laplacian_apply)


# Sizes and twists at which the program's own matrices are pinned Hermitian to
# roundoff before they go to eigh unchecked.
ROUNDOFF_PAIRS = [(2, 1), (3, 1), (4, 1), (5, 2), (8, 3), (12, 5), (16, 1)]


def recording_eigh(monkeypatch) -> list[np.ndarray]:
    """Patch ``np.linalg.eigh`` to keep a copy of each array it decomposes; returns that list."""
    real_eigh = np.linalg.eigh
    inputs = []

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return inputs
