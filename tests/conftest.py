"""Hypothesis settings for the test suite: derandomized, so every run draws
the same examples, with no deadline and no example database.  Its remaining
on-disk cache (constants read from the source) goes to a temporary directory
removed when the session ends, not to `.hypothesis/`.

The packaged scenarios and criterion 11's fig5 sweep run once per session,
in the fixtures `packaged_runs` and `eta2_sweep`, for every test that reads
their unmodified outputs."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from reference_outputs import run_eta2_sweep, run_packaged

settings.register_profile("modrabi", derandomize=True, deadline=None, database=None)
settings.load_profile("modrabi")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="modrabi-hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)


@pytest.fixture(scope="session")
def packaged_runs() -> dict:
    """Name -> `SimulationResult` of each packaged scenario; read, never modify."""
    return run_packaged()


@pytest.fixture(scope="session")
def eta2_sweep() -> tuple:
    """(manifest, header, rows) of criterion 11's 41-point fig5 sweep over eta2."""
    return run_eta2_sweep()
