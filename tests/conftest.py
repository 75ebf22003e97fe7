"""Hypothesis settings for the test suite: derandomized, so every run draws
the same examples, with no deadline and no example database.  Its remaining
on-disk cache (constants read from the source) goes to a temporary directory
removed when the session ends, not to `.hypothesis/`."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("modrabi", derandomize=True, deadline=None, database=None)
settings.load_profile("modrabi")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="modrabi-hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
