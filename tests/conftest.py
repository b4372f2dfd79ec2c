"""Shared pytest set-up: a reproducible, bounded hypothesis profile.

Property tests draw the same examples on every run (derandomize), never
time out on a slow machine (no deadline), write no example database into
the checkout, and stop after a bounded number of examples so they add only
a few seconds to the suite.

The ``golden`` fixture compares reports with the committed ones under
tests/golden/ (see tests/golden_reports.py); ``--update-golden`` rewrites
them instead.
"""

import pytest
from hypothesis import settings

import golden_reports

settings.register_profile("lcsflow", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("lcsflow")


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true", default=False,
                     help="rewrite tests/golden/*.json from this run instead "
                          "of comparing against them")


@pytest.fixture
def golden(request):
    """check(name, data): compare data with tests/golden/<name>.json."""
    update = request.config.getoption("--update-golden")
    return lambda name, data: golden_reports.check(name, data, update=update)
