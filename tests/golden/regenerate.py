"""Rewrite the golden reports under tests/golden/ from the current sources.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs the acceptance tests that build the reports with --update-golden.
Each file's "report" takes the keys, list lengths and types of the new
report and only the floats that moved past their bound; every other float
and the hand-written "bounds" are kept.  Review the diff field by field
before committing it.
"""

import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parents[1]
CRITERIA = ("test_criterion_04_moser_pipeline_contact",
            "test_criterion_05_classical_limit",
            "test_criterion_06_corollary_paths",
            "test_criterion_10_cli_fixtures")

if __name__ == "__main__":
    ids = [f"{TESTS / 'test_acceptance.py'}::{name}" for name in CRITERIA]
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--update-golden",
                          "--rootdir", str(TESTS.parent), *ids]))
