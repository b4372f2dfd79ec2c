"""Rewrite the golden reports under tests/golden/ from the current sources.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs the acceptance tests that build the reports with --update-golden, so
each file's "report" is replaced and its hand-written "bounds" are kept.
Review the diff field by field before committing it.
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
