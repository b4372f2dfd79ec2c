"""Shared pytest set-up: a reproducible, bounded hypothesis profile.

Property tests draw the same examples on every run (derandomize), never
time out on a slow machine (no deadline), write no example database into
the checkout, and stop after a bounded number of examples so they add only
a few seconds to the suite.
"""

from hypothesis import settings

settings.register_profile("lcsflow", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("lcsflow")
