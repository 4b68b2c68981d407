"""Hypothesis profiles.  ``--hypothesis-profile=ci`` selects ``ci``: each
test draws the same examples on every run, and a failure prints the blob
that ``@reproduce_failure`` replays.  Without the flag, runs search at
random as before."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
