"""Hypothesis settings profiles.

``ci`` replays exactly: it derandomizes the draws, keeps no example
database, and prints the reproduction blob of a failure.  Select it with
``pytest --hypothesis-profile=ci``; without that flag the default profile
runs as before.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, database=None)
