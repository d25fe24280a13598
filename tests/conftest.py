import os

from hypothesis import settings

# "ci" draws the same examples on every run (seeded from each test, with no
# example database), so a red CI run replays; per-test max_examples still hold
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
