"""Hypothesis profiles for the tier-1 suite.

``HYPOTHESIS_PROFILE=deep`` raises property tests to at least 2000 examples
each (CI's deep packing fuzz); unset, Hypothesis' defaults apply.
"""

import os

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
