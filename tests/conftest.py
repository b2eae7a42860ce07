"""Test-wide settings: property tests run a fixed, derandomized set of examples."""

from hypothesis import settings

settings.register_profile("trischmidt", derandomize=True, max_examples=50, deadline=None,
                          database=None)
settings.load_profile("trischmidt")
