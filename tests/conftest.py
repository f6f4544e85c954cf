"""Shared test setup: one hypothesis profile for every property test.

Property tests draw the same examples on every run (`derandomize`), and
slow examples are not failures (`deadline=None`); each test sets only its
own `max_examples` and health-check exceptions.
"""

from hypothesis import settings

settings.register_profile("fedconv", derandomize=True, deadline=None)
settings.load_profile("fedconv")
