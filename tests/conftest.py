"""Shared test setup: one hypothesis profile for every property test, and a
fixture that runs toy configs on helper threads.

Property tests draw the same examples on every run (`derandomize`), and
slow examples are not failures (`deadline=None`); each test sets only its
own `max_examples` and health-check exceptions.
"""

import pytest
from hypothesis import settings

import fedconv.federated as fed

settings.register_profile("fedconv", derandomize=True, deadline=None)
settings.load_profile("fedconv")


@pytest.fixture
def helper_threads(monkeypatch):
    """Start helper threads whatever a local step costs: toy configs fall
    below `HELPERS_FROM_STEP_MACS`, so without this their `threads` would
    train every client on the calling thread and leave the threaded fold
    untested."""
    monkeypatch.setattr(fed, "HELPERS_FROM_STEP_MACS", 0)


@pytest.fixture(autouse=True)
def _tracer_contract_helpers(request):
    # The tracer contract trains a toy config at `--threads 2`; pinning
    # helpers on keeps its pool-thread span parenting and counters tested.
    if request.module.__name__ == "test_tracer_contract":
        request.getfixturevalue("helper_threads")
