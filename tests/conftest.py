"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.data.synthetic import make_synthetic_dataset
from repro.fixedpoint.qformat import QFormat
from repro.stats.scatter import estimate_two_class_stats

# CI runs the property suites under a pinned, derandomized profile
# (HYPOTHESIS_PROFILE=ci in .github/workflows/ci.yml) so failures are
# reproducible from the log; local runs keep exploring fresh examples.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def q3_0() -> QFormat:
    return QFormat(3, 0)


@pytest.fixture(scope="session")
def q2_2() -> QFormat:
    return QFormat(2, 2)


@pytest.fixture(scope="session")
def q4_4() -> QFormat:
    return QFormat(4, 4)


@pytest.fixture(scope="session")
def synthetic_train():
    return make_synthetic_dataset(600, seed=0)


@pytest.fixture(scope="session")
def synthetic_test():
    return make_synthetic_dataset(1500, seed=1)


@pytest.fixture(scope="session")
def synthetic_stats(synthetic_train):
    return estimate_two_class_stats(synthetic_train.class_a, synthetic_train.class_b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def hold_first_batch(monkeypatch):
    """Block a serving engine's first ``run`` call until released.

    The micro-batcher flushes a lone request on an idle engine within one
    event-loop pass, so a request only stays queued behind a batch still in
    flight.  ``hold_first_batch(engine)`` returns ``(entered, release,
    calls)``: ``entered`` is set once the held batch is inside the engine,
    setting ``release`` lets it finish, ``calls`` records each call's batch
    size.  Later calls run unheld.
    """

    def hold(engine):
        entered, release = threading.Event(), threading.Event()
        run = engine.run
        calls = []

        def held(features):
            calls.append(len(features))
            if len(calls) == 1:
                entered.set()
                release.wait(timeout=10.0)
            return run(features)

        monkeypatch.setattr(engine, "run", held)
        return entered, release, calls

    return hold
