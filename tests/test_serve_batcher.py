"""Tests for the asyncio micro-batching queue.

The batcher's contract: co-batched requests receive exactly the slices of
one vectorized engine call; a batch flushes on size, at once on an idle
engine, and otherwise when the in-flight batch completes or ``max_delay``
passes; and a poisoned batch rejects every member with the engine's error.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import ServeError
from repro.fixedpoint.qformat import QFormat
from repro.serve.batcher import BatcherConfig, MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry


@pytest.fixture
def registry():
    reg = ModelRegistry()
    reg.register(
        "m",
        FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        ),
    )
    return reg


def _features(rng, k):
    return rng.uniform(-2, 2, size=(k, 3))


class TestConfig:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ServeError):
            BatcherConfig(max_batch_size=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ServeError):
            BatcherConfig(max_delay=-1.0)


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self, registry, rng):
        """Requests arriving inside one delay window run as a single batch."""
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            registry,
            config=BatcherConfig(max_batch_size=64, max_delay=0.05),
            metrics=metrics,
        )

        async def scenario():
            chunks = [_features(rng, 2) for _ in range(5)]
            results = await asyncio.gather(
                *[batcher.submit("m", chunk) for chunk in chunks]
            )
            return chunks, results

        chunks, results = asyncio.run(scenario())
        assert metrics.to_dict()["batches_total"] == 1  # all five coalesced
        engine = registry.get("m").engine
        for chunk, (result, model) in zip(chunks, results):
            assert model.name == "m"
            assert np.array_equal(result.labels, engine.predict(chunk))

    def test_size_triggered_flush(self, registry, rng):
        """Hitting max_batch_size flushes without waiting for the deadline."""
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            registry,
            # Deadline far beyond the test's patience: only size can flush.
            config=BatcherConfig(max_batch_size=4, max_delay=30.0),
            metrics=metrics,
        )

        async def scenario():
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", _features(rng, 2)),
                    batcher.submit("m", _features(rng, 2)),
                ),
                timeout=5.0,
            )

        results = asyncio.run(scenario())
        assert len(results) == 2
        assert metrics.to_dict()["batches_total"] == 1

    def test_deadline_triggered_flush(self, registry, rng):
        """A lone request is answered (by max_delay at the latest) far below size."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=1024, max_delay=0.01)
            )
            result, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 1)), timeout=5.0
            )
            return result

        result = asyncio.run(scenario())
        assert result.num_samples == 1

    def test_results_are_request_slices(self, registry, rng):
        """Slicing returns each caller exactly its own rows, in order."""
        engine = registry.get("m").engine

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.02)
            )
            chunks = [_features(rng, k) for k in (1, 3, 2)]
            gathered = await asyncio.gather(
                *[batcher.submit("m", chunk) for chunk in chunks]
            )
            return chunks, gathered

        chunks, gathered = asyncio.run(scenario())
        for chunk, (result, _) in zip(chunks, gathered):
            expected = engine.run(chunk)
            assert [int(r) for r in result.projection_raws] == [
                int(r) for r in expected.projection_raws
            ]
            assert np.array_equal(result.labels, expected.labels)


class TestWorkConserving:
    def test_lone_request_does_not_wait_for_max_delay(self, registry, rng):
        """On an idle engine a lone request flushes within the loop pass."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=1024, max_delay=30.0)
            )
            result, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 1)), timeout=2.0
            )
            return result

        assert asyncio.run(scenario()).num_samples == 1

    def test_queued_requests_flush_when_the_running_batch_completes(
        self, registry, rng, hold_first_batch
    ):
        """Submits behind a busy engine share exactly one follow-up batch,
        flushed by the first batch's completion, not by max_delay."""
        engine = registry.get("m").engine
        expected_run = engine.run
        entered, release, calls = hold_first_batch(engine)
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            registry,
            # Far beyond the test's patience: only completion can flush.
            config=BatcherConfig(max_batch_size=1024, max_delay=30.0),
            metrics=metrics,
        )
        first = _features(rng, 2)
        queued = [_features(rng, k) for k in (1, 3, 2)]

        async def scenario():
            held = asyncio.ensure_future(batcher.submit("m", first))
            try:
                assert await asyncio.to_thread(entered.wait, 5.0)
                followers = [
                    asyncio.ensure_future(batcher.submit("m", chunk))
                    for chunk in queued
                ]
                await asyncio.sleep(0.05)
                assert calls == [2]  # the followers wait behind the engine
            finally:
                release.set()
            return await asyncio.wait_for(
                asyncio.gather(held, *followers), timeout=2.0
            )

        results = asyncio.run(scenario())
        assert calls == [2, 6]
        assert metrics.to_dict()["batches_total"] == 2
        for chunk, (result, _) in zip([first] + queued, results):
            expected = expected_run(chunk)
            assert np.array_equal(result.projection_raws, expected.projection_raws)
            assert np.array_equal(result.labels, expected.labels)

    def test_max_delay_caps_the_wait_behind_a_long_batch(
        self, registry, rng, hold_first_batch
    ):
        """A request queued behind a batch that outlasts max_delay still
        flushes at max_delay, while that batch is running."""
        engine = registry.get("m").engine
        run = engine.run
        entered, release, calls = hold_first_batch(engine)
        batcher = MicroBatcher(
            registry, config=BatcherConfig(max_batch_size=1024, max_delay=0.05)
        )
        features = _features(rng, 3)

        async def scenario():
            held = asyncio.ensure_future(batcher.submit("m", _features(rng, 1)))
            try:
                assert await asyncio.to_thread(entered.wait, 5.0)
                result, _ = await asyncio.wait_for(
                    batcher.submit("m", features), timeout=2.0
                )
                assert not held.done()  # answered while the first batch runs
            finally:
                release.set()
            await asyncio.wait_for(held, timeout=5.0)
            return result

        result = asyncio.run(scenario())
        assert calls == [1, 3]
        assert np.array_equal(result.labels, run(features).labels)


class TestErrors:
    def test_wrong_shape_rejected_before_queueing(self, registry):
        async def scenario():
            batcher = MicroBatcher(registry)
            with pytest.raises(ServeError, match=r"\(k, M\)"):
                await batcher.submit("m", np.zeros(3))

        asyncio.run(scenario())

    def test_wrong_feature_count_rejected_before_queueing(self, registry):
        """A width mismatch errors alone at submit, not at flush time."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.01)
            )
            with pytest.raises(ServeError, match="expects 3 features"):
                await batcher.submit("m", np.zeros((1, 5)))

        asyncio.run(scenario())

    def test_wrong_width_does_not_hang_batch_mates(self, registry, rng):
        """A malformed request never stalls well-formed co-batched callers."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.02)
            )
            good = _features(rng, 2)
            results = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", good),
                    batcher.submit("m", np.zeros((2, 5))),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )
            return good, results

        good, (ok, bad) = asyncio.run(scenario())
        result, model = ok
        assert np.array_equal(result.labels, model.engine.predict(good))
        assert isinstance(bad, ServeError)

    def test_flush_failure_rejects_every_member(self, registry, rng, monkeypatch):
        """An engine error at flush time rejects all co-batched callers."""
        model = registry.get("m")
        monkeypatch.setattr(
            model.engine, "run", lambda features: (_ for _ in ()).throw(
                RuntimeError("engine exploded")
            )
        )

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.01)
            )
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", _features(rng, 1)),
                    batcher.submit("m", _features(rng, 2)),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)

    def test_unknown_model_rejected(self, registry, rng):
        async def scenario():
            batcher = MicroBatcher(registry)
            from repro.errors import ModelNotFoundError

            with pytest.raises(ModelNotFoundError):
                await batcher.submit("ghost", _features(rng, 1))

        asyncio.run(scenario())

    def test_unregister_between_submit_and_flush_still_serves(self, registry, rng):
        """The model captured at submit survives a concurrent unregister."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.02)
            )
            features = _features(rng, 2)
            task = asyncio.ensure_future(batcher.submit("m", features))
            await asyncio.sleep(0)  # let submit resolve and enqueue
            registry.unregister("m")
            result, model = await asyncio.wait_for(task, timeout=5.0)
            return features, result, model

        features, result, model = asyncio.run(scenario())
        assert model.name == "m"
        assert np.array_equal(result.labels, model.engine.predict(features))


class TestPinStability:
    def test_hot_swap_between_submit_and_flush_keeps_pinned_bits(self, rng):
        """A request resolved at submit is served by those exact bits even
        if the registry entry is replaced before the flush."""
        registry = ModelRegistry()
        first = FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        )
        second = FixedPointLinearClassifier(
            weights=np.array([-1.0, 0.75, -0.5]), threshold=-0.25, fmt=QFormat(2, 4)
        )
        registry.register("m", first)
        pinned_hash = registry.get("m").content_hash

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64, max_delay=0.02)
            )
            features = _features(rng, 2)
            task = asyncio.ensure_future(
                batcher.submit(f"sha256:{pinned_hash[:16]}", features)
            )
            await asyncio.sleep(0)  # submit resolves the pin, then we swap
            registry.register("m", second)
            result, model = await asyncio.wait_for(task, timeout=5.0)
            return features, result, model

        features, result, model = asyncio.run(scenario())
        assert model.content_hash == pinned_hash
        assert np.array_equal(
            result.labels, first.predict_bitexact(features)
        )


class TestDrain:
    def test_drain_completes_pending_work(self, registry, rng):
        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=1024, max_delay=10.0)
            )
            # Submit without awaiting, then drain: the pending batch must
            # flush immediately rather than waiting out the 10 s deadline.
            task = asyncio.ensure_future(batcher.submit("m", _features(rng, 2)))
            await asyncio.sleep(0)
            await batcher.drain()
            result, _ = await asyncio.wait_for(task, timeout=5.0)
            return result

        result = asyncio.run(scenario())
        assert result.num_samples == 2
