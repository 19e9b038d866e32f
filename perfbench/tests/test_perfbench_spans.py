"""Self-time arithmetic and span parenting of the benchmark's tracer."""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Tracer, check_accounting, covered, layer_self_times, self_times


def span(id, name, start, end, parent=None, link=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, link=link)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered((2, 6), [(0, 3), (5, 9)]) == 2
    assert covered((0, 1), [(2, 3)]) == 0


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "a.inner", 2.0, 3.0, parent=2),
        span(4, "b", 5.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_same_named_nested_spans_are_not_counted_twice():
    spans = [
        span(1, "root", 0.0, 4.0),
        span(2, "branch", 1.0, 3.0, parent=1),
        span(3, "branch", 1.5, 2.5, parent=2),
    ]
    layers = layer_self_times([spans[0]], spans, {"root": "other"})
    assert layers == {"other": 2.0, "branch": 2.0}


def test_a_linked_span_is_a_child_of_every_tree_that_waited_for_it():
    # Two requests co-batched into one engine call running in another thread.
    engine = span(9, "engine.run", 3.0, 5.0)
    spans = [
        span(1, "op", 0.0, 6.0), span(2, "batcher.submit", 1.0, 6.0, parent=1, link=9),
        span(3, "op", 2.0, 7.0), span(4, "batcher.submit", 2.5, 6.5, parent=3, link=9),
        engine,
    ]
    layers = layer_self_times([spans[0], spans[2]], spans, {"batcher.submit": "wait"})
    assert layers["engine.run"] == pytest.approx(4.0)
    assert layers["wait"] == pytest.approx((5.0 - 2.0) + (4.0 - 2.0))
    assert sum(layers.values()) == pytest.approx(6.0 + 5.0)


def test_accounting_flags_overlapping_siblings():
    # Siblings that overlap claim the same wall time twice.
    spans = [span(1, "root", 0.0, 10.0), span(2, "a", 0.0, 6.0, parent=1), span(3, "b", 4.0, 10.0, parent=1)]
    layers = layer_self_times([spans[0]], spans, {"root": "other"})
    assert not check_accounting(layers, 10.0, "other", 0.01).ok
    nested = [span(1, "root", 0.0, 10.0), span(2, "a", 0.0, 6.0, parent=1)]
    good = check_accounting(layer_self_times([nested[0]], nested, {"root": "other"}), 10.0, "other", 0.01)
    assert good.ok and good.unattributed_frac == pytest.approx(0.4)


def test_asyncio_tasks_keep_separate_parents_and_executor_threads_start_at_the_root():
    tracer = Tracer()
    pool = ThreadPoolExecutor(max_workers=1)

    def engine():
        span, token = tracer.open("engine.run")
        tracer.close(span, token)
        return span

    async def request(name):
        root, token = tracer.open(name, root=True)
        await asyncio.sleep(0.01)
        child, child_token = tracer.open("decode")
        await asyncio.sleep(0.01)
        tracer.close(child, child_token)
        work = await asyncio.get_running_loop().run_in_executor(pool, engine)
        tracer.close(root, token)
        return root, child, work

    async def main():
        return await asyncio.gather(request("op1"), request("op2"))

    try:
        results = asyncio.run(main())
    finally:
        pool.shutdown(wait=True)
    for root, child, work in results:
        assert root.parent is None
        assert child.parent == root.id
        assert work.parent is None


def test_install_and_restore_wrap_the_original_callable():
    class Layer:
        def run(self, x):
            return x + 1

    tracer = Tracer()
    original = Layer.run
    tracer.install(Layer, "run", lambda f: tracer.wrap(f, "layer.run"))
    assert Layer().run(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.run"]
    tracer.restore()
    assert Layer.run is original
