"""The dynamic batcher as pure policy: launch, order, backpressure."""

import random

import pytest

from repro.errors import ParameterError
from repro.serve import BatchPolicy, DynamicBatcher
from repro.serve.requests import Request


def _req(rid, arrival, estimate=1.0):
    return Request(
        request_id=rid, job=None, arrival_seconds=arrival,
        service_estimate=estimate,
    )


class TestBatchPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_queue_delay": -0.1},
        {"order": "lifo"},
        {"max_queue_depth": 0},
        {"max_inflight_batches": 0},
    ])
    def test_invalid_knobs(self, kwargs):
        with pytest.raises(ParameterError):
            BatchPolicy(**kwargs)


class TestLaunchPolicy:
    def test_empty_queue_never_launches(self):
        b = DynamicBatcher(BatchPolicy())
        assert not b.should_launch(0.0, 0, arrivals_pending=True)

    def test_full_batch_launches_even_with_inflight_slot_taken(self):
        policy = BatchPolicy(max_batch_size=2, max_inflight_batches=2)
        b = DynamicBatcher(policy)
        b.offer(_req(0, 0.0))
        b.offer(_req(1, 0.0))
        assert b.should_launch(0.0, 1, arrivals_pending=True)

    def test_inflight_bound_blocks_launch(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2))
        b.offer(_req(0, 0.0))
        b.offer(_req(1, 0.0))
        assert not b.should_launch(0.0, 1, arrivals_pending=True)

    def test_work_conservation_when_idle(self):
        # One queued request, engine idle: launch a partial batch
        # rather than idling the accelerator waiting to fill it.
        b = DynamicBatcher(BatchPolicy(max_batch_size=8))
        b.offer(_req(0, 0.0))
        assert b.should_launch(0.0, 0, arrivals_pending=True)

    def test_partial_batch_waits_while_busy(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=8,
                                       max_inflight_batches=2))
        b.offer(_req(0, 0.0))
        assert not b.should_launch(0.0, 1, arrivals_pending=True)

    def test_tail_drain_launches_partial_batch(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=8,
                                       max_inflight_batches=2))
        b.offer(_req(0, 0.0))
        assert b.should_launch(0.0, 1, arrivals_pending=False)

    def test_queue_delay_deadline_forces_launch(self):
        policy = BatchPolicy(max_batch_size=8, max_queue_delay=0.010,
                             max_inflight_batches=2)
        b = DynamicBatcher(policy)
        b.offer(_req(0, 0.002))
        assert b.next_deadline() == pytest.approx(0.012)
        assert not b.should_launch(0.005, 1, arrivals_pending=True)
        assert b.should_launch(0.012, 1, arrivals_pending=True)


class TestOrdering:
    def test_fifo_takes_arrival_order(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, order="fifo"))
        b.offer(_req(0, 0.3, estimate=0.1))
        b.offer(_req(1, 0.1, estimate=9.0))
        b.offer(_req(2, 0.2, estimate=0.1))
        batch = b.take_batch(0.5)
        assert [r.request_id for r in batch] == [1, 2]
        assert b.depth == 1  # the un-taken request stays queued

    def test_sjf_takes_shortest_first(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2, order="sjf"))
        b.offer(_req(0, 0.1, estimate=9.0))
        b.offer(_req(1, 0.2, estimate=1.0))
        b.offer(_req(2, 0.3, estimate=2.0))
        batch = b.take_batch(0.5)
        assert [r.request_id for r in batch] == [1, 2]

    def test_sjf_ties_break_by_arrival(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=3, order="sjf"))
        b.offer(_req(0, 0.3, estimate=1.0))
        b.offer(_req(1, 0.1, estimate=1.0))
        b.offer(_req(2, 0.2, estimate=1.0))
        batch = b.take_batch(0.5)
        assert [r.request_id for r in batch] == [1, 0, 2] or \
            [r.request_id for r in batch] == [1, 2, 0]
        # Equal estimates: earliest arrival must lead the batch.
        assert batch[0].request_id == 1


class TestBackpressure:
    def test_offer_rejects_past_depth_bound(self):
        b = DynamicBatcher(BatchPolicy(max_queue_depth=2))
        assert b.offer(_req(0, 0.0))
        assert b.offer(_req(1, 0.0))
        assert not b.offer(_req(2, 0.0))
        assert b.depth == 2

    def test_depth_frees_after_take(self):
        b = DynamicBatcher(BatchPolicy(max_batch_size=2,
                                       max_queue_depth=2))
        b.offer(_req(0, 0.0))
        b.offer(_req(1, 0.0))
        b.take_batch(0.0)
        assert b.offer(_req(2, 0.1))

    def test_unbounded_by_default(self):
        b = DynamicBatcher(BatchPolicy())
        for i in range(100):
            assert b.offer(_req(i, 0.0))
        assert b.depth == 100


class TestCachedAggregates:
    def test_cached_values_equal_a_fresh_scan(self):
        # The backlog sum and the oldest arrival are cached between
        # queue changes; after every step of a seeded random
        # offer/take/expire/drain sequence they must equal exactly the
        # sum/min a fresh scan of the queue gives.
        rng = random.Random(16)
        b = DynamicBatcher(BatchPolicy(
            max_batch_size=3, order="sjf", max_queue_depth=12,
        ))
        now = 0.0
        for rid in range(400):
            now += rng.expovariate(1000.0)
            step = rng.random()
            if step < 0.6:
                b.offer(Request(
                    request_id=rid, job=None, arrival_seconds=now,
                    service_estimate=rng.uniform(1e-4, 5e-3),
                    deadline_seconds=now + rng.uniform(1e-3, 1e-2),
                ))
            elif step < 0.8:
                b.take_batch(now)
            elif step < 0.97:
                b.expired(now)
            else:
                b.drain()
            queue = list(b._queue)
            assert b.queued_estimate_seconds() == sum(
                r.service_estimate for r in queue
            )
            assert b.oldest_arrival() == (
                min(r.arrival_seconds for r in queue) if queue else None
            )
