"""Property-based tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=50))
def test_store_is_fifo_for_any_item_sequence(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)
            yield env.timeout(0.1)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30)
)
def test_clock_never_goes_backwards(delays):
    env = Environment()
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert times == sorted(times)
    assert env.now == pytest.approx(max(delays))
