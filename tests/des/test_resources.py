"""Unit tests for the kernel's FIFO :class:`~repro.des.Store`."""

from repro.des import Environment, Store


def test_store_put_get_fifo():
    env = Environment()
    got = []

    def producer(env, store):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    store = Store(env)
    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item_arrives():
    env = Environment()
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env, store):
        yield env.timeout(8.0)
        yield store.put("late")

    store = Store(env)
    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [(8.0, "late")]


def test_store_serves_waiting_getters_in_arrival_order():
    env = Environment()
    got = []

    def consumer(env, store, name):
        item = yield store.get()
        got.append((name, item))

    store = Store(env)
    for name in ("first", "second", "third"):
        env.process(consumer(env, store, name))
    env.run()  # all three now wait on an empty store

    def producer(env, store):
        yield env.timeout(1.0)
        for item in ("a", "b"):
            yield store.put(item)

    env.process(producer(env, store))
    env.run()
    assert got == [("first", "a"), ("second", "b")]
    assert len(store) == 0
    assert len(store._getters) == 1  # "third" still waits
