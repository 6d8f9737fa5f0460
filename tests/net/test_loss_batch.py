"""Scalar/batch equivalence: the ``draw_batch`` contract.

For every loss model, ``draw_batch(n)`` must return exactly the booleans
``n`` scalar ``is_lost()`` calls would, and leave the model in exactly
the state those calls would — rng sequence, chain state, trace position
— so scalar and batched consumers of one seeded model can be mixed
freely.  These tests pin that with same-seed clone pairs driven through
random batch sizes and interleaved scalar/batch calls.
"""

import random

import pytest

from repro.net import (
    BernoulliLoss,
    CombinedLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    TotalLoss,
    TraceLoss,
    rng_sources,
)


def _combined_disjoint():
    return CombinedLoss(
        [
            BernoulliLoss(0.2, rng=random.Random(11)),
            GilbertElliottLoss(
                p_gb=0.15, p_bg=0.4, bad_loss=0.9, good_loss=0.05,
                rng=random.Random(12),
            ),
            DeterministicLoss(period=5, offset=1),
        ]
    )


def _combined_shared_rng():
    # Both components draw from ONE rng: the column-major batch would
    # reorder draws, so draw_batch must take the scalar-interleave path.
    shared = random.Random(13)
    return CombinedLoss(
        [BernoulliLoss(0.3, rng=shared), BernoulliLoss(0.6, rng=shared)]
    )


#: name -> zero-arg factory producing a freshly seeded instance; calling
#: a factory twice yields independent same-seed clones.
MODEL_FACTORIES = {
    "no_loss": lambda: NoLoss(),
    "total_loss": lambda: TotalLoss(),
    "bernoulli": lambda: BernoulliLoss(0.35, rng=random.Random(7)),
    "bernoulli_zero": lambda: BernoulliLoss(0.0, rng=random.Random(8)),
    "bernoulli_one": lambda: BernoulliLoss(1.0, rng=random.Random(9)),
    "gilbert_elliott": lambda: GilbertElliottLoss(
        p_gb=0.1, p_bg=0.3, bad_loss=0.95, good_loss=0.02,
        rng=random.Random(10),
    ),
    "deterministic": lambda: DeterministicLoss(period=4, offset=2),
    "trace": lambda: TraceLoss([True, False, False, True, False]),
    "combined": _combined_disjoint,
    "combined_shared_rng": _combined_shared_rng,
}

ALL_MODELS = sorted(MODEL_FACTORIES)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_batch_matches_scalar_for_random_sizes(name):
    scalar = MODEL_FACTORIES[name]()
    batched = MODEL_FACTORIES[name]()
    sizes = random.Random(101).choices(range(0, 23), k=30)
    for n in sizes:
        expected = [scalar.is_lost() for _ in range(n)]
        assert batched.draw_batch(n) == expected, f"{name} n={n}"
    # Post-call state is identical too: more scalar draws agree.
    tail = [scalar.is_lost() for _ in range(50)]
    assert [batched.is_lost() for _ in range(50)] == tail


@pytest.mark.parametrize("name", ALL_MODELS)
def test_interleaved_scalar_and_batch_calls(name):
    scalar = MODEL_FACTORIES[name]()
    mixed = MODEL_FACTORIES[name]()
    plan = random.Random(202).choices(["scalar", "batch"], k=40)
    sizes = random.Random(303).choices(range(1, 9), k=40)
    for op, n in zip(plan, sizes):
        expected = [scalar.is_lost() for _ in range(n)]
        if op == "scalar":
            got = [mixed.is_lost() for _ in range(n)]
        else:
            got = mixed.draw_batch(n)
        assert got == expected, f"{name} {op} n={n}"


@pytest.mark.parametrize("name", ALL_MODELS)
def test_empty_batch_is_a_noop(name):
    model = MODEL_FACTORIES[name]()
    reference = MODEL_FACTORIES[name]()
    assert model.draw_batch(0) == []
    assert model.draw_batch(12) == reference.draw_batch(12)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_negative_batch_size_rejected(name):
    with pytest.raises(ValueError, match="non-negative"):
        MODEL_FACTORIES[name]().draw_batch(-1)


def test_degenerate_bernoulli_batches_consume_no_randomness():
    for rate in (0.0, 1.0):
        rng = random.Random(5)
        model = BernoulliLoss(rate, rng=rng)
        before = rng.getstate()
        model.draw_batch(100)
        assert rng.getstate() == before


def test_trace_batch_wraps_like_scalar_replay():
    pattern = [True, False, True]
    model = TraceLoss(pattern)
    assert model.draw_batch(8) == [
        True, False, True, True, False, True, True, False,
    ]
    # Position advanced mod len(trace): the next draw continues the cycle.
    assert model.is_lost() is True


def test_base_class_batch_uses_scalar_loop():
    class EveryThird(LossModel):
        def __init__(self):
            self.count = 0

        def is_lost(self):
            self.count += 1
            return self.count % 3 == 0

    model = EveryThird()
    assert model.draw_batch(7) == [
        False, False, True, False, False, True, False,
    ]
    assert model.count == 7


def test_rng_sources_finds_nested_rngs():
    inner = random.Random(1)
    outer = random.Random(2)
    combined = CombinedLoss(
        [
            BernoulliLoss(0.5, rng=inner),
            CombinedLoss([GilbertElliottLoss(0.1, 0.2, rng=outer)]),
            NoLoss(),
        ]
    )
    assert {id(rng) for rng in rng_sources(combined)} == {
        id(inner), id(outer),
    }
    assert list(rng_sources(NoLoss())) == []
