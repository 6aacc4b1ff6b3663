"""A search candidate is its own tie-break key, and comparing keys allocates nothing.

``engine`` holds a candidate as ``(-value, length, ids, amounts)``, -1
standing for a step that takes no amount; the smaller key is the better
candidate. The property below checks that order against a copy of the
pairwise rule the searches used before (value desc, then length asc, id
list asc, amounts asc with None first), on generated pairs with equal
values, different lengths, shared id prefixes and steps with and without
amounts.
"""

import gc
import itertools
import sys
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from xdmev.engine import _merge, _prepend

Steps = tuple[tuple[str, Optional[int]], ...]


def reference_better(a: tuple[int, Steps], b: tuple[int, Steps]) -> bool:
    """Whether (value, steps) ``a`` strictly beats ``b``: the rule as it stood
    before candidates carried their key."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if len(a[1]) != len(b[1]):
        return len(a[1]) < len(b[1])
    ids_a = tuple(step[0] for step in a[1])
    ids_b = tuple(step[0] for step in b[1])
    if ids_a != ids_b:
        return ids_a < ids_b
    amounts_a = tuple(-1 if step[1] is None else step[1] for step in a[1])
    amounts_b = tuple(-1 if step[1] is None else step[1] for step in b[1])
    return amounts_a < amounts_b


def key(value: int, steps: Steps):
    """The engine's candidate for ``steps`` at ``value``, built as the
    searches build it: one step prepended at a time onto the empty sequence."""
    candidate = (-value, 0, (), ())
    for action_id, units in reversed(steps):
        candidate = _prepend(-value, action_id, -1 if units is None else units, candidate)
    return candidate


values = st.integers(-3, 3) | st.integers(-(10**30), 10**30)
step = st.tuples(st.sampled_from("abcd"), st.none() | st.integers(0, 3) | st.integers(0, 10**24))
steps = st.lists(step, max_size=5).map(tuple)


@st.composite
def pairs(draw):
    """Two (value, steps): often of equal value, the second often sharing a
    prefix of the first's steps, with its amounts sometimes redrawn."""
    value_a, steps_a = draw(values), draw(steps)
    value_b = value_a if draw(st.booleans()) else draw(values)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(steps_a)))
        tail = steps_a[cut:] if draw(st.booleans()) else draw(steps)
        steps_b = steps_a[:cut] + tuple(
            (action_id, draw(st.none() | st.integers(0, 3))) if draw(st.booleans())
            else (action_id, units)
            for action_id, units in tail
        )
    else:
        steps_b = draw(steps)
    return (value_a, steps_a), (value_b, steps_b)


@settings(max_examples=2000, deadline=None)
@given(pairs())
def test_key_order_is_the_tie_break(pair):
    a, b = pair
    key_a, key_b = key(*a), key(*b)
    assert (key_a < key_b) == reference_better(a, b)
    assert (key_b < key_a) == reference_better(b, a)
    assert _merge(key_a, key_b) is (key_b if reference_better(b, a) else key_a)
    assert _merge(None, key_b) is key_b and _merge(key_a, None) is key_a


def test_comparing_and_merging_allocates_nothing():
    # two candidates equal in all but their last amount, each part a fresh
    # object, so every comparison walks both keys to the end
    steps = (("buy", 10**21), ("tip", None), ("sell", 7 * 10**20))
    a = key(10**25, steps)
    b = key(10**25, steps[:-1] + (("sell", 7 * 10**20 + 1),))
    assert a < b and _merge(a, b) is a and _merge(b, a) is a
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def compare():
        for _ in itertools.repeat(None, 10_000):
            a < b
            _merge(a, b)
            _merge(b, a)

    def idle():
        for _ in itertools.repeat(None, 10_000):
            pass

    def blocks_added(loop) -> int:
        # the int holding ``before`` is itself a block, in both loops alike
        before = sys.getallocatedblocks()
        loop()
        return sys.getallocatedblocks() - before

    compare(), idle()  # settle what a first call sets up
    assert blocks_added(compare) == blocks_added(idle)
    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    # at threshold 1 any tracked object allocated in the loop (a generator,
    # a tuple) starts a collection
    gc.set_threshold(1)
    try:
        compare()
        collections.clear()
        compare()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert collections == []
