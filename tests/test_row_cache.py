"""`encoders.RowCache`, the bounded LRU table behind every inference cache, against a model.

The model is a dict from key to table row plus a list of keys, least recently used
first. A call with more distinct keys than the capacity gets None and changes
nothing; otherwise its hits move to the recent end in first-seen order, and each
missed key, in first-seen order, takes the next unused row or, once the table is
full, the row of the least recently used key. A version bump of any parameter empties
the cache at its next call.
"""

import zlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitkit.encoders import RowCache
from hitkit.optim import Parameter

WIDTH = 3


def row(key, generation: int) -> np.ndarray:
    """A key's row under the parameters' `generation`-th versions: a stale row would show."""
    return np.random.default_rng([zlib.crc32(repr(key).encode()), generation]).standard_normal(WIDTH)


class Model:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slot = {}
        self.lru = []  # least recently used first
        self.used = 0  # rows of the table ever filled

    def call(self, keys):
        """(each key's row, the missed keys in first-seen order), or (None, []) if they cannot fit."""
        distinct = list(dict.fromkeys(keys))
        if len(distinct) > self.capacity:
            return None, []
        missed = [k for k in distinct if k not in self.slot]
        for k in distinct:
            if k in self.slot:
                self.lru.remove(k)
                self.lru.append(k)
        for k in missed:
            if len(self.lru) == self.capacity:
                self.slot[k] = self.slot.pop(self.lru.pop(0))
            else:
                self.slot[k] = len(self.lru)
            self.lru.append(k)
            self.used = max(self.used, self.slot[k] + 1)
        return [self.slot[k] for k in keys], missed

    def bump(self):
        self.slot, self.lru = {}, []


KEYS = st.one_of(st.integers(0, 15), st.sampled_from(["a", "b", (1, 2), (3,)]))
OPS = st.lists(st.one_of(st.lists(KEYS, max_size=10).map(lambda keys: ("call", keys)),
                         st.integers(0, 1).map(lambda i: ("bump", i))), max_size=30)


def calls(*key_lists):
    return [("call", list(keys)) for keys in key_lists]


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), ops=OPS)
# a memo of 4 words: six fill it and evict the first two; a hit makes word 2 the most
# recently used, so word 6 evicts word 3; then 0 and 3 refill, and ten words do not fit
@example(capacity=4, ops=calls(*[[k] for k in range(6)], [2], [6], [0, 3], range(10)))
# a char layer's cache of 6 blocks (chars 5-10, positions 12-15): a call past the cap
# reads and fills nothing; the next call's hit on position 12 moves it past char 5, so
# char 6 takes char 5's row
@example(capacity=6, ops=calls([5, 7, 5, 9, 7, 12, 13, 14, 12, 13],
                               [5, 6, 7, 8, 9, 10, 12, 13, 14, 15], [6, 12]))
# a bump between calls empties the cache, and the next rows come under the new version
@example(capacity=3, ops=calls([0, 1, 2]) + [("bump", 1)] + calls([1, 2], [0, 1, 2]))
def test_row_cache_matches_a_dict_and_lru_list(capacity, ops):
    params = [Parameter("p0", np.zeros(2)), Parameter("p1", np.zeros(2))]
    cache, model, generation = RowCache(params, capacity), Model(capacity), 0
    for op, arg in ops:
        if op == "bump":
            params[arg].assign(params[arg].data)
            model.bump()
            generation += 1
            continue
        computed = []

        def compute(missed):
            computed.append(list(missed))
            return np.stack([row(k, generation) for k in missed])

        got = cache.slots(arg, compute)
        want, missed = model.call(arg)
        assert computed == ([missed] if missed else [])
        if want is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == want
        assert len(cache) == len(model.lru) <= capacity
        assert list(cache.index) == model.lru and dict(cache.index) == model.slot
        if cache.table is None:
            assert model.used == 0
            continue
        assert cache.table.shape == (capacity, WIDTH)
        for k, slot in model.slot.items():
            assert np.array_equal(cache.table[slot], row(k, generation))
        assert not cache.table[model.used:].any()  # zeroed rows past those ever filled
