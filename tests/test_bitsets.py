import random

from chaintop.bitsets import elements


def _shift_walk(mask):
    """The reference walk: shift through every position up to the highest
    set bit."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def test_elements_matches_the_shift_walk_on_every_small_mask():
    for mask in range(1 << 14):
        assert elements(mask) == _shift_walk(mask), mask


def test_elements_matches_the_shift_walk_on_wide_masks():
    rng = random.Random("bitsets:200")
    for i in range(2000):
        mask = rng.getrandbits(200)
        if i % 2:
            # sparse: about one bit in eight set
            mask &= rng.getrandbits(200) & rng.getrandbits(200)
        assert elements(mask) == _shift_walk(mask), mask
