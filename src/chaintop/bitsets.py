"""Subsets of {0..n-1} as int bitmasks; the kernels live on these."""

from __future__ import annotations

from typing import Iterable


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def elements(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending; the walk visits only those."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def as_set(mask: int) -> frozenset[int]:
    return frozenset(elements(mask))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def size(mask: int) -> int:
    return mask.bit_count()
