"""Differential tests: each closed form the library computes on finite
posets against the brute-force definition it stands for, kept in
`chaintop.definitions`, on every poset of up to 4 points, 100 random
posets of up to 8 points and the chains of up to 12 points."""

import functools

import pytest

from chaintop import (
    canonical_topology,
    chain_poset,
    classify,
    join_topologies,
    maximal_chains,
    way_below,
    way_below_report,
    way_way_below,
    way_way_below_row,
)
from chaintop import definitions
from chaintop.poset import conditional_completeness_failure
from chaintop.relations import distributivity_failure

from test_topology_oracle import all_posets, random_posets

POSETS = (
    [P for n in range(5) for P in all_posets(n)]
    + random_posets(100, 8, seed=31)
    + [chain_poset(n) for n in range(1, 13)]
)


def test_the_poset_families_have_their_sizes():
    # 1, 1, 3, 19 and 219 labelled posets on 0..4 points
    assert len(POSETS) == 243 + 100 + 12


@functools.cache
def way_way_below_table(P):
    """x ⋘ y for every pair, from the definition."""
    return tuple(
        tuple(definitions.way_way_below(P, x, y) for y in range(P.n)) for x in range(P.n)
    )


def test_way_below_is_the_definition():
    for P in POSETS:
        for x in range(P.n):
            for y in range(P.n):
                assert way_below(P, x, y) == definitions.way_below(P, x, y), (P.up, x, y)


def test_way_below_report_is_the_definition():
    for P in POSETS:
        rep = way_below_report(P)
        ll = tuple(
            sum(definitions.way_below(P, x, y) << y for y in range(P.n)) for x in range(P.n)
        )
        compact = sum(definitions.way_below(P, x, x) << x for x in range(P.n))
        assert (rep.ll, rep.compact_mask) == (ll, compact), P.up


def test_way_way_below_rows_are_the_definition():
    for P in POSETS:
        table = way_way_below_table(P)
        for x in range(P.n):
            row = way_way_below_row(P, x)
            for y in range(P.n):
                assert bool(row >> y & 1) == table[x][y], (P.up, x, y)
                assert way_way_below(P, x, y) == table[x][y], (P.up, x, y)


def test_distributivity_failure_is_the_definition():
    for P in POSETS:
        table = way_way_below_table(P)
        fails = [
            x
            for x in range(P.n)
            if P.sup_mask(sum(table[y][x] << y for y in range(P.n))) != x
        ]
        assert distributivity_failure(P) == (fails[0] if fails else None), P.up


def test_maximal_chains_are_the_definition():
    for P in POSETS:
        assert maximal_chains(P) == definitions.maximal_chains(P), P.up


def scott_based_by_definition(P, name):
    scott = definitions.scott_topology(P)
    dual_scott = definitions.scott_topology(P.dual)
    if name == "scott":
        return scott
    if name == "dual_scott":
        return dual_scott
    if name == "lawson":
        return join_topologies(scott, canonical_topology(P, "lower"))
    if name == "dual_lawson":
        return join_topologies(dual_scott, canonical_topology(P, "upper"))
    return join_topologies(scott, dual_scott)


@pytest.mark.parametrize("name", ["scott", "dual_scott", "lawson", "dual_lawson", "bi_scott"])
def test_scott_based_names_are_the_definition(name):
    for P in POSETS:
        assert canonical_topology(P, name) == scott_based_by_definition(P, name), P.up


def test_every_finite_poset_is_continuous_by_definition():
    for P in POSETS:
        assert definitions.is_continuous_poset(P), P.up


def test_hyper_prec_is_the_definition():
    # on a finite poset hyper-way-below is the order
    for P in POSETS:
        for x in range(P.n):
            for y in range(P.n):
                assert definitions.hyper_prec(P, y, x) == P.leq(y, x), (P.up, x, y)


def test_every_finite_poset_is_hypercontinuous_by_definition():
    for P in POSETS:
        assert definitions.is_hypercontinuous(P) is True, P.up


def test_xu_condition_is_the_definition():
    for P in POSETS:
        assert definitions.xu_condition(P) is True, P.up


def test_conditional_completeness_failure_is_the_definition():
    # the pair witness is also the first failing subset on these posets
    for P in POSETS:
        mask = conditional_completeness_failure(P)
        assert mask == definitions.conditional_completeness_failure(P), P.up
        assert classify(P).conditionally_complete == (mask is None), P.up
