import json
from fractions import Fraction

import pytest

from chaintop import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    ParseError,
    SchemaError,
    below,
    canonical_topology,
    chain_poset,
    make_chain,
    SeparatingFunction,
    separate_from_lower,
    topology_equal,
)
from chaintop.formats import (
    format_interval_set,
    load_poset,
    load_topology,
    parse_interval,
    parse_interval_set,
    poset_to_dict,
    separating_to_dict,
    topology_to_dict,
)


def test_poset_roundtrip_is_identity_on_canonical_forms():
    text = json.dumps(poset_to_dict(chain_poset(3)))
    P, labels = load_poset(text)
    assert json.dumps(poset_to_dict(P, labels)) == text


def test_poset_labels_survive():
    P, labels = load_poset('{"n":2,"mode":"hasse","pairs":[[0,1]],"labels":["lo","hi"]}')
    assert labels == ["lo", "hi"]
    assert poset_to_dict(P, labels)["labels"] == ["lo", "hi"]


def test_poset_parse_errors():
    with pytest.raises(ParseError) as exc:
        load_poset("{nope")
    assert exc.value.position is not None
    with pytest.raises(SchemaError) as exc:
        load_poset('{"n":2,"pairs":[[0]]}')
    assert "pairs[0]" in str(exc.value)
    with pytest.raises(SchemaError):
        load_poset('{"pairs":[]}')
    with pytest.raises(SchemaError):
        load_poset('{"n":2,"mode":"weird","pairs":[]}')
    with pytest.raises(SchemaError):
        load_poset('{"n":2,"pairs":[],"labels":["only-one"]}')


def test_topology_roundtrip():
    T = canonical_topology(chain_poset(3), "upper")
    reloaded = load_topology(json.dumps(topology_to_dict(T)))
    assert topology_equal(T, reloaded)
    dumped = topology_to_dict(T)
    assert dumped["opens"] == [[], [2], [1, 2], [0, 1, 2]]


def test_topology_schema_errors():
    with pytest.raises(SchemaError):
        load_topology('{"n":2,"opens":[[0,5]]}')
    with pytest.raises(SchemaError):
        load_topology('{"opens":[]}')
    with pytest.raises(SchemaError):
        load_topology('{"n":-1,"opens":[[]]}')


def test_interval_literals():
    ic = make_chain("int")
    assert parse_interval(ic, "[1,3]") == Interval(1, False, 3, False)
    assert parse_interval(ic, "(1,3]") == Interval(1, True, 3, False)
    assert parse_interval(ic, "(-inf,4]") == Interval(NEG_INF, True, 4, False)
    assert parse_interval(ic, "[2,+inf)") == Interval(2, False, POS_INF, True)
    rat = make_chain("rat01")
    assert parse_interval(rat, "(1/4,1/2)") == Interval(
        Fraction(1, 4), True, Fraction(1, 2), True
    )


def test_interval_list_roundtrip():
    ic = make_chain("int")
    IS = parse_interval_set(ic, "[1,3],[5,6]")
    assert format_interval_set(IS) == "[1,3],[5,6]"
    sp = make_chain("split")
    IS = parse_interval_set(sp, "(-inf,1/2:0],[1/2:1,+inf)")
    assert format_interval_set(IS) == "(-inf,1/2:0],[1/2:1,+inf)"
    assert parse_interval_set(ic, "").intervals == ()


def test_interval_literal_errors():
    ic = make_chain("int")
    for bad in ("1,3", "[1,3", "[1;3]", "[1,2,3]", "[1,3] junk"):
        with pytest.raises(ParseError):
            parse_interval_set(ic, bad) if "," in bad else parse_interval(ic, bad)


def read_separating(chain, data):
    """The one-line reader for a written separating function."""
    parse = lambda text: None if text is None else chain.parse(text)
    return SeparatingFunction(chain, parse(data["lo"]), parse(data["hi"]), data["complemented"])


def test_separating_function_roundtrip():
    rat = make_chain("rat01")
    A = IntervalSet(rat, (below(Fraction(1, 2)),))
    f = separate_from_lower(rat, A, Fraction(3, 4))
    data = json.loads(json.dumps(separating_to_dict(f)))
    assert data == {"lo": "1/2", "hi": "3/4", "complemented": False}
    g = read_separating(rat, data)
    assert (g.lo, g.hi, g.complemented) == (f.lo, f.hi, f.complemented)
    for q in rat.sample(3, 50):
        assert f(q) == g(q)
    sp = make_chain("split")
    h = separate_from_lower(sp, IntervalSet(sp, (below((Fraction(1, 2), 0)),)), (Fraction(1), 0))
    assert separating_to_dict(h) == {"lo": "1/2:0", "hi": "1/2:1", "complemented": False}
    assert read_separating(sp, separating_to_dict(h)) == h
    empty = separate_from_lower(rat, IntervalSet(rat, ()), Fraction(0))
    assert separating_to_dict(empty) == {"lo": None, "hi": None, "complemented": False}
