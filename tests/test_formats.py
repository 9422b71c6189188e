import json
from fractions import Fraction

import pytest

from chaintop import (
    ChainTopError,
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
    separate_from_lower,
    topology_equal,
)
from chaintop.formats import (
    dump_poset,
    dump_separating,
    dump_topology,
    format_interval_set,
    load_poset,
    load_topology,
    parse_interval,
    parse_interval_set,
    separating_from_dict,
    separating_to_dict,
    topology_to_dict,
)


def test_poset_roundtrip_is_identity_on_canonical_forms():
    text = dump_poset(chain_poset(3))
    P, labels = load_poset(text)
    assert dump_poset(P, labels) == text


def test_poset_labels_survive():
    P, labels = load_poset('{"n":2,"mode":"hasse","pairs":[[0,1]],"labels":["lo","hi"]}')
    assert labels == ["lo", "hi"]
    assert json.loads(dump_poset(P, labels))["labels"] == ["lo", "hi"]


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
    reloaded = load_topology(dump_topology(T))
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


def test_separating_function_roundtrip():
    rat = make_chain("rat01")
    A = IntervalSet(rat, (below(Fraction(1, 2)),))
    f = separate_from_lower(rat, A, Fraction(3, 4))
    data = json.loads(dump_separating(f))
    assert data == {"lo": "1/2", "hi": "3/4", "complemented": False}
    g = separating_from_dict(rat, data)
    assert (g.lo, g.hi, g.complemented) == (f.lo, f.hi, f.complemented)
    for q in rat.sample(3, 50):
        assert f(q) == g(q)
    sp = make_chain("split")
    h = separate_from_lower(sp, IntervalSet(sp, (below((Fraction(1, 2), 0)),)), (Fraction(1), 0))
    assert separating_to_dict(h) == {"lo": "1/2:0", "hi": "1/2:1", "complemented": False}
    assert separating_from_dict(sp, separating_to_dict(h)) == h
    empty = separate_from_lower(rat, IntervalSet(rat, ()), Fraction(0))
    assert separating_to_dict(empty) == {"lo": None, "hi": None, "complemented": False}


def test_separating_schema_errors():
    rat = make_chain("rat01")
    old = {
        "cuts": [{"side": "below-or-equal", "threshold": "1/2", "value": "0"}],
        "default": "1",
        "depth": 10,
        "complemented": False,
        "certificates": [],
    }
    with pytest.raises(SchemaError):
        separating_from_dict(rat, old)
    with pytest.raises(SchemaError):
        separating_from_dict(rat, [])
    with pytest.raises(ChainTopError):
        separating_from_dict(rat, {"lo": "3/4", "hi": "1/4"})


@pytest.mark.parametrize(
    "doc",
    [
        {"cuts": []},
        {"lo": "1/2"},
        {"hi": "3/4"},
        {"lo": None, "hi": "3/4"},
        {"lo": "1/2", "hi": None},
        {"lo": 5, "hi": "3/4"},
        {"lo": "zebra", "hi": "3/4"},
        {"lo": "1/2", "hi": "3/2"},
        {"lo": "1/2", "hi": "1/0"},
        {"lo": "1/2", "hi": "3/4", "complemented": "no"},
        {"lo": None, "hi": None, "complemented": None},
    ],
)
def test_separating_malformed_fields_raise_schema_errors(doc):
    with pytest.raises(SchemaError):
        separating_from_dict(make_chain("rat01"), doc)


def test_separating_fields_are_read():
    rat = make_chain("rat01")
    f = separating_from_dict(rat, {"lo": "1/2", "hi": "3/4", "complemented": True})
    assert (f.lo, f.hi, f.complemented) == (Fraction(1, 2), Fraction(3, 4), True)
    assert f(Fraction(5, 8)) == Fraction(1, 2) and f(Fraction(1)) == 0
    g = separating_from_dict(rat, {"lo": None, "hi": None})
    assert g.lo is None and g.hi is None and g.complemented is False
    assert g(Fraction(0)) == 1
