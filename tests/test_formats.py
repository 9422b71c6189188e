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
    f = separate_from_lower(rat, A, Fraction(3, 4), depth=4)
    data = json.loads(dump_separating(f))
    g = separating_from_dict(rat, data)
    for q in rat.sample(3, 50):
        assert f(q) == g(q)
    assert g.certificates == f.certificates


def test_separating_schema_errors():
    rat = make_chain("rat01")
    with pytest.raises(SchemaError):
        separating_from_dict(rat, {"cuts": [{"side": "sideways", "threshold": "0", "value": "0"}]})
    with pytest.raises(SchemaError):
        separating_from_dict(rat, {"cuts": [{"side": "strictly-below", "threshold": "zebra", "value": "0"}]})
    for depth in ("10", 2.5, True, None):
        with pytest.raises(SchemaError):
            separating_from_dict(rat, {"cuts": [], "depth": depth})
    out_of_order = [
        {"side": "below-or-equal", "threshold": "3/4", "value": "0"},
        {"side": "below-or-equal", "threshold": "1/4", "value": "1/2"},
    ]
    with pytest.raises(ChainTopError):
        separating_from_dict(rat, {"cuts": out_of_order})


_CERT = {"kind": "gap", "lo": "1/2", "hi": "3/4", "lo_value": "0", "hi_value": "1"}


@pytest.mark.parametrize(
    "doc",
    [
        {"cuts": [], "certificates": [1]},
        {"cuts": [], "certificates": {}},
        {"cuts": [], "default": "x"},
        {"cuts": [], "default": "1/0"},
        {"cuts": [], "complemented": "no"},
        {"cuts": [], "certificates": [{**_CERT, "lo_value": "x"}]},
        {"cuts": [], "certificates": [{**_CERT, "hi_value": "1/0"}]},
        {"cuts": [], "certificates": [{**_CERT, "lo": "zebra"}]},
        {"cuts": [], "certificates": [{**_CERT, "witness": 5}]},
    ],
)
def test_separating_malformed_fields_raise_schema_errors(doc):
    with pytest.raises(SchemaError):
        separating_from_dict(make_chain("rat01"), doc)


def test_separating_certificate_fields_are_read():
    f = separating_from_dict(make_chain("rat01"), {"cuts": [], "certificates": [{**_CERT, "witness": "5/8"}]})
    assert f.certificates[0].witness == Fraction(5, 8)
    assert f.default == 1 and f.complemented is False
