"""JSON file formats and CLI literal syntax.

Poset files: {"n": int, "mode": "hasse"|"full", "pairs": [[x,y],...],
"labels": optional [str]}.  Topology dumps: {"n": int, "opens":
[[indices]...]} with opens sorted by (size, lexicographic).  Interval
literals: "(a,b)", "[a,b]", "(-inf,b]", "[a,+inf)", comma-separated.
Parsing is strict: malformed JSON raises ParseError with a position,
bad fields raise SchemaError with the field path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .chains import ChainHandle
from .errors import MalformedElement, ParseError, SchemaError
from .intervals import NEG_INF, POS_INF, Interval, IntervalSet
from .poset import FinitePoset, build_poset
from .separating import Cut, JumpCertificate, SeparatingFunction
from .topology import Topology
from .bitsets import elements, mask_of


def loads_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, position=exc.pos) from exc


def _require(obj: dict, key: str, types, path: str):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}", path=path or key)
    value = obj[key]
    if not isinstance(value, types):
        raise SchemaError(
            f"field {key!r} has type {type(value).__name__}", path=f"{path}{key}"
        )
    return value


def poset_from_dict(data: dict) -> tuple[FinitePoset, Optional[list[str]]]:
    if not isinstance(data, dict):
        raise SchemaError("poset document must be an object")
    n = _require(data, "n", int, "")
    mode = data.get("mode", "hasse")
    if mode not in ("hasse", "full"):
        raise SchemaError(f"mode must be 'hasse' or 'full', got {mode!r}", path="mode")
    raw_pairs = _require(data, "pairs", list, "")
    pairs = []
    for i, item in enumerate(raw_pairs):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise SchemaError("each pair must be a [x, y] index pair", path=f"pairs[{i}]")
        pairs.append((item[0], item[1]))
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n or not all(
            isinstance(s, str) for s in labels
        ):
            raise SchemaError("labels must be a list of n strings", path="labels")
    return build_poset(n, pairs, mode), labels


def poset_to_dict(P: FinitePoset, labels: Optional[list[str]] = None) -> dict:
    pairs = [[x, y] for x in range(P.n) for y in range(P.n) if x != y and P.leq(x, y)]
    out = {"n": P.n, "mode": "full", "pairs": pairs}
    if labels is not None:
        out["labels"] = list(labels)
    return out


def load_poset(text: str) -> tuple[FinitePoset, Optional[list[str]]]:
    return poset_from_dict(loads_json(text))


def dump_poset(P: FinitePoset, labels: Optional[list[str]] = None) -> str:
    return json.dumps(poset_to_dict(P, labels), sort_keys=True)


def topology_from_dict(data: dict) -> Topology:
    if not isinstance(data, dict):
        raise SchemaError("topology document must be an object")
    n = _require(data, "n", int, "")
    if n < 0:
        raise SchemaError("the carrier size must be nonnegative", path="n")
    opens_raw = _require(data, "opens", list, "")
    masks = set()
    for i, member in enumerate(opens_raw):
        if not isinstance(member, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n for v in member
        ):
            raise SchemaError("each open must be a list of carrier indices", path=f"opens[{i}]")
        masks.add(mask_of(member))
    return Topology.from_opens(n, masks)


def topology_to_dict(T: Topology) -> dict:
    return {"n": T.n, "opens": [list(elements(m)) for m in T.sorted_opens]}


def load_topology(text: str) -> Topology:
    return topology_from_dict(loads_json(text))


def dump_topology(T: Topology) -> str:
    return json.dumps(topology_to_dict(T), sort_keys=True)


_INTERVAL_TOKEN = re.compile(r"[\[(][^][()]*[\])]")


def parse_interval(chain: ChainHandle, text: str) -> Interval:
    text = text.strip()
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]":
        raise ParseError(f"bad interval literal {text!r}")
    lower_open = text[0] == "("
    upper_open = text[-1] == ")"
    body = text[1:-1]
    if body.count(",") != 1:
        raise ParseError(f"interval literal {text!r} needs exactly one comma")
    lo_text, hi_text = (part.strip() for part in body.split(","))
    if lo_text == "-inf":
        lower = NEG_INF
        lower_open = True
    else:
        lower = chain.parse(lo_text)
    if hi_text in ("+inf", "inf"):
        upper = POS_INF
        upper_open = True
    else:
        upper = chain.parse(hi_text)
    return Interval(lower, lower_open, upper, upper_open)


def parse_interval_set(chain: ChainHandle, text: str) -> IntervalSet:
    text = text.strip()
    if not text:
        return IntervalSet(chain, ())
    tokens = _INTERVAL_TOKEN.findall(text)
    leftover = _INTERVAL_TOKEN.sub("", text).replace(",", "").strip()
    if not tokens or leftover:
        raise ParseError(f"bad interval list {text!r}")
    return IntervalSet(chain, tuple(parse_interval(chain, tok) for tok in tokens))


def format_interval(chain: ChainHandle, iv: Interval) -> str:
    left = "(" if iv.lower_open else "["
    right = ")" if iv.upper_open else "]"
    lo = "-inf" if iv.lower is NEG_INF else chain.format(iv.lower)
    hi = "+inf" if iv.upper is POS_INF else chain.format(iv.upper)
    return f"{left}{lo},{hi}{right}"


def format_interval_set(IS: IntervalSet) -> str:
    return ",".join(format_interval(IS.chain, iv) for iv in IS.intervals)


def separating_to_dict(f: SeparatingFunction) -> dict:
    return {
        "cuts": [
            {
                "threshold": f.chain.format(cut.threshold),
                "side": cut.side,
                "value": str(cut.value),
            }
            for cut in f.cuts
        ],
        "default": str(f.default),
        "depth": f.depth,
        "complemented": f.complemented,
        "certificates": [
            {
                "kind": c.kind,
                "lo": f.chain.format(c.lo),
                "hi": f.chain.format(c.hi),
                "lo_value": str(c.lo_value),
                "hi_value": str(c.hi_value),
                "witness": None if c.witness is None else f.chain.format(c.witness),
            }
            for c in f.certificates
        ],
    }


def _optional(obj: dict, key: str, types, default, path: str = ""):
    return _require(obj, key, types, path) if key in obj else default


def _parsed(parse, text: str, path: str):
    """A chain element or a fraction read from a string field."""
    try:
        return parse(text)
    except (MalformedElement, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(str(exc), path=path) from exc


def separating_from_dict(chain: ChainHandle, data: dict) -> SeparatingFunction:
    if not isinstance(data, dict):
        raise SchemaError("separating function document must be an object")
    cuts_raw = _require(data, "cuts", list, "")
    cuts = []
    for i, c in enumerate(cuts_raw):
        path = f"cuts[{i}]"
        if not isinstance(c, dict):
            raise SchemaError("each cut must be an object", path=path)
        side = _require(c, "side", str, f"{path}.")
        if side not in ("below-or-equal", "strictly-below"):
            raise SchemaError(f"unknown cut side {side!r}", path=f"{path}.side")
        threshold = _parsed(chain.parse, _require(c, "threshold", str, f"{path}."), path)
        value = _parsed(Fraction, _require(c, "value", str, f"{path}."), path)
        cuts.append(Cut(threshold, side, value))
    default = _parsed(Fraction, _optional(data, "default", str, "1"), "default")
    depth = data.get("depth", 10)
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise SchemaError(f"field 'depth' has type {type(depth).__name__}", path="depth")
    complemented = _optional(data, "complemented", bool, False)
    certs = []
    for i, c in enumerate(_optional(data, "certificates", list, [])):
        path = f"certificates[{i}]"
        if not isinstance(c, dict):
            raise SchemaError("each certificate must be an object", path=path)
        witness = _optional(c, "witness", (str, type(None)), None, f"{path}.")
        certs.append(
            JumpCertificate(
                kind=_require(c, "kind", str, f"{path}."),
                lo=_parsed(chain.parse, _require(c, "lo", str, f"{path}."), path),
                hi=_parsed(chain.parse, _require(c, "hi", str, f"{path}."), path),
                lo_value=_parsed(Fraction, _require(c, "lo_value", str, f"{path}."), path),
                hi_value=_parsed(Fraction, _require(c, "hi_value", str, f"{path}."), path),
                witness=None if witness is None else _parsed(chain.parse, witness, path),
            )
        )
    return SeparatingFunction(
        chain, tuple(cuts), default=default, depth=depth,
        certificates=tuple(certs), complemented=complemented,
    )


def dump_separating(f: SeparatingFunction) -> str:
    return json.dumps(separating_to_dict(f), sort_keys=True)
