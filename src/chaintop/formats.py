"""JSON file formats and CLI literal syntax.

Poset files: {"n": int, "mode": "hasse"|"full", "pairs": [[x,y],...],
"labels": optional [str]}.  Topology documents: {"n": int, "opens":
[[indices]...]} with opens sorted by (size, lexicographic).  Both are
read and written.  Separating functions are only written: {"lo":
element or null, "hi": element or null, "complemented": bool}, elements
in the chain's literal syntax.  The writers return dicts; the CLI turns
them into JSON text.  Interval literals: "(a,b)", "[a,b]", "(-inf,b]",
"[a,+inf)", comma-separated.  Parsing is strict: malformed JSON raises
ParseError with a position, bad fields raise SchemaError with the field
path.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from .chains import ChainHandle
from .errors import ParseError, SchemaError
from .intervals import NEG_INF, POS_INF, Interval, IntervalSet
from .poset import FinitePoset, build_poset
from .separating import SeparatingFunction
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
        "lo": None if f.lo is None else f.chain.format(f.lo),
        "hi": None if f.hi is None else f.chain.format(f.hi),
        "complemented": f.complemented,
    }

