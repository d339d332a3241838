"""Serialization: the graph file format and the element wire format.

Graph files are JSON documents with 1-based vertex numbers:

    {"n": 2, "edges": [{"from": 2, "to": 1, "count": 1}]}

``n`` is the vertex count; each edge record gives the number of arrows from
``from`` to ``to``; pairs without a record have count 0.  Duplicate
(to, from) records and infinite counts are rejected, and so is any ``n``
whose n x n multiplicity matrix would exceed ``quiver.PATH_LIMIT`` entries
(n > 1024), before that matrix is built.  The records are written straight
into the int64 matrix, so a count past ``2**63 - 1`` is refused ("size limit
exceeded") before it is written, and ``Quiver`` refuses more arrows than that
in all.

A correspondence element travels as a list of records

    {"to": i, "from": j, "vector": [[re, im], ...]}

with one record per nonempty block, again 1-based: the coefficients of the
arrows from j to i, by arrow index.
"""

from __future__ import annotations

import json
import math
from itertools import islice

import numpy as np

from .correspondence import CorrespondenceElement
from .quiver import _MAX_ARROWS, PATH_LIMIT, Quiver, _check_arrow_count

#: version of the graph file schema (printed by the CLI --version flag)
GRAPH_SCHEMA_VERSION = "1"


def _schema_error(msg: str) -> ValueError:
    return ValueError(f"malformed graph file: {msg}")


def parse_quiver_dict(doc) -> Quiver:
    """Validate a decoded graph document and build the quiver."""
    if not isinstance(doc, dict):
        raise _schema_error("top level must be an object")
    unknown = set(doc) - {"n", "edges"}
    if unknown:
        raise _schema_error(f"unknown fields {sorted(unknown)}")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise _schema_error(f"'n' must be a positive integer, got {n!r}")
    if n * n > PATH_LIMIT:
        raise ValueError(
            f"size limit exceeded: {n} vertices need a {n}x{n} multiplicity matrix, "
            f"more than {PATH_LIMIT} entries"
        )
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise _schema_error("'edges' must be a list")
    c = np.zeros((n, n), dtype=np.int64)
    seen: set[tuple[int, int]] = set()
    for k, rec in enumerate(edges):
        if not isinstance(rec, dict) or set(rec) != {"from", "to", "count"}:
            raise _schema_error(
                f"edge record {k} must have exactly the fields from/to/count"
            )
        src, dst, count = rec["from"], rec["to"], rec["count"]
        for name, v in (("from", src), ("to", dst)):
            if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= n:
                raise _schema_error(f"edge record {k}: '{name}' must be in 1..{n}")
        if count == "inf" or (isinstance(count, float) and math.isinf(count)):
            raise _schema_error(
                f"edge record {k}: infinite multiplicities are not supported; "
                "only finite graphs can be realized"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise _schema_error(
                f"edge record {k}: 'count' must be a nonnegative integer, got {count!r}"
            )
        if count > _MAX_ARROWS:
            raise ValueError(f"size limit exceeded: edge record {k}: count {count} > {_MAX_ARROWS}")
        key = (dst, src)
        if key in seen:
            raise _schema_error(
                f"duplicate edge record for to={dst}, from={src}"
            )
        seen.add(key)
        c[dst - 1, src - 1] = count
    return Quiver._of_counts(c)


def parse_quiver_file(path) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _schema_error(f"{path}: {exc}") from exc
    return parse_quiver_dict(doc)


def quiver_to_dict(q: Quiver) -> dict:
    edges = [{"from": j + 1, "to": i + 1, "count": d} for i, j, d in q._nonempty_blocks]
    return {"n": q.n, "edges": edges}


def write_quiver_file(q: Quiver, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(quiver_to_dict(q), fh, indent=2, sort_keys=True)
        fh.write("\n")


def element_to_wire(xi: CorrespondenceElement) -> list[dict]:
    """One record per nonempty block, 1-based, complex entries as [re, im]."""
    pairs = iter(xi.vector.view(float).reshape(-1, 2).tolist())  # [re, im] per arrow
    return [
        {"to": i + 1, "from": j + 1, "vector": list(islice(pairs, d))}
        for i, j, d in xi.quiver._nonempty_blocks
    ]


def element_from_wire(q: Quiver, records) -> CorrespondenceElement:
    _check_arrow_count(q.total_arrows())
    vector = np.zeros(q.total_arrows(), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"to", "from", "vector"}:
            raise ValueError(f"block record {k} must have the fields to/from/vector")
        for name in ("to", "from"):
            v = rec[name]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"block record {k}: '{name}' must be an integer")
        i, j = rec["to"] - 1, rec["from"] - 1
        if not (0 <= i < q.n and 0 <= j < q.n):
            raise ValueError(f"block record {k}: vertex out of range")
        if (i, j) in seen:
            raise ValueError(f"duplicate block record for to={i + 1}, from={j + 1}")
        seen.add((i, j))
        try:
            pairs = [(re, im) for re, im in rec["vector"]]
            if any(isinstance(x, bool) for pair in pairs for x in pair):
                raise TypeError("JSON booleans are not numbers")
            vec = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"block record {k}: 'vector' must hold [re, im] number pairs") from exc
        if not np.isfinite(vec).all():
            raise ValueError(f"block record {k}: vector entries must be finite")
        if vec.shape[0] != q.count(i, j):
            raise ValueError(
                f"block record {k}: expected dimension {q.count(i, j)}, got {vec.shape[0]}"
            )
        start = q.block_start(i, j)
        vector[start:start + len(vec)] = vec
    return CorrespondenceElement(q, vector)
