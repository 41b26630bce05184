"""The node table: hash-consed (de)serialization of Hydride IR.

The offline IR-generation pipeline (:mod:`repro.irgen`) moves the
parameterized semantics of every instruction — full :class:`BvExpr`
bodies over symbolic :class:`IndexExpr` widths — between processes and
onto disk.  Those bodies repeat heavily: ~1.7k instructions hold ~41k
IR nodes, of which ~2.5k are distinct.  A :class:`NodeTable` stores each
distinct subtree once, so every copy costs one integer reference.

Rows are JSON-ready.  An ``IConst`` row is its integer value; every other
row is ``(tag, *fields)`` in the node's dataclass field order, where a
child field holds the index of an *earlier* row (``BvConcat``'s parts are
a list of them) and a name or operator field holds its string:

=====  ====================  =====  ====================
tag    node                  tag    node
=====  ====================  =====  ====================
``p``  ``IParam``            ``X``  ``BvExtract``
``v``  ``IVar``              ``O``  ``BvBinOp``
``b``  ``IBin``              ``U``  ``BvUnOp``
``V``  ``BvVar``             ``M``  ``BvCmp``
``C``  ``BvConst``           ``T``  ``BvCast``
``B``  ``BvBroadcastConst``  ``I``  ``BvIte``
``K``  ``BvConcat``          ``F``  ``ForConcat``
=====  ====================  =====  ====================

Encoding *is* interning: :meth:`NodeTable.add` keys a node by its row
(children already interned), so structurally equal subtrees share one
row, and memoises by object identity, so a subtree that is already
shared costs one lookup.  :meth:`NodeTable.extend` decodes another
table's rows into this one, building each distinct row once: the trees
it returns share every repeated subtree, also across the tables merged
into one.  A malformed payload raises :class:`IrSerializeError`.
"""

from __future__ import annotations

from typing import Any

from repro.hydride_ir.ast import (
    BvBinOp,
    BvBroadcastConst,
    BvCast,
    BvCmp,
    BvConcat,
    BvConst,
    BvExpr,
    BvExtract,
    BvIte,
    BvUnOp,
    BvVar,
    ForConcat,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IParam, IVar


class IrSerializeError(ValueError):
    """An IR node cannot be encoded or a payload cannot be decoded."""


# Field kinds: a string, one child of a node kind, or BvConcat's parts.
_STR, _PARTS = "str", "parts"

_LAYOUT: dict[str, tuple[type, tuple]] = {
    "p": (IParam, (_STR,)),
    "v": (IVar, (_STR,)),
    "b": (IBin, (_STR, IndexExpr, IndexExpr)),
    "V": (BvVar, (_STR,)),
    "C": (BvConst, (IndexExpr, IndexExpr)),
    "B": (BvBroadcastConst, (IndexExpr, IndexExpr, IndexExpr)),
    "X": (BvExtract, (BvExpr, IndexExpr, IndexExpr)),
    "O": (BvBinOp, (_STR, BvExpr, BvExpr)),
    "U": (BvUnOp, (_STR, BvExpr)),
    "M": (BvCmp, (_STR, BvExpr, BvExpr)),
    "T": (BvCast, (_STR, BvExpr, IndexExpr)),
    "I": (BvIte, (BvExpr, BvExpr, BvExpr)),
    "K": (BvConcat, (_PARTS,)),
    "F": (ForConcat, (_STR, IndexExpr, BvExpr)),
}

# Node class -> its row, given ``add`` (which interns a child and
# returns its row); the inverse of ``_LAYOUT``, spelled out because
# encoding runs once per node of every parsed spec.
_ENCODE = {
    IParam: lambda add, n: ("p", n.name),
    IVar: lambda add, n: ("v", n.name),
    IBin: lambda add, n: ("b", n.op, add(n.left), add(n.right)),
    BvVar: lambda add, n: ("V", n.name),
    BvConst: lambda add, n: ("C", add(n.value), add(n.width)),
    BvBroadcastConst: lambda add, n: (
        "B", add(n.value), add(n.elem_width), add(n.num_elems)
    ),
    BvExtract: lambda add, n: ("X", add(n.src), add(n.low), add(n.width)),
    BvBinOp: lambda add, n: ("O", n.op, add(n.left), add(n.right)),
    BvUnOp: lambda add, n: ("U", n.op, add(n.operand)),
    BvCmp: lambda add, n: ("M", n.op, add(n.left), add(n.right)),
    BvCast: lambda add, n: ("T", n.op, add(n.operand), add(n.new_width)),
    BvIte: lambda add, n: (
        "I", add(n.cond), add(n.then_expr), add(n.else_expr)
    ),
    BvConcat: lambda add, n: ("K", tuple(map(add, n.parts))),
    ForConcat: lambda add, n: ("F", n.var, add(n.count), add(n.body)),
}


def node_at(nodes: list, ref: Any, kind: type) -> Any:
    """``nodes[ref]`` when ``ref`` is an in-range row index of a ``kind``
    node; :class:`IrSerializeError` otherwise."""
    if type(ref) is not int or not 0 <= ref < len(nodes):
        raise IrSerializeError(f"reference {ref!r} is not to an earlier row")
    node = nodes[ref]
    if not isinstance(node, kind):
        raise IrSerializeError(f"row {ref} is not a {kind.__name__}")
    return node


class NodeTable:
    """One row per distinct IR subtree; see the module docstring."""

    def __init__(self) -> None:
        self.rows: list = []
        self.nodes: list = []
        self._row_of: dict = {}  # row (the structural key) -> its index
        # id(node) -> (node, row); holding the node keeps its id unique.
        self._seen: dict[int, tuple[Any, int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, node: BvExpr | IndexExpr) -> int:
        """Intern ``node`` and its subtrees; returns its row index."""
        seen = self._seen.get(id(node))
        if seen is not None:
            return seen[1]
        kind = type(node)
        if kind is IConst:
            return self._intern(node.value, node)
        encode = _ENCODE.get(kind)
        if encode is None:
            raise IrSerializeError(f"cannot serialize IR node {kind.__name__}")
        return self._intern(encode(self.add, node), node)

    def _intern(self, key, node) -> int:
        row = self._row_of.get(key)
        if row is None:
            row = self._row_of[key] = len(self.rows)
            self.rows.append(key)
            self.nodes.append(node)
        self._seen[id(node)] = (node, row)
        return row

    def extend(self, rows: list) -> list:
        """Decode the rows of an encoded table into this one; returns the
        node of each of ``rows``, in order."""
        decoded: list = []
        for row in rows:
            if type(row) is int:
                key, make = row, (IConst, (row,))
            else:
                key, make = self._decode(row, decoded)
            index = self._row_of.get(key)
            if index is None:
                cls, args = make
                index = self._intern(key, cls(*args))
            decoded.append(self.nodes[index])
        return decoded

    def _decode(self, row: Any, decoded: list):
        """(key, (class, constructor args)) of one non-constant row;
        child references resolve against the rows ``decoded`` so far."""
        if not isinstance(row, (list, tuple)) or not row:
            raise IrSerializeError(f"invalid row {row!r}")
        layout = _LAYOUT.get(row[0]) if isinstance(row[0], str) else None
        if layout is None:
            raise IrSerializeError(f"unknown IR tag {row[0]!r}")
        cls, kinds = layout
        if len(row) != 1 + len(kinds):
            raise IrSerializeError(f"row {row!r} has the wrong arity")
        key: list = [row[0]]
        args: list = []
        for value, kind in zip(row[1:], kinds):
            if kind is _STR:
                if not isinstance(value, str):
                    raise IrSerializeError(f"row {row!r}: {value!r} is not a name")
                key.append(value)
                args.append(value)
            elif kind is _PARTS:
                if not isinstance(value, (list, tuple)):
                    raise IrSerializeError(f"row {row!r}: parts are not a list")
                parts = tuple(node_at(decoded, ref, BvExpr) for ref in value)
                key.append(tuple(self._seen[id(part)][1] for part in parts))
                args.append(parts)
            else:
                child = node_at(decoded, value, kind)
                key.append(self._seen[id(child)][1])
                args.append(child)
        if cls is IBin and args[0] not in IBin._OPS:
            raise IrSerializeError(f"unknown index operator {args[0]!r}")
        return tuple(key), (cls, args)
