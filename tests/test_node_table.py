"""The node table: one row per distinct IR subtree (repro.hydride_ir.serialize).

Every symbolic of every registered ISA round-trips through one table,
decodes to structurally equal IR in which each distinct subtree is one
object, and a malformed table fails with a typed error.
"""

import json

import pytest

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
from repro.hydride_ir.serialize import _LAYOUT, IrSerializeError, NodeTable, node_at
from repro.irgen.artifact import symbolic_from_record, symbolic_record
from repro.isa.registry import supported_isas
from tests.support import parsed_symbolics


def _subtrees(symbolics):
    """Every BvExpr and IndexExpr node of ``symbolics``, inputs included."""
    roots: list = []
    for symbolic in symbolics:
        roots.append(symbolic.body)
        roots.extend(inp.width for inp in symbolic.inputs)
    return _subtrees_of(*roots)


def _subtrees_of(*roots):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        for value in vars(node).values():
            if isinstance(value, (BvExpr, IndexExpr)):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)


@pytest.fixture(scope="module")
def catalog():
    return [s for isa in supported_isas() for s in parsed_symbolics(isa)]


@pytest.fixture(scope="module")
def round_trip(catalog):
    table = NodeTable()
    records = [symbolic_record(table, symbolic) for symbolic in catalog]
    # Through JSON, as the artifact stores it.
    rows, records = json.loads(json.dumps([table.rows, records]))
    nodes = NodeTable().extend(rows)
    return table, [symbolic_from_record(nodes, r) for r in records]


class TestRoundTrip:
    def test_every_catalog_symbolic_round_trips(self, catalog, round_trip):
        _table, decoded = round_trip
        assert len(decoded) == len(catalog)
        for ours, theirs in zip(decoded, catalog):
            assert ours == theirs, theirs.name

    def test_each_distinct_subtree_decodes_to_one_object(self, round_trip):
        table, decoded = round_trip
        objects: dict = {}
        for node in _subtrees(decoded):
            objects.setdefault(node, set()).add(id(node))
        assert all(len(ids) == 1 for ids in objects.values())
        # ... and the table holds exactly the distinct subtrees.
        assert len(objects) == len(table)
        assert len(table) < sum(1 for _ in _subtrees(decoded)) // 5

    def test_encoding_is_deterministic_and_idempotent(self, catalog, round_trip):
        table, decoded = round_trip
        again = NodeTable()
        for symbolic in decoded:
            symbolic_record(again, symbolic)
        assert again.rows == table.rows

    def test_merged_tables_share_subtrees(self):
        lane = BvBinOp("bvadd", BvVar("a"), BvVar("b"))
        first, second = NodeTable(), NodeTable()
        first.add(BvConcat((lane, lane)))
        second.add(BvBinOp("bvadd", BvVar("a"), BvVar("b")))
        merged = NodeTable()
        ours = merged.extend(first.rows)
        theirs = merged.extend(second.rows)
        assert theirs[-1] is ours[-1].parts[0] is ours[-1].parts[1]
        assert len(merged) == len(first)

    def test_every_node_kind_round_trips(self):
        """One node of each kind the layout names, so the encoder's rows
        and the decoder's layout cannot drift apart."""
        a, i, n = BvVar("a"), IVar("i"), IParam("n")
        index = IBin("*", i, IConst(8))
        nodes = [
            BvConst(IConst(3), n), BvBroadcastConst(IConst(1), n, IConst(4)),
            BvExtract(a, index, IConst(8)), BvUnOp("bvnot", a),
            BvBinOp("bvadd", a, BvVar("b")),
            BvCmp("bveq", a, a), BvCast("zext", a, IConst(64)),
            BvIte(BvCmp("bvult", a, a), a, BvUnOp("bvneg", a)),
            BvConcat((a, a)), ForConcat("i", n, BvExtract(a, index, IConst(8))),
        ]
        assert {type(x) for node in nodes for x in _subtrees_of(node)} == {
            cls for cls, _kinds in _LAYOUT.values()
        } | {IConst}
        table = NodeTable()
        rows = [table.add(node) for node in nodes]
        decoded = NodeTable().extend(json.loads(json.dumps(table.rows)))
        assert [decoded[row] for row in rows] == nodes

    def test_constants_are_bare_ints(self):
        table = NodeTable()
        row = table.add(IBin("+", IParam("n"), IConst(8)))
        assert table.rows == [("p", "n"), 8, ("b", "+", 0, 1)]
        assert row == 2


class TestCorruptTables:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["Z", 0]], "unknown IR tag"),
            ([[7, 0]], "unknown IR tag"),
            ([[]], "invalid row"),
            ([None], "invalid row"),
            ([True], "invalid row"),
            ([1.5], "invalid row"),
            ([["V", "a"], ["U", "bvnot", 1]], "not to an earlier row"),
            ([["V", "a"], ["U", "bvnot", -1]], "not to an earlier row"),
            ([["V", "a"], ["U", "bvnot", 7]], "not to an earlier row"),
            ([["V", "a"], ["U", "bvnot", True]], "not to an earlier row"),
            ([8, ["U", "bvnot", 0]], "is not a BvExpr"),
            ([["V", "a"], ["C", 0, 0]], "is not a IndexExpr"),
            ([["V", "a"], ["K", 0]], "parts are not a list"),
            ([["V", "a"], ["K", [0, 2]]], "not to an earlier row"),
            ([["V", 3]], "is not a name"),
            ([["V", "a", "b"]], "wrong arity"),
            ([8, 8, ["b", "**", 0, 1]], "unknown index operator"),
        ],
    )
    def test_typed_errors(self, rows, message):
        with pytest.raises(IrSerializeError, match=message):
            NodeTable().extend(rows)

    def test_unknown_node_class_cannot_be_encoded(self):
        class Strange(BvExpr):
            pass

        with pytest.raises(IrSerializeError, match="Strange"):
            NodeTable().add(Strange())

    def test_record_references_are_checked(self):
        nodes = NodeTable().extend([["V", "a"], 32])
        assert node_at(nodes, 0, BvExpr) == BvVar("a")
        for ref, kind in ((1, BvExpr), (0, IndexExpr), (2, BvExpr), (False, BvExpr)):
            with pytest.raises(IrSerializeError):
                node_at(nodes, ref, kind)
