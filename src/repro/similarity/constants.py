"""Constant extraction: concrete semantics -> parameterized semantics.

Section 3.3: "HYDRIDE extracts the constants from HYDRIDE IR to abstract
away any instruction-specific quantities like vector sizes, element
sizes, etc.  To ensure that constants for different parameters are not
conflated together, and to ensure that bitwidths of two bitvectors are
not extracted twice if they are guaranteed to have the same bitwidth,
HYDRIDE traverses the use-def chains ... and performs a simple bitwidth
analysis by accounting for legality constraints of bitvector operations."

Implementation: every ``IConst`` occurrence in the canonical body (plus
each input's declared width) is a *site*.  A union-find over sites merges
the width sites that operator legality forces equal (both operands of a
``bvadd``, both branches of an ``ite``, ...).  Each resulting site class
becomes one symbolic parameter, numbered in deterministic traversal order
so that parameter positions correspond across instructions that share a
canonical shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

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
    Input,
    SemanticsFunction,
)
from repro.hydride_ir.indexexpr import IBin, IConst, IndexExpr, IParam, IVar


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller id as representative for determinism.
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


@dataclass
class SymbolicSemantics:
    """Sigma(I, alpha): parameterized semantics plus this instruction's
    concrete parameter values k."""

    name: str
    isa: str
    inputs: tuple[Input, ...]  # widths are IParam references
    body: BvExpr
    param_names: tuple[str, ...]  # canonical order alpha_1 ... alpha_r
    param_values: dict[str, int]  # this instruction's k
    skeleton: str = field(default="")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def bv_arity(self) -> int:
        return sum(1 for i in self.inputs if not i.is_immediate)

    def imm_arity(self) -> int:
        return sum(1 for i in self.inputs if i.is_immediate)

    def signature(self) -> tuple[int, int, int]:
        """The paper's pre-check: (#args, #bitvector args, #integer args) —
        extended with the parameter count, which similarity requires equal."""
        return (self.bv_arity(), self.imm_arity(), len(self.param_names))

    def values_vector(self) -> tuple[int, ...]:
        return tuple(self.param_values[p] for p in self.param_names)

    @cached_property
    def op_multiset(self) -> tuple[tuple[str, int], ...]:
        """Operator counts of the body — the engine's cheap pre-screen."""
        counter: Counter[str] = Counter()
        for node in self.body.walk():
            op = getattr(node, "op", None)
            if op is not None:
                counter[op] += 1
        return tuple(sorted(counter.items()))

    @cached_property
    def alpha_key(self) -> str:
        """Sigma(I, alpha) spelled out exactly, up to input and iterator
        names: equal keys mean every instantiation lowers to the same
        solver term.  Lazy, so artifact-loaded (warm) symbolics never pay."""
        params = frozenset(self.param_names)
        input_ids = {inp.name: idx for idx, inp in enumerate(self.inputs)}
        inputs = " ".join(
            f"{_index_skeleton(inp.width, {}, params)}:{int(inp.is_immediate)}"
            for inp in self.inputs
        )
        body = _expr_skeleton(self.body, input_ids, {}, params)
        return f"{','.join(self.param_names)}|{inputs}|{body}"

    def to_function(
        self, values: dict[str, int] | None = None, name: str | None = None
    ) -> SemanticsFunction:
        """Instantiate Phi(I, k) for a given parameter assignment."""
        assignment = dict(values if values is not None else self.param_values)
        return SemanticsFunction(
            name or self.name, self.inputs, assignment, self.body, IConst(0)
        )


@dataclass
class _Site:
    index: int
    value: int
    is_width: bool


class _Extractor:
    """Single-pass site collection + rebuild with parameter substitution."""

    def __init__(self) -> None:
        self.sites: list[_Site] = []
        self.uf = _UnionFind()

    # -- site collection over index expressions --------------------------

    def _collect_index(
        self, expr: IndexExpr, width_role: bool
    ) -> tuple[IndexExpr, int | None]:
        """Rebuild ``expr`` with site placeholders; returns (expr, site_id).

        ``site_id`` is only meaningful when the whole expression is a bare
        constant in a width role (the unification handle).
        """
        if isinstance(expr, IConst):
            site = _Site(len(self.sites), expr.value, width_role)
            self.sites.append(site)
            return IParam(f"@{site.index}"), site.index
        if isinstance(expr, IBin):
            # Inside arithmetic every constant is a value-role site.
            left, _ = self._collect_index(expr.left, width_role=False)
            right, _ = self._collect_index(expr.right, width_role=False)
            return IBin(expr.op, left, right), None
        return expr, None

    # -- width-site computation over bitvector expressions ---------------

    def process(self, expr: BvExpr, input_sites: dict[str, int | None]):
        """Rebuild ``expr`` with sites; returns (new_expr, width_site)."""
        if isinstance(expr, BvVar):
            return expr, input_sites.get(expr.name)
        if isinstance(expr, BvConst):
            value, _ = self._collect_index(expr.value, width_role=False)
            width, width_site = self._collect_index(expr.width, width_role=True)
            return BvConst(value, width), width_site
        if isinstance(expr, BvBroadcastConst):
            value, _ = self._collect_index(expr.value, width_role=False)
            elem, elem_site = self._collect_index(expr.elem_width, width_role=True)
            num, _ = self._collect_index(expr.num_elems, width_role=False)
            del elem_site
            return BvBroadcastConst(value, elem, num), None
        if isinstance(expr, BvExtract):
            src, _ = self.process(expr.src, input_sites)
            low, _ = self._collect_index(expr.low, width_role=False)
            width, width_site = self._collect_index(expr.width, width_role=True)
            return BvExtract(src, low, width), width_site
        if isinstance(expr, BvBinOp):
            left, site_left = self.process(expr.left, input_sites)
            right, site_right = self.process(expr.right, input_sites)
            if site_left is not None and site_right is not None:
                self.uf.union(site_left, site_right)
            return BvBinOp(expr.op, left, right), (
                site_left if site_left is not None else site_right
            )
        if isinstance(expr, BvUnOp):
            operand, site = self.process(expr.operand, input_sites)
            return BvUnOp(expr.op, operand), site
        if isinstance(expr, BvCmp):
            left, site_left = self.process(expr.left, input_sites)
            right, site_right = self.process(expr.right, input_sites)
            if site_left is not None and site_right is not None:
                self.uf.union(site_left, site_right)
            return BvCmp(expr.op, left, right), None
        if isinstance(expr, BvCast):
            operand, _ = self.process(expr.operand, input_sites)
            width, width_site = self._collect_index(expr.new_width, width_role=True)
            return BvCast(expr.op, operand, width), width_site
        if isinstance(expr, BvIte):
            cond, _ = self.process(expr.cond, input_sites)
            then_expr, site_then = self.process(expr.then_expr, input_sites)
            else_expr, site_else = self.process(expr.else_expr, input_sites)
            if site_then is not None and site_else is not None:
                self.uf.union(site_then, site_else)
            return BvIte(cond, then_expr, else_expr), (
                site_then if site_then is not None else site_else
            )
        if isinstance(expr, ForConcat):
            count, _ = self._collect_index(expr.count, width_role=False)
            body, _ = self.process(expr.body, input_sites)
            return ForConcat(expr.var, count, body), None
        if isinstance(expr, BvConcat):
            parts = tuple(self.process(p, input_sites)[0] for p in expr.parts)
            return BvConcat(parts), None
        raise TypeError(f"unknown node {type(expr).__name__}")


def _rename_placeholders(expr, mapping: dict[str, str]):
    """Replace @site placeholders with final parameter names (index exprs)."""

    def fix_index(ie: IndexExpr) -> IndexExpr:
        if isinstance(ie, IParam) and ie.name in mapping:
            return IParam(mapping[ie.name])
        if isinstance(ie, IBin):
            return IBin(ie.op, fix_index(ie.left), fix_index(ie.right))
        return ie

    def fix(node: BvExpr) -> BvExpr:
        if isinstance(node, BvVar):
            return node
        if isinstance(node, BvConst):
            return BvConst(fix_index(node.value), fix_index(node.width))
        if isinstance(node, BvBroadcastConst):
            return BvBroadcastConst(
                fix_index(node.value),
                fix_index(node.elem_width),
                fix_index(node.num_elems),
            )
        if isinstance(node, BvExtract):
            return BvExtract(fix(node.src), fix_index(node.low), fix_index(node.width))
        if isinstance(node, BvBinOp):
            return BvBinOp(node.op, fix(node.left), fix(node.right))
        if isinstance(node, BvUnOp):
            return BvUnOp(node.op, fix(node.operand))
        if isinstance(node, BvCmp):
            return BvCmp(node.op, fix(node.left), fix(node.right))
        if isinstance(node, BvCast):
            return BvCast(node.op, fix(node.operand), fix_index(node.new_width))
        if isinstance(node, BvIte):
            return BvIte(fix(node.cond), fix(node.then_expr), fix(node.else_expr))
        if isinstance(node, ForConcat):
            return ForConcat(node.var, fix_index(node.count), fix(node.body))
        if isinstance(node, BvConcat):
            return BvConcat(tuple(fix(p) for p in node.parts))
        raise TypeError(type(node).__name__)

    return fix(expr)


def extract_constants(func: SemanticsFunction, isa: str) -> SymbolicSemantics:
    """Produce Sigma(I, alpha) from a canonicalised Phi(I, k)."""
    extractor = _Extractor()

    # Input widths are sites too (width role).
    input_sites: dict[str, int | None] = {}
    raw_inputs: list[tuple[Input, IndexExpr]] = []
    for inp in func.inputs:
        width_expr, site = extractor._collect_index(inp.width, width_role=True)
        input_sites[inp.name] = site
        raw_inputs.append((inp, width_expr))

    body, _ = extractor.process(func.body, input_sites)

    # Assign final parameter names per union-find class, in first-site order.
    class_param: dict[int, str] = {}
    param_names: list[str] = []
    param_values: dict[str, int] = {}
    mapping: dict[str, str] = {}
    for site in extractor.sites:
        root = extractor.uf.find(site.index)
        root_value = extractor.sites[root].value
        if site.value != root_value:
            raise ValueError(
                f"{func.name}: width analysis merged sites with different "
                f"values ({site.value} vs {root_value})"
            )
        if root not in class_param:
            name = f"p{len(param_names)}"
            class_param[root] = name
            param_names.append(name)
            param_values[name] = root_value
        mapping[f"@{site.index}"] = class_param[root]

    body = _rename_placeholders(body, mapping)
    inputs = []
    for (inp, width_expr), _original in zip(raw_inputs, func.inputs):
        fixed = width_expr
        if isinstance(fixed, IParam) and fixed.name in mapping:
            fixed = IParam(mapping[fixed.name])
        inputs.append(Input(inp.name, fixed, inp.is_immediate))

    symbolic = SymbolicSemantics(
        func.name, isa, tuple(inputs), body, tuple(param_names), param_values
    )
    symbolic.skeleton = skeleton_key(symbolic)
    return symbolic


# ----------------------------------------------------------------------
# Skeleton hashing (fast similarity pre-filter)
# ----------------------------------------------------------------------


def _name_token(name: str, ivar_ids: dict[str, int], params) -> str:
    # Exact mode keeps parameter names (``p0``, ``p1``, ... are already
    # canonical first-site order) and numbers every other name; IParam and
    # IVar read one environment, so the node kind does not matter.
    if params is not None and name in params:
        return f"P{name}"
    return f"i{ivar_ids.setdefault(name, len(ivar_ids))}"


def _index_skeleton(
    expr: IndexExpr, ivar_ids: dict[str, int], params: frozenset | None = None
) -> str:
    """``params`` None: the coarse skeleton (constants and parameters
    anonymous).  Otherwise the exact :attr:`SymbolicSemantics.alpha_key`
    spelling over that parameter-name set."""
    if isinstance(expr, IConst):
        return "C" if params is None else f"C{expr.value}"
    if isinstance(expr, IParam) and params is None:
        return "P"
    if isinstance(expr, (IParam, IVar)):
        return _name_token(expr.name, ivar_ids, params)
    assert isinstance(expr, IBin)
    # Exact tokens carry values and names, so they need a separator.
    separator = "" if params is None else ","
    return (
        f"({expr.op}{_index_skeleton(expr.left, ivar_ids, params)}{separator}"
        f"{_index_skeleton(expr.right, ivar_ids, params)})"
    )


def _expr_skeleton(
    expr: BvExpr,
    input_ids: dict[str, int],
    ivar_ids: dict[str, int],
    params: frozenset | None = None,
) -> str:
    if isinstance(expr, BvVar):
        return f"v{input_ids[expr.name]}"
    parts = [type(expr).__name__]
    op = getattr(expr, "op", None)
    if op is not None:
        parts.append(op)
    if isinstance(expr, ForConcat):
        binder = _name_token(expr.var, ivar_ids, params)
        if params is not None:
            parts.append(binder)
    parts.extend(_index_skeleton(ie, ivar_ids, params) for ie in expr.index_exprs())
    parts.extend(
        _expr_skeleton(c, input_ids, ivar_ids, params) for c in expr.children()
    )
    return "(" + " ".join(parts) + ")"


def skeleton_key(symbolic: SymbolicSemantics) -> str:
    """A structural fingerprint: identical keys mean the abstract bodies are
    syntactically equal up to renaming of inputs, iterators and parameter
    positions — the engine's fast bucketing before semantic checks."""
    input_ids = {inp.name: idx for idx, inp in enumerate(symbolic.inputs)}
    ivar_ids: dict[str, int] = {}
    return _expr_skeleton(symbolic.body, input_ids, ivar_ids)
