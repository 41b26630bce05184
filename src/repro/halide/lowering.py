"""Lowering: scheduled Funcs -> vectorised Halide IR windows + loop nests.

This is the stage whose *output* Hydride consumes: "our front-end takes
as input Halide IR lowered from an input Halide program after all
scheduling optimizations have been applied, including vectorization,
parallelization and tiling".

The lowering inlines producer Funcs (Halide's default), replaces the
vectorised variable with lanes, turns buffer accesses into opaque vector
loads classified by their lane stride, unrolls reduction domains — or,
under ``vectorize_reduction``, widens them into ``reduce-add`` windows,
the shape that exposes dot-product instructions — and reports the
surrounding loop nest for the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.halide import dsl
from repro.halide import ir as hir


class LoweringError(Exception):
    pass


@dataclass
class LoadInfo:
    name: str
    buffer: str
    lanes: int
    elem_width: int
    stride: int
    tiled: bool = False


@dataclass
class LoweredKernel:
    """The compiler-facing form of one scheduled Func."""

    name: str
    window: hir.HExpr
    loops: list[tuple[str, int]]  # outermost first; vector var pre-divided
    lanes: int
    out_elem_width: int
    loads: dict[str, LoadInfo] = field(default_factory=dict)
    schedule: dsl.Schedule | None = None
    signed: bool = True

    @property
    def work_items(self) -> int:
        total = 1
        for _, extent in self.loops:
            total *= extent
        return total


class _Lowerer:
    def __init__(self, func: dsl.Func, extents: dict[str, int]) -> None:
        if func.args is None or func.expr is None:
            raise LoweringError(f"Func {func.name!r} has no definition")
        self.func = func
        self.extents = extents
        self.schedule = func.schedule
        if not self.schedule.vector_var:
            raise LoweringError(
                f"Func {func.name!r} is not vectorised; Hydride consumes "
                "vectorised Halide IR"
            )
        self.vector_var = self.schedule.vector_var
        self.lanes = self.schedule.vector_lanes
        self.loads: dict[str, LoadInfo] = {}
        self._load_signatures: dict[tuple, str] = {}
        self._broadcasts: dict[tuple, str] = {}

    # -- load management -------------------------------------------------

    def _load(
        self,
        buffer: dsl.Buffer,
        signature: tuple,
        lanes: int,
        stride: int,
        tiled: bool = False,
    ) -> hir.HLoad:
        name = self._load_signatures.get(signature)
        if name is None:
            name = f"ld{len(self._load_signatures)}"
            self._load_signatures[signature] = name
            self.loads[name] = LoadInfo(
                name, buffer.name, lanes, buffer.elem_width, stride, tiled
            )
        return hir.HLoad(name, lanes, buffer.elem_width, stride)

    def _access_signature(self, access: dsl.Access, r_env: dict[str, int]) -> tuple:
        parts = [access.buffer.name]
        for dim in access.index:
            const, coeffs = dsl.linearize(dim)
            resolved = const + sum(
                coeffs.get(name, 0) * value for name, value in r_env.items()
            )
            symbolic = tuple(
                sorted(
                    (name, coeff)
                    for name, coeff in coeffs.items()
                    if name not in r_env and coeff
                )
            )
            parts.append((resolved, symbolic))
        return tuple(parts)

    # -- expression lowering ----------------------------------------------

    def lower(
        self,
        expr: dsl.Expr,
        lanes: int,
        r_env: dict[str, int],
        r_vec: tuple[str, int] | None,
    ) -> hir.HExpr:
        """Lower ``expr`` at ``lanes`` lanes.

        ``r_env`` binds unrolled reduction variables to constants;
        ``r_vec`` is (rvar name, factor) when lanes include a vectorised
        reduction axis (lane = v * factor + r).
        """
        if isinstance(expr, dsl.Const):
            return hir.HConst(expr.value, lanes, expr.elem_width)
        if isinstance(expr, dsl.Param):
            return hir.HBroadcast(expr.name, lanes, expr.elem_width)
        if isinstance(expr, dsl.Access):
            return self._lower_access(expr, lanes, r_env, r_vec)
        if isinstance(expr, dsl.BinOp):
            return hir.HBin(
                expr.op,
                self.lower(expr.left, lanes, r_env, r_vec),
                self.lower(expr.right, lanes, r_env, r_vec),
            )
        if isinstance(expr, dsl.Cast):
            return self._lower_cast(expr, lanes, r_env, r_vec)
        if isinstance(expr, dsl.Cmp):
            kind = expr.op
            if kind in ("lt", "gt"):
                kind += "_s" if expr.left.signed else "_u"
            return hir.HCmp(
                kind,
                self.lower(expr.left, lanes, r_env, r_vec),
                self.lower(expr.right, lanes, r_env, r_vec),
            )
        if isinstance(expr, dsl.Select):
            return hir.HSelect(
                self.lower(expr.cond, lanes, r_env, r_vec),
                self.lower(expr.then_expr, lanes, r_env, r_vec),
                self.lower(expr.else_expr, lanes, r_env, r_vec),
            )
        if isinstance(expr, dsl.FuncRef):
            return self.lower(_inline(expr), lanes, r_env, r_vec)
        if isinstance(expr, dsl.Reduce):
            return self._lower_reduce(expr, lanes, r_env)
        raise LoweringError(f"cannot lower {type(expr).__name__}")

    def _lower_cast(self, expr, lanes, r_env, r_vec) -> hir.HExpr:
        src = self.lower(expr.src, lanes, r_env, r_vec)
        old = expr.src.elem_width
        new = expr.new_width
        if expr.saturating:
            kind = "sat_s" if expr.new_signed else "sat_u"
        elif new > old:
            kind = "sext" if expr.src.signed else "zext"
        else:
            kind = "trunc"
        return hir.HCast(kind, src, new)

    def _lower_reduce(self, expr: dsl.Reduce, lanes: int, r_env: dict[str, int]):
        axes = expr.rdom.axes
        vec_name = self.schedule.reduction_var
        vec_axis = next((a for a in axes if a.name == vec_name), None)
        other_axes = [a for a in axes if a is not vec_axis]

        terms: list[hir.HExpr] = []
        for combo in _axis_product(other_axes):
            env = dict(r_env)
            env.update(combo)
            if vec_axis is None:
                # Fully unrolled reduction: one term per point.
                terms.append(self.lower(expr.body, lanes, env, None))
                continue
            factor = self.schedule.reduction_factor
            if vec_axis.extent % factor:
                raise LoweringError(
                    "vectorize_reduction factor must divide the extent"
                )
            for chunk in range(vec_axis.extent // factor):
                env_chunk = dict(env)
                # The vectorised reduction axis contributes factor lanes;
                # its remaining iterations shift the access base.
                env_chunk[f"__chunk_{vec_axis.name}"] = vec_axis.min + chunk * factor
                body = self.lower(
                    expr.body,
                    lanes * factor,
                    env_chunk,
                    (vec_axis.name, factor),
                )
                terms.append(hir.HReduceAdd(body, factor))
        if vec_axis is None:
            # Unrolled points: expand env per point of the unrolled axes.
            pass
        result = terms[0]
        for term in terms[1:]:
            result = hir.HBin("add", result, term)
        return result

    def _lower_access(
        self,
        access: dsl.Access,
        lanes: int,
        r_env: dict[str, int],
        r_vec: tuple[str, int] | None,
    ) -> hir.HExpr:
        # Coefficients of the vector var / vectorised reduction var in the
        # innermost (contiguous) dimension; they must not appear elsewhere.
        last = access.index[-1]
        const, coeffs = dsl.linearize(last)
        del const
        for dim in access.index[:-1]:
            _c, outer_coeffs = dsl.linearize(dim)
            if outer_coeffs.get(self.vector_var):
                raise LoweringError(
                    f"{access.buffer.name}: vectorised var strides a "
                    "non-contiguous dimension"
                )
            if r_vec and outer_coeffs.get(r_vec[0]):
                raise LoweringError(
                    f"{access.buffer.name}: vectorised reduction var strides "
                    "a non-contiguous dimension"
                )
        cv = coeffs.get(self.vector_var, 0)
        chunk_env = dict(r_env)
        if r_vec is not None:
            cr = coeffs.get(r_vec[0], 0)
            factor = r_vec[1]
            # Chunked base offset for the vectorised reduction axis.
            chunk_key = f"__chunk_{r_vec[0]}"
            chunk_base = r_env.get(chunk_key, 0)
            chunk_env[r_vec[0]] = chunk_base
            signature = self._access_signature(access, chunk_env)
            if cr == 1 and cv == factor:
                return self._load(access.buffer, signature, lanes, 1)
            if cr == 1 and cv == 0:
                small = self._load(
                    access.buffer, signature, factor, 1, tiled=True
                )
                return hir.HConcat(tuple([small] * (lanes // factor)))
            if cr == 0 and cv == 1:
                raise LoweringError(
                    f"{access.buffer.name}: per-group broadcast layout is "
                    "not supported; pack the buffer or unroll the reduction"
                )
            if cr == 0 and cv == 0:
                name = f"s{len(self._broadcasts)}"
                name = self._broadcasts.setdefault(signature, name)
                return hir.HBroadcast(name, lanes, access.buffer.elem_width)
            raise LoweringError(
                f"{access.buffer.name}: unsupported reduction access "
                f"(cv={cv}, cr={cr})"
            )
        signature = self._access_signature(access, chunk_env)
        if cv == 0:
            name = f"s{len(self._broadcasts)}"
            name = self._broadcasts.setdefault(signature, name)
            return hir.HBroadcast(name, lanes, access.buffer.elem_width)
        # Contiguous (stride 1) or strided vector load.
        return self._load(access.buffer, signature, lanes, cv)

    # -- driver -----------------------------------------------------------

    def run(self) -> LoweredKernel:
        expr = self.func.expr
        window = self.lower(expr, self.lanes, {}, None)
        loops: list[tuple[str, int]] = []
        order = self.schedule.order or [a.name for a in self.func.args][::-1]
        for name in order:
            if name not in self.extents:
                raise LoweringError(f"no extent given for loop var {name!r}")
            extent = self.extents[name]
            if name == self.vector_var:
                extent = max(1, extent // self.lanes)
            loops.append((name, extent))
        return LoweredKernel(
            name=self.func.name,
            window=window,
            loops=loops,
            lanes=self.lanes,
            out_elem_width=expr.elem_width,
            loads=self.loads,
            schedule=self.schedule,
            signed=expr.signed,
        )


def _axis_product(axes: list[dsl.RVar]):
    import itertools

    if not axes:
        yield {}
        return
    ranges = [range(a.min, a.min + a.extent) for a in axes]
    for values in itertools.product(*ranges):
        yield {a.name: v for a, v in zip(axes, values)}


def _inline(ref: dsl.FuncRef) -> dsl.Expr:
    """Substitute the callee's definition at the call site."""
    callee = ref.func
    if callee.args is None or callee.expr is None:
        raise LoweringError(f"Func {callee.name!r} has no definition")
    mapping = {
        arg.name: index for arg, index in zip(callee.args, ref.index)
    }
    return _substitute(callee.expr, mapping)


def _substitute(expr: dsl.Expr, mapping: dict[str, dsl.IExpr]) -> dsl.Expr:
    if isinstance(expr, (dsl.Const, dsl.Param)):
        return expr
    if isinstance(expr, dsl.Access):
        return dsl.Access(
            expr.buffer, tuple(_subst_index(i, mapping) for i in expr.index)
        )
    if isinstance(expr, dsl.BinOp):
        return dsl.BinOp(
            expr.op, _substitute(expr.left, mapping), _substitute(expr.right, mapping)
        )
    if isinstance(expr, dsl.Cast):
        return dsl.Cast(
            expr.new_width, _substitute(expr.src, mapping), expr.new_signed,
            expr.saturating,
        )
    if isinstance(expr, dsl.Cmp):
        return dsl.Cmp(
            expr.op, _substitute(expr.left, mapping), _substitute(expr.right, mapping)
        )
    if isinstance(expr, dsl.Select):
        return dsl.Select(
            _substitute(expr.cond, mapping),
            _substitute(expr.then_expr, mapping),
            _substitute(expr.else_expr, mapping),
        )
    if isinstance(expr, dsl.Reduce):
        return dsl.Reduce(expr.rdom, _substitute(expr.body, mapping))
    if isinstance(expr, dsl.FuncRef):
        return dsl.FuncRef(
            expr.func, tuple(_subst_index(i, mapping) for i in expr.index)
        )
    raise LoweringError(f"cannot substitute in {type(expr).__name__}")


def _subst_index(expr: dsl.IExpr, mapping: dict[str, dsl.IExpr]) -> dsl.IExpr:
    if isinstance(expr, dsl.Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, dsl.RVar):
        return expr
    if isinstance(expr, dsl.ILit):
        return expr
    if isinstance(expr, dsl.IAdd):
        return dsl.IAdd(
            _subst_index(expr.left, mapping), _subst_index(expr.right, mapping)
        )
    if isinstance(expr, dsl.IScale):
        return dsl.IScale(_subst_index(expr.inner, mapping), expr.factor)
    raise LoweringError(f"cannot substitute index {type(expr).__name__}")


def lower_func(func: dsl.Func, extents: dict[str, int]) -> LoweredKernel:
    """Lower one scheduled Func given its output extents."""
    return _Lowerer(func, extents).run()
