"""Python backend: emit the interpreted kernel from :mod:`repro.sim.ir`.

The sibling of :func:`repro.sim.ckernel.emit_c`.  One
:class:`~repro.sim.ir.KernelIR` becomes the source of a
``_kernel(_args, _rt, _c, _K=_K, ...)`` function that the ``interp``
backend ``exec``'s against the :mod:`repro.sim.values` helpers:

* every FP op calls the helper its wrap code names (``_f32``/``_f32z``/
  ``_ftz``, ``_fma``/``_fmaf``, ``_div``, the ``_MATH`` libm table), so
  the interpreted kernel and the C kernel compute the same bits from the
  same IR;
* the ``_K`` constants tuple is unpacked into fast locals ``_K0..`` once
  per call, and the four cost lanes live in ``_cy``/``_ccy``/``_ins``/
  ``_br`` locals exchanged with the shared ``CostState`` at the IR's
  :class:`~repro.sim.ir.Flush`/:class:`~repro.sim.ir.Reload` points;
* folded constants print as ``repr`` literals (exact round-trip) and a
  division by a nonzero constant uses Python's own ``/``, which is
  IEEE-identical there and never raises.

Nothing here runs unless a kernel is bound to ``interp`` (explicitly, or
as the fallback of a failed C build): :class:`repro.sim.lower.
StructuralKernel` emits and ``compile()``'s the template lazily, once per
shape.
"""

from __future__ import annotations

from . import ir as _ir
from .values import MATH_IMPLS, f32, f32z, fdiv, fma_d, fma_f, ftz_d, ftz_f

#: the namespace an emitted template executes in
_HELPERS = {
    "_div": fdiv,
    "_f32": f32,
    "_f32z": f32z,
    "_fma": fma_d,
    "_fmaf": fma_f,
    "_ftz": ftz_d,
    "_ftzf": ftz_f,
    "_MATH": MATH_IMPLS,
}

#: helper parameter defaults appended to the kernel signature so every
#: hot-loop helper reference is a LOAD_FAST instead of a LOAD_GLOBAL
_HELPER_PARAMS = ("_f32", "_f32z", "_ftz", "_ftzf", "_div", "_fma",
                  "_fmaf", "_MATH")

_WRAPS = {_ir.W_NONE: None, _ir.W_F32: "_f32", _ir.W_F32Z: "_f32z",
          _ir.W_FTZ: "_ftz"}

_LOAD_ARRAY = {_ir.A_COPY: "list(_args[{!r}])",
               _ir.A_FTZ_D: "[_ftz(_x) for _x in _args[{!r}]]",
               _ir.A_FTZ_F: "[_ftzf(_x) for _x in _args[{!r}]]"}

_FLUSH = "_c.cy = _cy; _c.ccy = _ccy; _c.ins = _ins; _c.br = _br"
_RELOAD = "_cy = _c.cy; _ccy = _c.ccy; _ins = _c.ins; _br = _c.br"


def _wrap(code: int, text: str) -> str:
    fn = _WRAPS[code]
    return text if fn is None else f"{fn}({text})"


class _Emitter:
    """IR -> Python source for one kernel shape."""

    def __init__(self, kir: _ir.KernelIR) -> None:
        self.kir = kir
        self.lines: list[str] = []
        self.depth = 0

    def w(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def suite(self, header: str, body: list) -> None:
        self.w(header)
        self.depth += 1
        self.block(body)
        if not body:
            self.w("pass")
        self.depth -= 1

    # -- expressions ---------------------------------------------------
    def fexpr(self, e) -> str:
        t = type(e)
        if t is _ir.FLit:
            return repr(e.v)
        if t is _ir.FVar:
            return e.name
        if t is _ir.ALoad:
            return f"{e.arr}[{self.iexpr(e.idx)}]"
        if t is _ir.IToF:
            return f"float({self.iexpr(e.ix)})"
        if t is _ir.FNeg:
            return f"(-({self.fexpr(e.x)}))"
        if t is _ir.FBin:
            a, b = self.fexpr(e.a), self.fexpr(e.b)
            if e.op != "/" or (type(e.b) is _ir.FLit and e.b.v != 0.0):
                return _wrap(e.wrap, f"({a} {e.op} {b})")
            return _wrap(e.wrap, f"_div({a}, {b})")
        if t is _ir.FFma:
            text = (f"{'_fmaf' if e.fp32 else '_fma'}({self.fexpr(e.a)}, "
                    f"{self.fexpr(e.b)}, {self.fexpr(e.c)})")
            if e.ftz:
                text = f"{'_ftzf' if e.fp32 else '_ftz'}({text})"
            return text
        if t is _ir.FCall:
            return _wrap(e.wrap, f"_m_{e.func}({self.fexpr(e.arg)})")
        raise TypeError(f"unknown FP expr {t.__name__}")

    def iexpr(self, e) -> str:
        t = type(e)
        if t is _ir.ILit:
            return str(e.v)
        if t is _ir.IVar:
            return e.name
        if t is _ir.IMax0:
            return f"max(0, {e.name})"
        if t is _ir.IMod:
            return f"({self.iexpr(e.base)}) % {e.modulus}"
        if t is _ir.IMul:
            return f"({self.iexpr(e.a)}) * {self.iexpr(e.b)}"
        if t is _ir.IFloorDiv:
            return f"{self.iexpr(e.a)} // {self.iexpr(e.b)}"
        if t is _ir.IModV:
            return f"{self.iexpr(e.a)} % {self.iexpr(e.b)}"
        raise TypeError(f"unknown int expr {t.__name__}")

    # -- statements ----------------------------------------------------
    def block(self, ops: list) -> None:
        for op in ops:
            self.stmt(op)

    def stmt(self, op) -> None:  # noqa: C901 - one arm per IR op
        t = type(op)
        if t is _ir.Charge:
            lane = "_ccy" if op.lane else "_cy"
            parts = []
            if op.k_cy is not None:
                parts.append(f"{lane} += _K{op.k_cy}")
            if op.k_ins is not None:
                parts.append(f"_ins += _K{op.k_ins}")
            if op.br:
                parts.append(f"_br += {op.br:.0f}")
            self.w("; ".join(parts))
        elif t is _ir.SetVar:
            self.w(f"{op.name} = {self.fexpr(op.e)}")
        elif t is _ir.SetIVar:
            self.w(f"{op.name} = {self.iexpr(op.e)}")
        elif t is _ir.AStore:
            self.w(f"{op.arr}[{self.iexpr(op.idx)}] = {self.fexpr(op.e)}")
        elif t is _ir.Flush:
            self.w(_FLUSH)
        elif t is _ir.Reload:
            self.w(_RELOAD)
        elif t is _ir.Hook:
            self.w(f"_rt.{op.name}({'_tid' if op.tid else ''})")
            if op.name == "prologue":
                # bind the libm helpers once per call
                for name in self.kir.math_funcs:
                    self.w(f"_m_{name} = _MATH[{name!r}]")
        elif t is _ir.RegionEnter:
            self.w(f"_rt.region_enter({op.rid})")
        elif t is _ir.RegionExit:
            tail = (f"_partials, {op.op!r}" if op.has_partials
                    else "None, None")
            self.w(f"{op.comp} = _rt.region_exit({op.rid}, {op.comp}, "
                   f"{tail})")
        elif t is _ir.InitPartials:
            self.w("_partials = []")
        elif t is _ir.AppendPartial:
            self.w(f"_partials.append({op.name})")
        elif t is _ir.Chunk:
            self.w(f"_lo_{op.label}, _hi_{op.label} = "
                   f"_rt.chunk(_tid, {self.iexpr(op.n)})")
        elif t is _ir.ForRange:
            hi = self.iexpr(op.hi)
            bounds = (hi if type(op.lo) is _ir.ILit and op.lo.v == 0
                      else f"{self.iexpr(op.lo)}, {hi}")
            self.suite(f"for {op.var} in range({bounds}):", op.body)
        elif t is _ir.ForAssign:
            self.suite(f"for {op.var} in _rt.assign(_tid, "
                       f"{self.iexpr(op.n)}, {op.kind!r}, {op.chunk}):",
                       op.body)
        elif t is _ir.ForList:
            self.suite(f"for {op.var} in {op.queue}:", op.body)
        elif t is _ir.QNew:
            self.w(f"{op.queue} = []")
        elif t is _ir.QPush:
            self.w(f"{op.queue}.append({op.k})")
        elif t is _ir.QClear:
            self.w(f"del {op.queue}[:]")
        elif t is _ir.If:
            c = op.cond
            self.suite(f"if ({self.fexpr(c.lhs)}) {c.op} "
                       f"({self.fexpr(c.rhs)}):", op.body)
        elif t is _ir.IfIntEq:
            self.suite(f"if {op.var} == {op.k}:", op.body)
        elif t is _ir.LoadInt:
            self.w(f"{op.name} = _args[{op.name!r}]")
        elif t is _ir.LoadScalar:
            self.w(f"{op.name} = {_wrap(op.wrap, f'_args[{op.name!r}]')}")
        elif t is _ir.LoadArray:
            self.w(f"{op.name} = {_LOAD_ARRAY[op.mode].format(op.name)}")
        elif t is _ir.Return:
            self.w(f"return {op.name}")
        else:
            raise TypeError(f"unknown IR op {t.__name__}")

    # -- whole kernel --------------------------------------------------
    def emit(self) -> str:
        helpers = ", ".join(f"{h}={h}" for h in _HELPER_PARAMS)
        self.w(f"def _kernel(_args, _rt, _c, _K=_K, {helpers}):")
        self.depth = 1
        n = self.kir.n_constants
        if n:  # unpack the constants tuple into fast locals once per call
            names = ", ".join(f"_K{i}" for i in range(n))
            self.w(f"{names}{',' if n == 1 else ''} = _K")
        self.block(self.kir.ops)
        return "\n".join(self.lines) + "\n"


def emit_python(kir: _ir.KernelIR) -> str:
    """The Python source of the ``_kernel`` function for one shape."""
    return _Emitter(kir).emit()


def bind_py(structural, constants: tuple[float, ...]):
    """The interpreted entry for one vendor's binding of a kernel shape
    (the shape's compiled template, exec'd with that vendor's ``_K``)."""
    ns = dict(_HELPERS)
    ns["_K"] = constants
    exec(structural.code, ns)  # noqa: S102 - our own generated code
    return ns["_kernel"]
