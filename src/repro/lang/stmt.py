"""Statements of the concurrent DSL.

A thread is a list of statements.  Memory is addressed by a *location
expression*: a base name plus an optional index expression, so that
address dependencies (``load(a[r])``) are expressible.  Control flow
is structured (if/else and statically bounded loops), which keeps
per-thread execution deterministic given the values of its reads —
the property stateless model checking relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events import FenceKind, MemOrder
from .expr import Expr, lift


@dataclass(frozen=True)
class LocExpr:
    """``base`` or ``base[index]``."""

    base: str
    index: Expr | None = None

    def __repr__(self) -> str:
        if self.index is None:
            return self.base
        return f"{self.base}[{self.index!r}]"


def loc(spec: "str | tuple[str, ExprLike] | LocExpr") -> LocExpr:
    """Coerce a location spec: ``"x"`` or ``("arr", index_expr)``."""
    if isinstance(spec, LocExpr):
        return spec
    if isinstance(spec, str):
        return LocExpr(spec)
    base, index = spec
    return LocExpr(base, lift(index))


class Stmt:
    """Base statement."""


@dataclass(frozen=True)
class Assign(Stmt):
    reg: str
    expr: Expr


@dataclass(frozen=True)
class Load(Stmt):
    reg: str
    loc: LocExpr
    order: MemOrder = MemOrder.RLX


@dataclass(frozen=True)
class Store(Stmt):
    loc: LocExpr
    value: Expr
    order: MemOrder = MemOrder.RLX


@dataclass(frozen=True)
class Cas(Stmt):
    """Compare-and-swap; ``reg`` receives 1 on success, 0 on failure,
    and ``old_reg`` (when set) receives the value read."""

    reg: str
    loc: LocExpr
    expected: Expr
    desired: Expr
    order: MemOrder = MemOrder.RLX
    old_reg: str | None = None


@dataclass(frozen=True)
class Fai(Stmt):
    """Fetch-and-add; ``reg`` receives the *old* value."""

    reg: str
    loc: LocExpr
    delta: Expr
    order: MemOrder = MemOrder.RLX


@dataclass(frozen=True)
class Xchg(Stmt):
    """Atomic exchange; ``reg`` receives the old value."""

    reg: str
    loc: LocExpr
    value: Expr
    order: MemOrder = MemOrder.RLX


@dataclass(frozen=True)
class Fence(Stmt):
    kind: FenceKind = FenceKind.SYNC
    order: MemOrder = MemOrder.SC


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Repeat(Stmt):
    """Execute ``body`` exactly ``count`` times (static bound)."""

    count: int
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Assume(Stmt):
    """Block this execution branch unless ``cond`` holds (spin-loop
    abstraction: the standard SMC encoding of await loops).

    ``taint=False`` marks a *guard* inserted by
    :func:`repro.lang.guards.guard_assumes`: it blocks like any assume
    but adds no control dependency to the statements after it.
    """

    cond: Expr
    taint: bool = True


@dataclass(frozen=True)
class Assert(Stmt):
    """Report an error in every execution where ``cond`` is false."""

    cond: Expr
    message: str = "assertion failed"
