"""The concurrent register-machine DSL and its interpreter."""

from .builder import BlockBuilder, ProgramBuilder, ThreadBuilder
from .expr import BinOp, Const, EvalError, Expr, Reg, Tainted, lift
from .guards import guard_assumes
from .interpreter import ReplayStatus, ThreadReplay, replay
from .mappings import compile_to, mapping_targets
from .program import Program
from .stmt import (
    Assert,
    Assign,
    Assume,
    Cas,
    Fai,
    Fence,
    If,
    Load,
    LocExpr,
    Repeat,
    Stmt,
    Store,
    Xchg,
    loc,
)

__all__ = [
    "Assert",
    "Assign",
    "Assume",
    "BinOp",
    "BlockBuilder",
    "Cas",
    "Const",
    "EvalError",
    "Expr",
    "Fai",
    "Fence",
    "guard_assumes",
    "If",
    "Load",
    "LocExpr",
    "Program",
    "compile_to",
    "mapping_targets",
    "ProgramBuilder",
    "Reg",
    "Repeat",
    "ReplayStatus",
    "Stmt",
    "Store",
    "Tainted",
    "ThreadBuilder",
    "ThreadReplay",
    "Xchg",
    "lift",
    "loc",
    "replay",
]
