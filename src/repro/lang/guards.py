"""Early assume guards: block a thread at the first failing conjunct.

An ``assume`` is evaluated where it is written, so a thread whose
condition is already false keeps loading — and the explorer keeps
branching on those loads — until it reaches the ``assume`` and blocks.
:func:`guard_assumes` splits each ``assume`` on ``&&`` and, for every
conjunct whose registers are all defined before some loads of the same
block, inserts a *guard* ``Assume(conjunct, taint=False)`` right after
the last statement that defines one of them.

Guards are sound because they only move a block earlier:

* a guard is false exactly when its conjunct is false at the original
  ``assume`` (the statements between them define none of its
  registers, and the walk crosses nothing but ``Load``/``Assign``,
  which can neither block nor assert), so a guard blocks only threads
  the ``assume`` would have blocked;
* a guard adds no control dependency (``taint=False``) and the original
  ``assume`` stays in place, unchanged, so a thread that passes its
  guards emits exactly the labels it emitted before, ``ctrl_deps``
  included, and a thread blocked by a guard emits a prefix of them.

The consistent executions, their outcomes and the error verdict are
therefore unchanged; only blocked (and erroneous) *graphs* lose their
dead-end suffixes.  The transformation never crosses a memory effect
other than a plain load (``Store``/``Cas``/``Fai``/``Xchg``/``Fence``),
an ``Assert``, or control flow, and never moves a guard out of its
block; it recurses into ``If`` and ``Repeat`` bodies.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

from .expr import BinOp, Const, Expr, Reg
from .program import Program
from .stmt import Assign, Assume, If, Load, Repeat, Stmt


def conjuncts(cond: Expr) -> list[Expr]:
    """``cond`` split on ``&&`` (the sub-expression objects themselves,
    left to right)."""
    if isinstance(cond, BinOp) and cond.op == "&&":
        return conjuncts(cond.left) + conjuncts(cond.right)
    return [cond]


def _registers(expr: Expr) -> frozenset[str] | None:
    """The registers ``expr`` reads, or None for an expression type
    this module does not know (it is then never guarded)."""
    if isinstance(expr, Reg):
        return frozenset([expr.name])
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, BinOp):
        left = _registers(expr.left)
        right = _registers(expr.right)
        if left is None or right is None:
            return None
        return left | right
    return None


def _is_guard(st: Stmt) -> bool:
    return isinstance(st, Assume) and not st.taint


def _guard_block(stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    body = [_guard_nested(st) for st in stmts]
    #: position -> guards to insert before ``stmts[position]``
    inserts: dict[int, list[Assume]] = {}
    for i, st in enumerate(stmts):
        if not isinstance(st, Assume) or _is_guard(st):
            continue
        for conj in conjuncts(st.cond):
            regs = _registers(conj)
            if regs is None:
                continue
            j = i
            crossed_load = False
            while j > 0:
                prev = stmts[j - 1]
                if isinstance(prev, (Load, Assign)):
                    if prev.reg in regs:
                        break
                    crossed_load = crossed_load or isinstance(prev, Load)
                elif not _is_guard(prev):
                    break
                j -= 1
            if not crossed_load:
                continue
            # skip a conjunct guarded already (by an earlier assume of
            # this pass, or by a previous pass over the same program)
            placed = inserts.get(j, [])
            existing = itertools.takewhile(_is_guard, stmts[j:])
            if not any(g.cond is conj for g in (*placed, *existing)):
                inserts.setdefault(j, []).append(Assume(conj, taint=False))
    if not inserts and all(a is b for a, b in zip(body, stmts)):
        return stmts
    out: list[Stmt] = []
    for i, st in enumerate(body):
        out.extend(inserts.get(i, ()))
        out.append(st)
    return tuple(out)


def _guard_nested(st: Stmt) -> Stmt:
    if isinstance(st, If):
        then = _guard_block(st.then)
        orelse = _guard_block(st.orelse)
        if then is st.then and orelse is st.orelse:
            return st
        return If(st.cond, then, orelse)
    if isinstance(st, Repeat):
        body = _guard_block(st.body)
        return st if body is st.body else Repeat(st.count, body)
    return st


@functools.lru_cache(maxsize=256)
def guard_assumes(program: Program) -> Program:
    """``program`` with early guards for its ``assume`` conjuncts (see
    the module docstring); ``program`` itself when none applies.

    Memoised per program (bounded), so the explorers built for one
    program in one process (a split's coordinator, inline suite tasks,
    estimation) transform it once; a pool worker transforms its own
    unpickled copy, deterministically the same way.
    """
    threads = tuple(_guard_block(thread) for thread in program.threads)
    if all(a is b for a, b in zip(threads, program.threads)):
        return program
    return dataclasses.replace(program, threads=threads)


@functools.lru_cache(maxsize=256)
def statement_sites(thread: tuple[Stmt, ...]) -> dict[Stmt, str]:
    """The site of every ``Assume`` in ``thread``.

    A site is the statement's index path in the thread as written
    (guards are not counted), ``.``-joined, with ``then``/``else``/
    ``body`` naming the nested block: ``"4"``, ``"2.then.1"``.  A
    guard's site is the site of the ``assume`` it was split from plus
    ``":guard"``.
    """
    sites: dict[Stmt, str] = {}

    def walk(stmts: tuple[Stmt, ...], prefix: str) -> None:
        index = 0
        guards: list[Assume] = []
        for st in stmts:
            if _is_guard(st):
                guards.append(st)
                continue
            site = f"{prefix}{index}"
            index += 1
            if isinstance(st, Assume):
                sites.setdefault(st, site)
                for part in conjuncts(st.cond):
                    for guard in guards:
                        if guard.cond is part:
                            sites.setdefault(guard, f"{site}:guard")
            elif isinstance(st, If):
                walk(st.then, f"{site}.then.")
                walk(st.orelse, f"{site}.else.")
            elif isinstance(st, Repeat):
                walk(st.body, f"{site}.body.")

    walk(thread, "")
    return sites
