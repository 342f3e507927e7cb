"""Flow-sensitive forward dataflow over one function body.

HOOK-NONE asks a path question a syntactic walk cannot answer: *is this
hook call dominated by an ``is not None`` guard*.  :class:`FunctionFlow`
answers it: an abstract interpreter over a function's statement list that

* threads an environment (``name -> abstract value``) through straight-line
  code, joining at ``if``/loop/``try`` merge points;
* runs loops to a bounded fixpoint (two passes — the lattices here have
  no infinite ascending chains through a loop body);
* walks a ``try`` statement's handlers and ``finally`` suite against its
  exceptional state — the join of the environments *entering* each
  statement of the protected region (a statement that raises never
  completed its own binding), which also covers every early exit;
* refines environments on ``x is None`` / ``x is not None`` tests, through
  ``not`` and the conjuncts of ``and`` chains and ``assert`` statements.

Exceptions are modeled at statement granularity via explicit control flow
(``raise``, ``try`` escape edges); an arbitrary expression is not assumed
to raise.  Rules subclass and override the ``on_*`` transfer hooks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple, Union

Env = Dict[str, object]

#: Loop bodies are re-walked at most this many times; the domains used by
#: the rules stabilize after one re-walk (values only widen toward UNKNOWN).
_LOOP_PASSES = 2


def expr_key(expr: ast.expr) -> Optional[str]:
    """Dotted key of a Name/Attribute chain (``self.telem``), else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class FunctionFlow:
    """Forward abstract interpretation engine; subclass per analysis."""

    def __init__(self) -> None:
        #: Environments entering each statement of every active ``try``
        #: region — the exceptional-escape states of those regions.
        self._try_collectors: List[List[Env]] = []

    # -------------------------------------------------------- lattice hooks

    def join_values(self, a: object, b: object) -> object:
        """Join two abstract values bound to the same name."""
        return a if a == b else None

    def join_env(self, a: Env, b: Env) -> Env:
        """Join two environments; a fact bound on one side only is dropped."""
        out: Env = {}
        for key in set(a) & set(b):
            joined = self.join_values(a[key], b[key])
            if joined is not None:
                out[key] = joined
        return out

    def _join_all(self, envs: Sequence[Env]) -> Optional[Env]:
        live = list(envs)
        if not live:
            return None
        out = dict(live[0])
        for env in live[1:]:
            out = self.join_env(out, env)
        return out

    # ------------------------------------------------------- transfer hooks

    def on_expr(self, expr: ast.expr, env: Env, stmt: ast.stmt) -> None:
        """Called once per evaluated expression (pre-assignment)."""

    def on_assign(self, target: ast.expr, value: Optional[ast.expr],
                  env: Env, stmt: ast.stmt) -> None:
        """Transfer one binding; default kills tracked facts for the name."""
        key = expr_key(target)
        if key is not None:
            env.pop(key, None)

    def on_delete(self, target: ast.expr, env: Env, stmt: ast.stmt) -> None:
        key = expr_key(target)
        if key is not None:
            env.pop(key, None)

    def on_none_test(self, key: str, is_none: bool, env: Env,
                     test: ast.expr) -> None:
        """Refine *env* under a known-outcome ``key is [not] None`` test."""

    # ---------------------------------------------------------- entry point

    def run(self, node: ast.AST, initial: Optional[Env] = None) -> None:
        """Interpret one FunctionDef/AsyncFunctionDef body."""
        body = getattr(node, "body", [])
        env: Env = dict(initial) if initial else {}
        self._walk_body(list(body), env, loop_exits=None)

    # --------------------------------------------------------- statement walk

    def _walk_body(self, stmts: List[ast.stmt], env: Env,
                   loop_exits: Optional[Tuple[List[Env], List[Env]]]
                   ) -> Optional[Env]:
        """Walk a suite; returns the fall-through env or None (unreachable)."""
        current: Optional[Env] = env
        for stmt in stmts:
            if current is None:
                break
            for collector in self._try_collectors:
                collector.append(dict(current))
            current = self._walk_stmt(stmt, current, loop_exits)
        return current

    def _walk_stmt(self, stmt: ast.stmt, env: Env,
                   loop_exits: Optional[Tuple[List[Env], List[Env]]]
                   ) -> Optional[Env]:
        if isinstance(stmt, ast.Assign):
            self.on_expr(stmt.value, env, stmt)
            for target in stmt.targets:
                self._assign_target(target, stmt.value, env, stmt)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.on_expr(stmt.value, env, stmt)
            self._assign_target(stmt.target, stmt.value, env, stmt)
            return env
        if isinstance(stmt, ast.AugAssign):
            self.on_expr(stmt.value, env, stmt)
            self.on_expr(stmt.target, env, stmt)
            # ``x += e`` is an in-place update, not a rebinding: tracked
            # facts about the target survive.
            return env
        if isinstance(stmt, ast.Expr):
            self.on_expr(stmt.value, env, stmt)
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.on_expr(stmt.value, env, stmt)
            return None
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.on_expr(stmt.exc, env, stmt)
            return None
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, env, loop_exits)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._walk_loop(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, env, loop_exits)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.on_expr(item.context_expr, env, stmt)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars,
                                        item.context_expr, env, stmt)
            return self._walk_body(stmt.body, env, loop_exits)
        if isinstance(stmt, ast.Assert):
            self.on_expr(stmt.test, env, stmt)
            self._refine(stmt.test, env, positive=True)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.on_delete(target, env, stmt)
            return env
        if isinstance(stmt, ast.Break):
            if loop_exits is not None:
                loop_exits[0].append(dict(env))
            return None
        if isinstance(stmt, ast.Continue):
            if loop_exits is not None:
                loop_exits[1].append(dict(env))
            return None
        if isinstance(stmt, ast.Match):
            self.on_expr(stmt.subject, env, stmt)
            falls = []
            for case in stmt.cases:
                out = self._walk_body(case.body, dict(env), loop_exits)
                if out is not None:
                    falls.append(out)
            falls.append(env)  # no case may match
            joined = self._join_all(falls)
            return joined
        # Nested defs/classes, imports, global/nonlocal, pass: no effect on
        # this function's frame (nested bodies are analyzed on their own).
        return env

    def _assign_target(self, target: ast.expr, value: Optional[ast.expr],
                       env: Env, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) \
                    else element
                self._assign_target(inner, None, env, stmt)
            return
        self.on_assign(target, value, env, stmt)

    # ------------------------------------------------------------ branching

    def _walk_if(self, stmt: ast.If, env: Env,
                 loop_exits: Optional[Tuple[List[Env], List[Env]]]
                 ) -> Optional[Env]:
        self.on_expr(stmt.test, env, stmt)
        true_env = dict(env)
        false_env = dict(env)
        self._refine(stmt.test, true_env, positive=True)
        self._refine(stmt.test, false_env, positive=False)
        outs = []
        out = self._walk_body(stmt.body, true_env, loop_exits)
        if out is not None:
            outs.append(out)
        out = self._walk_body(stmt.orelse, false_env, loop_exits)
        if out is not None:
            outs.append(out)
        return self._join_all(outs)

    def _refine(self, test: ast.expr, env: Env, positive: bool) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._refine(test.operand, env, not positive)
            return
        if isinstance(test, ast.BoolOp):
            # Only the branch where the whole chain's outcome pins every
            # operand's outcome can refine: a taken ``and`` means every
            # conjunct was true; a fallen-through ``or`` means all false.
            if (isinstance(test.op, ast.And) and positive) or \
                    (isinstance(test.op, ast.Or) and not positive):
                for operand in test.values:
                    self._refine(operand, env, positive)
            return
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None \
                and isinstance(test.ops[0], (ast.Is, ast.IsNot)):
            key = expr_key(test.left)
            if key is not None:
                is_none = isinstance(test.ops[0], ast.Is) == positive
                self.on_none_test(key, is_none, env, test)

    # ----------------------------------------------------------------- loops

    def _walk_loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor],
                   env: Env) -> Optional[Env]:
        test = stmt.test if isinstance(stmt, ast.While) else None
        if test is not None:
            self.on_expr(test, env, stmt)
        iterable = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
            else None
        if iterable is not None:
            self.on_expr(iterable, env, stmt)
        breaks: List[Env] = []
        current = dict(env)
        for _ in range(_LOOP_PASSES):
            body_env = dict(current)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._assign_target(stmt.target, None, body_env, stmt)
            continues: List[Env] = []
            out = self._walk_body(list(stmt.body), body_env,
                                  loop_exits=(breaks, continues))
            candidates = [current] + continues + ([out] if out is not None
                                                 else [])
            merged = self._join_all(candidates)
            assert merged is not None  # ``current`` is always a candidate
            if merged == current:
                break
            current = merged
        infinite = (test is not None and isinstance(test, ast.Constant)
                    and bool(test.value))
        after: List[Env] = [] if infinite else [current]
        after.extend(breaks)
        orelse = list(getattr(stmt, "orelse", []))
        if orelse and not infinite:
            out = self._walk_body(orelse, dict(current), loop_exits=None)
            if out is None:
                after = list(breaks)
            # else: the orelse effects fold into ``current`` conservatively
        return self._join_all(after)

    # ------------------------------------------------------------------- try

    def _walk_try(self, stmt: ast.Try, env: Env,
                  loop_exits: Optional[Tuple[List[Env], List[Env]]]
                  ) -> Optional[Env]:
        # Every statement's entry state, joined, is where an exception (or
        # an early exit) can leave the region: the body's for the
        # handlers, the body's and the handlers' for ``finally``.
        collector: List[Env] = [dict(env)]
        handler_outs: List[Env] = []
        self._try_collectors.append(collector)
        try:
            body_out = self._walk_body(stmt.body, dict(env), loop_exits)
            escape = self._join_all(collector)
            assert escape is not None  # the entry state is always collected
            for handler in stmt.handlers:
                handler_env = dict(escape)
                if handler.name:
                    handler_env.pop(handler.name, None)
                out = self._walk_body(handler.body, handler_env, loop_exits)
                if out is not None:
                    handler_outs.append(out)
        finally:
            self._try_collectors.pop()
        if stmt.orelse and body_out is not None:
            body_out = self._walk_body(stmt.orelse, body_out, loop_exits)
        fall_through = self._join_all(
            [e for e in [body_out] + handler_outs if e is not None])
        if not stmt.finalbody:
            return fall_through
        unwind = self._join_all(collector)
        assert unwind is not None
        self._walk_body(list(stmt.finalbody), unwind, loop_exits=None)
        if fall_through is None:
            return None
        return self._walk_body(list(stmt.finalbody), fall_through,
                               loop_exits)
