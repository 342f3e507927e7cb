"""HOOK-NONE: hook parameters default to None and are guarded before use.

The ``inject`` (fault-injection) and ``telem`` (telemetry) hooks share one
discipline that two guarantees rest on: a hook attribute or parameter is
``None`` by default — so an uninstrumented system is byte-identical to one
that never heard of hooks — and every *use* (calling through the hook,
entering one of its context managers) sits under an ``is not None`` guard.
FAULT-HOOK and TELEM-API confine who may *touch* the hooks; this rule
checks the two local obligations every toucher still carries:

* a function parameter named ``inject``/``telem`` must carry a literal
  ``None`` default (a required hook parameter forces every caller to be
  instrumented, inverting the opt-in design);
* a call through a hook expression (``self.telem.emit(...)``,
  ``telem.count(...)``, ``engine.inject.poll(...)``) must be dominated by
  a ``<hook> is not None`` test on the same dotted path, including guards
  via early return (``if self.telem is None: ... return``), ``and``
  conjuncts, and locals bound from an already-guarded hook
  (``telem = self.telem``).

The guard analysis is the flow-sensitive pass from
:mod:`repro.analysis.dataflow`; facts survive across unrelated calls —
reattaching a hook mid-function would be a FAULT-HOOK/TELEM-API violation
anyway.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple, Union

from ..core import Finding, Rule, SourceFile
from ..dataflow import Env, FunctionFlow, expr_key

#: Attribute/parameter names carrying optional protocol hooks.
HOOK_NAMES = frozenset({"inject", "telem"})

#: Guard states tracked per dotted hook path.
_NONNULL = "nonnull"
_NULL = "null"


def _hook_path(expr: ast.expr) -> Optional[str]:
    """Dotted key of *expr* when its final segment is a hook name."""
    key = expr_key(expr)
    if key is None:
        return None
    return key if key.split(".")[-1] in HOOK_NAMES else None


class _GuardFlow(FunctionFlow):
    """Track which hook paths are proven non-None; flag unguarded calls."""

    def __init__(self, hook_locals: Set[str]) -> None:
        super().__init__()
        #: Bare names known to hold a hook value (parameters named like
        #: hooks, locals assigned from a hook path).
        self.hook_locals = set(hook_locals)
        self.violations: List[ast.expr] = []
        self._flagged: Set[Tuple[int, int]] = set()

    def join_values(self, a: object, b: object) -> object:
        return a if a == b else None

    def on_none_test(self, key: str, is_none: bool, env: Env,
                     test: ast.expr) -> None:
        env[key] = _NULL if is_none else _NONNULL

    def on_assign(self, target: ast.expr, value: Optional[ast.expr],
                  env: Env, stmt: ast.stmt) -> None:
        key = expr_key(target)
        if key is None:
            return
        if value is None:
            env.pop(key, None)
            return
        source = expr_key(value)
        if source is not None and source in env:
            # ``telem = self.telem`` inherits the guard state, and the
            # local becomes a hook alias worth tracking.
            env[key] = env[source]
            if source in self.hook_locals \
                    or (_hook_path(value) is not None):
                self.hook_locals.add(key)
            return
        if _hook_path(value) is not None and isinstance(target, ast.Name):
            self.hook_locals.add(target.id)
        if isinstance(value, ast.Constant) and value.value is None:
            env[key] = _NULL
        else:
            env.pop(key, None)

    def on_expr(self, expr: ast.expr, env: Env, stmt: ast.stmt) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = func.value
            path = _hook_path(receiver)
            if path is None:
                if isinstance(receiver, ast.Name) \
                        and receiver.id in self.hook_locals:
                    path = receiver.id
                else:
                    continue
            if env.get(path) != _NONNULL:
                anchor = (getattr(node, "lineno", 0),
                          getattr(node, "col_offset", 0))
                if anchor not in self._flagged:
                    self._flagged.add(anchor)
                    self.violations.append(node)


class HookNoneRule(Rule):
    """Hooks: None defaults, guarded use."""

    id = "HOOK-NONE"
    summary = ("inject/telem hook without a None default or used without "
               "an `is not None` guard")
    rationale = ("the disabled-hook guarantee (an uninstrumented run is "
                 "byte-identical and pays one attribute test) requires "
                 "every hook to default to None and every use to be "
                 "dominated by an is-not-None guard; one unguarded call "
                 "crashes exactly the runs that are not instrumented")
    exempt_patterns: Tuple[str, ...] = (
        "*/repro/telemetry/*",
        "*/repro/faultinject/*",
    )

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            findings.extend(self._check_defaults(src, node))
            findings.extend(self._check_guards(src, node))
        return findings

    def _check_defaults(
            self, src: SourceFile,
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[Finding]:
        findings: List[Finding] = []
        args = node.args
        positional = args.posonlyargs + args.args
        defaults: List[Optional[ast.expr]] = [None] * (
            len(positional) - len(args.defaults)) + list(args.defaults)
        rows = list(zip(positional, defaults)) \
            + list(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in rows:
            if arg.arg not in HOOK_NAMES:
                continue
            if not (isinstance(default, ast.Constant)
                    and default.value is None):
                findings.append(self.finding(
                    src, arg,
                    f"hook parameter `{arg.arg}` must default to None so "
                    f"uninstrumented callers stay uninstrumented"))
        return findings

    def _check_guards(
            self, src: SourceFile,
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[Finding]:
        args = node.args
        hook_params = {arg.arg
                       for arg in args.posonlyargs + args.args
                       + args.kwonlyargs
                       if arg.arg in HOOK_NAMES}
        flow = _GuardFlow(hook_params)
        # The engine skips nested def statements, so each function body is
        # analyzed exactly once (the outer walk visits nested defs itself).
        flow.run(node)
        return [self.finding(
            src, call,
            "hook used without an `is not None` guard on this path; "
            "uninstrumented runs hold None here")
            for call in flow.violations]
