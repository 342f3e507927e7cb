"""The dataflow engine under HOOK-NONE: the rule's analysis substrate.

``is None`` refinement, early-exit guards, try/finally escape states and
loop fixpoints are pinned here in isolation, so a rule regression can be
bisected to either the rule or the engine.  Each test reads the
environment that reaches a ``probe(tag)`` call.
"""

import ast

from repro.analysis.dataflow import FunctionFlow, expr_key


def run_flow(flow, text, initial=None):
    node = ast.parse(text).body[0]
    flow.run(node, initial)
    return flow


class _Probe(FunctionFlow):
    """Record the environment reaching every ``probe(tag)`` call."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_expr(self, expr, env, stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "probe":
                self.seen.append((node.args[0].value, dict(env)))


class _NoneTracker(_Probe):
    """Track ``x is [not] None`` refinements like HOOK-NONE does."""

    def on_none_test(self, key, is_none, env, test):
        env[key] = "null" if is_none else "nonnull"


class _Binder(_Probe):
    """Mark every bound local name."""

    def on_assign(self, target, value, env, stmt):
        if isinstance(target, ast.Name):
            env[target.id] = "bound"


class TestFunctionFlow:
    def test_is_none_refinement_splits_branches(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is not None:\n"
            "        return probe('armed')\n"
            "    return probe('idle')\n"))
        assert dict(flow.seen) == {"armed": {"self.telem": "nonnull"},
                                   "idle": {"self.telem": "null"}}

    def test_early_return_guard_dominates_the_tail(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is None:\n"
            "        return\n"
            "    probe('tail')\n"))
        assert flow.seen == [("tail", {"self.telem": "nonnull"})]

    def test_not_and_conjunction_refine_through(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self, ready):\n"
            "    if not (self.telem is None) and ready:\n"
            "        return probe('armed')\n"
            "    return probe('idle')\n"))
        armed = dict(flow.seen)["armed"]
        assert armed["self.telem"] == "nonnull"

    def test_assignment_kills_stale_facts(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is None:\n"
            "        return\n"
            "    self.telem = make()\n"
            "    return probe('after')\n"))
        assert flow.seen == [("after", {})]

    def test_finally_sees_the_exceptional_environment(self):
        # The raise happens before ``after`` binds: the escape state is
        # the join of *pre-statement* states, so ``finally`` must not
        # assume ``after`` bound; the fall-through past it binds both.
        flow = run_flow(_Binder(), (
            "def f():\n"
            "    before = 1\n"
            "    try:\n"
            "        boom()\n"
            "        after = 2\n"
            "    finally:\n"
            "        probe('finally')\n"
            "    return probe('tail')\n"))
        finals = [env for tag, env in flow.seen if tag == "finally"]
        assert {"before": "bound"} in finals
        assert dict(flow.seen)["tail"] == {"before": "bound",
                                           "after": "bound"}

    def test_loop_body_facts_reach_a_fixpoint(self):
        flow = run_flow(_Binder(), (
            "def f(wear):\n"
            "    for i in range(3):\n"
            "        row = wear[i]\n"
            "    probe('done')\n"))
        # Terminates (bounded passes); ``row`` may be unbound after a
        # loop that never ran, so the join drops it.
        assert dict(flow.seen)["done"] == {}

class TestExprKey:
    def test_dotted_chains(self):
        assert expr_key(ast.parse("self.telem", mode="eval").body) \
            == "self.telem"
        assert expr_key(ast.parse("x", mode="eval").body) == "x"
        assert expr_key(ast.parse("f().x", mode="eval").body) is None
