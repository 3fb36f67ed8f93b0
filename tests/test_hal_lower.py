"""The AST continuation-splitting frontend (repro.hal.lower): plain-def
methods rewritten into the generator form the runtime executes, the
grouping dependence rule, the structured CompileError diagnostics, and
frontend equivalence (plain-def vs explicit-yield twins must produce
the same continuation structure and the same final state on every
backend)."""

from __future__ import annotations

import ast
import inspect

import pytest

from repro import behavior, method
from repro.actors.behavior import behavior_of
from repro.apps.fibonacci import FibActor, FibActorGen, fib_value
from repro.config import RuntimeConfig
from repro.errors import CompileError
from repro.hal.compiler import compile_behaviors
from repro.hal.lower import is_request_call, lower_method, walk_scope
from repro.runtime.system import HalRuntime


# ----------------------------------------------------------------------
# sample plain-def bodies (module level so their source is on disk)
# ----------------------------------------------------------------------
def single(self, ctx, a):
    x = ctx.request(a, "value")
    return x + 1


def grouped(self, ctx, a, b):
    x = ctx.request(a, "value")
    y = ctx.request(b, "value")
    return x + y


def dependent(self, ctx, a):
    x = ctx.request(a, "value")
    y = ctx.request(a, "combine", x)
    return y


def call_in_arg(self, ctx, a, b):
    x = ctx.request(a, "value")
    y = ctx.request(b, "value", abs(-1))
    return x + y


def expr_stmt(self, ctx, a):
    ctx.request(a, "value")
    return 0


def return_request(self, ctx, a):
    return ctx.request(a, "value")


def return_group(self, ctx, a, b):
    return ctx.request(a, "value"), ctx.request(b, "value")


def explicit_group(self, ctx, a, b):
    x, y = ctx.request(a, "value"), ctx.request(b, "value")
    return x + y


def branchy(self, ctx, a, b, flag):
    if flag:
        x = ctx.request(a, "value")
    else:
        x = ctx.request(b, "value")
    return x


def no_requests(self, ctx, x):
    return x * 2


def already_generator(self, ctx, a):
    v = yield ctx.request(a, "value")
    return v


def in_condition(self, ctx, a):
    if ctx.request(a, "value"):
        return 1
    return 0


def inside_call(self, ctx, a):
    return abs(ctx.request(a, "value"))


def nested_def(self, ctx, a):
    def helper():
        return ctx.request(a, "value")
    return helper()


def mixed_group(self, ctx, a):
    x, y = ctx.request(a, "value"), 3
    return x + y


def arity_group(self, ctx, a, b):
    x, y, z = ctx.request(a, "value"), ctx.request(b, "value")
    return x + y + z


def nested_request(self, ctx, a, b):
    x = ctx.request(a, "combine", ctx.request(b, "value"))
    return x


def make_closure_method():
    secret = 41

    def closing(self, ctx, a):
        v = ctx.request(a, "value")
        return v + secret

    return closing


def lower(fn):
    lm = lower_method("B", fn.__name__, fn)
    assert lm is not None
    return lm


# ----------------------------------------------------------------------
# lowering units
# ----------------------------------------------------------------------
class TestLowering:
    def test_single_request_becomes_one_split(self):
        lm = lower(single)
        assert lm.sites == 1
        assert lm.joins == [(1, False)]
        assert inspect.isgeneratorfunction(lm.fn)
        assert lm.fn.__hal_lowered__

    def test_independent_adjacent_requests_share_a_join(self):
        lm = lower(grouped)
        assert lm.sites == 2
        assert lm.joins == [(2, True)]

    def test_dependent_requests_split_twice(self):
        lm = lower(dependent)
        assert lm.joins == [(1, False), (1, False)]

    def test_effectful_argument_disables_grouping(self):
        # abs(-1) is a call: the second request is not provably
        # effect-free, so it keeps its own split point.
        lm = lower(call_in_arg)
        assert lm.joins == [(1, False), (1, False)]

    def test_expression_statement_request_still_splits(self):
        assert lower(expr_stmt).joins == [(1, False)]

    def test_returned_request(self):
        assert lower(return_request).joins == [(1, False)]

    def test_returned_request_group(self):
        assert lower(return_group).joins == [(2, True)]

    def test_explicit_tuple_group(self):
        assert lower(explicit_group).joins == [(2, True)]

    def test_requests_in_both_branches(self):
        assert lower(branchy).joins == [(1, False), (1, False)]

    def test_no_requests_needs_no_lowering(self):
        assert lower_method("B", "no_requests", no_requests) is None

    def test_generator_frontend_is_left_alone(self):
        assert lower_method("B", "already_generator", already_generator) is None

    def test_lowering_is_idempotent(self):
        lm = lower(single)
        assert lower_method("B", "single", lm.fn) is None

    def test_lowered_linenos_are_absolute(self):
        lm = lower(grouped)
        first = grouped.__code__.co_firstlineno
        yields = [n for n in ast.walk(lm.node) if isinstance(n, ast.Yield)]
        assert yields and all(y.lineno > first for y in yields)

    def test_lowered_fn_is_a_drop_in(self):
        lm = lower(single)
        assert lm.fn.__name__ == single.__name__
        assert lm.fn.__qualname__ == single.__qualname__
        assert lm.fn.__module__ == single.__module__
        assert lm.fn.__code__.co_filename == single.__code__.co_filename

    def test_walk_scope_skips_nested_bodies(self):
        tree = ast.parse(
            "def outer():\n"
            "    a = 1\n"
            "    def inner():\n"
            "        b = 2\n"
            "    return a\n"
        )
        names = {n.id for n in walk_scope(tree.body[0])
                 if isinstance(n, ast.Name)}
        assert "a" in names and "b" not in names

    def test_is_request_call(self):
        req = ast.parse("ctx.request(a, 's')").body[0].value
        create = ast.parse("ctx.request_create(C, 1)").body[0].value
        other = ast.parse("ctx.send(a, 's')").body[0].value
        assert is_request_call(req)
        assert is_request_call(create)
        assert not is_request_call(other)


# ----------------------------------------------------------------------
# diagnostics: message format regressions
# ----------------------------------------------------------------------
def err_of(fn, name=None):
    with pytest.raises(CompileError) as ei:
        lower_method("Bank", name or fn.__name__, fn)
    return ei.value


class TestDiagnostics:
    def test_request_in_condition_rejected(self):
        e = err_of(in_condition)
        assert e.behavior == "Bank"
        assert e.method == "in_condition"
        assert e.lineno == in_condition.__code__.co_firstlineno + 1
        assert f"Bank.in_condition (line {e.lineno}):" in str(e)
        assert "cannot be split into a continuation" in str(e)

    def test_request_inside_call_rejected(self):
        e = err_of(inside_call)
        assert e.lineno == inside_call.__code__.co_firstlineno + 1
        assert "cannot be split into a continuation" in str(e)

    def test_request_in_nested_function_rejected(self):
        e = err_of(nested_def)
        assert "inside a nested function" in str(e)
        assert e.lineno == nested_def.__code__.co_firstlineno + 2

    def test_mixed_group_rejected(self):
        e = err_of(mixed_group)
        assert "malformed grouped request" in str(e)
        assert e.lineno == mixed_group.__code__.co_firstlineno + 1

    def test_group_arity_mismatch_rejected(self):
        e = err_of(arity_group)
        assert "malformed grouped request" in str(e)
        assert "3 targets for 2 grouped requests" in str(e)

    def test_request_inside_request_rejected(self):
        e = err_of(nested_request)
        assert "inside another request's arguments" in str(e)

    def test_closure_rejected(self):
        e = err_of(make_closure_method(), name="closing")
        assert "closes over" in str(e)
        assert e.behavior == "Bank" and e.method == "closing"


# ----------------------------------------------------------------------
# frontend equivalence
# ----------------------------------------------------------------------
def compiled(*classes, strict=True):
    return compile_behaviors(
        {behavior_of(c).name: behavior_of(c) for c in classes}, strict=strict
    )


class TestEquivalence:
    def test_twins_have_identical_continuation_shape(self):
        cp = compiled(FibActor, FibActorGen)
        plain = cp.dependence.continuations[("FibActor", "compute")]
        gen = cp.dependence.continuations[("FibActorGen", "compute")]
        assert plain.shape == gen.shape == ((2, True),)
        assert plain.lowered and not gen.lowered

    def test_twins_get_identical_dispatch_plans(self):
        cp = compiled(FibActor, FibActorGen)
        assert cp.behaviors["FibActor"].plan_for("compute", "compute") == "static"
        assert cp.behaviors["FibActorGen"].plan_for("compute", "compute") == "static"

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_twins_reach_identical_final_state(self, backend):
        n = 9
        results = {}
        for cls in (FibActor, FibActorGen):
            rt = HalRuntime(RuntimeConfig(num_nodes=2, seed=7, backend=backend))
            try:
                rt.load_behaviors(cls)
                root = rt.spawn(cls, at=0)
                value = rt.call(root, "compute", n)
                results[cls.__name__] = (value, rt.total_actors())
            finally:
                rt.close()
        assert results["FibActor"] == results["FibActorGen"]
        assert results["FibActor"][0] == fib_value(n)

    def test_lowered_method_runs_on_inline_static_path(self):
        rt = HalRuntime(RuntimeConfig(num_nodes=1, seed=7))
        try:
            rt.load_behaviors(FibActor)
            root = rt.spawn(FibActor, at=0)
            assert rt.call(root, "compute", 8) == fib_value(8)
            assert rt.stats.counter("exec.inline_static") > 0
        finally:
            rt.close()
