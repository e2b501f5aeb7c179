"""ROBDD package: canonicity, boolean algebra, quantification, counting."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.bdd import BDD


@pytest.fixture
def bdd():
    manager = BDD()
    for name in ("a", "b", "c", "d"):
        manager.add_var(name)
    return manager


class TestBasics:
    def test_terminals(self, bdd):
        assert bdd.TRUE == 1 and bdd.FALSE == 0

    def test_variable_evaluation(self, bdd):
        a = bdd.var("a")
        assert bdd.evaluate(a, {"a": True})
        assert not bdd.evaluate(a, {"a": False})

    def test_negated_variable(self, bdd):
        na = bdd.nvar("a")
        assert bdd.evaluate(na, {"a": False})

    def test_canonicity_same_function_same_node(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f1 = bdd.or_(a, b)
        f2 = bdd.not_(bdd.and_(bdd.not_(a), bdd.not_(b)))  # De Morgan
        assert f1 == f2

    def test_double_negation(self, bdd):
        a = bdd.var("a")
        assert bdd.not_(bdd.not_(a)) == a

    def test_tautology_collapses_to_true(self, bdd):
        a = bdd.var("a")
        assert bdd.or_(a, bdd.not_(a)) == bdd.TRUE

    def test_contradiction_collapses_to_false(self, bdd):
        a = bdd.var("a")
        assert bdd.and_(a, bdd.not_(a)) == bdd.FALSE

    def test_xor_and_iff_duals(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.xor(a, b) == bdd.not_(bdd.iff(a, b))

    def test_implies(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.implies(a, b)
        assert bdd.evaluate(f, {"a": False, "b": False})
        assert not bdd.evaluate(f, {"a": True, "b": False})


class TestQuantification:
    def test_exists_removes_variable(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.and_(a, b)
        g = bdd.exists(["a"], f)
        assert g == b

    def test_exists_of_tautology_in_var(self, bdd):
        a = bdd.var("a")
        assert bdd.exists(["a"], a) == bdd.TRUE

    def test_forall(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.or_(a, b)
        assert bdd.forall(["a"], f) == b

    def test_rename(self, bdd):
        a, c = bdd.var("a"), bdd.var("c")
        f = bdd.rename(a, {"a": "c"})
        assert f == c

    def test_rename_swap_order_safe(self, bdd):
        # Rename d -> a moves a node *up* the order; composition handles it.
        d, b = bdd.var("d"), bdd.var("b")
        f = bdd.and_(d, b)
        g = bdd.rename(f, {"d": "a"})
        assert bdd.evaluate(g, {"a": True, "b": True})
        assert not bdd.evaluate(g, {"a": False, "b": True})

    def test_restrict(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.and_(a, b)
        assert bdd.restrict(f, {"a": True}) == b
        assert bdd.restrict(f, {"a": False}) == bdd.FALSE


class TestCountingAndSat:
    def test_count_single_variable(self, bdd):
        assert bdd.count_sat(bdd.var("a")) == 8  # 1 fixed, 3 free

    def test_count_conjunction(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.count_sat(f) == 4

    def test_count_true_false(self, bdd):
        assert bdd.count_sat(bdd.TRUE) == 16
        assert bdd.count_sat(bdd.FALSE) == 0

    def test_any_sat(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.nvar("c"))
        assignment = bdd.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **assignment}
        assert bdd.evaluate(f, full)

    def test_any_sat_of_false(self, bdd):
        assert bdd.any_sat(bdd.FALSE) is None

    def test_size(self, bdd):
        a = bdd.var("a")
        assert bdd.size(a) == 3  # node + two terminals


# ----------------------------------------------------------------------
# Property-based: BDD operations agree with truth tables.
# ----------------------------------------------------------------------
_VARS = ["a", "b", "c"]


@st.composite
def boolean_exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return ("var", draw(st.sampled_from(_VARS)))
    op = draw(st.sampled_from(["and", "or", "not", "xor"]))
    if op == "not":
        return ("not", draw(boolean_exprs(depth=depth + 1)))
    return (op, draw(boolean_exprs(depth=depth + 1)), draw(boolean_exprs(depth=depth + 1)))


def _eval_expr(expr, env):
    kind = expr[0]
    if kind == "var":
        return env[expr[1]]
    if kind == "not":
        return not _eval_expr(expr[1], env)
    left = _eval_expr(expr[1], env)
    right = _eval_expr(expr[2], env)
    return {"and": left and right, "or": left or right, "xor": left != right}[kind]


def _build_bdd(manager, expr):
    kind = expr[0]
    if kind == "var":
        return manager.var(expr[1])
    if kind == "not":
        return manager.not_(_build_bdd(manager, expr[1]))
    left = _build_bdd(manager, expr[1])
    right = _build_bdd(manager, expr[2])
    return {
        "and": manager.and_,
        "or": manager.or_,
        "xor": manager.xor,
    }[kind](left, right)


@settings(max_examples=80, deadline=None)
@given(boolean_exprs())
def test_bdd_matches_truth_table(expr):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    for values in itertools.product([False, True], repeat=len(_VARS)):
        env = dict(zip(_VARS, values))
        assert manager.evaluate(node, env) == _eval_expr(expr, env)


@settings(max_examples=40, deadline=None)
@given(boolean_exprs())
def test_count_sat_matches_truth_table(expr):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    expected = sum(
        _eval_expr(expr, dict(zip(_VARS, values)))
        for values in itertools.product([False, True], repeat=len(_VARS))
    )
    assert manager.count_sat(node, nvars=len(_VARS)) == expected


@settings(max_examples=40, deadline=None)
@given(boolean_exprs(), st.sampled_from(_VARS))
def test_exists_is_disjunction_of_cofactors(expr, var):
    manager = BDD()
    for name in _VARS:
        manager.add_var(name)
    node = _build_bdd(manager, expr)
    quantified = manager.exists([var], node)
    expected = manager.or_(
        manager.restrict(node, {var: False}), manager.restrict(node, {var: True})
    )
    assert quantified == expected


# ----------------------------------------------------------------------
# Every registered kernel: the protocol surface behaves identically.
# ----------------------------------------------------------------------
from repro.mc.kernel import (  # noqa: E402 (kernel section below the BDD suite)
    DEFAULT_KERNEL,
    available_kernels,
    make_kernel,
    resolve_kernel,
)


@pytest.fixture(params=available_kernels())
def kernel(request):
    """One instance of every concrete kernel registered in this process
    (reference, fast, plus dd where the optional package is installed)."""
    manager = make_kernel(request.param)
    for name in ("a", "b", "c", "d"):
        manager.add_var(name)
    return manager


class TestEveryKernel:
    def test_terminals_and_canonicity(self, kernel):
        a, b = kernel.var("a"), kernel.var("b")
        assert kernel.TRUE == 1 and kernel.FALSE == 0
        assert kernel.or_(a, b) == kernel.not_(
            kernel.and_(kernel.not_(a), kernel.not_(b))
        )
        assert kernel.and_(a, kernel.not_(a)) == kernel.FALSE

    # -- count_sat edge cases ------------------------------------------
    def test_count_sat_terminals(self, kernel):
        assert kernel.count_sat(kernel.TRUE) == 16
        assert kernel.count_sat(kernel.FALSE) == 0
        assert kernel.count_sat(kernel.TRUE, nvars=0) == 1

    def test_count_sat_explicit_nvars(self, kernel):
        a = kernel.var("a")
        assert kernel.count_sat(a, nvars=1) == 1
        assert kernel.count_sat(a, nvars=4) == 8

    def test_count_sat_after_new_var(self, kernel):
        f = kernel.and_(kernel.var("a"), kernel.var("b"))
        assert kernel.count_sat(f) == 4
        kernel.add_var("e")                      # widen the space
        assert kernel.count_sat(f) == 8

    # -- any_sat edge cases --------------------------------------------
    def test_any_sat_terminals(self, kernel):
        assert kernel.any_sat(kernel.FALSE) is None
        witness = kernel.any_sat(kernel.TRUE)
        assert witness is not None               # {} or any assignment
        assert kernel.evaluate(kernel.TRUE, dict(witness))

    def test_any_sat_witness_satisfies(self, kernel):
        f = kernel.and_(
            kernel.or_(kernel.var("a"), kernel.var("b")), kernel.nvar("c")
        )
        witness = kernel.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **witness}
        assert kernel.evaluate(f, full)

    def test_any_sat_single_model(self, kernel):
        f = kernel.and_(
            kernel.and_(kernel.var("a"), kernel.nvar("b")),
            kernel.and_(kernel.var("c"), kernel.nvar("d")),
        )
        witness = kernel.any_sat(f)
        full = {"a": False, "b": False, "c": False, "d": False, **witness}
        assert full == {"a": True, "b": False, "c": True, "d": False}

    # -- restrict edge cases -------------------------------------------
    def test_restrict_empty_assignment_is_identity(self, kernel):
        f = kernel.or_(kernel.var("a"), kernel.var("b"))
        assert kernel.restrict(f, {}) == f

    def test_restrict_irrelevant_variable(self, kernel):
        a = kernel.var("a")
        assert kernel.restrict(a, {"b": True}) == a
        assert kernel.restrict(a, {"b": False, "c": True}) == a

    def test_restrict_to_terminal(self, kernel):
        f = kernel.and_(kernel.var("a"), kernel.var("b"))
        assert kernel.restrict(f, {"a": True, "b": True}) == kernel.TRUE
        assert kernel.restrict(f, {"a": False}) == kernel.FALSE

    def test_restrict_is_cofactor(self, kernel):
        f = kernel.ite(kernel.var("a"), kernel.var("b"), kernel.var("c"))
        assert kernel.restrict(f, {"a": True}) == kernel.var("b")
        assert kernel.restrict(f, {"a": False}) == kernel.var("c")

    def test_restrict_then_quantify_consistency(self, kernel):
        f = kernel.xor(kernel.var("a"), kernel.var("b"))
        assert kernel.exists(["a"], f) == kernel.or_(
            kernel.restrict(f, {"a": False}), kernel.restrict(f, {"a": True})
        )

    # -- and_not (fused set difference) --------------------------------
    def test_and_not_matches_composition(self, kernel):
        a, b = kernel.var("a"), kernel.var("b")
        f = kernel.or_(a, b)
        g = kernel.and_(a, b)
        assert kernel.and_not(f, g) == kernel.and_(f, kernel.not_(g))
        assert kernel.and_not(f, g) == kernel.xor(a, b)

    def test_and_not_trivial_rules(self, kernel):
        a = kernel.var("a")
        assert kernel.and_not(kernel.FALSE, a) == kernel.FALSE
        assert kernel.and_not(a, kernel.TRUE) == kernel.FALSE
        assert kernel.and_not(a, a) == kernel.FALSE
        assert kernel.and_not(a, kernel.FALSE) == a
        assert kernel.and_not(kernel.TRUE, a) == kernel.not_(a)


@settings(max_examples=40, deadline=None)
@given(boolean_exprs(), boolean_exprs())
def test_and_not_matches_truth_table_on_every_kernel(left, right):
    for name in available_kernels():
        manager = make_kernel(name)
        for var in _VARS:
            manager.add_var(var)
        diff = manager.and_not(
            _build_bdd(manager, left), _build_bdd(manager, right)
        )
        for values in itertools.product([False, True], repeat=len(_VARS)):
            env = dict(zip(_VARS, values))
            expected = _eval_expr(left, env) and not _eval_expr(right, env)
            assert manager.evaluate(diff, env) == expected


@settings(max_examples=40, deadline=None)
@given(boolean_exprs(), boolean_exprs(), st.sets(st.sampled_from(_VARS)))
def test_and_exists_matches_truth_table_on_every_kernel(left, right, quantified):
    names = sorted(quantified)
    for name in available_kernels():
        manager = make_kernel(name)
        for var in _VARS:
            manager.add_var(var)
        f = _build_bdd(manager, left)
        g = _build_bdd(manager, right)
        fused = manager.and_exists(names, f, g)
        listed = manager.and_exists_list(names, [f, g])
        for values in itertools.product([False, True], repeat=len(_VARS)):
            env = dict(zip(_VARS, values))
            expected = any(
                _eval_expr(left, point) and _eval_expr(right, point)
                for bits in itertools.product([False, True], repeat=len(names))
                for point in [{**env, **dict(zip(names, bits))}]
            )
            assert manager.evaluate(fused, env) == expected
            assert manager.evaluate(listed, env) == expected


def test_fast_kernel_handles_orders_deeper_than_the_default_recursion_limit():
    """The fast kernel's apply loops recurse once per level: an order of
    2400 variables, past the interpreter's default limit of 1000 frames,
    still evaluates (x_i <-> y_i for every i, interleaved order)."""
    manager = make_kernel("fast")
    pairs = 1200
    xs, ys = [], []
    for i in range(pairs):
        xs.append(manager.add_var(f"x{i}"))
        ys.append(manager.add_var(f"y{i}"))
    equal = manager.TRUE
    some_x = manager.FALSE
    for x, y in zip(reversed(xs), reversed(ys)):
        same = manager.or_(
            manager.and_(x, y), manager.and_(manager.not_(x), manager.not_(y))
        )
        equal = manager.and_(same, equal)
        some_x = manager.or_(x, some_x)
    x_names = [f"x{i}" for i in range(pairs)]
    assert manager.count_sat(manager.and_not(equal, some_x)) == 1
    assert manager.count_sat(manager.and_exists(x_names, equal, some_x)) == (
        (2**pairs - 1) * 2**pairs
    )


def test_fast_kernel_apply_loops_leave_no_cyclic_garbage():
    """The recursive apply closures refer to themselves; each call must
    free its closure by reference counting, or every miss leaves a cycle
    for the collector and the program's collections grow with BDD work."""
    manager = make_kernel("fast")
    names = [f"v{i}" for i in range(8)]
    xs = [manager.add_var(name) for name in names]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = manager.FALSE
        for a, b in zip(xs[::2], xs[1::2]):
            acc = manager.or_(acc, manager.and_(a, b))
        manager.and_not(acc, xs[3])
        manager.and_exists(names[:4], acc, manager.or_(xs[0], xs[7]))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestKernelRegistry:
    def test_auto_resolves_to_fast(self):
        assert DEFAULT_KERNEL == "fast"
        assert resolve_kernel("auto") == "fast"
        assert type(make_kernel("auto")).__name__ == "FastKernel"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("zdd")

    def test_dd_gated_on_import(self):
        # The optional dd/CUDD kernel is opt-in where installed and a
        # clear error where not — and auto never resolves to it.
        try:
            import dd.autoref  # noqa: F401
        except ImportError:
            assert "dd" not in available_kernels()
            with pytest.raises(ValueError, match="dd"):
                resolve_kernel("dd")
        else:
            assert "dd" in available_kernels()
            assert resolve_kernel("dd") == "dd"
        assert resolve_kernel("auto") != "dd"
