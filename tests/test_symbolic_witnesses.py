"""Symbolic witness decoding: traces must be real explicit-Kripke paths.

The differential suite (tests/test_backends_differential.py) pins verdict
agreement; this suite pins the *witnesses*.  A symbolic counterexample is
decoded from BDD frontiers without ever materializing the product, so a
decoding bug could fabricate states or steps that the real structure does
not contain — and every report, state label, and culprit-app attribution
downstream would silently lie.  For a handful of Table-4/MalIoT
environments:

* every decoded **AG shortest-path** witness must start in an initial
  state of the explicit Kripke structure, follow real edges, end in a
  state violating the operand, and be exactly as long as the explicit
  BFS distance to such a state (plus one);
* every top-level verdict agrees with the ``sat()`` fixpoint semantics
  (the checker answers a top-level ``AG p`` from the reachable set and
  decodes its witness from the encoder's frontiers; the oracle is
  ``initial & !sat(f)`` and a BFS grown from those failing states);
* a user-written ``guard -> AG p`` agrees with the explicit checker;
* every decoded **AF lasso** witness (stem + cycle) must follow real
  edges, close its cycle, and stay inside the structure.

Witnesses are compared on ``(state, incoming-props)`` — counterexamples
are not unique, so only *validity* is asserted, never equality with the
explicit checker's pick.
"""

from collections import deque

import pytest

from repro.corpus import groundtruth
from repro.corpus.batch import analyze_batch
from repro.corpus.sweep import groups_sharing_devices
from repro.mc import ctl
from repro.mc.explicit import ExplicitChecker
from repro.mc.symbolic import SymbolicModelChecker
from repro.model.encoder import SymbolicUnionModel, encode_union
from repro.model.union import build_union_skeleton
from repro.soteria import analyze_environment

#: A handful of curated environments with known *CTL* violations (the
#: S-only groups fail at model construction and leave no witnesses).
ENVIRONMENTS = [
    pytest.param(tuple(groundtruth.TABLE4_GROUPS[2].apps), id="G.3"),
] + [
    pytest.param(tuple(ids), id="+".join(ids))
    for ids, _prop in groundtruth.MALIOT_ENVIRONMENTS[:2]
]


def _norm(node):
    """Order-insensitive node identity: (state tuple, incoming props)."""
    return (node.state, frozenset(node.incoming))


def _explicit_graph(group):
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    environment = analyze_environment(list(members), backend="explicit")
    kripke = environment.kripke
    nodes = {_norm(state) for state in kripke.states}
    edges = {
        (_norm(src), _norm(dst))
        for src, dsts in kripke.succ.items()
        for dst in dsts
    }
    initial = {_norm(state) for state in kripke.initial}
    return members, nodes, edges, initial, ExplicitChecker(kripke)


def _assert_path(path, nodes, edges):
    for node in path:
        assert _norm(node) in nodes, f"decoded state not in structure: {node}"
    for src, dst in zip(path, path[1:]):
        assert (_norm(src), _norm(dst)) in edges, (
            f"decoded step is not an explicit edge: {src} -> {dst}"
        )


def _bfs_distance(sources, edges, targets):
    """Fewest explicit steps from ``sources`` into ``targets`` (or None)."""
    succ: dict = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    depth = {node: 0 for node in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        if node in targets:
            return depth[node]
        for nxt in succ.get(node, ()):
            if nxt not in depth:
                depth[nxt] = depth[node] + 1
                queue.append(nxt)
    return None


def _assert_ag_witness(path, formula, edges, initial, explicit):
    """A shortest AG witness: it ends in a ``!p`` state at BFS distance."""
    kripke = explicit.kripke
    satisfied = explicit.sat(formula.operand)
    violating = {_norm(s) for s in kripke.states if s not in satisfied}
    assert _norm(path[-1]) in violating, (
        f"AG witness does not end in a state violating {formula.operand}"
    )
    assert len(path) == _bfs_distance(initial, edges, violating) + 1, (
        f"AG witness for {formula} is not a shortest path"
    )


def _assert_agrees_with_fixpoint(checker, formulas):
    """``check`` against the ``sat()`` fixpoint semantics as the oracle.

    The verdict must be ``initial & !sat(f) == FALSE``; a violated
    top-level ``AG p`` must carry exactly the witness a BFS grown from
    those failing initial states decodes.
    """
    bdd = checker.bdd
    symbolic = checker.symbolic
    for formula in formulas:
        result = checker.check(formula)
        failing = bdd.and_not(symbolic.initial, checker.sat(formula))
        assert result.holds == (failing == bdd.FALSE), formula
        if result.holds or not isinstance(formula, ctl.AG):
            continue
        bad = bdd.and_not(symbolic.reachable, checker.sat(formula.operand))
        assert result.counterexample == checker._shortest_path(failing, bad), formula
        assert result.failing_states == result.counterexample[:1]


def _checked_formulas(environment):
    return [
        result.formula
        for results in environment.check_results.values()
        for result in results
    ]


@pytest.mark.parametrize("group", ENVIRONMENTS)
def test_ag_witnesses_are_explicit_paths(group):
    members, nodes, edges, initial, explicit = _explicit_graph(group)
    symbolic = analyze_environment(list(members), backend="symbolic")
    checked = 0
    for results in symbolic.check_results.values():
        for result in results:
            if result.holds or not result.counterexample:
                continue
            path = result.counterexample
            if result.counterexample_loop:
                continue  # lassos are covered below
            _assert_path(path, nodes, edges)
            if isinstance(result.formula, ctl.AG):
                _assert_ag_witness(path, result.formula, edges, initial, explicit)
            if len(path) > 1:  # a real AG path, not a generic witness stub
                assert _norm(path[0]) in initial, (
                    "AG witness does not start in an initial state"
                )
                checked += 1
    assert checked, "no AG witnesses found in a known-violating environment"

    checker = SymbolicModelChecker(
        encode_union([analysis.model for analysis in members])
    )
    _assert_agrees_with_fixpoint(checker, _checked_formulas(symbolic))


def test_ag_verdicts_agree_with_fixpoint_on_largest_sweep_cluster():
    """The 51-app device-sharing cluster of ``soteria sweep all`` — too
    big for the explicit checker — against the fixpoint oracle."""
    group = max(groups_sharing_devices("all"), key=len)
    analyses = analyze_batch(list(group), jobs=1)
    members = [analyses[app_id] for app_id in group]
    environment = analyze_environment(list(members), backend="symbolic")
    formulas = _checked_formulas(environment)
    assert len(group) > 40 and formulas
    assert environment.violated_ids(), "cluster is expected to violate"
    checker = SymbolicModelChecker(
        encode_union([analysis.model for analysis in members])
    )
    _assert_agrees_with_fixpoint(checker, formulas)


def test_guarded_ag_agrees_with_explicit_checker():
    """``guard -> AG p``: the guard decides which initial states count.

    A guard that excludes every initial state that can reach ``!p``
    (while some reachable state still violates ``p``) must hold; one
    that admits such a state must fail with a real path from a guard
    state into ``!p``.
    """
    group = tuple(groundtruth.MALIOT_ENVIRONMENTS[1][0])  # App1 + App15
    members, nodes, edges, initial, explicit = _explicit_graph(group)
    kripke = explicit.kripke
    checker = SymbolicModelChecker(
        encode_union([analysis.model for analysis in members])
    )
    environment = analyze_environment(list(members), backend="explicit")
    atoms = sorted(
        {
            label
            for state in kripke.initial
            for label in kripke.labels[state]
            if label.startswith("attr:")
        }
    )
    cases = {True: 0, False: 0}
    for formula in _checked_formulas(environment):
        if not isinstance(formula, ctl.AG) or explicit.check(formula).holds:
            continue
        can_fail = explicit.sat(ctl.EF(ctl.Not(formula.operand)))
        for atom in atoms:
            guarded = [s for s in kripke.initial if atom in kripke.labels[s]]
            expected = not any(s in can_fail for s in guarded)
            guarded_formula = ctl.Implies(ctl.Prop(atom), formula)
            result = checker.check(guarded_formula)
            assert result.holds == expected == explicit.check(guarded_formula).holds
            if not expected:
                path = result.counterexample
                _assert_path(path, nodes, edges)
                assert _norm(path[0]) in initial
                assert atom in checker.labels[path[0]], "witness leaves the guard"
                _assert_ag_witness(
                    path,
                    formula,
                    edges,
                    {_norm(s) for s in guarded if s in can_fail},
                    explicit,
                )
            cases[expected] += 1
    assert cases[True] and cases[False], f"a guard case is missing: {cases}"


@pytest.mark.parametrize("encoding", ["monolithic", "partitioned"])
def test_reordering_mid_fixpoint_keeps_frontier_decoding_valid(encoding):
    """Regression: dynamic reordering during the reachability fixpoint
    must not corrupt the BFS frontiers that witness extraction decodes.

    A node-count threshold of 2 forces sifting to run repeatedly while
    the relation is encoded and the frontiers are grown; every decoded
    frontier state and every AG witness walked back over those frontiers
    must still be a real node/path of the explicit Kripke structure.
    """
    group = tuple(groundtruth.MALIOT_ENVIRONMENTS[0][0])  # App12-14
    members, nodes, edges, initial, explicit = _explicit_graph(group)
    symbolic = SymbolicUnionModel(
        build_union_skeleton([m.model for m in members]),
        encoding=encoding,
        reorder_threshold=2,
    )
    assert symbolic.bdd.reorder_count >= 1, "no reorder ran — test is vacuous"

    # Every frontier still decodes to real states.
    for ring in symbolic.frontiers:
        node, _labels = symbolic.decode(symbolic.bdd.any_sat(ring))
        assert _norm(node) in nodes, f"frontier decoded a phantom state: {node}"

    # AG witnesses walked back over the (reordered-under) frontiers are
    # real explicit paths from initial states.
    checker = SymbolicModelChecker(symbolic)
    checked = 0
    seen: set[str] = set()
    formulas = []
    for fragment in symbolic.fragments.values():
        for prop in fragment.props:
            if not prop.startswith("act:") or prop in seen:
                continue
            seen.add(prop)
            formula = ctl.AG(ctl.Not(ctl.Prop(prop)))
            formulas.append(formula)
            result = checker.check(formula)
            if result.holds or not result.counterexample:
                continue
            path = result.counterexample
            _assert_path(path, nodes, edges)
            _assert_ag_witness(path, formula, edges, initial, explicit)
            if len(path) > 1:
                assert _norm(path[0]) in initial
                checked += 1
    assert checked, "no failing AG formula produced a multi-step witness"
    _assert_agrees_with_fixpoint(checker, formulas)


@pytest.mark.parametrize("group", ENVIRONMENTS)
def test_af_lasso_witnesses_are_explicit_cycles(group):
    members, nodes, edges, initial, _explicit = _explicit_graph(group)
    symbolic = encode_union([analysis.model for analysis in members])
    checker = SymbolicModelChecker(symbolic)

    # Catalog properties are AG-shaped, so drive AF directly: for each
    # attribute value, "every path eventually reaches it" is false for
    # most values, producing a lasso that never visits it.
    lassos = 0
    union = symbolic.model
    for attribute in union.attributes:
        for value in attribute.domain:
            prop = ctl.Prop(
                f"attr:{attribute.device}.{attribute.attribute}={value}"
            )
            result = checker.check(ctl.AF(prop))
            if result.holds or not result.counterexample_loop:
                continue
            stem, loop = result.counterexample, result.counterexample_loop
            _assert_path(stem + loop, nodes, edges)
            # The cycle must close back on itself inside the structure.
            assert (_norm(loop[-1]), _norm(loop[0])) in edges
            # The whole lasso avoids the AF target — that is what makes
            # it a counterexample (decoded labels carry the atoms).
            for node in stem + loop:
                assert prop.name not in checker.labels.get(node, frozenset())
            lassos += 1
            if lassos >= 3:
                return
    assert lassos, "no failing AF formula produced a lasso witness"
