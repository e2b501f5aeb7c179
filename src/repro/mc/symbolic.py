"""BDD-based symbolic CTL model checking.

Two checkers share the CTL-on-BDDs machinery:

* :class:`SymbolicChecker` binary-encodes an *explicit* Kripke structure
  — useful for cross-validation and for small models that are already
  materialized, but it inherits the enumeration it runs on.
* :class:`SymbolicModelChecker` checks a
  :class:`repro.model.encoder.SymbolicUnionModel`: the transition relation
  comes straight from the apps' symbolic rules over shared attribute
  variable blocks, the check is restricted to the reachable-state fixpoint,
  and the Cartesian product is never enumerated.  A top-level ``AG p`` is
  decided from that reachable set alone (``reach & !p`` empty, the forward
  invariant check of NuSMV's ``INVARSPEC``), and its counterexample is
  walked back over the encoder's stored BFS frontiers.  Witnesses are
  decoded into the same :class:`~repro.model.kripke.KripkeState` objects
  the explicit checker reports, so reporting is backend-agnostic.

In both, EX is the relational preimage ``exists y . R(x, y) & f[y/x]``;
EU/EG are the usual fixpoints computed entirely on BDDs.  Both are
verified against the explicit checker in the test suite (they must agree
on every formula/model pair).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mc import ctl
from repro.mc.explicit import CheckResult
from repro.mc.kernel import BddKernel, make_kernel
from repro.model.kripke import KripkeState, KripkeStructure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.encoder import SymbolicUnionModel


class SymbolicChecker:
    """Symbolic CTL checker over an explicit Kripke structure."""

    def __init__(
        self, kripke: KripkeStructure, kernel: str | BddKernel = "auto"
    ) -> None:
        self.kripke = kripke
        self.bdd: BddKernel = make_kernel(kernel)
        self.kernel = getattr(self.bdd, "KERNEL_NAME", type(self.bdd).__name__)
        self.index: dict[KripkeState, int] = {
            state: i for i, state in enumerate(kripke.states)
        }
        self.nbits = max(1, (len(kripke.states) - 1).bit_length())
        # Interleave current/next bits — the standard good ordering for
        # transition relations.
        for bit in range(self.nbits):
            self.bdd.add_var(f"x{bit}")
            self.bdd.add_var(f"y{bit}")
        self._x = [f"x{bit}" for bit in range(self.nbits)]
        self._y = [f"y{bit}" for bit in range(self.nbits)]
        self._state_cubes: dict[KripkeState, int] = {}
        self._valid = self._build_valid()
        self._relation = self._build_relation()
        self._cache: dict[ctl.Formula, int] = {}

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _cube(self, state: KripkeState, prime: bool = False) -> int:
        if not prime and state in self._state_cubes:
            return self._state_cubes[state]
        code = self.index[state]
        names = self._y if prime else self._x
        terms = []
        for bit in range(self.nbits):
            literal = (
                self.bdd.var(names[bit])
                if (code >> bit) & 1
                else self.bdd.nvar(names[bit])
            )
            terms.append(literal)
        cube = self.bdd.conj(terms)
        if not prime:
            self._state_cubes[state] = cube
        return cube

    def _build_valid(self) -> int:
        return self.bdd.disj([self._cube(s) for s in self.kripke.states])

    def _build_relation(self) -> int:
        edges = []
        for src, dsts in self.kripke.succ.items():
            src_cube = self._cube(src)
            for dst in dsts:
                edges.append(self.bdd.and_(src_cube, self._cube(dst, prime=True)))
        return self.bdd.disj(edges)

    def set_of(self, f: int) -> frozenset[KripkeState]:
        """Decode a BDD over x-vars back into a set of Kripke states."""
        found = []
        for state in self.kripke.states:
            code = self.index[state]
            assignment = {
                self._x[bit]: bool((code >> bit) & 1) for bit in range(self.nbits)
            }
            if self.bdd.evaluate(f, assignment):
                found.append(state)
        return frozenset(found)

    # ------------------------------------------------------------------
    # CTL semantics
    # ------------------------------------------------------------------
    def sat(self, formula: ctl.Formula) -> int:
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self._sat(formula)
        result = self.bdd.and_(result, self._valid)
        self._cache[formula] = result
        return result

    def _prop(self, name: str) -> int:
        members = [
            self._cube(s) for s in self.kripke.states if name in self.kripke.labels[s]
        ]
        return self.bdd.disj(members)

    def _preimage(self, f: int) -> int:
        primed = self.bdd.rename(f, dict(zip(self._x, self._y)))
        return self.bdd.exists(self._y, self.bdd.and_(self._relation, primed))

    def _sat(self, f: ctl.Formula) -> int:
        bdd = self.bdd
        if isinstance(f, ctl.Bool):
            return self._valid if f.value else bdd.FALSE
        if isinstance(f, ctl.Prop):
            return self._prop(f.name)
        if isinstance(f, ctl.Not):
            return bdd.and_not(self._valid, self.sat(f.operand))
        if isinstance(f, ctl.And):
            return bdd.and_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Or):
            return bdd.or_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Implies):
            return bdd.and_(
                self._valid, bdd.or_(bdd.not_(self.sat(f.left)), self.sat(f.right))
            )
        if isinstance(f, ctl.EX):
            return bdd.and_(self._valid, self._preimage(self.sat(f.operand)))
        if isinstance(f, ctl.AX):
            inner = bdd.and_not(self._valid, self.sat(f.operand))
            return bdd.and_not(self._valid, self._preimage(inner))
        if isinstance(f, ctl.EF):
            return self._lfp(self._valid, self.sat(f.operand))
        if isinstance(f, ctl.EU):
            return self._lfp(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.EG):
            return self._gfp(self.sat(f.operand))
        if isinstance(f, ctl.AF):
            inner = bdd.and_not(self._valid, self.sat(f.operand))
            return bdd.and_not(self._valid, self._gfp(inner))
        if isinstance(f, ctl.AG):
            inner = bdd.and_not(self._valid, self.sat(f.operand))
            reach = self._lfp(self._valid, inner)
            return bdd.and_not(self._valid, reach)
        if isinstance(f, ctl.AU):
            not_b = bdd.and_not(self._valid, self.sat(f.right))
            not_a_not_b = bdd.and_not(not_b, self.sat(f.left))
            bad = bdd.or_(self._lfp(not_b, not_a_not_b), self._gfp(not_b))
            return bdd.and_not(self._valid, bad)
        raise TypeError(f"unsupported formula {type(f).__name__}")

    def _lfp(self, context: int, target: int) -> int:
        """E[context U target] as a least fixpoint on BDDs."""
        current = target
        while True:
            step = self.bdd.and_(context, self._preimage(current))
            nxt = self.bdd.or_(current, step)
            if nxt == current:
                return current
            current = nxt

    def _gfp(self, context: int) -> int:
        """EG context as a greatest fixpoint on BDDs."""
        current = context
        while True:
            nxt = self.bdd.and_(current, self._preimage(current))
            if nxt == current:
                return current
            current = nxt

    # ------------------------------------------------------------------
    def check(self, formula: ctl.Formula | str) -> bool:
        """True when every initial state satisfies ``formula``."""
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        satisfied = self.sat(formula)
        initial = self.bdd.disj([self._cube(s) for s in self.kripke.initial])
        uncovered = self.bdd.and_not(initial, satisfied)
        return uncovered == self.bdd.FALSE

    def sat_states(self, formula: ctl.Formula | str) -> frozenset[KripkeState]:
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        return self.set_of(self.sat(formula))


# ======================================================================
class SymbolicModelChecker:
    """CTL checking over a compiled symbolic union model.

    The state space is the *reachable* fixpoint of the encoded relation
    (every product state is an initial state, mirroring the explicit
    Kripke construction, so reachability adds the event-labelled nodes on
    top).  Because every state of it is reachable, a top-level ``AG p`` is
    decided as ``reach & !p == FALSE`` with its witness read off
    ``encoder.frontiers``; nested operands and the other temporal
    operators go through the :meth:`sat` fixpoints.  Atomic propositions
    resolve through the encoder's proposition map; decoded witness
    states accumulate in :attr:`labels`, the
    symbolic stand-in for ``KripkeStructure.labels`` that violation
    diagnosis (app attribution, reflection marking) reads.
    """

    def __init__(self, symbolic: SymbolicUnionModel) -> None:
        self.symbolic = symbolic
        self.bdd = symbolic.bdd
        self._universe = symbolic.reachable
        self._initial = symbolic.initial
        self._cache: dict[ctl.Formula, int] = {}
        self._last_assignment: dict[str, bool] | None = None
        #: Labels of every state decoded while extracting witnesses.
        self.labels: dict[KripkeState, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # CTL semantics (all sets live inside the reachable universe)
    # ------------------------------------------------------------------
    def sat(self, formula: ctl.Formula | str) -> int:
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self.bdd.and_(self._sat(formula), self._universe)
        # Cached satisfaction sets survive any later forced reorder: they
        # are GC roots of the shared manager.
        self._cache[formula] = self.bdd.protect(result)
        return result

    def _preimage(self, f: int) -> int:
        return self.symbolic.pre(f)

    def _lfp(self, context: int, target: int) -> int:
        """E[context U target] as a least fixpoint on BDDs.

        Iterated on the *frontier*: preimages distribute over union, so
        each round only the states added last round are fed to the
        (fragment-partitioned) preimage — on wide unions this is the
        difference between quadratic and linear work in the fixpoint
        depth.
        """
        current = target
        frontier = target
        while frontier != self.bdd.FALSE:
            step = self.bdd.and_(context, self._preimage(frontier))
            frontier = self.bdd.and_not(step, current)
            current = self.bdd.or_(current, frontier)
        return current

    def _gfp(self, context: int) -> int:
        """EG context as a greatest fixpoint on BDDs."""
        current = context
        while True:
            nxt = self.bdd.and_(current, self._preimage(current))
            if nxt == current:
                return current
            current = nxt

    def _sat(self, f: ctl.Formula) -> int:
        bdd = self.bdd
        if isinstance(f, ctl.Bool):
            return self._universe if f.value else bdd.FALSE
        if isinstance(f, ctl.Prop):
            return bdd.and_(self._universe, self.symbolic.prop(f.name))
        if isinstance(f, ctl.Not):
            return bdd.and_not(self._universe, self.sat(f.operand))
        if isinstance(f, ctl.And):
            return bdd.and_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Or):
            return bdd.or_(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.Implies):
            return bdd.and_(
                self._universe,
                bdd.or_(bdd.not_(self.sat(f.left)), self.sat(f.right)),
            )
        if isinstance(f, ctl.EX):
            return bdd.and_(self._universe, self._preimage(self.sat(f.operand)))
        if isinstance(f, ctl.AX):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            return bdd.and_not(self._universe, self._preimage(inner))
        if isinstance(f, ctl.EF):
            return self._lfp(self._universe, self.sat(f.operand))
        if isinstance(f, ctl.EU):
            return self._lfp(self.sat(f.left), self.sat(f.right))
        if isinstance(f, ctl.EG):
            return self._gfp(self.sat(f.operand))
        if isinstance(f, ctl.AF):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            return bdd.and_not(self._universe, self._gfp(inner))
        if isinstance(f, ctl.AG):
            inner = bdd.and_not(self._universe, self.sat(f.operand))
            reach = self._lfp(self._universe, inner)
            return bdd.and_not(self._universe, reach)
        if isinstance(f, ctl.AU):
            not_b = bdd.and_not(self._universe, self.sat(f.right))
            not_a_not_b = bdd.and_not(not_b, self.sat(f.left))
            bad = bdd.or_(self._lfp(not_b, not_a_not_b), self._gfp(not_b))
            return bdd.and_not(self._universe, bad)
        raise TypeError(f"unsupported formula {type(f).__name__}")

    # ------------------------------------------------------------------
    # Top-level checks, explicit-checker-compatible
    # ------------------------------------------------------------------
    def check(self, formula: ctl.Formula | str) -> CheckResult:
        """Check ``formula`` against every initial state.

        The returned :class:`~repro.mc.explicit.CheckResult` has the
        explicit checker's shape: on failure ``failing_states`` holds one
        decoded failing initial state and ``counterexample`` a decoded
        witness path.

        A top-level ``AG p`` is the forward invariant check: every state
        of the universe is reachable from an initial state, so ``AG p``
        holds iff no reachable state violates ``p`` — one ``and_not``
        of ``sat(p)`` against the encoder's reachable set, with no
        fixpoint beyond those nested inside ``p``.  Its witness is
        a shortest path walked back over the encoder's stored BFS
        frontiers.  Every other formula is decided by :meth:`sat` (``AF``
        witnesses are lassos inside the EG region, ``guard -> AG p``
        witnesses shortest paths grown from the failing guard states).
        """
        if isinstance(formula, str):
            formula = ctl.parse_ctl(formula)
        bdd = self.bdd
        if isinstance(formula, ctl.AG):
            bad = bdd.and_not(self._universe, self.sat(formula.operand))
            result = CheckResult(formula=formula, holds=bad == bdd.FALSE)
            if not result.holds:
                path = self._ring_path(self.symbolic.frontiers, bad)
                result.failing_states = path[:1]
                result.counterexample = path
            return result
        satisfied = self.sat(formula)
        failing = bdd.and_not(self._initial, satisfied)
        result = CheckResult(formula=formula, holds=failing == bdd.FALSE)
        if result.holds:
            return result
        start = self._register(failing)
        if start is not None:
            result.failing_states = [start]
        self._attach_counterexample(formula, failing, result)
        return result

    def _register(self, states: int) -> KripkeState | None:
        """Decode one state of a non-empty set, recording its labels."""
        assignment = self.bdd.any_sat(states)
        if assignment is None:
            return None
        node, labels = self.symbolic.decode(assignment)
        self.labels[node] = labels
        self._last_assignment = assignment
        return node

    def _attach_counterexample(
        self, formula: ctl.Formula, failing: int, result: CheckResult
    ) -> None:
        if isinstance(formula, ctl.Implies) and isinstance(formula.right, ctl.AG):
            bad = self.bdd.and_not(self._universe, self.sat(formula.right.operand))
            path = self._shortest_path(failing, bad)
            if path:
                result.counterexample = path
            return
        if isinstance(formula, ctl.AF):
            context = self.bdd.and_(
                self._universe, self.bdd.not_(self.sat(formula.operand))
            )
            lasso = self._find_lasso(failing, context)
            if lasso is not None:
                result.counterexample, result.counterexample_loop = lasso
            return
        if result.failing_states:
            result.counterexample = [result.failing_states[0]]

    def _shortest_path(self, sources: int, targets: int) -> list[KripkeState]:
        """A shortest path from ``sources`` into ``targets``.

        Forward BFS frontiers are grown from ``sources`` until one meets
        ``targets`` (or the search closes without meeting it), then
        walked back by :meth:`_ring_path`.
        """
        bdd = self.bdd
        frontiers = [sources]
        covered = sources
        while bdd.and_(frontiers[-1], targets) == bdd.FALSE:
            nxt = bdd.and_not(self.symbolic.post(frontiers[-1]), covered)
            if nxt == bdd.FALSE:
                return []
            frontiers.append(nxt)
            covered = bdd.or_(covered, nxt)
        return self._ring_path(frontiers, targets)

    def _ring_path(self, rings: list[int], targets: int) -> list[KripkeState]:
        """A shortest path into ``targets`` over BFS rings.

        ``rings[i]`` holds the states first reached in exactly ``i``
        steps.  The path ends in a ``targets`` state of the first ring
        that meets ``targets`` and is reconstructed ring by ring through
        symbolic preimages — each step decodes exactly one state.  Empty
        when no ring meets ``targets``.
        """
        bdd = self.bdd
        for depth, ring in enumerate(rings):
            hit = bdd.and_(ring, targets)
            if hit != bdd.FALSE:
                break
        else:
            return []
        path = [self._register(hit)]
        cube = self.symbolic.state_cube(self._last_assignment)
        for ring in reversed(rings[:depth]):
            node = self._register(bdd.and_(ring, self.symbolic.pre(cube)))
            if node is None:  # pragma: no cover - rings are connected
                break
            path.append(node)
            cube = self.symbolic.state_cube(self._last_assignment)
        path.reverse()
        return path

    def _find_lasso(
        self, failing: int, context: int
    ) -> tuple[list[KripkeState], list[KripkeState]] | None:
        """A stem + cycle staying inside ``context`` (witness for EG)."""
        bdd = self.bdd
        eg = self._gfp(context)
        start_set = bdd.and_(failing, eg)
        start = self._register(start_set)
        if start is None:
            return None
        path = [start]
        seen = {start: 0}
        cube = self.symbolic.state_cube(self._last_assignment)
        while True:
            succs = bdd.and_(self.symbolic.post(cube), eg)
            node = self._register(succs)
            if node is None:
                return path, []
            if node in seen:
                cut = seen[node]
                return path[:cut], path[cut:]
            seen[node] = len(path)
            path.append(node)
            cube = self.symbolic.state_cube(self._last_assignment)

    # ------------------------------------------------------------------
    def state_count(self) -> int:
        """Number of reachable states of the composed model."""
        return self.symbolic.state_count()
