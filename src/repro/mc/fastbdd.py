"""The fast BDD kernel: flat arrays, packed keys, iterative traversals.

Same contract as the reference kernel (:class:`repro.mc.bdd.BDD`) —
integer node ids with ``FALSE == 0`` / ``TRUE == 1``, id-stable grouped
sifting, refcounted :meth:`protect` roots, a mark-and-sweep
:meth:`collect` whose cleared slots are never reused — but engineered
for CPython throughput instead of readability:

* The node table is three flat parallel ``array('q')`` columns
  ``(level, low, high)`` indexed by node id.  A node access is two or
  three C-array reads instead of a list indirection plus dataclass
  attribute lookups, and the table is ~10x smaller in memory.
* The unique table and every computed table key on *packed machine
  integers* — one ``(level << 56) | (low << 28) | high`` int per triple
  — in CPython's open-addressed hash tables, skipping per-probe tuple
  allocation and triple hashing.
* ``and``/``or``/``and_not`` and the fused and-exists product recurse,
  one Python call per expanded operand pair, probing the computed table
  before each call; ``not``/``ite``, plain quantification, renaming,
  restriction and counting run as iterative explicit-stack loops whose
  frames are packed ints too.  The hot loops bind every table to a
  local.
* The and-exists product stops descending once nothing below is left
  to quantify or conjoin: a pair ``(TRUE, g)`` whose support misses the
  quantified levels is ``g`` itself, so the frame conditions of a
  partitioned image no longer walk the untouched part of the frontier.
* :meth:`and_exists_list` keeps the exact greedy early-quantification
  schedule of the base class but runs it on integer bitmask supports.

The kernel is *proven* against the reference manager, not trusted: the
cross-kernel differential suite (``tests/test_backends_differential.py``
and the fuzz driver's ``--kernel both`` mode) checks that both kernels
produce identical violation sets and verdicts on every Table-4, MalIoT,
and fuzz-generated environment.

Node ids are limited to 28 bits (268M nodes — far beyond what fits in
memory) so three ids pack into one small-ish int.  Collected slots get
``level = -1`` and out-of-range children so a dangling reference blows
up with an ``IndexError`` instead of silently denoting another function.
"""

from __future__ import annotations

import sys
from array import array

from repro.mc.kernel import TERMINAL_LEVEL, KernelBase

#: Node-id field width used for key/frame packing.
_SH = 28
_ID_MASK = (1 << _SH) - 1
#: Child sentinel for collected slots: packs losslessly into a 28-bit
#: field yet always indexes out of range — dangling uses fail loudly.
_DEAD_CHILD = _ID_MASK
#: Level sentinel for collected slots (real levels are >= 0).
_DEAD_LEVEL = -1

#: Interpreter frames kept free above the recursive apply loops, whose
#: depth grows with the variable count (see :meth:`FastKernel.add_var`).
_RECURSION_HEADROOM = 500

#: Phase/ready bits for packed stack frames.
_READY1 = 1 << 60          # unary loops: frame = node (+ _READY1)
_READY3 = 1 << 84          # ite: frame = (f << 56) | (g << 28) | h (+ _READY3)


class FastKernel(KernelBase):
    """Array-backed BDD manager implementing the kernel protocol."""

    KERNEL_NAME = "fast"

    def __init__(self) -> None:
        super().__init__()
        # Parallel node columns; slots 0/1 are the terminals.
        self._level = array("q", (TERMINAL_LEVEL, TERMINAL_LEVEL))
        self._low = array("q", (0, 1))
        self._high = array("q", (0, 1))
        #: (level, low, high) packed int -> node id.
        self._unique: dict[int, int] = {}
        # Per-operation computed tables (packed-int keyed, unbounded
        # until collect()).
        self._and_cache: dict[int, int] = {}
        self._or_cache: dict[int, int] = {}
        self._not_cache: dict[int, int] = {}
        self._andnot_cache: dict[int, int] = {}
        self._ite_cache: dict[int, int] = {}
        #: Persistent and-exists computed tables, one per quantifier
        #: mask.  Image fixpoints re-pose the same (qmask, f, g)
        #: subproblems across iterations, so keeping these across calls
        #: (the reference kernel starts fresh every call) is where the
        #: relational product stops dominating profiles.  A mask keys
        #: *levels*, so these go stale the moment levels move — every
        #: cache-dropping path (collect, sift) clears them.
        self._ae_caches: dict[int, dict[int, int]] = {}
        #: Same, for plain existential quantification.
        self._ex_caches: dict[int, dict[int, int]] = {}
        #: Whole-query memo for and_exists_list products.
        self._ael_cache: dict[tuple, int] = {}
        #: node id -> bitmask of support levels.
        self._support_mask_cache: dict[int, int] = {}
        #: Live (non-terminal, non-collected) node count — O(1) live_size.
        self._live = 0
        #: _level_nodes is rebuilt lazily: hot loops only mark it stale.
        self._index_dirty = False

    # ------------------------------------------------------------------
    # Core construction
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Register a variable, keeping the interpreter's recursion limit
        above the apply loops' worst-case depth (two frames per level)."""
        node = super().add_var(name)
        needed = 2 * len(self._var_names) + _RECURSION_HEADROOM
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        return node

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level << 56) | (low << _SH) | high
        node_id = self._unique.get(key)
        if node_id is None:
            node_id = len(self._level)
            if node_id >= _DEAD_CHILD:
                raise RuntimeError("fast kernel node-id space exhausted")
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node_id
            self._live += 1
            if not self._index_dirty:
                self._level_nodes.setdefault(level, set()).add(node_id)
        return node_id

    def node_triple(self, node_id: int) -> tuple[int, int, int] | None:
        """The (level, low, high) triple of a node, or None when the slot
        was collected — the kernel-portable introspection hook."""
        level = self._level[node_id]
        if level == _DEAD_LEVEL:
            return None
        return (level, self._low[node_id], self._high[node_id])

    def allocated_nodes(self) -> int:
        """Total nodes ever allocated (the peak table size: slots are
        never reused, so this is monotone)."""
        return len(self._level)

    def live_size(self) -> int:
        return self._live

    def _ensure_index(self) -> None:
        """Rebuild the per-level node index after hot loops staled it."""
        if not self._index_dirty:
            return
        level = self._level
        index: dict[int, set[int]] = {}
        for node_id in range(2, len(level)):
            lv = level[node_id]
            if lv == _DEAD_LEVEL:
                continue
            bucket = index.get(lv)
            if bucket is None:
                index[lv] = bucket = set()
            bucket.add(node_id)
        self._level_nodes = index
        self._index_dirty = False

    # ------------------------------------------------------------------
    # Binary connectives (recursive, specialized)
    # ------------------------------------------------------------------
    # The apply loops recurse: one Python call per expanded operand pair
    # decodes each pair once, where an explicit stack decodes it twice
    # and pays a push and a pop per child.  Children are probed in the
    # computed table before the call, so a hit costs no call at all.
    # Depth stays within twice the variable count (an and-exists level
    # may nest an OR), as in the reference kernel.
    def _settle(self, lookups: int, hits: int, created: int) -> None:
        """Fold one operation's table traffic into the kernel counters."""
        self._cache_lookups += lookups
        self._cache_hits += hits
        if created:
            self._live += created
            self._index_dirty = True

    def and_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == 0:
            return 0
        if f == 1 or f == g:
            return g
        cache = self._and_cache
        root_key = (f << _SH) | g
        result = cache.get(root_key)
        if result is not None:
            self._settle(1, 1, 0)
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        hits = created = 0

        def apply(a: int, b: int, key: int) -> int:
            nonlocal hits, created
            la = level[a]
            lb = level[b]
            if la < lb:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = b; b1 = b
            elif lb < la:
                lv = lb; a0 = a; a1 = a; b0 = low[b]; b1 = high[b]
            else:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = low[b]; b1 = high[b]
            if a0 > b0:
                a0, b0 = b0, a0
            if a0 == 0:
                r0 = 0
            elif a0 == 1 or a0 == b0:
                r0 = b0
            else:
                child = (a0 << _SH) | b0
                r0 = cache.get(child)
                if r0 is None:
                    r0 = apply(a0, b0, child)
                else:
                    hits += 1
            if a1 > b1:
                a1, b1 = b1, a1
            if a1 == 0:
                r1 = 0
            elif a1 == 1 or a1 == b1:
                r1 = b1
            else:
                child = (a1 << _SH) | b1
                r1 = cache.get(child)
                if r1 is None:
                    r1 = apply(a1, b1, child)
                else:
                    hits += 1
            if r0 == r1:
                cache[key] = r0
                return r0
            unique_key = (lv << 56) | (r0 << _SH) | r1
            res = unique.get(unique_key)
            if res is None:
                res = len(level)
                if res >= _DEAD_CHILD:
                    raise RuntimeError("fast kernel node-id space exhausted")
                level.append(lv)
                low.append(r0)
                high.append(r1)
                unique[unique_key] = res
                created += 1
            cache[key] = res
            return res

        entries = len(cache)
        try:
            result = apply(f, g, root_key)
        finally:
            del apply  # the closure refers to itself: free it now, not in a GC pass
        self._settle(hits + len(cache) - entries, hits, created)
        return result

    def and_not(self, f: int, g: int) -> int:
        """Fused ``f & ~g`` — no canonicalization (not symmetric), its
        own computed table, ``not_`` only on the cofactor pairs whose
        left side collapsed to TRUE."""
        if f == 0 or g == 1 or f == g:
            return 0
        if g == 0:
            return f
        if f == 1:
            return self.not_(g)
        cache = self._andnot_cache
        root_key = (f << _SH) | g
        result = cache.get(root_key)
        if result is not None:
            self._settle(1, 1, 0)
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        not_ = self.not_
        hits = created = 0

        def apply(a: int, b: int, key: int) -> int:
            nonlocal hits, created
            la = level[a]
            lb = level[b]
            if la < lb:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = b; b1 = b
            elif lb < la:
                lv = lb; a0 = a; a1 = a; b0 = low[b]; b1 = high[b]
            else:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = low[b]; b1 = high[b]
            if a0 == 0 or b0 == 1 or a0 == b0:
                r0 = 0
            elif b0 == 0:
                r0 = a0
            elif a0 == 1:
                r0 = not_(b0)
            else:
                child = (a0 << _SH) | b0
                r0 = cache.get(child)
                if r0 is None:
                    r0 = apply(a0, b0, child)
                else:
                    hits += 1
            if a1 == 0 or b1 == 1 or a1 == b1:
                r1 = 0
            elif b1 == 0:
                r1 = a1
            elif a1 == 1:
                r1 = not_(b1)
            else:
                child = (a1 << _SH) | b1
                r1 = cache.get(child)
                if r1 is None:
                    r1 = apply(a1, b1, child)
                else:
                    hits += 1
            if r0 == r1:
                cache[key] = r0
                return r0
            unique_key = (lv << 56) | (r0 << _SH) | r1
            res = unique.get(unique_key)
            if res is None:
                res = len(level)
                if res >= _DEAD_CHILD:
                    raise RuntimeError("fast kernel node-id space exhausted")
                level.append(lv)
                low.append(r0)
                high.append(r1)
                unique[unique_key] = res
                created += 1
            cache[key] = res
            return res

        entries = len(cache)
        try:
            result = apply(f, g, root_key)
        finally:
            del apply  # the closure refers to itself: free it now, not in a GC pass
        self._settle(hits + len(cache) - entries, hits, created)
        return result

    def or_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == 1:
            return 1
        if f == 0 or f == g:
            return g
        cache = self._or_cache
        root_key = (f << _SH) | g
        result = cache.get(root_key)
        if result is not None:
            self._settle(1, 1, 0)
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        hits = created = 0

        def apply(a: int, b: int, key: int) -> int:
            nonlocal hits, created
            la = level[a]
            lb = level[b]
            if la < lb:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = b; b1 = b
            elif lb < la:
                lv = lb; a0 = a; a1 = a; b0 = low[b]; b1 = high[b]
            else:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = low[b]; b1 = high[b]
            if a0 > b0:
                a0, b0 = b0, a0
            if a0 == 1:
                r0 = 1
            elif a0 == 0 or a0 == b0:
                r0 = b0
            else:
                child = (a0 << _SH) | b0
                r0 = cache.get(child)
                if r0 is None:
                    r0 = apply(a0, b0, child)
                else:
                    hits += 1
            if a1 > b1:
                a1, b1 = b1, a1
            if a1 == 1:
                r1 = 1
            elif a1 == 0 or a1 == b1:
                r1 = b1
            else:
                child = (a1 << _SH) | b1
                r1 = cache.get(child)
                if r1 is None:
                    r1 = apply(a1, b1, child)
                else:
                    hits += 1
            if r0 == r1:
                cache[key] = r0
                return r0
            unique_key = (lv << 56) | (r0 << _SH) | r1
            res = unique.get(unique_key)
            if res is None:
                res = len(level)
                if res >= _DEAD_CHILD:
                    raise RuntimeError("fast kernel node-id space exhausted")
                level.append(lv)
                low.append(r0)
                high.append(r1)
                unique[unique_key] = res
                created += 1
            cache[key] = res
            return res

        entries = len(cache)
        try:
            result = apply(f, g, root_key)
        finally:
            del apply  # the closure refers to itself: free it now, not in a GC pass
        self._settle(hits + len(cache) - entries, hits, created)
        return result

    def not_(self, f: int) -> int:
        if f < 2:
            return 1 - f
        cache = self._not_cache
        result = cache.get(f)
        if result is not None:
            self._cache_lookups += 1
            self._cache_hits += 1
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        lookups = hits = created = 0
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                lookups += 1
                if frame in cache:
                    hits += 1
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                r0 = (1 - c0) if c0 < 2 else cache[c0]
                r1 = (1 - c1) if c1 < 2 else cache[c1]
                # A reduced node has c0 != c1, so r0 != r1 always.
                lv = level[node]
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
                cache[node] = res
        self._cache_lookups += lookups
        self._cache_hits += hits
        if created:
            self._live += created
            self._index_dirty = True
        return cache[f]

    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else: f ? g : h — the universal boolean connective."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        cache = self._ite_cache
        root_key = (f << 56) | (g << _SH) | h
        result = cache.get(root_key)
        if result is not None:
            self._cache_lookups += 1
            self._cache_hits += 1
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        lookups = hits = created = 0
        stack = [root_key]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY3:
                lookups += 1
                if frame in cache:
                    hits += 1
                    continue
                a = frame >> 56
                b = (frame >> _SH) & _ID_MASK
                c = frame & _ID_MASK
                la = level[a]
                lb = level[b]
                lc = level[c]
                lv = la if la < lb else lb
                if lc < lv:
                    lv = lc
                if la == lv:
                    a0 = low[a]; a1 = high[a]
                else:
                    a0 = a; a1 = a
                if lb == lv:
                    b0 = low[b]; b1 = high[b]
                else:
                    b0 = b; b1 = b
                if lc == lv:
                    c0 = low[c]; c1 = high[c]
                else:
                    c0 = c; c1 = c
                push(frame | _READY3)
                if a1 > 1 and b1 != c1 and not (b1 == 1 and c1 == 0):
                    push((a1 << 56) | (b1 << _SH) | c1)
                if a0 > 1 and b0 != c0 and not (b0 == 1 and c0 == 0):
                    push((a0 << 56) | (b0 << _SH) | c0)
            else:
                key = frame ^ _READY3
                a = key >> 56
                b = (key >> _SH) & _ID_MASK
                c = key & _ID_MASK
                la = level[a]
                lb = level[b]
                lc = level[c]
                lv = la if la < lb else lb
                if lc < lv:
                    lv = lc
                if la == lv:
                    a0 = low[a]; a1 = high[a]
                else:
                    a0 = a; a1 = a
                if lb == lv:
                    b0 = low[b]; b1 = high[b]
                else:
                    b0 = b; b1 = b
                if lc == lv:
                    c0 = low[c]; c1 = high[c]
                else:
                    c0 = c; c1 = c
                if a0 == 1:
                    r0 = b0
                elif a0 == 0:
                    r0 = c0
                elif b0 == c0:
                    r0 = b0
                elif b0 == 1 and c0 == 0:
                    r0 = a0
                else:
                    r0 = cache[(a0 << 56) | (b0 << _SH) | c0]
                if a1 == 1:
                    r1 = b1
                elif a1 == 0:
                    r1 = c1
                elif b1 == c1:
                    r1 = b1
                elif b1 == 1 and c1 == 0:
                    r1 = a1
                else:
                    r1 = cache[(a1 << 56) | (b1 << _SH) | c1]
                if r0 == r1:
                    cache[key] = r0
                    continue
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
                cache[key] = res
        self._cache_lookups += lookups
        self._cache_hits += hits
        if created:
            self._live += created
            self._index_dirty = True
        return cache[root_key]

    # ------------------------------------------------------------------
    # Quantification and substitution
    # ------------------------------------------------------------------
    @staticmethod
    def _levels_mask(levels) -> int:
        mask = 0
        for lv in levels:
            mask |= 1 << lv
        return mask

    def _exists(self, levels: frozenset[int], f: int, cache: dict[int, int]) -> int:
        if f < 2:
            return f
        qmask = self._levels_mask(levels)
        # Same persistence story as _and_exists_mask: the node->result
        # table is only a function of (qmask, node), so it is kept
        # per-mask across calls and dropped whenever levels can move.
        cache = self._ex_caches.get(qmask)
        if cache is None:
            cache = self._ex_caches[qmask] = {}
        hit = cache.get(f)
        if hit is not None:
            return hit
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        or_ = self.or_
        created = 0
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                r0 = c0 if c0 < 2 else cache[c0]
                r1 = c1 if c1 < 2 else cache[c1]
                lv = level[node]
                if (qmask >> lv) & 1:
                    cache[node] = or_(r0, r1)
                    continue
                if r0 == r1:
                    cache[node] = r0
                    continue
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
                cache[node] = res
        if created:
            self._live += created
            self._index_dirty = True
        return cache[f]

    def _and_exists(self, levels, f: int, g: int, cache: dict) -> int:
        """``exists levels . f & g`` fused — sequential low-then-high
        evaluation preserving the reference kernel's TRUE short-circuit
        (the high subtree is never expanded once the OR is saturated).
        The per-call ``cache`` argument of the base contract is ignored
        in favor of the persistent per-mask table."""
        return self._and_exists_mask(self._levels_mask(levels), f, g)

    def _and_exists_mask(self, qmask: int, f: int, g: int) -> int:
        if f == 0 or g == 0:
            return 0
        if f == 1 and g == 1:
            return 1
        cache = self._ae_caches.get(qmask)
        if cache is None:
            cache = self._ae_caches[qmask] = {}
        if f > g:
            f, g = g, f  # and/exists are symmetric: canonicalize the key
        root_key = (f << _SH) | g
        result = cache.get(root_key)
        if result is not None:
            self._settle(1, 1, 0)
            return result
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        or_ = self.or_
        supports = self._support_mask_cache
        support_mask = self._support_mask
        hits = created = 0

        def product(a: int, b: int, key: int) -> int:
            """The product of a canonical (a <= b) pair: low cofactors
            first, the high ones only when the OR is not yet saturated."""
            nonlocal hits, created
            la = level[a]
            lb = level[b]
            if la < lb:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = b; b1 = b
            elif lb < la:
                lv = lb; a0 = a; a1 = a; b0 = low[b]; b1 = high[b]
            else:
                lv = la; a0 = low[a]; a1 = high[a]; b0 = low[b]; b1 = high[b]
            if a0 > b0:
                a0, b0 = b0, a0
            if a0 == 0:
                r0 = 0
            elif a0 == 1 and b0 == 1:
                r0 = 1
            else:
                child = (a0 << _SH) | b0
                r0 = cache.get(child)
                if r0 is None:
                    if a0 == 1 and not qmask & (supports.get(b0) or support_mask(b0)):
                        # Nothing left to quantify or conjoin: b0 itself.
                        r0 = cache[child] = b0
                    else:
                        r0 = product(a0, b0, child)
                else:
                    hits += 1
            quantified = (qmask >> lv) & 1
            if r0 == 1 and quantified:
                cache[key] = 1  # short-circuit: the OR is saturated
                return 1
            if a1 > b1:
                a1, b1 = b1, a1
            if a1 == 0:
                r1 = 0
            elif a1 == 1 and b1 == 1:
                r1 = 1
            else:
                child = (a1 << _SH) | b1
                r1 = cache.get(child)
                if r1 is None:
                    if a1 == 1 and not qmask & (supports.get(b1) or support_mask(b1)):
                        r1 = cache[child] = b1
                    else:
                        r1 = product(a1, b1, child)
                else:
                    hits += 1
            if quantified:
                # Inline or_'s trivial rules; fall through to the full
                # traversal only for two real operands.
                if r1 == 1:
                    res = 1
                elif r0 == r1 or r0 == 0:
                    res = r1
                elif r1 == 0:
                    res = r0
                else:
                    res = or_(r0, r1)
            elif r0 == r1:
                res = r0
            else:
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
            cache[key] = res
            return res

        entries = len(cache)
        try:
            result = product(f, g, root_key)
        finally:
            del product  # the closure refers to itself: free it now, not in a GC pass
        self._settle(hits + len(cache) - entries, hits, created)
        return result

    def conj(self, items: list[int]) -> int:
        """Balanced-tree conjunction.

        The left fold of the base class conjoins every operand into one
        ever-growing accumulator; pairing operands tournament-style keeps
        the intermediates small and the computed-table keys reusable.
        Same canonical result, measurably fewer expanded nodes.
        """
        work = [f for f in items if f != 1]
        if not work:
            return 1
        and_ = self.and_
        while len(work) > 1:
            if 0 in work:
                return 0
            work = [
                and_(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
                for i in range(0, len(work), 2)
            ]
        return work[0]

    def disj(self, items: list[int]) -> int:
        """Balanced-tree disjunction (see :meth:`conj`)."""
        work = [f for f in items if f != 0]
        if not work:
            return 0
        or_ = self.or_
        while len(work) > 1:
            if 1 in work:
                return 1
            work = [
                or_(work[i], work[i + 1]) if i + 1 < len(work) else work[i]
                for i in range(0, len(work), 2)
            ]
        return work[0]

    def and_exists_list(self, names: list[str], conjuncts: list[int]) -> int:
        """Early-quantification relational product over a conjunct list.

        Exactly the greedy schedule of
        :meth:`repro.mc.kernel.KernelBase.and_exists_list` — most
        released variables first, ties to the smaller support then input
        order — but computed on integer bitmasks instead of frozensets
        (``bit_count()`` == set cardinality, ``| & ~`` == set algebra),
        which is where the scheduler's O(k^2) set unions per step stop
        showing up in profiles.
        """
        var_ids = self._var_ids
        qmask = 0
        for name in names:
            lv = var_ids.get(name)
            if lv is not None:
                qmask |= 1 << lv
        items = list(conjuncts)
        if not items:
            return 1
        # Whole-query memo: image computations re-pose identical
        # (qmask, conjuncts) products — e.g. witness extraction re-walks
        # the frontiers the reachability fixpoint already imaged.
        query_key = (qmask, tuple(items))
        ael_cache = self._ael_cache
        hit = ael_cache.get(query_key)
        if hit is not None:
            return hit
        supports = [self._support_mask(f) for f in items]
        remaining = list(range(len(items)))
        acc = 1
        live = 0   # quantified levels already inside ``acc``
        while remaining:
            best = None
            best_key: tuple[int, int, int] | None = None
            for idx in remaining:
                others = 0
                for j in remaining:
                    if j != idx:
                        others |= supports[j]
                releasable = (live | (supports[idx] & qmask)) & ~others
                key = (-releasable.bit_count(), supports[idx].bit_count(), idx)
                if best_key is None or key < best_key:
                    best, best_key = idx, key
            assert best is not None
            others = 0
            for j in remaining:
                if j != best:
                    others |= supports[j]
            releasable = (live | (supports[best] & qmask)) & ~others
            if releasable:
                acc = self._and_exists_mask(releasable, acc, items[best])
            else:
                acc = self.and_(acc, items[best])
            live = (live | (supports[best] & qmask)) & ~releasable
            remaining.remove(best)
            if acc == 0:
                break
        ael_cache[query_key] = acc
        return acc

    def _support_mask(self, f: int) -> int:
        """Bitmask of the levels ``f`` depends on (memoized)."""
        if f < 2:
            return 0
        cache = self._support_mask_cache
        result = cache.get(f)
        if result is not None:
            return result
        level = self._level
        low = self._low
        high = self._high
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                mask = 1 << level[node]
                if c0 > 1:
                    mask |= cache[c0]
                if c1 > 1:
                    mask |= cache[c1]
                cache[node] = mask
        return cache[f]

    def _support_levels(self, f: int) -> frozenset[int]:
        if f < 2:
            return frozenset()
        cached = self._support_cache.get(f)
        if cached is not None:
            return cached
        mask = self._support_mask(f)
        result = frozenset(
            lv for lv in range(mask.bit_length()) if (mask >> lv) & 1
        )
        self._support_cache[f] = result
        return result

    def rename(self, f: int, mapping: dict[str, str]) -> int:
        """Substitute variables (e.g. next-state x' -> x).

        An order-preserving substitution (every support level maps
        strictly below the next — the encoder's y'->x case) is a single
        bottom-up rebuild; anything else falls back to the reference
        kernel's safe-for-arbitrary-mappings ite composition.
        """
        var_ids = self._var_ids
        level_map = {var_ids[old]: var_ids[new] for old, new in mapping.items()}
        if f < 2 or not level_map:
            return f
        support = sorted(self._support_levels(f))
        mapped = [level_map.get(lv, lv) for lv in support]
        if all(mapped[i] < mapped[i + 1] for i in range(len(mapped) - 1)):
            return self._rename_monotone(f, level_map)
        return self._rename_compose(f, level_map)

    def _rename_monotone(self, f: int, level_map: dict[int, int]) -> int:
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        created = 0
        cache: dict[int, int] = {}
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                r0 = c0 if c0 < 2 else cache[c0]
                r1 = c1 if c1 < 2 else cache[c1]
                lv = level[node]
                lv = level_map.get(lv, lv)
                # Monotone maps preserve the node shape: r0 != r1.
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
                cache[node] = res
        if created:
            self._live += created
            self._index_dirty = True
        return cache[f]

    def _rename_compose(self, f: int, level_map: dict[int, int]) -> int:
        """General substitution by bottom-up ite composition (safe for
        order-changing maps) — the reference kernel's algorithm."""
        low = self._low
        high = self._high
        level = self._level
        ite = self.ite
        mk = self._mk
        cache: dict[int, int] = {}
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                r0 = c0 if c0 < 2 else cache[c0]
                r1 = c1 if c1 < 2 else cache[c1]
                lv = level[node]
                target = level_map.get(lv, lv)
                variable = mk(target, 0, 1)
                cache[node] = ite(variable, r1, r0)
        return cache[f]

    def restrict(self, f: int, assignment: dict[str, bool]) -> int:
        levels = {self._var_ids[n]: v for n, v in assignment.items()}
        return self._restrict(f, levels, {})

    def _restrict(
        self, f: int, levels: dict[int, bool], cache: dict[int, int]
    ) -> int:
        if f < 2:
            return f
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        created = 0
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                lv = level[frame]
                if lv in levels:
                    branch = high[frame] if levels[lv] else low[frame]
                    if branch > 1:
                        push(branch)
                else:
                    c1 = high[frame]
                    if c1 > 1:
                        push(c1)
                    c0 = low[frame]
                    if c0 > 1:
                        push(c0)
            else:
                node = frame ^ _READY1
                lv = level[node]
                if lv in levels:
                    branch = high[node] if levels[lv] else low[node]
                    cache[node] = branch if branch < 2 else cache[branch]
                    continue
                c0 = low[node]
                c1 = high[node]
                r0 = c0 if c0 < 2 else cache[c0]
                r1 = c1 if c1 < 2 else cache[c1]
                if r0 == r1:
                    cache[node] = r0
                    continue
                unique_key = (lv << 56) | (r0 << _SH) | r1
                res = unique.get(unique_key)
                if res is None:
                    res = len(level)
                    if res >= _DEAD_CHILD:
                        raise RuntimeError("fast kernel node-id space exhausted")
                    level.append(lv)
                    low.append(r0)
                    high.append(r1)
                    unique[unique_key] = res
                    created += 1
                cache[node] = res
        if created:
            self._live += created
            self._index_dirty = True
        return cache[f]

    # ------------------------------------------------------------------
    # Evaluation / enumeration
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool:
        level = self._level
        low = self._low
        high = self._high
        names = self._var_names
        node_id = f
        while node_id > 1:
            name = names[level[node_id]]
            node_id = high[node_id] if assignment.get(name, False) else low[node_id]
        return node_id == 1

    def count_sat(self, f: int, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        total_vars = nvars if nvars is not None else len(self._var_names)
        if f == 0:
            return 0
        if f == 1:
            return 1 << total_vars
        level = self._level
        low = self._low
        high = self._high
        cache: dict[int, int] = {}
        stack = [f]
        push = stack.append
        while stack:
            frame = stack.pop()
            if frame < _READY1:
                if frame in cache:
                    continue
                push(frame | _READY1)
                c1 = high[frame]
                if c1 > 1:
                    push(c1)
                c0 = low[frame]
                if c0 > 1:
                    push(c0)
            else:
                node = frame ^ _READY1
                c0 = low[node]
                c1 = high[node]
                lv = level[node]
                if c0 < 2:
                    low_count, low_level = c0, total_vars
                else:
                    low_count, low_level = cache[c0], level[c0]
                if c1 < 2:
                    high_count, high_level = c1, total_vars
                else:
                    high_count, high_level = cache[c1], level[c1]
                cache[node] = low_count * (1 << (low_level - lv - 1)) + (
                    high_count * (1 << (high_level - lv - 1))
                )
        return cache[f] * (1 << level[f])

    def any_sat(self, f: int) -> dict[str, bool] | None:
        """One satisfying assignment, or None."""
        if f == 0:
            return None
        level = self._level
        low = self._low
        high = self._high
        names = self._var_names
        assignment: dict[str, bool] = {}
        node_id = f
        while node_id != 1:
            name = names[level[node_id]]
            branch = high[node_id]
            if branch != 0:
                assignment[name] = True
                node_id = branch
            else:
                assignment[name] = False
                node_id = low[node_id]
        return assignment

    def size(self, f: int) -> int:
        """Number of distinct nodes in the BDD rooted at ``f``."""
        low = self._low
        high = self._high
        seen: set[int] = set()
        stack = [f]
        while stack:
            node_id = stack.pop()
            if node_id < 2 or node_id in seen:
                continue
            seen.add(node_id)
            stack.append(low[node_id])
            stack.append(high[node_id])
        return len(seen) + 2

    # ------------------------------------------------------------------
    # Garbage collection (roots must be registered or passed explicitly)
    # ------------------------------------------------------------------
    def collect(self, roots: tuple[int, ...] | list[int] = ()) -> int:
        """Mark-and-sweep from ``roots`` + every protected id.

        Dead nodes leave the unique table and the level index and their
        slots are poisoned (ids are never reused; a dangling reference
        indexes out of range and fails loudly).  Returns the number of
        collected nodes.  All memo caches are dropped: they may
        reference dead ids.
        """
        level = self._level
        low = self._low
        high = self._high
        total = len(level)
        marked = bytearray(total)
        stack = [*roots, *self._protected]
        while stack:
            node_id = stack.pop()
            if node_id < 2 or marked[node_id]:
                continue
            marked[node_id] = 1
            stack.append(low[node_id])
            stack.append(high[node_id])
        unique = self._unique
        index: dict[int, set[int]] = {}
        collected = 0
        for node_id in range(2, total):
            lv = level[node_id]
            if lv == _DEAD_LEVEL:
                continue
            if marked[node_id]:
                bucket = index.get(lv)
                if bucket is None:
                    index[lv] = bucket = set()
                bucket.add(node_id)
                continue
            del unique[(lv << 56) | (low[node_id] << _SH) | high[node_id]]
            level[node_id] = _DEAD_LEVEL
            low[node_id] = _DEAD_CHILD
            high[node_id] = _DEAD_CHILD
            collected += 1
        self._level_nodes = index
        self._index_dirty = False
        self._live -= collected
        self._drop_op_caches()
        self._support_cache.clear()
        self._support_mask_cache.clear()
        self._gc_runs += 1
        self._nodes_collected += collected
        return collected

    # ------------------------------------------------------------------
    # Reordering primitive (the search strategy lives in KernelBase)
    # ------------------------------------------------------------------
    def swap_adjacent(self, level_index: int) -> None:
        """Exchange the variables at ``level_index`` and ``level_index+1``
        in place — same id-stable variable swap as the reference kernel,
        over the flat columns."""
        if not 0 <= level_index < len(self._var_names) - 1:
            raise ValueError(
                f"cannot swap level {level_index} of {len(self._var_names)}"
            )
        self._ensure_index()
        lower_level = level_index + 1
        level = self._level
        low = self._low
        high = self._high
        unique = self._unique
        upper = list(self._level_nodes.get(level_index, ()))
        lower = list(self._level_nodes.get(lower_level, ()))

        # Cofactor quadruples of the interacting upper nodes, computed
        # against the *original* structure before anything moves.
        quads: dict[int, tuple[int, int, int, int]] = {}
        for node_id in upper:
            lo = low[node_id]
            hi = high[node_id]
            touches_low = level[lo] == lower_level
            touches_high = level[hi] == lower_level
            if not (touches_low or touches_high):
                continue
            f00, f01 = (low[lo], high[lo]) if touches_low else (lo, lo)
            f10, f11 = (low[hi], high[hi]) if touches_high else (hi, hi)
            quads[node_id] = (f00, f01, f10, f11)

        for node_id in upper:
            del unique[(level_index << 56) | (low[node_id] << _SH) | high[node_id]]
        for node_id in lower:
            del unique[(lower_level << 56) | (low[node_id] << _SH) | high[node_id]]
        upper_set = self._level_nodes.setdefault(level_index, set())
        lower_set = self._level_nodes.setdefault(lower_level, set())

        # Lower nodes float up: their variable now sits at ``level_index``
        # and their children (at deeper levels) are untouched.
        for node_id in lower:
            level[node_id] = level_index
            unique[(level_index << 56) | (low[node_id] << _SH) | high[node_id]] = (
                node_id
            )
            lower_set.discard(node_id)
            upper_set.add(node_id)
        # Solitary upper nodes sink unchanged below the swapped variable.
        for node_id in upper:
            if node_id in quads:
                continue
            level[node_id] = lower_level
            unique[(lower_level << 56) | (low[node_id] << _SH) | high[node_id]] = (
                node_id
            )
            upper_set.discard(node_id)
            lower_set.add(node_id)
        # Interacting nodes are rebuilt with the two variables exchanged:
        # f = u ? f1 : f0  becomes  v ? (u ? f11 : f01) : (u ? f10 : f00).
        for node_id, (f00, f01, f10, f11) in quads.items():
            new_low = self._mk(lower_level, f00, f10)
            new_high = self._mk(lower_level, f01, f11)
            low[node_id] = new_low
            high[node_id] = new_high
            unique[(level_index << 56) | (new_low << _SH) | new_high] = node_id
            # stays in upper_set

        name_a = self._var_names[level_index]
        name_b = self._var_names[lower_level]
        self._var_names[level_index] = name_b
        self._var_names[lower_level] = name_a
        self._var_ids[name_a] = lower_level
        self._var_ids[name_b] = level_index
        self._support_cache.clear()
        self._support_mask_cache.clear()
        # Ids are stable across the swap (same id, same function), so the
        # id-keyed op caches stay valid — but the quantification tables
        # are keyed by *level* masks, which just moved.
        self._ae_caches.clear()
        self._ex_caches.clear()
        self._ael_cache.clear()

    # ------------------------------------------------------------------
    # Observability hooks
    # ------------------------------------------------------------------
    def _unique_entries(self) -> int:
        return len(self._unique)

    def _computed_entries(self) -> int:
        return (
            len(self._and_cache)
            + len(self._or_cache)
            + len(self._not_cache)
            + len(self._andnot_cache)
            + len(self._ite_cache)
            + sum(len(table) for table in self._ae_caches.values())
            + sum(len(table) for table in self._ex_caches.values())
        )

    def _drop_op_caches(self) -> None:
        self._and_cache.clear()
        self._or_cache.clear()
        self._not_cache.clear()
        self._andnot_cache.clear()
        self._ite_cache.clear()
        self._ae_caches.clear()
        self._ex_caches.clear()
        self._ael_cache.clear()
