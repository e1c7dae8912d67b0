"""Patterns, compiled patterns, and op-indexed e-matching.

A pattern is a term whose leaves may be *pattern variables* (spelled ``?x``
in the textual syntax).  E-matching finds, for a given e-class, every
substitution of pattern variables to e-class ids such that the pattern is
represented in the class.  This is the search half of a rewrite rule.

The textual syntax accepted by :func:`parse_pattern` is a tiny s-expression
language, e.g. the FMA1 rule of the paper (Table I) is written::

    (+ ?a (* ?b ?c))   ->   (fma ?a ?b ?c)

Two matching engines coexist:

* the **naive reference matcher** (:meth:`Pattern.search_naive`,
  :func:`_match_pattern`) — a backtracking generator that re-walks the
  pattern dataclass tree against every e-class, through the ENode boundary
  views.  It is kept as the executable specification the fast engine is
  tested against.
* the **compiled matcher** (:class:`CompiledPattern`) — each pattern is
  lowered once into a specialised Python function that indexes the
  e-graph's interned arena directly.  A call-time prologue resolves the
  pattern's operator names and payload constants to the graph's interned
  ids (a pattern op the graph never interned cannot match anywhere, so the
  function returns immediately); the inner loops then walk per-class
  ``buckets_by_op_id`` buckets of raw key tuples — child ids are
  ``key[i]`` index reads, arity is ``len(key)``, payload guards are
  integer membership tests.  No attribute lookups or node objects survive
  into the match path.  ``CompiledPattern.search`` optionally takes a
  ``since`` version stamp and then skips classes untouched since that
  stamp — the incremental half of the engine (see
  :meth:`repro.egraph.egraph.EGraph.rebuild` for how *touched* stamps are
  propagated).

Internally matches flow as flat **rows** ``(root_class_id, v0, v1, ..)``
with variable values in :meth:`Pattern.variables` order (what
``search_rows`` returns and the runner's apply loop consumes); the public
``search``/``match_class`` APIs wrap them into the historical
``(class id, substitution dict)`` form in the same order.

:func:`compile_pattern` memoises the lowering, and :func:`parse_pattern`
memoises parsing, so building a ruleset repeatedly (as benchmark loops do)
costs one compilation total per distinct pattern.  The compiled functions
are graph-agnostic: interned ids are resolved per call, so one compiled
pattern serves every e-graph in the process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.language import Term

__all__ = [
    "PatternVar",
    "Pattern",
    "CompiledPattern",
    "compile_pattern",
    "compile_row_applier",
    "compile_row_instantiator",
    "parse_pattern",
    "Substitution",
]


@dataclass(frozen=True)
class PatternVar:
    """A pattern variable, e.g. ``?a``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


#: A substitution maps pattern-variable names to e-class ids.
Substitution = Dict[str, int]

PatternNode = Union["Pattern", PatternVar]


@dataclass(frozen=True)
class Pattern:
    """A pattern term: an operator applied to sub-patterns or variables."""

    op: str
    children: Tuple[PatternNode, ...] = ()
    payload: object = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_term(term: Term) -> "Pattern":
        """Lift a ground term into a (variable-free) pattern."""

        return Pattern(
            term.op,
            tuple(Pattern.from_term(c) for c in term.children),
            term.payload,
        )

    def variables(self) -> List[str]:
        """Names of the pattern variables, in first-occurrence order."""

        names: List[str] = []

        def visit(node: PatternNode) -> None:
            if isinstance(node, PatternVar):
                if node.name not in names:
                    names.append(node.name)
                return
            for child in node.children:
                visit(child)

        visit(self)
        return names

    # ------------------------------------------------------------------
    # E-matching
    # ------------------------------------------------------------------

    def compile(self) -> "CompiledPattern":
        """The (memoised) compiled form of this pattern."""

        return compile_pattern(self)

    def match_class(self, egraph: EGraph, eclass_id: int) -> Iterator[Substitution]:
        """Yield every substitution under which this pattern is in the class."""

        yield from _match_pattern(egraph, self, egraph.find(eclass_id), {})

    def search(self, egraph: EGraph) -> List[Tuple[int, Substitution]]:
        """Search the whole e-graph; returns ``(eclass_id, substitution)`` pairs.

        Uses the compiled, op-indexed engine; :meth:`search_naive` is the
        slow reference implementation.
        """

        return compile_pattern(self).search(egraph)

    def search_naive(self, egraph: EGraph) -> List[Tuple[int, Substitution]]:
        """Reference search: backtracking generator over every e-class."""

        matches: List[Tuple[int, Substitution]] = []
        for eclass in list(egraph.eclasses()):
            for subst in self.match_class(egraph, eclass.id):
                matches.append((eclass.id, subst))
        return matches

    # ------------------------------------------------------------------
    # Instantiation (used by the applier half of rewrites)
    # ------------------------------------------------------------------

    def instantiate(self, egraph: EGraph, subst: Substitution) -> int:
        """Add this pattern to the e-graph under *subst*; return the class id."""

        if self.op == "?" and len(self.children) == 1 and isinstance(self.children[0], PatternVar):
            # a bare-variable right-hand side (e.g. the `(+ ?a 0) => ?a`
            # identity): the result is simply the bound class
            return egraph.find(subst[self.children[0].name])
        child_ids: List[int] = []
        for child in self.children:
            if isinstance(child, PatternVar):
                child_ids.append(subst[child.name])
            else:
                child_ids.append(child.instantiate(egraph, subst))
        return egraph.add(ENode(self.op, tuple(child_ids), self.payload))

    def to_term(self, bindings: Dict[str, Term]) -> Term:
        """Instantiate into a plain term given variable-to-term bindings."""

        children: List[Term] = []
        for child in self.children:
            if isinstance(child, PatternVar):
                children.append(bindings[child.name])
            else:
                children.append(child.to_term(bindings))
        return Term(self.op, tuple(children), self.payload)

    def __str__(self) -> str:
        label = self.op if self.payload is None else f"{self.op}:{self.payload}"
        if not self.children:
            if self.op == "num":
                return repr(self.payload)
            if self.op == "sym":
                return str(self.payload)
            return f"({label})"
        return f"({label} {' '.join(str(c) for c in self.children)})"


# ---------------------------------------------------------------------------
# Compiled patterns
# ---------------------------------------------------------------------------


class _MatcherCodegen:
    """Lower one pattern into a specialised Python search function.

    The generated function resolves every operator / payload constant of
    the pattern to the target graph's interned ids in a short prologue
    (returning immediately when the graph has never interned one of them),
    then runs one ``for`` loop per operator node of the pattern over the
    candidate class's ``buckets_by_op_id`` bucket of raw key tuples.
    Arity and payload pre-filters are inline integer guards, child class
    ids are direct ``key[i]`` reads, and pattern variables bind to plain
    locals (a repeated variable becomes an ``!=`` guard).  No interpreter
    dispatch, node objects, or per-binding dict copies survive into the
    hot loop; a complete match is emitted as a flat ``(cid, v0, v1, ..)``
    row tuple (variable values in :meth:`Pattern.variables` order) — no
    dict is built at all on the match path.
    """

    def __init__(self, pattern: Pattern) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, object] = {}
        self.slots: Dict[str, str] = {}
        self.counter = 0
        self.order: List[str] = pattern.variables()
        self.pattern = pattern
        #: op name -> prologue local holding its interned id.
        self.op_locals: Dict[str, str] = {}
        #: (payload type name, payload) -> prologue local holding its
        #: matching-id tuple.
        self.payload_locals: Dict[tuple, str] = {}
        self.prologue: List[str] = []

    def _name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _const(self, value: object) -> str:
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return name

    def _op_local(self, op: str) -> str:
        """Prologue local for the interned id of *op* (early-out if absent)."""

        local = self.op_locals.get(op)
        if local is None:
            local = f"_o{len(self.op_locals)}"
            self.op_locals[op] = local
            self.prologue.append(f"{local} = _opid({self._const(op)})")
            self.prologue.append(f"if {local} is None: return")
        return local

    def _payload_local(self, payload: object) -> str:
        """Prologue local for the ids matching *payload* (early-out if none).

        Payload guards mirror the object engine's plain ``!=`` check —
        type-insensitive — so the ids of every ``==``-equal interned
        payload are accepted (``EGraph.payload_ids_matching``).
        """

        memo_key = (type(payload).__name__, payload)
        local = self.payload_locals.get(memo_key)
        if local is None:
            local = f"_p{len(self.payload_locals)}"
            self.payload_locals[memo_key] = local
            self.prologue.append(f"{local} = _pids({self._const(payload)})")
            self.prologue.append(f"if not {local}: return")
        return local

    def _emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _emit_canon(self, depth: int, target: str, expr: str) -> None:
        """Assign the canonical id of *expr* to *target*.

        Child ids in arena keys are canonical whenever search runs on a
        rebuilt graph (the runner always does), so the emitted code checks
        the union-find parent array inline and only pays the ``find`` call
        on a stale id.
        """

        self._emit(depth, f"{target} = {expr}")
        self._emit(depth, f"if parent[{target}] != {target}: {target} = find({target})")

    def _emit_seq(self, items: List[Tuple[PatternNode, str, bool]], depth: int) -> None:
        """Emit matching code for *items* (node, class-id expression, canonical)."""

        if not items:
            # emit a flat row tuple (cid, v0, v1, ..) in variables() order;
            # the public search()/match_class() wrappers rebuild dicts
            row = ", ".join(["cid"] + [self.slots[name] for name in self.order])
            self._emit(depth, f"append(({row},))")
            return
        (node, expr, is_canonical), rest = items[0], items[1:]
        if isinstance(node, PatternVar):
            bound = self.slots.get(node.name)
            if bound is None:
                var = self._name("v")
                self.slots[node.name] = var
                if is_canonical:
                    self._emit(depth, f"{var} = {expr}")
                else:
                    self._emit_canon(depth, var, expr)
            else:
                if is_canonical:
                    self._emit(depth, f"if {bound} != {expr}: continue")
                else:
                    tmp = self._name("t")
                    self._emit_canon(depth, tmp, expr)
                    self._emit(depth, f"if {bound} != {tmp}: continue")
            self._emit_seq(rest, depth)
            return

        if is_canonical:
            cls_expr = expr
        else:
            cls_expr = self._name("c")
            self._emit_canon(depth, cls_expr, expr)
        key = self._name("n")
        # inline buckets_by_op_id's cache-hit path: candidate/child class
        # ids are canonical on a rebuilt graph, so the classes dict hits
        # directly, and the per-op grouping is version-fresh after the
        # first probe of the phase — only the miss pays a method call
        cls_obj = self._name("g")
        self._emit(depth, f"{cls_obj} = classes_get({cls_expr})")
        self._emit(depth, f"if {cls_obj} is None: {cls_obj} = classes[find({cls_expr})]")
        self._emit(
            depth,
            f"if {cls_obj}._by_op_version != {cls_obj}.version: _regroup({cls_obj})",
        )
        self._emit(
            depth,
            f"for {key} in {cls_obj}._by_op.get({self._op_local(node.op)}, _ET):",
        )
        depth += 1
        self._emit(depth, f"if len({key}) != {2 + len(node.children)}: continue")
        if node.payload is not None:
            self._emit(
                depth,
                f"if {key}[1] not in {self._payload_local(node.payload)}: continue",
            )
        child_items = [
            (child, f"{key}[{i + 2}]", False) for i, child in enumerate(node.children)
        ]
        self._emit_seq(child_items + rest, depth)

    def build(self):
        self._emit_seq([(self.pattern, "cid", True)], 2)
        body = self.lines
        self.lines = []
        self._emit(0, "def _search(eg, candidates, out):")
        self._emit(1, "_opid = eg._op_ids.get")
        self._emit(1, "_pids = eg.payload_ids_matching")
        for line in self.prologue:
            self._emit(1, line)
        self._emit(1, "find = eg.uf.find")
        self._emit(1, "parent = eg.uf._parent")
        self._emit(1, "classes = eg.classes")
        self._emit(1, "classes_get = classes.get")
        self._emit(1, "_regroup = eg._rebuild_by_op")
        self._emit(1, "append = out.append")
        self._emit(1, "for cid in candidates:")
        self.lines.extend(body)
        namespace: Dict[str, object] = {"len": len, "_ET": ()}
        namespace.update(self.consts)
        exec("\n".join(self.lines), namespace)  # noqa: S102 - trusted codegen
        return namespace["_search"]


#: Process-wide sequence for instantiator identity (indexes the per-graph
#: resolved-constant cache ``EGraph._inst_consts``).
_INST_SEQ = iter(range(1 << 62)).__next__


class _InstantiatorCodegen:
    """Lower a right-hand-side pattern into a specialised builder function.

    Emits a statement sequence mirroring the recursive instantiation order
    (children left-to-right, bottom-up) with the arena's hashcons **hit
    path inlined**: per node, build the ``(op_id, payload_id, child...)``
    key, canonicalise the child ids only if one went stale (an inline
    parent-array check — a sibling's add can merge a child away via
    constant folding), probe ``eg.hashcons`` directly, and only fall back
    to ``eg.add_key`` on a miss.  Saturation overwhelmingly re-derives
    nodes that already exist, so the common per-node cost is one tuple
    build plus one dict probe, with no function call.  The pattern's
    operator/payload ids are interned once per (graph, pattern) and cached
    in ``eg._inst_consts`` (interned ids are append-only, so the cache
    never goes stale), making the per-call prologue two attribute binds
    and one dict probe.

    With *positions* given (variable name -> index into a flat match
    row), the generated builder reads its bindings positionally —
    ``subst[3]`` instead of ``subst['a']`` — so the runner's row pipeline
    never materialises substitution dicts (see
    :func:`compile_row_instantiator`).
    """

    def __init__(self, positions: Optional[Dict[str, int]] = None) -> None:
        self.const_values: List[object] = []   # op names / payloads, in order
        self.const_kinds: List[str] = []       # "op" | "payload"
        self.id_locals: Dict[tuple, str] = {}
        self.body: List[str] = []
        self.var_locals: Dict[str, str] = {}
        self.counter = 0
        self.positions = positions

    def _id_local(self, kind: str, value: object) -> str:
        memo_key = (kind, type(value).__name__, value)
        local = self.id_locals.get(memo_key)
        if local is None:
            local = f"_i{len(self.id_locals)}"
            self.id_locals[memo_key] = local
            self.const_values.append(value)
            self.const_kinds.append(kind)
        return local

    def _name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _node(self, node: PatternNode) -> str:
        """Emit statements computing *node*'s class id; return its local."""

        if isinstance(node, PatternVar):
            local = self.var_locals.get(node.name)
            if local is None:
                local = self._name("_s")
                self.var_locals[node.name] = local
                if self.positions is None:
                    self.body.append(f"{local} = subst[{node.name!r}]")
                else:
                    self.body.append(f"{local} = subst[{self.positions[node.name]}]")
            return local
        child_vars = [self._node(child) for child in node.children]
        key = self._name("_t")
        value = self._name("_v")
        payload_expr = (
            "0" if node.payload is None else self._id_local("payload", node.payload)
        )
        parts = [self._id_local("op", node.op), payload_expr]
        parts.extend(child_vars)
        self.body.append(f"{key} = ({', '.join(parts)},)")
        if child_vars:
            stale = " or ".join(f"parent[{v}] != {v}" for v in child_vars)
            canon = ", ".join(f"find({v})" for v in child_vars)
            self.body.append(f"if {stale}:")
            self.body.append("    find = eg.uf.find")
            self.body.append(f"    {key} = ({', '.join(parts[:2])}, {canon},)")
        self.body.append(f"{value} = hc({key})")
        # the key is canonical (inline child re-canonicalisation above) and
        # just missed the probe — take the arena's dedicated miss entry
        self.body.append(f"if {value} is None: {value} = eg._add_canon_miss({key})")
        self.body.append(
            f"elif parent[{value}] != {value}: {value} = eg.uf.find({value})"
        )
        return value

    def _prologue(self, name: str, args: str) -> List[str]:
        seq = _INST_SEQ()
        unpack = ", ".join(f"_i{i}" for i in range(len(self.id_locals)))
        lines = [
            f"def {name}(eg, {args}):",
            "    hc = eg.hashcons.get",
            "    parent = eg.uf._parent",
            f"    _ids = eg._inst_consts.get({seq})",
            "    if _ids is None:",
            "        _ids = _resolve(eg)",
            f"        eg._inst_consts[{seq}] = _ids",
        ]
        if unpack:
            lines.append(f"    {unpack}{',' if len(self.id_locals) == 1 else ''} = _ids")
        return lines

    def _compile(self, lines: List[str], name: str):
        kinds = tuple(self.const_kinds)
        values = tuple(self.const_values)

        def _resolve(eg) -> tuple:
            return tuple(
                eg._intern_op(value) if kind == "op" else eg._intern_payload(value)
                for kind, value in zip(kinds, values)
            )

        namespace: Dict[str, object] = {"_resolve": _resolve}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        return namespace[name]

    def build(self, pattern: Pattern):
        result = self._node(pattern)
        lines = self._prologue("_instantiate", "subst")
        lines.extend(f"    {line}" for line in self.body)
        lines.append(f"    return {result}")
        return self._compile(lines, "_instantiate")

    def build_batch(self, pattern: Pattern):
        """Batched applier: instantiate + merge over a whole row list.

        Generates the :meth:`build` body inside a ``for`` loop over match
        rows, with the per-call prologue (hashcons/parent binds, interned
        id resolution) hoisted out — one function call per *batch* instead
        of one per match.  The loop epilogue is exactly
        ``Rewrite.apply``'s hit path: canonicalise both sides with the
        inline parent-array check and count the merges performed.  All
        bound locals (the parent list, the hashcons dict) are mutated in
        place by adds/merges, so hoisting the binds cannot change what the
        loop observes.
        """

        result = self._node(pattern)
        lines = self._prologue("_apply_rows", "rows")
        lines += [
            "    find = eg.uf.find",
            "    merge_roots = eg.merge_roots",
            "    applied = 0",
            "    for subst in rows:",
        ]
        lines.extend(f"        {line}" for line in self.body)
        lines += [
            f"        ra = {result}",
            "        if parent[ra] != ra: ra = find(ra)",
            "        rb = subst[0]",
            "        if parent[rb] != rb: rb = find(rb)",
            "        if ra != rb:",
            "            merge_roots(ra, rb)",
            "            applied += 1",
            "    return applied",
        ]
        return self._compile(lines, "_apply_rows")


class CompiledPattern:
    """A pattern lowered into specialised match/instantiate functions."""

    __slots__ = ("pattern", "vars", "root_op", "_fn", "_inst", "_bare_var", "_to_subst")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.vars: Tuple[str, ...] = tuple(pattern.variables())
        self.root_op = pattern.op
        self._fn = _MatcherCodegen(pattern).build()
        # row -> substitution dict as a generated dict literal: an order of
        # magnitude cheaper per match than dict(zip(names, row[1:])), and
        # the dict-returning search()/match_class() APIs are themselves
        # benchmark rows (rule_search) and the guarded-rule path
        body = ", ".join(
            f"{name!r}: row[{i + 1}]" for i, name in enumerate(self.vars)
        )
        self._to_subst = eval(f"lambda row: {{{body}}}")
        # a bare-variable pattern `?x` parses as ("?" ?x); its instantiation
        # is just the bound class
        self._bare_var: Optional[str] = None
        if (
            pattern.op == "?"
            and len(pattern.children) == 1
            and isinstance(pattern.children[0], PatternVar)
        ):
            self._bare_var = pattern.children[0].name
            self._inst = None
        else:
            self._inst = _InstantiatorCodegen().build(pattern)

    def instantiate(self, egraph: EGraph, subst: Substitution) -> int:
        """Add the pattern under *subst*; returns the e-class id."""

        if self._bare_var is not None:
            return egraph.find(subst[self._bare_var])
        return self._inst(egraph, subst)

    def match_class(self, egraph: EGraph, eclass_id: int) -> List[Substitution]:
        """All substitutions under which the pattern is in the class."""

        out: List[tuple] = []
        self._fn(egraph, (egraph.find(eclass_id),), out)
        return [self._to_subst(row) for row in out]

    def search_rows(self, egraph: EGraph, since: Optional[int] = None) -> List[tuple]:
        """Search the e-graph; returns flat ``(eclass_id, v0, v1, ..)`` rows.

        Variable values follow :attr:`vars` order.  Rows are what the
        runner's apply loop consumes (together with the positional
        instantiators) — no per-match dict is built.

        When *since* is given, classes whose ``touched`` stamp is
        ``<= since`` are skipped — sound because :meth:`EGraph.rebuild`
        propagates touches upward from every mutated class (matches rooted
        at a skipped class are exactly the matches found by the previous
        scan).
        """

        matches: List[tuple] = []
        candidates = egraph.classes_with_op(self.root_op)
        if not candidates:
            return matches
        if since is not None:
            # the flat touched mirror makes this a single array read per
            # candidate (vs. a dict lookup plus attribute load)
            touched = egraph._class_touched
            candidates = [c for c in candidates if touched[c] > since]
        # class-id order == creation order, matching the naive matcher's
        # iteration over the classes dict (keeps runs deterministic)
        self._fn(egraph, sorted(candidates), matches)
        return matches

    def search(
        self, egraph: EGraph, since: Optional[int] = None
    ) -> List[Tuple[int, Substitution]]:
        """Search the e-graph; returns ``(eclass_id, substitution)`` pairs.

        Root candidates come from the e-graph's op-index, so only classes
        containing the root operator are visited.  This is the historical
        dict-based API — a thin wrapper over :meth:`search_rows`.
        """

        to_subst = self._to_subst
        return [
            (row[0], to_subst(row)) for row in self.search_rows(egraph, since)
        ]


@lru_cache(maxsize=None)
def compile_pattern(pattern: Pattern) -> CompiledPattern:
    """Lower *pattern* to its compiled form (memoised per distinct pattern)."""

    return CompiledPattern(pattern)


@lru_cache(maxsize=None)
def compile_row_instantiator(pattern: Pattern, lhs_vars: Tuple[str, ...]):
    """Instantiator for *pattern* reading bindings from a flat match row.

    *lhs_vars* is the searcher's :attr:`CompiledPattern.vars` tuple; the
    returned builder takes ``(egraph, row)`` where ``row`` is a
    ``(cid, v0, v1, ..)`` tuple from ``search_rows`` and reads each
    variable at its row position — the rows pipeline's replacement for
    dict-based :meth:`CompiledPattern.instantiate`.  Requires every
    variable of *pattern* to occur in *lhs_vars* (callers check; a KeyError
    here would otherwise surface at compile time, not apply time).
    """

    positions = {name: i + 1 for i, name in enumerate(lhs_vars)}
    return _InstantiatorCodegen(positions).build(pattern)


@lru_cache(maxsize=None)
def compile_row_applier(pattern: Pattern, lhs_vars: Tuple[str, ...]):
    """Batched applier for *pattern* over a whole list of match rows.

    Same contract as :func:`compile_row_instantiator`, but the returned
    function takes ``(egraph, rows)`` and performs the full instantiate +
    canonicalise + merge loop of :meth:`Rewrite.apply_rows` in one call,
    returning the number of unions made.  Hoisting the per-match prologue
    out of the loop is worth a few hundred nanoseconds per match — the
    apply phase processes tens of thousands of (mostly redundant) matches
    per saturation run.
    """

    positions = {name: i + 1 for i, name in enumerate(lhs_vars)}
    return _InstantiatorCodegen(positions).build_batch(pattern)


# ---------------------------------------------------------------------------
# Naive reference matcher
# ---------------------------------------------------------------------------


def _match_pattern(
    egraph: EGraph,
    pattern: PatternNode,
    eclass_id: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    """Backtracking e-matcher (reference implementation).

    The substitution dict is copied only when a *new* variable is bound;
    an already-bound variable is checked against the canonical class id
    and the incoming dict is yielded as-is.
    """

    eclass_id = egraph.find(eclass_id)

    if isinstance(pattern, PatternVar):
        bound = subst.get(pattern.name)
        if bound is None:
            new_subst = dict(subst)
            new_subst[pattern.name] = eclass_id
            yield new_subst
        elif bound == eclass_id or egraph.find(bound) == eclass_id:
            yield subst
        return

    for enode in egraph.nodes_of(eclass_id):
        if enode.op != pattern.op:
            continue
        if pattern.payload is not None and enode.payload != pattern.payload:
            continue
        if len(enode.children) != len(pattern.children):
            continue
        yield from _match_children(egraph, pattern.children, enode.children, 0, subst)


def _match_children(
    egraph: EGraph,
    patterns: Sequence[PatternNode],
    child_ids: Sequence[int],
    index: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    if index == len(patterns):
        yield subst
        return
    for new_subst in _match_pattern(egraph, patterns[index], child_ids[index], subst):
        yield from _match_children(egraph, patterns, child_ids, index + 1, new_subst)


# ---------------------------------------------------------------------------
# Textual pattern syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


@lru_cache(maxsize=1024)
def parse_pattern(text: str) -> Pattern:
    """Parse the s-expression pattern syntax.

    Leaves: ``?x`` is a pattern variable, a number literal is a ``num``
    term, and any other atom is a ``sym`` leaf.  ``(op child...)`` builds an
    operator node; ``call:sqrt`` style atoms set the payload.

    Patterns are immutable, so parses are memoised — rulesets rebuilt in a
    loop reuse both the pattern objects and their compiled programs.
    """

    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValueError("empty pattern")
    pos = 0

    def parse_node() -> PatternNode:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == "(":
            head = tokens[pos]
            pos += 1
            op, _, payload = head.partition(":")
            children: List[PatternNode] = []
            while tokens[pos] != ")":
                children.append(parse_node())
            pos += 1  # consume ")"
            return Pattern(op, tuple(children), payload or None)
        if token == ")":
            raise ValueError("unexpected ')' in pattern")
        return _parse_atom(token)

    node = parse_node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in pattern: {tokens[pos:]}")
    if isinstance(node, PatternVar):
        return Pattern("?", (node,))  # degenerate single-variable pattern
    return node


def _parse_atom(token: str) -> PatternNode:
    if token.startswith("?"):
        return PatternVar(token[1:])
    try:
        if "." in token or "e" in token.lower():
            return Pattern("num", (), float(token))
        return Pattern("num", (), int(token))
    except ValueError:
        return Pattern("sym", (), token)
