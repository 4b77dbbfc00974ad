"""The communication-protocol pass (``Y01``/``T0x`` rules).

S*'s SPMD codes talk through the simulator's tagged one-sided puts: a tag
names exactly one logical transfer, and a ``recv``/``barrier`` only takes
effect when the rank program ``yield``s it.  This pass flags the bug
classes the simulator cannot diagnose at runtime — or diagnoses only as an
opaque deadlock:

* ``Y01`` (error) — a ``recv``/``barrier`` call that is not the direct
  operand of a ``yield``.  ``env.recv(tag)`` merely *builds* a request;
  without ``yield`` it is a silent no-op and the matching message leaks.
* ``T01`` (error) — a tag kind whose send-side and recv-side tuple arities
  differ (the two sides can never match: a deadlock or a leak).
* ``T02`` (warning) — a tag kind that is only ever sent, or only ever
  received, within the module (an unconsumed multicast or an
  unsatisfiable wait; the partner may live in another module).
* ``T03`` (warning) — a comm call lexically inside a ``for`` loop whose tag
  does not vary with that loop (no name derived from the loop target
  appears in the tag): successive iterations reuse one ``(dest, tag)``.

Only attribute calls on the SPMD handle names (``module.env_names``,
``env`` by default) are communication sites.
"""

from __future__ import annotations

import ast
from collections import namedtuple

from .core import FindingCollector, Severity, register_pass, register_rule

register_rule(
    "Y01", Severity.ERROR, "unyielded-comm",
    "recv/barrier call not yielded: the request is silently dropped",
)
register_rule(
    "T01", Severity.ERROR, "tag-arity-mismatch",
    "send-side and recv-side tag tuples of one kind differ in arity",
)
register_rule(
    "T02", Severity.WARNING, "one-sided-tag",
    "tag kind only sent or only received within the module",
)
register_rule(
    "T03", Severity.WARNING, "loop-invariant-tag",
    "comm call in a for loop whose tag does not vary with the loop",
)

#: methods of the Env handle that constitute communication sites
SEND_OPS = ("send", "multicast")
YIELD_OPS = ("recv", "barrier")

#: one send/multicast/recv site; ``kind`` is the tag's leading literal
#: (None when undecidable), ``arity`` the element count after it (-1 when
#: the tag is not a literal tuple)
_Site = namedtuple("_Site", "op call kind arity")


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _tag_expr(call: ast.Call, op: str):
    """The tag argument of a comm call (positional or ``tag=`` keyword)."""
    for kw in call.keywords:
        if kw.arg == "tag":
            return kw.value
    idx = 0 if op == "recv" else 1
    return call.args[idx] if len(call.args) > idx else None


def _tag_shape(tag):
    """(kind, arity) of a tag expression; kind None when undecidable."""
    if isinstance(tag, ast.Constant):
        return tag.value, 0
    if isinstance(tag, ast.Tuple) and tag.elts:
        head = tag.elts[0]
        kind = head.value if isinstance(head, ast.Constant) else None
        return kind, len(tag.elts) - 1
    return None, -1


class ProtocolWalker:
    """One module's walk: per-site Y01/T03 checks, then T01/T02 pairing.

    ``loops`` is the tuple of enclosing ``for`` loops, each a
    ``(line, tainted_names)`` pair where the taint set holds the names
    whose values derive from that loop's target.
    """

    def __init__(self, module, collector: FindingCollector):
        self.col = collector
        self.env_names = frozenset(module.env_names)
        self.sites = []
        # calls appearing directly as the operand of a yield
        self.yielded = {
            id(n.value) for n in ast.walk(module.tree)
            if isinstance(n, ast.Yield) and isinstance(n.value, ast.Call)
        }

    def run(self, tree):
        self._walk_body(tree.body, ())
        self._check_pairing()

    # -- traversal ---------------------------------------------------------

    def _walk_body(self, body, loops):
        for stmt in body:
            self._walk_stmt(stmt, loops)

    def _walk_stmt(self, stmt, loops):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested SPMD (sub)program: its parameters are external
            # discriminators, loop tracking restarts inside it
            self._walk_body(stmt.body, ())
        elif isinstance(stmt, ast.For):
            self._scan(stmt.iter, loops)
            ctx = (stmt.lineno, _names_in(stmt.target))
            self._walk_body(stmt.body, loops + (ctx,))
            self._walk_body(stmt.orelse, loops)
        elif isinstance(stmt, (ast.While, ast.If)):
            # no taint can be established for a while loop; comm calls in
            # its body are checked against the loops *outside* it only
            self._scan(stmt.test, loops)
            self._walk_body(stmt.body, loops)
            self._walk_body(stmt.orelse, loops)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr, loops)
            self._walk_body(stmt.body, loops)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, loops)
            for h in stmt.handlers:
                self._walk_body(h.body, loops)
            self._walk_body(stmt.orelse, loops)
            self._walk_body(stmt.finalbody, loops)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                and stmt.value is not None:
            # propagate taint through straight-line assignments
            targets = getattr(stmt, "targets", None) or [stmt.target]
            value_names = _names_in(stmt.value)
            for _, tainted in loops:
                if value_names & tainted:
                    for t in targets:
                        tainted |= _names_in(t)
            self._scan(stmt.value, loops)
        else:
            self._scan(stmt, loops)

    def _scan(self, node, loops):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                op = self._comm_op(sub)
                if op:
                    self._check_site(sub, op, loops)

    def _comm_op(self, call: ast.Call):
        f = call.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in self.env_names
                and f.attr in SEND_OPS + YIELD_OPS):
            return f.attr
        return None

    # -- per-site checks ---------------------------------------------------

    def _check_site(self, call: ast.Call, op: str, loops):
        if op in YIELD_OPS and id(call) not in self.yielded:
            self.col.emit(
                "Y01", call,
                f"`{op}` is not yielded — `env.{op}(...)` only builds a "
                "request; without `yield` it is a silent no-op",
            )
        if op == "barrier":
            return
        tag = _tag_expr(call, op)
        if tag is None:
            return
        self.sites.append(_Site(op, call, *_tag_shape(tag)))
        tag_names = _names_in(tag)
        for line, tainted in loops:
            if not (tag_names & tainted):
                self.col.emit(
                    "T03", call,
                    f"tag of `{op}` does not vary with the enclosing "
                    f"for loop at line {line} (loop names: "
                    f"{sorted(tainted)}) — iterations reuse one "
                    "(dest, tag) pair",
                )

    # -- module-level pairing ----------------------------------------------

    def _check_pairing(self):
        kinds = {}
        for site in self.sites:
            if site.kind is not None:
                kinds.setdefault(site.kind, []).append(site)
        for kind, sites in sorted(kinds.items(), key=lambda kv: repr(kv[0])):
            sends = [s for s in sites if s.op in SEND_OPS]
            recvs = [s for s in sites if s.op == "recv"]
            node = sites[0].call
            if sends and not recvs:
                self.col.emit(
                    "T02", node,
                    f"tag kind {kind!r} is sent (line "
                    f"{', '.join(str(s.call.lineno) for s in sends)}) but "
                    "never received in this module — messages would leak",
                )
            elif recvs and not sends:
                self.col.emit(
                    "T02", node,
                    f"tag kind {kind!r} is received (line "
                    f"{', '.join(str(s.call.lineno) for s in recvs)}) but "
                    "never sent in this module — the wait cannot be "
                    "satisfied",
                )
            else:
                sa = {s.arity for s in sends}
                ra = {s.arity for s in recvs}
                if sa != ra:
                    self.col.emit(
                        "T01", node,
                        f"tag kind {kind!r}: send-side arities {sorted(sa)} "
                        f"!= recv-side arities {sorted(ra)} — the tag "
                        "tuples can never match",
                    )


def run(module, summaries):
    col = FindingCollector(module)
    ProtocolWalker(module, col).run(module.tree)
    return col.findings


register_pass("protocol", run)
