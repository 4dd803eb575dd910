"""Categories of simplices, the last-vertex projection, and the marked class.

The category of simplices of a truncated set has the (possibly degenerate)
simplices as objects and the simplex maps over the set as morphisms.  The
marked morphisms are the ones carrying the last vertex of the source to
the last vertex of the target; the projection collapses every simplex to
its last vertex and sends marked morphisms to degenerate edges, hence to
isomorphisms in any homotopy category.  Reports carry the truncation
depth: the construction is depth-free only on paper.  Only the whole
projection and ``marked_closure_report`` compose simplex maps; p on one
chain, ``check_inverts_L`` and Kan extensions read the morphism lists.
Every simplex operator y . α they apply (a morphism's source, p on a
chain, a Kan extension's compatibility checks) is read off the set's level
tables through ``TruncatedSSet.action_codes``, one code table per (α, n),
kept on the set.
"""

from __future__ import annotations

from functools import cached_property

from .cats import FiniteCategory
from .nerve import ho, nerve
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    ValidationReport,
    monotone_tuples,
    simplicial_action,
)
from .util import Budget, ensure_budget


def _obj_id(m: int, e: SimplexExpr) -> str:
    return f"{m}:{e.token()}"


class SimplexCategory:
    """Truncated category of simplices with the last-vertex class marked.

    Objects (``simplex_of``), ``morphisms``, ``identities``, ``alpha_of``
    and ``marked`` are listed here; ``category``, the composition table
    with them, is built when first read, by ``last_vertex_projection`` or
    ``marked_closure_report``.  A morphism α: (m, x) -> (n, y) is named
    ``"<x's id>-><y's id>:<α's digits>"``; x = y . α is read off the set's
    ``action_codes(α, n)`` and named from one list of object ids per level,
    by code."""

    def __init__(self, S: TruncatedSSet, depth: int):
        if depth > S.dim_bound:
            raise ValueError("depth exceeds the truncation of the simplicial set")
        self.sset = S
        self.depth = depth
        self.simplex_of = {_obj_id(m, e): (m, e)
                           for m in range(depth + 1) for e in S.total(m)}
        ids = [[_obj_id(m, e) for e in S.table(m).cells] for m in range(depth + 1)]
        # per target level n: each α into [n] with its sources' ids, action and digits
        arrows = [[(alpha, ids[m], S.action_codes(alpha, n), "".join(map(str, alpha)))
                   for m in range(depth + 1) for alpha in monotone_tuples(m, n)]
                  for n in range(depth + 1)]
        self.morphisms = {}
        self.identities = {}
        self.alpha_of = {}
        for tgt, (n, y) in self.simplex_of.items():
            c = S.table(n).code[y]
            identity = tuple(range(n + 1))
            for alpha, sources, act, digits in arrows[n]:
                src = sources[act[c]]
                mid = f"{src}->{tgt}:{digits}"
                self.morphisms[mid] = (src, tgt)
                self.alpha_of[mid] = alpha
                if alpha == identity:
                    self.identities[tgt] = mid
        self.marked = frozenset(filter(self._is_last_vertex, self.morphisms))

    @cached_property
    def category(self) -> FiniteCategory:
        """The category, composed on first read.  A morphism is fixed by its
        target and α, so g ∘ f is the listed one into g's target along α_g ∘ α_f."""
        named = {(tgt, self.alpha_of[mid]): mid for mid, (_, tgt) in self.morphisms.items()}
        idset = set(self.identities.values())
        by_src: dict = {}
        for mid, (src, tgt) in self.morphisms.items():
            if mid not in idset:
                by_src.setdefault(src, []).append((mid, tgt, self.alpha_of[mid]))
        compose = {}
        for f, (_, ftgt) in self.morphisms.items():
            if f in idset:
                continue
            alpha_f = self.alpha_of[f]
            for g, gtgt, alpha_g in by_src.get(ftgt, ()):
                compose[(g, f)] = named[(gtgt, tuple(alpha_g[a] for a in alpha_f))]
        return FiniteCategory(self.simplex_of, self.morphisms, compose, self.identities,
                              f"simplices({self.sset.name})<= {self.depth}")

    def _is_last_vertex(self, mid: str) -> bool:
        return self.alpha_of[mid][-1] == self.simplex_of[self.morphisms[mid][1]][0]

    def __repr__(self):
        return (f"<simplex category of {self.sset.name} at depth {self.depth}: "
                f"{len(self.simplex_of)} objects, "
                f"{len(self.morphisms)} morphisms, {len(self.marked)} marked>")


def last_vertex_image(sc: SimplexCategory, chain: tuple) -> SimplexExpr:
    """p on a chain (object, morphism, ...): the last simplex restricted
    along the track of the last vertices of the stages."""
    mors = chain[1:]
    stages = chain[:1] + tuple(sc.morphisms[mid][1] for mid in mors)
    track = []
    for i, obj in enumerate(stages):
        pos = sc.simplex_of[obj][0]  # last vertex of stage i
        for mid in mors[i:]:
            pos = sc.alpha_of[mid][pos]
        track.append(pos)
    return simplicial_action(sc.sset, tuple(track), sc.simplex_of[stages[-1]][1])


def projected_edge(sc: SimplexCategory, mid: str) -> SimplexExpr:
    """p on the 1-chain of mid, its faces checked against p on its ends."""
    src, tgt = sc.morphisms[mid]
    edge = last_vertex_image(sc, (src, mid))
    for i, end in ((1, src), (0, tgt)):
        if sc.sset.face(edge, i) != last_vertex_image(sc, (end,)):
            raise AssertionError(f"last-vertex projection is not simplicial: "
                                 f"face d_{i} not preserved at {mid!r}")
    return edge


def last_vertex_projection(S: TruncatedSSet, d: int):
    """The simplicial map from the nerve of the simplex category onto S.

    Every chain goes to its ``last_vertex_image``.  Returns (simplex
    category, nerve, map); the map is validated here, where it is built.
    """
    sc = SimplexCategory(S, d)
    N = nerve(sc.category, 2)
    assignment = {cid: last_vertex_image(sc, N.chain_of[cid])
                  for k in range(N.dim_bound + 1) for cid in N.nondeg(k)}
    p = SimplicialMap(N, S, assignment)
    report = p.validate()
    if not report.ok:
        raise AssertionError(
            f"last-vertex projection is not simplicial: {report.violations[0]}")
    return sc, N, p


def marked_closure_report(sc: SimplexCategory) -> ValidationReport:
    """Identities are marked and marked morphisms compose to marked ones."""
    report = ValidationReport(f"marked class of {sc.sset.name} at depth {sc.depth}")
    C = sc.category
    for x, i in C.identities.items():
        report.checked += 1
        if i not in sc.marked:
            report.add(f"identity of {x!r} is not marked")
    for f in sorted(sc.marked):
        for g in sorted(sc.marked):
            if C.cod(f) != C.dom(g):
                continue
            report.checked += 1
            if C.compose(g, f) not in sc.marked:
                report.add(f"composite of marked {g!r} . {f!r} is not marked")
    return report


def check_inverts_L(Q: TruncatedSSet, d: int, budget: Budget = None,
                    sc: SimplexCategory = None) -> ValidationReport:
    """Every marked morphism projects to a Ho-invertible edge of Q.

    p is read on the marked 1-chains of ``sc`` (``projected_edge``), the
    caller's ``SimplexCategory(Q, d)`` or else a new one; an ``sc`` of
    another set or depth is a ``ValueError``.  The composition table is
    not built.  The report names the depth; the full localization property
    is never claimed here.
    """
    if sc is not None and (sc.sset is not Q or sc.depth != d):
        raise ValueError(f"{sc!r} is not the simplex category of {Q.name} at depth {d}")
    budget = ensure_budget(budget, f"marked-class check on {Q.name}")
    pres = ho(Q, budget)
    sc = sc or SimplexCategory(Q, d)
    report = ValidationReport(f"marked morphisms of {Q.name} at depth {d} invert in Ho")
    for mid in sorted(sc.marked.difference(sc.identities.values())):
        report.checked += 1
        edge = projected_edge(sc, mid)
        if not pres.category.is_iso(pres.cls(edge)):
            report.add(f"marked morphism {mid!r} projects to the "
                       f"non-invertible edge {edge.token()}")
    return report
