"""Categories of simplices, the last-vertex projection, and the marked class.

The category of simplices of a truncated set has the (possibly degenerate)
simplices as objects and the simplex maps over the set as morphisms.  The
marked morphisms are the ones carrying the last vertex of the source to
the last vertex of the target; the projection collapses every simplex to
its last vertex and sends marked morphisms to degenerate edges, hence to
isomorphisms in any homotopy category.  Reports carry the truncation
depth: the construction is depth-free only on paper.
"""

from __future__ import annotations

from .cats import FiniteCategory
from .nerve import ho, nerve, require_quasicategory
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


def _mor_id(src: str, dst: str, alpha: tuple) -> str:
    return f"{src}->{dst}:" + "".join(str(a) for a in alpha)


class SimplexCategory:
    """Truncated category of simplices with the last-vertex class marked."""

    def __init__(self, S: TruncatedSSet, depth: int):
        if depth > S.dim_bound:
            raise ValueError("depth exceeds the truncation of the simplicial set")
        self.sset = S
        self.depth = depth
        objects = []
        self.simplex_of = {}
        for m in range(depth + 1):
            for e in S.total(m):
                oid = _obj_id(m, e)
                objects.append(oid)
                self.simplex_of[oid] = (m, e)
        morphisms = {}
        identities = {}
        self.alpha_of = {}
        for tgt in objects:
            n, y = self.simplex_of[tgt]
            for m in range(depth + 1):
                for alpha in monotone_tuples(m, n):
                    x = simplicial_action(S, alpha, y)
                    src = _obj_id(m, x)
                    mid = _mor_id(src, tgt, alpha)
                    morphisms[mid] = (src, tgt)
                    self.alpha_of[mid] = alpha
                    if src == tgt and alpha == tuple(range(n + 1)):
                        identities[tgt] = mid
        compose = {}
        idset = set(identities.values())
        by_src: dict = {}
        for mid, (src, tgt) in morphisms.items():
            by_src.setdefault(src, []).append(mid)
        for f, (fsrc, ftgt) in morphisms.items():
            if f in idset:
                continue
            for g in by_src.get(ftgt, ()):
                if g in idset:
                    continue
                gsrc, gtgt = morphisms[g]
                alpha_g = self.alpha_of[g]
                alpha_f = self.alpha_of[f]
                composite_alpha = tuple(alpha_g[a] for a in alpha_f)
                compose[(g, f)] = _mor_id(fsrc, gtgt, composite_alpha)
        self.category = FiniteCategory(objects, morphisms, compose, identities,
                                       f"simplices({S.name})<= {depth}")
        self.marked = frozenset(
            mid for mid, (src, tgt) in morphisms.items()
            if self._is_last_vertex(mid))

    def _is_last_vertex(self, mid: str) -> bool:
        alpha = self.alpha_of[mid]
        src, tgt = self.category.morphisms[mid]
        n = self.simplex_of[tgt][0]
        return alpha[-1] == n

    def __repr__(self):
        return (f"<simplex category of {self.sset.name} at depth {self.depth}: "
                f"{len(self.category.objects)} objects, "
                f"{len(self.category.morphisms)} morphisms, {len(self.marked)} marked>")


def last_vertex_image(sc: SimplexCategory, chain: tuple) -> SimplexExpr:
    """p on a chain (object, morphism, ...): the last simplex restricted
    along the track of the last vertices of the stages."""
    mors = chain[1:]
    stages = chain[:1] + tuple(sc.category.cod(mid) for mid in mors)
    track = []
    for i, obj in enumerate(stages):
        pos = sc.simplex_of[obj][0]  # last vertex of stage i
        for mid in mors[i:]:
            pos = sc.alpha_of[mid][pos]
        track.append(pos)
    return simplicial_action(sc.sset, tuple(track), sc.simplex_of[stages[-1]][1])


def projected_edge(sc: SimplexCategory, mid: str) -> SimplexExpr:
    """p on the 1-chain of mid, its faces checked against p on its ends."""
    src, tgt = sc.category.morphisms[mid]
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
    caller's ``SimplexCategory(Q, d)`` or else a new one.  The report names
    the depth; the full localization property is never claimed here.
    """
    budget = ensure_budget(budget, f"marked-class check on {Q.name}")
    require_quasicategory(Q, budget)
    pres = ho(Q, budget, verified=True)
    sc = sc or SimplexCategory(Q, d)
    report = ValidationReport(f"marked morphisms of {Q.name} at depth {d} invert in Ho")
    for mid in sorted(sc.marked):
        if sc.category.is_identity(mid):
            continue
        report.checked += 1
        edge = projected_edge(sc, mid)
        if not pres.category.is_iso(pres.cls(edge)):
            report.add(f"marked morphism {mid!r} projects to the "
                       f"non-invertible edge {edge.token()}")
    return report
