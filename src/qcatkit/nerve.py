"""Nerves, horn filling, and homotopy categories of quasicategories.

The nerve of a finite category is presented by chains of composable
non-identity morphisms; it carries a 2-coskeletal certificate, so all
truncated computations with it are exact.

The homotopy category of a quasicategory has the vertices as objects and
homotopy classes of 1-simplices as morphisms.  Two parallel edges are
homotopic when they are two faces of a 2-simplex whose remaining face is
outer and degenerate; classes are the symmetric-transitive closure of that
relation (for quasicategories the one-step relation is already closed,
which the tests assert on the corpus).

Ho and the inner 2-horn check read level 2 only as face rows
(``TruncatedSSet.rows``) in report order (``TruncatedSSet.token_order``),
so they name no 2-simplex, and an exponential's top level stays coded.
Each set keeps its Ho, as it keeps its quasicategory report.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter

from .cats import FiniteCategory, Functor, pair_id
from .simplicial import (
    LevelTable,
    ProductSSet,
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    extensions,
    horn,
)
from .util import Budget, ensure_budget, least_classes


# ---------------------------------------------------------------------------
# nerves


class NerveSSet(TruncatedSSet):
    """Truncated nerve of a finite category."""

    def __init__(self, J: FiniteCategory, D: int = 3):
        if D < 2:
            raise ValueError("nerve truncation must be >= 2")
        self.cat = J
        levels = {0: list(J.objects)}
        self.chain_of = {x: (x,) for x in J.objects}
        by_dom: dict = {}
        for m in J.nonidentity():
            by_dom.setdefault(J.dom(m), []).append(m)
        prev = [(x,) for x in J.objects]  # chains as (source, m1, m2, ...)
        for n in range(1, D + 1):
            cur = []
            for c in prev:
                tail = c[0] if n == 1 else J.cod(c[-1])
                for m in by_dom.get(tail, ()):
                    cur.append(c + (m,))
            ids = []
            for c in cur:
                cid = "|".join(c[1:])
                ids.append(cid)
                self.chain_of[cid] = c
            levels[n] = ids
            prev = cur
        faces = {}
        super().__init__(D, levels, faces, coskeletal_from=2, name=f"N({J.name})")
        for n in range(1, D + 1):
            for cid in self.nondeg(n):
                c = self.chain_of[cid]
                for i in range(n + 1):
                    faces[(cid, i)] = self._chain_face(c, i)
        self.faces = faces

    def _chain_face(self, c, i) -> SimplexExpr:
        src, mors = c[0], list(c[1:])
        n = len(mors)
        J = self.cat
        if i == 0:
            rest = mors[1:]
            new_src = J.cod(mors[0])
            return self.chain_expr((new_src, *rest))
        if i == n:
            return self.chain_expr((src, *mors[:-1]))
        merged = mors[:i - 1] + [J.compose(mors[i], mors[i - 1])] + mors[i + 1:]
        return self.chain_expr((src, *merged))

    def chain_expr(self, c) -> SimplexExpr:
        """Simplex expression of a chain that may contain identities: the
        positions of the identities, largest first, applied to the chain
        without them (each identity is an ``insert_letter`` at its position)."""
        is_identity, mors = self.cat.is_identity, c[1:]
        kept = [m for m in mors if not is_identity(m)]
        word = tuple(p for p in reversed(range(len(mors))) if is_identity(mors[p]))
        return SimplexExpr(word, "|".join(kept) if kept else c[0])

    def expr_chain(self, e: SimplexExpr):
        """The (possibly degenerate) chain presented by an expression."""
        c = self.chain_of[e.base]
        src, mors = c[0], list(c[1:])
        J = self.cat
        for j in reversed(e.word):
            # s_j inserts an identity after position j
            at = J.cod(mors[j - 1]) if j >= 1 else src
            mors.insert(j, J.identities[at])
        return (src, *mors)


def nerve(J: FiniteCategory, D: int = 3) -> NerveSSet:
    return NerveSSet(J, D)


def nerve_map(u: Functor, source: NerveSSet, target: NerveSSet) -> SimplicialMap:
    """The simplicial map N(u) between given truncated nerves of its ends."""
    assignment = {}
    for n in range(source.dim_bound + 1):
        for cid in source.nondeg(n):
            c = source.chain_of[cid]
            image = (u.ob[c[0]],) + tuple(u.on_morphism(m) for m in c[1:])
            assignment[cid] = target.chain_expr(image)
    return SimplicialMap(source, target, assignment)


def chain_shape_iso(delta_n: TruncatedSSet, chain_nerve: NerveSSet) -> SimplicialMap:
    """Identify the standard simplex with the nerve of the chain poset."""
    assignment = {}
    for m in range(delta_n.dim_bound + 1):
        for x in delta_n.nondeg(m):
            chain = (x[0],) + tuple(chain_nerve.cat.hom(a, b)[0] for a, b in zip(x, x[1:]))
            assignment[x] = chain_nerve.chain_expr(chain)
    return SimplicialMap(delta_n, chain_nerve, assignment)


def nerve_product_compare_inv(P: ProductSSet, NJK: NerveSSet) -> SimplicialMap:
    """Canonical isomorphism N(J) x N(K) -> N(J x K)."""
    NJ: NerveSSet = P.left
    NK: NerveSSet = P.right
    return P.map_pairs(NJK, lambda e1, e2: NJK.chain_expr(
        tuple(map(pair_id, NJ.expr_chain(e1), NK.expr_chain(e2)))))


# ---------------------------------------------------------------------------
# quasicategory detection


class QcatReport:
    def __init__(self, name: str, max_dim: int):
        self.name = name
        self.max_dim = max_dim
        self.ok = True
        self.unique_fillers = True
        self.witness = None
        self.horns_checked = 0
        self.by_horn: dict = {}

    def lines(self) -> list:
        head = (f"quasicategory check on {self.name} up to dim {self.max_dim}: "
                f"{'pass' if self.ok else 'FAIL'}")
        out = [head]
        for (n, i), (count, unique) in sorted(self.by_horn.items()):
            out.append(f"  horn({n},{i}): {count} instances, "
                       f"{'unique fillers' if unique else 'fillers not unique'}")
        if self.witness is not None:
            out.append(f"  unfilled horn: {self.witness}")
        return out

    def check_horns(self, S: TruncatedSSet, n: int, indices, budget: Budget) -> None:
        """Record the fillers of every map horn(n, i) -> S for i in ``indices``."""
        for i in indices:
            count = 0
            unique = True
            for hmap, fillers in extensions(horn(n, i, max(2, n - 1)), n, S, budget):
                count += 1
                if not fillers:
                    self.ok = False
                    if self.witness is None:
                        desc = {x: e.token() for x, e in sorted(hmap.assignment.items())}
                        self.witness = f"horn({n},{i}) {desc}"
                if len(fillers) != 1:
                    unique = False
            self.by_horn[(n, i)] = (count, unique)
            self.horns_checked += count
            if not unique:
                self.unique_fillers = False


def _check_level2_horn(S: TruncatedSSet, report: QcatReport, budget: Budget) -> None:
    """Inner 2-horns without the generic map enumeration.

    A map from the 2-horn is exactly a composable pair of edges (f, g),
    d_0 f = d_1 g; a filler is a 2-simplex with d_2 = f and d_0 = g.  So
    the pairs number Σ_v in(v)·out(v) over the vertices, counted off the
    edge rows; every pair has a filler iff the 2-simplices whose d_2 and
    d_0 compose show that many distinct (d_2, d_0), and exactly one iff
    those 2-simplices also number that many.  The pairs are listed only
    when one has no filler, to name the first in report order.  Runs over
    the face rows of the level tables: one step per edge, then one per
    2-simplex.
    """
    ends = S.rows(1)
    budget.spend_each(len(ends))
    # an edge's face row is (d_0, d_1): its final, then its initial vertex
    into, out_of = Counter(map(itemgetter(0), ends)), Counter(map(itemgetter(1), ends))
    pairs = sum(into[v] * out_of[v] for v in into)
    faces = S.rows(2)
    budget.spend_each(len(faces))
    fillers = Counter(map(itemgetter(2, 0), faces))  # (d2, d0) -> its 2-simplices
    composing = [count for (f, g), count in fillers.items() if ends[f][0] == ends[g][1]]
    if len(composing) < pairs:
        report.ok = False
        if report.witness is None:
            order = S.token_order(1)
            by_source: dict = {}
            for g in order:
                by_source.setdefault(ends[g][1], []).append(g)
            f, g = next((f, g) for f in order for g in by_source.get(ends[f][0], ())
                        if (f, g) not in fillers)
            edges = S.table(1).cells
            report.witness = f"horn(2,1) d2={edges[f].token()} d0={edges[g].token()}"
    unique = len(composing) == sum(composing) == pairs
    report.by_horn[(2, 1)] = (pairs, unique)
    report.horns_checked += pairs
    if not unique:
        report.unique_fillers = False


def is_quasicategory(S: TruncatedSSet, budget: Budget = None) -> QcatReport:
    """Check that every inner horn up to the truncation has a filler."""
    budget = ensure_budget(budget, f"quasicategory check on {S.name}")
    report = QcatReport(S.name, S.dim_bound)
    _check_level2_horn(S, report, budget)
    for n in range(3, S.dim_bound + 1):
        report.check_horns(S, n, range(1, n), budget)
    return report


def require_quasicategory(S: TruncatedSSet, budget: Budget = None) -> QcatReport:
    """The :func:`is_quasicategory` report, kept on S by
    :meth:`qcatkit.util.Budget.cached`; raise unless it passes.

    A hit charges ``budget`` the steps the check charged when it ran.
    """
    budget = ensure_budget(budget, f"quasicategory check on {S.name}")
    rep = budget.cached(S, ("is_quasicategory",), lambda: is_quasicategory(S, budget))
    if not rep.ok:
        raise ValueError(f"{S.name} is not a quasicategory: {rep.witness}")
    return rep


# ---------------------------------------------------------------------------
# homotopy relation and Ho


def _class_codes(Q: TruncatedSSet) -> list:
    """Per level-1 code, the code of its class's representative: the least
    code of the class, so the least simplex
    (:func:`qcatkit.util.least_classes`)."""
    degenerate = set(Q.degeneracy_codes((0,), 0))
    return least_classes(len(Q.table(1).cells), (
        (a, b) for d0, d1, d2 in Q.rows(2)
        for unit, a, b in ((d2, d0, d1), (d0, d1, d2)) if unit in degenerate))


def one_step_homotopic(Q: TruncatedSSet, f: SimplexExpr, g: SimplexExpr) -> bool:
    """The unclosured relation: some 2-simplex exhibits f and g directly."""
    for sigma in Q.total(2):
        d0, d1, d2 = (Q.face(sigma, i) for i in range(3))
        # a face with a degeneracy word is s_0 of a vertex, a degenerate edge
        if d2.word and {f, g} <= {d0, d1}:
            return True
        if d0.word and {f, g} <= {d1, d2}:
            return True
    return False


class HoPresentation:
    """The homotopy category of a quasicategory Q, with its class table.

    ``classes`` holds, per code of ``edges`` (``Q.table(1)``), the morphism
    identifier (the token of the canonical class representative) of that
    1-simplex, and ``rep_codes`` maps each morphism to its representative's
    code.  Both are keyed by level-1 code; ``cls`` reads a simplex's class
    off its code.  Q keeps its Ho, which holds no reference back to Q.
    """

    def __init__(self, edges: LevelTable, category: FiniteCategory, classes: list,
                 rep_codes: dict):
        self.edges = edges
        self.category = category
        self.classes = classes
        self.rep_codes = rep_codes

    def cls(self, e: SimplexExpr) -> str:
        return self.classes[self.edges.code[e]]

    def __repr__(self):
        return f"<Ho: {self.category!r}>"


def ho(Q: TruncatedSSet, budget: Budget = None) -> HoPresentation:
    """The homotopy category, by horn filling, kept on Q by
    :meth:`qcatkit.util.Budget.cached`: a hit charges ``budget`` the steps
    of the quasicategory check the build ran.

    Composition of classes is read off the 2-simplices: any 2-simplex
    witnesses that its d_1-face is a composite of its d_2 and d_0 faces.
    Filler independence is checked on the fly; a conflict means the input
    was not a quasicategory.  The classes are kept per level-1 code, and
    an object's identity is the class of its degenerate edge.  A
    morphism's ends are read off its face row (d_1, the initial vertex,
    and d_0, the final one).
    """
    budget = ensure_budget(budget, f"quasicategory check on {Q.name}")
    return budget.cached(Q, ("ho",), lambda: _build_ho(Q, budget))


def _build_ho(Q: TruncatedSSet, budget: Budget) -> HoPresentation:
    require_quasicategory(Q, budget)
    edges, ends = Q.table(1), Q.rows(1)
    objects = [e.base for e in Q.table(0).cells]  # level 0 is nondegenerate
    cls = [None] * len(edges.cells)  # per level-1 code, its morphism id
    rep_codes, morphisms = {}, {}
    reps = _class_codes(Q)
    for c in Q.token_order(1):
        r = reps[c]
        if cls[r] is None:  # the first edge of its class: name the class
            cls[r] = mid = edges.cells[r].token()
            rep_codes[mid] = r
            morphisms[mid] = (objects[ends[r][1]], objects[ends[r][0]])
        cls[c] = cls[r]
    identities = dict(zip(objects, map(cls.__getitem__, Q.degeneracy_codes((0,), 0))))
    compose = {}
    units = set(identities.values())
    faces = Q.rows(2)
    for sigma in Q.token_order(2):
        d0, d1, d2 = faces[sigma]
        f, g, h = cls[d2], cls[d0], cls[d1]
        if f in units or g in units:
            continue
        prev = compose.get((g, f))
        if prev is None:
            compose[(g, f)] = h
        elif prev != h:
            raise ValueError(
                f"composition in Ho({Q.name}) depends on the filler: "
                f"[{g}] o [{f}] gave {prev} and {h}")
    category = FiniteCategory(objects, morphisms, compose, identities, f"Ho({Q.name})")
    return HoPresentation(edges, category, cls, rep_codes)


def ho_on_map(f: SimplicialMap) -> Functor:
    """The induced functor between homotopy categories, on the Ho that
    each end keeps, so the functors of composable maps compose."""
    src_ho, tgt_ho = ho(f.source), ho(f.target)
    ob = {x: f.assignment[x].base for x in src_ho.category.objects}
    mor = {}
    edges = src_ho.edges.cells
    for mid in src_ho.category.nonidentity():
        mor[mid] = tgt_ho.cls(f.apply(edges[src_ho.rep_codes[mid]]))
    return Functor(src_ho.category, tgt_ho.category, ob, mor, f"Ho({f.source.name}->{f.target.name})")


def counit_functor(N: NerveSSet) -> Functor:
    """The comparison Ho(N(J)) -> J, an isomorphism of categories."""
    hopres = ho(N)
    J = N.cat
    ob = {x: x for x in hopres.category.objects}
    mor = {}
    edges = N.table(1).cells
    for mid in hopres.category.nonidentity():
        chain = N.expr_chain(edges[hopres.rep_codes[mid]])
        src, mors = chain[0], chain[1:]
        m = J.identities[src]
        for step in mors:
            m = J.compose(step, m)
        mor[mid] = m
    return Functor(hopres.category, J, ob, mor, f"counit_{J.name}")


def functor_is_isomorphism(F: Functor) -> bool:
    obs = sorted(F.ob.values())
    if obs != sorted(F.target.objects):
        return False
    if len(set(F.ob.values())) != len(F.ob):
        return False
    images = [F.on_morphism(m) for m in F.source.morphisms]
    return sorted(images) == sorted(F.target.morphisms) and len(set(images)) == len(images)
