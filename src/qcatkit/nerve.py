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
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import cached_property
from operator import itemgetter

from .cats import FiniteCategory, Functor, pair_id, split_pair
from .simplicial import (
    ProductSSet,
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    extensions,
    horn,
    insert_letter,
)
from .util import Budget, UnionFind, ensure_budget


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
        """Simplex expression of a chain that may contain identities."""
        src, mors = c[0], list(c[1:])
        J = self.cat
        for p, m in enumerate(mors):
            if J.is_identity(m):
                word_rest = self.chain_expr((src, *mors[:p], *mors[p + 1:]))
                return SimplexExpr(insert_letter(p, word_rest.word), word_rest.base)
        cid = c[0] if not mors else "|".join(mors)
        return SimplexExpr((), cid)

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


def nerve_product_compare(NJK: NerveSSet, P: ProductSSet) -> SimplicialMap:
    """Canonical isomorphism N(J x K) -> N(J) x N(K) of presentations.

    ``NJK`` must be the nerve of a ``product_cat`` whose object and
    morphism identifiers are literal pairs, and ``P`` the product of the
    factor nerves.
    """
    NJ: NerveSSet = P.left
    NK: NerveSSet = P.right
    assignment = {}
    for n in range(NJK.dim_bound + 1):
        for cid in NJK.nondeg(n):
            lefts, rights = zip(*(split_pair(t) for t in NJK.chain_of[cid]))
            assignment[cid] = P.pair_expr(NJ.chain_expr(lefts), NK.chain_expr(rights))
    return SimplicialMap(NJK, P, assignment)


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
        self.steps = 0  # what the check charged, see require_quasicategory

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


def _token_order(S: TruncatedSSet, n: int) -> list:
    """The codes of the n-simplices in ``total`` order, the order reports use."""
    code = S.table(n).code
    return [code[e] for e in S.total(n)]


def _check_level2_horn(S: TruncatedSSet, report: QcatReport, budget: Budget) -> None:
    """Inner 2-horns without the generic map enumeration.

    A map from the 2-horn is exactly a composable pair of edges; a filler
    is a 2-simplex with those outer faces.  Runs over the face rows of the
    level tables: one step per 2-simplex, then one per composable pair.
    """
    edges = S.table(1)
    order = _token_order(S, 1)
    # an edge's face row is (d_0, d_1): its final, then its initial vertex
    by_source: dict = {}
    for f in order:
        by_source.setdefault(edges.faces[f][1], []).append(f)
    faces = S.table(2).faces
    budget.spend_each(len(faces))
    fillers = Counter(map(itemgetter(2, 0), faces))  # (d2, d0) -> its 2-simplices
    pairs = [(f, g) for f in order for g in by_source.get(edges.faces[f][0], ())]
    budget.spend_each(len(pairs))
    hits = list(map(fillers.__getitem__, pairs))
    if 0 in hits:
        report.ok = False
        if report.witness is None:
            f, g = pairs[hits.index(0)]
            report.witness = (f"horn(2,1) d2={edges.cells[f].token()} "
                              f"d0={edges.cells[g].token()}")
    unique = hits.count(1) == len(hits)
    report.by_horn[(2, 1)] = (len(pairs), unique)
    report.horns_checked += len(pairs)
    if not unique:
        report.unique_fillers = False


def is_quasicategory(S: TruncatedSSet, budget: Budget = None) -> QcatReport:
    """Check that every inner horn up to the truncation has a filler."""
    budget = ensure_budget(budget, f"quasicategory check on {S.name}")
    start = budget.used
    report = QcatReport(S.name, S.dim_bound)
    _check_level2_horn(S, report, budget)
    for n in range(3, S.dim_bound + 1):
        report.check_horns(S, n, range(1, n), budget)
    report.steps = budget.used - start
    return report


# checked sets leave the cache when nothing else refers to them
_QCAT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def require_quasicategory(S: TruncatedSSet, budget: Budget = None) -> QcatReport:
    """The cached :func:`is_quasicategory` report; raise unless it passes.

    A hit charges ``budget`` the steps the check charged when it ran.
    """
    rep = _QCAT_CACHE.get(S)
    if rep is None:
        rep = _QCAT_CACHE[S] = is_quasicategory(S, budget)
    elif budget is not None:
        budget.spend(rep.steps)
    if not rep.ok:
        raise ValueError(f"{S.name} is not a quasicategory: {rep.witness}")
    return rep


# ---------------------------------------------------------------------------
# homotopy relation and Ho


def _is_degenerate_edge(S: TruncatedSSet, e: SimplexExpr) -> bool:
    return len(e.word) == 1 and S.dim_of[e.base] == 0


def _class_codes(Q: TruncatedSSet) -> dict:
    """Per level-1 code, in ``total`` order, the code of its class's
    representative: the minimal code, so the minimal simplex."""
    uf = UnionFind(_token_order(Q, 1))
    degenerate = set(Q.degeneracy_codes((0,), 0))
    for d0, d1, d2 in Q.table(2).faces:
        if d2 in degenerate:
            uf.union(d0, d1)
        if d0 in degenerate:
            uf.union(d1, d2)
    return uf.classes()


def one_step_homotopic(Q: TruncatedSSet, f: SimplexExpr, g: SimplexExpr) -> bool:
    """The unclosured relation: some 2-simplex exhibits f and g directly."""
    for sigma in Q.total(2):
        d0, d1, d2 = (Q.face(sigma, i) for i in range(3))
        if _is_degenerate_edge(Q, d2) and {f, g} <= {d0, d1}:
            return True
        if _is_degenerate_edge(Q, d0) and {f, g} <= {d1, d2}:
            return True
    return False


class HoPresentation:
    """The homotopy category of a quasicategory, with its class data.

    ``classes`` holds, per code of ``Q.table(1)``, the morphism identifier
    (the token of the canonical class representative) of that 1-simplex;
    ``reps`` maps each morphism to its representative and ``rep_codes`` to
    the representative's code.  ``class_map`` sends the token of every
    1-simplex, in ``total`` order, to its morphism; it is built from
    ``classes`` when first read.
    """

    def __init__(self, Q: TruncatedSSet, category: FiniteCategory, classes: list, rep_codes: dict):
        self.sset = Q
        self.category = category
        self.classes = classes
        self.rep_codes = rep_codes  # morphism id -> code of its representative
        cells = Q.table(1).cells
        self.reps = {m: cells[c] for m, c in rep_codes.items()}

    @cached_property
    def class_map(self) -> dict:
        cells = self.sset.table(1).cells
        return {cells[c].token(): self.classes[c] for c in _token_order(self.sset, 1)}

    def cls(self, e: SimplexExpr) -> str:
        return self.class_map[e.token()]

    def __repr__(self):
        return f"<Ho({self.sset.name}): {self.category!r}>"


def ho(Q: TruncatedSSet, budget: Budget = None, verified: bool = False) -> HoPresentation:
    """The homotopy category, by horn filling.

    Composition of classes is read off the 2-simplices: any 2-simplex
    witnesses that its d_1-face is a composite of its d_2 and d_0 faces.
    Filler independence is checked on the fly; a conflict means the input
    was not a quasicategory.  The classes are kept per level-1 code, and
    an object's identity is the class of its degenerate edge.
    """
    if not verified:
        require_quasicategory(Q, budget)
    edges = Q.table(1)
    objects = [e.base for e in Q.table(0).cells]  # level 0 is nondegenerate
    cls = [None] * len(edges.cells)  # per level-1 code, its morphism id
    rep_codes, morphisms = {}, {}
    named: dict = {}  # representative code -> morphism id
    for c, r in _class_codes(Q).items():
        mid = named.get(r)
        if mid is None:
            mid = named[r] = edges.cells[r].token()
            rep_codes[mid] = r
            morphisms[mid] = Q.edge_endpoints(edges.cells[r])
        cls[c] = mid
    identities = dict(zip(objects, map(cls.__getitem__, Q.degeneracy_codes((0,), 0))))
    compose = {}
    units = set(identities.values())
    faces = Q.table(2).faces
    for sigma in _token_order(Q, 2):
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
    return HoPresentation(Q, category, cls, rep_codes)


def ho_on_map(f: SimplicialMap, src_ho: HoPresentation = None,
              tgt_ho: HoPresentation = None, budget: Budget = None) -> Functor:
    """The induced functor between homotopy categories."""
    src_ho = src_ho if src_ho is not None else ho(f.source, budget)
    tgt_ho = tgt_ho if tgt_ho is not None else ho(f.target, budget)
    ob = {x: f.assignment[x].base for x in src_ho.category.objects}
    mor = {}
    for mid in src_ho.category.nonidentity():
        rep = src_ho.reps[mid]
        mor[mid] = tgt_ho.cls(f.apply(rep))
    return Functor(src_ho.category, tgt_ho.category, ob, mor, f"Ho({f.source.name}->{f.target.name})")


def counit_functor(N: NerveSSet, hopres: HoPresentation = None) -> Functor:
    """The comparison Ho(N(J)) -> J, an isomorphism of categories."""
    hopres = hopres if hopres is not None else ho(N)
    J = N.cat
    ob = {x: x for x in hopres.category.objects}
    mor = {}
    for mid in hopres.category.nonidentity():
        chain = N.expr_chain(hopres.reps[mid])
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
