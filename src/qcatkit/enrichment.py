"""Simplicial structure on prederivator morphisms.

The mapping object between two prederivators has, in level n, the strict
morphisms into the shift of the target by the chain [n].  Shifts, the
simplicial operators, the diagonal composition, and the desk-scale
embedding check all live here.
"""

from __future__ import annotations

from .cats import (
    FiniteCategory,
    Functor,
    NatTransf,
    compose_functors,
    monotone_functor,
    pair_functor,
    pair_id,
    poset_simplex,
    product_cat,
    split_pair,
)
from .mapping import induced_functor, transport
from .prederivator import (
    ClosureError,
    DiaSample,
    HoPrederivator,
    Prederivator,
    StrictMorphism,
    enumerate_strict_morphisms,
)
from .simplicial import (
    SimplexExpr,
    TruncatedSSet,
    enumerate_maps,
    product,
    standard_simplex,
    weak_seq_to_word,
)
from .util import Budget, ensure_budget


# ---------------------------------------------------------------------------
# shifted prederivators


class ShiftedPrederivator(Prederivator):
    """K -> D(J x K), over the sub-sample where the products exist."""

    def __init__(self, D: Prederivator, J_name: str):
        sub = DiaSample(f"{D.sample.name}<<{J_name}")
        self.pairings: dict[str, str] = {}
        for K_name in D.sample.order:
            key = (J_name, K_name)
            if key in D.sample.products:
                sub.add_category(K_name, D.sample.cat(K_name))
                self.pairings[K_name] = D.sample.products[key]
        for name, u in D.sample.functors.items():
            if u.source in sub.names and u.target in sub.names:
                sub.add_functor(name, u)
        for name, a in D.sample.nats.items():
            if a.source.source in sub.names and a.source.target in sub.names:
                sub.add_nat(name, a)
        if D.sample.terminal in sub.categories:
            sub.terminal = D.sample.terminal
        super().__init__(sub, f"{D.name}^{J_name}")
        self.base = D
        self.J_name = J_name
        self.J = D.sample.cat(J_name)

    def paired(self, K_name: str) -> str:
        if K_name not in self.pairings:
            raise ClosureError(
                f"sample lacks the product {self.J_name} x {K_name} needed by the shift")
        return self.pairings[K_name]

    def _eval(self, K_name: str) -> FiniteCategory:
        return self.base.eval(self.paired(K_name))

    def _lift_functor(self, u: Functor, src: str, dst: str) -> Functor:
        """id_J x u between the annotated product categories."""
        return pair_functor(self.base.sample.cat(self.paired(src)),
                            self.base.sample.cat(self.paired(dst)),
                            lambda j, k: pair_id(j, u.ob[k]),
                            lambda jm, km: pair_id(jm, u.on_morphism(km)),
                            f"id_{self.J_name}x{u.name}")

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        lifted = self._lift_functor(u, src, dst)
        return self.base.on_functor(lifted)

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        u_l = self._lift_functor(alpha.source, src, dst)
        v_l = self._lift_functor(alpha.target, src, dst)
        comps = {pair_id(j, k): pair_id(self.J.identities[j], alpha.at(k))
                 for j in self.J.objects for k in alpha.source.source.objects}
        lifted = NatTransf(u_l, v_l, comps, f"id x {alpha.name}")
        return self.base.on_nat(lifted)


# ---------------------------------------------------------------------------
# enrichment samples


def enrichment_sample(n_max: int = 1, depth: int = 0) -> DiaSample:
    """A small sample closed under the products the enrichment needs.

    Base shapes [0] and [1]; chains [n] for n <= n_max with the products
    [n] x K annotated.  ``depth`` adds that many layers of nested interval
    products [1] x ([1] x ...), consumed by the diagonal composition: one
    layer per composition in the deepest parenthesization under test.
    Unit products [0] x K are annotated for every member so degenerated
    level-0 data spans all shapes.
    """
    s = DiaSample(f"enrichment{n_max}-d{depth}")
    for n in range(max(n_max, 1) + 1):
        s.add_category(f"[{n}]", poset_simplex(n))
    s.terminal = "[0]"
    base = ["[0]", "[1]"]
    for n in range(n_max + 1):
        cn = f"[{n}]"
        for K_name in base:
            pname = f"{cn}x{K_name}"
            s.add_category(pname, product_cat(s.cat(cn), s.cat(K_name)))
            s.products[(cn, K_name)] = pname
    layer = [s.products[("[1]", K)] for K in base]
    for _ in range(depth):
        nxt = []
        for K_name in layer:
            nested = f"[1]x({K_name})"
            s.add_category(nested, product_cat(s.cat("[1]"), s.cat(K_name)))
            s.products[("[1]", K_name)] = nested
            nxt.append(nested)
        layer = nxt
    if depth:
        for K_name in [name for name in s.order if "x" in name]:
            if ("[0]", K_name) not in s.products:
                pname = f"[0]x({K_name})"
                s.add_category(pname, product_cat(s.cat("[0]"), s.cat(K_name)))
                s.products[("[0]", K_name)] = pname
    if ("[0]", "[1]") in s.products:
        s.shifts["[0]"] = s.products[("[0]", "[1]")]
    if ("[1]", "[1]") in s.products:
        s.shifts["[1]"] = s.products[("[1]", "[1]")]
    s.add_unit_functors()
    return s


# ---------------------------------------------------------------------------
# simplicial hom-sets and operators


def simplicial_hom(D1: Prederivator, D2: Prederivator, n: int, budget: Budget = None) -> list:
    """Level n of the mapping object: strict morphisms D1 -> D2^{[n]}.

    The components range over every shape whose product with the chain is
    annotated; reports and comparisons must quote that scope.
    """
    if not 0 <= n <= 3:
        raise ValueError("levels 0..3 only")
    shifted = ShiftedPrederivator(D2, f"[{n}]")
    shapes = [K for K in D1.sample.order if K in shifted.pairings]
    return enumerate_strict_morphisms(D1, shifted, budget, shapes=shapes)


def simplicial_operator(F: StrictMorphism, alpha: tuple, m: int) -> StrictMorphism:
    """Action of a monotone map [m] -> [n] on a level-n morphism.

    F goes into the shift D2^{[n]}; the result goes into D2^{[m]}.
    """
    shifted_n = F.target
    D2 = shifted_n.base
    shifted_m = ShiftedPrederivator(D2, f"[{m}]")
    a = monotone_functor(shifted_m.J, shifted_n.J, alpha, f"a{alpha}")
    comps = {}
    for K_name in F.components:
        if K_name not in shifted_m.pairings:
            continue
        alpha_x_id = pair_functor(D2.sample.cat(shifted_m.paired(K_name)),
                                  D2.sample.cat(shifted_n.paired(K_name)),
                                  lambda t, k: pair_id(a.ob[t], k),
                                  lambda tm, km: pair_id(a.on_morphism(tm), km),
                                  f"a{alpha}x id_{K_name}")
        restrict = D2.on_functor(alpha_x_id)
        comps[K_name] = compose_functors(restrict, F.at(K_name))
    return StrictMorphism(F.source, shifted_m, comps, f"{F.name}.a{alpha}")


def compose_simplicial(f: StrictMorphism, g: StrictMorphism) -> StrictMorphism:
    """Diagonal composition of level-n morphisms g: D1 -> D2^[n], f: D2 -> D3^[n].

    Shifts f by the chain and restricts along t -> (t, (t, -)), which is
    the double-shift-then-diagonal formula collapsed into one restriction.
    The composite goes into f's target D3^[n].
    """
    target = f.target
    D3, cn = target.base, target.J_name
    comps = {}
    for K_name in g.components:
        pn_K = D3.sample.products.get((cn, K_name))
        if pn_K is None or pn_K not in f.components:
            continue
        nested = D3.sample.products.get((cn, pn_K))
        if nested is None:
            raise ClosureError(f"diagonal composition needs {cn} x ({pn_K}) in the sample")
        diag = pair_functor(D3.sample.cat(pn_K), D3.sample.cat(nested),
                            lambda t, k: pair_id(t, pair_id(t, k)),
                            lambda tm, km: pair_id(tm, pair_id(tm, km)),
                            f"diag_{cn}_{K_name}")
        restrict = D3.on_functor(diag)
        comps[K_name] = compose_functors(
            restrict, compose_functors(f.at(pn_K), g.at(K_name)))
    if not comps:
        raise ClosureError("diagonal composition has no shape with complete data")
    return StrictMorphism(g.source, target, comps, f"({f.name})*({g.name})")


# ---------------------------------------------------------------------------
# embedding check


class EmbeddingReport:
    def __init__(self, name):
        self.name = name
        self.injective = True
        self.map_count = 0
        self.hom_count = 0
        self.image_size = 0


def induced_strict_morphisms(DQ: HoPrederivator, shifted: ShiftedPrederivator,
                             maps: list, shapes) -> list:
    """The level-n morphisms DQ -> DR^{[n]} induced by maps mu: Q x delta_n -> R.

    ``shifted`` is the shift of DR = ``shifted.base`` by the chain [n], and
    every map in ``maps`` has the same source Q x delta_n.  Component at K
    sends a K-shaped diagram nu of Q to the ([n] x K)-shaped diagram
    (t, k) -> mu(nu(k), t) of R.  A simplex of N([n] x K) is a chain of
    pairs, so each cell (e1|e2) of N([n] x K) x Δl is split once, by
    reading e1's chain: its K side is the cell (k|e2) of N(K) x Δl, and the
    vertices of its [n] side are the simplex t of delta_n; no map or cell
    changes that.
    """
    if not maps:
        return []
    P = maps[0].source
    J = shifted.J
    parts, at = [], set()
    for K_name in shapes:
        dq = DQ.data(K_name)
        dr = shifted.base.data(shifted.paired(K_name))
        splits = []
        for level in (0, 1):
            P_r, P_q = dr.products[level], dq.products[level]
            # per cell: the slot of (k|e2), the codes its word makes of Q's, and (t, dim)
            split = []
            for pid in P_r.cells:
                e1, e2 = P_r.pair_of[pid]
                ts, ks = zip(*map(split_pair, dr.exponent.expr_chain(e1)))
                word, strict = weak_seq_to_word([ts[0], *map(J.cod, ts[1:])])
                q, d = P_q.pair_expr(dq.exponent.chain_expr(ks), e2), P_r.dim_of[pid]
                split.append((P_q.cell_index[q.base],
                              dq.T_t.degeneracy_codes(q.word, d - len(q.word)),
                              (SimplexExpr(word, "".join(strict)), d)))
                at.add(split[-1][2])
            splits.append(split)
        parts.append((K_name, dq, dr, splits))
    out = []
    for mu in maps:
        # per (t, d): per code of a d-simplex c of Q, the code of mu at (c|t)
        tables = {(t, d): tuple(mu.code(P.pair_expr(c, t)) for c in P.left.table(d).cells)
                  for t, d in at}
        comps = {}
        for K_name, dq, dr, splits in parts:
            columns = [[(slot, tuple(map(tables[key].__getitem__, up))) for slot, up, key in split]
                       for split in splits]
            # level 0 uses the same formula: Δ0 has one simplex in each dimension
            comps[K_name] = induced_functor(
                dq, dr, lambda batch, level: transport(batch, columns[level]), "")
        out.append(StrictMorphism(DQ, shifted, comps, "induced"))
    return out


def embedding_check(Q: TruncatedSSet, R: TruncatedSSet, n: int,
                    budget: Budget = None) -> EmbeddingReport:
    """Injectivity of the passage from simplicial maps to strict levels.

    Runs over ``enrichment_sample(max(n, 1))``.  Surjectivity over the
    sample is reported as ``image_size`` (strict morphisms hit by some
    map) against ``hom_count``, never asserted: a finite sample may admit
    strict families with no simplicial origin.
    """
    budget = ensure_budget(budget, "embedding check")
    sample = enrichment_sample(max(n, 1))
    DQ = HoPrederivator(Q, sample, budget)
    DR = HoPrederivator(R, sample, budget)
    report = EmbeddingReport(f"{Q.name} -> {R.name} at level {n}")
    delta_n = standard_simplex(n, 2)
    P = product(Q.truncate(2), delta_n)
    maps = enumerate_maps(P, R.truncate(2), budget)
    report.map_count = len(maps)
    homs = simplicial_hom(DQ, DR, n, budget)
    report.hom_count = len(homs)
    shifted = ShiftedPrederivator(DR, f"[{n}]")
    images = {F.key() for F in induced_strict_morphisms(DQ, shifted, maps, list(shifted.pairings))}
    report.image_size = len(images & {F.key() for F in homs})
    report.injective = len(images) == len(maps)
    return report
