"""Nerves, quasicategory detection, and homotopy categories."""

import gc
import weakref
from collections import Counter
from itertools import product as iproduct
from operator import itemgetter

import pytest

from qcatkit.cats import (
    boundary_two,
    compose_functors,
    contractible_groupoid,
    enumerate_functors,
    group_z2,
    poset_simplex,
    product_cat,
    validate_category,
)
from qcatkit.corpus import corpus_categories, corpus_quasicategories, corpus_ssets, face_mutations
from qcatkit.mapping import Exponential
from qcatkit.nerve import (
    QcatReport,
    chain_shape_iso,
    counit_functor,
    functor_is_isomorphism,
    ho,
    ho_on_map,
    is_quasicategory,
    nerve,
    nerve_map,
    nerve_product_compare_inv,
    one_step_homotopic,
    require_quasicategory,
)
from qcatkit.prederivator import standard_sample
from qcatkit.simplicial import (
    SimplexExpr,
    boundary,
    compose_maps,
    horn,
    identity_map,
    insert_letter,
    product,
    sset_from_text,
    standard_simplex,
)
from qcatkit.util import Budget, BudgetExceeded
from test_mapping import HOMOTOPIC_PAIR


def chain_expr_by_recursion(N, c) -> SimplexExpr:
    """Oracle: the simplex of a chain that may contain identities, dropping
    the first identity and inserting its letter into the rest's word."""
    src, mors = c[0], list(c[1:])
    for p, m in enumerate(mors):
        if N.cat.is_identity(m):
            rest = chain_expr_by_recursion(N, (src, *mors[:p], *mors[p + 1:]))
            return SimplexExpr(insert_letter(p, rest.word), rest.base)
    return SimplexExpr((), "|".join(mors) if mors else src)


def monotone_maps(m, n):
    return [t for t in iproduct(range(n + 1), repeat=m + 1)
            if all(t[i] <= t[i + 1] for i in range(m))]


class TestNerve:
    def test_nerve_of_interval_is_delta1(self):
        n = nerve(poset_simplex(1), 3)
        assert [len(n.nondeg(k)) for k in range(4)] == [2, 1, 0, 0]
        # Δ1 -> N([1]) sends nondegenerate cells onto nondegenerate cells, bijectively
        delta = standard_simplex(1, 3)
        iso = chain_shape_iso(delta, n)
        assert iso.validate().ok
        for k in range(4):
            images = [iso.assignment[x] for x in delta.nondeg(k)]
            assert all(not e.word for e in images)
            assert sorted(e.base for e in images) == sorted(n.nondeg(k)), k

    def test_nerve_levels_count_monotone_maps(self):
        for j in range(4):
            n = nerve(poset_simplex(j), 3)
            for m in range(4):
                assert len(n.total(m)) == len(monotone_maps(m, j))

    def test_chain_expr_is_the_recursive_rule(self):
        checked = 0
        for _, J in corpus_categories():
            N = nerve(J, 4)
            chains = [(x,) for x in J.objects]
            for _ in range(4):
                chains = [c + (m,) for c in chains for m in J.morphisms
                          if J.dom(m) == (J.cod(c[-1]) if len(c) > 1 else c[0])]
                for c in chains:
                    assert N.chain_expr(c) == chain_expr_by_recursion(N, c), c
                    assert N.expr_chain(N.chain_expr(c)) == c
                checked += len(chains)
        assert checked == 433

    def test_nerve_of_free_boundary(self):
        # chains of composable generators: the composite of a and b is the
        # extra arrow ba, so there are 4 nondegenerate edges and one
        # nondegenerate 2-simplex witnessing it
        n = nerve(boundary_two(), 3)
        assert [len(n.nondeg(k)) for k in range(4)] == [3, 4, 1, 0]

    def test_nerve_validates_with_certificate(self):
        for cat in [poset_simplex(2), boundary_two(), group_z2(), contractible_groupoid()]:
            n = nerve(cat, 3)
            assert n.coskeletal_from == 2
            assert n.validate().ok, cat.name

    def test_nerve_of_group(self):
        n = nerve(group_z2(), 3)
        assert [len(n.nondeg(k)) for k in range(4)] == [1, 1, 1, 1]

    def test_nerve_map_functoriality(self):
        J, K = poset_simplex(1), poset_simplex(2)
        nj, nk = nerve(J, 3), nerve(K, 3)
        for u in enumerate_functors(J, K):
            f = nerve_map(u, nj, nk)
            assert f.validate().ok

    def test_nerve_product_comparison(self):
        J, K = poset_simplex(1), poset_simplex(1)
        njk = nerve(product_cat(J, K), 3)
        p = product(nerve(J, 3), nerve(K, 3))
        bwd = nerve_product_compare_inv(p, njk)
        assert bwd.validate().ok
        # a bijection on nondegenerate cells, level by level
        for n in range(4):
            images = [bwd.assignment[x] for x in p.nondeg(n)]
            assert all(not e.word for e in images)
            assert sorted(e.base for e in images) == sorted(njk.nondeg(n)), n


def pair_listing_quasicategory(S) -> QcatReport:
    """Oracle: ``is_quasicategory`` with the 2-horn check as first written,
    listing every composable pair of edges and counting its fillers."""
    report = QcatReport(S.name, S.dim_bound)
    ends, order = S.rows(1), S.token_order(1)
    by_source: dict = {}
    for g in order:
        by_source.setdefault(ends[g][1], []).append(g)
    fillers = Counter(map(itemgetter(2, 0), S.rows(2)))
    pairs = [(f, g) for f in order for g in by_source.get(ends[f][0], ())]
    hits = [fillers[pair] for pair in pairs]
    if 0 in hits:
        report.ok = False
        f, g = pairs[hits.index(0)]
        edges = S.table(1).cells
        report.witness = f"horn(2,1) d2={edges[f].token()} d0={edges[g].token()}"
    report.unique_fillers = hits.count(1) == len(hits)
    report.by_horn[(2, 1)] = (len(pairs), report.unique_fillers)
    report.horns_checked = len(pairs)
    for n in range(3, S.dim_bound + 1):
        report.check_horns(S, n, range(1, n), Budget())
    return report


# x -> y -> z with no 2-simplex on the pair (f, g)
UNFILLED_PAIR = ("dim 2\n0: x y z\n1: f g\n"
                 "face f 0 = [] y\nface f 1 = [] x\nface g 0 = [] z\nface g 1 = [] y\n")
# the pair (f, g) filled twice, with long edges h and k
TWICE_FILLED_PAIR = ("dim 2\n0: x y z\n1: f g h k\n2: a b\n"
                     "face f 0 = [] y\nface f 1 = [] x\nface g 0 = [] z\nface g 1 = [] y\n"
                     "face h 0 = [] z\nface h 1 = [] x\nface k 0 = [] z\nface k 1 = [] x\n"
                     "face a 0 = [] g\nface a 1 = [] h\nface a 2 = [] f\n"
                     "face b 0 = [] g\nface b 1 = [] k\nface b 2 = [] f\n")


class TestLevel2Horns:
    def test_counted_check_is_the_pair_listing_one(self):
        sample = standard_sample()
        bases = [Q for _, Q in corpus_quasicategories()] + [sset_from_text(HOMOTOPIC_PAIR, "fg")]
        sets = [S for _, S in corpus_ssets()] + face_mutations() + bases[-1:]
        # fg^N(d[2]) fails a 2-horn (fg is checked only up to its dim_bound 2)
        sets += [Exponential(Q, sample.nerve(J), 2).sset for Q in bases for J in sample.order]
        for S in sets:
            assert vars(is_quasicategory(S)) == vars(pair_listing_quasicategory(S)), S.name

    @pytest.mark.parametrize("text,ok,unique,witness", [
        (UNFILLED_PAIR, False, False, "horn(2,1) d2=f d0=g"),
        (TWICE_FILLED_PAIR, True, False, None)], ids=["no filler", "two fillers"])
    def test_planted_faults(self, text, ok, unique, witness):
        S = sset_from_text(text, "planted")
        budget = Budget()
        report = is_quasicategory(S, budget)
        assert vars(report) == vars(pair_listing_quasicategory(S))
        assert (report.ok, report.unique_fillers, report.witness) == (ok, unique, witness)
        assert report.by_horn == {(2, 1): (report.horns_checked, unique)}
        # one step per edge and one per 2-simplex
        assert budget.used == len(S.rows(1)) + len(S.rows(2))


class TestQuasicategory:
    def test_nerves_pass_with_unique_fillers(self):
        for cat in [poset_simplex(2), boundary_two(), group_z2(), contractible_groupoid()]:
            report = is_quasicategory(nerve(cat, 3))
            assert report.ok and report.unique_fillers, cat.name

    def test_inner_horn_fails(self):
        report = is_quasicategory(horn(2, 1, 2))
        assert not report.ok
        assert report.witness is not None

    def test_boundary_fails(self):
        assert not is_quasicategory(boundary(2, 2)).ok

    def test_simplex_passes(self):
        assert is_quasicategory(standard_simplex(2, 3)).ok

    def test_cache_charges_once_and_lets_sets_go(self):
        S = nerve(poset_simplex(2), 3)
        first, again = Budget(), Budget()
        report = require_quasicategory(S, first)
        assert first.used > 0
        assert require_quasicategory(S, again) is report and again.used == first.used
        # the report is kept on S with its steps, and leaves with S
        assert vars(S)["memo.charged"][("is_quasicategory",)] == (report, first.used)
        refs = [weakref.ref(S), weakref.ref(report)]
        del S, report
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_cache_hit_charges_the_indexed_check(self):
        # the dim-3 horns of N(z2) are answered from its 3-simplices; a hit
        # charges that smaller count, as the miss did
        S = nerve(group_z2(), 3)
        miss, hit = Budget(), Budget()
        require_quasicategory(S, miss)
        require_quasicategory(S, hit)
        assert miss.used == hit.used == 162

    # per category: 2-simplices, horns, steps, and (limit, budget.used at
    # the overrun), all recorded when every 2-simplex and every composable
    # pair of edges charged its own step; the totals re-recorded when the
    # map search began to read faces off the simplex above them; all
    # re-recorded when the 2-horn check came to charge every edge and every
    # 2-simplex in place of every pair: the middle two limits fall in the
    # charge of the edges and in that of the 2-simplices
    OVERRUNS = {"E": (contractible_groupoid, 8, 40, 322, ((0, 1), (2, 3), (8, 9), (321, 322))),
                "[2]": (lambda: poset_simplex(2), 10, 40, 404,
                        ((0, 1), (3, 4), (11, 12), (403, 404))),
                "z2": (group_z2, 4, 20, 162, ((0, 1), (1, 2), (4, 5), (161, 162)))}

    @pytest.mark.parametrize("name", sorted(OVERRUNS))
    def test_an_overrun_raises_where_it_was_recorded(self, name):
        make, simplices, horns, steps, overruns = self.OVERRUNS[name]
        S = nerve(make(), 3)
        budget = Budget(steps)
        report = is_quasicategory(S, budget)
        assert len(S.table(2).cells) == simplices and report.horns_checked == horns
        assert report.ok and budget.used == steps
        for limit, used in overruns:
            budget = Budget(limit)
            with pytest.raises(BudgetExceeded):
                is_quasicategory(S, budget)
            assert budget.used == used, limit


class TestHomotopy:
    def test_nerve_classes_are_singletons(self):
        q = nerve(boundary_two(), 3)
        pres = ho(q)
        # in a nerve, distinct morphisms are never homotopic
        for e in q.total(1):
            for f in q.total(1):
                if e != f and pres.cls(e) == pres.cls(f):
                    # both present only when expressing the same morphism
                    assert q.expr_chain(e) == q.expr_chain(f)

    def test_closure_equals_one_step_on_corpus(self):
        for cat in [poset_simplex(1), group_z2(), contractible_groupoid()]:
            q = nerve(cat, 3)
            pres = ho(q)
            edges = q.total(1)
            ends = {e: (q.face(e, 1), q.face(e, 0)) for e in edges}
            for e in edges:
                for f in edges:
                    if ends[e] == ends[f]:
                        assert (pres.cls(e) == pres.cls(f)) == one_step_homotopic(q, e, f)


class TestHo:
    def test_classes_are_listed_in_token_order(self):
        # vertices named after "s": the degenerate edges' tokens sort first,
        # while as SimplexExprs (and as codes) they sort last
        q = sset_from_text("dim 2\ncoskeletal 2\n0: x y\n1: xy\nface xy 0 = [] y\n"
                           "face xy 1 = [] x\n", "interval")
        tokens = [e.token() for e in q.total(1)]
        assert tokens != [e.token() for e in sorted(q.total(1))]
        pres = ho(q)
        assert list(pres.rep_codes) == tokens
        assert {e.token(): pres.cls(e) for e in q.total(1)} == {"s0.x": "s0.x", "s0.y": "s0.y",
                                                                "xy": "xy"}

    def test_counit_is_isomorphism(self):
        for cat in [poset_simplex(0), poset_simplex(2), boundary_two(),
                    group_z2(), contractible_groupoid()]:
            n = nerve(cat, 3)
            pres = ho(n)
            assert validate_category(pres.category).ok
            c = counit_functor(n)
            assert c.source is pres.category and c.validate().ok
            assert functor_is_isomorphism(c), cat.name

    def test_ho_is_kept_with_its_steps_and_lets_sets_go(self):
        S = nerve(poset_simplex(2), 3)
        first, again = Budget(), Budget()
        pres = ho(S, first)
        assert first.used > 0
        assert ho(S, again) is pres and again.used == first.used
        # kept on S with the steps of the quasicategory check it ran, and leaves
        # with S: it holds S's edge table, not S, so no cycle waits for a collection
        assert vars(S)["memo.charged"][("ho",)] == (pres, first.used)
        refs = [weakref.ref(S), weakref.ref(pres)]
        del S, pres
        assert all(ref() is None for ref in refs)

    def test_ho_of_point(self):
        pres = ho(standard_simplex(0, 2))
        assert len(pres.category.objects) == 1
        assert len(pres.category.morphisms) == 1

    def test_ho_rejects_non_quasicategory(self):
        with pytest.raises(ValueError):
            ho(boundary(2, 2))

    def test_ho_on_identity(self):
        q = nerve(poset_simplex(1), 3)
        pres = ho(q)
        f = ho_on_map(identity_map(q))
        assert f.validate().ok
        assert all(f.ob[x] == x for x in pres.category.objects)

    def test_ho_functoriality_on_nerve_maps(self):
        J, K, L = poset_simplex(1), poset_simplex(2), poset_simplex(1)
        us = enumerate_functors(J, K)
        vs = enumerate_functors(K, L)
        nj, nk, nl = nerve(J, 3), nerve(K, 3), nerve(L, 3)
        for u in us[:3]:
            for v in vs[:3]:
                fu = nerve_map(u, source=nj, target=nk)
                fv = nerve_map(v, source=nk, target=nl)
                lhs = ho_on_map(compose_maps(fv, fu))
                rhs_a = ho_on_map(fu)
                rhs_b = ho_on_map(fv)
                # each end keeps one Ho, so the functors compose on the nose
                assert rhs_a.target is rhs_b.source is ho(nk).category
                assert lhs.key() == compose_functors(rhs_b, rhs_a).key()

    def test_iso_detection(self):
        q = nerve(boundary_two(), 3)
        pres = ho(q)
        # degenerate edges are isos, the extra generator is not
        assert pres.category.is_iso(pres.cls(SimplexExpr((0,), "0")))
        assert not pres.category.is_iso(pres.cls(SimplexExpr((), "c")))

    def test_ho_of_group_is_group(self):
        pres = ho(nerve(group_z2(), 3))
        assert len(pres.category.objects) == 1
        assert len(pres.category.morphisms) == 2
        g = [m for m in pres.category.morphisms if not pres.category.is_identity(m)][0]
        assert pres.category.compose(g, g) == pres.category.identities["*"]

    def test_ho_preserves_products(self):
        J, K = poset_simplex(1), poset_simplex(1)
        p = product(nerve(J, 3), nerve(K, 3))
        pres = ho(p)
        direct = product_cat(ho(nerve(J, 3)).category, ho(nerve(K, 3)).category)
        assert len(pres.category.objects) == len(direct.objects)
        assert len(pres.category.morphisms) == len(direct.morphisms)

    def test_composition_independent_of_filler(self):
        # ho() raises if two fillers for the same class pair disagree; over
        # the corpus it must simply succeed
        for cat in [poset_simplex(2), group_z2(), contractible_groupoid(), boundary_two()]:
            pres = ho(nerve(cat, 3))
            assert validate_category(pres.category).ok
