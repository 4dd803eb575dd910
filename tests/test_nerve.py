"""Nerves, quasicategory detection, and homotopy categories."""

import gc
import weakref
from itertools import product as iproduct

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
from qcatkit.nerve import (
    _QCAT_CACHE,
    counit_functor,
    functor_is_isomorphism,
    ho,
    ho_on_map,
    is_quasicategory,
    nerve,
    nerve_map,
    nerve_product_compare,
    nerve_product_compare_inv,
    one_step_homotopic,
    require_quasicategory,
)
from qcatkit.simplicial import (
    boundary,
    compose_maps,
    expr,
    find_isomorphism,
    horn,
    identity_map,
    product,
    sset_from_text,
    standard_simplex,
)
from qcatkit.util import Budget, BudgetExceeded


def monotone_maps(m, n):
    return [t for t in iproduct(range(n + 1), repeat=m + 1)
            if all(t[i] <= t[i + 1] for i in range(m))]


class TestNerve:
    def test_nerve_of_interval_is_delta1(self):
        n = nerve(poset_simplex(1), 3)
        assert [len(n.nondeg(k)) for k in range(4)] == [2, 1, 0, 0]
        assert find_isomorphism(n, standard_simplex(1, 3)) is not None

    def test_nerve_levels_count_monotone_maps(self):
        for j in range(4):
            n = nerve(poset_simplex(j), 3)
            for m in range(4):
                assert n.total_count(m) == len(monotone_maps(m, j))

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
            assert n.validate(check_coskeletal=True).ok, cat.name

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
        fwd = nerve_product_compare(njk, p)
        bwd = nerve_product_compare_inv(p, njk)
        assert fwd.validate().ok and bwd.validate().ok
        assert compose_maps(bwd, fwd) == identity_map(njk)
        assert compose_maps(fwd, bwd) == identity_map(p)


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
        ref = weakref.ref(S)
        gc.collect()
        cached = len(_QCAT_CACHE)
        del S
        gc.collect()
        assert ref() is None and len(_QCAT_CACHE) == cached - 1

    def test_cache_hit_charges_the_indexed_check(self):
        # the dim-3 horns of N(z2) are answered from its 3-simplices; a hit
        # charges that smaller count, as the miss did
        S = nerve(group_z2(), 3)
        miss, hit = Budget(), Budget()
        require_quasicategory(S, miss)
        require_quasicategory(S, hit)
        assert miss.used == hit.used == 386

    # per category: 2-simplices, horns, steps, and (limit, budget.used at
    # the overrun), all recorded when every 2-simplex and every composable
    # pair of edges charged its own step
    OVERRUNS = {"E": (contractible_groupoid, 8, 40, 542, ((0, 1), (4, 5), (11, 12), (541, 542))),
                "[2]": (lambda: poset_simplex(2), 10, 40, 702,
                        ((0, 1), (5, 6), (13, 14), (701, 702))),
                "z2": (group_z2, 4, 20, 386, ((0, 1), (2, 3), (7, 8), (385, 386)))}

    @pytest.mark.parametrize("name", sorted(OVERRUNS))
    def test_an_overrun_raises_where_it_was_recorded(self, name):
        make, simplices, horns, steps, overruns = self.OVERRUNS[name]
        S = nerve(make(), 3)
        budget = Budget(steps)
        report = is_quasicategory(S, budget)
        assert len(S.table(2).cells) == simplices and report.horns_checked == horns
        assert report.ok and budget.used == report.steps == steps
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
            for e in edges:
                for f in edges:
                    if q.edge_endpoints(e) == q.edge_endpoints(f):
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
        assert list(pres.class_map) == tokens
        assert pres.class_map == {"s0.x": "s0.x", "s0.y": "s0.y", "xy": "xy"}

    def test_counit_is_isomorphism(self):
        for cat in [poset_simplex(0), poset_simplex(2), boundary_two(),
                    group_z2(), contractible_groupoid()]:
            n = nerve(cat, 3)
            pres = ho(n)
            assert validate_category(pres.category).ok
            c = counit_functor(n, pres)
            assert c.validate().ok
            assert functor_is_isomorphism(c), cat.name

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
        f = ho_on_map(identity_map(q), pres, pres)
        assert f.validate().ok
        assert all(f.ob[x] == x for x in pres.category.objects)

    def test_ho_functoriality_on_nerve_maps(self):
        J, K, L = poset_simplex(1), poset_simplex(2), poset_simplex(1)
        us = enumerate_functors(J, K)
        vs = enumerate_functors(K, L)
        nj, nk, nl = nerve(J, 3), nerve(K, 3), nerve(L, 3)
        hj, hk, hl = ho(nj), ho(nk), ho(nl)
        for u in us[:3]:
            for v in vs[:3]:
                fu = nerve_map(u, source=nj, target=nk)
                fv = nerve_map(v, source=nk, target=nl)
                lhs = ho_on_map(compose_maps(fv, fu), hj, hl)
                rhs_a = ho_on_map(fu, hj, hk)
                rhs_b = ho_on_map(fv, hk, hl)
                assert lhs.key() == compose_functors(rhs_b, rhs_a).key()

    def test_iso_detection(self):
        q = nerve(boundary_two(), 3)
        pres = ho(q)
        # degenerate edges are isos, the extra generator is not
        assert pres.category.is_iso(pres.cls(expr("0", (0,))))
        assert not pres.category.is_iso(pres.cls(expr("c")))

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
