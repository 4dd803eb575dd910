"""Finite category layer: tables, enumeration, homotopy finiteness."""

from itertools import product as iproduct

import pytest

from qcatkit.cats import (
    FiniteCategory,
    Functor,
    FunctorCategory,
    boundary_two,
    cat_from_text,
    cat_to_text,
    compose_functors,
    constant_functor,
    contractible_groupoid,
    coproduct_cat,
    empty_category,
    enumerate_functors,
    enumerate_nats,
    equivalence_inverse,
    group_z2,
    horizontal_compose,
    identity_functor,
    identity_nat,
    monotone_functor,
    pair_functor,
    pair_id,
    pairing,
    poset_simplex,
    product_cat,
    split_pair,
    validate_category,
    vertical_compose,
)
from qcatkit.corpus import add_idempotent
from qcatkit.util import Budget


def monotone_maps(m, n):
    return [t for t in iproduct(range(n + 1), repeat=m + 1)
            if all(t[i] <= t[i + 1] for i in range(m))]


def functors_by_validation(K, J, ob_allowed, mor_allowed):
    """Every object and morphism assignment K -> J inside the pools that
    passes ``Functor.validate``, canonically ordered.  A morphism is only
    tried on the images with the right ends: validate rejects the others."""
    found = []
    for obs in iproduct(*(sorted(ob_allowed.get(x, J.objects)) for x in K.objects)):
        ob = dict(zip(K.objects, obs))
        pools = [[y for y in J.hom(ob[K.dom(m)], ob[K.cod(m)])
                  if y in mor_allowed.get(m, J.morphisms)] for m in K.nonidentity()]
        for mors in iproduct(*pools):
            F = Functor(K, J, ob, dict(zip(K.nonidentity(), mors)))
            if F.validate().ok:
                found.append(F)
    return sorted(found, key=Functor.key)


# (source, target, pools); the steps of the search without and with the
# pools.  z2 -> z2 and E -> z2 have composites that are identities; the
# idempotent of [3] -> idem does not cancel, so two composites checked at
# one placement can disagree, and their order shows in the steps.
FUNCTOR_SEARCHES = {
    "[3]->idem": (lambda: poset_simplex(3), lambda: add_idempotent(poset_simplex(0), "0"),
                  ({"3": {"0"}}, {"m01": {"mut_e"}, "m23": {"m00", "mut_e"}}), (114, 60)),
    "z2->z2": (group_z2, group_z2, ({"*": {"*"}}, {"g": {"e"}}), (5, 3)),
    "E->z2": (contractible_groupoid, group_z2, ({"b": {"*"}}, {"eab": {"g"}}), (14, 8)),
    "[1]x[1]->[2]": (lambda: product_cat(poset_simplex(1), poset_simplex(1)),
                     lambda: poset_simplex(2),
                     ({"(0,0)": {"0", "1"}, "(1,1)": {"1", "2"}},
                      {"(m01,m11)": {"m01", "m12", "m11"}, "(m01,m01)": {"m02", "m12"}}),
                     (218, 100)),
}


@pytest.mark.parametrize("case", sorted(FUNCTOR_SEARCHES))
def test_functor_search_matches_validation(case):
    make_K, make_J, pools, steps = FUNCTOR_SEARCHES[case]
    K, J = make_K(), make_J()
    for (ob_allowed, mor_allowed), want_steps in zip([({}, {}), pools], steps):
        budget = Budget()
        found = enumerate_functors(K, J, budget, ob_allowed, mor_allowed)
        want = functors_by_validation(K, J, ob_allowed, mor_allowed)
        assert [F.key() for F in found] == [F.key() for F in want]
        assert budget.used == want_steps
    # the pools cut the search
    assert len(enumerate_functors(K, J, None, *pools)) < len(enumerate_functors(K, J))


def test_functor_search_plan_is_kept():
    K = product_cat(poset_simplex(1), poset_simplex(1))
    assert K.search_plan is K.search_plan
    assert K.nonidentity() is K.nonidentity()
    # every composite is checked once, at the placement that completes it
    checked = [t for _, ends, last in K.search_plan if ends for t in last]
    assert sorted(checked) == sorted((g, f, h) for (g, f), h in K.compose_table.items())


class TestBuilders:
    def test_poset_counts(self):
        c = poset_simplex(1)
        assert len(c.objects) == 2 and len(c.morphisms) == 3
        assert validate_category(c).ok

    def test_boundary_two(self):
        c = boundary_two()
        assert len(c.objects) == 3
        # free generation: three generators plus the composite b.a, which
        # stays distinct from the generator c
        assert len(c.morphisms) == 7
        assert c.compose("b", "a") == "ba" != "c"
        assert validate_category(c).ok

    def test_product_counts(self):
        p = product_cat(poset_simplex(1), poset_simplex(1))
        assert len(p.objects) == 4 and len(p.morphisms) == 9
        assert validate_category(p).ok

    def test_coproduct(self):
        c = coproduct_cat(poset_simplex(0), poset_simplex(1))
        assert len(c.objects) == 3 and len(c.morphisms) == 4
        assert validate_category(c).ok

    def test_special_categories_validate(self):
        for c in [empty_category(), group_z2(), contractible_groupoid(), boundary_two()]:
            assert validate_category(c).ok, c.name


class TestValidate:
    def test_nonassociative_table_fails(self):
        # one object, three non-identity endos with a broken table
        mor = {"e": ("x", "x"), "p": ("x", "x"), "q": ("x", "x"), "r": ("x", "x")}
        compose = {}
        for g in "pqr":
            for f in "pqr":
                compose[(g, f)] = "p"
        compose[("p", "p")] = "q"
        bad = FiniteCategory(("x",), mor, compose, {"x": "e"}, "bad")
        report = validate_category(bad)
        assert not report.ok
        assert any("associativity" in v and "triple" in v for v in report.violations)

    def test_empty_passes(self):
        assert validate_category(empty_category()).ok


class TestEnumeration:
    def test_functors_between_posets_match_monotone_maps(self):
        for m in range(3):
            for n in range(3):
                fs = enumerate_functors(poset_simplex(m), poset_simplex(n))
                assert len(fs) == len(monotone_maps(m, n))

    def test_functors_validate(self):
        for F in enumerate_functors(poset_simplex(2), poset_simplex(1)):
            assert F.validate().ok

    def test_nats_of_identity(self):
        idf = identity_functor(poset_simplex(1))
        nats = enumerate_nats(idf, idf)
        assert len(nats) == 1

    def test_functor_category_unit(self):
        fc = FunctorCategory(poset_simplex(0), poset_simplex(2))
        assert len(fc.category.objects) == 3
        assert len(fc.category.morphisms) == 6
        assert validate_category(fc.category).ok

    def test_functor_category_validates(self):
        fc = FunctorCategory(poset_simplex(1), poset_simplex(1))
        assert len(fc.category.objects) == 3
        assert validate_category(fc.category).ok

    def test_functors_into_group(self):
        # functors [1] -> BZ/2 send the generator anywhere: 2 of them
        fs = enumerate_functors(poset_simplex(1), group_z2())
        assert len(fs) == 2

    def test_nat_compositions(self):
        fc = FunctorCategory(poset_simplex(1), poset_simplex(2))
        C = fc.category
        assert validate_category(C).ok
        # horizontal composition of identity nats is an identity nat
        F = fc.functor_by_id["F0"]
        h = horizontal_compose(identity_nat(identity_functor(F.target)), identity_nat(F))
        assert h.validate().ok

    @pytest.mark.parametrize("K,J", [
        (poset_simplex(1), poset_simplex(1)),
        (poset_simplex(1), poset_simplex(2)),
        (poset_simplex(1), group_z2()),
        (coproduct_cat(poset_simplex(1), poset_simplex(1)), poset_simplex(2)),
    ], ids=["[1]^[1]", "[2]^[1]", "z2^[1]", "[2]^([1]+[1])"])
    def test_functor_category_composes_every_composable_pair(self, K, J):
        # brute force: vertical_compose over all pairs of non-identity nats,
        # the composite named by the nat with its ends and components
        fc = FunctorCategory(K, J)
        C, nats = fc.category, fc.nat_by_id
        expected = {}
        for nid in nats:
            for mid in nats:
                if C.is_identity(nid) or C.is_identity(mid) or C.cod(nid) != C.dom(mid):
                    continue
                comp = vertical_compose(nats[mid], nats[nid])
                [cid] = [t for t in nats if C.morphisms[t] == (C.dom(nid), C.cod(mid))
                         and nats[t].components == comp.components]
                expected[(mid, nid)] = cid
        assert expected and list(C.compose_table.items()) == list(expected.items())
        assert validate_category(C).ok


class TestEquivalence:
    def test_identity_is_equivalence(self):
        inv = equivalence_inverse(identity_functor(poset_simplex(1)))
        assert inv is not None

    def test_groupoid_collapse_is_equivalence(self):
        E = contractible_groupoid()
        pt = poset_simplex(0)
        F = constant_functor(E, pt, "0", "collapse")
        # constant functor E -> [0]: essentially surjective and fully faithful
        inv = equivalence_inverse(F)
        assert inv is not None
        assert compose_functors(F, inv).validate().ok

    def test_poset_collapse_is_not(self):
        F = constant_functor(poset_simplex(1), poset_simplex(0), "0")
        assert equivalence_inverse(F) is None

    def test_universal_property_of_product(self):
        # functors into the product = pairs of functors into the factors
        J, K = poset_simplex(1), poset_simplex(0)
        P = product_cat(J, K)
        fs = enumerate_functors(poset_simplex(1), P)
        assert len(fs) == len(enumerate_functors(J, J)) * len(enumerate_functors(J, K))


class TestFunctorIdentity:
    def test_same_named_categories_give_distinct_identities(self):
        # both categories are named "cat" and share their identifiers
        forward = cat_from_text("objects: 0 1\nmor f: 0 -> 1\nid 0 = i0\nid 1 = i1\n")
        backward = cat_from_text("objects: 0 1\nmor f: 1 -> 0\nid 0 = i0\nid 1 = i1\n")
        F, G = identity_functor(forward), identity_functor(backward)
        assert F.key() == G.key()
        assert F != G
        assert F == F


class TestPairIds:
    def test_round_trip(self):
        for a, b in [("0", "1"), ("m01", "id0"), ("(m01,id0)", "a"),
                     ("a", "(0,(1,2))"), ("((m01,id0),a)", "(b,c)")]:
            assert split_pair(pair_id(a, b)) == (a, b)

    def test_product_identifiers_split(self):
        J, K = poset_simplex(1), group_z2()
        P = product_cat(J, K)
        for m, ends in P.morphisms.items():
            a, b = split_pair(m)
            assert ends == (pair_id(J.dom(a), K.dom(b)), pair_id(J.cod(a), K.cod(b)))

    def test_non_pairs_rejected(self):
        for token in ["m01", "", "(m01)", "(a,b", "a,b)", "(a,b)(c,d)"]:
            with pytest.raises(ValueError, match="not a pair"):
                split_pair(token)


class TestShapeFunctors:
    def test_monotone_functor_tables(self):
        p1, p2 = poset_simplex(1), poset_simplex(2)
        s0 = monotone_functor(p2, p1, (0, 0, 1), "s0")
        assert (s0.ob, s0.mor) == ({"0": "0", "1": "0", "2": "1"},
                                   {"m01": "m00", "m02": "m01", "m12": "m01"})
        d1 = monotone_functor(p1, p2, (0, 2), "d1")
        assert (d1.ob, d1.mor) == ({"0": "0", "1": "2"}, {"m01": "m02"})
        assert s0.validate().ok and d1.validate().ok and s0.name == "s0"

    def test_pairing_table(self):
        p1 = poset_simplex(1)
        J = poset_simplex(1)
        end1 = pairing(identity_functor(J), constant_functor(J, p1, "1"),
                       product_cat(J, p1), "end1")
        assert (end1.ob, end1.mor) == ({"0": "(0,1)", "1": "(1,1)"}, {"m01": "(m01,m11)"})
        assert end1.validate().ok

    def test_pair_functor_table(self):
        p1 = poset_simplex(1)
        P = product_cat(poset_simplex(0), p1)
        swap = pair_functor(P, product_cat(p1, poset_simplex(0)),
                            lambda a, b: pair_id(b, a), lambda f, g: pair_id(g, f), "swap")
        assert swap.ob == {"(0,0)": "(0,0)", "(0,1)": "(1,0)"}
        assert swap.mor == {"(m00,m01)": "(m01,m00)"}
        assert swap.validate().ok and swap.source is P


class TestTextFormat:
    def test_round_trip(self):
        for c in [poset_simplex(2), boundary_two(), group_z2()]:
            back = cat_from_text(cat_to_text(c), c.name)
            assert back.canonical_key() == c.canonical_key()

    def test_parse_error_position(self):
        with pytest.raises(ValueError, match="line 1"):
            cat_from_text("mor broken\n")
