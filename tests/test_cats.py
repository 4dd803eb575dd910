"""Finite category layer: tables, enumeration, homotopy finiteness."""

import re
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatkit.cats import (
    FiniteCategory,
    Functor,
    FunctorCategory,
    NatTransf,
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
from qcatkit.corpus import add_idempotent, corpus_categories
from qcatkit.nerve import ho, nerve
from qcatkit.prederivator import HoPrederivator, standard_sample
from qcatkit.simplicial import standard_simplex
from qcatkit.util import Budget, BudgetExceeded, ensure_budget


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
# pools.  z2 -> z2 and E -> z2 have composites that are identities; [3] ->
# idem branches on the three generators and reads every composite off
# them, checking none, while [1]x[1] -> [2] reads the diagonal off one side
# of the square and checks the other side.
FUNCTOR_SEARCHES = {
    "[3]->idem": (lambda: poset_simplex(3), lambda: add_idempotent(poset_simplex(0), "0"),
                  ({"3": {"0"}}, {"m01": {"mut_e"}, "m23": {"m00", "mut_e"}}), (42, 22)),
    "z2->z2": (group_z2, group_z2, ({"*": {"*"}}, {"g": {"e"}}), (5, 3)),
    "E->z2": (contractible_groupoid, group_z2, ({"b": {"*"}}, {"eab": {"g"}}), (14, 8)),
    "[1]x[1]->[2]": (lambda: product_cat(poset_simplex(1), poset_simplex(1)),
                     lambda: poset_simplex(2),
                     ({"(0,0)": {"0", "1"}, "(1,1)": {"1", "2"}},
                      {"(m01,m11)": {"m01", "m12", "m11"}, "(m01,m01)": {"m02", "m12"}}),
                     (177, 100)),
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
    assert K.search_plan is K.search_plan and K.generators is K.generators
    assert K.nonidentity() is K.nonidentity()
    for K in [K, add_idempotent(poset_simplex(2), "1"), product_cat(group_z2(), poset_simplex(1))]:
        # every composite with a generator on the left is checked once, at
        # the placement that completes it, or defines a derived entry
        checked = [t for _, ends, last, _ in K.search_plan if ends for t in last]
        defining = [(*gf, m) for m, ends, _, gf in K.search_plan if ends and gf]
        assert len(set(checked)) == len(checked) and not set(checked) & set(defining)
        assert sorted(checked + defining) == sorted(
            (g, f, h) for (g, f), h in K.compose_table.items() if g in K.generators)


def reference_functors(K, J, budget=None, ob_allowed=None, mor_allowed=None):
    """The functor search as it was before the flat loop: recursive over K's
    ``search_plan``, one ``budget.spend()`` per candidate and per composite;
    a derived entry's one candidate is the composite of its factors' images."""
    budget = ensure_budget(budget)
    ob_allowed = ob_allowed or {}
    mor_allowed = mor_allowed or {}
    plan = K.search_plan
    nonid = K.nonidentity()
    ob: dict = {}
    image: dict = {}
    results = []

    def consistent(triples) -> bool:
        for g, f, h in triples:
            budget.spend()
            if J.compose(image[g], image[f]) != image[h]:
                return False
        return True

    def walk(pos):
        if pos == len(plan):
            results.append(Functor(K, J, ob, {m: image[m] for m in nonid}))
            return
        name, ends, last, factors = plan[pos]
        if ends is None:
            pool = ob_allowed.get(name)
            for y in (J.objects if pool is None else sorted(pool)):
                budget.spend()
                ob[name] = y
                image[last] = J.identities[y]
                walk(pos + 1)
        else:
            pool = mor_allowed.get(name)
            for y in (J.hom(ob[ends[0]], ob[ends[1]]) if factors is None
                      else [J.compose(image[factors[0]], image[factors[1]])]):
                if pool is not None and y not in pool:
                    continue
                budget.spend()
                image[name] = y
                if consistent(last):
                    walk(pos + 1)

    walk(0)
    results.sort(key=lambda F: F.key())
    return results


def assert_searches_agree(K, J, limit=None, ob_allowed=None, mor_allowed=None):
    """Both searches under a budget of ``limit`` (none if None): the same
    functors in the same order, or both raise; the same ``used`` either way.
    Returns the steps charged."""
    outcomes = []
    for search in (enumerate_functors, reference_functors):
        budget = Budget() if limit is None else Budget(limit)
        try:
            found = [(F.key(), list(F.ob.items()), list(F.mor.items()))
                     for F in search(K, J, budget, ob_allowed, mor_allowed)]
        except BudgetExceeded:
            found = "exceeded"
        outcomes.append((found, budget.used))
    assert outcomes[0] == outcomes[1], (K.name, J.name, limit)
    return outcomes[0][1]


SEARCH_CATEGORIES = {"[1]": lambda: poset_simplex(1), "[2]": lambda: poset_simplex(2),
                     "z2": group_z2, "E": contractible_groupoid, "d[2]": boundary_two,
                     "[1]+e": lambda: add_idempotent(poset_simplex(1), "1"),
                     "z2x[1]": lambda: product_cat(group_z2(), poset_simplex(1))}


def test_flat_functor_search_matches_the_recursive_one():
    cases = 0
    for k, make_K in SEARCH_CATEGORIES.items():
        for j, make_J in SEARCH_CATEGORIES.items():
            K, J = make_K(), make_J()
            total = assert_searches_agree(K, J)
            # every limit up to the steps it takes and one past: a raise at
            # the same used, then the full answer
            for limit in range(total + 2):
                assert_searches_agree(K, J, limit)
            cases += 1 + total + 2
    assert cases == 1673


def poset(n: int, below: set) -> FiniteCategory:
    """The poset on 0..n-1 generated by ``below`` (pairs i < j), as a category."""
    le = {(i, i) for i in range(n)} | set(below)
    for k in range(n):
        le |= {(i, j) for i, m in le for m2, j in le if m == m2 == k}
    compose = {(f"m{j}{k}", f"m{i}{j}"): f"m{i}{k}"
               for i, j in le for j2, k in le if j == j2 and i != j != k}
    return FiniteCategory([str(i) for i in range(n)],
                          {f"m{i}{j}": (str(i), str(j)) for i, j in le}, compose,
                          {str(i): f"m{i}{i}" for i in range(n)}, f"P{n}")


@st.composite
def posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return poset(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set())


def pools(names, values):
    """A strategy for pools on some of ``names``, each a set of ``values``."""
    if not names or not values:
        return st.just({})
    return st.dictionaries(st.sampled_from(names), st.sets(st.sampled_from(values)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_flat_functor_search_matches_the_recursive_one_on_posets(data):
    K, J = data.draw(posets()), data.draw(posets())
    ob_allowed = data.draw(pools(K.objects, J.objects))
    mor_allowed = data.draw(pools(K.nonidentity(), sorted(J.morphisms)))
    total = assert_searches_agree(K, J, None, ob_allowed, mor_allowed)
    assert_searches_agree(K, J, data.draw(st.integers(min_value=0, max_value=total + 1)),
                          ob_allowed, mor_allowed)


def monoids(order: int) -> list:
    """Every one-object category with ``order`` morphisms: the identity e and
    the first order - 1 of a, b, under every associative table."""
    names = "ab"[:order - 1]
    found = []
    for values in iproduct("e" + names, repeat=len(names) ** 2):
        M = FiniteCategory(("*",), dict.fromkeys("e" + names, ("*", "*")),
                           dict(zip(iproduct(names, repeat=2), values)), {"*": "e"},
                           "M" + "".join(values))
        if validate_category(M).ok:
            found.append(M)
    return found


# one-object monoids of order at most 3, with an idempotent added, and
# products with z2: categories that are not posets, with idempotent
# generators and derived entries whose images are not forced by their ends
NON_POSETS = [M for n in (1, 2, 3) for M in monoids(n)]
NON_POSETS += [add_idempotent(C, C.objects[-1])
               for C in (poset_simplex(1), group_z2(), NON_POSETS[-1])]
NON_POSETS += [product_cat(C, group_z2()) for C in (poset_simplex(1), NON_POSETS[2])]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_functor_search_matches_validation_beyond_posets(data):
    K, J = data.draw(st.sampled_from(NON_POSETS)), data.draw(st.sampled_from(NON_POSETS))
    ob_allowed = data.draw(pools(K.objects, J.objects))
    mor_allowed = data.draw(pools(K.nonidentity(), sorted(J.morphisms)))
    found = enumerate_functors(K, J, None, ob_allowed, mor_allowed)
    want = functors_by_validation(K, J, ob_allowed, mor_allowed)
    assert [F.key() for F in found] == [F.key() for F in want]
    total = assert_searches_agree(K, J, None, ob_allowed, mor_allowed)
    assert_searches_agree(K, J, data.draw(st.integers(min_value=0, max_value=total + 1)),
                          ob_allowed, mor_allowed)


def words(C: FiniteCategory, gens) -> set:
    """The non-identity morphisms of C that are composites of ``gens``,
    closed under composing any two of them."""
    reached = set(gens)
    while True:
        more = {h for (g, f), h in C.compose_table.items()
                if g in reached and f in reached and not C.is_identity(h)} - reached
        if not more:
            return reached
        reached |= more


def plan_categories() -> list:
    """The corpus categories, the shapes of the standard sample and every
    HO value of the audit's four bases over it, and the non-posets above."""
    sample = standard_sample()
    values = [HoPrederivator(Q, sample).eval(J) for Q in (
        standard_simplex(0, 2), nerve(poset_simplex(1), 3), nerve(poset_simplex(2), 3),
        nerve(group_z2(), 3)) for J in sample.order]
    return ([C for _, C in corpus_categories()] + list(sample.categories.values()) + values
            + NON_POSETS)


def test_generators_generate():
    for C in plan_categories():
        gens, made = C.generators, set(C.compose_table.values())
        assert words(C, gens) == set(C.nonidentity()), C.name
        # the indecomposables, then in sorted order each morphism not yet reached
        first = {m for m in C.nonidentity() if m not in made}
        assert first <= gens, C.name
        for m in sorted(gens - first):
            assert m not in words(C, first | {g for g in gens - first if g < m}), C.name


def test_derived_entries_follow_their_factors():
    for C in plan_categories():
        at = {}  # entry -> position; an identity sits with its object
        for pos, (name, ends, last, factors) in enumerate(C.search_plan):
            at[last if ends is None else name] = pos
            if factors is not None:
                g, f = factors
                assert g in C.generators and name not in C.generators, C.name
                assert C.compose(g, f) == name and at[g] < pos and at[f] < pos, C.name
            elif ends is not None:
                assert name in C.generators, C.name
        assert sorted(at) == sorted(C.morphisms), C.name


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

    def test_morphisms_compare_by_value_over_the_same_categories(self):
        point, J = poset_simplex(0), poset_simplex(1)
        u, v = (constant_functor(point, J, x) for x in "01")
        alpha = NatTransf(u, v, {"0": J.hom("0", "1")[0]})
        # built again over the same categories: equal, with equal hashes
        u2 = constant_functor(point, J, "0")
        alpha2 = NatTransf(u2, constant_functor(point, J, "1"), alpha.components)
        assert u2 is not u and u2 == u and hash(u2) == hash(u)
        assert alpha2 == alpha and hash(alpha2) == hash(alpha)
        # equal tables over an equal but distinct copy of J: not equal
        copy = poset_simplex(1)
        w, x = (constant_functor(point, copy, y) for y in "01")
        beta = NatTransf(w, x, alpha.components)
        assert w.key() == u.key() and w != u
        assert beta.key() == alpha.key() and beta != alpha


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


def compose_rule(C, g, f):
    """Oracle: g . f by the definition, ValueError for a pair that does not
    compose (a morphism C does not have is a KeyError)."""
    if C.morphisms[f][1] != C.morphisms[g][0]:
        raise ValueError(f"morphisms {g!r} and {f!r} are not composable")
    if f in C.identities.values():
        return g
    if g in C.identities.values():
        return f
    return C.compose_table[(g, f)]


def image_rule(F, m):
    """Oracle: the image of m, identities sent to the identity of the image object."""
    if m in F.source.identities.values():
        return F.target.identities[F.ob[F.source.morphisms[m][0]]]
    return F.mor[m]


def table_categories():
    cats = [c for _, c in corpus_categories()] + [empty_category(), coproduct_cat(
        group_z2(), boundary_two()), add_idempotent(poset_simplex(1), "0")]
    return cats + [ho(nerve(c, 3)).category for c in cats[1:4]]


class TestTotalTables:
    def test_compose_is_the_rule_on_every_pair(self):
        for C in table_categories():
            answered = 0
            for g, f in iproduct(C.morphisms, repeat=2):
                try:
                    want = compose_rule(C, g, f)
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        C.compose(g, f)
                    assert (g, f) not in C.composites
                    continue
                assert C.compose(g, f) == C.composites[(g, f)] == want, (C.name, g, f)
                answered += 1
            assert answered == len(C.composites), C.name

    def test_compose_fails_as_the_rule_does(self):
        C = boundary_two()
        with pytest.raises(ValueError, match="'a' and 'b' are not composable"):
            C.compose("a", "b")
        with pytest.raises(KeyError, match="'zz'"):
            C.compose("a", "zz")
        # a composite the table lacks, and one declared for a pair that does not compose
        broken = FiniteCategory(C.objects, C.morphisms, {("a", "b"): "c"}, C.identities, "broken")
        with pytest.raises(KeyError):
            broken.compose("b", "a")
        with pytest.raises(ValueError, match="not composable"):
            broken.compose("a", "b")
        assert ("a", "b") not in broken.composites and broken.compose("b", "id1") == "b"

    def test_on_morphism_is_the_rule_on_every_morphism(self):
        functors = [F for K, J in ((poset_simplex(1), poset_simplex(2)),
                                   (boundary_two(), contractible_groupoid()),
                                   (group_z2(), group_z2()))
                    for F in enumerate_functors(K, J)]
        functors += [identity_functor(C) for C in table_categories()]
        for F in functors:
            assert F.images == {m: image_rule(F, m) for m in F.source.morphisms}, F.name
            assert all(F.on_morphism(m) == F.images[m] for m in F.source.morphisms)

    def test_on_morphism_fails_as_the_rule_does(self):
        J = poset_simplex(1)
        F = Functor(J, J, {"0": "0"}, {}, "partial")
        assert F.images == {"m00": "m00"}
        with pytest.raises(KeyError, match="'1'"):
            F.on_morphism("m11")
        with pytest.raises(KeyError, match="'m01'"):
            F.on_morphism("m01")
        with pytest.raises(KeyError, match="'zz'"):
            F.on_morphism("zz")


class TestTextFormat:
    def test_round_trip(self):
        # the coproduct's morphisms are named with a ".", as in l.m12 . l.m01 = l.m02
        for c in [C for _, C in corpus_categories()] + [
                coproduct_cat(poset_simplex(2), poset_simplex(0))]:
            back = cat_from_text(cat_to_text(c), c.name)
            assert back.canonical_key() == c.canonical_key(), c.name

    def test_parse_error_position(self):
        with pytest.raises(ValueError, match="line 1"):
            cat_from_text("mor broken\n")

    def test_a_second_objects_line_is_an_error(self):
        with pytest.raises(ValueError, match="line 3: .*listed twice"):
            cat_from_text("objects: a\nid a = ia\nobjects: b\n")

    @pytest.mark.parametrize("text,repeated", [
        # read as given, a twice-listed object is two objects, so Δ0 has two functors into it
        ("objects: a a\nid a = i\n", "line 1: .*object a is listed twice"),
        ("objects: a b\nmor f: a -> b\nmor f: b -> a\n", "line 3: .*morphism f is listed twice"),
        ("objects: a\nid a = ia\nid a = ja\n", "line 3: .*identity of a is listed twice"),
        ("objects: a\nmor e: a -> a\nid a = i\ne . e = e\ne . e = i\n",
         "line 5: .*e . e is listed twice"),
    ], ids=["object", "mor", "id", "composite"])
    def test_a_repeated_line_is_an_error(self, text, repeated):
        with pytest.raises(ValueError, match=repeated):
            cat_from_text(text)
