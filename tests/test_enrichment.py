"""Shifts, simplicial hom levels, diagonal composition, the embedding check."""

import pytest

from qcatkit.cats import (
    NatTransf,
    compose_functors,
    identity_functor,
    identity_nat,
    poset_simplex,
)
from qcatkit.enrichment import (
    ShiftedPrederivator,
    compose_simplicial,
    embedding_check,
    enrichment_sample,
    induced_strict_morphisms,
    simplicial_hom,
    simplicial_operator,
)
from qcatkit.mapping import induced_functor
from qcatkit.nerve import chain_shape_iso, nerve, nerve_product_compare_inv
from qcatkit.prederivator import (
    ClosureError,
    HoPrederivator,
    Modification,
    check_modification,
    check_strict,
    enumerate_strict_morphisms,
)
from qcatkit.simplicial import (
    SimplexExpr,
    SimplicialMap,
    enumerate_maps,
    product,
    standard_simplex,
)

SAMPLE = enrichment_sample(1)
DEEP = enrichment_sample(1, depth=1)
DEEP2 = enrichment_sample(1, depth=2)


@pytest.fixture(scope="module")
def d_point():
    return HoPrederivator(standard_simplex(0, 2), SAMPLE)


@pytest.fixture(scope="module")
def d_interval():
    return HoPrederivator(nerve(poset_simplex(1), 3), SAMPLE)


@pytest.fixture(scope="module")
def deep_interval():
    return HoPrederivator(nerve(poset_simplex(1), 3), DEEP)


@pytest.fixture(scope="module")
def deep_point():
    return HoPrederivator(standard_simplex(0, 2), DEEP)


def find_identity_level0(D):
    sh = ShiftedPrederivator(D, "[0]")
    for F in simplicial_hom(D, D, 0):
        if all(F.at(K).key() == identity_functor(sh.eval(K)).key()
               for K in F.components):
            return F
    raise AssertionError("no identity found in level 0")


class TestShift:
    def test_samples_validate(self, d_interval):
        assert SAMPLE.validate().ok
        assert DEEP.validate().ok
        # a shift keeps the terminal annotation where the shape is a member
        for J in ("[0]", "[1]"):
            assert ShiftedPrederivator(d_interval, J).sample.validate().ok

    def test_shift_by_point_is_isomorphic(self, d_interval):
        sh = ShiftedPrederivator(d_interval, "[0]")
        for K in sh.pairings:
            assert len(sh.eval(K).objects) == len(d_interval.eval(K).objects)
            assert len(sh.eval(K).morphisms) == len(d_interval.eval(K).morphisms)

    def test_shift_unit_of_product(self, d_interval):
        # shifting by [1], the value at [0] is the value at [1] x [0]
        sh = ShiftedPrederivator(d_interval, "[1]")
        assert sh.eval("[0]") is d_interval.eval("[1]x[0]")

    def test_closure_violation_is_loud(self, d_interval):
        sh = ShiftedPrederivator(d_interval, "[1]")
        with pytest.raises(ClosureError):
            sh.paired("[1]x[1]")

    def test_double_shift_associativity_instance(self, deep_interval):
        # (D^[1])^[1] at [0] agrees with D at [1] x ([1] x [0])
        outer = ShiftedPrederivator(deep_interval, "[1]")
        assert outer.eval("[1]x[0]") is deep_interval.eval("[1]x([1]x[0])")


def stepped_sample():
    """enrichment_sample(1) with the vertex step 0 -> 1 of [1] listed."""
    s = enrichment_sample(1)
    s.add_nat("step01_[1]",
              NatTransf(s.functors["vx_[1]_0"], s.functors["vx_[1]_1"], {"0": "m01"}))
    return s


@pytest.mark.parametrize("make", [lambda D: ShiftedPrederivator(D, "[0]"),
                                  lambda D: ShiftedPrederivator(D, "[1]")],
                         ids=["shift0", "shift1"])
def test_shifts_are_two_functors_on_a_listed_nat(make):
    D = make(HoPrederivator(nerve(poset_simplex(1), 3), stepped_sample()))
    report = D.check_two_functoriality()
    assert report.ok and report.checked == 21, report.violations
    a = D.sample.nats["step01_[1]"]
    image = D.on_nat(a)
    assert image.source is D.on_functor(a.source)
    assert image.target is D.on_functor(a.target)


class TestSimplicialHom:
    def test_level0_from_point_counts_objects(self, d_point, d_interval):
        homs = simplicial_hom(d_point, d_interval, 0)
        assert len(homs) == 2

    def test_identity_modification_on_a_shape_restricted_level(self, d_point, d_interval):
        # the level has components at [0] and [1] only; the check keeps to them
        F = simplicial_hom(d_point, d_interval, 0)[0]
        Xi = Modification(F, F, {K: identity_nat(F.at(K)) for K in F.components})
        report = check_modification(Xi)
        assert report.ok and report.checked == 8, report.violations

    def test_identity_present(self, d_interval):
        find_identity_level0(d_interval)

    def test_all_levels_are_strict(self, d_point, d_interval):
        for n in (0, 1):
            for F in simplicial_hom(d_point, d_interval, n):
                report = check_strict(F)
                assert report.ok, report.violations[:2]

    def test_hom_counts_match_maps(self, d_point, d_interval):
        # mapping-object levels coincide with simplicial map counts
        # (pt -> N[1]): level n has one morphism per total n-simplex
        assert len(simplicial_hom(d_point, d_interval, 1)) == 3

    def test_operators_satisfy_simplicial_identities(self, deep_point, deep_interval):
        d1 = deep_interval
        homs1 = simplicial_hom(deep_point, d1, 1)
        for F in homs1:
            d0F = simplicial_operator(F, (1,), 0)
            d1F = simplicial_operator(F, (0,), 0)
            # re-degenerating a face of a degenerate element recovers it
            for G in [d0F, d1F]:
                back = simplicial_operator(simplicial_operator(G, (0, 0), 1), (0,), 0)
                assert back.key_on(G.components) == G.key()


class TestComposeSimplicial:
    def test_unit_law(self, deep_point, deep_interval):
        ident = find_identity_level0(deep_interval)
        deg = simplicial_operator(ident, (0, 0), 1)
        for g in simplicial_hom(deep_point, deep_interval, 1):
            comp = compose_simplicial(deg, g)
            common = sorted(set(comp.components) & set(g.components))
            assert comp.key_on(common) == g.key_on(common)

    def test_level0_reduces_to_strict_composition(self, deep_point, deep_interval):
        gs = simplicial_hom(deep_point, deep_interval, 0)
        ident = find_identity_level0(deep_interval)
        for g in gs:
            comp = compose_simplicial(ident, g)
            for K in comp.components:
                pn_K = DEEP.products[("[0]", K)]
                direct = compose_functors(ident.at(pn_K), g.at(K))
                # the diagonal restriction at level 0 is plain composition
                assert sorted(comp.at(K).ob.values()) == sorted(direct.ob.values())

    def test_associativity_instances(self):
        # one closure layer per composition in the deepest parenthesization;
        # the doubly-nested interval power is kept out of the scope, so the
        # two parenthesizations are compared on the shapes both reach
        spine = ["[0]", "[1]", "[1]x[0]", "[1]x[1]", "[1]x([1]x[0])"]
        d0 = HoPrederivator(standard_simplex(0, 2), DEEP2)
        d1 = HoPrederivator(nerve(poset_simplex(1), 3), DEEP2)
        shifted = ShiftedPrederivator(d1, "[1]")
        homs = enumerate_strict_morphisms(d0, shifted, shapes=spine)
        endos = enumerate_strict_morphisms(d1, shifted, shapes=spine)
        checked = 0
        for g in homs[:2]:
            for f in endos[:2]:
                for h in endos[:2]:
                    fg = compose_simplicial(f, g)
                    h_fg = compose_simplicial(h, fg)
                    hf = compose_simplicial(h, f)
                    hf_g = compose_simplicial(hf, g)
                    common = sorted(set(h_fg.components) & set(hf_g.components))
                    assert common, "no common scope for the two parenthesizations"
                    assert h_fg.key_on(common) == hf_g.key_on(common)
                    checked += 1
        assert checked == 8


class TestEmbedding:
    def test_point_cases(self):
        pt = standard_simplex(0, 2)
        for n in (0, 1):
            report = embedding_check(pt, pt, n)
            assert report.injective
            assert report.map_count == 1

    def test_point_into_interval(self):
        pt = standard_simplex(0, 2)
        n1 = nerve(poset_simplex(1), 3)
        report = embedding_check(pt, n1, 0)
        assert report.injective and report.map_count == 2
        report = embedding_check(pt, n1, 1)
        assert report.injective and report.map_count == 3

    def test_interval_endomorphisms(self):
        n1 = nerve(poset_simplex(1), 3)
        report = embedding_check(n1, n1, 1)
        assert report.injective
        assert report.map_count == 6  # monotone square maps
        assert report.hom_count >= report.image_size

    @pytest.mark.parametrize("q,r,n,count", [("pt", "n1", 0, 2), ("pt", "n1", 1, 3),
                                             ("n1", "n1", 1, 6)])
    def test_hom_count_is_the_level_of_the_mapping_object(self, q, r, n, count):
        # the benchmark's three instances
        sets = {"pt": standard_simplex(0, 2), "n1": nerve(poset_simplex(1), 3)}
        sample = enrichment_sample(max(n, 1))
        homs = simplicial_hom(HoPrederivator(sets[q], sample), HoPrederivator(sets[r], sample), n)
        assert len(homs) == embedding_check(sets[q], sets[r], n).hom_count == count


def per_cell_induced(DQ, shifted, mu, K_name):
    """The component at K of the level-n morphism that mu: Q x delta_n -> R
    induces, built map by map: a cell nu of HO(Q)(K) goes to the map
    (e1|e2) -> mu(nu(k|e2), t) out of N([n] x K) x Δl, where e1 is split
    into the simplex t of delta_n and k of N(K) by inverting the product
    comparison N([n]) x N(K) -> N([n] x K) and the identification of delta_n
    with N([n]), one nondegenerate cell at a time."""
    dq = DQ.data(K_name)
    dr = shifted.base.data(shifted.paired(K_name))
    P = mu.source
    NJ, NK = nerve(shifted.J, 2), dq.exponent
    to_delta = {image.base: SimplexExpr((), x)
                for x, image in chain_shape_iso(P.right, NJ).assignment.items()}
    split = product(NJ, NK)
    to_pair = {image.base: split.pair_of[x] for x, image
               in nerve_product_compare_inv(split, dr.exponent).assignment.items()}

    def precompose(codes, level):
        P_r, P_q = dr.products[level], dq.products[level]
        nu = SimplicialMap(P_q, dq.T_t, codes)

        def image(e1, e2):
            t, k = to_pair[e1.base]
            t = NJ.degenerate(e1.word, t)
            t = P.right.degenerate(t.word, to_delta[t.base])
            q = nu.apply(P_q.pair_expr(NK.degenerate(e1.word, k), e2))
            return mu.apply(P.pair_expr(q, t))

        return P_r.map_pairs(dr.T_t, image).images

    return induced_functor(dq, dr, lambda batch, level: [precompose(codes, level)
                                                         for codes in batch], "per-cell")


@pytest.mark.parametrize("q,r,n", [("pt", "pt", 0), ("pt", "pt", 1), ("pt", "n1", 0),
                                   ("pt", "n1", 1), ("n1", "n1", 1)])
def test_induced_strict_morphisms_match_the_per_cell_formula(q, r, n):
    # the cases of embedding_check above, which include the benchmark's three
    sets = {"pt": standard_simplex(0, 2), "n1": nerve(poset_simplex(1), 3)}
    Q, R = sets[q], sets[r]
    sample = enrichment_sample(max(n, 1))
    DQ, DR = HoPrederivator(Q, sample), HoPrederivator(R, sample)
    maps = enumerate_maps(product(Q.truncate(2), standard_simplex(n, 2)), R.truncate(2))
    shifted = ShiftedPrederivator(DR, f"[{n}]")
    shapes = [K for K in sample.order if K in shifted.pairings]
    induced = induced_strict_morphisms(DQ, shifted, maps, shapes)
    assert len(induced) == len(maps) and shapes
    for mu, F in zip(maps, induced):
        assert sorted(F.components) == sorted(shapes)
        for K in shapes:
            assert F.at(K).key() == per_cell_induced(DQ, shifted, mu, K).key(), K
