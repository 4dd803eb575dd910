"""Prederivator layer: evaluation, audits, rigidity, Kan extension."""

import pytest

from qcatkit.cats import (
    contractible_groupoid,
    group_z2,
    poset_simplex,
    validate_category,
)
from qcatkit.corpus import (
    der1_mutation,
    der2_mutation,
    der5_mutation,
    der5prime_mutation,
)
from qcatkit.mapping import induced_functor
from qcatkit.nerve import nerve, nerve_map
from qcatkit.prederivator import (
    ClosureError,
    ConcreteImage,
    DiaSample,
    FullSubPrederivator,
    HoPrederivator,
    check_der1,
    check_der2,
    check_der5,
    check_modification,
    check_pseudonat,
    check_strict,
    compose_modification,
    compose_pseudonat,
    compose_strict,
    der_audit,
    dia_arrow,
    enumerate_strict_morphisms,
    identity_strict,
    kan_extension_value,
    sample_from_manifest,
    sample_to_manifest,
    standard_sample,
    strict_as_pseudo,
    strict_rigidity_check,
    underlying_diaset,
)
from qcatkit.simplicial import standard_simplex

SAMPLE = standard_sample()


@pytest.fixture(scope="module")
def d_point():
    return HoPrederivator(standard_simplex(0, 2), SAMPLE)


@pytest.fixture(scope="module")
def d_interval():
    return HoPrederivator(nerve(poset_simplex(1), 3), SAMPLE)


@pytest.fixture(scope="module")
def d_groupoid():
    return HoPrederivator(nerve(contractible_groupoid(), 3), standard_sample())


class TestSample:
    def test_standard_sample_validates(self):
        report = SAMPLE.validate()
        assert report.ok, report.violations

    def test_closure_errors_are_loud(self):
        with pytest.raises(ClosureError):
            SAMPLE.cat("[7]")
        with pytest.raises(ClosureError):
            SAMPLE.shift_name("[2]")

    def test_manifest_round_trip(self, tmp_path):
        sample_to_manifest(SAMPLE, tmp_path)
        back = sample_from_manifest(tmp_path / "sample.json")
        assert back.order == SAMPLE.order
        assert back.shifts == SAMPLE.shifts
        assert set(back.functors) == set(SAMPLE.functors)
        assert back.validate().ok


class TestHoPrederivator:
    def test_base_value_is_ho(self, d_interval):
        C = d_interval.eval("[0]")
        assert len(C.objects) == 2 and len(C.morphisms) == 3

    def test_interval_value_is_arrow_category(self, d_interval):
        C = d_interval.eval("[1]")
        assert len(C.objects) == 3
        assert validate_category(C).ok

    def test_memoized(self, d_interval):
        assert d_interval.eval("[1]") is d_interval.eval("[1]")

    def test_value_is_the_ho_of_the_shape_exponential(self, d_interval):
        for J in ("[0]", "[1]", "d[2]"):
            E = d_interval.data(J)
            assert E.ho.category is d_interval.eval(J)
            assert E.exponent.cat is SAMPLE.cat(J) and E.base is d_interval.Q

    def test_two_functoriality(self, d_interval):
        report = d_interval.check_two_functoriality()
        assert report.ok, report.violations[:3]

    def test_on_nat_is_underlying_arrow(self, d_interval):
        # the action of the unique 2-morphism of [1] gives the arrow part
        s = d_interval.sample
        step = s.nats["step01_[1]"]
        img = d_interval.on_nat(step, "[0]", "[1]")
        C1 = d_interval.eval("[1]")
        C0 = d_interval.eval("[0]")
        for X in C1.objects:
            m = img.at(X)
            assert m in C0.morphisms

    def test_underlying_diaset(self, d_interval):
        ds = underlying_diaset(d_interval)
        assert len(ds.value("[0]")) == 2
        assert len(ds.value("[1]")) == 3
        # functoriality is inherited on the nose
        act = ds.act("end0_[1]")
        assert set(act) == set(d_interval.eval("[1]x[1]").objects)


def per_cell_restriction(D, u, src, dst):
    """u* built cell by cell: each cell mu of HO(Q)(dst) goes to the map
    (e1|e2) -> mu(N(u)(e1)|e2) out of N(src) x Δl."""
    dj, dk = D.data(src), D.data(dst)
    nu = nerve_map(u, dj.exponent, dk.exponent)

    def precompose(mu, level):
        Pk = dk.products[level]
        return dj.products[level].map_pairs(
            dj.T_t, lambda e1, e2: mu.apply(Pk.pair_expr(nu.apply(e1), e2)))

    return induced_functor(dk, dj, precompose, "per-cell")


@pytest.mark.parametrize("cat", [poset_simplex(1), group_z2()], ids=["[1]", "z2"])
def test_restriction_matches_the_per_cell_formula(cat):
    D = HoPrederivator(nerve(cat, 3), SAMPLE)
    for name, u in sorted(SAMPLE.functors.items()):
        src, dst = SAMPLE.functor_ends[name]
        got = D.on_functor(u, src, dst)
        assert got.key() == per_cell_restriction(D, u, src, dst).key(), name


class TestDerAudits:
    def test_axioms_hold_for_interval(self, d_interval):
        audits = der_audit(d_interval)
        for name, report in audits.items():
            assert report.ok, (name, report.violations[:2])

    def test_axioms_hold_for_point(self, d_point):
        audits = der_audit(d_point)
        assert all(r.ok for r in audits.values())

    def test_der1_empty_coproduct(self, d_point):
        report = check_der1(d_point)
        assert report.ok

    def test_mutations_fail_exactly_their_axiom(self, d_interval, d_groupoid):
        base_e = d_groupoid
        cases = [
            ("Der1", der1_mutation(d_interval), {"Der1"}),
            ("Der2", der2_mutation(d_interval), {"Der2"}),
            # strict surjectivity implies essential surjectivity, so a
            # Der5 violation necessarily shows in the primed audit too
            ("Der5", der5_mutation(d_interval), {"Der5", "Der5'"}),
            ("Der5'", der5prime_mutation(base_e), {"Der5'"}),
        ]
        for label, mutant, expected_failures in cases:
            audits = der_audit(mutant)
            failed = {name for name, r in audits.items() if not r.ok}
            assert failed == expected_failures, (label, failed)
            assert label in failed

    def test_removal_mutants_are_two_functors(self, d_interval, d_groupoid):
        for mutant in (der5_mutation(d_interval), der5prime_mutation(d_groupoid)):
            report = mutant.check_two_functoriality()
            assert report.ok and report.checked == 550, (mutant.name, report.violations[:3])

    def test_dia_arrow_shape(self, d_interval):
        src, on_object, on_morphism = dia_arrow(d_interval, "[0]")
        CJ = d_interval.eval("[0]")
        for X in src.objects:
            assert on_object(X) in CJ.morphisms
        for m in src.nonidentity():
            p0, p1 = on_morphism(m)
            assert p0 in CJ.morphisms and p1 in CJ.morphisms


class TestFullSubPrederivator:
    def test_keeping_everything_is_the_base(self, d_interval):
        D = FullSubPrederivator(d_interval, {}, "all")
        u = SAMPLE.functors["vx_[1]_1"]
        assert D.eval("[1]") is d_interval.eval("[1]")
        assert D.on_functor(u, "[0]", "[1]").key() == d_interval.on_functor(u, "[0]", "[1]").key()

    def test_value_is_the_full_subcategory(self, d_interval):
        C = d_interval.eval("[1]")
        keep = list(C.objects[:2])
        sub = FullSubPrederivator(d_interval, {"[1]": keep}, "sub").eval("[1]")
        assert sub.objects == tuple(sorted(keep))
        assert all(sub.hom(a, b) == C.hom(a, b) for a in keep for b in keep)

    def test_restriction_leaving_the_kept_objects_is_an_error(self, d_interval):
        u = SAMPLE.functors["vx_[1]_1"]
        hit = sorted(set(d_interval.on_functor(u, "[0]", "[1]").ob.values()))
        assert len(hit) == 2  # the constant diagrams at 0 and at 1
        D = FullSubPrederivator(d_interval, {"[0]": hit[:1]}, "sub")
        with pytest.raises(ValueError, match="vx_"):
            D.on_functor(u, "[0]", "[1]")
        # a restriction out of the kept objects is fine
        assert D.on_functor(SAMPLE.functors["![1]"], "[1]", "[0]").validate().ok


class TestKanExtension:
    def test_interval_into_interval(self):
        R = nerve(poset_simplex(1), 3)
        result = kan_extension_value(R, poset_simplex(1), 2)
        assert len(result.families) == 3
        assert len(result.maps) == 3
        assert result.bijective

    def test_point_shape_gives_vertices(self):
        R = nerve(poset_simplex(2), 3)
        result = kan_extension_value(R, poset_simplex(0), 2)
        assert len(result.families) == 3
        assert result.bijective

    def test_free_boundary_target(self):
        # maps [1] -> d[2] correspond to the 7 morphisms of the free category
        R = nerve(boundary_two_cached(), 3)
        result = kan_extension_value(R, poset_simplex(1), 2)
        assert len(result.families) == 7
        assert result.bijective

    def test_depth_too_small_rejected(self):
        R = nerve(poset_simplex(1), 3)
        with pytest.raises(ValueError, match="depth"):
            kan_extension_value(R, poset_simplex(2), 2)

    def test_more_pairs(self):
        for R_cat, J, d, expected in [
                (poset_simplex(2), poset_simplex(1), 2, 6),
                (group_z2(), poset_simplex(1), 2, 2),
                (contractible_groupoid(), poset_simplex(1), 2, 4)]:
            result = kan_extension_value(nerve(R_cat, 3), J, d)
            assert result.bijective
            assert len(result.families) == expected, R_cat.name


def boundary_two_cached():
    from qcatkit.cats import boundary_two
    return boundary_two()


class TestStrictMorphisms:
    def test_identity_is_strict(self, d_interval):
        F = identity_strict(d_interval)
        assert check_strict(F).ok

    def test_enumeration_point_to_point(self, d_point):
        morphisms = enumerate_strict_morphisms(d_point, d_point)
        assert len(morphisms) == 1

    def test_enumeration_point_to_interval(self, d_point, d_interval):
        morphisms = enumerate_strict_morphisms(d_point, d_interval)
        assert len(morphisms) == 2  # one per vertex of the interval

    def test_all_enumerated_are_strict(self, d_point, d_interval):
        for F in enumerate_strict_morphisms(d_point, d_interval):
            assert check_strict(F).ok

    def test_rigidity(self, d_point, d_interval):
        for D1, D2 in [(d_point, d_point), (d_point, d_interval),
                       (d_interval, d_point)]:
            report = strict_rigidity_check(D1, D2)
            assert report.ok, report.violations[:2]

    def test_composition(self, d_point, d_interval):
        fs = enumerate_strict_morphisms(d_point, d_interval)
        back = enumerate_strict_morphisms(d_interval, d_point)
        comp = compose_strict(back[0], fs[0])
        assert check_strict(comp).ok


class TestPseudoNat:
    def test_identity_pseudonat_passes(self, d_interval):
        P = strict_as_pseudo(identity_strict(d_interval))
        assert check_pseudonat(P).ok

    def test_strict_image_passes(self, d_point, d_interval):
        for F in enumerate_strict_morphisms(d_point, d_interval):
            assert check_pseudonat(strict_as_pseudo(F)).ok

    def test_broken_structure_cell_detected(self, d_interval):
        P = strict_as_pseudo(identity_strict(d_interval))
        # replace one structure cell by a non-natural constant choice
        bad = dict(P.structure)
        name = "end0_[1]"
        cell = bad[name]
        C = d_interval.eval("[1]")
        target_obj = cell.components[sorted(cell.components)[0]]
        comps = {X: target_obj for X in cell.components}
        from qcatkit.cats import NatTransf
        bad[name] = NatTransf(cell.source, cell.target, comps, "broken")
        from qcatkit.prederivator import PseudoNat
        broken = PseudoNat(P.source, P.target, P.components, bad, "broken")
        assert not check_pseudonat(broken).ok

    def test_composition_of_pseudonats(self, d_point, d_interval):
        fs = [strict_as_pseudo(F) for F in enumerate_strict_morphisms(d_point, d_interval)]
        gs = [strict_as_pseudo(F) for F in enumerate_strict_morphisms(d_interval, d_point)]
        comp = compose_pseudonat(gs[0], fs[0])
        assert check_pseudonat(comp).ok

    def test_identity_modification(self, d_point, d_interval):
        from qcatkit.cats import identity_nat
        from qcatkit.prederivator import Modification
        P = strict_as_pseudo(identity_strict(d_interval))
        Xi = Modification(P, P, {j: identity_nat(P.at(j)) for j in SAMPLE.order})
        assert check_modification(Xi).ok
        assert check_modification(compose_modification(Xi, Xi)).ok


class TestConcretize:
    def test_distinct_strict_morphisms_distinct_images(self, d_point, d_interval):
        shapes = ["[0]", "[1]"]
        functors = ["vx_[1]_0", "vx_[1]_1"]
        U = ConcreteImage(d_interval, shapes, functors)
        images = set()
        for F in enumerate_strict_morphisms(d_point, d_interval):
            img = U.embed_morphism(strict_as_pseudo(F))
            images.add(img)
        assert len(images) == 2

    def test_identity_embeds_as_identity_components(self, d_interval):
        shapes = ["[0]", "[1]"]
        U = ConcreteImage(d_interval, shapes, ["id_[0]", "id_[1]"])
        P = strict_as_pseudo(identity_strict(d_interval))
        img = dict(U.embed_morphism(P)[:2])
        from qcatkit.cats import identity_functor
        assert img["[0]"] == identity_functor(d_interval.eval("[0]")).key()

    def test_modification_components_recoverable(self, d_interval):
        from qcatkit.cats import identity_nat
        from qcatkit.prederivator import Modification
        P = strict_as_pseudo(identity_strict(d_interval))
        Xi = Modification(P, P, {j: identity_nat(P.at(j)) for j in SAMPLE.order})
        U = ConcreteImage(d_interval, ["[0]", "[1]"], ["id_[0]", "id_[1]"])
        emb = dict(U.embed_modification(Xi)[:2])
        assert emb["[1]"] == tuple(sorted(Xi.at("[1]").components.items()))

    def test_product_category_is_a_category(self, d_point):
        U = ConcreteImage(d_point, ["[0]"], ["id_[0]"])
        assert validate_category(U.category).ok
