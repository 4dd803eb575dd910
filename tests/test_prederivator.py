"""Prederivator layer: evaluation, audits, rigidity, Kan extension."""

import gc
import json
import re
import weakref

import pytest

from qcatkit.cats import (
    FiniteCategory,
    Functor,
    NatTransf,
    boundary_two,
    compose_functors,
    constant_functor,
    contractible_groupoid,
    coproduct_cat,
    enumerate_functors,
    enumerate_nats,
    group_z2,
    horizontal_compose,
    identity_functor,
    identity_nat,
    monotone_functor,
    pair_functor,
    poset_simplex,
    product_cat,
    validate_category,
    vertical_compose,
)
from qcatkit.corpus import (
    PatchedPrederivator,
    corpus_quasicategories,
    der1_mutation,
    der2_mutation,
    der5_mutation,
    der5prime_mutation,
    full_sub_mutant,
)
from qcatkit.mapping import ExactnessError, full_degeneracy, induced_functor
from qcatkit.nerve import chain_shape_iso, nerve, nerve_map, nerve_product_compare_inv
from qcatkit.prederivator import (
    ClosureError,
    DiaSample,
    HoPrederivator,
    Modification,
    StrictMorphism,
    _fibres,
    _meet,
    _pins,
    check_der1,
    check_der2,
    check_der5,
    check_modification,
    check_strict,
    der_audit,
    dia_arrow,
    enumerate_strict_morphisms,
    identity_strict,
    kan_extension_value,
    sample_from_manifest,
    sample_to_manifest,
    standard_sample,
    strict_rigidity_check,
)
from qcatkit.simplicial import SimplexExpr, SimplicialMap, compose_maps, product, standard_simplex
from qcatkit.util import Budget

SAMPLE = standard_sample()


@pytest.fixture(scope="module")
def d_point():
    return HoPrederivator(standard_simplex(0, 2), SAMPLE)


@pytest.fixture(scope="module")
def d_interval():
    return HoPrederivator(nerve(poset_simplex(1), 3), SAMPLE)


@pytest.fixture(scope="module")
def d_z2():
    return HoPrederivator(nerve(group_z2(), 3), SAMPLE)


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
        written = sample_to_manifest(SAMPLE, tmp_path / "first")
        back = sample_from_manifest(tmp_path / "first" / "sample.json")
        assert back.order == SAMPLE.order
        assert back.shifts == SAMPLE.shifts
        assert set(back.functors) == set(SAMPLE.functors)
        assert back.validate().ok
        assert sample_to_manifest(back, tmp_path / "again") == written

    def test_a_coproduct_with_composites_round_trips(self, tmp_path):
        # its composite l.m12 . l.m01 = l.m02 names morphisms with a "."
        s = DiaSample("coproducts")
        s.add_category("[2]", poset_simplex(2))
        s.add_category("[0]", poset_simplex(0))
        s.add_category("[2]+[0]", coproduct_cat(poset_simplex(2), poset_simplex(0)))
        s.coproducts[("[2]", "[0]")] = "[2]+[0]"
        s.terminal = "[0]"
        s.add_unit_functors()
        written = sample_to_manifest(s, tmp_path / "first")
        back = sample_from_manifest(tmp_path / "first" / "sample.json")
        assert back.cat("[2]+[0]").canonical_key() == s.cat("[2]+[0]").canonical_key()
        assert sample_to_manifest(back, tmp_path / "again") == written

    @pytest.mark.parametrize("kind,name,twin", [("functors", "d0_[2]", "d1_[2]"),
                                                ("nats", "step02_[2]", "step01_[2]")])
    def test_a_name_listed_twice_is_an_error(self, tmp_path, kind, name, twin):
        # the second entry carries the twin's tables, so read last-wins the
        # sample would load and pass validate
        data = sample_to_manifest(SAMPLE, tmp_path)
        data[kind].append(dict(next(e for e in data[kind] if e["name"] == twin), name=name))
        (tmp_path / "sample.json").write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"duplicate sample .* {re.escape(repr(name))}"):
            sample_from_manifest(tmp_path / "sample.json")

    def test_ends_are_read_by_identity(self, d_point):
        assert SAMPLE.ends(SAMPLE.functors["end0_[1]"]) == ("[1]", "[1]x[1]")
        # equal to the member [1], but not the member itself
        stray = monotone_functor(poset_simplex(1), SAMPLE.cat("[1]"), (0, 1), "stray")
        with pytest.raises(ClosureError, match="stray"):
            d_point.on_functor(stray)

    def test_listed_functor_leaving_the_sample_is_reported(self):
        s = DiaSample("point")
        s.add_category("[0]", poset_simplex(0))
        s.terminal = "[0]"
        s.add_unit_functors()
        s.add_functor("stray", identity_functor(poset_simplex(0)))
        assert s.validate().violations == ["functor stray leaves the sample"]

    @pytest.mark.parametrize("edit,missing", [
        (lambda m: m["nats"][0].update(src="nope"), "no functor 'nope'"),
        (lambda m: m["order"].append("ghost"), "'ghost', which has no category file"),
        (lambda m: m.update(terminal="[1]"), r"terminal annotation \[1\]"),
        (lambda m: m.update(initial="[0]"), r"initial annotation \[0\]"),
    ], ids=["nat-end", "order", "terminal", "initial"])
    def test_a_broken_manifest_is_a_closure_error(self, tmp_path, edit, missing):
        manifest = sample_to_manifest(SAMPLE, tmp_path)
        edit(manifest)
        (tmp_path / "sample.json").write_text(json.dumps(manifest))
        with pytest.raises(ClosureError, match=missing):
            sample_from_manifest(tmp_path / "sample.json")

    def test_der_audits_read_the_sample_they_are_given(self):
        # a coproduct with no inl_/inr_ listed is named, not a KeyError
        s = DiaSample("bare")
        P = s.add_category("[0]", poset_simplex(0))
        s.add_category("[0]+[0]", coproduct_cat(P, P))
        s.terminal, s.coproducts = "[0]", {("[0]", "[0]"): "[0]+[0]"}
        s.add_unit_functors()
        assert s.validate().ok
        with pytest.raises(ClosureError, match=r"no functor 'inl_\[0\]\+\[0\]'"):
            check_der1(HoPrederivator(standard_simplex(0, 2), s))
        # Der2 compares with the value at the sample's own terminal shape
        s = DiaSample("pointed")
        s.add_category("pt", poset_simplex(0))
        s.add_category("[1]", poset_simplex(1))
        s.terminal = "pt"
        s.add_unit_functors()
        report = check_der2(HoPrederivator(nerve(poset_simplex(1), 3), s))
        assert report.ok and report.checked

    def test_a_missing_terminal_annotation_is_named(self):
        s = DiaSample("noterm")
        P = s.add_category("[0]", poset_simplex(0))
        s.add_category("[1]", poset_simplex(1))
        for name in s.order:
            C = s.cat(name)
            s.add_functor(f"id_{name}", identity_functor(C))
            for x in C.objects:
                s.add_functor(f"vx_{name}_{x}", constant_functor(P, C, x))
        assert s.validate().violations == ["no terminal annotation"]
        with pytest.raises(ClosureError, match="no terminal annotation"):
            check_der2(HoPrederivator(nerve(poset_simplex(1), 3), s))

    def test_a_member_is_registered_once(self):
        s = DiaSample("point")
        P = s.add_category("[0]", poset_simplex(0))
        with pytest.raises(ValueError, match="already the member"):
            s.add_category("pt", P)

    def test_der1_shapes_are_the_initial_member_and_the_coproducts_after_their_summands(self):
        assert SAMPLE.der1_shapes() == {"0", "[0]+[0]", "[0]+[1]", "[1]+[1]"}
        # a coproduct listed before one of its summands is read in its own turn
        s = DiaSample("late summand")
        P = poset_simplex(0)
        s.add_category("[0]+[0]", coproduct_cat(P, P))
        s.add_category("[0]", P)
        s.terminal, s.coproducts = "[0]", {("[0]", "[0]"): "[0]+[0]"}
        s.add_unit_functors()
        assert s.validate().ok
        assert s.der1_shapes() == set()

    @pytest.mark.parametrize("edit,fault", [
        (lambda s: s.coproducts.update({("[0]", "[1]"): "[1]+[1]"}),
         "coproduct annotation [0] + [1] = [1]+[1] is not the coproduct"),
        (lambda s: setattr(s, "initial", "[0]"),
         "initial annotation [0] is not the initial category"),
    ], ids=["coproduct", "initial"])
    def test_der1_shapes_rest_on_annotations_that_hold(self, edit, fault):
        s = standard_sample()
        edit(s)
        assert s.validate().violations == [fault]
        with pytest.raises(ClosureError, match=f"^{re.escape(f'sample standard: {fault}')}$"):
            s.der1_shapes()


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
        img = d_interval.on_nat(step)
        C1 = d_interval.eval("[1]")
        C0 = d_interval.eval("[0]")
        for X in C1.objects:
            m = img.at(X)
            assert m in C0.morphisms

    def test_a_failed_evaluation_keeps_its_type(self):
        # Δ3 is certified 3-coskeletal, beyond the sample's nerves at depth 2
        D = HoPrederivator(standard_simplex(3, 3), SAMPLE)
        with pytest.raises(ExactnessError, match=r"^evaluation at \[1\] failed: exactness fails"):
            D.eval("[1]")

    def test_underlying_diaset(self, d_interval):
        # the underlying diagram of sets: the values' objects, and the
        # restrictions' object maps, read from eval and on_functor
        assert len(d_interval.eval("[0]").objects) == 2
        assert len(d_interval.eval("[1]").objects) == 3
        end0 = d_interval.on_functor(SAMPLE.functors["end0_[1]"])
        assert set(end0.ob) == set(d_interval.eval("[1]x[1]").objects)


def per_cell_restriction(D, u):
    """u* built cell by cell: each cell mu of HO(Q)(K) goes to the map
    (e1|e2) -> mu(N(u)(e1)|e2) out of N(J) x Δl, for u: J -> K.  The code
    tuples are decoded to maps and the image map encoded again, one tuple at
    a time, so neither the restriction plans nor their transports take part."""
    dj, dk = (D.data(end) for end in D.sample.ends(u))
    nu = nerve_map(u, dj.exponent, dk.exponent)
    # the cell (N(u)(e1)|e2) of N(K) x Δl, once per cell (e1|e2) of N(J) x Δl
    under = {level: {pair: dk.products[level].pair_expr(nu.apply(pair[0]), pair[1])
                     for pair in dj.products[level].pair_of.values()} for level in (0, 1)}

    def precompose(codes, level):
        mu = SimplicialMap(dk.products[level], dk.T_t, codes)
        return dj.products[level].map_pairs(
            dj.T_t, lambda e1, e2: mu.apply(under[level][(e1, e2)])).images

    return induced_functor(dk, dj, lambda batch, level: [precompose(codes, level)
                                                         for codes in batch], "per-cell")


@pytest.mark.parametrize("Q", [standard_simplex(0, 2), nerve(poset_simplex(1), 3),
                               nerve(poset_simplex(2), 3), nerve(group_z2(), 3)],
                         ids=["delta0", "[1]", "[2]", "z2"])
def test_restriction_matches_the_per_cell_formula(Q):
    D = HoPrederivator(Q, SAMPLE)
    # the listed functors, then every composite of two that is not one of them
    functors = {(SAMPLE.ends(u), u.key()): name for name, u in sorted(SAMPLE.functors.items())}
    composites = {}
    for n2, n1 in SAMPLE.composable_functor_pairs():
        vu = compose_functors(SAMPLE.functors[n2], SAMPLE.functors[n1])
        if (SAMPLE.ends(vu), vu.key()) not in functors:
            composites.setdefault((SAMPLE.ends(vu), vu.key()), (vu, (n2, n1)))
    assert len(composites) == 218
    cases = [(SAMPLE.functors[name], name) for name in functors.values()]
    for u, label in cases + list(composites.values()):
        assert D.on_functor(u).key() == per_cell_restriction(D, u).key(), label


def per_cell_transport(D, alpha):
    """alpha* built map by map: the component at a vertex mu of HO(Q)(K) is
    the class of mu precomposed with N(J) x Δ1 -> N(J x [1]) -> N(K), the
    inverse product comparison followed by the nerve of the mate of alpha.
    The mate is written here through naturality, as v(m) . alpha at dom m on
    a step morphism (m, 0 -> 1)."""
    dj, dk = (D.data(end) for end in D.sample.ends(alpha.source))
    J, K, interval = dj.exponent.cat, dk.exponent.cat, poset_simplex(1)
    u, v = alpha.source, alpha.target

    def on_morphism(m, tm):
        if interval.is_identity(tm):
            return (u if interval.dom(tm) == "0" else v).on_morphism(m)
        return K.compose(v.on_morphism(m), alpha.at(J.dom(m)))

    mate = pair_functor(product_cat(J, interval), K, lambda x, t: (u if t == "0" else v).ob[x],
                        on_morphism, "mate")
    NJI = nerve(mate.source, 2)
    nmate = nerve_map(mate, NJI, dk.exponent)
    P_JI = product(dj.exponent, nerve(interval, 2))
    compare = nerve_product_compare_inv(P_JI, NJI)
    Pj, Pk = dj.products[1], dk.products[0]
    shape = chain_shape_iso(Pj.right, P_JI.right)
    to_k = Pj.map_pairs(Pk, lambda e1, e2: Pk.pair_expr(
        nmate.apply(compare.apply(P_JI.pair_expr(e1, shape.apply(e2)))),
        SimplexExpr(full_degeneracy(Pj.left.expr_dim(e1)), "0")))
    return {c: dj.ho.cls(dj.locate(compose_maps(dk.map_of(SimplexExpr((), c)), to_k)))
            for c in dk.ho.category.objects}


@pytest.mark.parametrize("Q", [standard_simplex(0, 2), nerve(poset_simplex(1), 3),
                               nerve(group_z2(), 3)], ids=["delta0", "[1]", "z2"])
def test_on_nat_matches_the_per_cell_formula(Q):
    D = HoPrederivator(Q, SAMPLE)
    assert len(SAMPLE.nats) == 6
    # the listed 2-cells, then the vertical and horizontal composites of two
    # of them that check_two_functoriality transports
    cases = sorted(SAMPLE.nats.items())
    for n1, a in sorted(SAMPLE.nats.items()):
        for n2, b in sorted(SAMPLE.nats.items()):
            if b.source is a.target:
                cases.append((f"{n2} . {n1}", vertical_compose(b, a)))
            if b.source.source is a.source.target:
                cases.append((f"{n2} * {n1}", horizontal_compose(b, a)))
    assert [name for name, _ in cases[6:]] == ["step_[1] * step01_[1]",
                                               "step12_[2] . step01_[2]"]
    for name, alpha in cases:
        assert D.on_nat(alpha).components == per_cell_transport(D, alpha), name


def order_nat(F: Functor, G: Functor, name: str) -> NatTransf:
    """The 2-cell F => G between functors into a poset, F <= G objectwise."""
    P = F.target
    return NatTransf(F, G, {x: P.hom(F.ob[x], G.ob[x])[0] for x in F.source.objects}, name)


def two_cell_sample() -> DiaSample:
    """``standard_sample()`` with more 2-cells, so that the 2-functor laws
    meet several composable pairs: the identity 2-cells of the vertex
    functors of [1] and [2], the vertical composite of the [2] steps, and
    the orders d2 <= d1 <= d0: [1] -> [2] and s0 <= s1: [2] -> [1]."""
    s = standard_sample()
    f = s.functors
    for name in ("vx_[1]_0", "vx_[1]_1", "vx_[2]_0", "vx_[2]_1", "vx_[2]_2"):
        s.add_nat(f"id_{name}", identity_nat(f[name]))
    s.add_nat("step12.step01_[2]", vertical_compose(s.nats["step12_[2]"], s.nats["step01_[2]"]))
    for a, b in (("d2_[2]", "d1_[2]"), ("d1_[2]", "d0_[2]"), ("s0_[2]", "s1_[2]")):
        s.add_nat(f"{a}<={b}", order_nat(f[a], f[b], f"{a}<={b}"))
    return s


@pytest.mark.parametrize("C", [poset_simplex(1), group_z2(), poset_simplex(2)],
                         ids=["[1]", "z2", "[2]"])
def test_two_functoriality_over_composable_two_cells(C):
    s = two_cell_sample()
    nats = list(s.nats.values())
    assert all(a.validate().ok for a in nats)
    # the pairs check_two_functoriality composes; standard_sample() has one of each
    vertical = [(b, a) for a in nats for b in nats if b.source is a.target]
    horizontal = [(b, a) for a in nats for b in nats if b.source.source is a.source.target]
    assert (len(vertical), len(horizontal)) == (17, 21)
    report = HoPrederivator(nerve(C, 3), s).check_two_functoriality()
    assert report.ok and report.checked == 595, report.violations[:3]


def plan_of(D, u):
    """The sample's restriction plans of u between D's exponentials."""
    return D.sample.restriction(u, *(D.data(end).frame for end in D.sample.ends(u)))


def kept_plans(sample, name: str) -> list:
    """The sample's memo of ``name``: each key with the identity of its plan."""
    return [(key, id(plan)) for key, plan in vars(sample)["memo." + name].items()]


def test_restriction_plans_are_built_once_per_sample():
    sample = standard_sample()
    D1, D2 = (HoPrederivator(Q, sample) for Q in (nerve(poset_simplex(1), 3),
                                                   nerve(group_z2(), 3)))
    for u in sample.functors.values():
        D1.on_functor(u)
    built = kept_plans(sample, "restriction")
    assert len(built) == len({(sample.ends(u), u.key()) for u in sample.functors.values()})
    # the second base builds none: it restricts through the first one's plans
    for u in sample.functors.values():
        D2.on_functor(u)
        assert plan_of(D2, u) is plan_of(D1, u)
    assert kept_plans(sample, "restriction") == built
    # a composite is a functor like any other: one more plan, for both bases
    ds = compose_functors(sample.functors["d1_[2]"], sample.functors["s0_[2]"])
    D1.on_functor(ds)
    D2.on_functor(ds)
    assert len(kept_plans(sample, "restriction")) == len(built) + 1
    # the same composite built again is the same key: one answer, one plan
    again = compose_functors(sample.functors["d1_[2]"], sample.functors["s0_[2]"])
    assert again is not ds and D1.on_functor(again) is D1.on_functor(ds)
    assert plan_of(D2, again) is plan_of(D1, ds)
    assert len(kept_plans(sample, "restriction")) == len(built) + 1
    # a fresh sample builds its own
    D3 = HoPrederivator(nerve(poset_simplex(1), 3), standard_sample())
    D3.on_functor(D3.sample.functors["d0_[2]"])
    mine, theirs = plan_of(D3, D3.sample.functors["d0_[2]"]), plan_of(D1, sample.functors["d0_[2]"])
    assert mine is not theirs and mine == theirs
    # and the sample frees them with itself; tuples take no weak references
    ref = weakref.ref(sample)
    del sample, D1, D2, theirs
    gc.collect()
    assert ref() is None


def test_on_nat_transports_are_built_once_per_sample():
    sample = standard_sample()
    D1, D2 = (HoPrederivator(Q, sample) for Q in (nerve(poset_simplex(1), 3),
                                                   nerve(group_z2(), 3)))

    def transport_of(D, alpha):
        return D.sample.transport(alpha, *(D.data(end).frame
                                           for end in D.sample.ends(alpha.source)))

    for alpha in sample.nats.values():
        D1.on_nat(alpha)
    built = kept_plans(sample, "transport")
    assert len(built) == len({(sample.ends(a.source), a.key()) for a in sample.nats.values()})
    # the second base builds none: its components gather through the first one's
    for alpha in sample.nats.values():
        D2.on_nat(alpha)
        assert transport_of(D2, alpha) is transport_of(D1, alpha)
    assert kept_plans(sample, "transport") == built
    # a fresh sample builds its own, equal one
    D3 = HoPrederivator(nerve(poset_simplex(1), 3), standard_sample())
    step = D3.sample.nats["step_[1]"]
    D3.on_nat(step)
    mine, theirs = transport_of(D3, step), transport_of(D1, sample.nats["step_[1]"])
    assert mine is not theirs and mine == theirs
    assert D3.on_nat(step).key() == D1.on_nat(sample.nats["step_[1]"]).key()
    # and the sample frees them with itself
    refs = [weakref.ref(D1.data(J).frame) for J in sample.order]
    del sample, D1, D2, built, theirs
    gc.collect()
    assert all(r() is None for r in refs)


def wide_restriction_mutant(base, shape: str) -> PatchedPrederivator:
    """``base`` with its value at ``shape`` cut down to the wide subcategory
    generated by the identities and the images of the listed restrictions
    into it, with their composites.  So every u* into the shape lands in
    the cut, and only the fullness of dia^{[1]} can see the morphisms cut."""
    C, s = base.eval(shape), base.sample
    keep = set(C.identities.values())
    for u in s.functors.values():
        if s.ends(u)[0] == shape != s.ends(u)[1]:
            keep.update(base.on_functor(u).images.values())
    grown = True
    while grown:
        composites = {h for (g, f), h in C.compose_table.items() if g in keep and f in keep}
        grown = not composites <= keep
        keep |= composites
    wide = FiniteCategory(C.objects, {m: C.morphisms[m] for m in keep},
                          {gf: h for gf, h in C.compose_table.items() if set(gf) <= keep},
                          C.identities, f"{C.name}|wide")
    return PatchedPrederivator(
        base, shape, wide,
        lambda big: Functor(wide, big.target, big.ob,
                            {m: big.mor[m] for m in wide.nonidentity()}, big.name),
        lambda big: Functor(big.source, wide, big.ob, big.mor, big.name),
        f"{base.name}/wide-{shape}")


# How each pinned Der5 case is built, given pytest's ``getfixturevalue``.
DER5_CASES = {
    "delta0": lambda get: get("d_point"),
    "N([1])": lambda get: get("d_interval"),
    "N([2])": lambda get: HoPrederivator(nerve(poset_simplex(2), 3), SAMPLE),
    "N(z2)": lambda get: get("d_z2"),
    "N(E)": lambda get: get("d_groupoid"),
    "N(d[2])": lambda get: HoPrederivator(nerve(boundary_two(), 3), SAMPLE),
    "Der1 mutant": lambda get: der1_mutation(get("d_interval")),
    "Der2 mutant": lambda get: der2_mutation(get("d_interval")),
    "Der5 mutant": lambda get: der5_mutation(get("d_interval")),
    "Der5' mutant": lambda get: der5prime_mutation(get("d_groupoid")),
}

# (checked, ok, violations) of Der5 and of Der5', as the two passes that
# checked them one axiom at a time reported them.
DER5_PINS = {
    "delta0": ((4, True, []), (4, True, [])),
    "N([1])": ((35, True, []), (35, True, [])),
    "N([2])": ((214, True, []), (214, True, [])),
    "N(z2)": ((146, True, []), (146, True, [])),
    "N(E)": ((292, True, []), (292, True, [])),
    "N(d[2])": ((241, True, []), (241, True, [])),
    "Der1 mutant": ((35, True, []), (35, True, [])),
    "Der2 mutant": ((35, True, []), (35, True, [])),
    "Der5 mutant": ((29, False, ["[1]: arrow 'c1_0' is not even isomorphic to a diagram image"]),
                    (29, False, ["[1]: arrow 'c1_0' of eval([1]) has no preimage diagram"])),
    "Der5' mutant": ((261, True, []),
                     (261, False, ["[1]: arrow 'c1_0' of eval([1]) has no preimage diagram"])),
}


class TestDerAudits:
    def test_axioms_hold_for_interval(self, d_interval):
        audits = der_audit(d_interval)
        for name, report in audits.items():
            assert report.ok, (name, report.violations[:2])

    def test_audit_of_the_interval_charges_the_recorded_total(self):
        # HO(N([1])) built and audited on one budget, as ``der-audit`` does;
        # a change of the searches' steps moves this total (10319 before a
        # source was searched one component at a time and the 2-horn check
        # charged one step per edge in place of one per pair)
        budget = Budget()
        der_audit(HoPrederivator(nerve(poset_simplex(1), 3), standard_sample(), budget), budget)
        assert budget.used == 9384

    def test_axioms_hold_for_point(self, d_point):
        audits = der_audit(d_point)
        assert all(r.ok for r in audits.values())

    def test_der1_empty_coproduct(self, d_point):
        report = check_der1(d_point)
        assert report.ok

    @pytest.mark.parametrize("Q", [Q for _, Q in corpus_quasicategories()],
                             ids=[name for name, _ in corpus_quasicategories()])
    def test_der1_holds_on_every_corpus_quasicategory(self, Q):
        # the theorem the Whitehead experiment reads in place of the
        # coproduct and empty shapes
        report = check_der1(HoPrederivator(Q, SAMPLE))
        assert report.ok and report.checked == 4, report.violations

    def test_der5_holds_on_nerves_of_small_categories(self):
        # every commutative square of Ho(N(C)) at [0] lifts to Ho(N(C)^{Δ1})
        for C, checks in [(poset_simplex(1), 35), (poset_simplex(2), 214), (group_z2(), 146)]:
            D = HoPrederivator(nerve(C, 3), SAMPLE)
            for report in check_der5(D):
                assert report.ok and report.checked == checks, (C.name, report.violations[:2])

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
        # so is the der2 mutant, which patches both ends of u* at its shape
        for mutant in (der2_mutation(d_interval), der5_mutation(d_interval),
                       der5prime_mutation(d_groupoid)):
            report = mutant.check_two_functoriality()
            assert report.ok and report.checked == 550, (mutant.name, report.violations[:3])

    def test_der2_mutant_of_a_point_nerve_is_no_two_functor(self):
        # at [1]x[1] HO(N([0])) is one object, so the mutant keeps the
        # idempotent under the identity u* of end0_[1] o proj_[1]
        report = der2_mutation(HoPrederivator(nerve(poset_simplex(0), 3), SAMPLE)) \
            .check_two_functoriality()
        assert not report.ok
        assert "composition end0_[1] o proj_[1] not respected" in report.violations

    def test_dia_arrow_shape(self, d_interval):
        src, arrow, ends = dia_arrow(d_interval, "[0]")
        CJ = d_interval.eval("[0]")
        assert src is d_interval.eval("[0]x[1]")
        assert set(arrow) == set(src.objects) and set(ends) == set(src.morphisms)
        for X in src.objects:
            assert arrow[X] in CJ.morphisms
        for m in src.nonidentity():
            p0, p1 = ends[m]
            assert p0 in CJ.morphisms and p1 in CJ.morphisms

    @pytest.mark.parametrize("case", sorted(DER5_PINS))
    def test_der5_reports_are_pinned(self, case, request):
        D = DER5_CASES[case](request.getfixturevalue)
        reports = check_der5(D)
        assert [(r.checked, r.ok, r.violations) for r in reports] == list(DER5_PINS[case])
        scope = f"{D.name} over standard (shapes: ['[0]', '[1]'])"
        assert [r.name for r in reports] == [f"Der5 for {scope}", f"Der5' for {scope}"]

    @pytest.mark.parametrize("C,kept", [(poset_simplex(1), 4), (group_z2(), 3)],
                             ids=["N([1])", "N(z2)"])
    def test_a_wide_subcategory_fails_fullness_only(self, C, kept):
        base = HoPrederivator(nerve(C, 3), SAMPLE)
        D = wide_restriction_mutant(base, "[0]x[1]")
        whole, wide = base.eval("[0]x[1]"), D.eval("[0]x[1]")
        assert wide.objects == whole.objects and len(wide.morphisms) == kept
        assert D.check_two_functoriality().ok
        audits = der_audit(D)
        assert [name for name, r in audits.items() if not r.ok] == ["Der5", "Der5'"]
        # fullness is one scan, so both reports carry the same squares
        assert audits["Der5"].violations == audits["Der5'"].violations
        assert ("[0]: square ('s0.c0_0', 'c1_0') from 'c0_0' to 'c0_1' has no lift"
                in audits["Der5"].violations)


class TestFullSubPrederivator:
    def test_keeping_everything_is_the_base(self, d_interval):
        C = d_interval.eval("[1]")
        D = full_sub_mutant(d_interval, "[1]", C.objects, "all")
        assert D.eval("[0]") is d_interval.eval("[0]")
        sub = D.eval("[1]")
        assert (sub.objects, sub.morphisms, sub.identities) == (C.objects, C.morphisms,
                                                                 C.identities)
        # restrictions out of, into and at the kept shape are the base's
        for name in ("vx_[1]_1", "![1]", "id_[1]"):
            u = SAMPLE.functors[name]
            assert D.on_functor(u).key() == d_interval.on_functor(u).key(), name

    def test_value_is_the_full_subcategory(self, d_interval):
        C = d_interval.eval("[1]")
        keep = list(C.objects[:2])
        sub = full_sub_mutant(d_interval, "[1]", keep, "sub").eval("[1]")
        assert sub.objects == tuple(sorted(keep))
        assert all(sub.hom(a, b) == C.hom(a, b) for a in keep for b in keep)

    def test_restriction_leaving_the_kept_objects_is_an_error(self, d_interval):
        u = SAMPLE.functors["vx_[1]_1"]
        hit = sorted(set(d_interval.on_functor(u).ob.values()))
        assert len(hit) == 2  # the constant diagrams at 0 and at 1
        D = full_sub_mutant(d_interval, "[0]", hit[:1], "sub")
        with pytest.raises(ValueError, match="vx_"):
            D.on_functor(u)
        # a restriction out of the kept objects is fine
        assert D.on_functor(SAMPLE.functors["![1]"]).validate().ok


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
        R = nerve(boundary_two(), 3)
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

    def test_enumeration_steps(self, d_point, d_interval, d_z2):
        # the steps of the search alone: the prederivators charge their own budgets
        for D1, D2, count, steps in [(d_point, d_interval, 2, 468), (d_z2, d_z2, 2, 1771)]:
            budget = Budget()
            assert len(enumerate_strict_morphisms(D1, D2, budget)) == count
            assert budget.used == steps

    def test_rigidity_steps_over_the_audit_bases(self):
        # every HO value first, so each budget holds the search's steps alone
        sample = standard_sample()
        bases = [HoPrederivator(Q, sample) for Q in (
            standard_simplex(0, 2), nerve(poset_simplex(1), 3), nerve(poset_simplex(2), 3),
            nerve(group_z2(), 3))]
        for D in bases:
            for J in sample.order:
                D.eval(J)
        found = []
        for D1 in bases:
            for D2 in bases:
                budget = Budget()
                report = strict_rigidity_check(D1, D2, budget)
                assert report.ok, (D1.name, D2.name)
                found.append((budget.used, report.enumerated))
        assert found == list(zip(
            [68, 468, 1968, 206, 225, 1173, 4878, 734,
             1460, 6503, 20476, 6570, 714, 1760, 3906, 1771],
            [1, 2, 3, 1, 1, 3, 6, 2, 1, 4, 10, 4, 1, 2, 3, 2]))
        assert sum(used for used, _ in found) == 52880

    def test_a_pin_on_an_identity_cuts_its_object(self, d_z2):
        # D1's ![1]* sends the generator of HO(N(z2))([0]) = z2 to an
        # identity, so a component at [0] that keeps the generator leaves
        # no component at [1]: its square would need F(identity) = const g
        point = d_z2.eval("[0]")

        def collapse(big):
            if big.source is not point:
                return big
            return Functor(big.source, big.target, big.ob,
                           {m: big.target.identities[big.ob[big.source.dom(m)]]
                            for m in big.mor}, big.name)

        D1 = PatchedPrederivator(d_z2, "[1]", d_z2.eval("[1]"), lambda big: big, collapse,
                                 "collapsed")
        ustar = D1.on_functor(SAMPLE.functors["![1]"])
        assert all(D1.eval("[1]").is_identity(m) for m in ustar.images.values())
        morphisms = enumerate_strict_morphisms(D1, d_z2)
        assert [F.at("[0]").mor for F in morphisms] == [{"c1_0": "s0.c0_0"}]
        assert all(check_strict(F).ok for F in morphisms)

    def test_a_listed_endofunctor_is_checked(self):
        # no pool can say F . c0* = c0* . F; of the three functors from the
        # point HO(Δ⁰)([1]) into Fun([1], [1]), the constant ones commute
        s = DiaSample("loop")
        p1 = s.add_category("[1]", poset_simplex(1))
        s.add_functor("id_[1]", identity_functor(p1))
        s.add_functor("c0", monotone_functor(p1, p1, (0, 0), "c0"))
        D1, D2 = (HoPrederivator(Q, s) for Q in (standard_simplex(0, 2), nerve(p1, 3)))
        assert len(enumerate_functors(D1.eval("[1]"), D2.eval("[1]"))) == 3
        morphisms = enumerate_strict_morphisms(D1, D2)
        assert len(morphisms) == 2 and all(check_strict(F).ok for F in morphisms)

    def test_pools_are_met_key_by_key(self):
        # a pin holds the one value its key is paired with, none on a clash
        pins = _pins(["x", "y", "x", "z", "z"], [1, 2, 1, 3, 4])
        assert pins == {"x": {1}, "y": {2}, "z": set()}
        pools = {"x": {1, 2}, "w": {5}}
        _meet(pools, pins)
        assert pools == {"x": {1}, "y": {2}, "z": set(), "w": {5}}

    def test_fibres_are_kept_for_equal_restriction_tuples(self, d_interval):
        us = tuple(d_interval.on_functor(SAMPLE.functors[f"vx_[1]_{x}"]) for x in "01")
        copies = tuple(Functor(u.source, u.target, u.ob, u.mor, "copy") for u in us)
        assert copies == us and copies[0] is not us[0]
        assert _fibres(d_interval, copies) is _fibres(d_interval, us)

    def test_all_enumerated_are_strict(self, d_point, d_interval):
        for F in enumerate_strict_morphisms(d_point, d_interval):
            assert check_strict(F).ok

    def test_rigidity(self, d_point, d_interval):
        for D1, D2 in [(d_point, d_point), (d_point, d_interval),
                       (d_interval, d_point)]:
            report = strict_rigidity_check(D1, D2)
            assert report.ok, report.violations[:2]

    def test_mixed_components_detected(self, d_point, d_interval):
        # the two vertices of N([1]) give two strict morphisms; taking the
        # second one's components but the first one's at [0] is not strict
        F0, F1 = enumerate_strict_morphisms(d_point, d_interval)
        mixed = StrictMorphism(d_point, d_interval, {**F1.components, "[0]": F0.at("[0]")})
        report = check_strict(mixed)
        assert not report.ok
        assert "component square at functor ![0]+[0] does not commute" in report.violations

    def test_components_agreeing_on_objects_only_are_detected(self, d_z2):
        # HO(N(z2))([0]) is z2: the identity and the collapse of HO(N(z2))
        # agree there on the one object and differ on the morphism
        identity, collapse = enumerate_strict_morphisms(d_z2, d_z2)
        assert identity.at("[0]").ob == collapse.at("[0]").ob
        mixed = StrictMorphism(d_z2, d_z2, {**identity.components, "[0]": collapse.at("[0]")})
        report = check_strict(mixed)
        assert "component square at functor ![1] does not commute" in report.violations
        assert not check_strict(collapse).violations


class TestModifications:
    def test_identity_modification(self, d_interval):
        F = identity_strict(d_interval)
        Xi = Modification(F, F, {j: identity_nat(F.at(j)) for j in SAMPLE.order})
        assert check_modification(Xi).ok

    def test_components_over_copies_are_rejected(self, d_point):
        # a copy of a shape's value has its tables but is another category,
        # so the identity 2-cell of its identity has the wrong endpoints
        F = identity_strict(d_point)
        genuine = {j: identity_nat(F.at(j)) for j in SAMPLE.order}
        assert check_modification(Modification(F, F, genuine)).ok
        copies = {}
        for j in SAMPLE.order:
            C = d_point.eval(j)
            twin = FiniteCategory(C.objects, C.morphisms, C.compose_table, C.identities, C.name)
            copies[j] = identity_nat(identity_functor(twin))
            assert copies[j].key() == genuine[j].key() and copies[j].source != F.at(j)
        report = check_modification(Modification(F, F, copies))
        assert report.violations == [f"component at {j} has wrong endpoints" for j in SAMPLE.order]

    def test_swapped_component_detected(self):
        # HO(N(z2))([0]) is z2, so its identity functor has two natural
        # endomorphisms; the non-identity one alone at [0] is not compatible
        D = HoPrederivator(nerve(group_z2(), 3), SAMPLE)
        F = identity_strict(D)
        comps = {j: identity_nat(F.at(j)) for j in SAMPLE.order}
        report = check_modification(Modification(F, F, comps))
        assert report.ok and report.checked == 237, report.violations[:2]
        others = [a for a in enumerate_nats(F.at("[0]"), F.at("[0]"))
                  if a.key() != comps["[0]"].key()]
        assert len(others) == 1
        comps["[0]"] = others[0]
        report = check_modification(Modification(F, F, comps))
        assert not report.ok
        assert all("compatibility square" in v for v in report.violations)
