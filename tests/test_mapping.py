"""Exponentials, mapping spaces, the Kan check, and inner horn filling."""

import gc
import hashlib
import re
import weakref

import pytest

from qcatkit.cats import (
    boundary_two,
    contractible_groupoid,
    coproduct_cat,
    group_z2,
    poset_simplex,
    product_cat,
    validate_category,
)
from qcatkit.mapping import (
    ExactnessError,
    Exponential,
    coded_gather,
    full_degeneracy,
    induced_functor,
    kan_check,
    mapping_space,
    path_object,
)
from qcatkit.nerve import ho, is_quasicategory, nerve
from qcatkit.prederivator import HoPrederivator, standard_sample
from qcatkit.simplicial import (
    SimplexExpr,
    compose_maps,
    delta_map,
    empty_sset,
    enumerate_maps,
    extensions,
    horn,
    product,
    sset_from_text,
    sset_to_text,
    standard_simplex,
)
from qcatkit.util import Budget, UnionFind


def assert_matches_direct_search(E):
    """Every level of E is the direct search over S x Δn -> T, in order, and
    the cells and faces are those of the direct construction (pinning no
    vertex keeps to the direct search)."""
    for n in range(E.k + 1):
        direct = enumerate_maps(E.products[n], E.T_t)
        located = [E.locate(f) for f in direct]
        assert E.sset.total_count(n) == len(direct)
        nondeg = [e.base for e in located if not e.word]
        assert nondeg == [f"c{n}_{i}" for i in range(len(E.sset.nondeg(n)))]
    D = Exponential(E.base, E.exponent, E.k, pinned={})
    assert sset_to_text(E.sset) == sset_to_text(D.sset)
    assert E.to_expr == D.to_expr


def shape_map(E, alpha, m, n):
    """id x alpha: S x Δm -> S x Δn for a monotone alpha: [m] -> [n]."""
    Pm, Pn = E.products[m], E.products[n]
    dm = delta_map(alpha, m, n, max(m, n, 2))
    return Pm.map_pairs(Pn, lambda e1, e2: Pn.pair_expr(e1, dm.apply(e2)))


def assert_structure_matches_shape_maps(E):
    """Faces and degeneracies of E are those the shape maps id x δi and
    id x σj induce, composed cell by cell; ``map_of`` agrees."""
    maps = {}
    for n in range(E.k + 1):
        deltas = [shape_map(E, tuple(t for t in range(n + 1) if t != i), n - 1, n)
                  for i in range(n + 1)] if n else []
        sigmas = [shape_map(E, tuple(t if t <= j else t - 1 for t in range(n + 1)), n, n - 1)
                  for j in range(n)]
        for e in E.sset.total(n):
            if e.word:
                # e = s_j of the cell its other letters name
                maps[e] = compose_maps(maps[SimplexExpr(e.word[1:], e.base)], sigmas[e.word[0]])
                assert E.locate(maps[e]) == e
                assert E.map_of(e) == maps[e]
                continue
            maps[e] = E.map_of(e)
            for i, delta in enumerate(deltas):
                assert E.sset.faces[(e.base, i)] == E.locate(compose_maps(maps[e], delta))


class TestExponential:
    def test_unit_exponent(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, standard_simplex(0, 2), 2)
        # maps from delta0 x deltan are n-simplices: recover N([1])
        assert [len(E.sset.nondeg(n)) for n in range(3)] == [2, 1, 0]
        assert E.sset.validate().ok

    def test_interval_into_interval(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, standard_simplex(1, 2), 2)
        # level 0: maps delta1 -> N[1], one per total 1-simplex: 3 objects
        assert len(E.sset.nondeg(0)) == 3
        assert E.sset.validate().ok
        assert is_quasicategory(E.sset).ok

    def test_empty_exponent_gives_terminal(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, empty_sset(), 2)
        assert [E.sset.total_count(n) for n in range(3)] == [1, 1, 1]
        assert len(E.sset.nondeg(0)) == 1
        assert not E.sset.nondeg(1) and not E.sset.nondeg(2)

    def test_levels_match_direct_enumeration(self):
        # definitional cross-check against an independent enumerator
        n1 = nerve(poset_simplex(1), 3)
        S = standard_simplex(1, 2)
        E = Exponential(n1, S, 2)
        for n in range(3):
            P = product(S, standard_simplex(n, max(2, n)))
            direct = enumerate_maps(P, n1.truncate(2))
            assert E.sset.total_count(n) == len(direct)

    def test_cell_ids_follow_the_assignment_order(self):
        # c{n}_{i} is the i-th nondegenerate map in the order of the maps'
        # sorted (cell id, image) pairs
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, n1, 2)
        for n in range(3):
            direct = enumerate_maps(E.products[n], E.T_t)
            nondeg = sorted((f for f in direct if not E.locate(f).word),
                            key=lambda f: tuple(sorted(f.assignment.items())))
            assert len(E.sset.nondeg(n)) == len(nondeg) > 0
            assert [E.map_of(SimplexExpr((), f"c{n}_{i}")) for i in range(len(nondeg))] == nondeg

    def test_curried_levels_match_direct_enumeration(self):
        # [1]+[1] and [1]x[1] have more vertices than Δ2 and go through T^{Δn};
        # the other shapes keep to the direct search
        sample = standard_sample()
        bases = [standard_simplex(0, 2), nerve(poset_simplex(1), 3),
                 nerve(contractible_groupoid(), 3), nerve(group_z2(), 3),
                 nerve(poset_simplex(2), 3)]
        for T in bases:
            for J in sorted(sample.categories):
                assert_matches_direct_search(Exponential(T, nerve(sample.cat(J), 2), 2))

    def test_curried_level_three_and_empty_exponent(self):
        # at level 3 the path object T^{Δ3} is itself curried through T^{Δ1}, T^{Δ2}
        n1 = nerve(poset_simplex(1), 3)
        p1 = poset_simplex(1)
        assert_matches_direct_search(Exponential(n1, nerve(product_cat(p1, poset_simplex(1)), 3), 3))
        assert_matches_direct_search(Exponential(n1, nerve(coproduct_cat(p1, p1), 3), 3))
        assert_matches_direct_search(Exponential(n1, n1, 3))
        assert_matches_direct_search(Exponential(nerve(group_z2(), 3), nerve(poset_simplex(1), 2), 3))
        assert_matches_direct_search(Exponential(n1, empty_sset(), 2))

    def test_exponents_with_few_vertices_skip_the_path_object(self):
        # at most as many vertices as Δ2: simplices up to relabelling, a group,
        # the free boundary, a coproduct, the empty exponent; the direct
        # search's steps, and no path object is built
        p1 = poset_simplex(1)
        few = [nerve(p1, 3), nerve(group_z2(), 3), nerve(poset_simplex(2), 3),
               nerve(boundary_two(), 3), nerve(coproduct_cat(p1, poset_simplex(0)), 3),
               empty_sset()]
        cases = [(nerve(poset_simplex(1), 3), S, k) for S in few for k in (2, 3)]
        cases.append((nerve(contractible_groupoid(), 3), nerve(p1, 3), 3))
        for T, S, k in cases:
            used, direct = Budget(), Budget()
            Exponential(T, S, k, used)
            assert T._path_objects == {}
            Exponential(T, S, k, direct, pinned={})
            assert used.used == direct.used
        T = nerve(contractible_groupoid(), 3)
        Exponential(T, nerve(product_cat(p1, poset_simplex(1)), 2), 2)
        assert set(T._path_objects) == {(1, 2), (2, 2)}

    def test_path_object_hits_charge_what_the_miss_charged(self):
        T = nerve(poset_simplex(1), 3)
        S = nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2)
        cold, warm = Budget(), Budget()
        Exponential(T, S, 2, cold)
        Exponential(T, S, 2, warm)
        assert warm.used == cold.used > 0
        # a cache warmed by another exponent changes nothing either
        S2 = nerve(product_cat(poset_simplex(1), poset_simplex(1)), 2)
        fresh, rewarmed = Budget(), Budget()
        Exponential(nerve(poset_simplex(1), 3), S2, 2, fresh)
        Exponential(T, S2, 2, rewarmed)
        assert rewarmed.used == fresh.used > 0
        first, again = Budget(), Budget()
        P = path_object(T, standard_simplex(2, 2), 2, first)
        assert path_object(T, standard_simplex(2, 2), 2, again) is P and again.used == first.used

    def test_dropped_base_frees_its_path_objects(self):
        T = nerve(poset_simplex(1), 3)
        Exponential(T, nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2), 2)
        refs = [weakref.ref(path_object(T, standard_simplex(n, 2), 2, Budget())) for n in (1, 2)]
        del T
        gc.collect()
        assert all(r() is None for r in refs)

    def test_exponentials_of_a_base_share_its_truncation(self):
        T = nerve(poset_simplex(1), 3)
        S = nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2)
        first, second = Budget(), Budget()
        E1 = Exponential(T, S, 2, first)
        E2 = Exponential(T, nerve(poset_simplex(2), 2), 2)
        again = Exponential(T, S, 2, second)
        assert E1.T_t is E2.T_t is again.T_t is T.truncate(2)
        # steps as recorded before the truncation was kept
        assert first.used == second.used == 4181
        ref = weakref.ref(E1.T_t)
        del T, E1, E2, again
        gc.collect()
        assert ref() is None

    def test_cell_maps_decode_without_the_exponential(self):
        E = Exponential(nerve(group_z2(), 3), nerve(poset_simplex(1), 2), 2)
        assert sorted(E.cell_codes) == sorted(x for n in range(3) for x in E.sset.nondeg(n))
        mu, vertex = (E.map_of(SimplexExpr((), cid)) for cid in ("c1_0", "c0_0"))
        assert mu.images == E.cell_codes["c1_0"][1] and E.locate(mu) == SimplexExpr((), "c1_0")
        ref = weakref.ref(E)
        del E
        gc.collect()
        # the maps hold the product and the truncated base, not the exponential,
        # and decode only now
        assert ref() is None and "assignment" not in vars(vertex) and vertex.validate().ok
        with pytest.raises(KeyError):
            Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2).locate(mu)

    def test_ids_and_ho_match_the_digests_recorded_before_the_codes(self):
        # sset_to_text of every level and Ho's canonical key, over the sample
        sample = standard_sample()
        recorded = {
            "delta0": ("eaa74c75030f8b3b35d06c30ed01cd136d6b3b7bf94b5f0e36a862b1678c8dc4",
                       "46c7efe859fc78acf757b01271f35ac49494737208247c996850d861877dfe56"),
            "N([1])": ("60cf6b79ffbea1af5700548aed73c89fb6ebb2204c814ca17f174a6a44ca05ae",
                       "01f3248889901fb2e6b2dd28d6b035d14e9ef262344a37dbe0ff5fa68dd8812a"),
            "N(E)": ("25c563e7cb4ba4014e943a3b6270bf6f311011613a3419ca0de9ddef1829eb22",
                     "d0266f97c70727202c02678e311a421333c42e865e577219f99373fc4c4055b8"),
            "N(z2)": ("ab05ed68699d37af75f456df4fff9a17ef9ef24d81c21357cf902192d7a42b53",
                      "8bfcc7d7b3b3539ee977e1ab180920fd668042a3fb7862573c084d4559d5ae44"),
        }
        bases = {"delta0": standard_simplex(0, 2), "N([1])": nerve(poset_simplex(1), 3),
                 "N(E)": nerve(contractible_groupoid(), 3), "N(z2)": nerve(group_z2(), 3)}
        for name, T in bases.items():
            exps = [Exponential(T, nerve(sample.cat(J), 2), 2) for J in sample.order]
            texts = "".join(sset_to_text(E.sset) for E in exps)
            keys = "\n".join(repr(E.ho.category.canonical_key()) for E in exps)
            assert (hashlib.sha256(texts.encode()).hexdigest(),
                    hashlib.sha256(keys.encode()).hexdigest()) == recorded[name], name

    def test_path_objects_are_built_over_the_frames_simplices(self):
        S = nerve(product_cat(poset_simplex(1), poset_simplex(1)), 2)
        bases = [nerve(poset_simplex(1), 3), nerve(contractible_groupoid(), 3)]
        frame = Exponential(bases[0], S, 2).frame
        assert Exponential(bases[1], S, 2).frame is frame
        for n in (1, 2):
            paths = [T._path_objects[(n, 2)][0] for T in bases]
            assert all(P.exponent is frame.products[n].right for P in paths)
            assert paths[0].frame is paths[1].frame

    def test_structure_matches_the_shape_maps(self):
        sample = standard_sample()
        bases = [nerve(poset_simplex(1), 3), nerve(contractible_groupoid(), 3),
                 nerve(group_z2(), 3)]
        for T in bases:
            for J in ("[1]x[1]", "d[2]", "[1]+[1]"):
                assert_structure_matches_shape_maps(Exponential(T, nerve(sample.cat(J), 2), 2))
        assert_structure_matches_shape_maps(mapping_space(bases[1], "a", "b"))
        assert_structure_matches_shape_maps(Exponential(bases[0], bases[0], 3))

    def test_induced_functor_rejects_an_image_that_is_not_a_cell(self):
        E = Exponential(nerve(poset_simplex(1), 3), nerve(poset_simplex(1), 2), 2)
        # codes past the end of every level table name no simplex at all
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            induced_functor(E, E, lambda codes, level: tuple(c + 1000 for c in codes), "bad")
        # the objects go through, the morphisms do not
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            induced_functor(E, E, lambda codes, level: tuple(c + 1000 * level for c in codes),
                            "bad")
        assert induced_functor(E, E, lambda codes, level: codes, "id").validate().ok

    def test_locate_keeps_the_levels_of_the_empty_exponent_apart(self):
        # every level has one map, with the empty image tuple
        E = Exponential(nerve(poset_simplex(1), 3), empty_sset(), 2)
        for n in range(3):
            (e,) = E.sset.total(n)
            assert E.locate(E.map_of(e)) == e
            assert E.map_of(e).images == ()

    def test_exponents_share_one_frame(self):
        sample = standard_sample()
        bases = [nerve(poset_simplex(1), 3), nerve(group_z2(), 3)]
        D1, D2 = (HoPrederivator(Q, sample) for Q in bases)
        for J in sample.order:
            assert D1.data(J).products is D2.data(J).products
            for D, Q in zip((D1, D2), bases):
                fresh = Exponential(Q, nerve(sample.cat(J), 2), 2)
                assert fresh.products is not D.data(J).products
                assert fresh.ho.category.canonical_key() == D.eval(J).canonical_key()
        q = nerve(contractible_groupoid(), 3)
        spaces = [mapping_space(q, x, y) for x in ("a", "b") for y in ("a", "b")]
        assert all(M.exponent is q.interval and M.frame is spaces[0].frame for M in spaces)

    def test_exactness_gate(self):
        no_cert = horn(2, 1, 2)
        with pytest.raises(ExactnessError):
            Exponential(no_cert, standard_simplex(0, 2), 2)

    def test_ho_is_built_once_on_the_construction_budget(self):
        budget = Budget()
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2, budget)
        built = budget.used
        pres = E.ho
        first = budget.used - built
        assert E.ho is pres and budget.used - built == first
        check = Budget()
        assert is_quasicategory(E.sset, check).ok
        assert first == check.used > 0
        assert pres.category.objects == ho(E.sset).category.objects

    def test_face_and_degeneracy_structure(self):
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2)
        assert is_quasicategory(E.sset).ok
        pres = ho(E.sset)
        assert validate_category(pres.category).ok
        # Ho of the exponential is the arrow category of [1]: 3 objects
        assert len(pres.category.objects) == 3


# two parallel edges f, g: x -> y and a 2-simplex making them homotopic,
# so that Ho and the exponentials over it have classes of more than one edge
HOMOTOPIC_PAIR = ("dim 2\ncoskeletal 2\n0: x y\n1: f g\n2: h\n"
                  "face f 0 = [] y\nface f 1 = [] x\nface g 0 = [] y\nface g 1 = [] x\n"
                  "face h 0 = [s0] y\nface h 1 = [] g\nface h 2 = [] f\n")


class TestHoTables:
    def test_class_tables_are_the_classes_of_the_cells(self):
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        D = HoPrederivator(Q, standard_sample())
        sizes = []
        for J in ("[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]"):
            E = D.data(J)
            assert len(E.ho_morphisms) == E.sset.total_count(1)
            for key, e in E.to_expr[1].items():
                assert E.ho_morphisms[key] == E.ho.cls(e) == E.ho_morphism(key)
            assert E.ho_reps == {m: E.codes_of(r) for m, r in E.ho.reps.items()}
            assert sorted(E.ho_reps) == sorted(E.ho.category.morphisms)
            sizes.append((len(E.ho_morphisms), len(E.ho.category.morphisms)))
        assert sizes == [(4, 3), (15, 10), (41, 27), (15, 10), (149, 99)]
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            E.ho_morphism(E.ho_reps[sorted(E.ho_reps)[0]][:-1])

    def test_ho_keeps_the_class_of_every_code(self):
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        pres, edges = ho(Q), Q.table(1)
        assert pres.classes == [pres.cls(e) for e in edges.cells]
        assert pres.classes[edges.code[SimplexExpr((), "g")]] == "f"
        assert pres.reps == {m: edges.cells[c] for m, c in pres.rep_codes.items()}
        assert list(pres.class_map) == [e.token() for e in Q.total(1)]
        assert pres.category.morphisms == {"f": ("x", "y"), "s0.x": ("x", "x"),
                                           "s0.y": ("y", "y")}

    def test_transports_read_the_class_tables(self):
        # u* against the rule that locates each restricted representative
        # and asks Ho for the class of its cell by token
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        sample = standard_sample()
        D = HoPrederivator(Q, sample)
        shapes = {"[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]"}
        checked = []
        for name, u in sorted(sample.functors.items()):
            src, dst = sample.ends(u)
            if src not in shapes or dst not in shapes:
                continue
            dj, dk = D.data(src), D.data(dst)
            plan = sample.restriction(u, dj, dk).plans[1]
            restrict = coded_gather(plan, dj.products[1], dj.T_t)
            F = D.on_functor(u)
            for m in dk.ho.category.nonidentity():
                e = dj.expr_at(1, restrict(dk.codes_of(dk.ho.reps[m])))
                assert F.on_morphism(m) == dj.ho.cls(e), (name, m)
            checked.append(name)
        assert len(checked) == 32


def pi0(sset):
    """Oracle: path components of a truncated simplicial set."""
    uf = UnionFind(sset.nondeg(0))
    for e in sset.nondeg(1):
        a, b = sset.edge_endpoints(SimplexExpr((), e))
        uf.union(a, b)
    return len({v for v in uf.classes().values()})


class TestMappingSpace:
    def test_pi0_matches_hom_set(self):
        q = nerve(poset_simplex(1), 3)
        for x, y, expected in [("0", "1", 1), ("1", "0", 0), ("0", "0", 1)]:
            M = mapping_space(q, x, y)
            count = pi0(M.sset) if M.sset.nondeg(0) else 0
            assert count == expected, (x, y)

    def test_point_in_endo_space(self):
        q = nerve(poset_simplex(1), 3)
        M = mapping_space(q, "0", "0")
        assert len(M.sset.nondeg(0)) >= 1

    def test_group_mapping_space_components(self):
        q = nerve(group_z2(), 3)
        M = mapping_space(q, "*", "*")
        assert pi0(M.sset) == 2

    def test_kan_report(self):
        q = nerve(contractible_groupoid(), 3)
        M = mapping_space(q, "a", "b")
        assert isinstance(M, Exponential) and M.name == f"{q.name}(a,b)"
        assert kan_check(M.sset).ok

    def test_kan_check_of_group_nerve(self):
        report = kan_check(nerve(group_z2(), 3))
        assert report.ok and report.horns_checked == 46
        # a 1-horn is the vertex *, filled by the degenerate edge and by g
        assert report.by_horn[(1, 0)] == (1, False)
        assert not report.unique_fillers

    def test_kan_check_charges_the_indexed_fillers(self):
        # each of the 46 horns: its shell search, one step per n-simplex of the
        # nerve and one per horn map; no search of Δⁿ pinned to a horn map
        budget = Budget()
        report = kan_check(nerve(group_z2(), 3), budget)
        assert report.horns_checked == 46 and budget.used == 902

    def test_kan_check_names_the_unfilled_outer_horn(self):
        report = kan_check(nerve(poset_simplex(1), 3))
        assert not report.ok and report.horns_checked == 38
        assert report.witness == ("horn(2,0) {'0': '0', '01': 'm01', '02': 's0.0', "
                                  "'1': '1', '2': '0'}")

    def test_cells_are_the_maps_with_pinned_ends(self):
        q = nerve(contractible_groupoid(), 3)
        M = mapping_space(q, "a", "b")
        whole = Exponential(q, standard_simplex(1, 2), 2)
        pins = {"0": "a", "1": "b"}
        for n in range(3):
            for cid in M.sset.nondeg(n):
                mu = M.map_of(SimplexExpr((), cid))
                for pid, (e1, _) in M.products[n].pair_of.items():
                    if e1.base in pins:
                        assert mu.assignment[pid] == SimplexExpr(
                            full_degeneracy(len(e1.word)), pins[e1.base])
            # the same count as the cells of the whole exponential with these ends
            ends = [e for e in whole.sset.total(n)
                    if all(whole.evaluate_at_vertex(whole.map_of(e), v, n)
                           == SimplexExpr(full_degeneracy(n), x) for v, x in pins.items())]
            assert len(ends) == len(M.sset.total(n)) > 0

    def test_nerve_mapping_space_ho_is_discrete(self):
        q = nerve(poset_simplex(2), 3)
        M = mapping_space(q, "0", "2")
        pres = ho(M.sset)
        assert not pres.category.nonidentity()


class TestHornFilling:
    """Inner horns through ``extensions``, the one horn-filling path."""

    def test_nerve_fillers_unique(self):
        for cat in [poset_simplex(2), boundary_two(), group_z2(), contractible_groupoid()]:
            q = nerve(cat, 3)
            for n in (2, 3):
                for i in range(1, n):
                    found = list(extensions(horn(n, i, 2), n, q, None))
                    assert found and all(len(fillers) == 1 for _, fillers in found), cat.name

    def test_degenerate_horn_filling(self):
        q = nerve(poset_simplex(1), 3)
        s0x = SimplexExpr((0,), "0")
        (fillers,) = [fillers for h, fillers in extensions(horn(2, 1, 2), 2, q, None)
                      if h.assignment["01"] == h.assignment["12"] == s0x]
        assert [f.assignment["012"] for f in fillers] == [SimplexExpr((1, 0), "0")]

    def test_filler_face_is_ho_composite(self):
        q = nerve(boundary_two(), 3)
        pres = ho(q)
        checked = 0
        for h, fillers in extensions(horn(2, 1, 2), 2, q, None):
            composite = pres.category.compose(pres.cls(h.assignment["12"]),
                                              pres.cls(h.assignment["01"]))
            for filler in fillers:
                assert pres.cls(q.face(filler.assignment["012"], 1)) == composite
                checked += 1
        assert checked == q.total_count(2)
