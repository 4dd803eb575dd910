"""Categories of simplices, last-vertex projections, marked-class checks."""

import hashlib

import pytest

import qcatkit.prederivator as prederivator
from qcatkit.cats import (
    boundary_two,
    contractible_groupoid,
    enumerate_functors,
    group_z2,
    poset_simplex,
    validate_category,
)
from qcatkit.corpus import corpus_quasicategories
from qcatkit.delocalization import (
    SimplexCategory,
    check_inverts_L,
    last_vertex_image,
    last_vertex_projection,
    marked_closure_report,
    projected_edge,
)
from qcatkit.nerve import ho, nerve
from qcatkit.prederivator import kan_extension_value
from qcatkit.simplicial import SimplexExpr, standard_simplex
from qcatkit.util import Budget


class TestSimplexCategory:
    def test_point_at_depth_one(self):
        sc = SimplexCategory(standard_simplex(0, 2), 1)
        assert len(sc.category.objects) == 2  # the vertex and its degeneracy
        assert validate_category(sc.category).ok
        # marked exactly when the last vertex goes to the last vertex
        for mid in sc.category.morphisms:
            assert (mid in sc.marked) == sc._is_last_vertex(mid)

    def test_interval_counts(self):
        d1 = standard_simplex(1, 3)
        sc0 = SimplexCategory(d1, 0)
        assert len(sc0.category.objects) == 2
        sc1 = SimplexCategory(d1, 1)
        assert len(sc1.category.objects) == 5  # 2 vertices + 3 one-simplices

    def test_depth_beyond_truncation_rejected(self):
        with pytest.raises(ValueError):
            SimplexCategory(standard_simplex(1, 2), 3)

    def test_category_validates(self):
        for S in [standard_simplex(1, 3), nerve(group_z2(), 3)]:
            sc = SimplexCategory(S, 2)
            assert validate_category(sc.category).ok, S.name

    def test_marked_closure(self):
        for S in [standard_simplex(1, 3), nerve(poset_simplex(2), 3)]:
            sc = SimplexCategory(S, 2)
            report = marked_closure_report(sc)
            assert report.ok, report.violations[:2]


    def test_functors_out_of_the_category_of_simplices(self):
        # the searches of the localization check at depth 2: the counts, and
        # the steps of the search that branches only on generators
        sc = SimplexCategory(nerve(poset_simplex(1), 3), 2).category
        for C, count, steps in [(group_z2(), 256, 67541), (contractible_groupoid(), 512, 98350)]:
            budget = Budget()
            assert len(enumerate_functors(sc, C, budget)) == count
            assert budget.used == steps

# sha256 of repr(list(morphisms.items())) and of repr(sorted(marked)) at
# depth 2, recorded before the sources were read off the level tables
MORPHISM_DIGESTS = {
    "N([1])": ("33be39ae6ed234227a5331fd38b0a82e00fd2e713ab7c7165ea9c76898e1e2cf",
               "f13a39dbbce84996daf2b169582f3f7f29d016e8a371d2cf554ff0eb254be6e8"),
    "N(z2)": ("611763b3adad6fcf9b479455c3fa06e1302871fdd8a5811f96e4948e52b8d23b",
              "ec950ef3e1b0741aa99d10bc706329fdd823ce2d7a2a077190740b5c0286538a"),
    "N(E)": ("ad477c311d1e66744a0cfcfb76fbc3b19187cd549600918554dcb1d3d8cb8458",
             "e1443afdff9ab29448c59de19ec5b857d9a033fe036b8217f3aeddb283784014"),
}


def test_morphisms_and_marked_as_recorded():
    for name, C in (("N([1])", poset_simplex(1)), ("N(z2)", group_z2()),
                    ("N(E)", contractible_groupoid())):
        sc = SimplexCategory(nerve(C, 3), 2)
        got = tuple(hashlib.sha256(repr(x).encode()).hexdigest()
                    for x in (list(sc.morphisms.items()), sorted(sc.marked)))
        assert got == MORPHISM_DIGESTS[name], name


# the first 16 hex digits of the sha256 of repr(category.canonical_key()) at
# depths 1 and 2: composing on first read must give the table, ids included,
# that composing every pair on construction gave
CANONICAL_DIGESTS = {
    "delta0": ("5374add15802211a", "b7ce33bfa84208cf"),
    "N([0])": ("5374add15802211a", "b7ce33bfa84208cf"),
    "N([1])": ("ab0c7788cc80cab3", "220c84e606bc0184"),
    "N([2])": ("4c4824caffeb8867", "843b487214b1eb10"),
    "N([3])": ("67475c61ff31f0f2", "d81fa82ad8ba82a0"),
    "N([1]x[1])": ("587aae1d36315df7", "9e2fadbf95289541"),
    "N(d[2])": ("7339872ccd18e509", "f10fc2ef36531035"),
    "N(z2)": ("2c637da9c3c11bd7", "a1d039d0209e6ade"),
    "N(E)": ("b16f705031cd9e88", "608834ea9457dccb"),
    "delta1xdelta1": ("8db62c1ed1ce0fc5", "f99528719731fa58"),
    "N([1])xN([1])": ("3a138a75b05dee25", "e456e0145fbe77d1"),
    "N([1])xN(z2)": ("f65bb1a440a1030c", "e94629f9a9b14b28"),
}
KANEXT_TARGETS = [poset_simplex(1), poset_simplex(2), group_z2(),
                  contractible_groupoid(), boundary_two()]


class TestLazyComposition:
    def test_marked_checks_leave_the_table_unbuilt(self):
        digests = {}
        for name, q in corpus_quasicategories():
            sc = SimplexCategory(q, 2)
            assert check_inverts_L(q, 2, sc=sc).ok, name
            assert "category" not in vars(sc), name
            pair = []
            for c in (SimplexCategory(q, 1), sc):
                assert validate_category(c.category).ok, (name, c.depth)
                key = repr(c.category.canonical_key()).encode()
                pair.append(hashlib.sha256(key).hexdigest()[:16])
            digests[name] = tuple(pair)
        assert digests == CANONICAL_DIGESTS

    def test_kan_extensions_leave_the_table_unbuilt(self, monkeypatch):
        built = []

        class Recorded(SimplexCategory):
            def __init__(self, S, depth):
                super().__init__(S, depth)
                built.append(self)

        monkeypatch.setattr(prederivator, "SimplexCategory", Recorded)
        for C in KANEXT_TARGETS:
            for j in (0, 1):
                res = kan_extension_value(nerve(C, 3), poset_simplex(j), 2)
                assert res.bijective, (C.name, j)
        assert len(built) == 10
        assert not any("category" in vars(sc) for sc in built)

    def test_mismatched_simplex_category_rejected(self):
        # a caller's category must be of the checked set at the checked depth,
        # or the report would name a depth it did not check
        q = nerve(poset_simplex(1), 3)
        sc = SimplexCategory(q, 1)
        with pytest.raises(ValueError, match="depth 2"):
            check_inverts_L(q, 2, sc=sc)
        with pytest.raises(ValueError, match="not the simplex category"):
            check_inverts_L(nerve(poset_simplex(1), 3), 1, sc=sc)
        assert check_inverts_L(q, 1, sc=sc).ok


class TestProjection:
    def test_vertex_goes_to_itself(self):
        q = nerve(poset_simplex(1), 3)
        sc, N, p = last_vertex_projection(q, 1)
        oid = "0:0"
        assert p.assignment[oid] == SimplexExpr((), "0")

    def test_marked_morphism_lands_degenerate(self):
        # from the initial vertex into the identity edge, last-vertex style:
        # the image is the degenerate edge at the final vertex
        q = nerve(poset_simplex(1), 3)
        sc, N, p = last_vertex_projection(q, 1)
        mid = None
        for m in sc.category.nonidentity():
            src, tgt = sc.category.morphisms[m]
            if (src == "0:1" and sc.simplex_of[tgt][1] == SimplexExpr((), "m01")
                    and m in sc.marked):
                mid = m
        assert mid is not None
        edge = p.apply(N.chain_expr((sc.category.dom(mid), mid)))
        assert edge == SimplexExpr((0,), "1")

    def test_projection_is_simplicial(self):
        for cat in [poset_simplex(1), poset_simplex(2), group_z2()]:
            q = nerve(cat, 3)
            sc, N, p = last_vertex_projection(q, 2)
            assert p.validate().ok

    def test_edge_formula_matches_the_projection(self):
        # the marked-class check reads p on 1-chains through the per-chain
        # formula; on every corpus quasicategory it agrees with the whole,
        # validated projection
        for name, q in corpus_quasicategories():
            sc, N, p = last_vertex_projection(q, 2)
            assert p.validate().ok, name
            for mid in sorted(sc.marked):
                if sc.category.is_identity(mid):
                    continue
                chain = (sc.category.dom(mid), mid)
                edge = p.apply(N.chain_expr(chain))
                assert last_vertex_image(sc, chain) == edge, (name, mid)
                assert projected_edge(sc, mid) == edge, (name, mid)


class TestInvertsMarked:
    def test_corpus_quasicategories_pass(self):
        expected = {
            "delta0": 16, "N([0])": 16, "N([1])": 55, "N([2])": 126,
            "N([3])": 238, "N(z2)": 48, "N(E)": 96, "N(d[2])": 149,
            "N([1]x[1])": 197, "N([1])xN([1])": 197, "N([1])xN(z2)": 178,
            "delta1xdelta1": 197,
        }
        checked = {}
        for name, q in corpus_quasicategories():
            report = check_inverts_L(q, 2)
            assert report.ok, (name, report.violations[:2])
            checked[name] = report.checked
        assert checked == expected

    def test_edge_faces_checked(self):
        # send the vertex 1 -> m01 map through the initial vertex instead:
        # the edge it reads no longer starts at the last vertex of its source
        q = nerve(poset_simplex(1), 3)
        sc = SimplexCategory(q, 1)
        mid = "0:1->1:m01:1"
        assert mid in sc.marked
        assert projected_edge(sc, mid) == SimplexExpr((0,), "1")
        sc.alpha_of[mid] = (0,)
        with pytest.raises(AssertionError, match="not simplicial: face d_1"):
            projected_edge(sc, mid)

    def test_point_trivially_passes(self):
        report = check_inverts_L(standard_simplex(0, 2), 1)
        assert report.ok

    def test_mismarked_morphism_flagged(self):
        # mark a non-last-vertex morphism by hand: its image edge is the
        # generator, which is not invertible in the homotopy category
        q = nerve(poset_simplex(1), 3)
        sc, N, p = last_vertex_projection(q, 1)
        bad = None
        for m in sc.category.nonidentity():
            src, tgt = sc.category.morphisms[m]
            if src == "0:0" and sc.simplex_of[tgt][1] == SimplexExpr((), "m01") and m not in sc.marked:
                bad = m
        assert bad is not None
        pres = ho(q)
        edge = p.apply(N.chain_expr((sc.category.dom(bad), bad)))
        assert not pres.category.is_iso(pres.cls(edge))

