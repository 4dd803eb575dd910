"""The standard desk-scale corpus and its deliberate mutations.

Everything the checks run on lives here: the simplicial-set
corpus, its quasicategory members, single-face mutations that must fail
validation, prederivator mutations that must each fail one axiom audit,
and the labeled map corpus for the equivalence-agreement experiment.
The Eilenberg-MacLane spaces K(Z/2, n), which are not 1-types, are built
here too, for the tests; no corpus list holds them.
Every prederivator mutant is one ``PatchedPrederivator``: the base with
its value, and both ends of its restrictions, replaced at one shape.
The Der2, Der5 and Der5' mutants are 2-functors: the Der5 and Der5'
mutants are full sub-prederivators (``full_sub_mutant``), and the Der2
mutant patches both ends of every restriction at its shape.  The Der1
mutant collapses the value at a coproduct to a point and cannot be one:
HO(! o inl) = id would have to factor through the point.
"""

from __future__ import annotations

from itertools import combinations

from .cats import (
    FiniteCategory,
    Functor,
    NatTransf,
    boundary_two,
    constant_functor,
    contractible_groupoid,
    full_subcategory,
    group_z2,
    identity_functor,
    monotone_functor,
    poset_simplex,
    product_cat,
)
from .mapping import full_degeneracy
from .nerve import nerve, nerve_map
from .prederivator import HoPrederivator, Prederivator, dia_arrow
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    boundary,
    horn,
    identity_map,
    product,
    standard_simplex,
)


def corpus_categories() -> list:
    return [
        ("[0]", poset_simplex(0)),
        ("[1]", poset_simplex(1)),
        ("[2]", poset_simplex(2)),
        ("[3]", poset_simplex(3)),
        ("[1]x[1]", product_cat(poset_simplex(1), poset_simplex(1))),
        ("d[2]", boundary_two()),
        ("z2", group_z2()),
        ("E", contractible_groupoid()),
    ]


def corpus_ssets() -> list:
    """At least 20 presentations: simplices, shells, horns, nerves, products."""
    out = []
    for n in range(4):
        out.append((f"delta{n}", standard_simplex(n, max(2, n))))
    for n in range(1, 4):
        out.append((f"boundary{n}", boundary(n, max(2, n))))
    for n in range(1, 4):
        for i in range(n + 1):
            out.append((f"horn{n}_{i}", horn(n, i, max(2, n))))
    for name, cat in corpus_categories():
        out.append((f"N({name})", nerve(cat, 3)))
    out.append(("delta1xdelta1", product(standard_simplex(1, 3), standard_simplex(1, 3))))
    out.append(("N([1])xN([1])", product(nerve(poset_simplex(1), 3),
                                         nerve(poset_simplex(1), 3))))
    out.append(("N([1])xN(z2)", product(nerve(poset_simplex(1), 3), nerve(group_z2(), 3))))
    return out


def corpus_quasicategories() -> list:
    """The corpus members that are quasicategories: nerves and their products."""
    out = [("delta0", standard_simplex(0, 2))]
    out += [(name, s) for name, s in corpus_ssets()
            if name.startswith("N(") or name == "delta1xdelta1"]
    return out


def eilenberg_maclane(n: int) -> TruncatedSSet:
    """K(Z/2, n) for n >= 1, truncated at n + 1, as cocycles (May,
    *Simplicial Objects in Algebraic Topology*, 1967, §23).

    Its m-simplices are the Z/2-valued n-cocycles on Δm: the sets of
    n-faces of Δm (vertex tuples) that meet every (n+1)-face an even number
    of times.  A monotone α: [k] -> [m] acts by pulling back: an n-face of
    Δk is in c.α iff α is injective on it and its image is in c.  A simplex
    c is degenerate iff c = s_j d_j c for some j; its normal form collapses
    every such j at once, to the word of those j, largest first, on the
    restriction of c to the other vertices and vertex 0.  The set is
    (n + 1)-coskeletal: a cocycle is determined by its n-faces.
    """
    if n < 1:
        raise ValueError("K(Z/2, n) needs n >= 1")

    def pull(c: frozenset, alpha: tuple) -> frozenset:
        images = ((t, tuple(alpha[i] for i in t)) for t in combinations(range(len(alpha)), n + 1))
        return frozenset(t for t, image in images if len(set(image)) == n + 1 and image in c)

    def normal(c: frozenset, m: int) -> tuple:
        """(word, vertices kept) of c, an m-simplex."""
        face = [tuple(v for v in range(m + 1) if v != j) for j in range(m)]
        collapse = [tuple(v - (v > j) for v in range(m + 1)) for j in range(m)]
        word = tuple(j for j in reversed(range(m)) if pull(pull(c, face[j]), collapse[j]) == c)
        return word, tuple(v for v in range(m + 1) if v - 1 not in word)

    levels, faces, names = {}, {}, {}
    for m in range(n + 2):
        n_faces = list(combinations(range(m + 1), n + 1))
        cocycles = [frozenset(chosen) for r in range(len(n_faces) + 1)
                    for chosen in combinations(n_faces, r)
                    if all(sum(set(t) <= set(rho) for t in chosen) % 2 == 0
                           for rho in combinations(range(m + 1), n + 2))]
        levels[m] = []
        for c in cocycles:
            if normal(c, m)[0]:
                continue
            x = names[(m, c)] = "*" if not m else f"c{m}_" + "-".join(
                "".join(map(str, t)) for t in sorted(c))
            levels[m].append(x)
            for i in range(m + 1 if m else 0):
                d = pull(c, tuple(v for v in range(m + 1) if v != i))
                word, kept = normal(d, m - 1)
                faces[(x, i)] = SimplexExpr(word, names[(len(kept) - 1, pull(d, kept))])
    return TruncatedSSet(n + 1, levels, faces, n + 1, f"K(Z/2,{n})")


def face_mutations() -> list:
    """Twenty single-face mutations of corpus members, each breaking an identity.

    A face of a 2- or 3-simplex is redirected to a different simplex of
    the right dimension, deterministically; at most two per member.
    """
    out = []
    for name, S in corpus_ssets():
        taken = 0
        for mutant in _failing_face_mutations(name, S):
            out.append(mutant)
            taken += 1
            if taken >= 2 or len(out) >= 20:
                break
        if len(out) >= 20:
            break
    return out


def _failing_face_mutations(name: str, S: TruncatedSSet):
    """Mutants of S, one redirected face each, that really break an identity."""
    for n in (2, 3):
        for x in S.nondeg(n):
            for i in range(n + 1):
                old = S.faces[(x, i)]
                for cand in S.total(n - 1):
                    if cand == old:
                        continue
                    faces = dict(S.faces)
                    faces[(x, i)] = cand
                    mutant = TruncatedSSet(
                        S.dim_bound,
                        {m: S.nondeg(m) for m in range(S.dim_bound + 1)},
                        faces, None, f"{name}/d{i}({x})->{cand.token()}")
                    if not mutant.validate().ok:
                        yield mutant
                        break


# ---------------------------------------------------------------------------
# prederivator mutations


class PatchedPrederivator(Prederivator):
    """Delegating wrapper with targeted overrides at one shape."""

    def __init__(self, base: Prederivator, patched_shape: str, patched_eval,
                 patch_restriction, patch_corestriction, name: str):
        super().__init__(base.sample, name)
        self.base = base
        self.shape = patched_shape
        self.patched_eval = patched_eval
        # each patch takes the base's u* and returns the mutant's:
        # patch_restriction for u*: patched -> other,
        # patch_corestriction for u*: other -> patched;
        # a non-identity u* from the patched shape to itself takes both
        self._patch_res = patch_restriction
        self._patch_cores = patch_corestriction

    def _eval(self, J_name: str) -> FiniteCategory:
        if J_name == self.shape:
            return self.patched_eval
        return self.base.eval(J_name)

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        base_image = self.base.on_functor(u)
        if src == self.shape and dst == self.shape:
            if base_image == identity_functor(base_image.source):
                return identity_functor(self.eval(self.shape))
            return self._patch_cores(self._patch_res(base_image))
        if dst == self.shape:   # u: other -> patched, u*: patched -> other
            return self._patch_res(base_image)
        if src == self.shape:   # u: patched -> other, u*: other -> patched
            return self._patch_cores(base_image)
        return base_image

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        base_image = self.base.on_nat(alpha)
        if self.shape not in (src, dst):
            return base_image
        ustar = self.on_functor(alpha.source)
        vstar = self.on_functor(alpha.target)
        comps = {X: base_image.at(X) for X in ustar.source.objects}
        return NatTransf(ustar, vstar, comps, base_image.name)


def add_idempotent(C: FiniteCategory, obj: str) -> FiniteCategory:
    """A copy of C with one extra non-invertible idempotent ``mut_e`` at obj."""
    mid = "mut_e"
    morphisms = dict(C.morphisms)
    morphisms[mid] = (obj, obj)
    compose = dict(C.compose_table)
    compose[(mid, mid)] = mid
    for m in C.nonidentity():
        if C.dom(m) == obj:
            compose[(m, mid)] = m
        if C.cod(m) == obj:
            compose[(mid, m)] = m
    return FiniteCategory(C.objects, morphisms, compose, C.identities, f"{C.name}+e")


def der2_mutation(base: HoPrederivator) -> Prederivator:
    """Adds a pointwise-invisible idempotent: conservativity must fail.

    The mutant is a 2-functor on HO(N([1])), the base the Der audits use,
    but not on every base.  Where the base's value at [1]x[1] is one object,
    as on HO(N([0])), the u* of every endofunctor u of [1]x[1] is the
    identity, which the mutant keeps, so it fixes the idempotent; the u* of
    the same u through [1] (end0_[1] o proj_[1]) sends the idempotent to an
    identity.  So a Der2 audit of the mutant of such a base does not
    isolate Der2.
    """
    shape = "[1]x[1]"
    C = base.eval(shape)
    patched = add_idempotent(C, C.objects[0])

    def res(big):
        # the added idempotent goes to an identity
        mor = {m: big.mor.get(m, big.target.identities[big.ob[patched.dom(m)]])
               for m in patched.nonidentity()}
        return Functor(patched, big.target, big.ob, mor, big.name)

    return PatchedPrederivator(
        base, shape, patched, res,
        lambda big: Functor(big.source, patched, big.ob, big.mor, big.name),
        f"{base.name}/der2-mutant")


def full_sub_mutant(base: Prederivator, shape: str, keep, name: str) -> Prederivator:
    """The full sub-prederivator of ``base`` on the objects ``keep`` at ``shape``.

    Restrictions and 2-cells are those of the base, restricted at the
    source and corestricted at the target; a restriction that leaves the
    kept objects is a ``ValueError``.
    """
    sub = full_subcategory(base.eval(shape), keep)

    def restrict(big: Functor) -> Functor:
        return Functor(sub, big.target, {x: big.ob[x] for x in sub.objects},
                       {m: big.mor[m] for m in sub.nonidentity()}, big.name)

    def corestrict(big: Functor) -> Functor:
        if not set(sub.objects).issuperset(big.ob.values()):
            raise ValueError(f"{big.name} leaves the kept objects of {name} at {shape}")
        return Functor(big.source, sub, big.ob, big.mor, big.name)

    return PatchedPrederivator(base, shape, sub, restrict, corestrict, name)


def _removal_mutation(base: HoPrederivator, arrow_picker, label: str) -> Prederivator:
    """The full sub-prederivator on the diagrams in [1] x [1] whose arrow in
    the base's ``dia_arrow`` table at [1] is not the picked one."""
    _, arrow, _ = dia_arrow(base, "[1]")
    f0 = arrow_picker(base)
    keep = [X for X, f in arrow.items() if f != f0]
    return full_sub_mutant(base, "[1]x[1]", keep, f"{base.name}/{label}")


def der5prime_mutation(base: HoPrederivator) -> Prederivator:
    """Removes the literal diagrams of one invertible arrow, keeping
    isomorphic copies: strict surjectivity fails, essential surjectivity
    survives, so of the two reports of ``check_der5`` only Der5' fails.
    Use over a groupoid corpus member."""
    def pick(D):
        CJ = D.eval("[1]")
        for m in CJ.nonidentity():
            if CJ.is_iso(m):
                return m
        raise ValueError("no invertible non-identity arrow to hide")
    return _removal_mutation(base, pick, "der5p-mutant")


def der5_mutation(base: HoPrederivator) -> Prederivator:
    """Removes all diagrams of a non-invertible arrow, which then has no
    isomorphic replacement: both reports of ``check_der5`` fail."""
    def pick(D):
        CJ = D.eval("[1]")
        for m in CJ.nonidentity():
            if not CJ.is_iso(m):
                return m
        raise ValueError("no non-invertible arrow available")
    return _removal_mutation(base, pick, "der5-mutant")


def der1_mutation(base: HoPrederivator) -> Prederivator:
    """Collapses the value at a coproduct to the terminal category."""
    shape = "[0]+[0]"
    patched = poset_simplex(0)

    return PatchedPrederivator(
        base, shape, patched,
        lambda big: constant_functor(patched, big.target, big.target.objects[0], big.name),
        lambda big: constant_functor(big.source, patched, "0", big.name),
        f"{base.name}/der1-mutant")


# ---------------------------------------------------------------------------
# labeled map corpus for the equivalence experiment


def _collapse_map(q: TruncatedSSet, target: TruncatedSSet, vertex: str) -> SimplicialMap:
    assignment = {}
    for n in range(q.dim_bound + 1):
        for x in q.nondeg(n):
            assignment[x] = SimplexExpr(full_degeneracy(n), vertex)
    return SimplicialMap(q, target, assignment)


def labeled_map_corpus() -> list:
    """Ten maps with ground-truth equivalence labels.

    The labels are literals.  Every end is a nerve, a 1-type, so a map is
    an equivalence exactly when Ho of it is an equivalence of categories;
    the tests check each label against ``equivalence_inverse`` of
    ``ho_on_map`` of the map.
    """
    n0 = standard_simplex(0, 2)
    n1 = nerve(poset_simplex(1), 3)
    n2 = nerve(poset_simplex(2), 3)
    nE = nerve(contractible_groupoid(), 3)
    nz = nerve(group_z2(), 3)
    entries = []
    entries.append(("id_N[1]", identity_map(n1), True))
    entries.append(("id_delta0", identity_map(n0), True))
    entries.append(("collapse_N[1]", _collapse_map(n1, n0, "0"), False))
    entries.append(("vertex0_N[1]",
                    SimplicialMap(n0, n1, {"0": SimplexExpr((), "0")}), False))
    entries.append(("collapse_E", _collapse_map(nE, n0, "0"), True))
    entries.append(("point_into_E",
                    SimplicialMap(n0, nE, {"0": SimplexExpr((), "a")}), True))
    swap = Functor(contractible_groupoid(), contractible_groupoid(),
                   {"a": "b", "b": "a"},
                   {"eab": "eba", "eba": "eab"}, "swap")
    entries.append(("swap_E", nerve_map(swap, source=nE, target=nE), True))
    entries.append(("collapse_z2", _collapse_map(nz, n0, "0"), False))
    const1 = monotone_functor(poset_simplex(1), poset_simplex(1), (1, 1), "const1")
    entries.append(("const1_N[1]", nerve_map(const1, source=n1, target=n1), False))
    incl = monotone_functor(poset_simplex(1), poset_simplex(2), (0, 1), "incl01")
    entries.append(("incl_N[1]_N[2]", nerve_map(incl, source=n1, target=n2), False))
    return entries
