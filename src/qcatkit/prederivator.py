"""Prederivators over a finite diagram sample.

A prederivator here is a lazily evaluated, memoized 2-functor from a
finite sample of categories (with chosen functors and natural
transformations) to finite categories.  The sample replaces the full
2-category of diagram shapes: every operation states which closure
annotations (products with the interval, coproducts, a terminal object)
it needs, and fails loudly when the sample lacks them.  Audit reports
always carry the sample scope.

The 2-cell layer is strict only: morphisms of prederivators are strict
morphisms, whose components commute with every listed restriction on
the nose, and 2-cells are the modifications between two of them.  Every
map of quasicategories induces a strict morphism, so nothing here needs
structure cells.

Shape names belong to the sample: a shape functor u: J -> K carries its
source and target categories, and ``DiaSample.ends`` reads their member
names by object identity.  So ``on_functor(u)`` and ``on_nat(alpha)`` take
the morphism alone, and a functor out of the sample is a ``ClosureError``.

What depends on the shapes alone is built once per sample, not once per
base: the sample owns its members' nerves (and through them the exponent
frames), the restriction plans, which compile N(u) x Δl into index plans
over the frames' cell orders, and likewise the transports through the
mates of the listed 2-cells.  Compiled against a base, a plan sends the
code tuple of a cell to that of its image, so u* of every base over the
sample is one coded gather per cell, and so is a component of alpha*.  The
strict-morphism search likewise builds each listed functor's fibre tables
once per call, and the functor search out of a category follows the
category's own ``search_plan``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .cats import (
    FiniteCategory,
    Functor,
    NatTransf,
    cat_from_text,
    compose_functors,
    constant_functor,
    enumerate_functors,
    equivalence_inverse,
    horizontal_compose,
    identity_functor,
    pair_id,
    poset_simplex,
    product_cat,
    coproduct_cat,
    boundary_two,
    cat_to_text,
    empty_category,
    full_subcategory,
    monotone_functor,
    pair_functor,
    pairing,
    validate_category,
    vertex_functor,
    vertical_compose,
)
from .delocalization import SimplexCategory
from .mapping import Exponential, coded_gather, full_degeneracy, induced_functor, slot_plan
from .nerve import chain_shape_iso, nerve, nerve_map, nerve_product_compare_inv
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    ValidationReport,
    enumerate_maps,
    product,
)
from .util import Budget, ensure_budget


# ---------------------------------------------------------------------------
# the diagram sample


class ClosureError(ValueError):
    pass


class DiaSample:
    """Finite stand-in for a 2-category of diagram shapes.

    Annotations declare the structure the operations rely on:
    ``products[(a, b)]`` names a member built by ``product_cat``;
    ``shifts[j]`` names the member playing j x [1]; ``coproducts`` names
    ``coproduct_cat`` members.  ``functors`` and ``nats`` list the
    (named) 1- and 2-morphisms that strictness and functoriality are
    checked against.  A member is known by its object, not by an equal
    copy: ``ends`` names the source and target of a functor by identity.
    The sample owns its members' nerves (``nerve``), so every exponential
    over one member shares one nerve and with it one exponent frame, and
    the restriction plans of the listed functors and their composites
    (``restriction``) and the transports of the natural transformations
    (``transport``), so every base over the sample shares those too.
    """

    def __init__(self, name="sample"):
        self.name = name
        self.categories: dict[str, FiniteCategory] = {}
        self.names: dict[FiniteCategory, str] = {}  # keyed by identity
        self.functors: dict[str, Functor] = {}
        self.nats: dict[str, NatTransf] = {}
        self.products: dict[tuple, str] = {}
        self.coproducts: dict[tuple, str] = {}
        self.shifts: dict[str, str] = {}
        self.terminal: str | None = None
        self.initial: str | None = None
        self.order: list[str] = []
        self._nerves: dict[str, TruncatedSSet] = {}
        self._restrictions: dict = {}
        self._transports: dict = {}

    def add_category(self, name: str, C: FiniteCategory) -> FiniteCategory:
        if name in self.categories:
            raise ValueError(f"duplicate sample category {name!r}")
        if C in self.names:
            raise ValueError(f"category {C.name} is already the member {self.names[C]!r}")
        self.categories[name] = C
        self.names[C] = name
        self.order.append(name)
        return C

    def add_functor(self, name: str, F: Functor) -> Functor:
        self.functors[name] = F
        return F

    def add_nat(self, name: str, a: NatTransf) -> NatTransf:
        self.nats[name] = a
        return a

    def ends(self, u: Functor) -> tuple:
        """The member names of u's source and target."""
        if u.source not in self.names or u.target not in self.names:
            raise ClosureError(f"functor {u.name} leaves sample {self.name}")
        return self.names[u.source], self.names[u.target]

    def cat(self, name: str) -> FiniteCategory:
        if name not in self.categories:
            raise ClosureError(f"sample {self.name} has no category {name!r}")
        return self.categories[name]

    def nerve(self, name: str) -> TruncatedSSet:
        """N(name) truncated at 2, built once."""
        N = self._nerves.get(name)
        if N is None:
            N = self._nerves[name] = nerve(self.cat(name), 2)
        return N

    def restriction(self, u: Functor, dj: Exponential, dk: Exponential) -> Restriction:
        """The plan of u*: Q^{N(K)} -> Q^{N(J)} for exponentials dj over N(J)
        and dk over N(K), built once per functor and pair of frames."""
        key = (u.key(), dj.frame, dk.frame)
        plan = self._restrictions.get(key)
        if plan is None:
            plan = self._restrictions[key] = Restriction(
                nerve_map(u, dj.exponent, dk.exponent), dj.products, dk.products)
        return plan

    def transport(self, alpha: NatTransf, dj: Exponential, dk: Exponential) -> tuple:
        """N(J) x Δ1 -> N(K) x Δ0 through the mate of alpha: J x [1] -> K, as
        the :func:`qcatkit.mapping.slot_plan` over the frames of dj (over
        N(J)) and dk (over N(K)); built once per transformation and pair of
        frames.  Its :func:`qcatkit.mapping.coded_gather` against a base
        sends the code tuple of a vertex mu of Q^{N(K)} to that of the
        level-1 cell of Q^{N(J)} that mu precomposed with the transport is."""
        key = (alpha.key(), dj.frame, dk.frame)
        plan = self._transports.get(key)
        if plan is None:
            mate = _mate_functor(alpha, dj.exponent.cat, dk.exponent.cat)
            NJxI = nerve(mate.source, 2)
            nmate = nerve_map(mate, NJxI, dk.exponent)
            interval_nerve = nerve(poset_simplex(1), 2)
            P_JI = product(dj.exponent, interval_nerve)
            compare = nerve_product_compare_inv(P_JI, NJxI)
            Pj, Pk = dj.products[1], dk.products[0]
            shape_to_nerve = chain_shape_iso(Pj.right, interval_nerve)
            plan = self._transports[key] = slot_plan(Pj, Pk, lambda e1, e2: Pk.pair_expr(
                nmate.apply(compare.apply(P_JI.pair_expr(e1, shape_to_nerve.apply(e2)))),
                SimplexExpr(full_degeneracy(Pj.left.expr_dim(e1)), "0")))
        return plan

    def add_unit_functors(self) -> None:
        """List ``id_``, ``!`` and ``vx_`` for every member.

        ``!`` goes from every non-empty member other than the terminal one.
        """
        point = self.cat(self.terminal)
        for name in self.order:
            C = self.cat(name)
            self.add_functor(f"id_{name}", identity_functor(C))
            if C.objects and name != self.terminal:
                self.add_functor(f"!{name}",
                                 constant_functor(C, point, point.objects[0], f"!{name}"))
            for obj in C.objects:
                self.add_functor(f"vx_{name}_{obj}", vertex_functor(point, C, obj))

    def shift_name(self, j: str) -> str:
        if j not in self.shifts:
            raise ClosureError(f"sample {self.name} lacks the shift {j} x [1]")
        return self.shifts[j]

    def composable_functor_pairs(self):
        return [(n2, n1) for n2, v in sorted(self.functors.items())
                for n1, u in sorted(self.functors.items()) if u.target is v.source]

    def validate(self) -> ValidationReport:
        report = ValidationReport(f"sample {self.name}")
        for name, C in self.categories.items():
            report.checked += 1
            sub = validate_category(C)
            if not sub.ok:
                report.add(f"category {name}: {sub.violations[0]}")
        for name, F in self.functors.items():
            report.checked += 1
            if F.source not in self.names or F.target not in self.names:
                report.add(f"functor {name} leaves the sample")
            elif not F.validate().ok:
                report.add(f"functor {name} does not preserve structure")
        for name, a in self.nats.items():
            report.checked += 1
            if not a.validate().ok:
                report.add(f"natural transformation {name} is not natural")
        for j in self.categories:
            report.checked += 1
            if f"id_{j}" not in self.functors:
                report.add(f"identity functor of {j} not listed")
        for (a, b), p in self.products.items():
            report.checked += 1
            want = product_cat(self.cat(a), self.cat(b))
            if want.canonical_key() != self.cat(p).canonical_key():
                report.add(f"product annotation {a} x {b} = {p} is not the product")
        for (a, b), p in self.coproducts.items():
            report.checked += 1
            want = coproduct_cat(self.cat(a), self.cat(b))
            if want.canonical_key() != self.cat(p).canonical_key():
                report.add(f"coproduct annotation {a} + {b} = {p} is not the coproduct")
        for j, p in self.shifts.items():
            report.checked += 1
            want = product_cat(self.cat(j), poset_simplex(1))
            if want.canonical_key() != self.cat(p).canonical_key():
                report.add(f"shift annotation for {j} is not {j} x [1]")
        return report


def standard_sample() -> DiaSample:
    """The default sample: simplex shapes, one interval shift layer,
    binary coproducts, and the empty shape.

    The interval-shift closure is annotated for [0] and [1] only; larger
    shifts make exponentials over groupoid-like corpora combinatorially
    infeasible at desk scale, and every audit declares the scope it ran at.
    """
    s = DiaSample("standard")
    p0 = s.add_category("[0]", poset_simplex(0))
    p1 = s.add_category("[1]", poset_simplex(1))
    p2 = s.add_category("[2]", poset_simplex(2))
    s.add_category("[0]x[1]", product_cat(p0, poset_simplex(1)))
    s.add_category("[1]x[1]", product_cat(p1, poset_simplex(1)))
    s.add_category("d[2]", boundary_two())
    s.add_category("0", empty_category())
    s.add_category("[0]+[0]", coproduct_cat(p0, p0))
    s.add_category("[0]+[1]", coproduct_cat(p0, p1))
    s.add_category("[1]+[1]", coproduct_cat(p1, p1))
    s.terminal = "[0]"
    s.initial = "0"
    s.products = {("[0]", "[1]"): "[0]x[1]", ("[1]", "[1]"): "[1]x[1]"}
    s.shifts = {"[0]": "[0]x[1]", "[1]": "[1]x[1]"}
    s.coproducts = {("[0]", "[0]"): "[0]+[0]", ("[0]", "[1]"): "[0]+[1]",
                    ("[1]", "[1]"): "[1]+[1]"}

    s.add_unit_functors()
    step = p1.hom("0", "1")[0]
    # simplex operators between [1] and [2]
    for fname, alpha in [("d0_[2]", (1, 2)), ("d1_[2]", (0, 2)), ("d2_[2]", (0, 1))]:
        s.add_functor(fname, monotone_functor(p1, p2, alpha, fname))
    for fname, alpha in [("s0_[2]", (0, 0, 1)), ("s1_[2]", (0, 1, 1))]:
        s.add_functor(fname, monotone_functor(p2, p1, alpha, fname))
    # probes of the free boundary
    dd = s.cat("d[2]")
    for fname, gen in [("edge_a", "a"), ("edge_b", "b"), ("edge_c", "c")]:
        lo, hi = dd.morphisms[gen]
        s.add_functor(fname, Functor(p1, dd, {"0": lo, "1": hi}, {step: gen}, fname))
    s.add_functor("tri_d[2]",
                  Functor(p2, dd,
                          {"0": "0", "1": "1", "2": "2"},
                          {"m01": "a", "m02": "ba", "m12": "b"}, "tri_d[2]"))
    # shift structure
    for j in ("[0]", "[1]"):
        J = s.cat(j)
        JxI = s.cat(s.shifts[j])
        i0, i1 = [s.add_functor(f"end{t}_{j}",
                                pairing(identity_functor(J), constant_functor(J, p1, str(t)),
                                        JxI, f"end{t}_{J.name}"))
                  for t in (0, 1)]
        s.add_functor(f"proj_{j}",
                      pair_functor(JxI, J, lambda x, t: x, lambda m, tm: m, f"proj_{j}"))
        s.add_nat(f"step_{j}", NatTransf(
            i0, i1, {x: pair_id(J.identities[x], step) for x in J.objects}, f"step_{J.name}"))
    # coproduct injections
    for (a, b), cname in sorted(s.coproducts.items()):
        A, B, C = s.cat(a), s.cat(b), s.cat(cname)
        s.add_functor(f"inl_{cname}",
                      Functor(A, C, {x: f"l.{x}" for x in A.objects},
                              {m: f"l.{m}" for m in A.nonidentity()}, f"inl_{cname}"))
        s.add_functor(f"inr_{cname}",
                      Functor(B, C, {x: f"r.{x}" for x in B.objects},
                              {m: f"r.{m}" for m in B.nonidentity()}, f"inr_{cname}"))
    # vertex steps on [1] and [2]
    s.add_nat("step01_[1]",
              NatTransf(s.functors["vx_[1]_0"], s.functors["vx_[1]_1"], {"0": step}))
    for (i, j) in (("0", "1"), ("1", "2"), ("0", "2")):
        s.add_nat(f"step{i}{j}_[2]",
                  NatTransf(s.functors[f"vx_[2]_{i}"], s.functors[f"vx_[2]_{j}"],
                            {"0": p2.hom(i, j)[0]}))
    return s


# ---------------------------------------------------------------------------
# prederivators


class Prederivator:
    """Memoized contravariant 2-functor on a diagram sample.

    Subclasses provide ``_eval``, ``_on_functor`` and ``_on_nat``; results
    are cached write-once per key, so repeated queries return identical
    values.
    """

    def __init__(self, sample: DiaSample, name: str = "prederivator"):
        self.sample = sample
        self.name = name
        self._eval_cache: dict = {}
        self._functor_cache: dict = {}
        self._nat_cache: dict = {}

    # subclass hooks ------------------------------------------------------

    def _eval(self, J_name: str) -> FiniteCategory:
        raise NotImplementedError

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        raise NotImplementedError

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        raise NotImplementedError

    # public API ----------------------------------------------------------

    def eval(self, J_name: str) -> FiniteCategory:
        if J_name not in self._eval_cache:
            self.sample.cat(J_name)
            self._eval_cache[J_name] = self._eval(J_name)
        return self._eval_cache[J_name]

    def on_functor(self, u: Functor) -> Functor:
        src, dst = self.sample.ends(u)
        key = (src, dst, u.key())
        if key not in self._functor_cache:
            self._functor_cache[key] = self._on_functor(u, src, dst)
        return self._functor_cache[key]

    def on_nat(self, alpha: NatTransf) -> NatTransf:
        src, dst = self.sample.ends(alpha.source)
        key = (src, dst, alpha.key())
        if key not in self._nat_cache:
            self._nat_cache[key] = self._on_nat(alpha, src, dst)
        return self._nat_cache[key]

    def check_two_functoriality(self) -> ValidationReport:
        """Exhaustive 2-functor laws over the listed sample morphisms."""
        report = ValidationReport(f"2-functoriality of {self.name}")
        s = self.sample
        for name in s.order:
            report.checked += 1
            img = self.on_functor(s.functors[f"id_{name}"])
            if img.key() != identity_functor(self.eval(name)).key():
                report.add(f"identity of {name} not preserved")
        for n2, n1 in s.composable_functor_pairs():
            u, v = s.functors[n1], s.functors[n2]
            report.checked += 1
            lhs = self.on_functor(compose_functors(v, u))
            rhs = compose_functors(self.on_functor(u), self.on_functor(v))
            if lhs.key() != rhs.key():
                report.add(f"composition {n2} o {n1} not respected")
        for name, a in sorted(s.nats.items()):
            report.checked += 1
            img = self.on_nat(a)
            if not img.validate().ok:
                report.add(f"image of {name} is not natural")
            usrc = self.on_functor(a.source)
            udst = self.on_functor(a.target)
            if img.source.key() != usrc.key() or img.target.key() != udst.key():
                report.add(f"image of {name} has wrong endpoints")
        # vertical composition on composable listed nat pairs
        for n1, a in sorted(s.nats.items()):
            for n2, b in sorted(s.nats.items()):
                if b.source is not a.target:
                    continue
                report.checked += 1
                lhs = self.on_nat(vertical_compose(b, a))
                rhs = vertical_compose(self.on_nat(b), self.on_nat(a))
                if lhs.key()[2] != rhs.key()[2]:
                    report.add(f"vertical composition {n2} . {n1} not respected")
        # horizontal composition on listed nat pairs with matching middles
        for n1, a in sorted(s.nats.items()):
            for n2, b in sorted(s.nats.items()):
                if b.source.source is not a.source.target:
                    continue
                report.checked += 1
                lhs = self.on_nat(horizontal_compose(b, a))
                rhs = horizontal_compose(self.on_nat(a), self.on_nat(b))
                if lhs.key()[2] != rhs.key()[2]:
                    report.add(f"horizontal composition {n2} * {n1} not respected")
        return report


class Restriction:
    """N(u) x Δl: N(J) x Δl -> N(K) x Δl for l = 0, 1, compiled.

    ``plans[l]`` is the map's :func:`qcatkit.mapping.slot_plan` over the
    canonical cell orders of the two frames' products.  It depends on the
    shapes alone; its :func:`qcatkit.mapping.coded_gather` against a base Q
    sends the code tuple of a cell mu of Q^{N(K)} to that of mu . N(u) x Δl.
    """

    def __init__(self, nu: SimplicialMap, source_products: dict, target_products: dict):
        self.plans = {}
        for level in (0, 1):
            Pk = target_products[level]
            self.plans[level] = slot_plan(source_products[level], Pk,
                                          lambda e1, e2: Pk.pair_expr(nu.apply(e1), e2))


class HoPrederivator(Prederivator):
    """The prederivator of a quasicategory: J -> Ho(Q^{N(J)}).

    u*: Ho(Q^{N(K)}) -> Ho(Q^{N(J)}) precomposes each cell with
    N(u) x Δl through the sample's :class:`Restriction` of u, which
    depends on the shapes alone and so is built once for every base over
    the sample.
    """

    def __init__(self, Q: TruncatedSSet, sample: DiaSample, budget: Budget = None):
        super().__init__(sample, f"HO({Q.name})")
        self.Q = Q
        self.budget = budget
        self._data: dict[str, Exponential] = {}

    def data(self, J_name: str) -> Exponential:
        """The exponential Q^{N(J)} whose Ho is the value at J."""
        self.eval(J_name)
        return self._data[J_name]

    def _eval(self, J_name: str) -> FiniteCategory:
        try:
            E = Exponential(self.Q, self.sample.nerve(J_name), 2, self.budget)
        except ValueError as err:
            raise ValueError(f"evaluation at {J_name} failed: {err}") from None
        self._data[J_name] = E
        E.ho.category.name = f"{self.name}({J_name})"
        return E.ho.category

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        # contravariant: u: J -> K induces u*: eval(K) -> eval(J)
        dj, dk = self.data(src), self.data(dst)
        restrict = {level: coded_gather(plan, dj.products[level], dj.T_t)
                    for level, plan in self.sample.restriction(u, dj, dk).plans.items()}
        return induced_functor(dk, dj, lambda codes, level: restrict[level](codes),
                               f"{self.name}({u.name})*")

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        ustar = self.on_functor(alpha.source)
        vstar = self.on_functor(alpha.target)
        dj, dk = self._data[src], self._data[dst]
        # each component precomposes the sample's transport through the mate
        transport = coded_gather(self.sample.transport(alpha, dj, dk), dj.products[1], dj.T_t)
        comps = {c: dj.ho_morphism(transport(dk.cell_codes[c][1]))
                 for c in dk.ho.category.objects}
        return NatTransf(ustar, vstar, comps, f"{self.name}({alpha.name})*")


class FullSubPrederivator(Prederivator):
    """The full sub-prederivator of ``base`` on the objects ``kept`` names.

    ``kept`` maps shapes to the objects kept there; a shape it does not
    name keeps the whole base value.  Restrictions and 2-cells are those of
    the base, restricted; a restriction that leaves the kept objects is an
    error.
    """

    def __init__(self, base: Prederivator, kept: dict, name: str):
        super().__init__(base.sample, name)
        self.base = base
        self.kept = kept

    def _eval(self, J_name: str) -> FiniteCategory:
        keep = self.kept.get(J_name)
        if keep is None:
            return self.base.eval(J_name)
        return full_subcategory(self.base.eval(J_name), keep)

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        big = self.base.on_functor(u)
        sub, into = self.eval(dst), self.eval(src)
        ob = {x: big.ob[x] for x in sub.objects}
        if not set(into.objects).issuperset(ob.values()):
            raise ValueError(f"the restriction along {u.name} leaves the kept objects "
                             f"of {self.name} at {src}")
        return Functor(sub, into, ob, {m: big.mor[m] for m in sub.nonidentity()}, big.name)

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        big = self.base.on_nat(alpha)
        ustar = self.on_functor(alpha.source)
        vstar = self.on_functor(alpha.target)
        return NatTransf(ustar, vstar, {X: big.at(X) for X in ustar.source.objects}, big.name)


def _mate_functor(alpha: NatTransf, J: FiniteCategory, K: FiniteCategory) -> Functor:
    """The functor J x [1] -> K packaging a natural transformation."""
    u, v = alpha.source, alpha.target
    interval = poset_simplex(1)

    def on_morphism(m: str, tm: str) -> str:
        if interval.is_identity(tm):
            return (u if interval.dom(tm) == "0" else v).on_morphism(m)
        # the step morphism of the interval
        return K.compose(alpha.at(J.cod(m)), u.on_morphism(m))

    return pair_functor(product_cat(J, interval), K,
                        lambda x, t: (u if t == "0" else v).ob[x], on_morphism,
                        f"mate({alpha.name})")


# ---------------------------------------------------------------------------
# partial diagram functors and the Der audits


def dia_arrow(D: Prederivator, J_name: str):
    """The arrow data of dia_J^{[1]}: eval(J x [1]) -> eval(J)^{[1]}.

    Returns (source category, map object -> morphism of eval(J),
    map morphism -> pair of morphisms of eval(J)).
    """
    shift = D.sample.shift_name(J_name)
    s = D.sample
    i0_star = D.on_functor(s.functors[f"end0_{J_name}"])
    i1_star = D.on_functor(s.functors[f"end1_{J_name}"])
    step_star = D.on_nat(s.nats[f"step_{J_name}"])
    return (D.eval(shift), step_star.at,
            lambda m: (i0_star.on_morphism(m), i1_star.on_morphism(m)))


def check_der1(D: Prederivator, budget: Budget = None) -> ValidationReport:
    """Coproduct decomposition: eval(J + K) ~ eval(J) x eval(K)."""
    report = ValidationReport(f"Der1 for {D.name} over {D.sample.name}")
    s = D.sample
    if s.initial is not None:
        report.checked += 1
        C = D.eval(s.initial)
        F = constant_functor(C, poset_simplex(0), "0", "to_terminal")
        if equivalence_inverse(F, budget) is None:
            report.add(f"empty coproduct: eval({s.initial}) is not equivalent "
                       "to the terminal category")
    for (a, b), cname in sorted(s.coproducts.items()):
        report.checked += 1
        la = D.on_functor(s.functors[f"inl_{cname}"])
        rb = D.on_functor(s.functors[f"inr_{cname}"])
        cmp_functor = pairing(la, rb, product_cat(D.eval(a), D.eval(b)), f"der1_{cname}")
        if not cmp_functor.validate().ok:
            report.add(f"comparison functor at {cname} is not a functor")
            continue
        if equivalence_inverse(cmp_functor, budget) is None:
            report.add(f"comparison eval({cname}) -> eval({a}) x eval({b}) "
                       "is not an equivalence")
    return report


def check_der2(D: Prederivator, budget: Budget = None) -> ValidationReport:
    """Conservativity of the underlying diagram functor, every sample shape."""
    report = ValidationReport(f"Der2 for {D.name} over {D.sample.name}")
    s = D.sample
    for J_name in s.order:
        J = s.cat(J_name)
        C = D.eval(J_name)
        vertex_stars = {
            obj: D.on_functor(s.functors[f"vx_{J_name}_{obj}"])
            for obj in J.objects}
        for m in C.nonidentity():
            if C.is_iso(m):
                continue
            report.checked += 1
            components = [vertex_stars[obj].on_morphism(m) for obj in J.objects]
            base = D.eval("[0]")
            if all(base.is_iso(c) for c in components):
                report.add(f"dia^{J_name} sends the non-isomorphism {m!r} "
                           "to a pointwise isomorphism")
    return report


def _commuting_squares(C: FiniteCategory, f: str, g: str):
    """Pairs (p0, p1) with p1 . f = g . p0."""
    out = []
    for p0 in C.hom(C.dom(f), C.dom(g)):
        for p1 in C.hom(C.cod(f), C.cod(g)):
            if C.compose(p1, f) == C.compose(g, p0):
                out.append((p0, p1))
    return out


def check_der5(D: Prederivator, strict_surjectivity: bool,
               budget: Budget = None) -> ValidationReport:
    """Fullness plus (essential or strict) surjectivity of dia_J^{[1]}.

    Runs at every shape whose interval shift is annotated in the sample.
    """
    variant = "Der5'" if strict_surjectivity else "Der5"
    report = ValidationReport(f"{variant} for {D.name} over {D.sample.name} "
                              f"(shapes: {sorted(D.sample.shifts)})")
    for J_name in sorted(D.sample.shifts):
        src, on_object, on_morphism = dia_arrow(D, J_name)
        CJ = D.eval(J_name)
        images = {X: on_object(X) for X in src.objects}
        # surjectivity on objects: every arrow of eval(J) is a diagram
        for f in sorted(CJ.morphisms):
            report.checked += 1
            if f in set(images.values()):
                continue
            if strict_surjectivity:
                report.add(f"{J_name}: arrow {f!r} of eval({J_name}) has no "
                           "preimage diagram")
                continue
            found = False
            for X, fx in sorted(images.items()):
                for (p0, p1) in _commuting_squares(CJ, fx, f):
                    if CJ.is_iso(p0) and CJ.is_iso(p1):
                        found = True
                        break
                if found:
                    break
            if not found:
                report.add(f"{J_name}: arrow {f!r} is not even isomorphic to "
                           "a diagram image")
        # fullness
        for X in src.objects:
            for Y in src.objects:
                fx, fy = images[X], images[Y]
                for (p0, p1) in _commuting_squares(CJ, fx, fy):
                    report.checked += 1
                    hit = any(on_morphism(m) == (p0, p1)
                              for m in src.hom(X, Y))
                    if not hit:
                        report.add(f"{J_name}: square ({p0!r}, {p1!r}) from "
                                   f"{X!r} to {Y!r} has no lift")
    return report


def der_audit(D: Prederivator, budget: Budget = None) -> dict:
    """All four axiom audits, as a name -> report mapping."""
    return {
        "Der1": check_der1(D, budget),
        "Der2": check_der2(D, budget),
        "Der5": check_der5(D, strict_surjectivity=False, budget=budget),
        "Der5'": check_der5(D, strict_surjectivity=True, budget=budget),
    }


# ---------------------------------------------------------------------------
# the Kan-extension comparison


class KanExtensionResult:
    def __init__(self, families, maps, pairing, depth):
        self.families = families
        self.maps = maps
        self.pairing = pairing
        self.depth = depth

    @property
    def bijective(self) -> bool:
        return (len(self.families) == len(self.maps)
                and len(self.pairing) == len(self.families))


def kan_extension_value(R: TruncatedSSet, J: FiniteCategory, d: int,
                        budget: Budget = None) -> KanExtensionResult:
    """Limit of R over the truncated category of simplices of N(J).

    Computes compatible families over pairs (m <= d, m-simplex of N(J))
    and returns them together with the direct enumeration of simplicial
    maps N(J) -> R and the comparison bijection.
    """
    budget = ensure_budget(budget, f"kan extension over {J.name}")
    NJ = nerve(J, max(2, d))
    free_dim = max((n for n in range(NJ.dim_bound + 1) if NJ.nondeg(n)), default=0)
    if d < free_dim + 1:
        raise ValueError(f"depth {d} too small: nerve has nondegenerate "
                         f"simplices in dimension {free_dim}")
    if R.coskeletal_from is None or d < R.coskeletal_from:
        raise ValueError("target must be coskeletal within the chosen depth")
    if d > R.dim_bound:
        raise ValueError("depth exceeds the target truncation")
    sc = SimplexCategory(NJ, d)
    objects = list(sc.simplex_of.values())
    index = {oid: i for i, oid in enumerate(sc.simplex_of)}
    # an arrow (m, x) -> (n, y) is a monotone alpha with y . alpha = x; a
    # family must satisfy value[(n, y)] . alpha = value[(m, x)], checked, on
    # codes, once both are placed: per object, (target, source, action codes)
    checks: dict = {i: [] for i in range(len(objects))}
    for mid, (src, tgt) in sc.morphisms.items():
        si, ti = index[src], index[tgt]
        checks[max(si, ti)].append((ti, si, R.action_codes(sc.alpha_of[mid], objects[ti][0])))
    # per level, the codes in ``total`` order and the simplices by code
    order = [[R.table(n).code[e] for e in R.total(n)] for n in range(d + 1)]
    cells = [R.table(n).cells for n in range(d + 1)]
    values = [None] * len(objects)
    families = []

    def admissible(pos) -> bool:
        for t, s, act in checks[pos]:
            budget.spend()
            if act[values[t]] != values[s]:
                return False
        return True

    def walk(pos):
        if pos == len(objects):
            families.append({obj: cells[obj[0]][c] for obj, c in zip(objects, values)})
            return
        for v in order[objects[pos][0]]:
            budget.spend()
            values[pos] = v
            if admissible(pos):
                walk(pos + 1)

    walk(0)
    common = min(NJ.dim_bound, R.dim_bound)
    NJ_c = NJ.truncate(common)
    R_c = R.truncate(common)
    maps = enumerate_maps(NJ_c, R_c, budget)
    map_keys = {m.key(): m for m in maps}
    pairing = []
    for fam in families:
        assignment = {x: fam[(m, SimplexExpr((), x))]
                      for m in range(common + 1) for x in NJ_c.nondeg(m)}
        key = SimplicialMap(NJ_c, R_c, assignment).key()
        if key in map_keys:
            pairing.append((fam, map_keys[key]))
    return KanExtensionResult(families, maps, pairing, d)


# ---------------------------------------------------------------------------
# morphisms of prederivators


class StrictMorphism:
    """Components commuting with every listed restriction on the nose.

    ``components`` is kept as given, not copied, so a mapping that builds
    each component on first read (HO(f) in :mod:`qcatkit.whitehead`) stays
    lazy: ``at(J)`` and ``key_on(shapes)`` build only the shapes they read,
    while ``key()`` and ``object_parts()`` read, and so build, them all.
    """

    def __init__(self, source: Prederivator, target: Prederivator, components,
                 name: str = "strict"):
        self.source = source
        self.target = target
        self.components = components  # category name -> Functor
        self.name = name

    def at(self, J_name: str) -> Functor:
        return self.components[J_name]

    def key(self) -> tuple:
        return tuple(sorted((j, F.key()) for j, F in self.components.items()))

    def key_on(self, shapes) -> tuple:
        return tuple(sorted((j, self.components[j].key()) for j in set(shapes)
                            if j in self.components))

    def object_parts(self) -> tuple:
        return tuple(sorted((j, tuple(sorted(F.ob.items())))
                            for j, F in self.components.items()))


class Modification:
    """One natural transformation per shape between two strict morphisms,
    compatible with restriction."""

    def __init__(self, source: StrictMorphism, target: StrictMorphism, components,
                 name: str = "modification"):
        self.source = source
        self.target = target
        self.components = dict(components)  # category name -> NatTransf
        self.name = name

    def at(self, J_name: str) -> NatTransf:
        return self.components[J_name]


def check_strict(F: StrictMorphism) -> ValidationReport:
    """Verify strict 2-naturality over the component scope.

    Shapes without a component (shape-restricted morphisms from the
    enrichment levels) are outside the claim and skipped.
    """
    report = ValidationReport(f"strictness of {F.name}")
    s = F.source.sample
    scope = set(F.components)
    for J_name in sorted(scope):
        report.checked += 1
        comp = F.components[J_name]
        if not comp.validate().ok:
            report.add(f"component at {J_name} is not a functor")
    if not report.ok:
        return report
    for name, u in sorted(s.functors.items()):
        src, dst = s.ends(u)
        if src not in scope or dst not in scope:
            continue
        report.checked += 1
        if not _commutes(F.at(src), F.source.on_functor(u), F.target.on_functor(u), F.at(dst)):
            report.add(f"component square at functor {name} does not commute")
    for name, a in sorted(s.nats.items()):
        src, dst = s.ends(a.source)
        if src not in scope or dst not in scope:
            continue
        a1 = F.source.on_nat(a)
        a2 = F.target.on_nat(a)
        for X in F.source.eval(dst).objects:
            report.checked += 1
            if F.at(src).on_morphism(a1.at(X)) != a2.at(F.at(dst).ob[X]):
                report.add(f"2-morphism {name} not respected at object {X!r}")
                break
    return report


def _commutes(F_src: Functor, u1: Functor, u2: Functor, F_dst: Functor) -> bool:
    """F_src . u1 = u2 . F_dst, compared on u1's object and morphism maps."""
    return (all(F_src.ob[y] == u2.ob[F_dst.ob[x]] for x, y in u1.ob.items())
            and all(F_src.on_morphism(y) == u2.on_morphism(F_dst.mor[m])
                    for m, y in u1.mor.items()))


def check_modification(Xi: Modification) -> ValidationReport:
    """Naturality and endpoints per shape, and for every listed u: J -> K
    and object X at K, u*(Xi_K(X)) = Xi_J(u*X).

    The scope is the shapes where both strict morphisms have components,
    as in ``check_strict``; functors leaving it are skipped.
    """
    report = ValidationReport(f"modification {Xi.name}")
    F, G = Xi.source, Xi.target
    s = F.source.sample
    scope = set(F.components) & set(G.components)
    for J_name in [j for j in s.order if j in scope]:
        report.checked += 1
        comp = Xi.components.get(J_name)
        if comp is None or not comp.validate().ok:
            report.add(f"component at {J_name} missing or not natural")
            continue
        if (comp.source.key() != F.at(J_name).key()
                or comp.target.key() != G.at(J_name).key()):
            report.add(f"component at {J_name} has wrong endpoints")
    if not report.ok:
        return report
    for name, u in sorted(s.functors.items()):
        src, dst = s.ends(u)
        if src not in scope or dst not in scope:
            continue
        ustar1 = F.source.on_functor(u)
        ustar2 = F.target.on_functor(u)
        for X in F.source.eval(dst).objects:
            report.checked += 1
            if ustar2.on_morphism(Xi.at(dst).at(X)) != Xi.at(src).at(ustar1.ob[X]):
                report.add(f"compatibility square at functor {name}, object {X!r} fails")
                break
    return report


def identity_strict(D: Prederivator) -> StrictMorphism:
    return StrictMorphism(D, D, {j: identity_functor(D.eval(j)) for j in D.sample.order},
                          f"id_{D.name}")


# ---------------------------------------------------------------------------
# enumeration of strict morphisms and the rigidity check


def enumerate_strict_morphisms(D1: Prederivator, D2: Prederivator,
                               budget: Budget = None, shapes=None) -> list:
    """All strict morphisms D1 -> D2 with components over the given shapes.

    Backtracks over the sample in declaration order; commutation with every
    listed functor between already-placed shapes prunes the search.
    """
    budget = ensure_budget(budget, f"strict morphisms {D1.name} -> {D2.name}")
    s = D1.sample
    shapes = list(shapes) if shapes is not None else list(s.order)
    functors_between = [(u, *s.ends(u)) for _, u in sorted(s.functors.items())]
    functors_between = [(u, src, dst) for u, src, dst in functors_between
                        if src in shapes and dst in shapes]
    components: dict = {}
    results = []
    fibres: dict = {}  # listed u -> D2's u* as fibre tables over objects and morphisms

    def fibres_of(u, CJ2: FiniteCategory) -> tuple:
        hit = fibres.get(u)
        if hit is None:
            u2 = D2.on_functor(u)
            by_ob: dict = {}
            for Y in CJ2.objects:
                by_ob.setdefault(u2.ob[Y], set()).add(Y)
            by_mor: dict = {}
            for mm in CJ2.morphisms:
                by_mor.setdefault(u2.on_morphism(mm), set()).add(mm)
            hit = fibres[u] = ({y: frozenset(xs) for y, xs in by_ob.items()},
                               {m: frozenset(ms) for m, ms in by_mor.items()})
        return hit

    def allowed_images(J_name: str):
        """Per-object and per-morphism image pools from placed components.

        A listed u: K -> J with K placed pins the whole restriction of the
        J-component; u: J -> K with K placed pins it on the image of the
        restriction.  Both cut the functor search to near-singletons.  The
        fibres of D2's u* are built once per call, and each use charges one
        step per object of D2 at J, as building them does.
        """
        CJ1 = D1.eval(J_name)
        CJ2 = D2.eval(J_name)
        ob_allowed: dict = {}
        mor_allowed: dict = {}

        def cut_ob(x, pool):
            prev = ob_allowed.get(x)
            ob_allowed[x] = pool if prev is None else prev & pool

        def cut_mor(m, pool):
            prev = mor_allowed.get(m)
            mor_allowed[m] = pool if prev is None else prev & pool

        for u, src, dst in functors_between:
            if dst == J_name and src in components and src != J_name:
                u1 = D1.on_functor(u)
                Fsrc = components[src]
                budget.spend(len(CJ2.objects))
                by_ob, by_mor = fibres_of(u, CJ2)
                for X in CJ1.objects:
                    cut_ob(X, by_ob.get(Fsrc.ob[u1.ob[X]], frozenset()))
                for m in CJ1.nonidentity():
                    want = Fsrc.on_morphism(u1.on_morphism(m))
                    cut_mor(m, by_mor.get(want, frozenset()))
            elif src == J_name and dst in components and dst != J_name:
                u1 = D1.on_functor(u)
                u2 = D2.on_functor(u)
                Fdst = components[dst]
                for Z in Fdst.source.objects:
                    budget.spend()
                    cut_ob(u1.ob[Z], {u2.ob[Fdst.ob[Z]]})
                for m in Fdst.source.nonidentity():
                    cut_mor(u1.on_morphism(m), {u2.on_morphism(Fdst.on_morphism(m))})
        return ob_allowed, mor_allowed

    def consistent(J_name: str) -> bool:
        for u, src, dst in functors_between:
            if src not in components or dst not in components:
                continue
            if J_name not in (src, dst):
                continue
            budget.spend()
            if not _commutes(components[src], D1.on_functor(u), D2.on_functor(u),
                             components[dst]):
                return False
        return True

    def walk(pos):
        if pos == len(shapes):
            ok = True
            for _, a in sorted(s.nats.items()):
                src, dst = s.ends(a.source)
                if src not in components or dst not in components:
                    continue
                a1 = D1.on_nat(a)
                a2 = D2.on_nat(a)
                for X in D1.eval(dst).objects:
                    budget.spend()
                    if components[src].on_morphism(a1.at(X)) != a2.at(components[dst].ob[X]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                results.append(StrictMorphism(D1, D2, dict(components)))
            return
        J_name = shapes[pos]
        ob_allowed, mor_allowed = allowed_images(J_name)
        for F in enumerate_functors(D1.eval(J_name), D2.eval(J_name), budget,
                                    ob_allowed=ob_allowed, mor_allowed=mor_allowed):
            components[J_name] = F
            if consistent(J_name):
                walk(pos + 1)
        components.pop(J_name, None)

    walk(0)
    results.sort(key=lambda F: F.key())
    return results


def strict_rigidity_check(D1: Prederivator, D2: Prederivator,
                          budget: Budget = None) -> ValidationReport:
    """Strict morphisms are determined by their underlying set data.

    Also verifies the lift formula: the action on a morphism equals the
    underlying arrow of the action on any of its diagram lifts.
    """
    report = ValidationReport(f"rigidity {D1.name} -> {D2.name}")
    morphisms = enumerate_strict_morphisms(D1, D2, budget)
    report.checked += len(morphisms)
    by_objects: dict = {}
    for F in morphisms:
        by_objects.setdefault(F.object_parts(), []).append(F)
    for obs, group in sorted(by_objects.items()):
        if len(group) > 1:
            report.add(f"{len(group)} distinct strict morphisms share "
                       "the same underlying set data")
    # lift formula at every shape with an annotated interval shift
    for F in morphisms:
        for J_name in sorted(D1.sample.shifts):
            src1, on_obj1, _ = dia_arrow(D1, J_name)
            _, on_obj2, _ = dia_arrow(D2, J_name)
            shift = D1.sample.shift_name(J_name)
            for m in D1.eval(J_name).nonidentity():
                lifts = [X for X in src1.objects if on_obj1(X) == m]
                for X in lifts:
                    report.checked += 1
                    if F.at(J_name).on_morphism(m) != on_obj2(F.at(shift).ob[X]):
                        report.add(f"lift formula fails at {J_name}, morphism {m!r}")
                        break
    report.enumerated = len(morphisms)
    return report


# ---------------------------------------------------------------------------
# sample manifest files


def sample_to_manifest(s: DiaSample, directory: Path) -> dict:
    """Write the categories as .cat files and return the manifest data."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cats = {}
    for i, name in enumerate(s.order):
        fname = f"cat{i:02d}.cat"
        (directory / fname).write_text(cat_to_text(s.cat(name)))
        cats[name] = fname
    # a nat's ends are the names of its listed functors, the first name if several
    listed = {F: n for n, F in sorted(s.functors.items(), reverse=True)}
    manifest = {
        "name": s.name,
        "order": list(s.order),
        "categories": cats,
        "functors": [
            {"name": n, "src": s.ends(F)[0], "dst": s.ends(F)[1],
             "ob": dict(sorted(F.ob.items())), "mor": dict(sorted(F.mor.items()))}
            for n, F in sorted(s.functors.items())],
        "nats": [
            {"name": n, "src": listed[a.source], "dst": listed[a.target],
             "components": dict(sorted(a.components.items()))}
            for n, a in sorted(s.nats.items())],
        "products": {f"{a}|{b}": p for (a, b), p in sorted(s.products.items())},
        "coproducts": {f"{a}|{b}": p for (a, b), p in sorted(s.coproducts.items())},
        "shifts": dict(sorted(s.shifts.items())),
        "terminal": s.terminal,
        "initial": s.initial,
    }
    (directory / "sample.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def sample_from_manifest(path) -> DiaSample:
    path = Path(path)
    data = json.loads(path.read_text())
    s = DiaSample(data.get("name", "sample"))
    for name in data.get("order", sorted(data["categories"])):
        rel = data["categories"][name]
        s.add_category(name, cat_from_text((path.parent / rel).read_text(), name))
    for spec in data.get("functors", []):
        F = Functor(s.cat(spec["src"]), s.cat(spec["dst"]), spec["ob"], spec["mor"],
                    spec["name"])
        s.add_functor(spec["name"], F)
    for spec in data.get("nats", []):
        a = NatTransf(s.functors[spec["src"]], s.functors[spec["dst"]],
                      spec["components"], spec["name"])
        s.add_nat(spec["name"], a)
    s.products = {tuple(k.split("|")): v for k, v in data.get("products", {}).items()}
    s.coproducts = {tuple(k.split("|")): v for k, v in data.get("coproducts", {}).items()}
    s.shifts = dict(data.get("shifts", {}))
    s.terminal = data.get("terminal")
    s.initial = data.get("initial")
    return s
