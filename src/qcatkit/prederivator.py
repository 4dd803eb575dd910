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
mates J x [1] -> K of the listed 2-cells.  A simplex of N(J x [1]) is a
chain of pairs, so a transport reads the mate off the chains of N(J) and
the vertices of Δ1 and builds no product category, nerve or comparison
map for it.  Compiled against a base, a plan sends the
code tuples of a whole batch of cells to those of their images a column at
a time (:func:`qcatkit.mapping.transport`), so u* of every base over the
sample is two transports, one per level, and alpha* is one.  The
strict-morphism search likewise keeps the fibre tables of the restrictions
it reads and builds its image pools a table at a time; the pools force
every commutation square between two shapes, so only the square of a
listed u: J -> J is checked on the components found.  The functor search
out of a category follows the category's own ``search_plan``: it branches
on the images of objects and generators only, and reads every other image
off a factorisation.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from operator import and_, eq, ne
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
    monotone_functor,
    pair_functor,
    pairing,
    validate_category,
    vertical_compose,
)
from .delocalization import SimplexCategory
from .mapping import (Exponential, ExponentFrame, full_degeneracy, induced_functor, plan_columns,
                      slot_plan, transport)
from .nerve import nerve, nerve_map
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    ValidationReport,
    check_collapse,
    enumerate_maps,
    inner_collapse,
)
from .util import Budget, ensure_budget, memo


# ---------------------------------------------------------------------------
# the diagram sample


class ClosureError(ValueError):
    pass


class DiaSample:
    """Finite stand-in for a 2-category of diagram shapes.

    Annotations declare the structure the operations rely on:
    ``products[(a, b)]`` names a member built by ``product_cat``;
    ``shifts[j]`` names the member playing j x [1]; ``coproducts`` names
    ``coproduct_cat`` members, which with ``initial`` give the members that
    Der1 decides (``der1_shapes``).  ``functors`` and ``nats`` list the
    (named) 1- and 2-morphisms that strictness and functoriality are
    checked against.  A member is known by its object, not by an equal
    copy: ``ends`` names the source and target of a functor by identity.
    The sample memoizes its members' nerves (``nerve``) and their
    inner-anodyne models (``model``), so every exponential over one member
    shares one nerve and with it one exponent frame, and per morphism and
    pair of frames the restriction plans (``restriction``) and 2-cell
    transports (``transport``), so every base over the sample shares those
    too; morphisms compare by value.
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
        if name in self.functors:
            raise ValueError(f"duplicate sample functor {name!r}")
        self.functors[name] = F
        return F

    def add_nat(self, name: str, a: NatTransf) -> NatTransf:
        if name in self.nats:
            raise ValueError(f"duplicate sample 2-cell {name!r}")
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

    def functor(self, name: str) -> Functor:
        if name not in self.functors:
            raise ClosureError(f"sample {self.name} lists no functor {name!r}")
        return self.functors[name]

    @memo
    def nerve(self, name: str) -> TruncatedSSet:
        """N(name) truncated at 2, built once."""
        return nerve(self.cat(name), 2)

    @memo
    def model(self, name: str) -> TruncatedSSet:
        """The model M ⊂ N(name) that equivalences are detected on: the
        nerve's :func:`qcatkit.simplicial.inner_collapse`, built once, its
        certificate replayed by :func:`qcatkit.simplicial.check_collapse`,
        and the nerve itself when nothing collapses.  M ⊂ N(J) is inner
        anodyne, so for a quasicategory Q, Ho(Q^{N(J)}) -> Ho(Q^M) is an
        equivalence of categories.  Charges no steps."""
        N = self.nerve(name)
        M, collapses = inner_collapse(N)
        report = check_collapse(N, M, collapses)
        if not report.ok:
            raise ValueError(f"model of {name}: {report.violations[0]}")
        return M

    @memo
    def restriction(self, u: Functor, fj: ExponentFrame, fk: ExponentFrame) -> tuple:
        """N(u) x Δl: N(J) x Δl -> N(K) x Δl for l = 0, 1, as the
        :func:`qcatkit.mapping.slot_plan` over the exponent frames fj of N(J)
        and fk of N(K).  Against a base Q (:func:`qcatkit.mapping.plan_columns`)
        entry l sends the code tuples of cells mu of Q^{N(K)} to those of the
        mu . N(u) x Δl, a batch at a time (:func:`qcatkit.mapping.transport`)."""
        nu = nerve_map(u, fj.exponent, fk.exponent)
        return tuple(slot_plan(Pj, Pk, lambda e1, e2: Pk.pair_expr(nu.apply(e1), e2))
                     for Pj, Pk in ((fj.products[level], fk.products[level]) for level in (0, 1)))

    @memo
    def transport(self, alpha: NatTransf, fj: ExponentFrame, fk: ExponentFrame) -> tuple:
        """N(J) x Δ1 -> N(K) x Δ0 through the mate of alpha: J x [1] -> K, as
        the :func:`qcatkit.mapping.slot_plan` over the exponent frames fj of
        N(J) and fk of N(K).  Its :func:`qcatkit.mapping.transport` against a
        base sends the code tuples of vertices mu of Q^{N(K)} to those of the
        level-1 cells of Q^{N(J)} that the mu precomposed with the transport are.

        A simplex of N(J x [1]) is a chain of pairs, so a cell (e1|e2) goes
        to the K-chain the mate makes of e1's J-chain and e2's vertices:
        steps over 0 take u, steps over 1 take v, and the step from 0 to 1
        over m takes alpha at the codomain of m after u(m)."""
        u, v = alpha.source, alpha.target
        J, K = fj.exponent.cat, fk.exponent.cat
        Pk = fk.products[0]

        def image(e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
            x, *ms = fj.exponent.expr_chain(e1)
            times = list(e2.base)
            for j in reversed(e2.word):  # s_j repeats vertex j
                times.insert(j, times[j])
            chain = [(u if times[0] == "0" else v).ob[x]]
            for m, s, t in zip(ms, times, times[1:]):
                chain.append(K.compose(alpha.at(J.cod(m)), u.on_morphism(m)) if s != t
                             else (u if s == "0" else v).on_morphism(m))
            return Pk.pair_expr(fk.exponent.chain_expr(chain),
                                SimplexExpr(full_degeneracy(len(ms)), "0"))

        return slot_plan(fj.products[1], Pk, image)

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
                self.add_functor(f"vx_{name}_{obj}",
                                 constant_functor(point, C, obj, f"vx_{C.name}_{obj}"))

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
            if fault := self.coproduct_fault(a, b, p):
                report.add(fault)
        for j, p in self.shifts.items():
            report.checked += 1
            want = product_cat(self.cat(j), poset_simplex(1))
            if want.canonical_key() != self.cat(p).canonical_key():
                report.add(f"shift annotation for {j} is not {j} x [1]")
        for end in ("terminal", "initial"):
            if getattr(self, end) is not None:
                report.checked += 1
                if fault := self.end_fault(end):
                    report.add(fault)
        if self.terminal is None:  # Der2 and the unit functors read it
            report.checked += 1
            report.add("no terminal annotation")
        return report

    def coproduct_fault(self, a: str, b: str, p: str) -> str | None:
        """Why the annotation ``coproducts[(a, b)] = p`` does not hold, or None."""
        if coproduct_cat(self.cat(a), self.cat(b)).canonical_key() != self.cat(p).canonical_key():
            return f"coproduct annotation {a} + {b} = {p} is not the coproduct"
        return None

    def end_fault(self, end: str) -> str | None:
        """Why the ``terminal`` or ``initial`` annotation does not hold, or
        None: the terminal category has one object and one morphism, the
        initial one none."""
        name, size = getattr(self, end), int(end == "terminal")
        C = self.cat(name)
        if (len(C.objects), len(C.morphisms)) != (size, size):
            return f"{end} annotation {name} is not the {end} category"
        return None

    def der1_shapes(self) -> set:
        """The members whose value under a prederivator satisfying Der1 is
        fixed by members read before them: the ``initial`` one, whose value
        is the point, and each coproduct A + B whose summands come before it
        in ``order``, whose value is the product of theirs.  Every
        ``coproducts`` annotation and the ``initial`` one are checked first,
        as ``validate`` checks them; one that does not hold is a
        ``ClosureError`` naming it."""
        faults = [self.coproduct_fault(a, b, p) for (a, b), p in self.coproducts.items()]
        position = {name: i for i, name in enumerate(self.order)}
        shapes = {p for (a, b), p in self.coproducts.items()
                  if max(position[a], position[b]) < position[p]}
        if self.initial is not None:
            faults.append(self.end_fault("initial"))
            shapes.add(self.initial)
        for fault in filter(None, faults):
            raise ClosureError(f"sample {self.name}: {fault}")
        return shapes


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

    Subclasses provide ``_eval``, ``_on_functor`` and ``_on_nat``.  ``eval``,
    ``on_functor`` and ``on_nat`` are :func:`qcatkit.util.memo` methods, so
    repeated queries return identical values.  Shape functors and 2-cells
    compare by value, so a composite built twice finds the first answer.
    """

    def __init__(self, sample: DiaSample, name: str = "prederivator"):
        self.sample = sample
        self.name = name

    # subclass hooks ------------------------------------------------------

    def _eval(self, J_name: str) -> FiniteCategory:
        raise NotImplementedError

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        raise NotImplementedError

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        raise NotImplementedError

    # public API ----------------------------------------------------------

    @memo
    def eval(self, J_name: str) -> FiniteCategory:
        self.sample.cat(J_name)
        return self._eval(J_name)

    @memo
    def on_functor(self, u: Functor) -> Functor:
        return self._on_functor(u, *self.sample.ends(u))

    @memo
    def on_nat(self, alpha: NatTransf) -> NatTransf:
        return self._on_nat(alpha, *self.sample.ends(alpha.source))

    def check_two_functoriality(self) -> ValidationReport:
        """Exhaustive 2-functor laws over the listed sample morphisms."""
        report = ValidationReport(f"2-functoriality of {self.name}")
        s = self.sample
        for name in s.order:
            report.checked += 1
            img = self.on_functor(s.functors[f"id_{name}"])
            if img != identity_functor(self.eval(name)):
                report.add(f"identity of {name} not preserved")
        for n2, n1 in s.composable_functor_pairs():
            u, v = s.functors[n1], s.functors[n2]
            report.checked += 1
            lhs = self.on_functor(compose_functors(v, u))
            rhs = compose_functors(self.on_functor(u), self.on_functor(v))
            if lhs != rhs:
                report.add(f"composition {n2} o {n1} not respected")
        for name, a in sorted(s.nats.items()):
            report.checked += 1
            img = self.on_nat(a)
            if not img.validate().ok:
                report.add(f"image of {name} is not natural")
            usrc = self.on_functor(a.source)
            udst = self.on_functor(a.target)
            if img.source != usrc or img.target != udst:
                report.add(f"image of {name} has wrong endpoints")
        # vertical composition on composable listed nat pairs
        for n1, a in sorted(s.nats.items()):
            for n2, b in sorted(s.nats.items()):
                if b.source is not a.target:
                    continue
                report.checked += 1
                lhs = self.on_nat(vertical_compose(b, a))
                rhs = vertical_compose(self.on_nat(b), self.on_nat(a))
                if lhs.components != rhs.components:
                    report.add(f"vertical composition {n2} . {n1} not respected")
        # horizontal composition on listed nat pairs with matching middles
        for n1, a in sorted(s.nats.items()):
            for n2, b in sorted(s.nats.items()):
                if b.source.source is not a.source.target:
                    continue
                report.checked += 1
                lhs = self.on_nat(horizontal_compose(b, a))
                rhs = horizontal_compose(self.on_nat(a), self.on_nat(b))
                if lhs.components != rhs.components:
                    report.add(f"horizontal composition {n2} * {n1} not respected")
        return report


class HoPrederivator(Prederivator):
    """The prederivator of a quasicategory: J -> Ho(Q^{N(J)}).

    u*: Ho(Q^{N(K)}) -> Ho(Q^{N(J)}) precomposes cells with N(u) x Δl
    through the sample's ``restriction`` of u, which depends on the
    shapes alone and so is built once for every base over the sample.  The
    objects of Ho(Q^{N(K)}) go through in one batch, the representatives of
    its morphisms in another, and alpha* transports the objects likewise.

    ``model_data(J)`` is Q^M for the sample's model M of N(J), which
    verdicts invariant under equivalence at J may read in place of
    ``data(J)``; the values, u* and alpha* keep N(J).
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

    @memo
    def model_data(self, J_name: str) -> Exponential:
        """Q^M for the sample's model M of N(J) (``DiaSample.model``), built
        once: ``data(J)`` itself where M is the nerve, so no exponential is
        built twice.  Ho(Q^{N(J)}) -> Ho(Q^M), restriction along M ⊂ N(J),
        is an equivalence, so Ho(f^M) is one iff HO(f) is at J."""
        M = self.sample.model(J_name)
        if M is self.sample.nerve(J_name):
            return self.data(J_name)
        return self._exponential(M, J_name)

    def _exponential(self, S: TruncatedSSet, J_name: str) -> Exponential:
        try:
            return Exponential(self.Q, S, 2, self.budget)
        except ValueError as err:
            raise type(err)(f"evaluation at {J_name} failed: {err}") from None

    def _eval(self, J_name: str) -> FiniteCategory:
        E = self._data[J_name] = self._exponential(self.sample.nerve(J_name), J_name)
        E.ho.category.name = f"{self.name}({J_name})"
        return E.ho.category

    def _on_functor(self, u: Functor, src: str, dst: str) -> Functor:
        # contravariant: u: J -> K induces u*: eval(K) -> eval(J)
        dj, dk = self.data(src), self.data(dst)
        plans = self.sample.restriction(u, dj.frame, dk.frame)
        return induced_functor(dk, dj, lambda batch, level: transport(
            batch, plan_columns(plans[level], dj.products[level], dj.T_t)),
            f"{self.name}({u.name})*")

    def _on_nat(self, alpha: NatTransf, src: str, dst: str) -> NatTransf:
        ustar = self.on_functor(alpha.source)
        vstar = self.on_functor(alpha.target)
        dj, dk = self._data[src], self._data[dst]
        # each component precomposes the sample's transport through the mate
        columns = plan_columns(self.sample.transport(alpha, dj.frame, dk.frame),
                               dj.products[1], dj.T_t)
        comps = dict(zip(dk.ho.category.objects,
                         map(dj.ho_morphism, transport(dk.ho_batches[0], columns))))
        return NatTransf(ustar, vstar, comps, f"{self.name}({alpha.name})*")


# ---------------------------------------------------------------------------
# partial diagram functors and the Der audits


@memo
def dia_arrow(D: Prederivator, J_name: str) -> tuple:
    """The tables of dia_J^{[1]}: D(J x [1]) -> D(J)^{[1]}, kept on D.

    Returns the value at the shift J x [1]; per object of it, the arrow of
    D(J) it goes to (its component of step_J*); and per morphism m of it,
    the pair (i0*(m), i1*(m)).  A sample that annotates the shift but does
    not list ``end0_J``, ``end1_J`` or ``step_J`` is a ``ClosureError``.
    """
    s = D.sample
    shift = s.shift_name(J_name)
    names = (f"end0_{J_name}", f"end1_{J_name}", f"step_{J_name}")
    for name, listed in zip(names, (s.functors, s.functors, s.nats)):
        if name not in listed:
            raise ClosureError(f"sample {s.name} lacks {name} for the shift {J_name} x [1]")
    i0_star, i1_star = (D.on_functor(s.functors[name]) for name in names[:2])
    step_star = D.on_nat(s.nats[names[2]])
    source = D.eval(shift)
    return (source, {X: step_star.at(X) for X in source.objects},
            {m: (i0_star.on_morphism(m), i1_star.on_morphism(m)) for m in source.morphisms})


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
        la = D.on_functor(s.functor(f"inl_{cname}"))
        rb = D.on_functor(s.functor(f"inr_{cname}"))
        cmp_functor = pairing(la, rb, product_cat(D.eval(a), D.eval(b)), f"der1_{cname}")
        if not cmp_functor.validate().ok:
            report.add(f"comparison functor at {cname} is not a functor")
            continue
        if equivalence_inverse(cmp_functor, budget) is None:
            report.add(f"comparison eval({cname}) -> eval({a}) x eval({b}) "
                       "is not an equivalence")
    return report


def check_der2(D: Prederivator) -> ValidationReport:
    """Conservativity of the underlying diagram functor, every sample shape."""
    report = ValidationReport(f"Der2 for {D.name} over {D.sample.name}")
    s = D.sample
    if s.terminal is None:
        raise ClosureError(f"sample {s.name} has no terminal annotation, which Der2 compares with")
    for J_name in s.order:
        J = s.cat(J_name)
        C = D.eval(J_name)
        vertex_stars = {
            obj: D.on_functor(s.functor(f"vx_{J_name}_{obj}"))
            for obj in J.objects}
        for m in C.nonidentity():
            if C.is_iso(m):
                continue
            report.checked += 1
            components = [vertex_stars[obj].on_morphism(m) for obj in J.objects]
            base = D.eval(s.terminal)
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


def check_der5(D: Prederivator) -> tuple:
    """The Der5 and Der5' reports of one pass: dia_J^{[1]} is full, and
    essentially (Der5) or strictly (Der5') surjective.

    Runs at every shape whose interval shift is annotated in the sample,
    over its ``dia_arrow`` table.  The two reports share the surjectivity
    scan and the fullness squares: Der5' flags every arrow of D(J) with no
    preimage diagram, Der5 only those with no isomorphic image.
    """
    scope = f"{D.name} over {D.sample.name} (shapes: {sorted(D.sample.shifts)})"
    der5, der5p = ValidationReport(f"Der5 for {scope}"), ValidationReport(f"Der5' for {scope}")
    checked = 0
    for J_name in sorted(D.sample.shifts):
        src, arrow, ends = dia_arrow(D, J_name)
        CJ = D.eval(J_name)
        hit = set(arrow.values())
        checked += len(CJ.morphisms)
        # surjectivity on objects: every arrow of eval(J) is a diagram
        for f in sorted(set(CJ.morphisms) - hit):
            der5p.add(f"{J_name}: arrow {f!r} of eval({J_name}) has no preimage diagram")
            if not any(CJ.is_iso(p0) and CJ.is_iso(p1)
                       for fx in hit for p0, p1 in _commuting_squares(CJ, fx, f)):
                der5.add(f"{J_name}: arrow {f!r} is not even isomorphic to a diagram image")
        # fullness
        for X in src.objects:
            for Y in src.objects:
                lifts = {ends[m] for m in src.hom(X, Y)}
                for square in _commuting_squares(CJ, arrow[X], arrow[Y]):
                    checked += 1
                    if square not in lifts:
                        violation = f"{J_name}: square {square!r} from {X!r} to {Y!r} has no lift"
                        der5.add(violation)
                        der5p.add(violation)
    der5.checked = der5p.checked = checked
    return der5, der5p


def der_audit(D: Prederivator, budget: Budget = None) -> dict:
    """The four axiom audits, as a name -> report mapping: Der1, Der2, then
    Der5 and Der5' from the one pass of ``check_der5``."""
    audits = {"Der1": check_der1(D, budget), "Der2": check_der2(D)}
    audits["Der5"], audits["Der5'"] = check_der5(D)
    return audits


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
    order = [R.token_order(n) for n in range(d + 1)]
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
    """F_src . u1 = u2 . F_dst on u1's object and morphism tables, a table at a time."""
    ob, mor = u1.ob, u1.mor
    return (list(map(F_src.ob.__getitem__, ob.values()))
            == list(map(u2.ob.__getitem__, map(F_dst.ob.__getitem__, ob)))
            and list(map(F_src.images.__getitem__, mor.values()))
            == list(map(u2.images.__getitem__, map(F_dst.mor.__getitem__, mor))))


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
        if comp.source != F.at(J_name) or comp.target != G.at(J_name):
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
    listed functor between already-placed shapes prunes the search.  The
    image pools that the placed components impose on the next one are
    built a table at a time from the functors' ``ob`` and ``images``, and
    intersected key by key (:func:`_meet`).
    """
    budget = ensure_budget(budget, f"strict morphisms {D1.name} -> {D2.name}")
    s = D1.sample
    shapes = list(shapes) if shapes is not None else list(s.order)
    functors_between = [(u, *s.ends(u)) for _, u in sorted(s.functors.items())]
    functors_between = [(u, src, dst) for u, src, dst in functors_between
                        if src in shapes and dst in shapes]
    components: dict = {}
    # per shape J, D1's and D2's u* for each listed u: J -> J that is not the
    # identity of both: a square from the component to itself, which no
    # pool can force, so it is checked on each component found
    loops: dict = {}
    results = []

    def allowed_images(J_name: str):
        """Per-object and per-morphism image pools from placed components.

        A listed u: K -> J with K placed pins the whole restriction of the
        J-component: its pools are the fibres of all such u* of D2 together
        (:func:`_fibres`), each u charging one step per object of D2 at J.
        A listed u: J -> K with K placed pins it on the image of the
        restriction, one step per object of D1 at K; where u* of D1 sends a
        non-identity to an identity of D1 at J, the pin holds the image of
        that identity, so it cuts its object's pool to the objects whose
        identity the pin holds.  Both cut the functor search to
        near-singletons, and the pools force every commutation square
        between J and a placed shape other than J.
        """
        CJ1 = D1.eval(J_name)
        CJ2 = D2.eval(J_name)
        objects, nonid = CJ1.objects, CJ1.nonidentity()
        ob_allowed: dict = {}
        mor_allowed: dict = {}
        into, obs, mors = [], [], []  # per u: K -> J, D2's u* and the images it must give
        for u, src, dst in functors_between:
            if dst == J_name and src in components and src != J_name:
                u1 = D1.on_functor(u)
                Fsrc = components[src]
                budget.spend(len(CJ2.objects))
                into.append(D2.on_functor(u))
                obs.append(map(Fsrc.ob.__getitem__, map(u1.ob.__getitem__, objects)))
                mors.append(map(Fsrc.images.__getitem__, map(u1.images.__getitem__, nonid)))
            elif src == J_name and dst in components and dst != J_name:
                u1 = D1.on_functor(u)
                u2 = D2.on_functor(u)
                Fdst = components[dst]
                zs, ms = Fdst.source.objects, Fdst.source.nonidentity()
                budget.spend_each(len(zs))
                _meet(ob_allowed, _pins(map(u1.ob.__getitem__, zs),
                                        map(u2.ob.__getitem__, map(Fdst.ob.__getitem__, zs))))
                _meet(mor_allowed, _pins(map(u1.images.__getitem__, ms),
                                         map(u2.images.__getitem__,
                                             map(Fdst.images.__getitem__, ms))))
        if into:
            by_ob, by_mor = _fibres(D2, tuple(into))
            _meet(ob_allowed, dict(zip(objects, map(by_ob.get, zip(*obs), repeat(frozenset())))))
            _meet(mor_allowed, dict(zip(nonid, map(by_mor.get, zip(*mors), repeat(frozenset())))))
        # a pin on the identity of x holds the identity of x's image
        _meet(ob_allowed, {x: frozenset(y for y in CJ2.objects
                                        if CJ2.identities[y] in mor_allowed[i])
                           for x, i in CJ1.identities.items() if i in mor_allowed})
        return ob_allowed, mor_allowed

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
        if J_name not in loops:
            stars = [(D1.on_functor(u), D2.on_functor(u))
                     for u, src, dst in functors_between if src == dst == J_name]
            loops[J_name] = [(u1, u2) for u1, u2 in stars if not all(
                all(map(eq, t, t.values())) for t in (u1.ob, u1.mor, u2.ob, u2.mor))]
        for F in enumerate_functors(D1.eval(J_name), D2.eval(J_name), budget,
                                    ob_allowed=ob_allowed, mor_allowed=mor_allowed):
            components[J_name] = F
            budget.spend(len(loops[J_name]))
            if all(_commutes(F, u1, u2, F) for u1, u2 in loops[J_name]):
                walk(pos + 1)
        components.pop(J_name, None)

    walk(0)
    results.sort(key=lambda F: F.key())
    return results


@memo
def _fibres(D: Prederivator, us: tuple) -> tuple:
    """The objects and morphisms of a value of D by their images under ``us``; kept on D."""
    fibres: tuple = ({}, {})
    for preimages, tables in zip(fibres, ([u.ob for u in us], [u.images for u in us])):
        for x in tables[0]:
            preimages.setdefault(tuple(t[x] for t in tables), set()).add(x)
    return fibres


def _meet(pools: dict, new: dict) -> None:
    """Intersect ``pools`` with ``new`` key by key; a key new to ``pools`` takes new's."""
    shared = list(filter(pools.__contains__, new))
    met = list(map(and_, map(pools.__getitem__, shared), map(new.__getitem__, shared)))
    pools.update(new)
    pools.update(zip(shared, met))


def _pins(keys, values) -> dict:
    """Per key, the one value paired with it as a pool; empty if they differ."""
    keys, pools = list(keys), list(map(frozenset, zip(values)))
    pins = dict(zip(keys, pools))
    pins.update(dict.fromkeys(compress(keys, map(ne, map(pins.__getitem__, keys), pools)),
                              frozenset()))
    return pins


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
    # lift formula at every shape with an annotated interval shift; the
    # tables are read only when there is a morphism to check
    shapes = []
    for J_name in sorted(D1.sample.shifts) if morphisms else ():
        lifts: dict = {}
        for X, f in dia_arrow(D1, J_name)[1].items():
            lifts.setdefault(f, []).append(X)
        shapes.append((J_name, D1.sample.shift_name(J_name), lifts, dia_arrow(D2, J_name)[1]))
    for F in morphisms:
        for J_name, shift, lifts, arrow2 in shapes:
            for m in D1.eval(J_name).nonidentity():
                for X in lifts.get(m, ()):
                    report.checked += 1
                    if F.at(J_name).on_morphism(m) != arrow2[F.at(shift).ob[X]]:
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
    """The sample a manifest describes; a sample that fails ``validate`` is a
    ``ClosureError`` naming its first violation."""
    path = Path(path)
    data = json.loads(path.read_text())
    s = DiaSample(data.get("name", "sample"))
    files = data["categories"]
    for name in data.get("order", sorted(files)):
        if name not in files:
            raise ClosureError(f"{path.name}: the order lists {name!r}, which has no category file")
        s.add_category(name, cat_from_text((path.parent / files[name]).read_text(), name))
    for spec in data.get("functors", []):
        F = Functor(s.cat(spec["src"]), s.cat(spec["dst"]), spec["ob"], spec["mor"],
                    spec["name"])
        s.add_functor(spec["name"], F)
    for spec in data.get("nats", []):
        a = NatTransf(s.functor(spec["src"]), s.functor(spec["dst"]),
                      spec["components"], spec["name"])
        s.add_nat(spec["name"], a)
    s.products = {tuple(k.split("|")): v for k, v in data.get("products", {}).items()}
    s.coproducts = {tuple(k.split("|")): v for k, v in data.get("coproducts", {}).items()}
    s.shifts = dict(data.get("shifts", {}))
    s.terminal = data.get("terminal")
    s.initial = data.get("initial")
    report = s.validate()
    if not report.ok:
        raise ClosureError(f"{report.name}: {report.violations[0]}")
    return s
