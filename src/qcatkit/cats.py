"""Finite categories with explicit composition tables.

Everything is extensional: objects and morphisms are identifier strings,
composition is a total table on composable pairs, and all laws are
exhaustively checkable.  Functors and natural transformations are plain
dictionaries validated against the tables.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .simplicial import ValidationReport
from .util import Budget, ensure_budget


class FiniteCategory:
    def __init__(self, objects, morphisms, compose, identities, name: str = "cat"):
        self.objects = tuple(sorted(objects))
        self.morphisms = dict(morphisms)        # id -> (dom, cod)
        self.compose_table = dict(compose)      # (g, f) -> g∘f, non-identity pairs
        self.identities = dict(identities)      # object -> morphism id
        self.name = name
        self._identity_set = frozenset(self.identities.values())
        self._homs = None
        self._iso_cache: dict = {}
        self._nonidentity = None

    # -- structure queries -------------------------------------------------

    def dom(self, m: str) -> str:
        return self.morphisms[m][0]

    def cod(self, m: str) -> str:
        return self.morphisms[m][1]

    def is_identity(self, m: str) -> bool:
        return m in self._identity_set

    def hom(self, a: str, b: str) -> tuple:
        if self._homs is None:  # every hom set in one pass over the morphisms
            homs: dict = {}
            for m in sorted(self.morphisms):
                homs.setdefault(self.morphisms[m], []).append(m)
            self._homs = {ends: tuple(ms) for ends, ms in homs.items()}
        return self._homs.get((a, b), ())

    def nonidentity(self) -> tuple:
        """The non-identity morphisms, sorted once."""
        if self._nonidentity is None:
            self._nonidentity = tuple(sorted(m for m in self.morphisms
                                             if not self.is_identity(m)))
        return self._nonidentity

    @cached_property
    def composites(self) -> dict:
        """g ∘ f for every composable pair (g, f), identities included: the
        pairs on which ``compose`` answers, each with its answer.  Built on
        first read, from ``compose_table`` and one pass over the morphisms
        for the identity pairs."""
        morphisms, ids = self.morphisms, self._identity_set
        table = {(g, f): h for (g, f), h in self.compose_table.items()
                 if g in morphisms and f in morphisms and g not in ids and f not in ids
                 and morphisms[f][1] == morphisms[g][0]}
        out_of: dict = {}  # object -> the morphisms out of it
        for m, (d, _) in morphisms.items():
            out_of.setdefault(d, []).append(m)
        for f, (_, c) in morphisms.items():
            if f in ids:
                table.update(((g, f), g) for g in out_of.get(c, ()))
            else:
                table.update(((g, f), f) for g in out_of.get(c, ()) if g in ids)
        return table

    def compose(self, g: str, f: str) -> str:
        """g ∘ f for cod(f) = dom(g), read off ``composites``; any other pair
        raises as the rule below does."""
        h = self.composites.get((g, f))
        return h if h is not None else self._compose(g, f)

    def _compose(self, g: str, f: str) -> str:
        if self.cod(f) != self.dom(g):
            raise ValueError(f"morphisms {g!r} and {f!r} are not composable")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        return self.compose_table[(g, f)]

    def is_iso(self, m: str) -> bool:
        if m in self._iso_cache:
            return self._iso_cache[m]
        self._iso_cache[m] = self.inverse(m) is not None
        return self._iso_cache[m]

    def inverse(self, m: str):
        a, b = self.morphisms[m]
        for g in self.hom(b, a):
            if self.compose(g, m) == self.identities[a] and self.compose(m, g) == self.identities[b]:
                return g
        return None

    def isos_between(self, a: str, b: str) -> list:
        return [m for m in self.hom(a, b) if self.is_iso(m)]

    @cached_property
    def search_plan(self) -> tuple:
        """The placements of :func:`enumerate_functors` out of this category.

        Objects come in sorted order, each followed by the morphisms whose
        later endpoint it is.  An object x is (x, None, identity of x); a
        morphism m is (m, (dom, cod), triples), where ``triples`` lists the
        entries (g, f, g . f) of the composition table, in table order, whose
        last member to get an image is m: an identity gets its image with
        its object.
        """
        placed, at, order = set(), {}, []  # at: morphism -> position of its image
        for x in self.objects:
            placed.add(x)
            at[self.identities[x]] = len(order)
            order.append((x, None, self.identities[x]))
            for m in self.nonidentity():
                if x in self.morphisms[m] and set(self.morphisms[m]) <= placed:
                    at[m] = len(order)
                    order.append((m, self.morphisms[m], []))
        for (g, f), h in self.compose_table.items():
            _, ends, triples = order[max(at[g], at[f], at[h])]
            if ends is not None:  # a triple of identities is never checked
                triples.append((g, f, h))
        return tuple((name, ends, tuple(last) if ends else last)
                     for name, ends, last in order)

    def canonical_key(self) -> tuple:
        return (self.objects, tuple(sorted(self.morphisms.items())),
                tuple(sorted(self.compose_table.items())),
                tuple(sorted(self.identities.items())))

    def __repr__(self):
        return f"<cat {self.name}: {len(self.objects)} objects, {len(self.morphisms)} morphisms>"


def validate_category(C: FiniteCategory) -> ValidationReport:
    """Exhaustive unit and associativity check."""
    report = ValidationReport(C.name)
    for x in C.objects:
        report.checked += 1
        i = C.identities.get(x)
        if i is None or i not in C.morphisms:
            report.add(f"missing identity for object {x!r}")
        elif C.morphisms[i] != (x, x):
            report.add(f"identity of {x!r} is not an endomorphism")
    for m, (d, c) in sorted(C.morphisms.items()):
        if d not in C.objects or c not in C.objects:
            report.add(f"morphism {m!r} has unknown endpoint")
    if not report.ok:
        return report
    nonid = C.nonidentity()
    for g in nonid:
        for f in nonid:
            comp = (C.cod(f) == C.dom(g))
            present = (g, f) in C.compose_table
            report.checked += 1
            if comp and not present:
                report.add(f"missing composite {g!r} . {f!r}")
            elif present and not comp:
                report.add(f"composite declared for non-composable pair {g!r} . {f!r}")
            elif present:
                h = C.compose_table[(g, f)]
                if h not in C.morphisms or C.morphisms[h] != (C.dom(f), C.cod(g)):
                    report.add(f"composite {g!r} . {f!r} = {h!r} has wrong endpoints")
    if not report.ok:
        return report
    for h in nonid:
        for g in nonid:
            if C.cod(g) != C.dom(h):
                continue
            hg = C.compose(h, g)
            for f in nonid:
                if C.cod(f) != C.dom(g):
                    continue
                report.checked += 1
                if C.compose(hg, f) != C.compose(h, C.compose(g, f)):
                    report.add(f"associativity fails on triple ({h!r}, {g!r}, {f!r})")
    return report


# ---------------------------------------------------------------------------
# builders


def poset_simplex(n: int) -> FiniteCategory:
    """The poset 0 < 1 < ... < n as a category."""
    if n < 0:
        raise ValueError("poset size must be nonnegative")
    objects = [str(i) for i in range(n + 1)]
    morphisms = {}
    identities = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            m = f"m{i}{j}"
            morphisms[m] = (str(i), str(j))
            if i == j:
                identities[str(i)] = m
    compose = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                compose[(f"m{j}{k}", f"m{i}{j}")] = f"m{i}{k}"
    return FiniteCategory(objects, morphisms, compose, identities, f"[{n}]")


def boundary_two() -> FiniteCategory:
    """The category on 0,1,2 freely generated by arrows a:0->1, b:1->2, c:0->2.

    Free generation keeps the composite b.a distinct from the generator c,
    so there are two parallel arrows 0 -> 2.
    """
    objects = ["0", "1", "2"]
    morphisms = {"a": ("0", "1"), "b": ("1", "2"), "c": ("0", "2"), "ba": ("0", "2")}
    identities = {}
    for x in objects:
        morphisms[f"id{x}"] = (x, x)
        identities[x] = f"id{x}"
    compose = {("b", "a"): "ba"}
    return FiniteCategory(objects, morphisms, compose, identities, "d[2]")


def empty_category() -> FiniteCategory:
    return FiniteCategory((), {}, {}, {}, "0cat")


def group_z2() -> FiniteCategory:
    """Z/2 as a one-object category."""
    return FiniteCategory(("*",), {"e": ("*", "*"), "g": ("*", "*")},
                          {("g", "g"): "e"}, {"*": "e"}, "z2")


def contractible_groupoid() -> FiniteCategory:
    """The groupoid on objects a, b with exactly one morphism between any two."""
    objects = ("a", "b")
    morphisms = {}
    identities = {}
    for x in objects:
        for y in objects:
            m = f"e{x}{y}"
            morphisms[m] = (x, y)
            if x == y:
                identities[x] = m
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                if x != y and y != z:
                    compose[(f"e{y}{z}", f"e{x}{y}")] = f"e{x}{z}"
    return FiniteCategory(objects, morphisms, compose, identities,
                          "E(" + "".join(objects) + ")")


def pair_id(a: str, b: str) -> str:
    """Identifier of the pair (a, b) of objects or morphisms of a product."""
    return f"({a},{b})"


def split_pair(token: str) -> tuple:
    """The components (a, b) of ``pair_id(a, b)``; components may be pairs."""
    depth = 0
    comma = None
    for pos, ch in enumerate(token):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1 and comma is None:
            comma = pos
        if depth <= 0 and pos < len(token) - 1:
            break  # the outer parentheses must span the whole token
    else:
        if depth == 0 and comma is not None:
            return token[1:comma], token[comma + 1:-1]
    raise ValueError(f"not a pair identifier: {token!r}")


def product_cat(J: FiniteCategory, K: FiniteCategory) -> FiniteCategory:
    """J x K, with objects and morphisms named by :func:`pair_id`."""
    objects = [pair_id(x, y) for x in J.objects for y in K.objects]
    morphisms = {}
    identities = {}
    for m, (d1, c1) in J.morphisms.items():
        for n, (d2, c2) in K.morphisms.items():
            morphisms[pair_id(m, n)] = (pair_id(d1, d2), pair_id(c1, c2))
    for x in J.objects:
        for y in K.objects:
            identities[pair_id(x, y)] = pair_id(J.identities[x], K.identities[y])
    compose = {}
    idset = set(identities.values())
    j_in: dict = {}
    for fm, (d, c) in J.morphisms.items():
        j_in.setdefault(c, []).append(fm)
    k_in: dict = {}
    for fn, (d, c) in K.morphisms.items():
        k_in.setdefault(c, []).append(fn)
    for gm, (gd, _) in J.morphisms.items():
        for gn, (gnd, _) in K.morphisms.items():
            g = pair_id(gm, gn)
            if g in idset:
                continue
            for fm in j_in.get(gd, ()):
                for fn in k_in.get(gnd, ()):
                    f = pair_id(fm, fn)
                    if f in idset:
                        continue
                    compose[(g, f)] = pair_id(J.compose(gm, fm), K.compose(gn, fn))
    return FiniteCategory(objects, morphisms, compose, identities,
                          f"({J.name}x{K.name})")


def full_subcategory(C: FiniteCategory, keep) -> FiniteCategory:
    keep = set(keep)
    morphisms = {m: dc for m, dc in C.morphisms.items()
                 if dc[0] in keep and dc[1] in keep}
    compose = {pair: h for pair, h in C.compose_table.items()
               if pair[0] in morphisms and pair[1] in morphisms}
    identities = {x: i for x, i in C.identities.items() if x in keep}
    return FiniteCategory(sorted(keep), morphisms, compose, identities, f"{C.name}|sub")


def coproduct_cat(J: FiniteCategory, K: FiniteCategory) -> FiniteCategory:
    objects = [f"l.{x}" for x in J.objects] + [f"r.{y}" for y in K.objects]
    morphisms = {}
    identities = {}
    compose = {}
    for tag, C in (("l", J), ("r", K)):
        for m, (d, c) in C.morphisms.items():
            morphisms[f"{tag}.{m}"] = (f"{tag}.{d}", f"{tag}.{c}")
        for x, i in C.identities.items():
            identities[f"{tag}.{x}"] = f"{tag}.{i}"
        for (g, f), h in C.compose_table.items():
            compose[(f"{tag}.{g}", f"{tag}.{f}")] = f"{tag}.{h}"
    return FiniteCategory(objects, morphisms, compose, identities,
                          f"({J.name}+{K.name})")


# ---------------------------------------------------------------------------
# functors and natural transformations


class Functor:
    def __init__(self, source: FiniteCategory, target: FiniteCategory, ob, mor, name: str = ""):
        self.source = source
        self.target = target
        self.ob = dict(ob)
        self.mor = dict(mor)  # defined on non-identity morphisms
        self.name = name or "functor"
        self._key = None

    @cached_property
    def images(self) -> dict:
        """The image of every morphism of the source, identities included:
        the morphisms on which ``on_morphism`` answers, each with its
        answer.  Built on first read."""
        source, ob, identities = self.source, self.ob, self.target.identities
        table = {m: y for m, y in self.mor.items() if m not in source._identity_set}
        for m in source._identity_set:
            x = source.morphisms.get(m, (None,))[0]
            if ob.get(x) in identities:
                table[m] = identities[ob[x]]
        return table

    def on_morphism(self, m: str) -> str:
        """The image of m, read off ``images``; any other m raises as the
        rule below does."""
        y = self.images.get(m)
        return y if y is not None else self._on_morphism(m)

    def _on_morphism(self, m: str) -> str:
        source = self.source
        if m in source._identity_set:
            return self.target.identities[self.ob[source.morphisms[m][0]]]
        return self.mor[m]

    def key(self) -> tuple:
        if self._key is None:
            self._key = (tuple(sorted(self.ob.items())), tuple(sorted(self.mor.items())))
        return self._key

    def validate(self) -> ValidationReport:
        report = ValidationReport(f"functor {self.name}")
        for x in self.source.objects:
            report.checked += 1
            if self.ob.get(x) not in self.target.objects:
                report.add(f"object {x!r} has no valid image")
        for m in self.source.nonidentity():
            report.checked += 1
            img = self.mor.get(m)
            if img is None or img not in self.target.morphisms:
                report.add(f"morphism {m!r} has no valid image")
                continue
            d, c = self.source.morphisms[m]
            if self.target.morphisms[img] != (self.ob[d], self.ob[c]):
                report.add(f"image of {m!r} has wrong endpoints")
        if not report.ok:
            return report
        for (g, f), h in sorted(self.source.compose_table.items()):
            report.checked += 1
            if self.target.compose(self.on_morphism(g), self.on_morphism(f)) != self.on_morphism(h):
                report.add(f"composition not preserved on ({g!r}, {f!r})")
        return report

    def __repr__(self):
        return f"<functor {self.name}: {self.source.name} -> {self.target.name}>"


def identity_functor(C: FiniteCategory) -> Functor:
    return Functor(C, C, {x: x for x in C.objects},
                   {m: m for m in C.nonidentity()}, f"id_{C.name}")


def compose_functors(G: Functor, F: Functor) -> Functor:
    return Functor(F.source, G.target,
                   {x: G.ob[y] for x, y in F.ob.items()},
                   {m: G.on_morphism(F.on_morphism(m)) for m in F.source.nonidentity()},
                   f"{G.name}.{F.name}")


def constant_functor(J: FiniteCategory, C: FiniteCategory, obj: str, name: str = "") -> Functor:
    return Functor(J, C, {x: obj for x in J.objects},
                   {m: C.identities[obj] for m in J.nonidentity()},
                   name or f"const_{obj}")


def vertex_functor(term: FiniteCategory, J: FiniteCategory, obj: str) -> Functor:
    """The object ``obj`` of J as a functor out of the terminal category [0]."""
    return Functor(term, J, {"0": obj}, {}, f"vx_{J.name}_{obj}")


def monotone_functor(source: FiniteCategory, target: FiniteCategory, alpha,
                     name: str) -> Functor:
    """The functor of chains [m] -> [n] with i -> ``alpha[i]``.

    The category analogue of :func:`qcatkit.simplicial.delta_map`; each
    arrow goes to the arrow of ``target`` between the images of its ends.
    """
    ob = {x: str(alpha[int(x)]) for x in source.objects}
    mor = {m: target.hom(ob[source.dom(m)], ob[source.cod(m)])[0]
           for m in source.nonidentity()}
    return Functor(source, target, ob, mor, name)


def pairing(F: Functor, G: Functor, target: FiniteCategory, name: str) -> Functor:
    """<F, G>: the functor into the ``product_cat`` target with x -> (F x, G x)."""
    ob = {x: pair_id(F.ob[x], G.ob[x]) for x in F.source.objects}
    mor = {m: pair_id(F.on_morphism(m), G.on_morphism(m)) for m in F.source.nonidentity()}
    return Functor(F.source, target, ob, mor, name)


def pair_functor(P: FiniteCategory, target: FiniteCategory, on_object, on_morphism,
                 name: str) -> Functor:
    """The functor out of the ``product_cat`` P with (a, b) -> ``on_object(a, b)``
    on objects and (f, g) -> ``on_morphism(f, g)`` on non-identity morphisms.

    The category analogue of :meth:`qcatkit.simplicial.ProductSSet.map_pairs`.
    """
    ob = {x: on_object(*split_pair(x)) for x in P.objects}
    mor = {m: on_morphism(*split_pair(m)) for m in P.nonidentity()}
    return Functor(P, target, ob, mor, name)


class NatTransf:
    def __init__(self, source: Functor, target: Functor, components, name: str = ""):
        self.source = source
        self.target = target
        self.components = dict(components)  # object of source.source -> morphism of target.target
        self.name = name or "nat"

    def at(self, x: str) -> str:
        return self.components[x]

    def key(self) -> tuple:
        return (self.source.key(), self.target.key(), tuple(sorted(self.components.items())))

    def validate(self) -> ValidationReport:
        report = ValidationReport(f"nat {self.name}")
        C = self.source.source
        D = self.source.target
        for x in C.objects:
            report.checked += 1
            m = self.components.get(x)
            if m is None or D.morphisms.get(m) != (self.source.ob[x], self.target.ob[x]):
                report.add(f"component at {x!r} missing or has wrong endpoints")
        if not report.ok:
            return report
        for m in C.nonidentity():
            x, y = C.morphisms[m]
            report.checked += 1
            left = D.compose(self.components[y], self.source.on_morphism(m))
            right = D.compose(self.target.on_morphism(m), self.components[x])
            if left != right:
                report.add(f"naturality square fails at {m!r}")
        return report

    def __repr__(self):
        return f"<nat {self.name}: {self.source.name} => {self.target.name}>"


def identity_nat(F: Functor) -> NatTransf:
    return NatTransf(F, F, {x: F.target.identities[F.ob[x]] for x in F.source.objects},
                     f"id_{F.name}")


def vertical_compose(beta: NatTransf, alpha: NatTransf) -> NatTransf:
    """beta ∘ alpha for alpha: F => G, beta: G => H."""
    D = alpha.source.target
    return NatTransf(alpha.source, beta.target,
                     {x: D.compose(beta.at(x), alpha.at(x)) for x in alpha.components},
                     f"{beta.name}.{alpha.name}")


def horizontal_compose(beta: NatTransf, alpha: NatTransf) -> NatTransf:
    """beta * alpha for alpha: F => G: A -> B and beta: H => K: B -> C."""
    C = beta.source.target
    comps = {}
    for x in alpha.source.source.objects:
        comps[x] = C.compose(beta.target.on_morphism(alpha.at(x)),
                             beta.at(alpha.source.ob[x]))
    return NatTransf(compose_functors(beta.source, alpha.source),
                     compose_functors(beta.target, alpha.target),
                     comps, f"{beta.name}*{alpha.name}")


# ---------------------------------------------------------------------------
# enumeration


def enumerate_functors(K: FiniteCategory, J: FiniteCategory, budget: Budget = None,
                       ob_allowed=None, mor_allowed=None) -> list:
    """All functors K -> J, canonically ordered.

    ``ob_allowed`` and ``mor_allowed`` optionally restrict the images of
    individual objects and morphisms (used to push naturality constraints
    into the search instead of filtering afterwards).  The placements and
    the composites checked at each are K's ``search_plan``.
    """
    budget = ensure_budget(budget, f"functors {K.name} -> {J.name}")
    ob_allowed = ob_allowed or {}
    mor_allowed = mor_allowed or {}
    plan = K.search_plan
    nonid = K.nonidentity()
    ob: dict = {}
    image: dict = {}  # morphism of K -> its image, identities included
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
        name, ends, last = plan[pos]
        if ends is None:
            pool = ob_allowed.get(name)
            for y in (J.objects if pool is None else sorted(pool)):
                budget.spend()
                ob[name] = y
                image[last] = J.identities[y]
                walk(pos + 1)
        else:
            pool = mor_allowed.get(name)
            for y in J.hom(ob[ends[0]], ob[ends[1]]):
                if pool is not None and y not in pool:
                    continue
                budget.spend()
                image[name] = y
                if consistent(last):
                    walk(pos + 1)

    walk(0)
    results.sort(key=lambda F: F.key())
    return results


def enumerate_nats(u: Functor, v: Functor, budget: Budget = None) -> list:
    """All natural transformations u => v for parallel functors."""
    if u.source is not v.source and u.source.canonical_key() != v.source.canonical_key():
        raise ValueError("functors are not parallel")
    budget = ensure_budget(budget, f"nats {u.name} => {v.name}")
    K = u.source
    D = u.target
    objs = list(K.objects)
    mors_by_obj: dict = {}
    for m in K.nonidentity():
        x, y = K.morphisms[m]
        mors_by_obj.setdefault(x, []).append(m)
        mors_by_obj.setdefault(y, []).append(m)
    comps: dict = {}
    results = []

    def natural_at(m) -> bool:
        x, y = K.morphisms[m]
        if x not in comps or y not in comps:
            return True
        budget.spend()
        return (D.compose(comps[y], u.on_morphism(m))
                == D.compose(v.on_morphism(m), comps[x]))

    def walk(pos):
        if pos == len(objs):
            results.append(NatTransf(u, v, comps))
            return
        x = objs[pos]
        for m in D.hom(u.ob[x], v.ob[x]):
            budget.spend()
            comps[x] = m
            if all(natural_at(mm) for mm in mors_by_obj.get(x, ())):
                walk(pos + 1)
        comps.pop(x, None)

    walk(0)
    results.sort(key=lambda n: n.key())
    return results


class FunctorCategory:
    """The category J^K; ``functor_by_id`` and ``nat_by_id`` hold the data behind its ids."""

    def __init__(self, K: FiniteCategory, J: FiniteCategory, budget: Budget = None):
        budget = ensure_budget(budget, f"functor category {J.name}^{K.name}")
        functors = enumerate_functors(K, J, budget)
        self.functor_by_id = {f"F{i}": F for i, F in enumerate(functors)}
        morphisms = {}
        identities = {}
        self.nat_by_id = {}
        nat_ids: dict = {}
        # the non-identity nats out of each functor, in id order
        by_source: dict = {}
        for fid, F in sorted(self.functor_by_id.items()):
            for gid, G in sorted(self.functor_by_id.items()):
                for n in enumerate_nats(F, G, budget):
                    nid = f"t{len(self.nat_by_id)}"
                    self.nat_by_id[nid] = n
                    nat_ids[(fid, gid, tuple(sorted(n.components.items())))] = nid
                    morphisms[nid] = (fid, gid)
                    if fid == gid and all(J.is_identity(m) for m in n.components.values()):
                        identities[fid] = nid
                    else:
                        by_source.setdefault(fid, []).append(nid)
        compose = {}
        for nid in chain.from_iterable(by_source.values()):
            fid, gid = morphisms[nid]
            for mid in by_source.get(gid, ()):
                comp = vertical_compose(self.nat_by_id[mid], self.nat_by_id[nid])
                cid = nat_ids[(fid, morphisms[mid][1], tuple(sorted(comp.components.items())))]
                compose[(mid, nid)] = cid
        self.category = FiniteCategory(self.functor_by_id.keys(), morphisms, compose,
                                       identities, f"{J.name}^{K.name}")


def equivalence_inverse(F: Functor, budget: Budget = None):
    """Inverse-up-to-isomorphism of an equivalence, or None.

    Essential surjectivity and full faithfulness are checked directly;
    the inverse is then assembled from canonical preimage and isomorphism
    choices, which keeps the search deterministic without enumerating all
    candidate functors.
    """
    budget = ensure_budget(budget, f"equivalence inverse of {F.name}")
    C, D = F.source, F.target
    preimage = {}
    iso_to = {}
    for d in D.objects:
        found = False
        for c in C.objects:
            budget.spend()
            isos = D.isos_between(F.ob[c], d)
            if isos:
                preimage[d] = c
                iso_to[d] = isos[0]  # canonical: first in sorted order
                found = True
                break
        if not found:
            return None
    for x in C.objects:
        for y in C.objects:
            budget.spend()
            images = [F.on_morphism(m) for m in C.hom(x, y)]
            if len(set(images)) != len(images) or len(images) != len(D.hom(F.ob[x], F.ob[y])):
                return None
    ob = dict(preimage)
    mor = {}
    for g in D.nonidentity():
        d, c = D.morphisms[g]
        # transport along the chosen isos, then lift through the hom bijection
        conj = D.compose(D.inverse(iso_to[c]), D.compose(g, iso_to[d]))
        lifts = [m for m in C.hom(ob[d], ob[c]) if F.on_morphism(m) == conj]
        mor[g] = lifts[0]
    return Functor(D, C, ob, mor, f"{F.name}^-1")


# ---------------------------------------------------------------------------
# text format


def cat_to_text(C: FiniteCategory) -> str:
    lines = ["objects: " + " ".join(C.objects)]
    for m in sorted(C.morphisms):
        if not C.is_identity(m):
            d, c = C.morphisms[m]
            lines.append(f"mor {m}: {d} -> {c}")
    for x in C.objects:
        lines.append(f"id {x} = {C.identities[x]}")
    for (g, f), h in sorted(C.compose_table.items()):
        lines.append(f"{g} . {f} = {h}")
    return "\n".join(lines) + "\n"


def cat_from_text(text: str, name: str = "cat") -> FiniteCategory:
    objects: list = []
    morphisms = {}
    identities = {}
    compose = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("objects:"):
                objects = line.split(":", 1)[1].split()
            elif line.startswith("mor "):
                head, arrow = line[4:].split(":", 1)
                d, c = arrow.split("->")
                morphisms[head.strip()] = (d.strip(), c.strip())
            elif line.startswith("id "):
                obj, m = line[3:].split("=")
                identities[obj.strip()] = m.strip()
            else:
                lhs, h = line.split("=")
                g, f = lhs.split(".")
                compose[(g.strip(), f.strip())] = h.strip()
        except ValueError as err:
            raise ValueError(f"line {lineno}: cannot parse {raw!r} ({err})") from None
    for x, i in identities.items():
        morphisms.setdefault(i, (x, x))
    return FiniteCategory(objects, morphisms, compose, identities, name)
