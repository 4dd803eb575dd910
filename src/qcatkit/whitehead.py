"""Equivalence detection and the conservativity agreement experiment.

Two detectors are compared: the vertex-and-mapping-space criterion
(essentially surjective on homotopy categories, plus an equivalence on the
homotopy categories of the mapping spaces, a 1-truncated surrogate of the
full criterion) and componentwise equivalence of the induced prederivator
morphism.  On the labeled corpus the prederivator verdict must imply the
surrogate verdict.

The mapping spaces Hom^R(x, y) are Kan complexes, so Ho of each is its
fundamental groupoid, and the surrogate compares their π0 and π1, read off
the face rows the sets keep (:func:`is_fully_faithful_1tr`).  It builds no
exponential; :func:`qcatkit.mapping.mapping_space` is the tests' oracle
for it.

One failing shape decides a non-equivalence, so HO(f) is built one shape
at a time: a component, and the two exponentials under it, is built when
its shape is first read, and the prederivator verdict stops at the first
shape that fails.

The experiment decides HO(f) at J on the sample's model M ⊂ N(J)
(``DiaSample.model``): the nerve with its free inner faces collapsed,
which on the standard sample changes [2], to its spine Λ²₁, and d[2], to
∂Δ².  M ⊂ N(J) is inner anodyne, so for a quasicategory Q the restriction
Q^{N(J)} -> Q^M is a trivial fibration and Ho of it an equivalence (Joyal,
*Quasi-categories and Kan complexes*, JPAA 175, 2002).  Restriction
commutes with postcomposition, so by 2-out-of-3 HO(f) is an equivalence
at J iff Ho(f^M): Ho(Q^M) -> Ho(R^M) is.  The verdict, failing shape
included, is that of HO(f) (:func:`induced_prederivator_morphism`, which
the tests compare it with); the maps out of M x Δn are fewer to search.
HO's values, u* and alpha* keep N(J).

Nor does the experiment read every shape.  HO satisfies Der1 (audited by
:func:`qcatkit.prederivator.check_der1`): N(A + B) = N(A) ⊔ N(B), so
Q^{N(A+B)} = Q^{N(A)} x Q^{N(B)}, Ho preserves finite products, and HO(f)
at A + B is HO(f)_A x HO(f)_B; at the empty shape it is the identity of
the point.  A product of functors is an equivalence iff each factor is, so
the coproducts and the empty shape of the sample are decided by their
summands (Groth, *Derivators, pointed derivators and stable derivators*,
AGT 13, 2013, Der1), and their exponentials are never built.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path

from .cats import Functor, equivalence_inverse
from .mapping import ExactnessError, Exponential, induced_functor, transport
from .nerve import ho, require_quasicategory
from .prederivator import HoPrederivator, StrictMorphism, standard_sample
from .simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    parse_word,
    sset_from_text,
    sset_to_text,
)
from .util import Budget, ensure_budget, least_classes, memo


def _postcomposition(f: SimplicialMap, E1: Exponential, E2: Exponential, name: str) -> Functor:
    """The functor Ho(E1) -> Ho(E2) that postcomposition with f induces.

    A slot of a code tuple holds a d-simplex of ``E1.T_t``, d the dimension
    of its cell, so f acts on it through its level-d code table: ``E1.T_t``
    and ``E2.T_t`` are f's ends truncated, with the same tables up to there.
    """
    columns = [list(enumerate(f.code_table(P.dim_of[x]) for x in P.cells))
               for P in (E1.products[0], E1.products[1])]
    return induced_functor(E1, E2, lambda batch, level: transport(batch, columns[level]), name)


class Verdict:
    def __init__(self, name: str, ok: bool, label: str, witnesses=None):
        self.name = name
        self.ok = ok
        self.label = label
        self.witnesses = witnesses or {}


def is_essentially_surjective(f: SimplicialMap, budget: Budget = None) -> Verdict:
    """Every target vertex receives a Ho-invertible edge from the image."""
    budget = ensure_budget(budget, "essential surjectivity")
    require_quasicategory(f.source, budget)
    pres = ho(f.target, budget)
    witnesses = {}
    for z in f.target.nondeg(0):
        budget.spend()
        found = None
        for x in f.source.nondeg(0):
            fx = f.assignment[x].base
            isos = pres.category.isos_between(fx, z)
            if isos:
                found = (x, isos[0])
                break
        if found is None:
            return Verdict(f"essentially surjective {f.source.name} -> {f.target.name}",
                           False, "vertex search", {"failing vertex": z})
        witnesses[z] = found
    return Verdict(f"essentially surjective {f.source.name} -> {f.target.name}",
                   True, "vertex search", witnesses)


def _loop_classes(S: TruncatedSSet, budget: Budget) -> list:
    """Per level-2 code of S, the least code of its class of loops.

    A loop at an edge e: x -> y is a 2-simplex with face row (e, e, s0 x),
    a loop of Hom^R(x, y) at e.  Two loops are one class when a 3-simplex
    has the face row (s0 e, σ, σ', s0 s0 x), a homotopy of Hom^R(x, y)
    between them, and the classes close that relation: one union-find over
    ``rows(3)`` (:func:`qcatkit.util.least_classes`, as for the classes of
    Ho).  One step per 3-simplex, kept on S by
    :meth:`qcatkit.util.Budget.cached`.
    """
    def build() -> list:
        rows = S.rows(3)
        budget.spend_each(len(rows))
        units, points = set(S.degeneracy_codes((0,), 1)), set(S.degeneracy_codes((1, 0), 0))
        return least_classes(len(S.rows(2)), ((d1, d2) for d0, d1, d2, d3 in rows
                                              if d0 in units and d3 in points))

    return budget.cached(S, ("loop_classes",), build)


def _mapping_data(S: TruncatedSSet, budget: Budget) -> tuple:
    """Ho(S), and the loop classes of S where its certificate c exceeds 2,
    else None: a c-coskeletal S has (c - 1)-coskeletal mapping spaces, so
    for c <= 2 the loops at an edge are one class."""
    pres, c = ho(S, budget), S.coskeletal_from
    if c is None or c > S.dim_bound:
        raise ExactnessError(f"{S.name} is certified coskeletal at no level up to "
                             f"{S.dim_bound}, so its mapping spaces are not known")
    return pres, _loop_classes(S, budget) if c > 2 else None


def _bijective(pairs: set, target: set) -> bool:
    """Whether the relation ``pairs`` is a well-defined bijection of its
    first column onto ``target``."""
    return (len(pairs) == len({a for a, _ in pairs}) == len(target)
            and {b for _, b in pairs} == target)


def _loops_bijective(f: SimplicialMap, e: int, x: int, classes: tuple, budget: Budget) -> bool:
    """Whether f sends the loop classes at the edge e of its source, x the
    code of its initial vertex, bijectively onto those at f(e); ``classes``
    holds each side's loop classes, or None where the loops are one class."""
    ends = ((f.source, e, x), (f.target, f.code_table(1)[e], f.code_table(0)[x]))
    loops, targets = (S.face_index(2, (0, 1, 2), None).get(
        (a, a, S.degeneracy_codes((0,), 0)[v]), ()) for S, a, v in ends)
    budget.spend_each(len(loops) + len(targets))
    cQ, cR = ((lambda sigma: 0) if c is None else c.__getitem__ for c in classes)
    f2 = f.code_table(2)
    return _bijective({(cQ(s), cR(f2[s])) for s in loops}, set(map(cR, targets)))


def is_fully_faithful_1tr(f: SimplicialMap, budget: Budget = None) -> Verdict:
    """Mapping-space comparisons are equivalences, pair by pair.

    Decided at the homotopy-category level of the mapping spaces; higher
    homotopy is invisible at this truncation, which the verdict label
    records.  Ho of the Kan complex Hom^R(x, y) is its fundamental
    groupoid, so the comparison at (x, y) is an equivalence iff f is a
    bijection on π0 and on π1 at one edge of each component, and both are
    read off face rows (Lurie, *Higher Topos Theory*, 2009, §1.2.2-1.2.3;
    Joyal, *The theory of quasi-categories and its applications*, 2008):

    * π0 Hom^R(x, y) is Ho(Q)(x, y), the classes (``ho(Q).classes``) of
      the edges whose row in ``rows(1)`` is (y, x), one lookup in
      ``face_index(1, (0, 1), None)``; f sends them through
      ``code_table(1)`` onto the classes of Ho(R)(fx, fy).
    * π1 at the representative e of a class: the loops at e, the
      2-simplices with row (e, e, s0 x), one lookup in
      ``face_index(2, (0, 1, 2), None)``, taken up to the homotopies of
      :func:`_loop_classes`; f sends them through ``code_table(2)``, and
      the map of classes must be well defined and bijective.

    On a side certified c-coskeletal with c <= 2, Hom^R is 1-coskeletal,
    so the loops at an edge are one class and ``rows(3)`` is not read; Δ0
    at ``dim_bound`` 2 has no level 3 to read.  Where both sides are, π1
    is a bijection of points and no loop is read.  A set with no
    certificate, or one above its data, is an ``ExactnessError``.  The
    pairs are read in ``nondeg(0)`` order, and the first that fails is the
    witness.

    Budget: the quasicategory checks under ``ho`` charge what they charged
    (:func:`qcatkit.nerve.require_quasicategory`); each ordered pair one
    step, and one per edge and per loop read on either side; the loop
    classes of a side with c > 2 one per 3-simplex, as they were charged.
    """
    budget = ensure_budget(budget, "full faithfulness")
    Q, R = f.source, f.target
    (hQ, loopsQ), (hR, loopsR) = _mapping_data(Q, budget), _mapping_data(R, budget)
    f0, f1 = f.code_table(0), f.code_table(1)
    names = Q.nondeg(0)
    witnesses = {}
    for x in range(len(names)):
        for y in range(len(names)):
            budget.spend()
            fx = f0[x]
            edges, images = (S.face_index(1, (0, 1), None).get(row, ())
                             for S, row in ((Q, (y, x)), (R, (f0[y], fx))))
            budget.spend_each(len(edges) + len(images))
            classes = dict.fromkeys(hQ.classes[e] for e in edges)  # in token order
            ok = _bijective({(m, hR.classes[f1[hQ.rep_codes[m]]]) for m in classes},
                            {hR.classes[e] for e in images})
            if ok and (loopsQ is not None or loopsR is not None):
                ok = all(_loops_bijective(f, hQ.rep_codes[m], x, (loopsQ, loopsR), budget)
                         for m in classes)
            if not ok:
                return Verdict(f"fully faithful {Q.name} -> {R.name}", False,
                               "1-truncated surrogate", {"failing pair": (names[x], names[y])})
            witnesses[(names[x], names[y])] = "equivalence"
    return Verdict(f"fully faithful {Q.name} -> {R.name}", True, "1-truncated surrogate",
                   witnesses)


def is_equivalence(f: SimplicialMap, budget: Budget = None) -> Verdict:
    """Conjunction of the two checks, labeled as the surrogate it is."""
    ess = is_essentially_surjective(f, budget)
    if not ess.ok:
        return Verdict(f"equivalence {f.source.name} -> {f.target.name}", False,
                       "1-truncated surrogate", {"essential surjectivity": ess.witnesses})
    ff = is_fully_faithful_1tr(f, budget)
    return Verdict(f"equivalence {f.source.name} -> {f.target.name}",
                   ess.ok and ff.ok, "1-truncated surrogate",
                   {} if ff.ok else ff.witnesses)


class _Components(Mapping):
    """The components of HO(f) by shape, each built on first read and kept.

    A membership test reads the shape list only, so it builds nothing.
    """

    def __init__(self, shapes, build):
        self.shapes = tuple(shapes)
        self.build = build

    @memo
    def __getitem__(self, J_name: str) -> Functor:
        if J_name not in self.shapes:
            raise KeyError(J_name)
        return self.build(J_name)

    def __contains__(self, J_name) -> bool:
        return J_name in self.shapes

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


def postcomposition_morphism(DQ: HoPrederivator, DR: HoPrederivator, f: SimplicialMap,
                             exponential, shapes) -> StrictMorphism:
    """Postcomposition with f between ``exponential(DQ, J)`` and
    ``exponential(DR, J)`` at each J of ``shapes``, each component built
    when J is first read, so a verdict that stops at a failing shape never
    builds the shapes after it.  Over ``HoPrederivator.data`` at every shape
    it is HO(f); over ``HoPrederivator.model_data`` its components are the
    Ho(f^M), which are equivalences where HO(f)'s are, and only a verdict
    reads them."""
    def component(J_name: str) -> Functor:
        return _postcomposition(f, exponential(DQ, J_name), exponential(DR, J_name),
                                f"HO(f)_{J_name}")

    return StrictMorphism(DQ, DR, _Components(shapes, component), "HO(f)")


def induced_prederivator_morphism(DQ: HoPrederivator, DR: HoPrederivator,
                                  f: SimplicialMap) -> StrictMorphism:
    """HO(f): postcomposition with f on Q^{N(J)} -> R^{N(J)}, shape by shape,
    each built on first read."""
    return postcomposition_morphism(DQ, DR, f, HoPrederivator.data, DQ.sample.order)


def prederivator_equivalence(F: StrictMorphism, budget: Budget = None) -> Verdict:
    """Each component is an equivalence of finite categories.

    The shapes are read in sample order and the verdict stops at the first
    one that fails, so a lazily built morphism builds nothing after it.
    The inverse-up-to-isomorphism is produced by the deterministic
    canonical-choice construction from essential surjectivity and full
    faithfulness.
    """
    budget = ensure_budget(budget, "prederivator equivalence")
    witnesses = {}
    for J_name in F.source.sample.order:
        if J_name not in F.components:
            continue
        budget.spend()
        inverse = equivalence_inverse(F.at(J_name), budget)
        if inverse is None:
            return Verdict(f"prederivator equivalence {F.name}", False,
                           f"components over {F.source.sample.name}",
                           {"failing shape": J_name})
        witnesses[J_name] = "equivalence"
    return Verdict(f"prederivator equivalence {F.name}", True,
                   f"components over {F.source.sample.name}", witnesses)


class AgreementRow:
    def __init__(self, name, expected, surrogate, prederivator):
        self.name = name
        self.expected = expected
        self.surrogate = surrogate
        self.prederivator = prederivator

    @property
    def implication_ok(self) -> bool:
        return (not self.prederivator) or self.surrogate

    @property
    def matches_ground_truth(self) -> bool:
        return self.surrogate == self.expected


def conservativity_experiment(corpus, sample=None, budget: Budget = None) -> list:
    """Run both detectors over a labeled corpus of maps.

    ``corpus`` holds (name, map, expected) triples.  Returns the table of
    rows; the caller asserts the implication and ground-truth columns.  The
    prederivator verdict decides HO(f) at J on the model of N(J), through
    ``HoPrederivator.model_data``, kept per base (see the module docstring).

    It reads no shape that Der1 decides (``DiaSample.der1_shapes``): HO(f)
    at the initial shape is the identity of the point, and at A + B it is
    HO(f)_A x HO(f)_B, an equivalence iff both factors are (Groth,
    *Derivators, pointed derivators and stable derivators*, AGT 13, 2013,
    Der1).  The summands come before A + B and are read in their turn, so
    the verdict and the failing shape are those of HO(f) over the whole
    sample.  An annotation that does not hold is a ``ClosureError``.
    """
    budget = ensure_budget(budget, "conservativity experiment")
    sample = sample if sample is not None else standard_sample()
    decided = sample.der1_shapes()
    shapes = [J for J in sample.order if J not in decided]
    prederivators: dict = {}

    def pred_of(S):
        key = id(S)
        if key not in prederivators:
            prederivators[key] = HoPrederivator(S, sample, budget)
        return prederivators[key]

    rows = []
    for name, f, expected in corpus:
        surrogate = is_equivalence(f, budget)
        DQ = pred_of(f.source)
        DR = pred_of(f.target)
        pred = prederivator_equivalence(
            postcomposition_morphism(DQ, DR, f, HoPrederivator.model_data, shapes), budget)
        rows.append(AgreementRow(name, expected, surrogate.ok, pred.ok))
    return rows


def agreement_table(rows) -> str:
    """The rows under a header; with no rows, the header alone."""
    width = max((len(r.name) for r in rows), default=len("map")) + 2
    lines = [f"{'map'.ljust(width)}expected  surrogate  prederivator  implication"]
    for r in rows:
        lines.append(
            f"{r.name.ljust(width)}"
            f"{str(r.expected).ljust(10)}{str(r.surrogate).ljust(11)}"
            f"{str(r.prederivator).ljust(14)}{'ok' if r.implication_ok else 'VIOLATED'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpus manifest


def parse_map_file(text: str, source: TruncatedSSet, target: TruncatedSSet) -> SimplicialMap:
    """Assignment lines ``<src-id> = [s-words] <target-base>``, one per
    cell; a word that is not normal (:func:`qcatkit.simplicial.parse_word`),
    a cell assigned twice, or no cell of ``source``, is a ``ValueError``
    naming the line."""
    assignment = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lhs, rhs = line.split("=", 1)
            tokens = rhs.split()
            word = parse_word(tokens[:-1])
            image = SimplexExpr(word, tokens[-1])
        except (ValueError, IndexError):
            raise ValueError(f"line {lineno}: cannot parse map line {raw!r}") from None
        cell = lhs.strip()
        if cell not in source.dim_of:
            raise ValueError(f"line {lineno}: {cell} is no cell of {source.name}")
        if cell in assignment:
            raise ValueError(f"line {lineno}: cell {cell} is assigned twice")
        assignment[cell] = image
    return SimplicialMap(source, target, assignment)


def map_to_text(f: SimplicialMap) -> str:
    lines = []
    for x in sorted(f.assignment):
        e = f.assignment[x]
        word = " ".join(f"s{i}" for i in e.word)
        lines.append(f"{x} = {word} {e.base}".replace("  ", " "))
    return "\n".join(lines) + "\n"


def load_labeled_corpus(manifest_path) -> list:
    """Lines: ``map <name>: <sset-file> -> <sset-file> via <map-file> expect <label>``,
    the label ``equiv`` or ``nonequiv``.

    Another label, a file that cannot be read, a map that fails validation
    (named with its map file and first violation) and a name listed twice
    are each a ``ValueError`` naming the line; a manifest with no map line
    is one naming the file."""
    path = Path(manifest_path)
    out = []
    cache: dict = {}

    def read(rel) -> str:
        try:
            return (path.parent / rel).read_text()
        except OSError as err:
            raise ValueError(f"cannot read {rel}: {err.strerror}") from None

    def load_sset(rel):
        if rel not in cache:
            cache[rel] = sset_from_text(read(rel), rel)
        return cache[rel]

    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = line.split(":", 1)
            if head.split()[0] != "map":
                raise ValueError("expected a 'map' line")
            name = head.split()[1]
            if any(name == listed for listed, _, _ in out):
                raise ValueError(f"map {name} is listed twice")
            arrow, tail = rest.split("via", 1)
            src_file, tgt_file = (p.strip() for p in arrow.split("->"))
            map_file, expect = (p.strip() for p in tail.split("expect"))
            if expect not in ("equiv", "nonequiv"):
                raise ValueError(f"label {expect!r} is neither equiv nor nonequiv")
            source = load_sset(src_file)
            target = load_sset(tgt_file)
            f = parse_map_file(read(map_file), source, target)
            report = f.validate()
            if not report.ok:
                raise ValueError(f"{map_file}: {report.violations[0]}")
            out.append((name, f, expect == "equiv"))
        except (ValueError, IndexError) as err:
            raise ValueError(f"{path.name} line {lineno}: {err}") from None
    if not out:
        raise ValueError(f"{path.name}: no map line")
    return out


def write_labeled_corpus(corpus, directory) -> Path:
    """Write .sset/.map files plus the manifest for a labeled corpus."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sset_files: dict = {}
    lines = []
    for i, (name, f, expected) in enumerate(corpus):
        for S in (f.source, f.target):
            if id(S) not in sset_files:
                fname = f"s{len(sset_files):02d}.sset"
                (directory / fname).write_text(sset_to_text(S))
                sset_files[id(S)] = fname
        map_file = f"m{i:02d}.map"
        (directory / map_file).write_text(map_to_text(f))
        label = "equiv" if expected else "nonequiv"
        lines.append(f"map {name}: {sset_files[id(f.source)]} -> "
                     f"{sset_files[id(f.target)]} via {map_file} expect {label}")
    manifest = directory / "corpus.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
