"""The three benchmark workloads and their correctness gate.

Each workload is a pass over fixed instances built fresh from the public
API of ``qcatkit``.  A pass records one observed value per instance id;
the gate compares them with the values in ``expected.json``.  An
exception inside a group of instances is caught at the group, so the
ids it would have recorded count as failed and the pass goes on.

The seed only permutes the order of instances inside a group.  Groups
run in a fixed order so that every budget charge lands on the same
``Budget`` under every seed: the id-keyed quasicategory cache charges
only its first caller, and some public functions make their own budget.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import traceback
from pathlib import Path

from qcatkit.cats import boundary_two, contractible_groupoid, group_z2, poset_simplex
from qcatkit.corpus import (
    corpus_quasicategories,
    corpus_ssets,
    der1_mutation,
    der2_mutation,
    der5_mutation,
    der5prime_mutation,
    face_mutations,
    labeled_map_corpus,
)
from qcatkit.delocalization import check_inverts_L
from qcatkit.enrichment import embedding_check
from qcatkit.mapping import kan_check
from qcatkit.nerve import is_quasicategory, nerve
from qcatkit.prederivator import (
    HoPrederivator,
    der_audit,
    kan_extension_value,
    standard_sample,
    strict_rigidity_check,
)
from qcatkit.simplicial import standard_simplex
from qcatkit.util import Budget
from qcatkit.whitehead import (
    agreement_table,
    conservativity_experiment,
    load_labeled_corpus,
    write_labeled_corpus,
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")
# far above any pass: an overrun would be a change of behaviour, not noise
PASS_BUDGET = 10**9


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class Pass:
    """Observed values of one pass, keyed by instance id."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.budget = Budget(PASS_BUDGET, "benchmark pass")
        self.observed: dict = {}
        self.errors: list = []

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def record(self, key: str, value) -> None:
        # a JSON round trip makes tuples and lists compare alike
        self.observed[key] = json.loads(json.dumps(value))

    @contextlib.contextmanager
    def group(self, label: str):
        """Catch any failure of one group; its missing ids count as failed."""
        try:
            yield
        except Exception:
            self.errors.append(f"{label}: {traceback.format_exc()}")

    def failures(self, expected: dict) -> list:
        """Ids whose observed value differs from the expected one, or is missing."""
        return sorted(k for k in expected.keys() | self.observed.keys()
                      if self.observed.get(k) != expected.get(k))


# ---------------------------------------------------------------------------
# whitehead: the conservativity experiment on the labeled map corpus


def whitehead_setup(workdir: Path) -> Path:
    return write_labeled_corpus(labeled_map_corpus(), workdir / "corpus")


def whitehead_pass(p: Pass, manifest: Path) -> None:
    with p.group("conservativity experiment"):
        corpus = p.shuffled(load_labeled_corpus(manifest))
        rows = conservativity_experiment(corpus, standard_sample(), p.budget)
        # cells after the name: expected, surrogate, prederivator, implication
        for line in agreement_table(rows).splitlines()[1:]:
            name, *cells = line.split()
            p.record(f"row/{name}", cells)


# ---------------------------------------------------------------------------
# audit: Der axioms, mutants, strict rigidity and the enrichment embedding


def _audit_quasicategories() -> dict:
    return {
        "delta0": standard_simplex(0, 2),
        "N([1])": nerve(poset_simplex(1), 3),
        "N([2])": nerve(poset_simplex(2), 3),
        "N(z2)": nerve(group_z2(), 3),
    }


def _report(r) -> list:
    return [r.checked, r.ok]


def audit_pass(p: Pass, _state=None) -> None:
    sample = standard_sample()
    qs = _audit_quasicategories()
    ho = {name: HoPrederivator(Q, sample, p.budget) for name, Q in qs.items()}
    for name in p.shuffled(qs):
        for J in p.shuffled(sample.order):
            with p.group(f"HO({name})({J})"):
                C = ho[name].eval(J)
                p.record(f"ho/{name}/{J}",
                         [len(C.objects), len(C.morphisms), digest(C.canonical_key())])
    for name in p.shuffled(qs):
        with p.group(f"2-functoriality of HO({name})"):
            p.record(f"two_functoriality/{name}", _report(ho[name].check_two_functoriality()))
        with p.group(f"der audit of HO({name})"):
            for axiom, r in der_audit(ho[name], p.budget).items():
                p.record(f"der/{name}/{axiom}", _report(r))
    mutants = [
        ("Der1", lambda: der1_mutation(ho["N([1])"])),
        ("Der2", lambda: der2_mutation(ho["N([1])"])),
        ("Der5", lambda: der5_mutation(ho["N([1])"])),
        ("Der5'", lambda: der5prime_mutation(ho["N(z2)"])),
    ]
    for label, make in p.shuffled(mutants):
        with p.group(f"{label} mutant"):
            audits = der_audit(make(), p.budget)
            p.record(f"mutant/{label}", sorted(a for a, r in audits.items() if not r.ok))
    pairs = [(a, b) for a in qs for b in qs]
    for a, b in p.shuffled(pairs):
        with p.group(f"rigidity {a} -> {b}"):
            r = strict_rigidity_check(ho[a], ho[b], p.budget)
            p.record(f"rigidity/{a}->{b}", [r.enumerated, r.checked, r.ok])
    embeddings = [("delta0", "N([1])", 0), ("delta0", "N([1])", 1), ("N([1])", "N([1])", 1)]
    for a, b, n in p.shuffled(embeddings):
        with p.group(f"embedding {a} -> {b} at {n}"):
            r = embedding_check(qs[a], qs[b], n, budget=p.budget)
            p.record(f"embedding/{a}->{b}/{n}",
                     [r.map_count, r.hom_count, r.image_size, r.injective])


# ---------------------------------------------------------------------------
# simplices: validation, horn filling and Kan extensions, no exponentials


KANEXT_TARGETS = {"[1]": lambda: poset_simplex(1), "[2]": lambda: poset_simplex(2),
                  "z2": group_z2, "E": contractible_groupoid, "d[2]": boundary_two}


def simplices_pass(p: Pass, _state=None) -> None:
    members = corpus_ssets()
    for name, S in p.shuffled(members):
        with p.group(f"validate {name}"):
            p.record(f"validate/{name}", _report(S.validate(budget=p.budget)))
    with p.group("face mutations"):
        mutants = face_mutations()
    for M in p.shuffled(mutants):
        with p.group(f"mutant {M.name}"):
            r = M.validate(budget=p.budget)
            p.record(f"mutation/{M.name}", [r.ok, len(r.violations)])
    for name, S in p.shuffled(members):
        with p.group(f"quasicategory check on {name}"):
            r = is_quasicategory(S, p.budget)
            p.record(f"qcat/{name}", [r.ok, r.horns_checked])
        with p.group(f"Kan check on {name}"):
            r = kan_check(S, p.budget)
            p.record(f"kan/{name}", [r.ok, r.horns_checked])
    with p.group("corpus quasicategories"):
        qcats = corpus_quasicategories()
    for name, Q in p.shuffled(qcats):
        with p.group(f"marked morphisms of {name}"):
            p.record(f"inverts_L/{name}", _report(check_inverts_L(Q, 2, p.budget)))
    cases = [(R, J) for R in KANEXT_TARGETS for J in ("[0]", "[1]")]
    for R, J in p.shuffled(cases):
        with p.group(f"Kan extension {R} over {J}"):
            res = kan_extension_value(nerve(KANEXT_TARGETS[R](), 3),
                                      poset_simplex(int(J[1])), 2, p.budget)
            p.record(f"kanext/{R}/{J}", [len(res.families), len(res.maps), res.bijective])


def no_setup(workdir: Path) -> None:
    return None


# name -> (set-up writing into a scratch directory, pass taking its result)
WORKLOADS = {
    "whitehead": (whitehead_setup, whitehead_pass),
    "audit": (no_setup, audit_pass),
    "simplices": (no_setup, simplices_pass),
}
