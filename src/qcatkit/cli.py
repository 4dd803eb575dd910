"""Command-line driver.

Loads presentations, runs constructions and audits, and emits reports
that are byte-identical across runs for the same inputs and flags.
Exit status is nonzero on validation failures, audit counterexamples,
and budget overruns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cats import cat_from_text, validate_category
from .delocalization import check_inverts_L, last_vertex_projection, marked_closure_report
from .mapping import Exponential
from .nerve import ho, is_quasicategory, nerve
from .prederivator import (
    HoPrederivator,
    der_audit,
    kan_extension_value,
    sample_from_manifest,
    standard_sample,
)
from .simplicial import sset_from_text, sset_to_text
from .util import DEFAULT_BUDGET, Budget
from .whitehead import agreement_table, conservativity_experiment, load_labeled_corpus


def _load_sset(path: str):
    p = Path(path)
    return sset_from_text(p.read_text(), p.stem)


def _load_cat(path: str):
    p = Path(path)
    return cat_from_text(p.read_text(), p.stem)


def _load_sample(spec):
    if spec in (None, "standard"):
        return standard_sample()
    return sample_from_manifest(spec)


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.records: list = []
        self.failed = False

    def add(self, text: str, record=None, ok: bool = True):
        self.lines.append(text)
        self.records.append(record if record is not None else {"text": text, "ok": ok})
        if not ok:
            self.failed = True

    def render(self) -> str:
        if self.fmt == "json":
            return json.dumps({"ok": not self.failed, "items": self.records},
                              indent=1, sort_keys=True) + "\n"
        return "\n".join(self.lines) + "\n"


def cmd_validate(args, report: Report) -> None:
    path = Path(args.file)
    if path.suffix == ".cat":
        result = validate_category(_load_cat(args.file))
    else:
        result = _load_sset(args.file).validate()
    for line in result.lines():
        report.add(line, ok=True)
    if not result.ok:
        report.failed = True


def cmd_nerve(args, report: Report) -> None:
    J = _load_cat(args.cat)
    N = nerve(J, args.dim)
    text = sset_to_text(N)
    if args.report:
        Path(args.report).write_text(text)
        report.add(f"nerve of {J.name} at dim {args.dim} written to {args.report}")
    else:
        report.add(text.rstrip("\n"))


def cmd_ho(args, report: Report) -> None:
    S = _load_sset(args.sset)
    pres = ho(S, Budget(args.budget, "ho"))
    cat = pres.category
    report.add(f"homotopy category of {S.name}: {len(cat.objects)} objects, "
               f"{len(cat.morphisms)} morphisms",
               {"objects": len(cat.objects), "morphisms": len(cat.morphisms)})
    for m in sorted(cat.morphisms):
        d, c = cat.morphisms[m]
        tag = " (identity)" if cat.is_identity(m) else ""
        report.add(f"  {m}: {d} -> {c}{tag}")


def cmd_exp(args, report: Report) -> None:
    T = _load_sset(args.base)
    S = _load_sset(args.exponent)
    E = Exponential(T, S, args.level, Budget(args.budget, "exponential"))
    for n in range(args.level + 1):
        nondeg, total = len(E.sset.nondeg(n)), len(E.sset.rows(n))
        report.add(f"level {n}: {nondeg} nondegenerate, {total} total",
                   {"level": n, "nondegenerate": nondeg, "total": total})


def cmd_check_qcat(args, report: Report) -> None:
    S = _load_sset(args.sset)
    result = is_quasicategory(S, Budget(args.budget, "quasicategory check"))
    for line in result.lines():
        report.add(line)
    if not result.ok:
        report.failed = True


def cmd_der_audit(args, report: Report) -> None:
    S = _load_sset(args.sset)
    sample = _load_sample(args.sample)
    budget = Budget(args.budget, "der audit")
    audits = der_audit(HoPrederivator(S, sample, budget), budget)
    for name in sorted(audits):
        result = audits[name]
        status = "pass" if result.ok else "FAIL"
        report.add(f"{name} [axiom audit {name.lower()}]: {status} "
                   f"({result.checked} checks)",
                   {"axiom": name, "ok": result.ok, "checks": result.checked},
                   ok=result.ok)
        for v in result.violations:
            report.add(f"  counterexample: {v}", ok=False)


def cmd_kanext(args, report: Report) -> None:
    R = _load_sset(args.sset)
    J = _load_cat(args.cat)
    result = kan_extension_value(R, J, args.depth, Budget(args.budget, "kan extension"))
    ok = result.bijective
    report.add(f"limit families at depth {args.depth}: {len(result.families)}; "
               f"direct simplicial maps: {len(result.maps)}; "
               f"bijection: {'yes' if ok else 'NO'}",
               {"families": len(result.families), "maps": len(result.maps), "ok": ok},
               ok=ok)


def cmd_delocalize(args, report: Report) -> None:
    S = _load_sset(args.sset)
    sc, _, _ = last_vertex_projection(S, args.depth)
    report.add(f"simplex category at depth {args.depth}: "
               f"{len(sc.category.objects)} objects, "
               f"{len(sc.category.morphisms)} morphisms, {len(sc.marked)} marked")
    closure = marked_closure_report(sc)
    report.add(f"marked class closed under composition: "
               f"{'yes' if closure.ok else 'NO'}", ok=closure.ok)
    report.add("last-vertex projection is simplicial: yes")
    inv = check_inverts_L(S, args.depth, Budget(args.budget, "delocalization"), sc)
    status = 'pass' if inv.ok else 'FAIL'
    report.add(f"marked morphisms invert in the homotopy category "
               f"[marked-inversion]: {status} ({inv.checked} checked)", ok=inv.ok)
    for v in inv.violations:
        report.add(f"  counterexample: {v}", ok=False)


def cmd_whitehead(args, report: Report) -> None:
    corpus = load_labeled_corpus(args.manifest)
    rows = conservativity_experiment(corpus, _load_sample(args.sample),
                                     Budget(args.budget, "whitehead"))
    for line in agreement_table(rows).splitlines():
        report.add(line)
    bad = [r for r in rows if not (r.implication_ok and r.matches_ground_truth)]
    if bad:
        for r in bad:
            report.add(f"disagreement on {r.name}", ok=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcatkit",
        description="finite simplicial sets, finite categories, prederivators")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--report", help="write the report to this path")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="elementary enumeration steps per operation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .sset or .cat file")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("nerve", help="emit the truncated nerve of a category")
    p.add_argument("cat")
    p.add_argument("--dim", type=int, default=3)
    p.set_defaults(run=cmd_nerve)

    p = sub.add_parser("ho", help="homotopy category of a quasicategory")
    p.add_argument("sset")
    p.set_defaults(run=cmd_ho)

    p = sub.add_parser("exp", help="levels of a truncated exponential")
    p.add_argument("base")
    p.add_argument("exponent")
    p.add_argument("--level", type=int, default=2)
    p.set_defaults(run=cmd_exp)

    p = sub.add_parser("check-qcat", help="inner horn filling check")
    p.add_argument("sset")
    p.set_defaults(run=cmd_check_qcat)

    p = sub.add_parser("der-audit", help="axiom audits of the associated prederivator")
    p.add_argument("sset")
    p.add_argument("--sample", default=None)
    p.set_defaults(run=cmd_der_audit)

    p = sub.add_parser("kanext", help="limit over the truncated simplex category")
    p.add_argument("sset")
    p.add_argument("cat")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(run=cmd_kanext)

    p = sub.add_parser("delocalize", help="marked-class checks at a depth")
    p.add_argument("sset")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(run=cmd_delocalize)

    p = sub.add_parser("whitehead", help="equivalence agreement over a labeled corpus")
    p.add_argument("manifest")
    p.add_argument("--sample", default=None)
    p.set_defaults(run=cmd_whitehead)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(args.format)
    try:
        args.run(args, report)
    except Exception as err:  # any failure of a subcommand is a report line, not a traceback
        # the str() of a KeyError is the repr of its message
        report.add(f"error: {err.args[0] if isinstance(err, KeyError) and err.args else err}",
                   ok=False)
    text = report.render()
    if args.report and args.command != "nerve":
        Path(args.report).write_text(text)
    sys.stdout.write(text)
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
