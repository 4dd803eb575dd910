"""Command-line driver: exit codes, deterministic reports, loud errors."""

import hashlib
import json

import pytest

import qcatkit.delocalization as delocalization
from qcatkit.cats import cat_to_text, contractible_groupoid, group_z2, poset_simplex
from qcatkit.cli import main
from qcatkit.corpus import labeled_map_corpus
from qcatkit.nerve import nerve
from qcatkit.prederivator import sample_to_manifest, standard_sample
from qcatkit.simplicial import horn, sset_to_text, standard_simplex
from qcatkit.whitehead import write_labeled_corpus
from test_mapping import HOMOTOPIC_PAIR


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "delta0.sset").write_text(sset_to_text(standard_simplex(0, 2)))
    (d / "n1.sset").write_text(sset_to_text(nerve(poset_simplex(1), 3)))
    (d / "nz2.sset").write_text(sset_to_text(nerve(group_z2(), 3)))
    (d / "nE.sset").write_text(sset_to_text(nerve(contractible_groupoid(), 3)))
    (d / "horn.sset").write_text(sset_to_text(horn(2, 1, 2)))
    (d / "fg.sset").write_text(HOMOTOPIC_PAIR)
    # four vertices: the top level of an exponential over it is curried
    (d / "square.sset").write_text(sset_to_text(nerve(standard_sample().cat("[1]x[1]"), 2)))
    (d / "interval.cat").write_text(cat_to_text(poset_simplex(1)))
    (d / "bad.sset").write_text("dim 2\n0: a\nface x y = [] a\n")
    rows = {name: (name, f, expected) for name, f, expected in labeled_map_corpus()}
    manifest = write_labeled_corpus([rows["id_delta0"], rows["collapse_N[1]"]], d / "corpus")
    write_labeled_corpus(labeled_map_corpus(), d / "full")
    return d, manifest


COMMANDS = [
    (["validate", "n1.sset"], 0),
    (["validate", "interval.cat"], 0),
    (["nerve", "interval.cat", "--dim", "2"], 0),
    (["ho", "n1.sset"], 0),
    (["exp", "n1.sset", "delta0.sset"], 0),
    (["check-qcat", "n1.sset"], 0),
    (["check-qcat", "horn.sset"], 1),
    (["der-audit", "delta0.sset"], 0),
    (["kanext", "n1.sset", "interval.cat"], 0),
    (["delocalize", "n1.sset"], 0),
    (["whitehead", "MANIFEST"], 0),
]


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,code", COMMANDS, ids=[c[0][0] + "-" + c[0][1] for c in COMMANDS])
def test_exit_code_and_identical_reruns(inputs, capsys, argv, code):
    d, manifest = inputs
    argv = [str(manifest) if a == "MANIFEST" else
            str(d / a) if a.endswith((".sset", ".cat")) else a for a in argv]
    for fmt in ("text", "json"):
        first = run(["--format", fmt] + argv, capsys)
        assert first[0] == code
        assert run(["--format", fmt] + argv, capsys) == first
    assert json.loads(first[1])["ok"] == (code == 0)


# argv, exit code, and the sha256 of the text and json reports: identical
# reruns do not show that a report stayed the same across a change of the
# code behind it
GOLDEN = [
    (["delocalize", "n1.sset", "--depth", "1"], 0,
     "1cd092f1874aec8fb46094fa73d2d6fc35915bc80264396a8dab793db69ae1a6",
     "f3f0298bd0dfa2ffb8d8cfec057e955ec08f8b7bf3df27dfa039a01db63acd58"),
    (["delocalize", "n1.sset", "--depth", "2"], 0,
     "76248ab369877c590f3a7eef9912936495bc0e5cef36d5f78fa94b7794d996f1",
     "e034ee705e1374378e0aae5e1132656a2fdedefde72ec412f7543e6cd09a7122"),
    (["delocalize", "nz2.sset"], 0,
     "2e33c3a70045e0f2e5ca131f4b3ca53affb9df32eed55dfaa8b87f63945f3e79",
     "d994726e87bce8fd2d3e4406e8039dae14b85f707a86628831e0cdec3b2b9889"),
    (["kanext", "n1.sset", "interval.cat"], 0,
     "98f20a4dbb714c30b15ad9e1ba7893f1dc3d2e1d018beb7d756b48671559f632",
     "d3c393d5662a4543c2db29cfcb21bd6fe5cf222cf656c4413eb5c32b871fb10a"),
    (["whitehead", "full/corpus.manifest"], 0,
     "4f93acbcda0529b895c1a7757ff90475b6f14a23daf95d8e0ea8325482c3a766",
     "9abb0e6ce017de8b85b820c381a7139c47ad7d530da5a5da36469a06bef3dcf3"),
    (["der-audit", "n1.sset"], 0,
     "06456f18250e597547945edcb543e0607d5113913f3748bed5f749c5fdf33151",
     "6056e4859faa00ac653ad0f67ad30792d64538223f4b056e013fe8e95e2705ee"),
    (["der-audit", "nz2.sset"], 0,
     "193cb2b5dfe0a7dee5d3a685abad86b309daa261db6602b518bcbc9d7a7e3eef",
     "6e5df61fb80fd22a867966f8fc638b3b06f09783f81d6d9c92748177970baed0"),
    (["exp", "nz2.sset", "n1.sset"], 0,
     "98722f25f66dcb99c46c913219597effb29323bcd7056e726363a969f0032b79",
     "8d6b3989ba063c33cfdacc2d2a8c65052221335a3fd9c71e6d0eceee7daebbbc"),
    (["check-qcat", "n1.sset"], 0,
     "bcdcd6ea9a8b3f47ee20dc6f5fbf89782d6026199aedfb71c70fcb441de8ba04",
     "ded3d56582164f385880d3d7f605ebea91caae362ae72a62fada0a028a5ffb3a"),
    (["check-qcat", "horn.sset"], 1,
     "c90799167f3edfea44b06f39d6cf61956ddfb79792ba8baf9cf9aa22960a439f",
     "4ef58e9b320e5bcf93402788893d2d858dc515a31a28896a5907cd4d31adb4d4"),
    (["validate", "n1.sset"], 0,
     "a455a537ea564bf1917a42d9589b4042ab0ae11982fba33912af846d8cd5b521",
     "061e1c14b6c8aef2f34e70be43b08fb07e6cc52a1caf616c65c7a48a1450ea8b"),
    (["ho", "n1.sset"], 0,
     "993bf12ec08c2446bbb2a7b1a26c8ba5b8b837d98a8700e996c704e7e3ef7d1d",
     "619f0c4ec899dc5e90286e1c16ca1007faa03479a98460c6a8d4becbed1c8bc5"),
    (["ho", "nz2.sset"], 0,
     "348c84c1d136354a8977f613e76335375d8d3de52394546d2707f79a85d37485",
     "ca3304d979ce7cbd4679bdf6b3cd860b87069fa5f65f27a37c00d0dfdda413a1"),
    # the class {f, g} is named f
    (["ho", "fg.sset"], 0,
     "0bbf5438b8a4d67cd068d6defaa20189ab2018c1ab894653898374b50c8ed51b",
     "0eb611c9b08648d833623546ec9b9d2eb6c0988f2df0b2509daec2100954024d"),
    (["exp", "n1.sset", "square.sset"], 0,
     "a62c18a35aa68179344c411d160a828e6e8f21676e8418c9c044bb6888983b63",
     "17d3d2c2e8d7d6499effdd64bc5a4befd1db5c94a1ee196f233a80ded0860135"),
    # the counts of a direct and of a curried top level, recorded while the
    # top level was still named to be counted
    (["exp", "nE.sset", "n1.sset"], 0,
     "092a75064b071a5b58da6a0fdf3e3d175fb1515aab9ce945cd1abfc2e44c1ded",
     "2278d8d4722fdaaf10fd4a78b08497699d4196c55217c4469e1c59ea50841b1a"),
    (["exp", "fg.sset", "square.sset"], 0,
     "fc48b18284f29c100533932b9ffd11c3536bf6cb6197c037755e00b933021247",
     "1229e0a25582ec552ec13aa82dd02d6614a220d02753de574dab16dc31d62fe4"),
]


@pytest.mark.parametrize("argv,exit_code,text_sha,json_sha", GOLDEN,
                         ids=["-".join(g[0][:2] + g[0][3:]) for g in GOLDEN])
def test_golden_reports(inputs, capsys, argv, exit_code, text_sha, json_sha):
    d, _ = inputs
    argv = [str(d / a) if a.endswith((".sset", ".cat", ".manifest")) else a for a in argv]
    for fmt, digest in (("text", text_sha), ("json", json_sha)):
        code, out = run(["--format", fmt] + argv, capsys)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, out)


def test_der_audit_runs_on_the_command_budget(inputs, capsys):
    # HO(N([1])) alone charges 9173 steps; Der1's equivalence searches
    # share the budget and bring the audit to 9384
    d, _ = inputs
    argv = ["der-audit", str(d / "n1.sset")]
    code, out = run(["--budget", "9300"] + argv, capsys)
    assert code == 1
    assert out == "error: budget of 9300 elementary steps exceeded in der audit\n"
    passed = run(["--budget", "10400"] + argv, capsys)
    assert passed[0] == 0 and passed == run(argv, capsys)


def test_malformed_sset_is_an_error_line(inputs, capsys):
    d, _ = inputs
    code, out = run(["validate", str(d / "bad.sset")], capsys)
    assert code == 1
    assert out.startswith("error: line 3:")


# sets whose face data does not code, each with the error naming the face and the set
MALFORMED = {
    "noface": ("dim 2\ncoskeletal 2\n0: x y\n1: f\nface f 0 = [] y\n",
               "missing face ('f', 1) in noface"),
    "dangling": ("dim 2\ncoskeletal 2\n0: x y\n1: f\nface f 0 = [] y\nface f 1 = [] zz\n",
                 "dangling base identifier 'zz' at face ('f', 1) in dangling"),
    "wrongdim": ("dim 2\ncoskeletal 2\n0: a b\n1: f\nface f 0 = [s0] b\nface f 1 = [] a\n",
                 "face ('f', 0) = s0.b is no 0-simplex of wrongdim"),
}


@pytest.mark.parametrize("command", ["ho", "check-qcat"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_face_that_does_not_code_is_a_named_error(tmp_path, capsys, name, command):
    text, message = MALFORMED[name]
    path = tmp_path / f"{name}.sset"
    path.write_text(text)
    assert run([command, str(path)], capsys) == (1, f"error: {message}\n")
    code, out = run(["--format", "json", command, str(path)], capsys)
    assert code == 1
    assert json.loads(out) == {"ok": False, "items": [{"ok": False, "text": f"error: {message}"}]}


def test_unexpected_error_is_an_error_line(inputs, capsys, tmp_path):
    # a category entry that is not a file name fails with a TypeError
    d, _ = inputs
    sample = tmp_path / "m.json"
    sample.write_text(json.dumps({"categories": {"[0]": 0}}))
    code, out = run(["der-audit", str(d / "delta0.sset"), "--sample", str(sample)], capsys)
    assert code == 1
    assert out.startswith("error: ")


def test_sample_manifest_is_checked_on_load(inputs, capsys, tmp_path):
    d, _ = inputs
    sset = str(d / "n1.sset")
    sample_to_manifest(standard_sample(), tmp_path)
    manifest = tmp_path / "sample.json"
    # the standard sample read back audits as the standard sample
    for fmt in ("text", "json"):
        argv = ["--format", fmt, "der-audit", sset]
        assert run(argv + ["--sample", str(manifest)], capsys) == run(argv, capsys)
    # a coproduct annotation naming the wrong member is an error, not a Der1 failure
    data = json.loads(manifest.read_text())
    data["coproducts"]["[0]|[0]"] = "[0]+[1]"
    manifest.write_text(json.dumps(data))
    code, out = run(["der-audit", sset, "--sample", str(manifest)], capsys)
    assert code == 1
    assert out == ("error: sample standard: coproduct annotation [0] + [0] = [0]+[1] "
                   "is not the coproduct\n")


@pytest.mark.parametrize("missing", ["end0_[0]", "end1_[0]", "step_[0]"])
def test_a_shift_without_its_structure_is_a_closure_error(inputs, capsys, tmp_path, missing):
    # the sample annotates the shift [0] x [1] but does not list one of its
    # ends or its step; a 2-cell between the ends goes with a missing end
    d, _ = inputs
    data = sample_to_manifest(standard_sample(), tmp_path)
    data["functors"] = [f for f in data["functors"] if f["name"] != missing]
    data["nats"] = [a for a in data["nats"] if missing not in (a["name"], a["src"], a["dst"])]
    (tmp_path / "sample.json").write_text(json.dumps(data))
    code, out = run(["der-audit", str(d / "n1.sset"), "--sample", str(tmp_path / "sample.json")],
                    capsys)
    assert code == 1
    assert out == f"error: sample standard lacks {missing} for the shift [0] x [1]\n"


def test_global_report_writes_the_nerve_itself(inputs, capsys, tmp_path):
    # with ``--report``, nerve writes the set to the file, not the report
    d, _ = inputs
    path = tmp_path / "interval.sset"
    code, out = run(["--report", str(path), "nerve", str(d / "interval.cat"), "--dim", "2"],
                    capsys)
    assert code == 0
    assert path.read_text() == sset_to_text(nerve(poset_simplex(1), 2))
    assert out == f"nerve of interval at dim 2 written to {path}\n"


def test_verify_suite_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-suite"])
    assert exc.value.code == 2


def test_delocalize_builds_the_simplex_category_once(inputs, capsys, monkeypatch):
    built = []
    init = delocalization.SimplexCategory.__init__

    def counting_init(self, S, depth):
        built.append((S.name, depth))
        init(self, S, depth)

    monkeypatch.setattr(delocalization.SimplexCategory, "__init__", counting_init)
    d, _ = inputs
    code, out = run(["delocalize", str(d / "n1.sset"), "--depth", "2"], capsys)
    assert code == 0 and "[marked-inversion]: pass" in out
    assert built == [("n1", 2)]


@pytest.mark.parametrize("map_file,old,new,where", [
    ("m06.map", "eab|eba|eab = eba|eab|eba", "eab|eba|eab = eab|eba|eab",
     "line 7: m06.map: face d_0 not preserved at 'eab|eba|eab'"),
    ("m00.map", "m01 = m01\n", "", "line 1: m00.map: no image for 'm01'"),
], ids=["face-not-preserved", "missing-image"])
def test_whitehead_rejects_a_map_that_is_not_simplicial(tmp_path, capsys, map_file, old, new,
                                                        where):
    manifest = write_labeled_corpus(labeled_map_corpus(), tmp_path)
    path = tmp_path / map_file
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, out = run(["whitehead", str(manifest)], capsys)
    assert code == 1
    assert out == f"error: corpus.manifest {where}\n"


def test_whitehead_rejects_a_sample_whose_coproduct_is_not_one(inputs, capsys, tmp_path):
    # the experiment would decide [0] + [1] from [0] and [1]; here the
    # annotation names [1]+[1], which is not their coproduct
    _, manifest = inputs
    data = sample_to_manifest(standard_sample(), tmp_path)
    data["coproducts"]["[0]|[1]"] = "[1]+[1]"
    (tmp_path / "sample.json").write_text(json.dumps(data))
    code, out = run(["whitehead", str(manifest), "--sample", str(tmp_path / "sample.json")],
                    capsys)
    assert code == 1
    assert out == ("error: sample standard: coproduct annotation [0] + [1] = [1]+[1] "
                   "is not the coproduct\n")


def test_whitehead_rejects_a_manifest_with_no_map_line(tmp_path, capsys):
    # the agreement table of no rows was a bare "max() arg is an empty sequence"
    manifest = tmp_path / "empty.manifest"
    manifest.write_text("# no map listed\n")
    code, out = run(["whitehead", str(manifest)], capsys)
    assert code == 1
    assert out == "error: empty.manifest: no map line\n"
