"""End-to-end command-line coverage using only shipped fixtures."""

import json
import re
from pathlib import Path

import pytest

from packinglab import cli, serialize
from packinglab.cli import main
from packinglab.fixtures import COX6_DIAGRAM


@pytest.fixture()
def cox6_path(tmp_path):
    p = tmp_path / "cox6.cox"
    p.write_text(COX6_DIAGRAM)
    return str(p)


@pytest.fixture()
def apollonian_path(tmp_path):
    out = tmp_path / "apollonian.json"
    assert main(["fixtures", "apollonian", "--out", str(out)]) == 0
    return str(out)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    for name in ("apollonian", "hexpyr", "cox6", "tetrahedron", "cuboctahedron"):
        assert name in out


def test_unknown_fixture_is_domain_error(capsys):
    code, _, err = run(capsys, "fixtures", "nonesuch")
    assert code == 1
    assert json.loads(err)["error"] == "PackingLabError"


def test_parse_emits_gram_json(capsys, cox6_path):
    code, out, _ = run(capsys, "parse", cox6_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gram" and doc["format"] == 1


def test_show_round_trips_diagram(capsys, cox6_path):
    code, out, _ = run(capsys, "show", cox6_path)
    assert code == 0
    from packinglab.coxeter import parse_diagram

    assert parse_diagram(out) == parse_diagram(COX6_DIAGRAM)


def test_decompose_reports_first_wall_cluster(capsys, cox6_path):
    code, out, _ = run(capsys, "decompose", cox6_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert any(line.startswith("C={1} ") for line in lines)


def test_orbit_summary(capsys, apollonian_path, tmp_path):
    out_path = tmp_path / "packing.json"
    code, out, _ = run(capsys, "orbit", apollonian_path, "--bound", "3",
                       "--max-word", "64", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["saturated"] is True
    assert summary["spheres"] == 5
    packing = serialize.load(out_path)
    assert [str(b) for b in packing.bends_list()] == ["-1", "2", "2", "3", "3"]


def test_certify_integral_packing(capsys, apollonian_path, tmp_path):
    out_path = tmp_path / "packing.json"
    run(capsys, "orbit", apollonian_path, "--bound", "50", "--max-word", "300",
        "--out", str(out_path))
    code, out, _ = run(capsys, "certify", str(out_path))
    assert code == 0
    assert json.loads(out) == {"integral": True, "witnesses": []}


def test_certify_superpacking_witness(capsys, tmp_path):
    hex_path = tmp_path / "hexpyr.json"
    super_path = tmp_path / "super.json"
    run(capsys, "fixtures", "hexpyr", "--out", str(hex_path))
    run(capsys, "orbit", str(hex_path), "--bound", "30", "--max-word", "3",
        "--super", "--out", str(super_path))
    code, out, _ = run(capsys, "certify", str(super_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] is False
    assert {"bend": "-1/3", "word_length": 3} in doc["witnesses"]


def test_arith_prints_witness(capsys, tmp_path):
    gram_path = tmp_path / "hexpyr.gram.json"
    run(capsys, "fixtures", "hexpyr-gram", "--out", str(gram_path))
    code, out, _ = run(capsys, "arith", str(gram_path))
    assert code == 0
    assert out.strip() == "NonArithmetic(cycle=(1,14), product=16/3)"


def test_geometrize_round_trip(capsys, tmp_path):
    target_path = tmp_path / "tetra.json"
    system_path = tmp_path / "system.json"
    run(capsys, "fixtures", "tetrahedron", "--out", str(target_path))
    code, _, err = run(capsys, "geometrize", str(target_path), "--d", "0",
                       "--out", str(system_path))
    assert code == 0
    assert json.loads(err)["verified"] is True
    system = serialize.load(system_path)
    assert len(system.walls) == 8
    assert system.cluster_idx == (0, 1, 2, 3)


def test_render_writes_svg(capsys, apollonian_path, tmp_path):
    packing_path = tmp_path / "packing.json"
    svg_path = tmp_path / "fig.svg"
    run(capsys, "orbit", apollonian_path, "--bound", "15", "--max-word", "64",
        "--out", str(packing_path))
    code, _, _ = run(capsys, "render", str(packing_path), "--out", str(svg_path), "--labels")
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 19
    assert ">15</text>" in svg


def test_lg_scan(capsys, apollonian_path):
    code, out, _ = run(capsys, "lg-scan", apollonian_path, "--bound", "100",
                       "--max-word", "600", "--modulus", "24", "--scan-bound", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible_residues"] == [2, 3, 6, 11, 14, 15, 18, 23]
    assert doc["missing"] == [78]


def test_lg_scan_unsaturated_reports_no_missing(capsys, apollonian_path):
    code, out, _ = run(capsys, "lg-scan", apollonian_path, "--bound", "60",
                       "--max-word", "2", "--modulus", "24", "--scan-bound", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["saturated"] is False
    assert doc["missing"] is None


def test_outputs_byte_stable(capsys, apollonian_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _, out1, _ = run(capsys, "orbit", apollonian_path, "--bound", "20",
                     "--max-word", "200", "--out", str(a))
    _, out2, _ = run(capsys, "orbit", apollonian_path, "--bound", "20",
                     "--max-word", "200", "--out", str(b))
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_is_clean_error(capsys):
    code, _, err = run(capsys, "orbit", "/nonexistent.json", "--bound", "3")
    assert code == 1
    assert json.loads(err)["error"] == "OSError"


_READERS = [
    ["certify"], ["orbit", "--bound", "3"], ["render"],
    ["lg-scan", "--bound", "10", "--modulus", "24", "--scan-bound", "10"],
    ["geometrize", "--d", "0"], ["parse"], ["show"], ["arith"], ["decompose"],
]
_READER_IDS = ["certify", "orbit", "render", "lg-scan", "geometrize", "parse", "show", "arith",
               "decompose"]


@pytest.mark.parametrize("command", _READERS, ids=_READER_IDS)
def test_file_not_utf8_is_clean_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.cox"
    bad.write_bytes(b"\xff")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "FormatError",
        "message": f"{bad} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0:"
                   " invalid start byte",
    }


@pytest.mark.parametrize("command", [c for c in _READERS if c[0] not in ("parse", "show")],
                         ids=[i for i in _READER_IDS if i not in ("parse", "show")])
def test_json_nested_too_deep_is_clean_error(capsys, tmp_path, command):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "FormatError" and doc["message"].startswith("invalid JSON: ")


@pytest.mark.parametrize(
    "edit, command",
    [
        (lambda doc: doc.pop("walls"), ["orbit", "--bound", "3"]),
        (lambda doc: doc.pop("cocluster"), ["orbit", "--bound", "3"]),
        # wall 5 is also in the cocluster
        (lambda doc: doc.update(cluster=[0, 1, 2, 3, 4]), ["orbit", "--bound", "3"]),
        (lambda doc: doc["walls"][3].update(bend="4"), ["orbit", "--bound", "3"]),  # Q(v) = 0
        # wall 1 is (1, -1, 0, 0): without its last coordinate Q(v) is still -1
        (lambda doc: doc["walls"][0].update(bz=["0"]), ["orbit", "--bound", "3"]),
        (lambda doc: doc.update(dim=3), ["orbit", "--bound", "3"]),
        # Q(v) = -1, but the coordinates lie in Q(sqrt(2)) and Q(sqrt(3))
        (lambda doc: doc["walls"].__setitem__(
            7, {"cobend": "1*sqrt(2)", "bend": "0", "bz": ["1/2*sqrt(3)", "1/2"]}),
         ["orbit", "--bound", "3"]),
        (lambda doc: doc.update(kind=["system"]), ["orbit", "--bound", "3"]),
        # 0.0 == 0, so the partition check alone lets a float index through
        (lambda doc: doc.update(cluster=[0.0, 1, 2, 3]), ["orbit", "--bound", "3"]),
        (lambda doc: doc.update(cluster=[0.0, 1, 2, 3]),
         ["lg-scan", "--bound", "10", "--modulus", "24", "--scan-bound", "10"]),
        # a valid system document where another kind is expected
        (lambda doc: None, ["certify"]),
        (lambda doc: None, ["render"]),
        (lambda doc: None, ["geometrize", "--d", "0"]),
    ],
    ids=["missing-walls", "missing-cocluster", "overlapping-partition", "off-quadric-wall",
         "short-wall", "wrong-dim", "two-field-wall", "list-kind", "float-cluster-orbit",
         "float-cluster-lg-scan", "certify-system", "render-system", "geometrize-system"],
)
def test_bad_system_file_is_clean_error(capsys, apollonian_path, tmp_path, edit, command):
    doc = json.loads(Path(apollonian_path).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "FormatError"


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("targets"),
        lambda doc: doc.pop("wall_count"),
        lambda doc: doc["targets"][0].pop("value"),
        lambda doc: doc["targets"][0].update(i=99),
        lambda doc: doc.update(wall_count=9),  # the hint still has 8 rows
        lambda doc: doc["init_hint"][0].pop(),
        lambda doc: doc["init_hint"][0].__setitem__(0, 1e309),  # written as Infinity
        lambda doc: doc["targets"][0].update(i=0.0),
        lambda doc: (doc.pop("init_hint"), doc.update(wall_count=8.5)),
    ],
    ids=["missing-targets", "missing-wall-count", "target-without-value", "pair-out-of-range",
         "hint-rows-short", "hint-row-short", "hint-past-float", "float-pair-index",
         "float-wall-count"],
)
def test_bad_target_file_is_clean_error(capsys, tmp_path, edit):
    target = tmp_path / "tetra.json"
    run(capsys, "fixtures", "tetrahedron", "--out", str(target))
    doc = json.loads(target.read_text())
    edit(doc)
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geometrize", str(target), "--d", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "FormatError"


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc: doc["targets"][0].update(value="1" + "0" * 400), "ParameterError"),
        # the residual of the hint overflows
        (lambda doc: doc["init_hint"].__setitem__(0, [1e308] * 4), "NoConvergence"),
    ],
    ids=["value-past-float", "hint-row-overflows"],
)
def test_unsolvable_target_is_clean_error(capsys, tetra_path, edit, error):
    doc = json.loads(tetra_path.read_text())
    edit(doc)
    tetra_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "0")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error


def test_off_quadric_packing_is_clean_error(capsys, apollonian_path, tmp_path):
    packing_path = tmp_path / "packing.json"
    run(capsys, "orbit", apollonian_path, "--bound", "20", "--max-word", "200",
        "--out", str(packing_path))
    doc = json.loads(packing_path.read_text())
    outer = next(i for i, o in enumerate(doc["spheres"]) if o["bend"] == "-1")
    doc["spheres"][outer]["bend"] = "0"  # Q(v) = 0
    packing_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", str(packing_path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert payload["message"] == f"sphere {outer + 1}: Q(v) = 0 != -1"


@pytest.mark.parametrize("command", ["certify", "render"])
def test_short_packing_sphere_is_clean_error(capsys, apollonian_path, tmp_path, command):
    packing_path = tmp_path / "packing.json"
    run(capsys, "orbit", apollonian_path, "--bound", "3", "--out", str(packing_path))
    doc = json.loads(packing_path.read_text())
    doc["spheres"][0]["bz"] = doc["spheres"][0]["bz"][:1]  # the outer circle, (1, -1, 0, 0)
    packing_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(packing_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert payload["message"].startswith("sphere 1: ")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["spheres"][2].update(word_length="two"),
         "ParameterError: sphere 3: word_length"),
        (lambda doc: doc["spheres"][2].update(word_length=-1),
         "ParameterError: sphere 3: word_length"),
        (lambda doc: doc["spheres"][2].update(parent_generator=1.5),
         "ParameterError: sphere 3: parent_generator"),
        # wall 1 is a cluster wall, not a generator
        (lambda doc: doc["spheres"][2].update(parent_generator=0),
         "ParameterError: sphere 3: parent_generator"),
        (lambda doc: doc.update(saturated="yes"), "ParameterError: saturated"),
        (lambda doc: doc.update(max_word=[3]), "ParameterError: max_word"),
        (lambda doc: doc.update(dim=2.0), "ParameterError: dim"),
        (lambda doc: doc.update(boundary_walls="0"), "ParameterError: boundary_walls"),
        (lambda doc: doc["generators"].__setitem__(0, 4.0), "ParameterError: generators"),
    ],
    ids=["word-length-string", "word-length-negative", "parent-float", "parent-not-generator",
         "saturated-string", "max-word-list", "dim-float", "boundary-walls-string",
         "generator-float"],
)
@pytest.mark.parametrize("command", ["certify", "render"])
def test_bad_packing_field_is_clean_error(capsys, apollonian_path, tmp_path, edit, message,
                                         command):
    packing_path = tmp_path / "packing.json"
    run(capsys, "orbit", apollonian_path, "--bound", "3", "--out", str(packing_path))
    doc = json.loads(packing_path.read_text())
    edit(doc)
    packing_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(packing_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert message in payload["message"]


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("system", lambda doc: doc["walls"][1].update(cobend=0.1), "must be a string, not float"),
        # the wall's own bend as a number: only the type is wrong
        ("system", lambda doc: doc["walls"][1].update(bend=2), "must be a string, not int"),
        ("packing", lambda doc: doc.update(bend_bound=3), "must be a string, not int"),
        ("target", lambda doc: doc["targets"][0].update(value=1), "must be a string, not int"),
        ("system", lambda doc: doc["walls"][0].update(cobend="1*sqrt(10000000000037)"),
         "discriminant 10000000000037 exceeds"),
        ("system", lambda doc: doc["walls"][0]["bz"].__setitem__(0, "0/0"), "zero denominator"),
    ],
    ids=["number-cobend", "number-bend", "number-bend-bound", "number-target-value",
         "large-discriminant", "zero-denominator"],
)
def test_bad_literal_is_clean_error(capsys, apollonian_path, tmp_path, kind, edit, message):
    path = tmp_path / f"{kind}.json"
    if kind == "system":
        path = Path(apollonian_path)
        command = ["orbit", str(path), "--bound", "3"]
    elif kind == "packing":
        run(capsys, "orbit", apollonian_path, "--bound", "3", "--max-word", "64", "--out", str(path))
        command = ["certify", str(path)]
    else:
        run(capsys, "fixtures", "tetrahedron", "--out", str(path))
        command = ["geometrize", str(path), "--d", "0"]
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "FormatError"
    assert message in payload["message"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometrize"])  # missing required target argument
    assert exc.value.code == 2


@pytest.fixture()
def hexpyr_gram_path(capsys, tmp_path):
    path = tmp_path / "hexpyr.gram.json"
    run(capsys, "fixtures", "hexpyr-gram", "--out", str(path))
    return path


@pytest.fixture()
def tetra_path(capsys, tmp_path):
    path = tmp_path / "tetra.json"
    run(capsys, "fixtures", "tetrahedron", "--out", str(path))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["lg-scan", "{system}", "--bound", "10", "--modulus", "0", "--scan-bound", "10"],
        # 55109**4 does not fit in an int64 key
        ["lg-scan", "{system}", "--bound", "10", "--modulus", "55109", "--scan-bound", "10"],
        ["arith", "{gram}", "--max-len", "1"],
        ["orbit", "{system}", "--bound", "3+"],
        ["lg-scan", "{system}", "--bound", "1*sqrt(10000000000037)", "--modulus", "24",
         "--scan-bound", "10"],
        ["geometrize", "{target}", "--d", "-3"],
        # sqrt(4) is rational, so one value would have several (a, b) keys
        ["geometrize", "{target}", "--d", "4"],
        ["geometrize", "{target}", "--d", "0", "--denom", "0"],
        ["geometrize", "{target}", "--d", "0", "--seed", "-1"],
        ["geometrize", "{target}", "--d", "0", "--tol", "nan"],
        ["geometrize", "{target}", "--d", "0", "--tol=-1e-24"],
        # at d = 0 a grid row is one cell wide, so only the bound itself is too large
        ["geometrize", "{target}", "--d", "0", "--denom", "1000000000000"],
        ["geometrize", "{target}", "--d", "0", "--cluster", "0", "99"],
        ["geometrize", "{target}", "--d", "0", "--cluster", "0", "0", "1"],
        ["render", "{packing}", "--half-width", "0"],
        ["render", "{packing}", "--half-width", "nan"],
        ["render", "{packing}", "--size", "0"],
        ["render", "{packing}", "--size", "1" + "0" * 400],
        ["render", "{packing}", "--stroke-width=-1"],
        # the pixel scale 640 / 2e-320 overflows
        ["render", "{packing}", "--half-width", "1e-320"],
        ["orbit", "{system}", "--bound", "20", "--max-word=-1"],
        ["orbit", "{system}", "--bound=-5"],
        ["orbit", "{system}", "--bound", "20", "--max-word=-1", "--super"],
        ["orbit", "{system}", "--bound=-1/2", "--super"],
        # bends over --bound are never generated, so a scan past it would call them missing
        ["lg-scan", "{system}", "--bound", "30", "--max-word", "600", "--modulus", "24",
         "--scan-bound", "60"],
    ],
    ids=["modulus-zero", "modulus-past-int64", "max-len-one", "unparsable-bound",
         "bound-discriminant", "negative-d", "square-d", "denom-zero", "seed-negative",
         "tol-nan", "tol-negative", "denom-too-large", "cluster-out-of-range",
         "cluster-repeated", "half-width-zero", "half-width-nan", "size-zero",
         "size-past-float-range", "stroke-width-negative", "half-width-underflows-scale",
         "max-word-negative", "bound-negative",
         "super-max-word-negative", "super-bound-negative", "scan-past-bound"],
)
def test_bad_parameter_is_clean_error(capsys, apollonian_path, hexpyr_gram_path, tetra_path,
                                      tmp_path, argv):
    packing = tmp_path / "packing.json"
    run(capsys, "orbit", apollonian_path, "--bound", "3", "--out", str(packing))
    paths = {"system": apollonian_path, "gram": str(hexpyr_gram_path), "target": str(tetra_path),
             "packing": str(packing)}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParameterError"


def test_geometrize_d_past_max_disc_is_refused_before_realize(capsys, tetra_path, monkeypatch):
    def unrun(*args, **kwargs):
        raise AssertionError("realize ran")

    monkeypatch.setattr(cli, "realize", unrun)
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "10000000001")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ParameterError", "message": "d 10000000001 is over the limit of 1000000000"
    }


@pytest.mark.parametrize(
    "denom, message",
    [("0", "denominator bound must be positive, got 0"),
     ("16777217", "denominator bound 16777217 is over the limit of 16777216")],
    ids=["zero", "past-the-row-limit"],
)
def test_geometrize_bad_denom_is_refused_before_realize(capsys, tetra_path, monkeypatch, denom, message):
    def unrun(*args, **kwargs):
        raise AssertionError("realize ran")

    monkeypatch.setattr(cli, "realize", unrun)
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "0", "--denom", denom)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ParameterError", "message": message}


@pytest.mark.parametrize("modulus", ["0", "55109"])
def test_lg_scan_bad_modulus_is_refused_before_the_packing(capsys, apollonian_path, monkeypatch,
                                                            modulus):
    def unrun(*args, **kwargs):
        raise AssertionError("generate_packing ran")

    monkeypatch.setattr(cli, "generate_packing", unrun)
    code, out, err = run(capsys, "lg-scan", apollonian_path, "--bound", "20000",
                         "--modulus", modulus, "--scan-bound", "10")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("tol", ["nan", "-1e-24"])
def test_geometrize_bad_tol_message(capsys, tetra_path, tol):
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "0", f"--tol={tol}")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ParameterError", "message": f"tol must be finite and positive, got {float(tol)}"
    }


def test_geometrize_tol_under_the_grid_is_clean_error(capsys, tetra_path):
    # realize's grid reaches about 1e-65, so 1e-80 is never met
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "0", "--tol", "1e-80")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "NoConvergence"
    assert re.fullmatch(r"no convergence after \d+ iterations, residual \S+e-6\d", payload["message"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("entries"),
        lambda doc: doc.update(entries=doc["entries"][:3]),
        lambda doc: doc["entries"][0].__setitem__(1, "1+"),
        lambda doc: doc["entries"][0].__setitem__(1, 1),  # a number, not an exact literal
        lambda doc: doc["entries"][0].__setitem__(1, "2"),  # breaks the symmetry
        lambda doc: doc.update(placeholders=[[0, 14]]),
    ],
    ids=["missing-entries", "three-rows", "unparsable-entry", "number-entry", "asymmetric",
         "placeholder-out-of-range"],
)
def test_bad_gram_file_is_clean_error(capsys, hexpyr_gram_path, edit):
    doc = json.loads(hexpyr_gram_path.read_text())
    edit(doc)
    hexpyr_gram_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "arith", str(hexpyr_gram_path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FormatError"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(size=3), "'size' is 3, but 'entries' has 14 rows"),
        (lambda doc: doc.update(size="14"), "'size' is '14', but 'entries' has 14 rows"),
        (lambda doc: doc.pop("size"), "'size' is None, but 'entries' has 14 rows"),
        (lambda doc: doc.update(placeholders=[[True, 2]]),
         "placeholder pair [True, 2] is not two distinct wall indices below 14"),
        (lambda doc: doc.update(placeholders=[[3, 3]]),
         "placeholder pair [3, 3] is not two distinct wall indices below 14"),
        (lambda doc: doc.update(placeholders=[["0", 1]]),
         "placeholder pair ['0', 1] is not two distinct wall indices below 14"),
        (lambda doc: doc.update(placeholders=[[0, 1, 2]]),
         "placeholder pair [0, 1, 2] is not two distinct wall indices below 14"),
    ],
    ids=["size-three", "size-string", "size-missing", "placeholder-bool", "placeholder-diagonal",
         "placeholder-string", "placeholder-triple"],
)
def test_bad_gram_header_names_the_fault(capsys, hexpyr_gram_path, edit, message):
    doc = json.loads(hexpyr_gram_path.read_text())
    edit(doc)
    hexpyr_gram_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "arith", str(hexpyr_gram_path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "FormatError", "message": f"bad gram document: {message}"}


@pytest.mark.parametrize("argv", [["arith", "--max-len", "2"], ["decompose"]], ids=["arith", "decompose"])
def test_gram_in_two_fields_is_clean_error(capsys, tmp_path, argv):
    # sqrt(2) at (1,2) and sqrt(3) at (2,3): one Gram matrix needs one field
    entries = [["-1", "1*sqrt(2)", "0"], ["1*sqrt(2)", "-1", "1*sqrt(3)"], ["0", "1*sqrt(3)", "-1"]]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"format": 1, "kind": "gram", "size": 3, "entries": entries}))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert error["message"].endswith("more than one quadratic field: sqrt(2), sqrt(3)")


@pytest.mark.parametrize("command", ["parse", "show", "arith", "decompose"])
def test_vertex_count_int_refuses_is_clean_error(capsys, tmp_path, command):
    # "²" passes str.isdigit, but int() refuses it
    path = tmp_path / "sup.cox"
    path.write_text("vertices ²\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "ParseError", "message": "line 1: expected: vertices <positive count>"}


def test_angle_outside_every_quadratic_field_is_clean_error(capsys, tmp_path):
    path = tmp_path / "angle7.cox"
    path.write_text("vertices 2\n1 2 angle 7\n")
    code, out, err = run(capsys, "arith", str(path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "UnrepresentableAngle", "message": "cos(pi/7) does not live in a quadratic field"
    }


def test_lg_scan_on_a_cluster_of_seven_walls_is_clean_error(capsys, tmp_path):
    # hexpyr's cluster has 7 walls; a bend conjugate needs dim + 2 = 4
    path = tmp_path / "hexpyr.json"
    run(capsys, "fixtures", "hexpyr", "--out", str(path))
    code, out, err = run(capsys, "lg-scan", str(path), "--bound", "30", "--modulus", "24", "--scan-bound", "10")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "SingularCluster", "message": "need 4 walls, got 7"}


def test_geometrize_guess_that_fails_verification_is_clean_error(capsys, tetra_path, monkeypatch):
    # the guessed walls with wall 1 turned inside out: Q(v) = -1 still, but
    # its products with the other walls change sign
    guessed = []

    def guess_flipped(*args):
        walls = real_guess(*args)
        guessed.append([-walls[0], *walls[1:]])
        return guessed[-1]

    real_guess = cli.guess_walls
    monkeypatch.setattr(cli, "guess_walls", guess_flipped)
    code, out, err = run(capsys, "geometrize", str(tetra_path), "--d", "0")
    assert code == 1 and out == "" and err.count("\n") == 1
    mismatches = cli.verify_realization(guessed[0], serialize.load(tetra_path)).mismatches
    assert mismatches and all(m.startswith("pair (1,") for m in mismatches)
    assert json.loads(err) == {
        "error": "PackingLabError",
        "message": "guessed walls fail exact verification: " + "; ".join(mismatches),
    }
