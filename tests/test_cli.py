"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import reference_certify
from pointideals import (
    DEGLEX,
    DEGREVLEX,
    CertReport,
    GroebnerBasis,
    buchberger_moeller,
    cli,
    io,
    projective,
    projective_bm,
    projective_gb,
)
from pointideals.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, main

P1_THREE = {"space": "projective", "dim": 1, "points": [["1", "0"], ["1", "1"], ["0", "1"]]}
# the parabola through three affine points plus its point at infinity;
# dropping the last basis element leaves an S-pair that does not reduce
P2_PARABOLA = {
    "space": "projective",
    "dim": 2,
    "points": [["1", "0", "0"], ["1", "1", "1"], ["1", "2", "4"], ["0", "0", "1"]],
}
AFF_ONE = {"space": "affine", "dim": 2, "points": [["3", "5"]]}
AFF_FOUR = {"space": "affine", "dim": 3, "points": [["0", "0", "0"], ["1", "2", "3"], ["2", "1", "0"], ["1", "1", "1"]]}


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_single_affine_point_text(write, capsys):
    path = write("p.json", AFF_ONE)
    code, out, _ = run(capsys, "gb", path, "--order", "lex", "--output", "text")
    assert code == EXIT_OK
    assert out == "X2 - 3\nX3 - 5\n"


def test_gb_json_reverifies_byte_for_byte(write, capsys, tmp_path):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "gb", points)
    assert code == EXIT_OK
    basis = tmp_path / "basis.json"
    basis.write_text(out)
    code, out2, _ = run(capsys, "verify", points, str(basis))
    assert code == EXIT_OK
    assert json.loads(out2)["passed"] is True


def test_verify_detects_mutation(write, capsys, tmp_path):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "gb", points)
    doc = json.loads(out)
    doc["basis"][0][1][1] = "17"  # corrupt one coefficient
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out2, _ = run(capsys, "verify", points, str(bad), "--output", "text")
    assert code == EXIT_VERIFY
    assert "passed: false" in out2
    assert "vanish" in out2 or "reducible" in out2


def test_verify_malformed_basis_exits_2(write, capsys):
    points = write("p.json", AFF_ONE)
    basis = write("b.json", {"order": "lex", "variables": 2, "basis": 5})
    code, out, err = run(capsys, "verify", points, basis)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "basis" in err


def test_gb_verify_flag(write, capsys):
    points = write("p.json", P1_THREE)
    code, _, _ = run(capsys, "gb", points, "--verify")
    assert code == EXIT_OK


def _count_certificates(monkeypatch):
    """The names of the certificates run from now on, in order."""
    calls = []

    def counting(gb, ps, check=projective.certify):
        calls.append("certify")
        return check(gb, ps)

    monkeypatch.setattr(projective, "certify", counting)
    monkeypatch.setattr(cli, "certify", counting)
    return calls


@pytest.mark.parametrize("doc, expected", [(P2_PARABOLA, ["certify"]), (AFF_ONE, ["certify"])])
def test_gb_verify_certifies_once(write, capsys, monkeypatch, doc, expected):
    # every printed basis is certified exactly once, --verify or not
    calls = _count_certificates(monkeypatch)
    points = write("p.json", doc)
    code, out, _ = run(capsys, "gb", points, "--verify")
    assert code == EXIT_OK
    assert calls == expected
    for argv in (["gb"], ["staircase", "--render"], ["render"]):
        calls.clear()
        code, out2, _ = run(capsys, *argv, points)
        assert code == EXIT_OK
        assert calls == expected
        if argv == ["gb"]:
            # the output is that of gb with --verify
            assert out2 == out


def test_compare_orders_certifies_both_bases(write, capsys, monkeypatch):
    calls = _count_certificates(monkeypatch)
    code, _, _ = run(capsys, "compare-orders", write("p.json", P2_PARABOLA))
    assert code == EXIT_OK
    assert calls == ["certify", "certify"]


@pytest.mark.parametrize(
    "doc, command, name, spared",
    [(AFF_ONE, "gb", "certify", None), (P2_PARABOLA, "compare-orders", "certify", DEGLEX)],
)
def test_failed_certificate_exits_3(write, capsys, monkeypatch, doc, command, name, spared):
    # the certificate fails every basis but those in the order `spared`: for
    # compare-orders, only the degrevlex basis from projective_bm
    monkeypatch.setattr(projective, name, lambda gb, ps: CertReport(gb.order == spared, ("planted",)))
    code, out, err = run(capsys, command, write("p.json", doc))
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: internal certification failed: planted\n"


def test_verify_reads_the_document_order(write, capsys):
    # each basis is certified in its document's order: degrevlex, and the
    # deglex basis labelled lex (the two orders agree on forms), in P2; and
    # degrevlex in A3; a single-term mutant is rejected
    points = write("p.json", P2_PARABOLA)
    ps = io.parse_points(json.dumps(P2_PARABOLA))
    revlex = io.basis_doc(projective_bm(ps, DEGREVLEX), extra={"space": "projective", "dim": 2})
    relabelled = dict(io.basis_doc(projective_gb(ps)), order="lex")
    mutant = json.loads(json.dumps(revlex))
    mutant["basis"][0][1][1] = "17"
    for doc, expected in ((revlex, EXIT_OK), (relabelled, EXIT_OK), (mutant, EXIT_VERIFY)):
        code, out, _ = run(capsys, "verify", points, write("b.json", doc))
        assert code == expected
        assert json.loads(out)["passed"] is (expected == EXIT_OK)
    affine = io.parse_points(json.dumps(AFF_FOUR))
    doc = io.basis_doc(buchberger_moeller(affine, DEGREVLEX)[0], first_var=2)
    code, out, _ = run(capsys, "verify", write("a.json", AFF_FOUR), write("b.json", doc))
    assert (code, json.loads(out)["passed"]) == (EXIT_OK, True)


def test_axes_matches(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "axes", points)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["per_direction"] == [2, 1]
    assert doc["total"] == 3
    assert doc["matches"] is True


def test_axes_rejects_affine(write, capsys):
    points = write("p.json", AFF_ONE)
    code, _, err = run(capsys, "axes", points)
    assert code == EXIT_INPUT
    assert "projective" in err


def test_staircase_lists_corners_and_standard(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "staircase", points, "--degree-cap", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["corners"] == [[1, 2]]
    assert [0, 0] in doc["standard"] and [2, 0] in doc["standard"]


def test_staircase_render_flag(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "staircase", points, "--render")
    assert code == EXIT_OK
    assert "axes total: 3" in json.loads(out)["render"]


def test_hilbert_values(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "hilbert", points, "--degree-cap", "3")
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1, 2, 3, 3]


def test_compare_orders(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, _ = run(capsys, "compare-orders", points)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["deglex"]["total"] == doc["degrevlex"]["total"] == 3
    assert doc["matches"] is True


def test_render_command(write, capsys):
    points = write("p.json", AFF_ONE)
    code, out, _ = run(capsys, "render", points, "--output", "text")
    assert code == EXIT_OK
    assert "B" in out


def test_render_rejects_high_arity(write, capsys):
    doc = {"space": "projective", "dim": 3, "points": [["1", "0", "0", "0"]]}
    points = write("p.json", doc)
    code, _, err = run(capsys, "render", points)
    assert code == EXIT_INPUT
    assert "arity" in err


def test_degrevlex_only_for_compare_orders(write, capsys):
    points = write("p.json", P1_THREE)
    code, out, err = run(capsys, "gb", points, "--order", "degrevlex")
    assert code == EXIT_INPUT
    assert out == ""
    assert "degrevlex" in err


def test_projective_gb_requires_deglex(write, capsys):
    points = write("p.json", P1_THREE)
    code, _, _ = run(capsys, "gb", points, "--order", "lex")
    assert code == EXIT_INPUT


def test_malformed_input_exits_2(write, capsys):
    points = write("p.json", '{"space": "affine"')
    code, _, err = run(capsys, "gb", points)
    assert code == EXIT_INPUT
    assert "input error" in err


@pytest.mark.parametrize("command", ["staircase", "hilbert"])
def test_negative_degree_cap_exits_2(write, capsys, command):
    points = write("p.json", P1_THREE)
    code, out, err = run(capsys, command, points, "--degree-cap", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "degree-cap" in err



@pytest.mark.parametrize("command", ["staircase", "hilbert"])
def test_degree_cap_above_the_limit_exits_2_before_any_work(write, capsys, monkeypatch, command):
    # (cap + 1) * s above the limit is refused once the points are read,
    # before a basis or a Hilbert value is computed
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "hilbert_values", refuse)
    monkeypatch.setattr(cli, "projective_gb", refuse)
    points = write("p.json", P1_THREE)
    cap = cli.DEGREE_CAP_LIMIT // 3  # (cap + 1) * 3 is just above the limit
    code, out, err = run(capsys, command, points, "--degree-cap", str(cap))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "--degree-cap" in err


def test_degree_cap_at_the_limit_runs(write, capsys):
    # one point: (cap + 1) * 1 values, allowed up to the limit itself
    points = write("p.json", {"space": "projective", "dim": 1, "points": [["1", "0"]]})
    code, out, _ = run(capsys, "hilbert", points, "--degree-cap", str(cli.DEGREE_CAP_LIMIT - 1))
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1] * cli.DEGREE_CAP_LIMIT
    code, out, _ = run(capsys, "hilbert", points, "--degree-cap", str(cli.DEGREE_CAP_LIMIT))
    assert code == EXIT_INPUT and out == ""


def _refuse_work(monkeypatch):
    """Make reading an input file and every engine the CLI calls raise."""
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("_read", "projective_gb", "projective_bm", "buchberger_moeller", "hilbert_values",
                 "_certified", "certify", "staircase_of", "render_staircase"):
        monkeypatch.setattr(cli, name, refuse)


# every (command, option) pair that the parser accepted and ignored before
# each command registered only the options it reads; the gb case is a cap
# above DEGREE_CAP_LIMIT on 3 points, which gb never read
UNREAD_OPTIONS = [
    ("gb", ["--degree-cap", str(cli.DEGREE_CAP_LIMIT // 3)]),
    ("gb", ["--render"]),
    ("staircase", ["--verify"]),
    ("axes", ["--order", "lex"]),
    ("axes", ["--verify"]),
    ("axes", ["--degree-cap", "3"]),
    ("axes", ["--render"]),
    ("hilbert", ["--order", "deglex"]),
    ("hilbert", ["--verify"]),
    ("hilbert", ["--render"]),
    ("verify", ["--order", "deglex"]),
    ("verify", ["--verify"]),
    ("verify", ["--degree-cap", "3"]),
    ("verify", ["--render"]),
    ("compare-orders", ["--order", "degrevlex"]),
    ("compare-orders", ["--verify"]),
    ("compare-orders", ["--degree-cap", "3"]),
    ("compare-orders", ["--render"]),
    ("render", ["--verify"]),
    ("render", ["--degree-cap", "3"]),
    ("render", ["--render"]),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[c + o[0] for c, o in UNREAD_OPTIONS])
def test_unread_option_exits_2_before_any_work(write, capsys, monkeypatch, command, option):
    _refuse_work(monkeypatch)
    points = write("p.json", P1_THREE)
    inputs = [points, write("b.json", {"order": "deglex", "variables": 2, "basis": []})] if command == "verify" else [points]
    code, out, err = run(capsys, command, *inputs, *option)
    assert code == EXIT_INPUT
    assert out == ""
    assert option[0] in err


def test_main_returns_the_usage_exit_codes(write, capsys):
    # argparse's own exits come back from main as codes: 2 for a usage
    # error, with argparse's message, and 0 for --help
    code, out, err = run(capsys, "gb", write("p.json", P1_THREE), "--output", "xml")
    assert (code, out) == (EXIT_INPUT, "")
    assert "argument --output: invalid choice: 'xml'" in err
    assert run(capsys)[0] == EXIT_INPUT
    for argv in (["--help"], ["gb", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: pointideals")


def _cli_process(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-m", "pointideals.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("output", ["json", "text"])
def test_rationals_past_the_digit_limit_exit_2(write, output):
    # a coordinate past the interpreter's int-string limit, as a string or
    # as a JSON integer, cannot be read, and a basis coefficient past it,
    # here the product of two coordinates just over half the limit, cannot
    # be printed; all are input errors that name the limit and not the number
    limit = sys.get_int_max_str_digits()
    long, half = "1" + "0" * limit, "0" * (limit // 2 + 350)
    for points in ('[["%s"]]' % long, '[["1%s"], ["2%s"]]' % (half, half), "[[%s]]" % long):
        doc = '{"space": "affine", "dim": 1, "points": %s}' % points
        done = _cli_process("gb", write("p.json", doc), "--output", output)
        assert done.returncode == EXIT_INPUT
        assert done.stdout == ""
        assert done.stderr == (
            "input error: a number has more than %d digits, the interpreter's limit for integer strings\n" % limit
        )


def test_normalised_point_past_the_digit_limit_exits_2(write):
    # each number of (1/77...7 : 33...3) is under the limit, but normalised
    # to (1 : 77...7 * 33...3) the point has a coordinate past it, which no
    # output or `verify` reason could print: every command refuses it as read
    limit = sys.get_int_max_str_digits()
    n = limit - 300
    points = write("p.json", {"space": "projective", "dim": 1, "points": [["1/" + "7" * n, "3" * n]]})
    basis = write("b.json", {"order": "deglex", "variables": 2, "basis": [[[[1, 0], "1"]]]})
    for argv in (["verify", points, basis], ["hilbert", points], ["axes", points], ["gb", points]):
        done = _cli_process(*argv)
        assert done.returncode == EXIT_INPUT, argv
        assert done.stdout == ""
        assert done.stderr == (
            "input error: a number has more than %d digits, the interpreter's limit for integer strings\n" % limit
        )


def test_deeply_nested_json_exits_2(write):
    # a point or basis document nested deeper than json.loads can recurse
    # is an input error, with one line on stderr
    deep = "[" * 100000 + "]" * 100000
    points = write("deep.json", '{"space": "projective", "dim": 1, "points": %s}' % deep)
    basis = write("b.json", '{"order": "deglex", "variables": 2, "basis": %s}' % deep)
    for argv in (["gb", points], ["verify", write("p.json", P1_THREE), basis]):
        done = _cli_process(*argv)
        assert done.returncode == EXIT_INPUT, argv
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("input error: invalid JSON:")


def test_module_runs_as_a_process(write, capsys):
    # `python -m pointideals.cli` is the same program as the console script
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def process(*argv):
        cmd = [sys.executable, "-m", "pointideals.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    points = write("p.json", P1_THREE)
    done = process("hilbert", points, "--degree-cap", "3")
    assert done.returncode == EXIT_OK
    assert done.stdout == run(capsys, "hilbert", points, "--degree-cap", "3")[1]
    done = process("gb", write("bad.json", '{"space": "affine"'))
    assert done.returncode == EXIT_INPUT
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("input error:")


def test_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples, so the CLI's start-up imports neither
    # dataclasses nor, through it, inspect
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, pointideals.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "gb", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT


def test_zero_projective_vector_exits_2(write, capsys):
    doc = {"space": "projective", "dim": 1, "points": [["0", "0"]]}
    points = write("p.json", doc)
    code, _, _ = run(capsys, "gb", points)
    assert code == EXIT_INPUT


def test_output_is_deterministic_under_point_permutation(write, capsys):
    forward = write("a.json", P1_THREE)
    reordered = dict(P1_THREE, points=list(reversed(P1_THREE["points"])))
    backward = write("b.json", reordered)
    _, out1, _ = run(capsys, "gb", forward)
    _, out2, _ = run(capsys, "gb", backward)
    assert out1 == out2


def test_verify_dropped_element_reports_reference_reasons(write, capsys, tmp_path):
    points = write("p.json", P2_PARABOLA)
    ps = io.parse_points(json.dumps(P2_PARABOLA))
    gb = projective_gb(ps)
    dropped = GroebnerBasis(DEGLEX, gb.elements[:-1])
    basis = tmp_path / "dropped.json"
    basis.write_text(io.dumps(io.basis_doc(dropped, extra={"space": "projective", "dim": 2})))
    code, out, _ = run(capsys, "verify", points, str(basis))
    expected = reference_certify(dropped, ps)
    assert code == EXIT_VERIFY
    assert out == io.dumps({"passed": False, "reasons": list(expected.reasons)})
    assert any(r.startswith("S-polynomial of elements") for r in expected.reasons)


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("chart level failed to stabilize by degree 13"),
        ArithmeticError("internal certification failed: degree 2: 4 standard monomials but Hilbert function 3"),
        ValueError(
            "chart level stabilizes at 2 standard monomials per degree, "
            "expected 3; its point sets are inconsistent"
        ),
        TypeError("unsupported operand type(s) for +: 'int' and 'NoneType'"),
    ],
)
def test_internal_failure_exits_3(write, capsys, monkeypatch, error):
    def broken(pointset):
        raise error

    monkeypatch.setattr("pointideals.cli.projective_gb", broken)
    points = write("p.json", P1_THREE)
    code, out, err = run(capsys, "gb", points)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: %s\n" % error


@pytest.mark.parametrize(
    "points, basis",
    [
        ({"space": "projective", "dim": 0, "points": [["1"]]}, {"order": "deglex", "variables": 1}),
        ({"space": "affine", "dim": 0, "points": [[]]}, {"order": "lex", "variables": 0}),
        (P1_THREE, {"order": "deglex", "variables": 2}),
    ],
)
def test_verify_basis_without_a_basis_key_exits_2(write, capsys, points, basis):
    # a document with no basis is malformed, not the zero ideal
    code, out, err = run(capsys, "verify", write("p.json", points), write("b.json", basis))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "input error: basis must be a list of term lists\n"


@pytest.mark.parametrize(
    "points, basis, reason",
    [
        (P2_PARABOLA, {"order": "deglex", "variables": 0, "basis": []}, "basis arity 0 does not match ambient 3"),
        (AFF_ONE, {"order": "lex", "variables": 5, "basis": []}, "basis arity 5 does not match ambient 2"),
    ],
)
def test_verify_empty_basis_of_another_arity_exits_1(write, capsys, points, basis, reason):
    code, out, _ = run(capsys, "verify", write("p.json", points), write("b.json", basis))
    assert code == EXIT_VERIFY
    assert out == io.dumps({"passed": False, "reasons": [reason]})


def test_verify_zero_element_exits_1_with_reasons(write, capsys):
    points = write("p.json", {"space": "projective", "dim": 1, "points": [["1", "2"]]})
    basis = write("b.json", {"order": "deglex", "variables": 2, "basis": [[], [[[1, 0], "1"]]]})
    code, out, err = run(capsys, "verify", points, basis, "--output", "text")
    assert code == EXIT_VERIFY
    assert out == "passed: false\n  element 0 is zero\n  element 1 does not vanish at ['1', '2']\n"
    assert err == ""


@pytest.mark.parametrize(
    "doc, arity",
    [
        ({"space": "projective", "dim": 0, "points": []}, 1),
        ({"space": "projective", "dim": 0, "points": [["1"]]}, 1),
        ({"space": "affine", "dim": 0, "points": []}, 0),
        ({"space": "affine", "dim": 0, "points": [[]]}, 0),
        ({"space": "projective", "dim": 2, "points": []}, 3),
        ({"space": "affine", "dim": 2, "points": []}, 2),
        ({"space": "affine", "dim": 1, "points": [["1"], ["2"]]}, 1),
    ],
)
def test_degenerate_inputs_round_trip(write, capsys, doc, arity):
    # no points, all of P^0 or A^0, and a line: each basis is certified, and
    # verifies as printed; a staircase that cannot be drawn is an input error
    points = write("p.json", doc)
    code, out, _ = run(capsys, "gb", points)
    assert code == EXIT_OK
    assert json.loads(out)["variables"] == arity
    assert run(capsys, "gb", points, "--verify")[:2] == (EXIT_OK, out)
    code, verdict, _ = run(capsys, "verify", points, write("b.json", out))
    assert code == EXIT_OK
    assert json.loads(verdict)["passed"] is True
    code, _, err = run(capsys, "staircase", points, "--render")
    if arity in (2, 3):
        assert code == EXIT_OK
    else:
        assert code == EXIT_INPUT
        assert err == "input error: staircase rendering supports arity 2 or 3, got %d\n" % arity
