import json
import os
import pathlib
import subprocess
import sys

import pytest

from strandbox import (
    artrans,
    build_component,
    build_type_C_algebra,
    cartan,
    check_gls,
    component_to_dot,
    component_to_json,
    delta_length,
    enumerate_bands,
    enumerate_positive_roots,
    enumerate_strings,
    format_word,
    parse_module,
    tube_rank,
    verify,
)
from strandbox.cli import MAX_POWER, main
from strandbox.verify import CheckReport
from strandbox.linalg import MAX_PRIME


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tau_example(capsys):
    code, out, _ = run(capsys, "tau", "--n", "4", "--orient", "RRR", "triv(2)")
    assert code == 0
    assert out.strip() == "triv(3)"


def test_tau_power(capsys):
    code, out, _ = run(capsys, "tau", "--n", "4", "--orient", "RRR", "triv(2)", "--power", "-1")
    assert code == 0
    assert out.strip() == "e1~.a21~.a32~.a43~.e4~"


def test_tau_power_past_a_projective_is_zero_and_power_zero_is_the_module(capsys):
    p2 = "e3.a32"  # P_2 for n = 3, RR
    after = "e3.a32.a21.e1.a21~.a32~.e3~.a32"  # its tau^-1
    for power, expected in (("1", "zero"), ("5", "zero"), ("0", p2), ("-1", after)):
        code, out, _ = run(capsys, "tau", "--n", "3", "--orient", "RR", p2, "--power", power)
        assert code == 0 and out.strip() == expected, power
    code, out, _ = run(capsys, "tau", "--n", "3", "--orient", "RR", after)
    assert code == 0 and out.strip() == p2
    for power in ("0", "3", "-3"):
        code, out, _ = run(capsys, "tau", "--n", "3", "--orient", "RR", "zero", "--power", power)
        assert code == 0 and out.strip() == "zero", power


def test_a_failed_internal_check_exits_1_not_as_a_usage_error(capsys, monkeypatch):
    # a translation that fixes every word breaks the delta-shift check of the orbit walk
    kernel = type(artrans.kernel(build_type_C_algebra(3, "RR")))
    monkeypatch.setattr(kernel, "shift", lambda k, raw, counts, sign: (raw, counts))
    code, out, err = run(capsys, "verify-gls", "--n", "3", "--orient", "RR", "--bound", "6")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "positive multiple of delta" in err


def test_roots_output(capsys):
    code, out, _ = run(capsys, "roots", "--n", "3", "--bound", "2")
    assert code == 0
    lines = out.strip().splitlines()
    for v in ("(1,0,0)", "(0,1,0)", "(0,0,1)", "(1,1,0)"):
        assert v in lines


def test_roots_closed_form_agrees(capsys):
    code, bfs, _ = run(capsys, "roots", "--n", "3", "--bound", "8", "--format", "json")
    code2, cf, _ = run(capsys, "roots", "--n", "3", "--bound", "8", "--format", "json",
                       "--closed-form", "--seq", "3,2,1", "--orient", "RR")
    assert code == code2 == 0
    assert json.loads(bfs) == json.loads(cf)


@pytest.mark.parametrize("flags, named", [
    (("--orient", "XYZ", "--seq", "q"), "--seq"),
    (("--seq", "3,2,1"), "--seq"),
    (("--orient", "RR"), "--orient"),
])
def test_roots_reads_seq_and_orient_only_with_closed_form(capsys, flags, named):
    code, out, err = run(capsys, "roots", "--n", "3", "--bound", "1", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "--closed-form" in err


def test_verify_gls_json(capsys):
    code, out, _ = run(capsys, "verify-gls", "--n", "3", "--orient", "RR",
                       "--bound", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["missing"] == []


def test_verify_coxeter(capsys):
    code, out, _ = run(capsys, "verify-coxeter", "--n", "3", "--orient", "RR",
                       "--seq", "3,2,1", "--depth", "5")
    assert code == 0
    assert "pass" in out


def test_strings_and_bands(capsys):
    code, out, _ = run(capsys, "strings", "--n", "3", "--orient", "RR", "--max-len", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    code, out, _ = run(capsys, "bands", "--n", "3", "--orient", "RR", "--max-dl", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2 and all(item["dl"] == 1 for item in doc)


def test_component_dot_and_json(capsys):
    code, out, _ = run(capsys, "component", "--n", "3", "--orient", "RR",
                       "triv(2)", "--radius", "2")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "component", "--n", "3", "--orient", "RR",
                       "triv(2)", "--radius", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "TubeRank"


def test_classify_and_minimal_and_tube(capsys):
    code, out, _ = run(capsys, "classify", "--n", "3", "--orient", "RR",
                       "a21~.a32~.e3.a32.a21")
    assert code == 0 and out.strip() == "ZAInfInf"
    code, out, _ = run(capsys, "minimal", "--n", "3", "--orient", "RR", "--max-len", "8")
    assert code == 0 and "type (1, 1):" in out
    code, out, _ = run(capsys, "tube", "--n", "4", "--orient", "RRR", "--levels", "2")
    assert code == 0 and "level 2:" in out and "rank=" in out


def test_usage_errors(capsys):
    code, _, err = run(capsys, "tau", "--n", "3", "--orient", "RR", "not-a-module")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "strings", "--n", "3", "--orient", "RRX", "--max-len", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["strings", "--n", "3"])  # missing required args
    assert exc.value.code == 2


def test_field_env_var(capsys, monkeypatch):
    monkeypatch.setenv("STRANDBOX_FIELD", "fp:5")
    code, out, _ = run(capsys, "verify-gls", "--n", "3", "--orient", "RL",
                       "--bound", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True
    monkeypatch.setenv("STRANDBOX_FIELD", "bogus")
    code, _, err = run(capsys, "verify-gls", "--n", "3", "--orient", "RL", "--bound", "4")
    assert code == 2


def test_band_module_text_round_trip(capsys):
    code, out, _ = run(capsys, "tau", "--n", "3", "--orient", "RR",
                       "band(e1.a21~.a32~.e3.a32.a21;1;2)")
    assert code == 0
    assert out.strip() == "band(e1.a21~.a32~.e3.a32.a21;1;2)"


def test_verify_coxeter_rejects_a_non_numeric_sequence(capsys):
    code, _, err = run(capsys, "verify-coxeter", "--n", "3", "--orient", "RR", "--seq", "a,b")
    assert code == 2 and "error" in err


def test_component_rejects_a_negative_radius(capsys):
    code, _, err = run(capsys, "component", "--n", "3", "--orient", "RR",
                       "triv(2)", "--radius", "-1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", [
    "band(e1.a21~.a32~.e3.a32.a21;x)",
    "band(e1.a21~.a32~.e3.a32.a21;1;two)",
    "band(e1.a21~.a32~.e3.a32.a21;1;1;1)",
    "band(a21~.a32~.e3.a32.a21)",  # an open string
    "band(e1.a21~.a32~.e3.a32.a21.e1.a21~.a32~.e3.a32.a21)",  # a proper power
    "band(e1.e1)",  # a relation
])
def test_tau_rejects_a_malformed_band_module(capsys, text):
    code, _, err = run(capsys, "tau", "--n", "3", "--orient", "RR", text)
    assert code == 2 and "error" in err
    assert text[len("band("):-1].split(";")[0] in err


@pytest.mark.parametrize("power", [str(MAX_POWER + 1), "-100000000", "100000000"])
def test_tau_rejects_a_power_above_the_limit(power):
    # in a child process, so that a missing limit fails the test instead of hanging it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "strandbox.cli", "tau", "--n", "3", "--orient", "RR", "triv(2)",
         "--power", power],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 2 and "error" in done.stderr and str(MAX_POWER) in done.stderr


def test_tau_accepts_the_power_limit_and_documents_it(capsys):
    code, out, _ = run(capsys, "tau", "--n", "3", "--orient", "RR", "triv(2)",
                       "--power", str(-MAX_POWER))
    assert code == 0 and out.strip()
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--help"])
    assert exc.value.code == 0
    assert f"|k| <= {MAX_POWER}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("spec", ["fp:abc", "fp:"])
def test_a_malformed_field_spec_is_a_usage_error(capsys, monkeypatch, spec):
    monkeypatch.setenv("STRANDBOX_FIELD", spec)
    code, _, err = run(capsys, "verify-gls", "--n", "3", "--orient", "RR", "--bound", "14")
    assert code == 2 and repr(spec) in err


def test_a_field_above_the_size_limit_is_a_usage_error(capsys, monkeypatch):
    # in a child process, so that a missing limit fails the test instead of hanging it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
               STRANDBOX_FIELD="fp:1000000000000000000000000000057")
    done = subprocess.run(
        [sys.executable, "-m", "strandbox.cli", "verify-gls", "--n", "3", "--orient", "RR",
         "--bound", "4"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert done.returncode == 2 and "error" in done.stderr and str(MAX_PRIME) in done.stderr
    assert MAX_PRIME == 2147483647
    monkeypatch.setenv("STRANDBOX_FIELD", f"fp:{MAX_PRIME}")
    code, out, _ = run(capsys, "verify-gls", "--n", "3", "--orient", "RR", "--bound", "4")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("field, argv, message", [
    # without its own check, fp:0 would select the rationals
    ("fp:0", ("verify-gls", "--n", "3", "--orient", "RR", "--bound", "4"), "not a prime: 0"),
    ("fp:1", ("verify-gls", "--n", "3", "--orient", "RR", "--bound", "4"), "not a prime: 1"),
    ("rat", ("tau", "--n", "3", "--orient", "RR", "triv(x)"), "bad trivial string"),
    ("rat", ("component", "--n", "3", "--orient", "RR", "zero", "--radius", "1"),
     "cannot seed a component at zero"),
    ("rat", ("classify", "--n", "3", "--orient", "RR", "zero"), "cannot classify the zero module"),
])
def test_a_refused_field_word_or_seed_is_a_usage_error(capsys, monkeypatch, field, argv, message):
    monkeypatch.setenv("STRANDBOX_FIELD", field)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("verify-coxeter", "--n", "3", "--orient", "RR", "--seq", "1,2,3", "--depth", "-1"),
    ("roots", "--n", "3", "--bound", "-3"),
    ("roots", "--n", "3", "--bound", "-3", "--closed-form", "--seq", "3,2,1", "--orient", "RR"),
])
def test_a_negative_size_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "must be >= 0" in err and out == ""


def test_a_band_parameter_of_degree_0_is_reported_as_such(capsys):
    """Only the int conversions of a band text are reported as "must be
    integers"; a parameter degree the parser reads keeps its own message."""
    code, out, err = run(capsys, "tau", "--n", "3", "--orient", "RR",
                         "band(e1.a21~.a32~.e3.a32.a21;0;1)")
    assert code == 2 and out == ""
    assert "parameter degree must be >= 1" in err and "integers" not in err


@pytest.mark.parametrize("argv", [
    ("verify-coxeter", "--n", "3", "--orient", "RR", "--seq", "3,2,1", "--format", "json"),
    ("tau", "--n", "3", "--orient", "RR", "triv(2)", "--format", "json"),
    ("classify", "--n", "3", "--orient", "RR", "triv(2)", "--format", "table"),
    ("strings", "--n", "3", "--orient", "RR", "--max-len", "1", "--format", "dot"),
    ("component", "--n", "3", "--orient", "RR", "triv(2)", "--radius", "1", "--format", "table"),
])
def test_a_format_the_subcommand_does_not_print_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_strings_json_and_bands_table(capsys):
    p = build_type_C_algebra(3, "RR")
    code, out, _ = run(capsys, "strings", "--n", "3", "--orient", "RR", "--max-len", "2",
                       "--format", "json")
    assert code == 0 and json.loads(out) == [format_word(w) for w in enumerate_strings(p, 2)]
    code, out, _ = run(capsys, "bands", "--n", "3", "--orient", "RR", "--max-dl", "1")
    assert code == 0
    assert out.splitlines() == [f"{format_word(b)}  dl=1" for b in enumerate_bands(p, 1)]


def test_minimal_json(capsys):
    code, out, _ = run(capsys, "minimal", "--n", "3", "--orient", "RR", "--max-len", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["(0, 2)", "(2, 0)", "(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)"]
    assert doc["(1, 1)"] == ["triv(2)", "e1~.a21~.a32~.e3~"]


@pytest.mark.parametrize("fmt, export", [("json", component_to_json), ("dot", component_to_dot)])
def test_tube_json_and_dot(capsys, fmt, export):
    code, out, _ = run(capsys, "tube", "--n", "4", "--orient", "RRR", "--levels", "2",
                       "--format", fmt)
    assert code == 0
    assert out == export(tube_rank(build_type_C_algebra(4, "RRR"), 2)) + "\n"
    if fmt == "json":
        doc = json.loads(out)
        assert doc["kind"] == "TubeRank" and doc["rank"] == 3
        assert len(doc["nodes"]) == 6 and len(doc["tau_edges"]) == 3
    else:
        assert out.startswith("digraph") and out.count("dashed") == 3


def test_a_failing_coxeter_check_exits_1_and_prints_each_problem(capsys, monkeypatch):
    problems = ["first problem", "second problem"]
    monkeypatch.setattr("strandbox.cli.check_coxeter_compatibility",
                        lambda p, seq, depth: CheckReport("coxeter-compatibility", problems))
    code, out, _ = run(capsys, "verify-coxeter", "--n", "3", "--orient", "RR", "--seq", "3,2,1")
    assert code == 1
    assert out.splitlines() == problems + ["coxeter compatibility: FAIL"]


def test_a_failing_gls_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "is_rigid", lambda m, char=0: False)
    code, out, _ = run(capsys, "verify-gls", "--n", "3", "--orient", "RR", "--bound", "4")
    assert code == 1
    assert "  PROBLEM: bottom module triv(2) is not rigid" in out.splitlines()
    assert out.splitlines()[-1] == "  => FAIL"


def test_roots_closed_form_needs_seq_and_orient(capsys):
    code, out, err = run(capsys, "roots", "--n", "3", "--bound", "4", "--closed-form",
                         "--seq", "3,2,1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--closed-form requires --seq and --orient" in err


def test_a_field_of_composite_order_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("STRANDBOX_FIELD", "fp:4")
    code, out, err = run(capsys, "verify-gls", "--n", "3", "--orient", "RR", "--bound", "4")
    assert code == 2 and out == "" and "not a prime" in err


@pytest.mark.parametrize("fmt, export", [("json", component_to_json), ("dot", component_to_dot)])
def test_component_prints_the_export_unchanged(capsys, fmt, export):
    code, out, _ = run(capsys, "component", "--n", "3", "--orient", "RR", "triv(2)",
                       "--radius", "2", "--format", fmt)
    seed = parse_module(build_type_C_algebra(3, "RR"), "triv(2)")
    assert code == 0 and out == export(build_component(seed, 2)) + "\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_gls_prints_the_report_unchanged(capsys, fmt):
    code, out, _ = run(capsys, "verify-gls", "--n", "3", "--orient", "RL", "--bound", "8",
                       "--format", fmt)
    report = check_gls(build_type_C_algebra(3, "RL"), 8)
    assert code == 0 and out == (report.to_json() if fmt == "json" else report.to_table()) + "\n"


def test_the_json_lists_are_the_librarys(capsys):
    p = build_type_C_algebra(3, "RR")
    expected = {
        ("strings", "--orient", "RR", "--max-len", "2"):
            [format_word(w) for w in enumerate_strings(p, 2)],
        ("bands", "--orient", "RR", "--max-dl", "2"):
            [{"band": format_word(b), "dl": delta_length(b)} for b in enumerate_bands(p, 2)],
        ("roots", "--bound", "6"):
            [list(r) for r in sorted(enumerate_positive_roots(cartan(3), 6))],
    }
    for (command, *flags), doc in expected.items():
        code, out, _ = run(capsys, command, "--n", "3", *flags, "--format", "json")
        assert code == 0 and out == json.dumps(doc) + "\n", command


def test_roots_at_bound_0_prints_nothing(capsys):
    assert run(capsys, "roots", "--n", "3", "--bound", "0") == (0, "", "")
