"""End-to-end tests for the command-line interface."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from supercrystals import cli, graph, linkage, sweeps
from supercrystals.cli import main
from supercrystals.weights import build_context

PAPER = ["--p", "3", "--parities", "1,1,0,0,0"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_signature_single_residue(capsys):
    code, out, _ = run(PAPER + ["signature", "--weight", "1,-1,1,7,5", "--r", "0"], capsys)
    assert code == 0
    assert out == "++-++ / ++00+"


def test_signature_all_lists_only_nonzero(capsys):
    code, out, _ = run(PAPER + ["signature", "--weight", "1,-1,1,7,5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "r=0: ++-++ / ++00+"


def test_signature_json(capsys):
    code, out, _ = run(
        PAPER + ["--format", "json", "signature", "--weight", "1,-1,1,7,5"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert {"r": 0, "raw": "++-++", "reduced": "++00+"} in rows


def test_apply_fstar(capsys):
    code, out, _ = run(
        PAPER + ["apply", "--op", "fstar", "--r", "0", "--weight", "1,-1,1,7,5"],
        capsys,
    )
    assert code == 0
    assert out == "1,-1,1,7,6"


def test_apply_undefined(capsys):
    code, out, _ = run(
        PAPER + ["apply", "--op", "estar", "--r", "0", "--weight", "1,-1,1,7,5"],
        capsys,
    )
    assert code == 0
    assert out == "undefined"
    assert run(
        ["--p", "0", "--parities", "1,0", "apply", "--op", "fstar", "--r", "5",
         "--weight", "0,0", "--format", "json"],
        capsys,
    ) == (0, "null", "")


def test_classify(capsys):
    code, out, _ = run(
        PAPER + ["classify", "--weight", "1,-1,1,7,5", "--i", "1", "--r", "1"], capsys
    )
    assert code == 0
    assert out == "good (r=1)"
    assert run(
        ["--p", "3", "--parities", "1,0", "classify", "--weight", "0,1", "--i", "1",
         "--format", "json"],
        capsys,
    ) == (0, '{"kind": "good", "r": 1}', "")


def test_graph_dot_format_after_subcommand(capsys):
    code, out, _ = run(
        PAPER
        + ["graph", "--weight", "1,-1,1,7,5", "--depth", "1", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert sum(1 for line in out.splitlines() if "->" in line) == 3
    assert sum(1 for line in out.splitlines() if "label=" in line and "->" not in line) == 4


def test_graph_json(capsys):
    code, out, _ = run(
        PAPER + ["--format", "json", "graph", "--weight", "1,-1,1,7,5"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4 and len(data["edges"]) == 3


def test_blocks_from_file(tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps([[0, 0], [1, -1], [1, 0]]))
    code, out, _ = run(
        ["--p", "2", "--parities", "0,1", "blocks", "--weights", str(weights)], capsys
    )
    assert code == 0
    blocks = json.loads(out)
    assert sum(len(b["weights"]) for b in blocks) == 3
    for b in blocks:
        assert "wt" in b


def test_pbw_lower(capsys):
    code, out, _ = run(
        PAPER + ["pbw", "lower", "--i", "1", "--j", "3", "--A", ""], capsys
    )
    assert code == 0
    assert out == "1 * F[3,1]"


def test_pbw_verma_scalar(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "pbw", "verma-scalar", "--weight", "2,3",
         "--r", "1"],
        capsys,
    )
    assert code == 0
    assert out == "4 (predicted 4): pass"


def test_pbw_lower_prints_integer_coefficients(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0,1,0", "pbw", "lower", "--i", "1", "--j", "4",
         "--A", "2,3"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "1 * F[2,1] F[3,2] F[4,3]",
        "-1 * F[2,1] F[4,2] H[1]",
        "1 * F[2,1] F[4,2] H[3]",
        "-1 * F[3,1] F[4,3]",
        "1 * F[3,1] F[4,3] H[1]",
        "1 * F[3,1] F[4,3] H[2]",
        "-1 * F[4,1] H[1]",
        "1 * F[4,1] H[1] H[2]",
        "-1 * F[4,1] H[1] H[3]",
        "1 * F[4,1] H[1]^2",
        "-1 * F[4,1] H[2] H[3]",
        "1 * F[4,1] H[3]",
    ]


def test_pbw_check_central(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "pbw", "check-central", "--r", "2"], capsys
    )
    assert code == 0
    assert out == "pass"


PBW3 = ["--p", "0", "--parities", "1,0,1", "pbw"]


def test_pbw_check_recurrence(capsys):
    code, out, err = run(
        PBW3 + ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "2"], capsys
    )
    assert (code, out, err) == (0, "pass", "")
    code, out, err = run(
        PBW3 + ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "1"], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: k = 1 is not in A = [2]"


def test_pbw_rejects_positions_outside_the_context(capsys):
    for i in ("0", "9"):
        code, out, err = run(
            ["--p", "0", "--parities", "1,0", "pbw", "lower", "--i", i, "--j", i], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: need 1 <= i <= j <= 2, got ({i}, {i})"
    code, out, err = run(
        PBW3 + ["check-recurrence", "--i", "2", "--j", "3", "--A", "1", "--k", "1"], capsys
    )
    assert (code, out, err) == (2, "", "error: A = [1] not inside (2..3)")


def test_pbw_check_commutator(capsys):
    for a_set, l in (("2", "1"), ("", "2"), ("2", "2")):
        code, out, err = run(
            PBW3 + ["check-commutator", "--i", "1", "--j", "3", "--A", a_set, "--l", l], capsys
        )
        assert (code, out, err) == (0, "pass", ""), (a_set, l)
    # (i, j, A, l) = (1, 2, {}, 1) falls in none of the lemma's four cases
    code, out, err = run(PBW3 + ["check-commutator", "--i", "1", "--j", "2", "--l", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: input is outside the four cases of the lemma"
    # E_l exists only for 1 <= l < rank
    for l in ("0", "2", "5"):
        assert run(
            ["--p", "0", "--parities", "1,0", "pbw", "check-commutator", "--i", "1",
             "--j", "2", "--l", l],
            capsys,
        ) == (2, "", f"error: l = {l} out of range 1..1")


def test_malformed_weight_exits_2(capsys):
    code, _, err = run(PAPER + ["signature", "--weight", "1,x,3,4,5"], capsys)
    assert code == 2
    assert "error:" in err


def test_composite_characteristic_exits_2(capsys):
    code, _, err = run(
        ["--p", "4", "--parities", "0,1", "signature", "--weight", "0,0"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_verify_pinned_suite(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "verify", "pbw-identities",
         "--max-rank", "2", "--pin-parities", "--processes", "1"],
        capsys,
    )
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "sig.txt"
    code, out, _ = run(
        PAPER + ["signature", "--weight", "1,-1,1,7,5", "--r", "0", "--out",
                 str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "++-++ / ++00+"


def test_dot_format_outside_graph_exits_2(capsys):
    for argv in (
        ["signature", "--weight", "1,-1,1,7,5"],
        ["apply", "--op", "fstar", "--r", "0", "--weight", "1,-1,1,7,5"],
        ["classify", "--weight", "1,-1,1,7,5", "--i", "1"],
    ):
        code, out, err = run(PAPER + ["--format", "dot"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--format dot" in err


def test_verify_pin_outside_the_rank_caps_exits_2(capsys):
    code, _, err = run(
        ["--p", "0", "--parities", "1,0,0,1,0", "verify", "pbw-identities",
         "--pin-parities", "--processes", "1"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


def _report_rows(reports):
    return [
        {
            "name": rep.name,
            "checks": rep.checks,
            "failures": rep.failures,
            "passed": rep.passed,
            "counterexample": rep.counterexample,
        }
        for rep in reports
    ]


def test_verify_json_reports(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "verify", "linkage", "--max-rank", "2",
         "--p-list", "0,3", "--processes", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    want = sweeps.run_suite("linkage", max_rank=2, p_list=[0, 3], processes=1)
    assert json.loads(out) == _report_rows(want)
    assert all(rep.checks for rep in want)


def test_verify_json_failure_exits_1(monkeypatch, capsys):
    failing = [sweeps.PropertyReport("a property", 5, 2, "ctx=... lam=(0, 1)")]
    monkeypatch.setattr(sweeps, "run_suite", lambda *args, **kwargs: failing)
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "--format", "json", "verify", "linkage"],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == _report_rows(failing)


def test_verify_rejects_ranges_that_leave_no_checks(capsys):
    for option in (["--max-r", "0"], ["--coeff-window", "-1"]):
        code, out, err = run(
            ["--p", "0", "--parities", "1,0", "verify", "verma-scalars",
             "--max-rank", "2", "--processes", "1"] + option,
            capsys,
        )
        assert code == 2 and out == "", option
        assert err.startswith("error:"), option


def test_verify_max_r_bounds_the_x_element_checks(capsys):
    # the x-element brackets run r = 1..min(max_r, 3)
    counts = {}
    for max_r in ("1", "2", "4"):
        code, out, _ = run(
            ["--p", "0", "--parities", "1,0", "--format", "json", "verify",
             "pbw-identities", "--max-rank", "2", "--processes", "1",
             "--max-r", max_r],
            capsys,
        )
        assert code == 0
        counts[max_r] = [row["checks"] for row in json.loads(out)][-2:]
    assert counts == {"1": [64, 16], "2": [128, 32], "4": [192, 48]}


def test_verify_pin_parities_rejects_an_explicit_p_list(capsys):
    code, out, err = run(
        ["--p", "0", "--parities", "1,0", "verify", "linkage", "--max-rank", "2",
         "--pin-parities", "--p-list", "3", "--processes", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--p-list" in err


def test_verify_with_a_repeated_characteristic_exits_2(capsys):
    # a characteristic listed twice would run each of its shards twice
    with pytest.raises(ValueError):
        sweeps.run_suite("linkage", max_rank=2, p_list=(3, 3), processes=1)
    code, out, err = run(
        ["--p", "0", "--parities", "1,0", "verify", "linkage", "--max-rank", "2",
         "--p-list", "3,3", "--processes", "1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "characteristic" in err


def test_verify_unpinned_p_list_defaults_to_0_2_3_5(capsys):
    code, out, _ = run(
        ["--p", "0", "--parities", "1,0", "--format", "json", "verify", "linkage",
         "--max-rank", "2", "--processes", "1"],
        capsys,
    )
    assert code == 0
    want = sweeps.run_suite("linkage", max_rank=2, p_list=[0, 2, 3, 5], processes=1)
    assert json.loads(out) == _report_rows(want)


def test_verify_sweeps_only_the_characteristics_it_is_given(capsys):
    # the lowering part runs at the positive characteristics it is given:
    # at p = 0 alone it plans no shard and prints no report
    lowered = "raised lowered vectors give the predicted scalar"
    for option in (["--pin-parities"], ["--p-list", "0"]):
        code, out, _ = run(
            ["--p", "0", "--parities", "1,0", "verify", "verma-scalars",
             "--max-rank", "2", "--processes", "1"] + option,
            capsys,
        )
        assert code == 0, option
        assert "central elements act on the Verma line by Z_r" in out, option
        assert lowered not in out, option
    code, out, _ = run(
        ["--p", "3", "--parities", "1,0", "verify", "verma-scalars",
         "--max-rank", "2", "--pin-parities", "--processes", "1"],
        capsys,
    )
    assert code == 0
    assert f"[pass] {lowered}: 49 checks" in out


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_matches_a_fresh_parser(monkeypatch, capsys):
    weight = ["--weight", "1,-1,1,7,5"]
    sequence = [
        PAPER + ["--format", "json", "signature"] + weight,
        PAPER + ["signature"] + weight + ["--format", "json"],
        PAPER + ["signature"] + weight,
        PAPER + ["apply", "--op", "fstar", "--r", "0"] + weight,
        PAPER + ["apply", "--op", "sideways", "--r", "0"] + weight,
        PAPER + ["classify", "--i", "1"] + weight,
        PAPER + ["--format", "dot", "classify", "--i", "1"] + weight,
        PAPER + ["graph", "--depth", "1"] + weight + ["--format", "dot"],
        PAPER + ["graph", "--depth", "1"] + weight,
        PAPER + ["--format", "json", "graph"] + weight,
        ["--p", "3", "signature"] + weight,
        PAPER + ["pbw", "lower", "--i", "1", "--j", "3", "--A", ""],
        PAPER + ["--format", "dot", "apply", "--op", "estar", "--r", "1"] + weight,
        PAPER + ["apply", "--op", "estar", "--r", "1"] + weight,
    ]
    reused = [_outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_outcome(argv, capsys))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 0]
    assert reused[0][1] == reused[1][1] and reused[0][1].startswith("[")
    assert reused[2][1].startswith("r=0: ")
    assert reused[6][2].startswith("error:") and reused[12][2].startswith("error:")


def _src_env():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_main_builds_its_parser_once_and_not_at_import():
    script = (
        "import supercrystals.cli as cli\n"
        "assert cli._PARSER is None\n"
        "argv = ['--p', '3', '--parities', '1,1,0,0,0', 'apply', '--op', 'fstar',"
        " '--r', '0', '--weight', '1,-1,1,7,5']\n"
        "assert cli.main(argv) == 0\n"
        "parser = cli._PARSER\n"
        "assert parser is not None and cli.main(argv) == 0\n"
        "assert cli._PARSER is parser and cli.build_parser() is not parser\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1,-1,1,7,6\n1,-1,1,7,6\n"


def test_python_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "supercrystals", "--p", "3", "--parities",
         "1,1,0,0,0", "apply", "--op", "fstar", "--r", "0", "--weight", "1,-1,1,7,5"],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1,-1,1,7,6\n"


def test_json_format_on_pbw_commands_exits_2(capsys):
    for argv in (
        ["lower", "--i", "1", "--j", "2"],
        ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "2"],
        ["check-commutator", "--i", "1", "--j", "3", "--A", "2", "--l", "1"],
        ["check-central", "--r", "2"],
        ["verma-scalar", "--weight", "2,3,1", "--r", "1"],
    ):
        for args in (
            ["--format", "json", "pbw"] + argv,
            ["pbw"] + argv + ["--format", "json"],
        ):
            code, out, err = run(["--p", "0", "--parities", "1,0,1"] + args, capsys)
            assert code == 2 and out == "", args
            assert err == f"error: --format json does not apply to pbw {argv[0]}"


def test_blocks_with_a_weight_of_the_wrong_length_exits_2(tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text("[[0, 1], [0, 1, 2]]")
    code, out, err = run(
        ["--p", "2", "--parities", "0,1", "blocks", "--weights", str(weights)], capsys
    )
    assert code == 2 and out == ""
    assert err == "error: weight [0, 1, 2] has length 3, expected 2"


def test_text_format_on_graph_and_blocks_exits_2(tmp_path, capsys):
    # both print JSON only, so an explicit --format text is an error
    weights = tmp_path / "w.json"
    weights.write_text("[[0, 0], [1, 0]]")
    for argv in (
        ["graph", "--weight", "0,0", "--depth", "1"],
        ["blocks", "--weights", str(weights)],
    ):
        for args in (["--format", "text"] + argv, argv + ["--format", "text"]):
            code, out, err = run(["--p", "0", "--parities", "1,0"] + args, capsys)
            assert code == 2 and out == "", args
            assert err == f"error: --format text does not apply to {argv[0]}, which prints JSON"


def test_graph_and_blocks_print_json_without_a_format(tmp_path, capsys):
    ctx = build_context(3, 2, (1, 1, 0, 0, 0), 3)
    lam = (1, -1, 1, 7, 5)
    want = json.dumps(graph.crystal_component(ctx, lam, 2).to_json())
    argv = ["graph", "--weight", "1,-1,1,7,5", "--depth", "2"]
    assert run(PAPER + argv, capsys) == (0, want, "")
    assert run(PAPER + ["--format", "json"] + argv, capsys) == (0, want, "")
    weights = tmp_path / "w.json"
    weights.write_text("[[0, 0], [1, -1], [1, 0]]")
    ctx = build_context(1, 1, (0, 1), 2)
    blocks = linkage.partition_blocks(ctx, [(0, 0), (1, -1), (1, 0)])
    want = json.dumps(
        [{"wt": key.to_json(), "weights": [list(w) for w in ws]} for key, ws in blocks]
    )
    argv = ["--p", "2", "--parities", "0,1", "blocks", "--weights", str(weights)]
    assert run(argv, capsys) == (0, want, "")
    assert run(argv + ["--format", "json"], capsys) == (0, want, "")


def test_blocks_input_that_is_not_an_array_of_integer_arrays_exits_2(tmp_path, capsys):
    weights = tmp_path / "w.json"
    for text in ("5", "[5]", "[null]", "[true,false]", "[[1.5,2]]", "[[true,0]]",
                 '"12"', '{"1":2}'):
        weights.write_text(text)
        code, out, err = run(
            ["--p", "2", "--parities", "0,1", "blocks", "--weights", str(weights)], capsys
        )
        assert (code, out) == (2, ""), text
        assert err == "error: blocks takes a JSON array of integer arrays", text


def test_verify_with_fewer_than_one_process_exits_2(capsys):
    for n in ("0", "-3"):
        code, out, err = run(
            ["--p", "0", "--parities", "1,0", "verify", "linkage", "--max-rank", "2",
             "--processes", n],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: processes must be >= 1, got {n}"


def test_blocks_reads_stdin_without_weights(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[0,0],[1,-1]]"))
    assert run(["--p", "2", "--parities", "0,1", "blocks"], capsys) == (
        0,
        '[{"wt": {"delta": 0, "lambda": [0, 0]}, "weights": [[0, 0], [1, -1]]}]',
        "",
    )


def test_invalid_positions_r_and_parities_exit_2(capsys):
    for argv, err in (
        (["--parities", "1,0", "classify", "--weight", "0,1", "--i", "0"],
         "error: position 0 out of range 1..2"),
        (["--parities", "1,0", "pbw", "check-central", "--r", "0"], "error: r must be >= 1"),
        (["--parities", "1,0", "pbw", "verma-scalar", "--weight", "0,0", "--r", "0"],
         "error: r must be >= 1"),
        (["--parities", "1,x", "classify", "--weight", "0,1", "--i", "1"],
         "error: malformed parity list '1,x'"),
    ):
        assert run(["--p", "0"] + argv, capsys) == (2, "", err), argv
