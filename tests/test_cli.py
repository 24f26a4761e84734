"""End-to-end tests for the command-line interface."""

import argparse
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from supercrystals import cli, graph, linkage, pbw, sweeps
from supercrystals.cli import main
from supercrystals.weights import build_context

PAPER = ["--p", "3", "--parities", "1,1,0,0,0"]
P0 = ["--p", "0", "--parities", "1,0"]


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


def test_pbw_check_commutator(capsys):
    for a_set, l in (("2", "1"), ("", "2"), ("2", "2")):
        code, out, err = run(
            PBW3 + ["check-commutator", "--i", "1", "--j", "3", "--A", a_set, "--l", l], capsys
        )
        assert (code, out, err) == (0, "pass", ""), (a_set, l)


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


def test_a_file_that_cannot_be_opened_exits_2(tmp_path, capsys):
    # main opens --out only once the handler has its text; a missing
    # --weights file fails inside the handler
    target = tmp_path / "missing" / "sig.txt"
    absent = tmp_path / "absent.json"
    for argv, path in (
        (PAPER + ["signature", "--weight", "1,-1,1,7,5", "--out", str(target)], target),
        (["--p", "2", "--parities", "0,1", "blocks", "--weights", str(absent)], absent),
    ):
        code = main(argv)
        out = capsys.readouterr()
        line = f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert (code, out.out, out.err) == (2, "", line)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_check_writes_its_report_to_out(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(pbw, "recurrence_check", lambda *args: False)
    target = tmp_path / "rec.txt"
    code = main(PBW3 + ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "2",
                        "--out", str(target)])
    assert (code, capsys.readouterr().out, target.read_text()) == (1, "", "FAIL\n")


def _leaf_defaults(parser, path=(), defaults=None):
    # (command path, the defaults it inherits) of each leaf subcommand
    defaults = {**(defaults or {}), **parser._defaults}
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), defaults
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_defaults(child, path + (name,), defaults)


def test_every_command_declares_its_handler_and_formats():
    # main reads both; a command that forgot formats would crash it
    declared = {}
    for command, defaults in _leaf_defaults(cli.build_parser()):
        assert callable(defaults.get("handler")), command
        declared[command] = defaults.get("formats")
        assert declared[command] and set(declared[command]) <= {"text", "json", "dot"}
    pbw_commands = ("lower", "check-recurrence", "check-commutator", "check-central",
                    "verma-scalar")
    assert declared == {
        **{name: ("text", "json") for name in ("signature", "apply", "classify", "verify")},
        "graph": ("json", "dot"),
        "blocks": ("json",),
        **{f"pbw {name}": ("text",) for name in pbw_commands},
    }


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
        ["verify", "linkage", "--max-rank", "2", "--p-list", "0,3", "--processes", "1",
         "--format", "json"],
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
        ["--format", "json", "verify", "linkage"],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == _report_rows(failing)


def test_verify_max_r_bounds_the_x_element_checks(capsys):
    # the x-element brackets run r = 1..min(max_r, 3)
    counts = {}
    for max_r in ("1", "2", "4"):
        code, out, _ = run(
            ["--format", "json", "verify", "pbw-identities", "--max-rank", "2",
             "--processes", "1", "--max-r", max_r],
            capsys,
        )
        assert code == 0
        counts[max_r] = [row["checks"] for row in json.loads(out)][-2:]
    assert counts == {"1": [64, 16], "2": [128, 32], "4": [192, 48]}


def test_verify_all_accepts_every_option(capsys):
    # all hands each suite the options it reads and runs it as on its own
    head = ["--p", "0", "--parities", "1,0", "--format", "json", "verify"]
    common = ["--max-rank", "2", "--pin-parities", "--processes", "1"]
    given = {"coeff_window": ["--coeff-window", "1"], "seed": ["--seed", "7"],
             "max_r": ["--max-r", "2"]}
    code, out, _ = run(head + ["all"] + common + sum(given.values(), []), capsys)
    assert code == 0
    rows = json.loads(out)
    for suite in sweeps.SUITES:
        own = [a for name in sweeps.SUITE_OPTIONS[suite] for a in given.get(name, [])]
        code, out, _ = run(head + [suite] + common + own, capsys)
        assert code == 0
        suite_rows = json.loads(out)
        assert rows[: len(suite_rows)] == suite_rows, suite
        rows = rows[len(suite_rows) :]
    assert rows == []


def test_verify_takes_a_nonzero_p_only_for_a_pinned_sweep_of_characteristics(capsys):
    # the rejected cases are USAGE_ERRORS rows
    assert run(
        ["--p", "0", "--parities", "1,0", "verify", "pbw-identities", "--max-rank", "2",
         "--pin-parities", "--processes", "1"],
        capsys,
    )[0] == 0
    # all sweeps at p = 3 where a suite sweeps characteristics: the lowering
    # part of verma-scalars runs at positive p only
    code, out, _ = run(
        ["--p", "3", "--parities", "1,0", "verify", "all", "--max-rank", "2",
         "--coeff-window", "1", "--pin-parities", "--processes", "1"],
        capsys,
    )
    assert code == 0 and "FAIL" not in out
    assert "[pass] raised lowered vectors give the predicted scalar" in out


# each verify option as a run gives it; --p and --parities precede verify
GIVEN = {"coeff_window": ["--coeff-window", "1"], "p_list": ["--p-list", "0,3"],
         "seed": ["--seed", "7"], "max_r": ["--max-r", "2"], "p": ["--p", "3"],
         "parities": ["--parities", "1,0"]}


@pytest.mark.parametrize("suite", sweeps.SUITES + ("all",))
def test_verify_runs_on_an_option_it_reads_and_names_any_other(monkeypatch, capsys, suite):
    # an unpinned run reads SUITE_OPTIONS (their union for all); a pinned run
    # reads the context of --parities and --p in place of --p-list, and --p
    # only where the suite sweeps characteristics
    monkeypatch.setattr(sweeps, "_run_sharded", lambda worker, jobs, processes: [])
    suites = sweeps.SUITES if suite == "all" else (suite,)
    unpinned = set().union(*(sweeps.SUITE_OPTIONS[name] for name in suites))
    pinned = unpinned - {"p_list"} | {"parities"} | ({"p"} if "p_list" in unpinned else set())
    reads = {False: unpinned, True: pinned}
    for pin in (False, True):
        for name, flag in GIVEN.items():
            top = flag if name in ("p", "parities") else []
            context = ["--parities", "1,0"] if pin and name != "parities" else []
            argv = context + top + ["verify", suite, "--max-rank", "2", "--processes", "1"]
            argv += (["--pin-parities"] if pin else []) + ([] if top else flag)
            code = main(argv)
            out = capsys.readouterr()
            if name in reads[pin]:
                assert (code, out.err) == (0, ""), argv
                continue
            mode = ""
            if name in reads[not pin]:
                mode = " with --pin-parities" if pin else " without --pin-parities"
            line = f"error: {flag[0]} does not apply to {suite}{mode}\n"
            assert (code, out.out, out.err) == (2, "", line), argv


def test_run_suite_rejects_a_repeated_characteristic():
    # a characteristic listed twice would run each of its shards twice; the
    # CLI run is a USAGE_ERRORS row
    with pytest.raises(ValueError):
        sweeps.run_suite("linkage", max_rank=2, p_list=(3, 3), processes=1)


def test_verify_unpinned_p_list_defaults_to_0_2_3_5(capsys):
    code, out, _ = run(
        ["--format", "json", "verify", "linkage", "--max-rank", "2", "--processes", "1"],
        capsys,
    )
    assert code == 0
    want = sweeps.run_suite("linkage", max_rank=2, p_list=[0, 2, 3, 5], processes=1)
    assert json.loads(out) == _report_rows(want)


def test_verify_sweeps_only_the_characteristics_it_is_given(capsys):
    # the lowering part runs at the positive characteristics it is given:
    # at p = 0 alone it plans no shard and prints no report
    lowered = "raised lowered vectors give the predicted scalar"
    run_at_0 = ["verify", "verma-scalars", "--max-rank", "2", "--processes", "1"]
    for argv in (P0 + run_at_0 + ["--pin-parities"], run_at_0 + ["--p-list", "0"]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert "central elements act on the Verma line by Z_r" in out, argv
        assert lowered not in out, argv
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


def _readme_examples():
    # (argv, stdin or None, the stdout lines of its "# -> " comments) of each
    # supercrystals line in the README's sh blocks
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for line in "".join(re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)).splitlines():
        if line.startswith("# -> "):
            examples[-1][2].append(line[len("# -> "):])
            continue
        feed, _, command = line.rpartition(" | ")
        words = shlex.split(command, comments=True)
        stdin = shlex.split(feed)[1] if feed else None  # echo TEXT |
        for head in (["supercrystals"], ["python", "-m", "supercrystals"]):
            if words[: len(head)] == head:
                examples.append((words[len(head):], stdin, []))
    return examples


def test_the_readme_cli_examples_run(monkeypatch, capsys):
    # the verify lines check their options and plan their jobs, sweeping nothing
    monkeypatch.setattr(sweeps, "_run_sharded", lambda worker, jobs, processes: [])
    examples = _readme_examples()
    parser = cli.build_parser()
    commands = {parser.parse_args(argv).command for argv, _, _ in examples}
    assert commands == {"signature", "apply", "classify", "graph", "blocks", "pbw", "verify"}
    for argv, stdin, want in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, ""), argv
        if want:
            assert out == "\n".join(want), argv


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


def test_blocks_reads_stdin_without_weights(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[0,0],[1,-1]]"))
    assert run(["--p", "2", "--parities", "0,1", "blocks"], capsys) == (
        0,
        '[{"wt": {"delta": 0, "lambda": [0, 0]}, "weights": [[0, 0], [1, -1]]}]',
        "",
    )


# stands for the path of the file a row's JSON text is written to
WEIGHTS_FILE = "<weights.json>"
BLOCKS = ["--p", "2", "--parities", "0,1", "blocks", "--weights", WEIGHTS_FILE]
# an unpinned verify reads no context; a pinned one reads P0's
VERIFY = ["verify"]
PINNED = P0 + ["verify"]

# (argv, the one stderr line, the JSON text behind WEIGHTS_FILE or None)
USAGE_ERRORS = [
    # malformed integer lists name what they are
    pytest.param(PAPER + ["signature", "--weight", "1,x,3,4,5"],
                 "error: malformed weight '1,x,3,4,5'", None, id="malformed-weight"),
    pytest.param(P0 + ["signature", "--weight", "0,0,0"],
                 "error: weight [0, 0, 0] has length 3, expected 2", None, id="weight-length"),
    pytest.param(["--p", "0", "--parities", "1,x", "classify", "--weight", "0,1", "--i", "1"],
                 "error: malformed parity list '1,x'", None, id="malformed-parities"),
    pytest.param(VERIFY + ["linkage", "--p-list", "0,x"],
                 "error: malformed characteristic list '0,x'", None, id="malformed-p-list"),
    pytest.param(VERIFY + ["linkage", "--p-list", ","],
                 "error: malformed characteristic list ','", None, id="empty-p-list"),
    pytest.param(P0 + ["pbw", "lower", "--i", "1", "--j", "2", "--A", "2,x"],
                 "error: malformed index set '2,x'", None, id="malformed-index-set"),
    pytest.param(P0 + ["signature", "--weight", "0,0", "--r", "abc"],
                 "error: malformed residue 'abc'", None, id="malformed-residue"),
    pytest.param(["--p", "4", "--parities", "0,1", "signature", "--weight", "0,0"],
                 "error: characteristic must be 0 or prime, got 4", None, id="composite-p"),
    # --format misuse: dot is for graph only, graph and blocks print JSON only,
    # and pbw prints text only
    *[pytest.param(PAPER + ["--format", "dot"] + argv,
                   f"error: --format dot does not apply to {argv[0]}, which prints text"
                   " or json", None, id=f"dot-{argv[0]}")
      for argv in (["signature", "--weight", "1,-1,1,7,5"],
                   ["apply", "--op", "fstar", "--r", "0", "--weight", "1,-1,1,7,5"],
                   ["classify", "--weight", "1,-1,1,7,5", "--i", "1"])],
    *[pytest.param(P0 + args, f"error: --format text does not apply to {argv[0]}, which"
                   f" prints {formats}", "[[0, 0], [1, 0]]" if WEIGHTS_FILE in argv else None,
                   id=f"text-{argv[0]}-{where}")
      for argv, formats in ((["graph", "--weight", "0,0", "--depth", "1"], "json or dot"),
                            (["blocks", "--weights", WEIGHTS_FILE], "json"))
      for where, args in (("before", ["--format", "text"] + argv),
                          ("after", argv + ["--format", "text"]))],
    *[pytest.param(["--p", "0", "--parities", "1,0,1"] + args,
                   f"error: --format json does not apply to pbw {argv[0]}, which prints"
                   " text", None,
                   id=f"json-{argv[0]}-{where}")
      for argv in (["lower", "--i", "1", "--j", "2"],
                   ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "2"],
                   ["check-commutator", "--i", "1", "--j", "3", "--A", "2", "--l", "1"],
                   ["check-central", "--r", "2"],
                   ["verma-scalar", "--weight", "2,3,1", "--r", "1"])
      for where, args in (("before", ["--format", "json", "pbw"] + argv),
                          ("after", ["pbw"] + argv + ["--format", "json"]))],
    # every command but an unpinned verify reads --parities
    *[pytest.param(argv, "error: --parities is required", None, id=f"no-parities-{argv[0]}")
      for argv in (["signature", "--weight", "0,0"],
                   ["apply", "--op", "fstar", "--r", "0", "--weight", "0,0"],
                   ["classify", "--weight", "0,0", "--i", "1"],
                   ["graph", "--weight", "0,0"],
                   ["blocks"],
                   ["verify", "linkage", "--max-rank", "2", "--pin-parities"])],
    *[pytest.param(["pbw"] + argv, "error: --parities is required", None,
                   id=f"no-parities-pbw-{argv[0]}")
      for argv in (["lower", "--i", "1", "--j", "2"],
                   ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "2"],
                   ["check-commutator", "--i", "1", "--j", "3", "--A", "2", "--l", "1"],
                   ["check-central", "--r", "2"],
                   ["verma-scalar", "--weight", "2,3", "--r", "1"])],
    # verify: pins, options a run does not read, characteristics
    pytest.param(["--p", "0", "--parities", "1,0,0,1,0", "verify", "pbw-identities",
                  "--pin-parities", "--processes", "1"],
                 "error: suite pbw-identities plans no shard at max_rank 4"
                 " with parities pinned to (1, 0, 0, 1, 0)", None, id="pin-outside-rank-caps"),
    pytest.param(PINNED + ["linkage", "--max-rank", "2", "--pin-parities", "--p-list", "3",
                           "--processes", "1"],
                 "error: --p-list does not apply to linkage with --pin-parities",
                 None, id="pin-with-p-list"),
    pytest.param(["--parities", "1,0", "verify", "linkage", "--max-rank", "2"],
                 "error: --parities does not apply to linkage without --pin-parities", None,
                 id="parities-unpinned"),
    pytest.param(PINNED + ["crystal-axioms", "--max-rank", "2", "--coeff-window", "1",
                           "--pin-parities", "--processes", "1", "--seed", "7", "--max-r", "9"],
                 "error: --seed does not apply to crystal-axioms", None,
                 id="seed-on-crystal-axioms"),
    pytest.param(VERIFY + ["crystal-axioms", "--max-rank", "2", "--max-r", "9"],
                 "error: --max-r does not apply to crystal-axioms", None,
                 id="max-r-on-crystal-axioms"),
    pytest.param(VERIFY + ["pbw-identities", "--max-rank", "2", "--p-list", "3"],
                 "error: --p-list does not apply to pbw-identities", None,
                 id="p-list-on-pbw-identities"),
    pytest.param(VERIFY + ["pbw-identities", "--max-rank", "2", "--coeff-window", "2"],
                 "error: --coeff-window does not apply to pbw-identities", None,
                 id="coeff-window-on-pbw-identities"),
    pytest.param(VERIFY + ["linkage", "--max-rank", "2", "--p-list", "3,3", "--processes", "1"],
                 "error: characteristic listed twice in [3, 3]", None,
                 id="repeated-characteristic"),
    # the PBW workers run at p = 0, and an unpinned sweep reads --p-list, not --p
    pytest.param(["--p", "3", "--parities", "1,0", "verify", "pbw-identities", "--max-rank",
                  "2", "--pin-parities", "--processes", "1"],
                 "error: --p does not apply to pbw-identities", None,
                 id="nonzero-p-on-pbw-identities"),
    pytest.param(["--p", "3", "--parities", "1,0", "verify", "linkage", "--max-rank", "2"],
                 "error: --p does not apply to linkage without --pin-parities", None,
                 id="nonzero-p-unpinned"),
    # ranges that would leave no checks
    pytest.param(VERIFY + ["verma-scalars", "--max-rank", "2", "--processes", "1",
                           "--max-r", "0"],
                 "error: max_r must be >= 1, got 0", None, id="max-r-0"),
    pytest.param(VERIFY + ["verma-scalars", "--max-rank", "2", "--processes", "1",
                           "--coeff-window", "-1"],
                 "error: coeff_window must be >= 0, got -1", None, id="coeff-window-negative"),
    *[pytest.param(VERIFY + ["linkage", "--max-rank", "2", "--processes", n],
                   f"error: processes must be >= 1, got {n}", None, id=f"processes-{name}")
      for n, name in (("0", "0"), ("-3", "negative"))],
    # positions, r and index sets outside the context or the lemma
    pytest.param(P0 + ["classify", "--weight", "0,1", "--i", "0"],
                 "error: position 0 out of range 1..2", None, id="classify-position-0"),
    pytest.param(P0 + ["pbw", "check-central", "--r", "0"], "error: r must be >= 1", None,
                 id="check-central-r-0"),
    pytest.param(P0 + ["pbw", "verma-scalar", "--weight", "0,0", "--r", "0"],
                 "error: r must be >= 1", None, id="verma-scalar-r-0"),
    *[pytest.param(P0 + ["pbw", "lower", "--i", i, "--j", i],
                   f"error: need 1 <= i <= j <= 2, got ({i}, {i})", None, id=f"pbw-lower-i-{i}")
      for i in ("0", "9")],
    pytest.param(PBW3 + ["check-recurrence", "--i", "2", "--j", "3", "--A", "1", "--k", "1"],
                 "error: A = [1] not inside (2..3)", None, id="recurrence-A-outside-i-j"),
    pytest.param(PBW3 + ["check-recurrence", "--i", "1", "--j", "3", "--A", "2", "--k", "1"],
                 "error: k = 1 is not in A = [2]", None, id="recurrence-k-outside-A"),
    # (i, j, A, l) = (1, 2, {}, 1) falls in none of the lemma's four cases
    pytest.param(PBW3 + ["check-commutator", "--i", "1", "--j", "2", "--l", "1"],
                 "error: input is outside the four cases of the lemma", None,
                 id="commutator-outside-the-lemma"),
    # E_l exists only for 1 <= l < rank
    *[pytest.param(P0 + ["pbw", "check-commutator", "--i", "1", "--j", "2", "--l", l],
                   f"error: l = {l} out of range 1..1", None, id=f"commutator-l-{l}")
      for l in ("0", "2", "5")],
    # blocks input
    pytest.param(BLOCKS, "error: weight [0, 1, 2] has length 3, expected 2",
                 "[[0, 1], [0, 1, 2]]", id="blocks-weight-length"),
    *[pytest.param(BLOCKS, "error: blocks takes a JSON array of integer arrays", text,
                   id=f"blocks-{name}")
      for name, text in (("number", "5"), ("array-of-number", "[5]"), ("null", "[null]"),
                         ("booleans", "[true,false]"), ("float", "[[1.5,2]]"),
                         ("bool-entry", "[[true,0]]"), ("string", '"12"'),
                         ("object", '{"1":2}'))],
    pytest.param(BLOCKS, "error: Expecting value: line 1 column 2 (char 1)", "[",
                 id="blocks-malformed-json"),
]
assert len({row.id for row in USAGE_ERRORS}) == len(USAGE_ERRORS)  # pytest renumbers repeated ids


@pytest.mark.parametrize("argv, line, weights", USAGE_ERRORS)
def test_a_usage_error_exits_2_with_its_line(argv, line, weights, tmp_path, capsys):
    if weights is not None:
        path = tmp_path / "w.json"
        path.write_text(weights)
        argv = [str(path) if a == WEIGHTS_FILE else a for a in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", line + "\n")
