import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stabsym import cli, clifford, operators, phase_space
from stabsym.cli import build_parser, golden_name, main

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_counts(capsys):
    code, out = run_cli(capsys, "enumerate", "--d", "3", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["lagrangian_count"] == 4
    assert report["stabilizer_label_count"] == 12
    assert report["count_matches_product_formula"]


def test_enumerate_deterministic(capsys):
    _, out1 = run_cli(capsys, "enumerate", "--d", "3", "--n", "1")
    _, out2 = run_cli(capsys, "enumerate", "--d", "3", "--n", "1")
    assert out1 == out2


def test_gram_multiset(capsys):
    code, out = run_cli(capsys, "gram", "--d", "2", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["value_multiset"] == {"0/1": 6, "1/2": 24, "1/1": 6}
    assert len(report["matrix"]) == 6


def test_gram_csv(capsys):
    code, out = run_cli(capsys, "gram", "--d", "2", "--n", "1", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 6
    assert rows[0].split(",")[0] == "1/1"


def test_gram_csv_output_file(capsys, tmp_path):
    argv = ["gram", "--d", "3", "--n", "1", "--format", "csv"]
    _, csv = run_cli(capsys, *argv)
    code, out = run_cli(capsys, *argv, "--output", str(tmp_path / "g.csv"))
    assert code == 0 and out == ""
    assert (tmp_path / "g.csv").read_text() == csv


def test_gram_csv_timing_is_a_usage_error(capsys):
    # the elapsed time is a key of a JSON report; a CSV has none to hold it
    assert main(["gram", "--d", "3", "--n", "1", "--format", "csv", "--timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unsupported: --timing") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    *(["enumerate", "--d", "3", option, "5"] for option in ("--seed", "--samples")),
    *([cmd, "--d", "3", "--seed", "1"] for cmd in ("gram", "autgroup", "verify-design", "facets")),
    *([cmd, "--d", "3", "--budget-seconds", "5"]
      for cmd in ("enumerate", "gram", "verify-design", "verify-clifford", "facets", "sf-sum")),
    ["gram", "--d", "3", "--matrix-limit", "4"],
])
def test_an_option_its_command_never_reads_is_a_usage_error(capsys, argv):
    # a run with such an option would record a second golden of one report
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sampled_and_searched_options_stay_where_they_are_read():
    parse = build_parser().parse_args
    for cmd in ("verify-clifford", "sf-sum", "report"):
        args = parse([cmd, "--d", "3", "--seed", "4", "--samples", "5"])
        assert (args.seed, args.samples) == (4, 5)
    for cmd in ("autgroup", "report"):
        assert parse([cmd, "--d", "3", "--budget-seconds", "5"]).budget_seconds == 5


def test_gram_csv_golden_is_a_usage_error(capsys, tmp_path):
    # a golden is a JSON report; a CSV has none to record
    golden = tmp_path / "golden"
    assert main(["gram", "--d", "3", "--n", "1", "--format", "csv", "--golden", str(golden)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not golden.exists()
    assert captured.err.startswith("unsupported: ") and captured.err.count("\n") == 1


def test_autgroup_31(capsys):
    code, out = run_cli(capsys, "autgroup", "--d", "3", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["computed_order"] == 31104
    assert report["variant"] == "wreath"
    assert report["match"]


def test_autgroup_rebit(capsys):
    code, out = run_cli(capsys, "autgroup", "--d", "2", "--n", "2", "--set", "rebit")
    assert code == 0
    report = json.loads(out)
    assert report["match"] and report["variant"] == "real_clifford"


def test_verify_design_stab31(capsys):
    code, out = run_cli(capsys, "verify-design", "--d", "3", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_as_expected"]
    assert report["checks"]["complex_2design"]["pass"] is True
    assert report["checks"]["complex_3design"]["pass"] is False


def test_verify_design_rebit(capsys):
    code, out = run_cli(capsys, "verify-design", "--d", "2", "--n", "1", "--set", "rebit")
    assert code == 0
    assert json.loads(out)["all_as_expected"]


def test_verify_clifford_d5(capsys):
    code, out = run_cli(capsys, "verify-clifford", "--d", "5", "--n", "1",
                        "--samples", "25", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["checks"]["ext_clifford_composition_law"]["pass"]
    assert report["checks"]["galois_action_on_phase_points"]["pass"]


def test_verify_clifford_qubit_table(capsys):
    code, out = run_cli(capsys, "verify-clifford", "--d", "2", "--n", "1")
    assert code == 0
    assert json.loads(out)["checks"]["wreath_table"]["pass"]


def test_facets_d3(capsys):
    code, out = run_cli(capsys, "facets", "--d", "3")
    assert code == 0
    report = json.loads(out)
    assert report["facet_count"] == 81
    assert report["supporting"]
    assert report["vertices_per_facet"] == [8]
    assert report["wigner_negative_state_inside"] is False
    assert report["violated_facet_characters"] is not None


def test_sf_sum_d3(capsys):
    code, out = run_cli(capsys, "sf-sum", "--d", "3", "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["C"] == "1" and report["tested_b"] == 9


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["enumerate", "--d", "4", "--n", "1"]) == 2


@pytest.mark.parametrize("limit,d", [(100, 11), (None, 37)])
def test_a_search_too_deep_for_the_interpreter_exits_3(limit, d):
    # the search recurses once per base point (120 at d = 11, 1 406 at
    # d = 37), here under a limit set after the imports or the default one:
    # an overflow is one line naming the nodes and the depth, and exit 3
    code = ("import sys\nfrom stabsym.cli import main\n"
            + (f"sys.setrecursionlimit({limit})\n" if limit else "")
            + f"sys.exit(main(['autgroup', '--d', '{d}', '--n', '1']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(operators.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("budget exceeded: automorphism search too deep")
    assert "nodes visited, depth" in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_budget_exit_code(capsys):
    code = main(["enumerate", "--d", "5", "--n", "3"])
    assert code == 3
    capsys.readouterr()
    assert main(["facets", "--d", "67"]) == 3  # a size limit, unlike d = 2
    assert capsys.readouterr().err == "budget exceeded: d^(2n) = 4489 exceeds cap 4096\n"
    # a budget of 0 s is spent before the first search node, on any machine
    code = main(["autgroup", "--budget-seconds", "0", "--d", "3", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("budget exceeded: automorphism search budget of 0 s exhausted")
    assert "nodes visited" in err and "depth" in err


def test_trace_table_budget_exit_code(capsys):
    # the (5,2) stabilizer trace table would gather 487.5 M entries (3.6 GiB):
    # refused before the 3 900 dense projectors are built
    assert main(["verify-design", "--d", "5", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: the trace table of 3900 operators at (d, n) ="
                            " (5, 2) gathers 487500000 entries, over the budget of 100000000\n")


def test_qubit_n4_is_refused_before_enumeration(capsys, monkeypatch):
    # the (2,4) set is counted in closed form, d^n prod_k (d^k + 1) = 36 720
    # states, and refused before a Lagrangian or a label is listed
    def enumerate_(*args):
        raise AssertionError("enumerated")

    for module in (phase_space, operators):
        monkeypatch.setattr(module, "enumerate_stabilizer_labels", enumerate_)
    monkeypatch.setattr(phase_space, "enumerate_lagrangians", enumerate_)
    assert main(["verify-design", "--d", "2", "--n", "4"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: the trace table of 36720 operators at"
                                       " (d, n) = (2, 4) gathers 601620480 entries, over the"
                                       " budget of 100000000\n")


def test_rebit_n5_is_refused_before_enumeration(capsys, monkeypatch):
    # no cap on n: the n = 5 rebits are counted in closed form,
    # 2^n prod_k (2^(k-1) + 1) = 146 880 states, and refused by the table
    # budget before a Lagrangian or a label is listed
    def enumerate_(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(clifford, "enumerate_stabilizer_labels", enumerate_)
    monkeypatch.setattr(phase_space, "enumerate_lagrangians", enumerate_)
    assert main(["verify-design", "--d", "2", "--n", "5", "--set", "rebit"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: the trace table of 146880 operators at"
                                       " (d, n) = (2, 5) gathers 19251855360 entries, over the"
                                       " budget of 100000000\n")


@pytest.mark.parametrize("cmd", ["autgroup", "gram", "enumerate"])
def test_qubit_n5_is_refused_before_a_candidate_block(capsys, monkeypatch, cmd):
    # the first pivot pattern of the (2,5) Lagrangians has 2^25 candidate
    # bases, 1 677 721 600 entries: refused by that count before any block
    def blocks(*args):
        raise AssertionError("a candidate block was built")

    monkeypatch.setattr(phase_space, "_echelon_blocks", blocks)
    assert main([cmd, "--d", "2", "--n", "5"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: a pivot pattern of the Lagrangians at"
                                       " (d, n) = (2, 5) holds 1677721600 candidate entries,"
                                       " over the budget of 100000000\n")


@pytest.mark.parametrize("cmd", ["autgroup", "gram"])
def test_rebit_n5_gram_is_refused_before_enumeration(capsys, monkeypatch, cmd):
    # the Theorem 1 search and the Gram both read the rebit closure, which
    # refuses the 146 880^2 Gram entries of n = 5 by the closed count
    def enumerate_(*args):
        raise AssertionError("enumerated")

    for module in (clifford, operators):
        monkeypatch.setattr(module, "enumerate_stabilizer_labels", enumerate_)
    monkeypatch.setattr(phase_space, "enumerate_lagrangians", enumerate_)
    assert main([cmd, "--d", "2", "--n", "5", "--set", "rebit"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: 146880^2 rebit Gram entries exceed the"
                                       " budget of 100000000\n")


@pytest.mark.parametrize("argv", [
    *(["autgroup", "--d", "5", "--n", "1", "--budget-seconds", v] for v in ("nan", "inf", "-1")),
    *([cmd, "--d", "3", "--n", n] for cmd in ("enumerate", "verify-design", "autgroup")
      for n in ("0", "-1")),
    ["verify-clifford", "--d", "5", "--samples", "0"],
], ids=lambda argv: "_".join(a[2:] if a.startswith("--") else a for a in argv))
def test_bad_argument_value_is_a_usage_error(capsys, argv):
    # the last option is the bad one: a NaN budget would never be reached and
    # switch the budget off; n < 1 has no states; zero samples would pass the
    # sampled laws vacuously
    assert main(argv) == 2  # an exception escaping main would fail this test
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse prints the usage, then one line naming the bad option
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"stabsym {argv[0]}: error: argument {argv[-2]}")


def test_budget_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("STABSYM_BUDGET_SECONDS", "0")
    code = main(["autgroup", "--d", "3", "--n", "2"])
    assert code == 3
    assert "budget of 0 s exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "soon"])
def test_bad_budget_from_environment_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("STABSYM_BUDGET_SECONDS", value)
    assert main(["autgroup", "--d", "5", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"unsupported: STABSYM_BUDGET_SECONDS must be a finite number"
                            f" >= 0, got {value!r}\n")


def test_report_deterministic_and_green(capsys, tmp_path):
    args = ["report", "--d", "3", "--n", "1", "--seed", "11", "--samples", "20"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"]
    assert report["sections"]["facets"]["facet_count"] == 81


def test_golden_write_then_match(capsys, tmp_path):
    golden = str(tmp_path / "golden")
    code, _ = run_cli(capsys, "enumerate", "--d", "2", "--n", "1", "--golden", golden)
    assert code == 0
    code, _ = run_cli(capsys, "enumerate", "--d", "2", "--n", "1", "--golden", golden)
    assert code == 0


@pytest.mark.parametrize("d,n,which", [
    (3, 2, "stab"), (2, 1, "stab"), (3, 1, "stab"), (5, 1, "stab"), (7, 1, "stab"),
    (2, 2, "stab"), (2, 2, "rebit"),
])
def test_autgroup_goldens_replay(capsys, tmp_path, d, n, which):
    # tests/goldens/ holds `--golden` reports recorded before the search and
    # the group engine were last changed; the reports must not move
    replay(capsys, tmp_path, "autgroup", "--d", str(d), "--n", str(n), "--set", which)


def replay(capsys, tmp_path, *argv):
    """Run argv with `--golden` on a copy of its golden file in tests/goldens/
    (named as `--golden` names it) and require the exact golden bytes on
    stdout."""
    golden = GOLDENS / golden_name(build_parser().parse_args(list(argv)))
    shutil.copy(golden, tmp_path / golden.name)
    code, out = run_cli(capsys, *argv, "--golden", str(tmp_path))
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("which,d,n", [
    ("stab", 2, 1), ("stab", 3, 1), ("stab", 5, 1), ("stab", 7, 1), ("stab", 2, 2),
    ("stab", 3, 2), ("rebit", 2, 1), ("rebit", 2, 2), ("phase-points", 3, 1),
    ("phase-points", 2, 1), ("phase-points", 2, 2),
])
def test_verify_design_goldens_replay(capsys, tmp_path, which, d, n):
    # `--golden` reports recorded before the moments elimination was last
    # changed (the d = 2 phase-point ones before the d = 2 tables were read
    # from labels); the design constants and condition reports must not move
    replay(capsys, tmp_path, "verify-design", "--d", str(d), "--n", str(n), "--set", which)


def _argv_id(argv):
    return "_".join(a.lstrip("-") for a in argv)


@pytest.mark.parametrize("argv", [
    *(["verify-clifford", "--seed", "7", "--d", str(d), "--n", "1"] for d in (2, 3, 5, 7)),
    ["verify-clifford", "--seed", "7", "--d", "7", "--n", "1", "--samples", "2000"],
    ["verify-clifford", "--seed", "7", "--d", "2", "--n", "2"],
    *(["sf-sum", "--d", "3", "--n", str(n)] for n in (1, 2)),
    ["sf-sum", "--d", "5", "--n", "1"],
    ["sf-sum", "--d", "5", "--n", "2", "--samples", "50"],
    ["sf-sum", "--d", "3", "--n", "3", "--samples", "5"],
    *(["facets", "--d", str(d)] for d in (3, 5, 7, 11)),
    ["enumerate", "--d", "3", "--n", "2"],
    *(["report", "--d", str(d), "--n", "1"] for d in (3, 5)),
    *(["gram", "--d", str(d), "--n", str(n)] for d, n in ((3, 1), (5, 1), (3, 2), (2, 2))),
    ["gram", "--d", "2", "--n", "2", "--set", "rebit"],
], ids=_argv_id)
def test_command_goldens_replay(capsys, tmp_path, argv):
    # `--golden` reports recorded before the verification logic moved from the
    # CLI into the library (the odd-d `gram` ones before the closed-form Gram
    # became one integer kernel, the d = 2 ones before the Gram became colour
    # codes over a legend, verify-clifford at d = 7 before products of exact
    # matrices ran in int64, facets and report at d = 5 before the facets
    # were read per basis block, facets at d = 7 and 11 after, verify-clifford
    # with 2000 samples before the sampled laws were checked in batches,
    # sf-sum at (3,3) before the S_f check stopped reading the pair table);
    # the reports must not move
    replay(capsys, tmp_path, *argv)


@pytest.mark.slow
@pytest.mark.parametrize("argv", [["gram", "--d", "2", "--n", "3"],
                                  ["autgroup", "--d", "2", "--n", "3"],
                                  ["verify-design", "--d", "2", "--n", "3"],
                                  ["verify-design", "--d", "2", "--n", "3", "--set", "rebit"]],
                         ids=_argv_id)
def test_qubit_n3_goldens_replay(capsys, tmp_path, argv):
    # opt-in (`-m slow`): the 1 080 three-qubit states, recorded from the
    # brute-force Gram (`trace_pairs` of the projectors) before the d = 2
    # Gram became the closed form on labels, and the three-qubit and
    # three-rebit design reports before the d = 2 trace tables were read
    # from labels
    replay(capsys, tmp_path, *argv)


@pytest.mark.slow
@pytest.mark.parametrize("argv", [["autgroup", "--d", "2", "--n", "4", "--set", "rebit"],
                                  ["verify-design", "--d", "2", "--n", "4", "--set", "rebit"]],
                         ids=_argv_id)
def test_rebit_n4_goldens_replay(capsys, tmp_path, argv):
    # opt-in (`-m slow`): the 4 320 four-rebit states, recorded when the
    # rebits became the qubit labels on real Lagrangians; the certified order
    # is the real Clifford group's 89 181 388 800
    replay(capsys, tmp_path, *argv)


@pytest.mark.slow
def test_agsp_d5_n2_golden_replays(capsys, tmp_path):
    # opt-in (`-m slow`): Theorem 1 at (5,2), 3 125 states, recorded before
    # the stabilizer chain kept Schreier trees
    replay(capsys, tmp_path, "autgroup", "--d", "5", "--n", "2")


@pytest.mark.slow
def test_sf_sum_d7_n2_golden_replays(capsys, tmp_path):
    # opt-in (`-m slow`): the (7,2) pair table of 400 Lagrangians, recorded
    # while it was built with one elimination per pair
    replay(capsys, tmp_path, "sf-sum", "--d", "7", "--n", "2", "--samples", "20")


def peak_rss_mb(*argv):
    """The peak resident set of the command argv in MB: a fresh interpreter
    runs it as its only child, so RUSAGE_CHILDREN reads that command's peak
    alone."""
    code = ("import resource, subprocess, sys\n"
            f"subprocess.run([sys.executable, '-m', 'stabsym.cli', *{list(argv)!r}],"
            " stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(operators.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return int(out.stdout) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.slow
def test_agsp_d5_n2_peak_rss_is_under_200_mb():
    # opt-in (`-m slow`): the chain's 7 987 orbit points at (5,2) are tree
    # edges, not 3 900-tuples (541 MB peak when every representative and its
    # inverse was stored)
    assert peak_rss_mb("autgroup", "--d", "5", "--n", "2") < 200


@pytest.mark.slow
def test_sf_sum_d3_n3_peak_rss_is_under_50_mb():
    # opt-in (`-m slow`): the S_f sum rule at (3,3) builds no Lagrangian pair
    # table, only per-b histograms over the 1 120 Lagrangians (~36 MB peak;
    # 61 MB while it read the pair table in blocks of rows)
    assert peak_rss_mb("sf-sum", "--d", "3", "--n", "3", "--samples", "5") < 50


@pytest.mark.parametrize("argv", [
    ["sf-sum", "--d", "2", "--n", "1"],
    ["autgroup", "--d", "2", "--n", "1", "--variant", "agsp"],
    ["autgroup", "--d", "3", "--n", "2", "--variant", "wreath"],
    ["autgroup", "--d", "3", "--n", "2", "--variant", "extended_clifford"],
    ["facets", "--d", "2"],
    ["autgroup", "--d", "3", "--n", "1", "--set", "rebit"],
    ["verify-design", "--d", "5", "--n", "1", "--set", "rebit"],
    ["gram", "--d", "3", "--n", "1", "--set", "rebit"],
    ["autgroup", "--d", "2", "--n", "2", "--set", "rebit", "--variant", "extended_clifford"],
    ["autgroup", "--d", "2", "--n", "2", "--set", "stab", "--variant", "real_clifford"],
], ids=_argv_id)
def test_unsupported_combination_is_a_usage_error(capsys, argv):
    assert main(argv) == 2  # an exception escaping main would fail this test
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unsupported: ") and captured.err.count("\n") == 1


def test_golden_names_tell_options_apart(capsys, tmp_path):
    # reports that differ only in --set (or --variant, --seed) get their own
    # golden files, so both runs record into one fresh directory
    golden = tmp_path / "golden"
    argv = ["autgroup", "--d", "2", "--n", "2", "--golden", str(golden)]
    assert main(argv) == 0
    assert main(argv + ["--set", "rebit"]) == 0
    assert sorted(p.name for p in golden.iterdir()) == [
        "autgroup_d2_n2.json", "autgroup_d2_n2_set-rebit.json"]


def test_golden_name_skips_defaults_and_run_options():
    def name(*argv):
        return golden_name(build_parser().parse_args(list(argv)))

    assert name("autgroup", "--d", "3", "--n", "2", "--set", "stab") == "autgroup_d3_n2.json"
    assert name("autgroup", "--d", "3", "--n", "2", "--variant", "agsp", "--budget-seconds", "5",
                "--timing", "--output", "r.json", "--golden", "g") == "autgroup_d3_n2_variant-agsp.json"
    assert name("verify-clifford", "--d", "5", "--seed", "7", "--samples", "25") == \
        "verify-clifford_d5_n1_samples-25_seed-7.json"
    assert name("facets", "--d", "3") == "facets_d3_n1.json"


def test_parser_is_built_once_and_every_golden_name_is_unchanged():
    # one parser per process; reusing it names each golden as before: the
    # name of every file in tests/goldens, read back as its command line
    assert build_parser() is build_parser()
    for path in sorted(GOLDENS.glob("*.json")):
        cmd, d, n, *options = path.stem.split("_")
        argv = [cmd, "--d", d[1:], *([] if cmd == "facets" else ["--n", n[1:]])]
        for option in options:
            key, value = option.split("-", 1)
            argv += [f"--{key}", value]
        for _ in range(2):
            assert golden_name(build_parser().parse_args(argv)) == path.name


def test_timed_runs_replay_one_golden(capsys, tmp_path, monkeypatch):
    # the two runs take 1 s and 20 s; stdout reports the time, the golden not
    clock = iter([0.0, 1.0, 10.0, 30.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    argv = ["enumerate", "--d", "2", "--n", "1", "--timing", "--golden", str(tmp_path)]
    runs = [run_cli(capsys, *argv) for _ in range(2)]
    assert [code for code, _ in runs] == [0, 0]
    assert [json.loads(out)["elapsed_seconds"] for _, out in runs] == [1.0, 20.0]
    assert "elapsed_seconds" not in json.loads((tmp_path / "enumerate_d2_n1.json").read_text())


def test_golden_mismatch_exits_cleanly(capsys, tmp_path):
    golden = tmp_path / "golden"
    argv = ["enumerate", "--d", "2", "--n", "1", "--golden", str(golden)]
    assert main(argv) == 0
    path = golden / "enumerate_d2_n1.json"
    path.write_text(path.read_text().replace('"lagrangian_count": 3', '"lagrangian_count": 4'))
    capsys.readouterr()
    assert main(argv) == 1  # a Mismatch escaping main would fail this test
    err = capsys.readouterr().err
    assert err.startswith("mismatch: golden file") and "differs" in err


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out = run_cli(capsys, "enumerate", "--d", "2", "--n", "1",
                        "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["lagrangian_count"] == 3


def test_console_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "stabsym.cli", "enumerate", "--d", "2", "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lagrangian_count"] == 3
