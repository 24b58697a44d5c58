"""Command line behaviors and exit codes."""

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trace_turan

from trace_turan import (
    Hypergraph3,
    contains_trace,
    dumps_hypergraph,
    lemma_checks,
    read_hypergraph,
    write_hypergraph,
)
from trace_turan import cli
from trace_turan.bounds import POINTS_CAP
from trace_turan.cli import main

from helpers import relabelled_lift


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_oracle_csv(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--t", "2", "--oracle")
    assert code == 0
    assert out.splitlines()[0] == "n,t,value,witness_count,nodes,seconds"
    assert out.splitlines()[1].startswith("5,2,6,")


def test_search_oracle_text_output_is_pinned(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--t", "2", "--oracle", "--format", "text")
    assert code == 0
    assert out == "maximum edges for n=5, t=2: 6\n5 6\n0 1 2\n0 1 3\n0 1 4\n0 2 3\n1 2 3\n2 3 4\n"


def test_search_oracle_answers_a_t_with_no_room_at_once(capsys):
    # no trace fits on 5 vertices, so the complete hypergraph is the answer
    code, out, _ = run(capsys, "search", "--n", "5", "--t", str(10**20), "--oracle")
    assert code == 0
    assert out.splitlines()[1].startswith(f"5,{10**20},10,1,")


def test_search_regression_value(capsys):
    code, out, _ = run(capsys, "search", "--n", "4", "--t", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("4,2,4,")


def test_search_refusal_exit_code(capsys):
    code, _, err = run(capsys, "search", "--n", "40", "--t", "2")
    assert code == 2
    assert "cap" in err


def test_search_json_lines(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--t", "2", "--format", "json-lines")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 6
    stats = payload["stats"]
    assert stats["tried"] == stats["trace_rejects"] + stats["noncanon_rejects"] + stats["recursed"] > 0
    assert payload["nodes"] == stats["recursed"] + 1


def test_check_trace_free_and_certificate(tmp_path, capsys):
    free = tmp_path / "free.hg"
    write_hypergraph(Hypergraph3(4, [(0, 1, 2)]), str(free))
    code, out, _ = run(capsys, "check", "--file", str(free), "--t", "2")
    assert code == 0 and out == "trace-free\n"

    full = tmp_path / "trace.hg"
    write_hypergraph(
        Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6), (1, 3, 7)]), str(full)
    )
    code, out, _ = run(capsys, "check", "--file", str(full), "--t", "2")
    assert code == 0 and "|" in out and "->" in out


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_check_refuses_a_budget_that_is_not_finite_and_nonnegative(tmp_path, capsys, budget):
    path = tmp_path / "trace.hg"
    write_hypergraph(
        Hypergraph3(8, [(0, 2, 4), (0, 3, 5), (1, 2, 6), (1, 3, 7)]), str(path)
    )
    code, out, err = run(
        capsys, "check", "--file", str(path), "--t", "2", f"--time-budget={budget}"
    )
    assert (code, out) == (2, "")
    assert err.startswith("refused: time budget") and err.count("\n") == 1


def test_check_zero_budget_exits_2_in_the_pair_scan(tmp_path, capsys):
    # no pair of this lift has three leaf candidates: only the scan can time out
    path = tmp_path / "lift7.hg"
    write_hypergraph(relabelled_lift(7), str(path))
    code, out, err = run(capsys, "check", "--file", str(path), "--t", "3", "--time-budget", "0")
    assert (code, out, err) == (2, "", "unknown: time budget exhausted\n")


def test_check_walks_only_the_support_of_a_huge_vertex_range(tmp_path, capsys):
    # one edge among 10**8 labels: the scan takes its rows from the support,
    # and its first row checks a zero budget
    path = tmp_path / "huge.hg"
    path.write_text("100000000 1\n0 1 2\n", encoding="ascii")
    assert run(capsys, "check", "--file", str(path), "--t", "2") == (0, "trace-free\n", "")
    code, out, err = run(capsys, "check", "--file", str(path), "--t", "2", "--time-budget", "0")
    assert (code, out, err) == (2, "", "unknown: time budget exhausted\n")


def test_check_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("4 1\n0 1\n")
    code, _, err = run(capsys, "check", "--file", str(bad), "--t", "2")
    assert code == 3 and "parse error" in err


@pytest.mark.parametrize("data", [b"-1 0\n", b"4 1\n0 1 \xe9\n"], ids=["negative-n", "non-ascii"])
def test_malformed_file_exits_3(tmp_path, capsys, data):
    bad = tmp_path / "bad.hg"
    bad.write_bytes(data)
    code, out, err = run(capsys, "check", "--file", str(bad), "--t", "2")
    assert (code, out) == (3, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_construct_polarity_lift_round_trip(tmp_path, capsys):
    out_path = tmp_path / "lift.hg"
    code, _, _ = run(
        capsys, "construct", "polarity", "--q", "3", "--lift", "--output", str(out_path)
    )
    assert code == 0
    h = read_hypergraph(str(out_path))
    assert h.n == 14 and h.edge_count == 24
    # canonical files survive a write(read()) byte for byte
    assert dumps_hypergraph(h) == out_path.read_text()


def test_construct_polarity_requires_q(capsys):
    code, _, err = run(capsys, "construct", "polarity")
    assert code == 2 and "--q" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "polarity", "--q", "2", "--n", "5", "--t", "2", "--seed", "1", "--restarts", "3"),
        ("construct", "greedy", "--n", "5", "--t", "2", "--q", "7", "--lift"),
    ],
    ids=["polarity", "greedy"],
)
def test_construct_refuses_the_other_kinds_flags(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_construct_polarity_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for q in (2, 3, 5, 7, 11, 13):
        for lift in ((), ("--lift",)):
            code, out, _ = run(capsys, "construct", "polarity", "--q", str(q), *lift)
            assert code == 0
            digest.update(out.encode("ascii"))
    assert digest.hexdigest() == "6bfde7c0a1499417d886409e96db9fcb39f7be087d67984dc670a32d0cb2903f"


def test_construct_polarity_non_prime_refused(capsys):
    code, _, err = run(capsys, "construct", "polarity", "--q", "6")
    assert code == 2 and "prime" in err


def test_construct_greedy(tmp_path, capsys):
    out_path = tmp_path / "greedy.hg"
    code, _, _ = run(
        capsys, "construct", "greedy", "--n", "5", "--t", "3",
        "--restarts", "4", "--output", str(out_path),
    )
    assert code == 0
    assert read_hypergraph(str(out_path)).edge_count == 10


def test_verify_clean_file(tmp_path, capsys):
    path = tmp_path / "lift.hg"
    run(capsys, "construct", "polarity", "--q", "2", "--lift", "--output", str(path))
    code, out, _ = run(capsys, "verify", "--file", str(path), "--t", "2", "--delta", "14")
    assert code == 0
    entries = [json.loads(line) for line in out.strip().splitlines()]
    assert entries and all(e["status"] in ("pass", "vacuous") for e in entries)


def test_verify_violating_file_reports_and_exits_zero(tmp_path, capsys):
    h = Hypergraph3(
        7,
        [
            (0, 1, 2), (0, 1, 3), (0, 1, 4),
            (0, 2, 5), (1, 2, 6), (0, 3, 5),
            (1, 3, 6), (0, 4, 5), (1, 4, 6),
        ],
    )
    path = tmp_path / "viol.hg"
    write_hypergraph(h, str(path))
    code, out, _ = run(capsys, "verify", "--file", str(path), "--t", "2")
    assert code == 0  # violations on trace-containing inputs are informative
    entries = [json.loads(line) for line in out.strip().splitlines()]
    violated = [e for e in entries if e["status"] == "violated"]
    assert violated and all(
        v["certificate"] for e in violated for v in e["violations"]
    )


def test_verify_exits_4_when_a_check_fires_on_a_trace_free_input(tmp_path, capsys, monkeypatch):
    # K^(3)_4 is trace-free and every pair has co-degree 2, so all its edges
    # are residual (a polarity lift has none) and the first finder runs
    h = Hypergraph3(4, itertools.combinations(range(4), 3))
    assert contains_trace(h, 2) is None
    name, premise, extra, _ = lemma_checks._CHECKS[0]

    def fires(h, g, t, delta):
        return "bound 0", [((0, 1), 2, 0, None)]

    monkeypatch.setattr(
        lemma_checks, "_CHECKS", ((name, premise, extra, fires), *lemma_checks._CHECKS[1:])
    )
    path = tmp_path / "k4.hg"
    write_hypergraph(h, str(path))
    code, out, err = run(capsys, "verify", "--file", str(path), "--t", "2")
    assert code == 4
    first = json.loads(out.splitlines()[0])
    assert (first["check"], first["status"]) == (name, "violated")
    assert first["violations"][0]["note"] == "certificate search exhausted"
    assert first["violations"][0]["certificate"] is None
    assert err == "internal contract violation: check fired on a trace-free input\n"


def test_bounds_grid(capsys):
    code, out, _ = run(capsys, "bounds", "--t-range", "14:1000", "--points", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lhs_hi,rhs_lo,certified"
    assert len(lines) >= 9
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize(
    "t_range, points, digest",
    [
        ("14:1000000", "1000", "584e2ae8a9d2479863f63789f251765027444350c4295bced9d83f1c2c0d0dc1"),
        ("18:1e12", "300", "29f488ac612dab6416d99930562bddef4d2ef7f5c7e7095ab8f1b2fbb3143806"),
    ],
)
def test_bounds_output_is_pinned(capsys, t_range, points, digest):
    code, out, _ = run(capsys, "bounds", "--t-range", t_range, "--points", points)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "search", "--n", "4")  # missing --t
    assert (code, out) == (2, "")
    assert "the following arguments are required: --t" in err


@pytest.mark.parametrize(
    "flag",
    [["--seed", "1"], ["--witness-cap", "5"], ["--cap", "13"]],
    ids=["seed", "witness-cap", "cap"],
)
def test_search_takes_no_such_flag(capsys, flag):
    code, out, err = run(capsys, "search", "--n", "4", "--t", "2", *flag)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_verify_takes_no_seed_flag(capsys):
    code, out, err = run(capsys, "verify", "--file", "unread.hg", "--t", "2", "--seed", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_bounds_refuses_t_outside_the_domain_of_g(capsys):
    code, out, err = run(capsys, "bounds", "--t-range", "1:2", "--points", "2")
    assert code == 2 and out == ""
    assert err == "refused: g(t) = sqrt(t ln t)/7 is defined only for t > 1, got t=1\n"


@pytest.mark.parametrize("t_range", ["5", "5:", "1:2:3"])
def test_bounds_names_the_range_form(capsys, t_range):
    # no colon once read as "refused: could not convert string to float: ''"
    code, out, err = run(capsys, "bounds", "--t-range", t_range)
    assert code == 2 and out == ""
    assert err == f"refused: --t-range takes lo:hi, two numbers, got '{t_range}'\n"


def test_bounds_runs_at_its_points_cap_and_refuses_above_it(capsys):
    code, out, err = run(capsys, "bounds", "--points", str(POINTS_CAP))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) > POINTS_CAP
    for points in (POINTS_CAP + 1, 10**20):
        code, out, err = run(capsys, "bounds", "--points", str(points))
        assert (code, out) == (2, "")
        assert err == f"refused: log grid capped at points <= {POINTS_CAP}, got points={points}\n"


def test_bounds_refuses_a_range_without_an_integer(capsys):
    code, out, err = run(capsys, "bounds", "--t-range", "20.5:20.7", "--points", "2")
    assert code == 2 and out == ""
    assert err == "refused: no integer t in 20.5:20.7\n"


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (("search", "--n", "5", "--t", "1"), 2, "refused: "),
        (("construct", "greedy", "--n", "6", "--t", "1"), 2, "refused: "),
        (("bounds", "--t-range", "foo"), 2, "refused: "),
        (("bounds", "--t-range", "2:100", "--points", "5"), 2, "refused: "),
        (("check", "--file", "{missing}", "--t", "2"), 3, "file error: "),
        (("verify", "--file", "{missing}", "--t", "2"), 3, "file error: "),
        (("bounds", "--points", "1"), 2, "refused: "),
        (("bounds", "--points", "-3"), 2, "refused: "),
        (("bounds", "--t-range", "0:100"), 2, "refused: "),
        (("bounds", "--t-range", "14:inf"), 2, "refused: "),
        (("bounds", "--t-range=-5:100"), 2, "refused: "),
        (("bounds", "--t-range", "100:14"), 2, "refused: "),
        (("construct", "greedy", "--n", "2", "--t", "1"), 2, "refused: "),
        (("construct", "greedy", "--n", "0", "--t", "0"), 2, "refused: "),
        (("construct", "greedy", "--n", "31", "--t", "2"), 2, "refused: greedy capped at n <= 30,"),
        (("construct", "greedy", "--n", "99999999999999999999", "--t", "2"), 2,
         "refused: greedy capped at n <= 30,"),
        (("construct", "greedy", "--n", "6", "--t", "2", "--restarts", "1001"), 2,
         "refused: greedy capped at restarts <= 1000,"),
        (("construct", "polarity", "--q", "44"), 2, "refused: polarity graph capped at q <= 43,"),
        (("construct", "polarity", "--q", "100000000000000000039"), 2,
         "refused: polarity graph capped at q <= 43,"),
        (("construct", "greedy", "--n", "30", "--t", "12"), 2, "refused: greedy capped at t <= 8,"),
        (("construct", "greedy", "--n", "6", "--t", "2", "--restarts", "0"), 2,
         "refused: restarts must be positive"),
        (("search", "--n", "-1", "--t", "2"), 2, "refused: n must be nonnegative"),
        (("search", "--n", "-1", "--t", "2", "--oracle"), 2, "refused: n must be nonnegative"),
        (("verify", "--file", "{present}", "--t", "2", "--delta", "1"), 2,
         "refused: delta must be >= 2"),
        (("verify", "--file", "{present}", "--t", "2", "--delta", "-1"), 2,
         "refused: delta must be >= 2"),
        (("verify", "--file", "{present}", "--t", "1"), 2, "refused: pattern requires t >= 2"),
        (("check", "--file", "{present}", "--t", "0"), 2, "refused: pattern requires t >= 2"),
        (("check", "--file", "{present}", "--t", "1"), 2, "refused: pattern requires t >= 2"),
        (("construct", "polarity", "--q", "1"), 2, "refused: q must be prime"),
        (("construct", "polarity", "--q", "-7"), 2, "refused: q must be prime"),
        (("construct", "polarity", "--q", "4", "--lift"), 2, "refused: q must be prime"),
        (("construct", "greedy", "--n", "6", "--t", "2", "--restarts", "-1"), 2,
         "refused: restarts must be positive"),
        (("construct", "greedy", "--n", "-1", "--t", "2"), 2,
         "refused: vertex count must be nonnegative"),
        (("search", "--n", "13", "--t", "2"), 2, "refused: search capped at n <= 12,"),
        (("search", "--n", "7", "--t", "2", "--oracle"), 2, "refused: oracle handles n <= 6,"),
    ],
)
def test_bad_input_exits_with_one_line(tmp_path, capsys, argv, code, prefix):
    missing = str(tmp_path / "missing.hg")
    present = str(tmp_path / "present.hg")
    write_hypergraph(Hypergraph3(5, [(0, 1, 2)]), present)
    start = time.perf_counter()
    got, out, err = run(capsys, *(a.format(missing=missing, present=present) for a in argv))
    assert time.perf_counter() - start < 2
    assert got == code
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


# four edges through the fifth vertex 4 form a K_{2,2} trace on {0, 1 | 2, 3}
FIVE_VERTEX_TRACE = Hypergraph3(5, [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)])


def test_main_builds_one_parser_that_parses_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "trace.hg"
    write_hypergraph(FIVE_VERTEX_TRACE, str(path))
    runs = [
        ("check", "--file", str(path)),
        ("check", "--file", str(path), "--t", "2"),
        ("check", "--file", str(path), "--t", "x"),
    ]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [2, 0, 2]

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    shared = [run(capsys, *runs[0])]
    tree = len(built)
    shared += [run(capsys, *argv) for argv in runs[1:]]
    # one parser tree, the top parser and its 7 subcommand parsers, serves all three
    assert tree == 8 and len(built) == tree
    assert shared == fresh


def test_python_dash_m_runs_the_command_line(tmp_path):
    path = tmp_path / "trace.hg"
    write_hypergraph(FIVE_VERTEX_TRACE, str(path))
    src = Path(trace_turan.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "trace_turan", "check", "--file", str(path), "--t", "2"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == contains_trace(FIVE_VERTEX_TRACE, 2).to_text()
    assert proc.stdout.startswith("0 1 | 2 3 |\n")
