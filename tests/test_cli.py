import csv
import importlib
import io
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mdsrepair import cli, constructions, geometry, gf, repair
from mdsrepair.cli import run
from mdsrepair.code import MdsCheck, code_from_intrinsic, deserialize, serialize
from mdsrepair.constructions import build_two_parity_code
from mdsrepair.geometry import desarguesian_spread


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_prints_the_number(capsys):
    code, out, _ = _run(capsys, ["bound", "--n", "6", "--r", "2", "--ell", "2", "--q", "3"])
    assert code == 0
    assert out.strip() == "6"


def test_console_script_target_prints_the_bound(capsys, monkeypatch):
    # the [project.scripts] entry of pyproject.toml, read by regex since
    # tomllib needs Python 3.11, run as the installed script would run it
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    entry = re.search(r'^\[project\.scripts\]\nmdsrepair = "([\w.]+):(\w+)"$', text, re.M)
    target = getattr(importlib.import_module(entry[1]), entry[2])
    argv = ["mdsrepair", "bound", "--n", "6", "--r", "2", "--ell", "2", "--q", "3"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        target()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "6\n"


def test_bound_rejects_bad_parameters(capsys):
    code, _, err = _run(capsys, ["bound", "--n", "1", "--r", "2", "--ell", "2", "--q", "3"])
    assert code == 1
    assert "error" in err


def test_bound_rejects_a_q_that_is_not_a_prime_power(capsys):
    code, out, err = _run(capsys, ["bound", "--n", "6", "--r", "2", "--ell", "2", "--q", "6"])
    assert code == 1
    assert out == ""
    assert err == "mdsrepair: error: q = 6 is not a prime power\n"


def test_usage_error_is_exit_1(capsys):
    code, _, err = _run(capsys, ["bound", "--n", "6"])
    assert code == 1
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 1


def test_construct_writes_a_loadable_code(capsys, tmp_path):
    path = tmp_path / "code.json"
    code, _, _ = _run(
        capsys, ["construct", "desarguesian", "--q", "3", "--n", "8", "--out", str(path)]
    )
    assert code == 0
    stored = deserialize(path.read_text())
    assert (stored.n, stored.k, stored.ell) == (8, 6, 2)


def test_construct_stdout_round_trips(capsys):
    code, out, _ = _run(capsys, ["construct", "exceptional", "--case", "q3n6"])
    assert code == 0
    stored = deserialize(out)
    assert stored.n == 6 and stored.field.q == 3


def test_verify_mds_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    _run(capsys, ["construct", "desarguesian", "--q", "3", "--n", "8", "--out", str(good)])
    code, out, _ = _run(capsys, ["verify", "mds", "--code", str(good)])
    assert code == 0
    assert "ok" in out

    # corrupt one block together with its column points so the file still
    # parses but the code is no longer MDS
    payload = json.loads(good.read_text())
    payload["blocks"][1] = payload["blocks"][0]
    payload["column_points"][1] = payload["column_points"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, ["verify", "mds", "--code", str(bad)])
    assert code == 2
    assert "FAIL" in out and "(0, 1)" in out


def test_verify_mds_over_the_subset_cap_is_exit_1(capsys, monkeypatch, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(serialize(build_two_parity_code(3, 2, 8)[0]))
    monkeypatch.setattr(cli, "is_mds", lambda code: MdsCheck("cap_exceeded", 0))
    code, out, err = _run(capsys, ["verify", "mds", "--code", str(path)])
    assert code == 1
    assert out == ""
    assert err == (
        "mdsrepair: error: 8 choose 2 = 28 block subsets exceed the MDS check's cap of "
        f"{cli.MDS_CAP}\n"
    )


def test_verify_unreadable_file_is_exit_1(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = _run(capsys, ["verify", "mds", "--code", str(missing)])
    assert code == 1
    assert "error" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{]")
    code, _, err = _run(capsys, ["verify", "mds", "--code", str(garbled)])
    assert code == 1


def test_repair_analyze_table(capsys, tmp_path):
    path = tmp_path / "code.json"
    _run(capsys, ["construct", "exceptional", "--case", "q3n6", "--out", str(path)])
    code, out, _ = _run(
        capsys, ["repair", "analyze", "--code", str(path), "--budget", "1000"]
    )
    assert code == 0
    assert "bound 6" in out
    assert out.count("attains") >= 1 or "6" in out


def test_repair_analyze_csv(capsys, tmp_path):
    path = tmp_path / "code.json"
    _run(capsys, ["construct", "desarguesian", "--q", "3", "--n", "8", "--out", str(path)])
    code, out, _ = _run(
        capsys,
        ["repair", "analyze", "--code", str(path), "--budget", "1000", "--format", "csv"],
    )
    assert code == 0
    assert "\r" not in out
    assert out.startswith("node,alpha,lambda,beta,gamma,bw_at_bound,io_at_bound\n")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert all(row["beta"] == "10" for row in rows)
    assert all(row["gamma"] == "10" for row in rows)


def test_repair_analyze_structured(capsys, tmp_path):
    path = tmp_path / "code.json"
    _run(capsys, ["construct", "desarguesian", "--q", "4", "--n", "10", "--out", str(path)])
    code, out, _ = _run(
        capsys,
        [
            "repair",
            "analyze",
            "--code",
            str(path),
            "--budget",
            "1000",
            "--format",
            "structured",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 13
    assert doc["exhaustive"] is True
    assert doc["beta_max"] == 13 and doc["gamma_max"] == 13
    assert len(doc["nodes"]) == 10
    assert all(nd["beta"] == 13 for nd in doc["nodes"])


def test_geometry_commands(capsys):
    code, out, _ = _run(capsys, ["geometry", "spread-check", "--q", "3"])
    assert code == 0 and "10 members" in out and "ok" in out
    code, out, _ = _run(capsys, ["geometry", "regulus", "--q", "3", "--members", "0", "1", "2"])
    assert code == 0 and "4 lines" in out and "4 lines inside the spread" in out
    code, out, _ = _run(capsys, ["geometry", "regular", "--q", "2"])
    assert code == 0 and "exhaustive" in out and "ok" in out
    code, _, err = _run(capsys, ["geometry", "regulus", "--q", "3", "--members", "0", "0", "1"])
    assert code == 1


def test_huge_prime_q_is_exit_1_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "geometry", "spread-check",
         "--q", "1000000000000000003"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "mdsrepair: error: field size 1000000000000000003 exceeds cap 65536\n"


def test_check_lemma_c1(capsys, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("inf 0 1 2\ninf 1 4 7\n0 2 4 7\n")
    code, out, _ = _run(capsys, ["check", "lemma-c1", "--family", str(fam)])
    assert code == 0
    assert "t = 4" in out and "ok" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n1 2 4\n1 2 5\n")
    code, out, _ = _run(capsys, ["check", "lemma-c1", "--family", str(bad)])
    assert code == 2
    assert "violated" in out


def test_check_strictness_small(capsys):
    code, out, _ = _run(
        capsys, ["check", "strictness", "--q", "2", "--r", "3", "--trials", "3"]
    )
    assert code == 0
    assert out.startswith("3 codes over GF(2) with r = 3: min slack ")
    assert out.endswith(
        ", 0 equality cases, 0 violations, 0 sampling failures; bound <= -5 at every MDS "
        "length, vacuous ok\n"
    )


def test_check_converse_q3(capsys):
    code, out, _ = _run(capsys, ["check", "converse", "--q", "3"])
    assert code == 0
    assert "180 with an attaining node" in out
    assert "0 fully attaining" in out
    assert "attainment needs n >= 6" in out


def test_simulate_repair(capsys, tmp_path):
    path = tmp_path / "code.json"
    _run(capsys, ["construct", "desarguesian", "--q", "3", "--n", "8", "--out", str(path)])
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "repair",
            "--code",
            str(path),
            "--node",
            "3",
            "--trials",
            "4",
            "--budget",
            "1000",
        ],
    )
    assert code == 0
    assert "4/4 trials recovered node 3 exactly ok" in out
    code, _, err = _run(
        capsys,
        ["simulate", "repair", "--code", str(path), "--node", "99", "--budget", "1000"],
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["repair", "analyze", "--budget", "0"],
        ["simulate", "repair", "--node", "0", "--trials", "0"],
        ["check", "strictness", "--trials", "-3"],
        ["check", "converse", "--q", "4", "--samples", "0"],
    ],
    ids=["budget", "trials-simulate", "trials-strictness", "samples"],
)
def test_counts_below_one_are_exit_1(capsys, argv):
    # a count of zero would check nothing and still print "ok"
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    flag, value = argv[-2:]
    assert err.endswith(f"error: argument {flag}: must be at least 1, got {value}\n")


def test_budget_too_small_is_exit_1_without_traceback(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(serialize(build_two_parity_code(3, 2, 8)[0]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "simulate", "repair",
         "--code", str(path), "--node", "0", "--budget", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "mdsrepair: error: 130 candidates exceed the budget of 5" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_budget_without_a_repair_subspace_is_exit_1_without_traceback(tmp_path):
    # the first ten candidates miss no H_i for some node of this code
    path = tmp_path / "code.json"
    path.write_text(serialize(code_from_intrinsic(desarguesian_spread(3, 2).members[:6])))
    proc = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "repair", "analyze",
         "--code", str(path), "--budget", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("mdsrepair: error: no repair subspace for node ")
    assert proc.stderr.endswith(" among the first 10 of 130 candidates\n")
    assert "Traceback" not in proc.stderr


def test_regularity_pass_over_the_line_budget_is_exit_1(capsys, monkeypatch):
    # PG(3, 3) has 130 lines
    monkeypatch.setattr(geometry, "LINE_BUDGET", 129)
    code, out, err = _run(capsys, ["geometry", "regular", "--q", "3"])
    assert code == 1
    assert out == ""
    assert err == "mdsrepair: error: 130 lines exceed the budget of 129\n"


def test_spread_check_over_the_pair_budget_is_exit_1(capsys, monkeypatch):
    # the field spread of PG(3, 4) has 17 members, so 136 pairs to test at
    # ell^2 = 4 each: 544 units of work

    def refuse(*args):
        raise AssertionError("the spread was built before the budget check")

    monkeypatch.setattr(cli, "PAIR_WORK_BUDGET", 544)
    code, out, _ = _run(capsys, ["geometry", "spread-check", "--q", "4"])
    assert code == 0 and out == "field spread of PG(3, 4): 17 members, ok\n"
    monkeypatch.setattr(cli, "PAIR_WORK_BUDGET", 543)
    monkeypatch.setattr(cli, "desarguesian_spread", refuse)
    code, out, err = _run(capsys, ["geometry", "spread-check", "--q", "4"])
    assert code == 1
    assert out == ""
    assert err == "mdsrepair: error: 136 member pairs x ell^2 exceed the budget of 543\n"


def test_spread_check_budget_counts_pairs_times_ell_squared(capsys):
    # PG(5, 8) has as many member pairs as PG(17, 2), 131,328, but ell = 3
    # against 9: its 1.18 M pairs x ell^2 pass, where PG(17, 2)'s 10.6 M do not
    code, out, _ = _run(capsys, ["geometry", "spread-check", "--q", "8", "--ell", "3"])
    assert code == 0 and out == "field spread of PG(5, 8): 513 members, ok\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spread-check", "--q", "256", "--ell", "2"],
         "2147516416 member pairs x ell^2 exceed the budget of 4000000"),
        (["spread-check", "--q", "16", "--ell", "4"],
         "2147516416 member pairs x ell^2 exceed the budget of 4000000"),
        (["spread-check", "--q", "3", "--ell", "0"], "ell = 0 must be positive"),
        (["spread-check", "--q", "2", "--ell", "17"], "field size 2^17 exceeds cap 65536"),
        (["spread-check", "--q", "3", "--ell", str(10**9)],
         "field size 3^1000000000 exceeds cap 65536"),
        (["regular", "--q", "256"], "4311875841 lines exceed the budget of 50000"),
        (["regular", "--q", "128"], "270565505 lines exceed the budget of 50000"),
        (["regular", "--q", "257"], "field size 257^2 exceeds cap 65536"),
        (["regular", "--q", "6"], "q = 6 is not a prime power"),
        (["regular", "--q", "16"], "70161 lines exceed the budget of 50000"),
        (["spread-check", "--q", "4", "--ell", "5"],
         "524800 member pairs x ell^2 exceed the budget of 4000000"),
        (["spread-check", "--q", "2", "--ell", "9"],
         "131328 member pairs x ell^2 exceed the budget of 4000000"),
    ],
)
def test_oversized_geometry_requests_are_refused_before_any_build(
    capsys, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("a field or spread was built before the refusal")

    for module in (gf, geometry, cli):
        monkeypatch.setattr(module, "make_extension", refuse, raising=False)
        monkeypatch.setattr(module, "desarguesian_spread", refuse, raising=False)
    code, out, err = _run(capsys, ["geometry", *argv])
    assert code == 1
    assert out == ""
    assert err == f"mdsrepair: error: {message}\n"


@pytest.mark.parametrize(
    "argv", [["regular", "--q", "32"], ["spread-check", "--q", "4", "--ell", "5"]]
)
def test_geometry_checks_over_their_budgets_exit_1_at_once(argv):
    # admitted, the first walks 1,083,425 lines for minutes, the second ranks
    # 524,800 member pairs in about 14 s
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "geometry", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert " exceed the budget of " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--q", "3", "--ell", "100000", "--n", "8"], "field size 3^100000 exceeds cap 65536"),
        (["--q", "3", "--ell", str(10**9), "--n", "8"],
         "field size 3^1000000000 exceeds cap 65536"),
        (["--q", "5", "--ell", "30", "--n", "8"], "field size 5^30 exceeds cap 65536"),
    ],
)
def test_oversized_construct_requests_are_refused_before_any_build(
    capsys, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("a field or spread was built before the refusal")

    for module in (gf, geometry, constructions, cli):
        monkeypatch.setattr(module, "make_extension", refuse, raising=False)
        monkeypatch.setattr(module, "desarguesian_spread", refuse, raising=False)
    code, out, err = _run(capsys, ["construct", "desarguesian", *argv])
    assert code == 1
    assert out == ""
    assert err == f"mdsrepair: error: {message}\n"


def _cli_under_400_mb(argv):
    """The CLI in a child whose address space is capped, so a huge allocation fails fast."""
    cap = 400 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "2", "--r", "1000000", "--ell", "1000000", "--q", "2"],
        ["--n", "2", "--r", "3000", "--ell", "3000", "--q", "2"],
        ["--n", "9" * 3000, "--r", "1", "--ell", "9" * 3000, "--q", "2"],
    ],
    ids=["memory", "digits", "product"],
)
def test_bound_too_long_to_print_is_exit_1(argv):
    # refused before q^((r-1)*ell) is computed, with no interpreter hint
    proc = _cli_under_400_mb(["bound", *argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    limit = sys.get_int_max_str_digits()
    assert proc.stderr == (
        f"mdsrepair: error: the bound would pass the {limit} digit limit on printed integers\n"
    )


def test_bound_just_under_the_digit_limit_prints(capsys):
    # 2^14284 has 4300 digits, the default limit
    code, out, _ = _run(capsys, ["bound", "--n", "2", "--r", "14285", "--ell", "1", "--q", "2"])
    assert code == 0
    assert out == f"{1 - (2**14284 - 1)}\n"


@pytest.mark.parametrize("ell", ["30", "1000"])
def test_strictness_pool_over_the_cache_limit_is_exit_1(ell):
    proc = _cli_under_400_mb(["check", "strictness", "--ell", ell, "--trials", "1"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"mdsrepair: error: the {ell}-subspaces of GF(2)^{3 * int(ell)} exceed the cache "
        "limit of 500000\n"
    )


def test_check_strictness_reports_a_failed_report_as_a_violation(capsys, monkeypatch):
    # the bound raised by 11, one past the smallest slack of these five codes,
    # is undercut: that report raises, and the sweep keeps it as a violation
    bound = repair.counting_bound
    monkeypatch.setattr(repair, "counting_bound", lambda *args: bound(*args) + 11)
    code, out, err = _run(capsys, ["check", "strictness", "--q", "2", "--r", "3", "--trials", "5"])
    assert code == 2
    assert err == ""
    assert out.startswith("5 codes over GF(2) with r = 3: min slack ")
    assert out.endswith(" 0 sampling failures; bound <= -5 at every MDS length, vacuous FAIL\n")
    assert " 0 violations" not in out


def test_check_strictness_fails_on_an_equality_case(capsys, monkeypatch):
    # the bound raised by 10, the smallest slack of these five codes, plants an
    # equality case; no report refuses it, and the check fails on it
    bound = repair.counting_bound
    monkeypatch.setattr(repair, "counting_bound", lambda *args: bound(*args) + 10)
    code, out, err = _run(capsys, ["check", "strictness", "--q", "2", "--r", "3", "--trials", "5"])
    assert code == 2
    assert err == ""
    found = re.fullmatch(
        r"5 codes over GF\(2\) with r = 3: min slack 0, (\d+) equality cases, 0 violations, "
        r"0 sampling failures; bound <= -5 at every MDS length, vacuous FAIL\n",
        out,
    )
    assert found and int(found[1]) > 0


def test_check_strictness_counts_sampling_failures(capsys, monkeypatch):
    # no (6, 2, 2) MDS code exists over GF(2) at r = 4, so the second trial
    # exhausts its retries (three here, not 10,000) and the line says so
    monkeypatch.setattr(repair, "_RETRY_CAP", 3)
    argv = ["check", "strictness", "--q", "2", "--r", "4", "--trials", "2", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert err == ""
    assert out.startswith("1 codes over GF(2) with r = 4: min slack ")
    assert out.endswith(
        ", 0 equality cases, 0 violations, 1 sampling failures; bound <= -51 at every MDS "
        "length, vacuous ok\n"
    )


@pytest.mark.parametrize("argv", [["--r", "2"], ["--ell", "1"]], ids=["r2", "ell1"])
def test_strictness_below_three_parities_or_ell_two_is_exit_1(capsys, argv):
    code, out, err = _run(capsys, ["check", "strictness", *argv, "--trials", "1"])
    assert code == 1
    assert out == ""
    assert err == "mdsrepair: error: strictness requires r >= 3 and ell >= 2\n"


def test_internal_check_failure_is_exit_2_without_traceback(capsys, monkeypatch):
    def broken(cfg):
        raise AssertionError("every probe meets node 0")

    monkeypatch.setitem(cli._HANDLERS, "bound", broken)
    code, out, err = _run(capsys, ["bound", "--n", "6", "--r", "2", "--ell", "2", "--q", "3"])
    assert code == 2
    assert out == ""
    assert err == "mdsrepair: verification failed: every probe meets node 0\n"


def test_stdin_pipe_between_subcommands():
    construct = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "construct", "exceptional", "--case", "q4n9"],
        capture_output=True,
        text=True,
    )
    assert construct.returncode == 0
    analyze = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "repair", "analyze", "--budget", "1000"],
        input=construct.stdout,
        capture_output=True,
        text=True,
    )
    assert analyze.returncode == 0
    assert "bound 11" in analyze.stdout


def test_structured_output_round_trips_to_file(capsys, tmp_path):
    code, wits = build_two_parity_code(3, 2, 9)
    path = tmp_path / "nine.json"
    path.write_text(serialize(code))
    rc, out, _ = _run(
        capsys,
        ["repair", "analyze", "--code", str(path), "--budget", "1000", "--format", "structured"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 9
    assert [nd["beta"] for nd in doc["nodes"]] == [12] * 9


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
_SMALL_CODE = serialize(code_from_intrinsic(desarguesian_spread(2, 2).members[:3]))


@st.composite
def _code_files(draw):
    """Raw bytes, arbitrary JSON, or a valid code file with one value replaced."""
    kind = draw(st.sampled_from(("bytes", "json", "mutant")))
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    payload = json.loads(_SMALL_CODE)
    holder = key = None
    node = payload
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 4)):
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node)))
        else:
            key = draw(st.integers(0, len(node) - 1))
        holder, node = node, node[key]
    value = draw(_JSON)
    if holder is None:
        payload = value
    else:
        holder[key] = value
    return json.dumps(payload).encode()


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=_code_files())
@example(data=_SMALL_CODE.encode())
@example(data=b"[" * 100_000)
@example(data=b"\xff\xfe")
def test_fuzzed_code_files_exit_cleanly(tmp_path, capsys, data):
    path = tmp_path / "code.json"
    path.write_bytes(data)
    try:
        deserialize(data.decode())
    except ValueError:
        pass  # bytes that are not UTF-8, or the one class cli._load_code turns into exit 1
    code, _, err = _run(capsys, ["verify", "mds", "--code", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def _argv(*words):
    return [str(w) for w in words]


_CODE_FILE = "<q3n8 code file>"  # replaced by a file written in the test's tmp_path


_FUZZ_ARGV = st.one_of(
    st.builds(
        lambda q, members: _argv("geometry", "regulus", "--q", q, "--members", *members),
        st.integers(2, 4),
        st.lists(st.integers(-2, 20), min_size=3, max_size=3),
    ),
    # ell stays at most 2, where every admitted construct takes milliseconds
    st.builds(
        lambda q, ell, n: _argv("construct", "desarguesian", "--q", q, "--ell", ell, "--n", n),
        st.integers(2, 5),
        st.integers(-1, 2),
        st.integers(-1, 30),
    ),
    st.builds(lambda case: _argv("construct", "exceptional", "--case", case), st.text(max_size=6)),
    st.builds(
        lambda q, samples, seed: _argv(
            "check", "converse", "--q", q, "--samples", samples, "--seed", seed
        ),
        st.sampled_from((3, 4)),
        st.sampled_from((-1, 0, 1, 3)),
        st.integers(),
    ),
    st.builds(
        lambda n, r, ell, q: _argv("bound", "--n", n, "--r", r, "--ell", ell, "--q", q),
        *[st.integers(-2, 12)] * 4,
    ),
    st.builds(
        lambda q, ell: _argv("geometry", "spread-check", "--q", q, "--ell", ell),
        st.integers(2, 5),
        st.integers(-1, 3),
    ),
    st.just(_argv("geometry", "spread-check", "--q", 4, "--ell", 5)),  # refused
    # 16, 32 and 64 are refused by the line budget
    st.builds(
        lambda q: _argv("geometry", "regular", "--q", q),
        st.integers(-1, 9) | st.sampled_from((16, 32, 64)),
    ),
    st.builds(
        lambda node, trials, budget: _argv(
            "simulate", "repair", "--code", _CODE_FILE, "--node", node,
            "--trials", trials, "--budget", budget,
        ),
        st.integers(-2, 10),
        st.integers(1, 3),
        st.integers(1, 400),
    ),
    st.just(_argv("verify", "mds", "--code", _CODE_FILE)),
    # r stops at 3: at (q, ell, r) = (2, 2, 4) random_mds_code exhausts its
    # retries on the length with no code, which takes about 16-19 s
    st.builds(
        lambda q, ell, r, trials: _argv(
            "check", "strictness", "--q", q, "--ell", ell, "--r", r, "--trials", trials
        ),
        st.sampled_from((2, 3)),
        st.sampled_from((1, 2)),
        st.sampled_from((2, 3)),
        st.integers(1, 2),
    ),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_FUZZ_ARGV)
def test_fuzzed_argv_exit_cleanly(capsys, tmp_path, argv):
    code_file = tmp_path / "q3n8.json"
    if not code_file.exists():
        code_file.write_text(serialize(build_two_parity_code(3, 2, 8)[0]))
    argv = [str(code_file) if word == _CODE_FILE else word for word in argv]
    code, _, err = _run(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
