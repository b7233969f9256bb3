"""Command line interface: text goldens, JSON schemas, exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from hyperq import cli, stern
from hyperq import fence as fe
from hyperq import hyperbinary as hb
from hyperq.cli import VERIFY_NAMES, build_parser, main
from hyperq.verify import REGISTRY


def run(argv):
    """Invoke main() in process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


TEXT_GOLDENS = [
    (["fusc", "19"], "7"),
    (["fusc", "0"], "0"),
    (["fuscq", "11"], "q^2 + 2q^3 + q^4 + q^5"),
    (["cw", "6"], "2/3"),
    (["cw", "0"], "0/1"),
    (["cwq", "4"], "(q) / (1 + q + q^2)"),
    (["cwindex", "7/3"], "19"),
    (["cwindex", "1/1"], "1"),
    (["qrat", "5/2"], "(1 + 2q + q^2 + q^3) / (1 + q)"),
    (["qrat", "5/2", "--via", "graph"], "(1 + 2q + q^2 + q^3) / (1 + q)"),
    (["qrat", "3"], "(1 + q + q^2) / (1)"),
    (["hyper", "10"], "5"),
    (["hyper", "--list", "10"], "1010\n1002\n0210\n0202\n0122"),
    (["hyper", "--list", "0"], "ε"),
    (["hyper", "--genfunc", "10"], "q^2 + 2q^3 + q^4 + q^5"),
    (["fence", "10"], "elements: 3\nx2 < x1\nx2 < x3"),
    (["fence", "--ideals", "10"], "{}\n{x2}\n{x1, x2}\n{x2, x3}\n{x1, x2, x3}"),
    (["fence", "--ideals", "7"], "{}"),  # the empty ideal alone
    (["fence", "--rgf", "10"], "1 + q + 2q^2 + q^3"),
    (["matrix", "19"], "q^-1 + 2 + q + q^2 | q^-2 + q^-1\nq^-1 + 1 | q^-2"),
    (["matrix", "--prime", "2"], "1 | 0\nr | s"),
]


@pytest.mark.parametrize("argv,expected", TEXT_GOLDENS,
                         ids=[" ".join(a) for a, _ in TEXT_GOLDENS])
def test_text_golden(argv, expected):
    code, out, err = run(argv)
    assert code == 0
    assert err == ""
    assert out == expected + "\n"


def test_stats_table():
    code, out, _ = run(["hyper", "--stats", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digits ell p1 p2 t z s_vector"
    assert lines[1] == "1010 2 2 0 0 2 1,2,5,10"
    assert lines[2] == "1002 3 1 1 1 2 1,2,4,10"
    assert len(lines) == 6


# ------------------------------------------------------------------- JSON mode

JSON_CASES = [
    (["fusc", "19"], {"n": 19, "fusc": 7}),
    (["fuscq", "11"], {"n": 11, "fusc_q": "q^2 + 2q^3 + q^4 + q^5"}),
    (["cw", "6"], {"n": 6, "num": 2, "den": 3}),
    (["cwq", "4"], {"n": 4, "num": "q", "den": "1 + q + q^2"}),
    (["cwindex", "7/3"], {"r": 7, "s": 3, "n": 19}),
    (["qrat", "5/2"],
     {"r": 5, "s": 2, "via": "cf", "num": "1 + 2q + q^2 + q^3", "den": "1 + q"}),
    (["qrat", "5/2", "--via", "graph"],
     {"r": 5, "s": 2, "via": "graph", "num": "1 + 2q + q^2 + q^3", "den": "1 + q"}),
    (["hyper", "10"], {"n": 10, "count": 5}),
    (["hyper", "--list", "10"],
     {"n": 10, "expansions": ["1010", "1002", "0210", "0202", "0122"]}),
    (["hyper", "--list", "0"], {"n": 0, "expansions": [""]}),
    (["hyper", "--genfunc", "10"], {"n": 10, "h_q": "q^2 + 2q^3 + q^4 + q^5"}),
    (["fence", "10"], {"n": 10, "size": 3, "covers": [[2, 1], [2, 3]]}),
    (["fence", "--ideals", "10"],
     {"n": 10, "size": 3, "ideals": [[], [2], [1, 2], [2, 3], [1, 2, 3]]}),
    (["fence", "--rgf", "10"], {"n": 10, "rgf": "1 + q + 2q^2 + q^3"}),
    (["matrix", "19"],
     {"n": 19, "prime": False,
      "entries": [["q^-1 + 2 + q + q^2", "q^-2 + q^-1"], ["q^-1 + 1", "q^-2"]]}),
    (["matrix", "--prime", "2"],
     {"n": 2, "prime": True, "entries": [["1", "0"], ["r", "s"]]}),
]


@pytest.mark.parametrize("argv,expected", JSON_CASES,
                         ids=[" ".join(a) for a, _ in JSON_CASES])
def test_json_payloads(argv, expected):
    code, out, err = run(argv + ["--json"])
    assert code == 0
    assert err == ""
    assert json.loads(out) == expected


def test_json_stats_schema():
    code, out, _ = run(["hyper", "--stats", "10", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10
    rows = payload["expansions"]
    assert len(rows) == 5
    assert set(rows[0]) == {"digits", "ell", "p1", "p2", "t", "z", "s_vector"}
    assert rows[0] == {"digits": "1010", "ell": 2, "p1": 2, "p2": 0,
                       "t": 0, "z": 2, "s_vector": [1, 2, 5, 10]}


def test_stats_output_digest():
    """``hyper --stats`` text and JSON over a fixed set of n, pinned by
    the sha256 of the concatenated stdout."""
    ns = [*range(70), 12345678, 987654]
    outs = []
    for json_flag in ([], ["--json"]):
        for n in ns:
            code, out, _ = run(["hyper", "--stats", *json_flag, str(n)])
            assert code == 0, n
            outs.append(out)
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == "ff4dafd5a7bb5a2be0c83e0afe0f1861e496ae2b43cedd3f8a215b6687ae60f6"


def test_json_dot_matches_text_mode():
    for argv in (["hyper", "--dot", "10"], ["fence", "--dot", "75"],
                 ["fence", "--dot-ideals", "10"]):
        code, text_out, _ = run(argv)
        code_j, json_out, _ = run(argv + ["--json"])
        assert code == 0 and code_j == 0
        assert json.loads(json_out)["dot"] + "\n" == text_out


def test_dot_output_is_deterministic():
    first = run(["hyper", "--dot", "75"])
    second = run(["hyper", "--dot", "75"])
    assert first == second
    assert first[1].startswith("digraph hyperbinary_75")


# ----------------------------------------------------------------- exit codes

def test_exit_code_two_on_malformed_rational():
    code, out, err = run(["cwindex", "7x/3"])
    assert code == 2
    assert out == ""
    assert "expected a rational" in err


def test_exit_code_two_on_domain_value_error():
    code, out, err = run(["qrat", "1/0"])
    assert code == 2
    assert out == ""
    assert err.startswith("hyperq:")


def test_exit_code_two_on_bad_integer():
    for argv in (["fusc", "-3"], ["fence", "0"], ["hyper", "x"]):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert err != ""


@pytest.mark.parametrize("argv", [
    ["verify", "mnthm", "--max", "-3"], ["verify", "mnthm", "--max", "0"],
    ["matrix", "-3"], ["matrix", "0"], ["fence", "-1"],
])
def test_nonpositive_integer_is_reported_as_not_positive(argv):
    """Where n must be positive, every n < 1 gets the same message,
    negative ones included."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.endswith(": expected a positive integer\n")
    assert "Traceback" not in err


def test_exit_code_three_outside_graph_domain():
    for rational in ("1/1", "1/2", "2/6"):
        code, out, err = run(["qrat", rational, "--via", "graph"])
        assert code == 3, rational
        assert out == ""
        assert err.startswith("hyperq:")


def test_bad_rational_exits_two_on_both_routes():
    plain = run(["qrat", "5/0"])
    graph = run(["qrat", "5/0", "--via", "graph"])
    assert plain[0] == graph[0] == 2
    assert plain[1] == graph[1] == ""
    assert plain[2] == graph[2] == "hyperq: need r >= 0 and s >= 1\n"


@pytest.mark.parametrize("command,message", [
    ("qrat", "hyperq: need r >= 0 and s >= 1\n"),
    ("cwindex", "hyperq: need r >= 1 and s >= 1\n"),
])
def test_negative_rational_is_a_value_not_an_option(command, message):
    """argparse must not take -1/3 for an option and report R/S missing:
    the input check names the bad value, as it does for 3/-2."""
    assert run([command, "3/-2"])[2] == message
    code, out, err = run([command, "-1/3"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "required" not in err
    assert err == message


def test_unknown_subcommand_is_usage_error():
    code, out, err = run(["frobnicate", "1"])
    assert code == 2
    assert out == ""


# ------------------------------------------------------------------- verify

def test_verify_single_pass_line():
    code, out, err = run(["verify", "qrat", "--max", "64"])
    assert code == 0
    assert err == ""
    assert out.startswith("PASS qrat range=1..64 checked=64")


def test_verify_all_reports_every_family():
    code, out, _ = run(["verify", "all", "--max", "32"])
    assert code == 0
    pass_lines = [l for l in out.splitlines() if l.startswith("PASS ")]
    assert len(pass_lines) == len(REGISTRY)
    names = {l.split()[1] for l in pass_lines}
    assert names == set(REGISTRY)


def test_verify_json_schema():
    code, out, _ = run(["verify", "mnent", "--max", "32", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    (rep,) = payload["reports"]
    assert set(rep) == {"theorem", "lo", "hi", "checked", "failures",
                        "notes", "elapsed_s", "passed"}
    assert rep["theorem"] == "mnent" and rep["failures"] == []


def test_verify_is_deterministic_given_max():
    a = run(["verify", "hbar", "--max", "48", "--json"])
    b = run(["verify", "hbar", "--max", "48", "--json"])
    pa, pb = json.loads(a[1]), json.loads(b[1])
    for p in (pa, pb):
        for rep in p["reports"]:
            rep.pop("elapsed_s")
    assert pa == pb


# ------------------------------------------------------------------- --out

def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run(["qrat", "5/2", "--json", "--out", str(target)])
    assert code == 0
    assert out == "" and err == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["num"] == "1 + 2q + q^2 + q^3"


def test_out_plain_text(tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run(["fusc", "19", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == "7\n"


def test_out_to_missing_directory_exits_four(tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(["fusc", "19", "--out", str(target)])
    assert code == 4 and out == ""
    assert err.startswith("hyperq: ") and "Traceback" not in err
    assert not target.exists()


# --------------------------------------------------------- failures, counts

def test_verify_mainbij_fail_report_on_non_binary_offsets(monkeypatch):
    """A tampered bottom element gives offsets outside 0/1: the sweep
    prints a FAIL report and exits 1 instead of raising."""
    monkeypatch.setattr(fe, "min_element", hb.binary_expansion)
    code, out, err = run(["verify", "mainbij", "--max", "16"])
    assert code == 1 and err == ""
    assert out.startswith("FAIL mainbij range=1..16")
    assert "reduced prefix sums not 0/1" in out


def test_hyper_count_of_sixty_bits_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("hyper N must not list D(n)")
    monkeypatch.setattr(hb, "expansions", refuse)
    code, out, _ = run(["hyper", str(int("10" * 30, 2))])
    assert code == 0
    assert out == "2504730781961\n"


def _at_one(text):
    """A polynomial in the CLI's text format evaluated at q = 1."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        digits = term.lstrip("-").split("q")[0]
        total += sign * int(digits or "1")
    return total


BIG_N = random.Random(1101).getrandbits(1100) | 1 << 1100  # 1101 bits


@pytest.mark.parametrize("argv", [["fuscq"], ["cwq"], ["hyper", "--genfunc"]],
                         ids=" ".join)
def test_polynomials_of_a_1101_bit_n(argv):
    """One stack frame per bit would pass the recursion limit here."""
    code, out, err = run(argv + [str(BIG_N)])
    assert code == 0 and err == ""
    if argv == ["cwq"]:
        num, den = out.strip()[1:-1].split(") / (")
        assert Fraction(_at_one(num), _at_one(den)) == stern.cw(BIG_N)
    else:
        n = BIG_N + (argv[0] == "hyper")
        assert _at_one(out.strip()) == stern.fusc(n)


def test_input_too_large_for_memory_exits_three():
    """qrat N builds [N]_q with N terms; under a 1 GB address-space cap
    on the child the answer cannot fit."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "qrat", "200000000"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "hyperq: input too large to compute in memory\n"
    assert "Traceback" not in proc.stderr


#: past 2^63: a partial quotient repeats a bytes or str object that
#: many times, and a sweep bound is refused before any check, whether or
#: not the sweep sizes a list by it
HUGE_Q, HUGE_MAX = str(10**29), str(10**20)


@pytest.mark.parametrize("argv", [
    ["qrat", HUGE_Q + "/1"],
    ["qrat", "1/" + HUGE_Q],
    ["qrat", HUGE_Q + "/1", "--via", "graph"],
    ["cwindex", HUGE_Q + "/1"],
    ["cwindex", "1/" + HUGE_Q],
    *[["verify", name, "--max", HUGE_MAX]
      for name in ("qrat", "mnent", "mnthm", "mprime", "all", "gg", "hrs", "hbar", "mainbij", "weightbij")],
], ids=" ".join)
def test_input_too_large_to_index_exits_three(argv):
    assert run(argv) == (3, "", "hyperq: input too large to compute in memory\n")


# --------------------------------------------------------------- entry point

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "fusc", "19"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def test_closed_stdout_exits_five_without_traceback():
    """A reader that stops after the first line, as ``| head -1`` does,
    while the listing (about 660 kB) is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperq.cli", "hyper", "--list", "2796202"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == "1010101010101010101010\n"
    assert proc.returncode == 5
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_four_without_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperq.cli", "fusc", "19"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 4
    assert proc.stderr.startswith("hyperq: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(shutil.which("sh") is None, reason="no sh")
def test_missing_stdout_exits_five_without_traceback():
    """Started with file descriptor 1 closed, so ``sys.stdout`` is None."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m hyperq.cli fusc 19 >&-', sys.executable],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 5
    assert proc.stderr == ""


CLOSED_STDERR = [
    (["qrat", "1/0"], 2),
    (["qrat", "2/3", "--via", "graph"], 3),
    (["fusc", "5", "--out", "/nonexistent/x"], 4),
]


@pytest.mark.parametrize("argv,code", CLOSED_STDERR)
def test_closed_stderr_keeps_the_exit_code(argv, code):
    """Started with file descriptor 2 closed, the diagnostic is dropped:
    the exit code is the documented one and stdout stays empty."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m hyperq.cli "$@" 2>&-', sys.executable, *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""


class _BadDescriptor(io.TextIOBase):
    """A stderr whose descriptor was closed after start-up."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("stderr", [None, _BadDescriptor()], ids=["none", "ebadf"])
@pytest.mark.parametrize("argv,code", CLOSED_STDERR)
def test_unusable_stderr_writes_nothing_to_stdout(monkeypatch, argv, code, stderr):
    """With ``sys.stderr`` None, or writes to it failing, the diagnostic
    is dropped, not printed on stdout as ``print(file=None)`` would."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    assert out.getvalue() == ""


@pytest.mark.parametrize("mode", ["--list", "--stats"])
def test_unencodable_stdout_exits_four_without_traceback(tmp_path, mode):
    """The empty expansion of 0 prints as "ε", which an ASCII stdout
    cannot encode; ``--json`` escapes it and ``--out`` writes UTF-8."""
    env = dict(os.environ, PYTHONIOENCODING="ascii")

    def hyperq(*argv):
        return subprocess.run([sys.executable, "-m", "hyperq.cli", "hyper", mode, "0", *argv],
                              capture_output=True, text=True, timeout=60, env=env)

    proc = hyperq()
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("hyperq: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1

    code, out, _ = run(["hyper", mode, "0", "--json"])
    proc = hyperq("--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "") and code == 0

    target = tmp_path / "out.txt"
    _, text, _ = run(["hyper", mode, "0"])
    proc = hyperq("--out", str(target))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_text(encoding="utf-8") == text and "ε" in text


# ------------------------------------------------------ integer digit limit

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python has no int digit limit")


@contextlib.contextmanager
def no_digit_limit():
    """Lift the limit for the test's own conversions of long numbers;
    ``main`` runs outside it, under the interpreter's limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_cwindex_answer_past_the_digit_limit(json_mode):
    """cw(n) = 20000/1 for an n of about 6,000 digits."""
    code, out, err = run(["cwindex", "20000/1"] + (["--json"] if json_mode else []))
    assert code == 0 and err == ""
    with no_digit_limit():
        n = json.loads(out)["n"] if json_mode else int(out)
    assert n.bit_length() == 20000
    assert stern.fusc(n) == 20000 and stern.fusc(n + 1) == 1


@needs_digit_limit
def test_fusc_argument_past_the_digit_limit():
    arg = "7" * 4400
    code, out, err = run(["fusc", arg])
    assert code == 0 and err == ""
    with no_digit_limit():
        assert out == f"{stern.fusc(int(arg))}\n"


@needs_digit_limit
@pytest.mark.parametrize("argv", [["fusc", "19"], ["fusc", "x"], ["qrat", "1/2", "--via", "graph"]],
                         ids=["answer", "usage error", "domain error"])
def test_main_restores_the_digit_limit(argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        run(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


# --------------------------------------------------------------- the parser

def test_verify_names_are_the_registry():
    """The parser lists the sweeps without importing ``verify``; a new
    sweep must be added to the static list too."""
    assert VERIFY_NAMES == tuple(sorted(REGISTRY))


def test_parser_builds_and_lists_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0]))]
    names = set(actions[0].choices)
    assert names == {"fusc", "fuscq", "cw", "cwq", "cwindex", "qrat",
                     "hyper", "fence", "matrix", "verify"}


def test_reused_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    """``main`` reuses one parser per process: every call of this
    sequence, run in one process, answers as its argv does through a
    parser of its own.  Each pair sets a flag or default and then leaves
    it out, so a value left over from the call before would show."""
    target = tmp_path / "value.txt"
    sequence = [
        ["hyper", "--list", "5"], ["hyper", "5"],
        ["qrat", "7/3", "--via", "graph", "--json"], ["qrat", "7/3", "--json"],
        ["fusc", "19", "--json"], ["fusc", "19"],
        ["fusc", "19", "--out", str(target)], ["fusc", "19"],
        ["verify", "gg", "--max", "10"], ["verify", "gg"],
        ["fusc", "x"], ["fusc", "19"],
        ["--help"], ["fusc", "19"],
    ]

    def calls():  # a sweep's elapsed time is the one part that may differ
        return [(code, re.sub(r"elapsed=\S+", "elapsed=", out), err)
                for code, out, err in map(run, sequence)]

    reused = calls()
    assert target.read_text(encoding="utf-8") == "7\n"
    monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser per call
    assert reused == calls()
    assert [code for code, _, _ in reused] == [0] * 10 + [2, 0, 0, 0]
    assert reused[1][1] == "2\n" and reused[5][1] == reused[7][1] == "7\n"
    assert json.loads(reused[3][1])["via"] == "cf"
    assert "range=1..10 " in reused[8][1] and "range=1..10 " not in reused[9][1]
    assert "usage: hyperq" in reused[10][2] and "usage: hyperq" in reused[12][1]


def test_cli_import_leaves_numpy_out():
    """The package has no third-party dependency: a fresh interpreter
    importing the CLI must not pull numpy in."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hyperq.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
