import json
import os
import stat
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from propp import cli, constants, primes, seqfile, verify
from propp.cli import build_parser, main
from propp.construct import enumerate_s


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sieve_csv(capsys):
    code, out, _ = run(capsys, "sieve", "--limit", "100", "--emit", "csv")
    assert code == 0
    assert [int(line) for line in out.split()] == \
        [3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83]


def test_sieve_json(capsys):
    code, out, _ = run(capsys, "sieve", "--limit", "20", "--emit", "json")
    body = json.loads(out)
    assert code == 0
    assert body["schema_version"] == "1"
    assert body["class3"] == [3, 7, 11, 19]
    assert body["prime_count"] == 8


def test_construct_seqfile_and_json(capsys):
    code, out, _ = run(capsys, "construct", "--set-index", "1", "--limit", "10000")
    assert code == 0
    assert out == "729\n3969\n9801\n"
    code, out, _ = run(capsys, "construct", "--all", "--limit", "10000",
                       "--emit", "json")
    body = json.loads(out)
    assert body["count"] == 3
    assert body["elements"][0] == {"value": 729, "set_index": 1, "nu_factors": [3]}


def test_construct_big_values_emitted_as_strings(capsys):
    code, out, _ = run(capsys, "construct", "--set-index", "8",
                       "--limit", str(10 ** 27), "--emit", "json")
    body = json.loads(out)
    assert code == 0
    assert body["count"] >= 1
    value = body["elements"][0]["value"]
    assert isinstance(value, str)  # beyond 2^53, decimal string
    assert int(value) == 47 ** 4 * (3 * 7 * 11 * 19 * 23 * 31 * 43 * 47) ** 2


def test_construct_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "construct", "--limit", "100")
    assert code == 2 and "set-index" in err


def test_baseline(capsys):
    code, out, _ = run(capsys, "baseline", "--kind", "squares", "--limit", "150")
    assert code == 0 and out == "9\n49\n121\n"
    code, out, _ = run(capsys, "baseline", "--kind", "block", "--x", "9")
    assert code == 0 and out == "6\n7\n8\n9\n"
    code, _, err = run(capsys, "baseline", "--kind", "block")
    assert code == 2


def test_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("729\n3969\n9801\n")
    code, out, _ = run(capsys, "verify", "--input", str(path))
    body = json.loads(out)
    assert code == 0 and body["holds"] is True

    path.write_text("1\n2\n3\n")
    code, out, _ = run(capsys, "verify", "--input", str(path))
    body = json.loads(out)
    assert code == 1
    assert body["holds"] is False and body["witness"] == [1, 2, 3]

    path.write_text("3\n2\n")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 2 and "ascending" in err


def test_failed_command_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    existing = tmp_path / "report.txt"
    existing.write_text("previous report\n")
    existing.chmod(0o640)
    fresh = tmp_path / "fresh.txt"

    def write_then_fail(values, stream):
        stream.write("729\n")
        raise OSError("No space left on device")

    monkeypatch.setattr(seqfile, "write_sequence", write_then_fail)
    for out in (existing, fresh):
        code, _, err = run(capsys, "construct", "--all", "--limit", "10000",
                           "--out", str(out))
        assert code == 2 and "No space left" in err
    monkeypatch.undo()
    # a refusal before any output is written
    code, _, _ = run(capsys, "construct", "--all", "--limit", "1e20",
                     "--out", str(existing))
    assert code == 2
    assert existing.read_text() == "previous report\n"
    assert sorted(os.listdir(tmp_path)) == ["report.txt"]
    # and a run that succeeds replaces the file whole
    code, _, _ = run(capsys, "construct", "--all", "--limit", "10000",
                     "--out", str(existing))
    assert code == 0 and existing.read_text() == "729\n3969\n9801\n"
    assert sorted(os.listdir(tmp_path)) == ["report.txt"]
    assert existing.stat().st_mode & 0o777 == 0o640  # the mode survives


def test_stale_temp_file_does_not_block_out(tmp_path, capsys, monkeypatch):
    # a run killed mid-write leaves its temp file; a later run whose pid
    # matches must still write the report
    monkeypatch.chdir(tmp_path)
    stale = tmp_path / f"r.txt.{os.getpid()}.tmp"
    stale.write_text("half a report\n")
    code, _, _ = run(capsys, "envelope", "--x", "1e6", "--out", "r.txt")
    assert code == 0 and json.loads((tmp_path / "r.txt").read_text())["x"] == 1000000
    assert stale.read_text() == "half a report\n"
    assert sorted(os.listdir(tmp_path)) == ["r.txt", stale.name]
    umask = os.umask(0o022)
    os.umask(umask)
    assert (tmp_path / "r.txt").stat().st_mode & 0o777 == 0o666 & ~umask


def test_out_through_a_link_or_into_a_pipe(tmp_path, capsys):
    # a link is followed, not replaced
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    code, _, _ = run(capsys, "construct", "--all", "--limit", "10000",
                     "--out", str(link))
    assert code == 0 and link.is_symlink()
    assert target.read_text() == "729\n3969\n9801\n"
    # a pipe (like /dev/null) is written in place, never swapped for a file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code, _, _ = run(capsys, "construct", "--all", "--limit", "10000",
                     "--out", str(fifo))
    reader.join(timeout=10)
    assert code == 0 and not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [b"729\n3969\n9801\n"]
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "pipe", "target.txt"]


def test_verify_validates_the_input_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(values):
        calls.append(len(values))
        return validate(values)

    validate = seqfile.validate_sequence
    monkeypatch.setattr(seqfile, "validate_sequence", counted)
    monkeypatch.setattr(verify, "validate_sequence", counted)
    path = tmp_path / "s.txt"
    path.write_text("729\n3969\n9801\n")
    code, _, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0 and calls == [3]
    # a malformed file keeps its path prefix and exits 2
    path.write_text("3\n7\n5\n")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: entries must be strictly ascending: entry 3 is 5 after 7\n"


def test_verify_unreadable_input_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--input", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error:")
    path = tmp_path / "s.txt"
    path.write_bytes("729\n3969\n9801\u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    # past the interpreter's int/str digit limit int() would raise ValueError
    path.write_text("729\n3969\n" + "9" * 5000 + "\n")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert f"{path}:3:" in err


def test_lemma1(capsys):
    code, out, _ = run(capsys, "lemma1", "21", "7", "14")
    assert code == 0 and out == "applicable+verified p=3\n"
    code, out, _ = run(capsys, "lemma1", "25", "3", "4", "--emit", "json")
    body = json.loads(out)
    assert code == 0
    assert body["outcome"] == "not-applicable" and body["prime"] is None
    code, _, err = run(capsys, "lemma1", "0", "1", "1")
    assert code == 2


def test_pik_exact(capsys):
    code, out, _ = run(capsys, "pik", "--x", "100", "--k", "2", "--mode", "exact")
    body = json.loads(out)
    assert code == 0 and body["exact"] == 6


def test_pik_all_small_truncations(capsys):
    code, out, _ = run(capsys, "pik", "--x", "1000000", "--k", "2",
                       "--mode", "all", "--plimit", "1000000",
                       "--h-plimit", "100000")
    body = json.loads(out)
    assert code == 0
    assert body["exact"] > 0
    assert body["meng_full"] > body["meng_main"] > 0
    assert body["landau"] == pytest.approx(body["meng_main"] * 4, rel=1e-12)
    assert "neglected_term_scale" in body


def test_pik_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "pik", "--x", "100", "--k", "0")
    assert code == 2 and "error:" in err


def test_compare_csv_columns(capsys):
    code, out, _ = run(capsys, "compare", "--x-grid", "100,1000", "--k-set", "1,2",
                       "--plimit", "1000000", "--h-plimit", "100000")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "x,k,exact,landau,meng_main,meng_full,ratio"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "1" and first[2] == "13"
    # k = 1 rows leave the expansion columns empty
    assert first[4] == "" and first[5] == ""


def test_count_s(capsys):
    code, out, _ = run(capsys, "count-s", "--limit", "10000")
    body = json.loads(out)
    assert code == 0
    assert body["per_index"] == {"1": 3}
    assert body["total"] == 3
    assert body["baseline_squares"] == 13
    assert body["envelope"] == pytest.approx(10.505067, rel=1e-5)
    code, out, _ = run(capsys, "count-s", "--limit", "728")
    body = json.loads(out)
    assert body["total"] == 0 and body["per_index"] == {}
    assert body["envelope"] == pytest.approx(7.348513, rel=1e-5)
    # below e^e the envelope is undefined and reported as null
    code, out, _ = run(capsys, "count-s", "--limit", "10")
    body = json.loads(out)
    assert body["total"] == 0 and body["envelope"] is None


def test_count_s_total_matches_union(capsys):
    code, out, _ = run(capsys, "count-s", "--limit", "100000000")
    body = json.loads(out)
    assert code == 0
    assert body["total"] == len(enumerate_s(10 ** 8))
    code, out, _ = run(capsys, "count-s", "--limit", "100000000", "--exclude-qi")
    body = json.loads(out)
    assert code == 0
    assert body["total"] == len(enumerate_s(10 ** 8, exclude_qi=True))


def test_count_s_beyond_the_sieve_cap_is_a_resource_error(capsys):
    # X = isqrt(2e28) = 1.4e14: its table is priced past the work budget, and
    # the class-3 primes up to X pass both that budget and the 2^32 sieve cap
    code, out, err = run(capsys, "count-s", "--limit", "2e28")
    assert code == 2 and out == "" and err.startswith("error:")


def test_bounds_small_truncations(capsys):
    code, out, _ = run(capsys, "bounds", "--plimit", "1000000",
                       "--h-plimit", "100000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    code, out, _ = run(capsys, "bounds", "--plimit", "1000000",
                       "--h-plimit", "100000", "--emit", "json")
    body = json.loads(out)
    assert body["all_passed"] is True


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--plimit", "1000000",
                       "--h-plimit", "100000")
    body = json.loads(out)
    assert code == 0
    assert body["m34"]["truncation"] == 1000000
    assert 0.0432 < body["m34"]["value"] < 0.0533
    assert body["all_passed"] is True
    # read from the report's checks, not computed a second time
    assert body["h_second_at_one_third"] == constants.h_second(1 / 3, 100000)
    assert body["corollary_constant"] == constants.corollary_constant(
        1 / 3, c34_limit=1000000, h_plimit=100000)


def test_envelope_and_theorem_terms(capsys):
    code, out, _ = run(capsys, "envelope", "--x", "1000000")
    body = json.loads(out)
    assert code == 0 and body["value"] == pytest.approx(41.8694, rel=1e-4)

    code, out, _ = run(capsys, "theorem-terms", "--log-x", "1e5", "--j", "2")
    body = json.loads(out)
    assert code == 0 and body["bracket"] >= 1 / 2.7182818284590455

    big_x = str(10 ** 2590)
    code, out, _ = run(capsys, "theorem-terms", "--x", big_x, "--j", "2")
    body = json.loads(out)
    assert code == 0 and body["k"] == 4
    assert body["x"] == big_x  # huge int survives as a decimal string

    code, _, err = run(capsys, "theorem-terms", "--j", "2")
    assert code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "sieve", "--limit", "30", "--emit", "csv",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "3\n7\n11\n19\n23\n"


# one cheap run of every subcommand; verify's input has the witness 1 | 2 + 3
_SMALL_PLIMITS = ["--plimit", "10000", "--h-plimit", "10000"]
EVERY_COMMAND = [
    ["sieve", "--limit", "100", "--emit", "json"],
    ["construct", "--all", "--limit", "1e8"],
    ["baseline", "--kind", "squares", "--limit", "1000", "--emit", "json"],
    ["verify", "--input", "{seq}"],
    ["lemma1", "21", "7", "14"],
    ["pik", "--x", "1000", "--k", "2", "--mode", "all", *_SMALL_PLIMITS],
    ["compare", "--x-grid", "100,1000", "--k-set", "1,2", *_SMALL_PLIMITS],
    ["count-s", "--limit", "1e8", "--emit", "plain"],
    ["constants", *_SMALL_PLIMITS],
    ["bounds", *_SMALL_PLIMITS],
    ["envelope", "--x", "1e6"],
    ["theorem-terms", "--log-x", "1e5", "--j", "2"],
]


def test_out_matches_stdout_for_every_command(tmp_path, capsys):
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(FUZZ_SPEC)
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n2\n3\n")
    for argv in EVERY_COMMAND:
        argv = [str(seq) if a == "{seq}" else a for a in argv]
        code, printed, _ = run(capsys, *argv)
        target = tmp_path / f"{argv[0]}.out"
        code_out, printed_out, _ = run(capsys, *argv, "--out", str(target))
        assert (code_out, printed_out) == (code, ""), argv
        assert target.read_text() == printed and printed, argv
    assert run(capsys, "verify", "--input", str(seq))[0] == 1


def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError("sieved before opening --out")

    monkeypatch.setattr(primes, "primes_upto", refuse)
    code, out, err = run(capsys, "sieve", "--limit", "100",
                         "--out", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == "" and err.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_sieve_limit_below_two_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sieve", "--limit", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sieve limit" in err


def test_threads_parses_and_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for given in ("100000", "0", "-5", "1"):
        args = build_parser().parse_args(
            ["verify", "--input", "seq.txt", "--threads", given])
        assert args.threads == int(given)
        # an empty prime store, so the run sieves to 10^7 again; the store
        # comes back whole when the test ends
        for name in ("_cached_primes", "_cached_class3"):
            monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
        monkeypatch.setattr(primes, "_cached_limit", 1)
        code = main(["sieve", "--limit", "1e7", "--threads", given,
                     "--out", os.devnull])
        assert code == 0, given


def _timed_exit(capsys, argv):
    """Exit code and output of one in-process run, which must end within
    2 s and never print a traceback; argparse errors count by their code."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert time.perf_counter() - start < 2.0, argv
    out = capsys.readouterr()
    assert "Traceback" not in out.err, argv
    return code, out.out, out.err


# argv, exit code, a line stdout must hold (None: only stderr is written)
EXIT_CONTRACT = [
    # a 61-bit prime: Miller-Rabin ends the trial division at once
    (["lemma1", "2305843009213693951", "1", "2"], 0,
     "applicable+verified p=2305843009213693951"),
    # two primes above the 10^7 trial-division cap: a resource error
    (["lemma1", str(10_000_019 * 10_000_079), "1", "2"], 2, None),
    (["lemma1", str(7 * 10_000_019 * 10_000_079), "1", "2"], 0,
     "applicable+verified p=7"),
    (["lemma1", "0", "1", "1"], 2, None),
    # q_1 q_2 > 100 settles k = 3,000,000 after two primes
    (["pik", "--x", "100", "--k", "3000000"], 0, '  "exact": 0'),
    (["pik", "--x", "100", "--k", "0"], 2, None),
    # q_1...q_30 > x: 0 without a table or a sieve
    (["pik", "--x", "10000000001", "--k", "30"], 0, '  "exact": 0'),
    # its leaves stop at x // (q_1...q_7) = 111: a store filled that far counts it
    (["pik", "--x", "15000000000", "--k", "8"], 0, '  "exact": 20'),
    # a table for 1e14 and the primes up to 1e14 // 3 are both past the budget
    (["pik", "--x", "1e14", "--k", "2"], 2, None),
    # the same for the table for X = 1e15
    (["count-s", "--limit", "1e30"], 2, None),
    (["envelope", "--x", "10"], 2, None),
    # 38,285,539 elements, counted before any is built: past the budget
    (["construct", "--all", "--limit", "1e20"], 2, None),
    # 28,099,272 elements in the one layer, counted the same way
    (["construct", "--set-index", "1", "--limit", "1e20"], 2, None),
    # x/3 + 1 elements, past the budget long before 1e20
    (["baseline", "--kind", "block", "--x", "1e20"], 2, None),
    (["baseline", "--kind", "block", "--x", "1e30"], 2, None),
    # 101,641,840 class-3 primes at ~60 bytes each, counted before sieving
    (["sieve", "--limit", "4294967296", "--emit", "json"], 2, None),
    # 75,939,612 squares at ~66 bytes each, counted the same way
    (["baseline", "--kind", "squares", "--limit", "1e19"], 2, None),
    # only --force lifts the residue budget
    (["verify", "--input", "seq.txt", "--cap", "10"], 2, None),
]


@pytest.mark.parametrize("argv, code, line", EXIT_CONTRACT,
                         ids=[" ".join(row[0]) for row in EXIT_CONTRACT])
def test_exit_contract(capsys, argv, code, line):
    got, out, err = _timed_exit(capsys, argv)
    assert got == code
    if line is None:
        assert out == "" and err
    else:
        assert line in out.splitlines()


@pytest.mark.parametrize("x", ["1e100000000", "-1e100000000", "1e5000",
                               "inf", "nan"])
def test_huge_or_nonfinite_magnitude_is_a_usage_error(capsys, x):
    code, out, err = _timed_exit(capsys, ["envelope", "--x", x])
    assert code == 2 and out == "" and "usage:" in err


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sieve", "--limit", "10", "--bogus"])
    assert exc.value.code == 2


# Values that run cheaply wherever they are legal; 1e7..1e19 is left out
# because legal commands there are slow, not wrong.
_MENU = st.one_of(
    st.sampled_from(["0", "-1", "1e20", "1e30", "1e5000", "inf", "nan", "abc",
                     "", "2.5"]),
    st.integers(1, 9999).map(str))
_LISTS = st.lists(_MENU, min_size=1, max_size=3).map(",".join)
_FLAG = None
_PLIMITS = [("--plimit", _MENU, True), ("--h-plimit", _MENU, False)]


def _emit(*choices):
    return ("--emit", st.sampled_from(choices), False)


# subcommand -> (option, values, always given); a None option is
# positional and _FLAG values make a bare flag.  --plimit is always
# drawn: its default (10^8) lies in the slow band.
FUZZ_SPEC = {
    "sieve": [("--limit", _MENU, True), _emit("json", "csv")],
    "construct": [("--set-index", _MENU, False), ("--all", _FLAG, False),
                  ("--limit", _MENU, True), ("--exclude-qi", _FLAG, False),
                  _emit("plain", "json")],
    "baseline": [("--kind", st.sampled_from(["squares", "block"]), True),
                 ("--limit", _MENU, False), ("--x", _MENU, False),
                 _emit("plain", "json")],
    "verify": [("--input", st.lists(_MENU, max_size=6), True),
               ("--force", _FLAG, False)],
    "lemma1": [(None, _MENU, True)] * 3 + [_emit("plain", "json")],
    "pik": [("--x", _MENU, True), ("--k", _MENU, True),
            ("--mode", st.sampled_from(["exact", "main", "full", "all"]), False),
            *_PLIMITS],
    "compare": [("--x-grid", _LISTS, True), ("--k-set", _LISTS, True),
                *_PLIMITS, _emit("csv", "json")],
    "count-s": [("--limit", _MENU, True), ("--exclude-qi", _FLAG, False),
                _emit("json", "plain")],
    "constants": _PLIMITS,
    "bounds": _PLIMITS + [_emit("plain", "json")],
    "envelope": [("--x", _MENU, True)],
    "theorem-terms": [("--x", _MENU, False), ("--log-x", _MENU, False),
                      ("--j", _MENU, True)],
}


@pytest.mark.parametrize("command", sorted(FUZZ_SPEC))
def test_exit_contract_fuzz(command, capsys, tmp_path_factory):
    """Any argv built from the menu, with any --threads, exits 0, 1 or 2
    within 2 s and prints no traceback."""
    seq_path = tmp_path_factory.mktemp("fuzz") / "seq.txt"

    # capsys is read, and so emptied, after every example
    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def run_one(data):
        argv = [command]
        for option, values, always in FUZZ_SPEC[command]:
            if not always and not data.draw(st.booleans()):
                continue
            value = None if values is _FLAG else data.draw(values)
            if option == "--input":
                seq_path.write_text("".join(f"{v}\n" for v in value))
                value = str(seq_path)
            argv += [v for v in (option, value) if v is not None]
        if data.draw(st.booleans()):
            threads = data.draw(st.one_of(_MENU, st.integers().map(str)))
            argv += ["--threads", threads]
        code, _, _ = _timed_exit(capsys, argv)
        assert code in (0, 1, 2), argv

    run_one()


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["verify", "--help"], ["nosuch"], ["pik", "--x", "1"],
    ["verify", "--input", "x", "extra"], ["count-s", "--limit", "abc"], ["-h", "verify"]]
    + [[name, "--help"] for name in ("sieve", "construct", "baseline", "lemma1", "pik", "compare",
                                     "count-s", "constants", "bounds", "envelope", "theorem-terms")])
def test_one_subparser_writes_what_the_full_parser_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    full = build_parser
    monkeypatch.setattr("propp.cli.build_parser", lambda *a: built.append(a) or full(*a))
    got = _exit(capsys, main, argv)
    assert got == _exit(capsys, lambda a: full().parse_args(a), argv)
    assert got[0] == (0 if "--help" in argv or "-h" in argv else 2) and got[1] + got[2]
    # a known command builds its own parser first; the full one only reports
    assert built[0] == ((argv[0],) if argv[:1] and argv[0] in cli._COMMANDS else (None,))
