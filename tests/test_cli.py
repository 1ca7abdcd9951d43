import csv
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from regionum import bounds
from regionum.cli import main
from regionum.invariants import UnlinkCertificate, Verdict
from regionum.properness import is_proper


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_proper_knot(capsys):
    code, out, _ = run(capsys, "proper", "3", "4")
    assert code == 0
    assert out.strip() == "proper (knot)"


def test_proper_link_and_non_proper(capsys):
    code, out, _ = run(capsys, "proper", "2", "4")
    assert code == 0
    assert "2-component link" in out
    code, out, _ = run(capsys, "proper", "2", "2")
    assert code == 0
    assert out.strip() == "not proper"


def test_bound_success(capsys):
    code, out, _ = run(capsys, "bound", "3", "4")
    assert code == 0
    assert "minimum: 1" in out


def test_bound_refuses_non_proper(capsys):
    code, _, err = run(capsys, "bound", "4", "4")
    assert code == 1
    assert "not proper" in err


def test_schedule_output(capsys):
    code, out, _ = run(capsys, "schedule", "3", "4")
    assert code == 0
    assert "case:" in out and "regions (1):" in out and "target:" in out


def test_verify_emits_json_certificate(capsys):
    code, out, _ = run(capsys, "verify", "4", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 4 and payload["q"] == 5
    assert payload["bound"] == 3
    assert len(payload["regions"]) == 3
    assert payload["verdict"] == "certified"


def test_verify_names_the_skipped_jones_check(capsys):
    code, out, err = run(capsys, "verify", "13", "14")
    assert code == 0
    assert err == "verify: Jones check skipped: the target has 13 strands, over MAX_STRANDS 12\n"
    payload = json.loads(out)
    assert payload["verdict"] == "certified" and payload["jones_unlink_check"] is None
    # the certificate as printed before the note went in
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa47b85ab7321f3053e683ba51e1acfc728ba8f875b4f0bea681faf36d852332"
    )


def test_refuted_target_exits_2(capsys, monkeypatch):
    # verify_bound raises on a Refuted target and main reports it as an
    # internal inconsistency
    refuted = UnlinkCertificate(Verdict.REFUTED, 1, False, ())
    monkeypatch.setattr(bounds, "certify_unlink", lambda w: refuted)
    code, out, err = run(capsys, "verify", "3", "4")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal inconsistency:")


def test_brute_json(capsys):
    code, out, _ = run(capsys, "brute", "2", "5", "--max-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 1


@pytest.mark.parametrize(
    "argv, witness",
    [
        (("brute", "2", "1"), []),  # already trivial: the empty subset
        (("brute", "3", "1"), []),
        (("brute", "2", "9", "--max-k", "1"), None),  # no witness found
    ],
)
def test_brute_witness_json(capsys, argv, witness):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == witness
    assert (payload["exact"] is None) == (witness is None)


def test_probe_json(capsys):
    code, out, _ = run(capsys, "probe", "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] and payload["bound"] == 1 and payload["brute"] == 1


def test_jones_command(capsys):
    code, out, _ = run(capsys, "jones", "1 1 1")
    assert code == 0
    assert out.strip() == "-1*t^-4 +1*t^-3 +1*t^-1"


def test_jones_of_the_empty_word_is_the_unknot(capsys):
    # the empty word closes on one strand; --strands 2 gives the 2-component unlink
    code, out, _ = run(capsys, "jones", "")
    assert code == 0
    assert out.strip() == "+1"
    code, out, _ = run(capsys, "jones", "", "--strands", "2")
    assert code == 0
    assert out.strip() == "-1*t^(-1/2) -1*t^(1/2)"


def test_word_families(capsys):
    code, out, _ = run(capsys, "word", "--family", "staircase", "--p", "3")
    assert code == 0
    assert out.strip() == "1 2 1 -2 -1 -2"
    code, out, _ = run(capsys, "word", "--family", "toric", "--p", "3", "--i", "2")
    assert code == 0
    assert out.strip() == "1 2 1 2"
    code, _, err = run(capsys, "word", "--family", "bogus")
    assert code == 1
    code, _, err = run(capsys, "word", "--family", "mu", "--p", "3", "--i", "9")
    assert code == 1


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "2", "3", "2", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,components,proper,min_bound,case,constructible"
    assert len(lines) == 1 + 2 * 4
    assert "2,2,2,no,,," in lines
    rows = list(csv.reader(lines))
    assert all(len(row) == 7 for row in rows)
    assert ["3", "4", "1", "yes", "1", "q = np+1, p odd", "yes"] in rows


def test_formula_only_minimum_is_labelled(capsys):
    code, out, _ = run(capsys, "bound", "7", "11")
    assert code == 0
    assert out.splitlines()[-1] == "minimum: 10 (formula only)"
    code, out, _ = run(capsys, "bound", "7", "12")
    assert out.splitlines()[-1] == "minimum: 10"
    code, out, _ = run(capsys, "table", "7", "7", "11", "12")
    rows = list(csv.reader(out.splitlines()))
    assert [row[-1] for row in rows] == ["constructible", "no", "yes"]


def test_unknown_command_exits_with_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# The second column is None on every row; it only keeps the test ids
# (argv<k>-None) stable.
@pytest.mark.parametrize(
    "argv,_",
    [
        (["proper", "1", "5"], None),
        (["bound", "0", "3"], None),
        (["verify", "3", "0"], None),
        (["table", "2", "3", "0", "2"], None),
        (["jones", "1 x"], None),
        (["brute", "9", "10"], None),
        (["probe", "5", "6"], None),
        (["jones", "1", "--strands", "13"], None),
        (["brute", "2", "5", "--max-k", "-5"], None),
        (["proper", "0", "0"], None),
        (["word", "--family", "staircase", "--p", "0"], None),
        (["word", "--family", "mirror_staircase", "--p", "0"], None),
        (["jones", "1_1"], None),
        (["jones", "\u0661"], None),
        (["table", "2", "1", "3", "4"], None),
        (["table", "2", "3", "5", "4"], None),
    ],
)
def test_bad_input_is_refused_in_one_line(capsys, argv, _):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,err",
    [
        (["probe", "4", "6"], "probe: K(4,6) has 18 crossings, over MAX_PROBE_CROSSINGS 16\n"),
        (["word", "--family", "staircase", "--p", "0"], "word: need p >= 1, got 0\n"),
        (["word", "--family", "mirror_staircase", "--p", "0"], "word: need p >= 1, got 0\n"),
    ],
)
def test_refusal_names_the_value(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60, env=env,
    )


@pytest.mark.skipif(
    not hasattr(os, "fork")
    or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the bracket splits only with os.fork and 2 CPUs",
)
def test_verify_splits_the_bracket_without_duplicating_output_or_leaving_its_worker():
    # stdout is a pipe, so the first line is still buffered when the worker
    # is forked; the worker must leave without flushing it again, and the
    # exit must reap it
    done = run_python("""
        import sys
        from regionum import worker
        from regionum.cli import main

        print("before the fork")
        code = main(["verify", "9", "10"])
        print(worker._worker.pid, file=sys.stderr)
        sys.exit(code)
    """)
    assert done.returncode == 0, done.stderr
    first, certificate = done.stdout.splitlines()
    assert first == "before the fork"
    payload = json.loads(certificate)
    assert payload["verdict"] == "certified" and payload["jones_unlink_check"] is True
    worker = int(done.stderr.split()[-1])
    assert not os.path.exists(f"/proc/{worker}")


def test_proper_skips_the_diagram_oracle_on_a_huge_diagram():
    # 10^12 crossings: the oracle would raise MemoryError.  The limits make
    # a regression fail fast: 2 GB of address space and 1 s of CPU.
    done = run_python("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (1, 1))
        from regionum.cli import main

        sys.exit(main(["proper", "1000000", "1000001"]))
    """)
    assert (done.returncode, done.stdout) == (0, "proper (knot)\n"), done.stderr
    assert done.stderr == (
        "proper: diagram oracle skipped: K(1000000,1000001) has 999999999999 crossings, "
        "over MAX_CROSSINGS 10000\n"
    )


# Each oversized input and the limit its refusal names.  A bare command
# runs on K(2,1000001), 10^6 crossings.
HUGE_INPUTS = {
    "brute": "MAX_SEARCH_REGIONS",
    "verify": "MAX_CROSSINGS",
    "schedule": "MAX_CROSSINGS",
    "probe 1000 1001": "MAX_PROBE_CROSSINGS",
    "jones 1 --strands 13": "MAX_STRANDS",
    "word --family toric --p 1000000 --i 1000000": "MAX_CROSSINGS",
    "word --family mu --p 1000000000 --i 1": "MAX_CROSSINGS",
    "word --family generator_run --i 1 --j 3000000000": "MAX_CROSSINGS",
    "word --family staircase --p 1000": "MAX_CROSSINGS",
}


@pytest.mark.parametrize("command", list(HUGE_INPUTS))
def test_huge_diagram_is_refused_before_it_is_built(command):
    # Building the diagram or word would raise MemoryError under these
    # limits, or run out of CPU time (the staircase word of 1000 strands
    # took 39 s), and `schedule` once printed two lines first.
    argv = command.split() if " " in command else [command, "2", "1000001"]
    done = run_python(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (1, 1))
        from regionum.cli import main

        sys.exit(main({argv!r}))
    """)
    assert (done.returncode, done.stdout) == (1, ""), done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"{argv[0]}: ")
    assert f", over {HUGE_INPUTS[command]} " in done.stderr
    assert "Traceback" not in done.stderr


def test_schedule_prints_the_case_regions_and_target_verify_certifies(capsys):
    for p in range(2, 7):
        for q in range(p + 1, 6 * p + 6):
            if not is_proper(p, q):
                continue
            code, out, _ = run(capsys, "verify", str(p), str(q))
            assert code == 0
            cert = json.loads(out)
            assert run(capsys, "schedule", str(p), str(q)) == (0, "".join([
                f"case: {cert['case']}\n",
                f"regions ({len(cert['regions'])}): {' '.join(map(str, cert['regions']))}\n",
                f"target: {' '.join(map(str, cert['target_word']))}\n",
            ]), "")


@pytest.mark.parametrize("command", ["schedule", "verify"])
def test_a_printed_target_the_schedule_does_not_make_exits_2(capsys, monkeypatch, command):
    # K(3,4) is q = np+1 with p odd, whose proof prints staircase(3) mu(3,1);
    # a printed word the schedule does not produce must stop both commands
    # before they print anything
    case = bounds.TheoremCase.NP1_P_ODD
    record = bounds._CASES[case]
    wrong = record._replace(target=lambda p, n, a: record.target(p, n, a).mirror())
    monkeypatch.setitem(bounds._CASES, case, wrong)
    code, out, err = run(capsys, command, "3", "4")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal inconsistency:")
