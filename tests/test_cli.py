import json

import pytest

from regionum.cli import main


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


def test_brute_json(capsys):
    code, out, _ = run(capsys, "brute", "2", "5", "--max-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 1


def test_probe_json(capsys):
    code, out, _ = run(capsys, "probe", "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["proper"] and payload["bound"] == 1 and payload["brute"] == 1


def test_jones_command(capsys):
    code, out, _ = run(capsys, "jones", "1 1 1")
    assert code == 0
    assert out.strip() == "-1*t^-4 +1*t^-3 +1*t^-1"


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
    assert lines[0] == "p,q,components,proper,min_bound,case"
    assert len(lines) == 1 + 2 * 4
    assert any(",no,," in line for line in lines)


def test_unknown_command_exits_with_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv,env",
    [
        (["proper", "1", "5"], None),
        (["bound", "0", "3"], None),
        (["verify", "3", "0"], None),
        (["table", "2", "3", "0", "2"], None),
        (["jones", "1 x"], None),
        (["brute", "9", "10"], None),
        (["probe", "5", "6"], None),
        (["verify", "3", "4"], "abc"),
        (["jones", "1", "--strands", "13"], None),
    ],
)
def test_bad_input_is_refused_in_one_line(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("REGIONUM_BUDGET", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in err
