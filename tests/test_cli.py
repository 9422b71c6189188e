import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chaintop import suite
from chaintop.chains import SAMPLE_CAP
from chaintop.cli import main
from chaintop.errors import CapExceeded
from chaintop.topology import CANONICAL_NAMES

SRC = str(Path(__file__).resolve().parent.parent / "src")

C3 = '{"n": 3, "mode": "hasse", "pairs": [[0, 1], [1, 2]]}'


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(C3)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_check(capsys, c3_file):
    code, out, _ = run_cli(capsys, "poset", "check", c3_file)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["n"] == 3


def test_poset_check_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "mode": "full", "pairs": [[0,1],[1,0]]}')
    code, _, err = run_cli(capsys, "poset", "check", str(bad))
    assert code == 2
    assert "antisymmetric" in err


def test_poset_check_rejects_a_poset_above_the_cap(capsys, tmp_path):
    big = tmp_path / "c17.json"
    big.write_text(json.dumps({"n": 17, "pairs": [[i, i + 1] for i in range(16)]}))
    code, out, err = run_cli(capsys, "poset", "check", str(big))
    assert (code, out, err) == (2, "", "error: size 17 exceeds exhaustive cap 16\n")


def test_poset_check_rejects_a_huge_size_before_building_rows(tmp_path):
    # a billion rows would not fit under the address-space limit, so an
    # exit within it shows the cap is checked before they are built
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1000000000, "pairs": []}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    limit = 1 << 30
    fresh = subprocess.run(
        [sys.executable, "-m", "chaintop.cli", "poset", "check", str(huge)],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        2, "", "error: size 1000000000 exceeds exhaustive cap 16\n"
    )


def test_poset_classify_and_maxchains(capsys, c3_file):
    code, out, _ = run_cli(capsys, "poset", "classify", c3_file)
    assert code == 0 and json.loads(out)["is_chain"]
    code, out, _ = run_cli(capsys, "poset", "maxchains", c3_file)
    assert json.loads(out) == [[0, 1, 2]]


def test_poset_query(capsys, c3_file):
    code, out, _ = run_cli(capsys, "poset", "query", c3_file, "cone", "--set", "1", "--dir", "down")
    assert json.loads(out) == [0, 1]
    code, out, _ = run_cli(capsys, "poset", "query", c3_file, "extremum", "--set", "0,1", "--kind", "sup")
    assert json.loads(out) == 1
    code, out, _ = run_cli(capsys, "poset", "query", c3_file, "dmclosure", "--set", "1")
    assert json.loads(out) == [0, 1]
    code, out, _ = run_cli(capsys, "poset", "query", c3_file, "directed", "--set", "")
    assert json.loads(out) is False


def test_poset_cutstable(capsys, tmp_path, c3_file):
    c2 = tmp_path / "c2.json"
    c2.write_text('{"n": 2, "mode": "hasse", "pairs": [[0, 1]]}')
    code, out, _ = run_cli(capsys, "poset", "cutstable", str(c2), c3_file, "--image", "0,2")
    assert code == 0 and json.loads(out) is True


def test_topo_roundtrip(capsys, c3_file, tmp_path):
    code, out, _ = run_cli(capsys, "topo", "make", c3_file, "upper")
    assert code == 0
    nu = tmp_path / "nu.json"
    nu.write_text(out)
    code, out, _ = run_cli(capsys, "topo", "make", c3_file, "scott")
    sc = tmp_path / "sc.json"
    sc.write_text(out)
    code, out, _ = run_cli(capsys, "topo", "equal", str(nu), str(sc))
    assert code == 0 and json.loads(out) is True
    code, out, _ = run_cli(capsys, "topo", "join", str(nu), str(sc))
    assert json.loads(out)["n"] == 3


def test_topo_equal_differs(capsys, c3_file, tmp_path):
    for name in ("upper", "lower"):
        code, out, _ = run_cli(capsys, "topo", "make", c3_file, name)
        (tmp_path / f"{name}.json").write_text(out)
    code, out, _ = run_cli(capsys, "topo", "equal", str(tmp_path / "upper.json"), str(tmp_path / "lower.json"))
    assert code == 1 and json.loads(out) is False


def test_topo_report(capsys, c3_file):
    code, out, _ = run_cli(capsys, "topo", "report", c3_file, "intrinsic")
    assert json.loads(out) == {
        "t1": True,
        "hausdorff": True,
        "normal": True,
        "completely_normal": True,
    }


def test_topo_report_on_a_16_point_chain(capsys, tmp_path):
    chain16 = tmp_path / "c16.json"
    chain16.write_text(json.dumps({"n": 16, "pairs": [[i, i + 1] for i in range(15)]}))
    for name in CANONICAL_NAMES:
        code, out, err = run_cli(capsys, "topo", "report", str(chain16), name)
        assert code == 0 and err == "", name
        # the ray topologies of a chain are not T1; every other name is discrete
        discrete = name not in ("upper", "lower", "scott", "dual_scott")
        assert json.loads(out) == {
            "t1": discrete, "hausdorff": discrete, "normal": True, "completely_normal": True,
        }, name


def test_topo_report_rejects_the_removed_hereditary_cap(capsys, c3_file):
    with pytest.raises(SystemExit) as exc:
        main(["topo", "report", c3_file, "intrinsic", "--hereditary-cap", "8"])
    assert exc.value.code == 2


def test_waybelow(capsys, c3_file):
    code, out, _ = run_cli(capsys, "waybelow", "0", "1", "--poset", c3_file)
    assert json.loads(out) is True
    code, out, _ = run_cli(capsys, "waybelow", "1/2", "1/2", "--chain", "rat01")
    assert json.loads(out) is False
    code, out, _ = run_cli(capsys, "waybelow", "1", "2", "--poset", c3_file, "--www")
    assert json.loads(out) is True


def test_waybelow_bad_poset_index_exits_2(capsys, c3_file):
    code, out, err = run_cli(capsys, "waybelow", "a", "1", "--poset", c3_file)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("waybelow", "0", "1"),
        ("decompose", "--set", "0"),
        ("waybelow", "1/2", "1/2", "--chain", "rat01", "--poset", "{c3}"),
        ("decompose", "--chain", "int", "--poset", "{c3}", "--set", "0"),
    ],
)
def test_waybelow_and_decompose_take_exactly_one_of_poset_and_chain(capsys, c3_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(c3=c3_file) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: " in captured.err and "--poset" in captured.err


def test_suite_error_keeps_the_claim_prefix_and_exits_2(capsys, monkeypatch):
    def capped(cfg):
        raise CapExceeded(17, 16)

    monkeypatch.setitem(suite._CLAIM_FUNCTIONS, "prop5", capped)
    code, out, err = run_cli(capsys, "suite", "run", "--max-n", "3", "--claims", "prop5", "--json")
    assert (code, out, err) == (2, "", "error: [prop5] size 17 exceeds exhaustive cap 16\n")


@pytest.mark.parametrize(
    "sizes, message",
    [
        (("--min-n", "17", "--max-n", "17"), "size 17 exceeds exhaustive cap 16"),
        (("--max-n", "17"), "size 17 exceeds exhaustive cap 16"),
        (("--min-n", "0"), "size range 0..7 is empty or starts below 1"),
    ],
)
def test_suite_size_range_fails_before_any_claim_runs(capsys, monkeypatch, sizes, message):
    def never(cfg):
        raise AssertionError("a claim ran")

    monkeypatch.setitem(suite._CLAIM_FUNCTIONS, "prop5", never)
    code, out, err = run_cli(capsys, "suite", "run", *sizes, "--claims", "prop5", "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_suite_run(capsys):
    code, out, err = run_cli(
        capsys, "suite", "run", "--claims", "cor6,prop5", "--max-n", "4", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [c["claim"] for c in report["claims"]] == ["cor6", "prop5"]
    assert "prop5" in err  # human table on stderr


def test_suite_run_json_only(capsys):
    code, out, err = run_cli(
        capsys, "suite", "run", "--claims", "cor6", "--max-n", "3", "--json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert err == ""


def test_suite_run_with_fault_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "suite", "run", "--claims", "prop5", "--max-n", "3", "--inject-fault", "scott",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_search(capsys):
    code, out, _ = run_cli(capsys, "search", "pospace_fails_for_upper", "--min-n", "2", "--max-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["found"] and "witness" in data


def test_decompose_chain(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--chain", "int", "--intervals", "[1,3],[4,6]")
    assert json.loads(out) == {"normalized": "[1,6]", "components": ["[1,6]"]}


def test_decompose_finite(capsys, c3_file):
    code, out, _ = run_cli(
        capsys, "decompose", "--poset", c3_file, "--name", "intrinsic", "--set", "0,2"
    )
    assert json.loads(out) == [[0], [2]]


def test_separate(capsys):
    code, out, _ = run_cli(
        capsys,
        "separate", "--chain", "rat01", "--lower", "(-inf,1/2]", "--point", "3/4", "--depth", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verification"] == {
        "monotone_ok": True,
        "zero_on_A_ok": True,
        "one_at_x_ok": True,
        "continuity_ok": True,
    }
    assert data["function"]["cuts"][0]["value"] == "0"


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "poset", "check", "/nonexistent/p.json")
    assert code == 2 and "error" in err


def test_bad_topology_files_exit_2(capsys, tmp_path, c3_file):
    code, out, _ = run_cli(capsys, "topo", "make", c3_file, "upper")
    ok = tmp_path / "ok.json"
    ok.write_text(out)
    for label, opens in (
        ("missing-carrier", [[], [0], [0, 1]]),
        ("not-union-closed", [[], [0], [1], [0, 1, 2]]),
    ):
        bad = tmp_path / f"{label}.json"
        bad.write_text(json.dumps({"n": 3, "opens": opens}))
        code, out, err = run_cli(capsys, "topo", "equal", str(bad), str(ok))
        assert code == 2 and out == "" and err.startswith("error:"), label


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "query", "{c3}", "cone", "--set", "a"),
        ("poset", "query", "{c3}", "cone", "--set", "-1"),
        ("poset", "cutstable", "{c3}", "{c3}", "--image", "0,x,2"),
        ("decompose", "--poset", "{c3}", "--set", "0,,2"),
    ],
)
def test_bad_index_lists_exit_2(capsys, c3_file, argv):
    code, out, err = run_cli(capsys, *(a.format(c3=c3_file) for a in argv))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("depth", ["-1", "13"])
def test_separate_depth_out_of_range_exits_2(capsys, depth):
    code, out, err = run_cli(
        capsys,
        "separate", "--chain", "rat01", "--lower", "(-inf,1/2]", "--point", "3/4", "--depth", depth,
    )
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("samples", ["0", str(SAMPLE_CAP + 1)])
def test_separate_samples_out_of_range_exits_2(capsys, samples):
    code, out, err = run_cli(
        capsys,
        "separate", "--chain", "rat01", "--lower", "(-inf,1/2]", "--point", "3/4",
        "--depth", "3", "--samples", samples,
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_commands_in_one_process_match_fresh_processes(capsys, c3_file, tmp_path):
    # the parser is built once per process; several different commands
    # through it must answer as a fresh interpreter does
    upper = tmp_path / "upper.json"
    commands = [
        ("topo", "make", c3_file, "upper"),
        ("poset", "query", c3_file, "cone", "--set", "1", "--dir", "up"),
        ("topo", "equal", str(upper), str(upper)),
        ("suite", "run", "--claims", "prop5", "--max-n", "3", "--json", "--inject-fault", "scott"),
        ("waybelow", "0", "1", "--poset", c3_file, "--www"),
        ("suite", "run", "--claims", "prop5", "--max-n", "3", "--json"),
        ("poset", "query", c3_file, "cone", "--set", "1"),
    ]
    upper.write_text(run_cli(capsys, *commands[0])[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "chaintop.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
