"""End-to-end CLI behavior: verbs, formats, exit codes, determinism."""

import json
import re

import pytest

from convexitylab import cli
from convexitylab.cli import main
from convexitylab.fileio import dumps, parse_any


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload) if not isinstance(payload, str) else payload)
    return path


M3_SYSTEM = {"ground": ["a", "b", "c"], "closed": [[], [0], [1], [2], [0, 1, 2]]}


def test_gen_chain_intervals(tmp_path, capsys):
    out = tmp_path / "sys.json"
    code, _, _ = run_cli(capsys, "gen", "chain-intervals:3", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["closed"]) == 7
    assert payload["provenance"]["generator"] == "chain-intervals:3"


def test_gen_perm_and_check(tmp_path, capsys):
    out = tmp_path / "perm.json"
    assert run_cli(capsys, "gen", "perm:[1,0]", "--output", str(out))[0] == 0
    code, stdout, _ = run_cli(capsys, "check", str(out), "convex-geometry")
    assert code == 0
    report = json.loads(stdout)
    assert report["verdicts"]["convex-geometry"] is True


def test_gen_omega_emits_semilattice(tmp_path, capsys):
    out = tmp_path / "omega.json"
    assert run_cli(capsys, "gen", "omega:2", "--output", str(out))[0] == 0
    payload = json.loads(out.read_text())
    assert len(payload["elements"]) == 7
    assert "join" in payload


def test_gen_points_subsemilattices_suborders_multichain(tmp_path, capsys):
    points = write(
        tmp_path,
        "points.json",
        {
            "dim": 2,
            "points": [
                {"label": "a", "coords": ["0", "0"]},
                {"label": "b", "coords": ["1", "0"]},
                {"label": "c", "coords": ["2", "0"]},
            ],
        },
    )
    code, stdout, _ = run_cli(capsys, "gen", f"points:{points}")
    assert code == 0 and len(json.loads(stdout)["closed"]) == 7

    poset = write(
        tmp_path,
        "poset.json",
        {"elements": ["x", "y", "z"], "covers": [["x", "y"], ["y", "z"]]},
    )
    code, stdout, _ = run_cli(capsys, "gen", f"subsemilattices:{poset}")
    assert code == 0 and json.loads(stdout)["ground"] == ["x", "y", "z"]
    code, stdout, _ = run_cli(capsys, "gen", f"suborders:{poset}")
    assert code == 0 and len(json.loads(stdout)["closed"]) == 7

    multichain = write(
        tmp_path,
        "multi.json",
        {"elements": ["x", "y", "z"], "orders": [[0, 1, 2], [2, 1, 0]]},
    )
    code, stdout, _ = run_cli(capsys, "gen", f"multichain:{multichain}")
    assert code == 0 and len(json.loads(stdout)["closed"]) == 7


def test_check_verbs(tmp_path, capsys):
    m3_file = write(tmp_path, "m3.json", M3_SYSTEM)
    code, stdout, _ = run_cli(capsys, "check", str(m3_file), "characterization")
    assert code == 1
    report = json.loads(stdout)
    assert report["verdicts"]["characterization"] is False
    assert set(report["witnesses"]["characterization"]) == {"kind", "y", "u", "v"}

    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    assert run_cli(capsys, "check", str(chain), "anti-exchange")[0] == 0
    assert run_cli(capsys, "check", str(chain), "super-solvable:0,2,1")[0] == 0
    assert run_cli(capsys, "check", str(chain), "super-solvable:0,1,2")[0] == 1
    code, stdout, _ = run_cli(capsys, "check", str(chain), "super-solvable")
    assert code == 0 and json.loads(stdout)["results"]["ordering"] == [0, 2, 1]
    # interval lattices of chains contain N5 copies; down-set systems are
    # distributive
    assert run_cli(capsys, "check", str(chain), "distributive")[0] == 1
    downsets = tmp_path / "downsets.json"
    run_cli(capsys, "gen", "perm:[0,1,2]", "--output", str(downsets))
    assert run_cli(capsys, "check", str(downsets), "distributive")[0] == 0
    assert run_cli(capsys, "check", str(m3_file), "distributive")[0] == 1
    assert run_cli(capsys, "check", str(m3_file), "modular")[0] == 0


def test_analyze_verbs(tmp_path, capsys):
    m3_file = write(tmp_path, "m3.json", M3_SYSTEM)
    code, stdout, _ = run_cli(capsys, "analyze", str(m3_file), "dimension")
    assert code == 0 and json.loads(stdout)["results"]["join_dimension"] == 3

    square = write(
        tmp_path,
        "square.json",
        {
            "dim": 2,
            "points": [
                {"label": "a", "coords": ["0", "0"]},
                {"label": "b", "coords": ["1", "0"]},
                {"label": "c", "coords": ["1", "1"]},
                {"label": "d", "coords": ["0", "1"]},
            ],
        },
    )
    sq_system = tmp_path / "sq_system.json"
    run_cli(capsys, "gen", f"points:{square}", "--output", str(sq_system))
    code, stdout, _ = run_cli(capsys, "analyze", str(sq_system), "independent")
    assert code == 0 and json.loads(stdout)["results"]["independent_size"] == 4

    code, stdout, _ = run_cli(capsys, "analyze", str(m3_file), "irreducibles")
    assert code == 0
    assert len(json.loads(stdout)["results"]["join_irreducibles"]) == 3

    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    code, stdout, _ = run_cli(capsys, "analyze", str(chain), "duality")
    assert code == 0 and json.loads(stdout)["verdicts"]["duality"] is True

    code, stdout, _ = run_cli(
        capsys, "analyze", str(chain), "obstruction:boolean=2,omega=1"
    )
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["boolean_embeds"] == {"1": True, "2": True}

    omega = tmp_path / "omega.json"
    run_cli(capsys, "gen", "omega:2", "--output", str(omega))
    code, stdout, _ = run_cli(capsys, "analyze", str(omega), "dimension")
    assert code == 0 and json.loads(stdout)["results"]["join_dimension"] == 2


def test_analyze_dimension_on_semilattice_files_of_any_size(tmp_path, capsys):
    # The nonempty subsets of a 3-set under union, with a 4-chain above
    # them: 11 elements, no bottom; the meet-irreducibles are the three
    # 2-sets (an antichain) and the chain below its top.
    masks = list(range(1, 8)) + [0b1111, 0b11111, 0b111111, 0b1111111]
    join = [[masks.index(a | b) for b in masks] for a in masks]
    path = write(tmp_path, "eleven.json", {"elements": [format(m, "b") for m in masks], "join": join})
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "dimension")
    assert code == 0 and json.loads(stdout)["results"] == {"join_dimension": 3}
    # Five atoms between a bottom and a top: join-dimension 5.
    masks = [0, 1, 2, 4, 8, 16, 31]
    join = [[masks.index(a | b) if a | b in masks else 6 for b in masks] for a in masks]
    path = write(tmp_path, "m5.json", {"elements": list("0abcde") + ["1"], "join": join})
    code, stdout, _ = run_cli(capsys, "analyze", str(path), "dimension")
    assert code == 0 and json.loads(stdout)["results"] == {"join_dimension": 5}


def test_analyze_obstruction_on_bit_reversal_geometry(tmp_path, capsys):
    sigma = [int(format(i, "03b")[::-1], 2) for i in range(8)]
    system = tmp_path / "bitrev.json"
    run_cli(capsys, "gen", f"perm:{json.dumps(sigma)}", "--output", str(system))
    code, stdout, _ = run_cli(
        capsys, "analyze", str(system), "obstruction:boolean=1,omega=2"
    )
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["omega_embeds"] == {"1": True, "2": True}


def test_exit_codes_for_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{broken")
    assert run_cli(capsys, "check", str(bad), "anti-exchange")[0] == 2
    missing_meet = write(
        tmp_path,
        "nofam.json",
        {"ground": ["a", "b", "c"], "closed": [[], [0, 1], [1, 2], [0, 1, 2]]},
    )
    assert run_cli(capsys, "check", str(missing_meet), "anti-exchange")[0] == 2
    assert run_cli(capsys, "gen", "omega:9")[0] == 3
    assert run_cli(capsys, "gen", "omega:13")[0] == 3
    # refused before any of its n(n+1)/2 intervals is built
    code, stdout, err = run_cli(capsys, "gen", "chain-intervals:1000000")
    assert (code, stdout) == (3, "")
    assert "ground set size 1000000 exceeds the enumeration bound 20" in err
    # refused before any order's n + 1 prefix masks (about 5 GB here) are built
    names = 200_000
    big = write(
        tmp_path,
        "big-multichain.json",
        {"elements": [f"e{i}" for i in range(names)], "orders": [list(range(names))] * 2},
    )
    code, stdout, err = run_cli(capsys, "gen", f"multichain:{big}")
    assert (code, stdout) == (3, "")
    assert f"ground set size {names} exceeds the enumeration bound 20" in err
    assert run_cli(capsys, "gen", "nonsense:1")[0] == 2
    assert run_cli(capsys, "check", str(tmp_path / "absent.json"), "anti-exchange")[0] == 2
    no_points = write(tmp_path, "empty.json", {"dim": 2, "points": []})
    assert run_cli(capsys, "gen", f"points:{no_points}")[0] == 2
    malformed = [
        # a semilattice file whose join is not commutative
        ("analyze", {"elements": ["a", "b"], "join": [[0, 1], [0, 1]]}, "obstruction:boolean=1"),
        ("analyze", {"elements": ["a", "b"], "join": [[0, "x"], ["x", 1]]}, "dimension"),
        ("analyze", {"elements": ["a", "b"], "join": [[0, True], [True, 1]]}, "dimension"),
        ("analyze", {"elements": ["a", "b"], "join": 5}, "dimension"),
        ("analyze", {"elements": [["a"], "b"], "join": [[0, 1], [1, 1]]}, "dimension"),
        ("points", {"dim": 2, "points": [{"label": ["p"], "coords": ["0", "0"]}]}, None),
        ("points", {"dim": 2, "points": [{"label": 5, "coords": ["0", "0"]}]}, None),
        ("points", {"dim": 2, "points": [{"coords": "12"}]}, None),
        ("points", {"dim": 2, "points": 5}, None),
        ("multichain", {"elements": [["a"], "b"], "orders": [[0, 1], [1, 0]]}, None),
        ("multichain", {"elements": ["a", "b"], "orders": [[False, True], [1, 0]]}, None),
        ("subsemilattices", {"elements": ["a", "b"], "covers": [[["a"], "b"]]}, None),
        ("check", {"ground": ["a", "b"], "closed": [["x"], [0, 1]]}, "anti-exchange"),
        ("check", {"ground": ["a", "b"], "closed": [[True], [0, 1]]}, "anti-exchange"),
        ("check", {"ground": ["a", "b"], "closed": 5}, "anti-exchange"),
    ]
    for k, (verb, payload, which) in enumerate(malformed):
        path = write(tmp_path, f"malformed{k}.json", payload)
        argv = [verb, str(path), which] if which else ["gen", f"{verb}:{path}"]
        assert run_cli(capsys, *argv)[0] == 2, payload
    assert run_cli(capsys, "gen", "perm:[true,0]")[0] == 2
    # An output path that cannot be written is an input error, and no
    # report goes to stdout in its place.
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    unwritable = tmp_path / "no-such-dir" / "x.json"
    for argv in (
        ["check", str(chain), "modular"],
        ["analyze", str(chain), "irreducibles"],
        ["gen", "chain-intervals:3"],
        ["export", str(chain), "dot"],
    ):
        code, stdout, err = run_cli(capsys, *argv, "--output", str(unwritable))
        assert (code, stdout) == (2, ""), argv
        assert f"cannot write {unwritable}" in err
    code, stdout, err = run_cli(capsys, "check", str(chain), "modular", "--output", str(tmp_path))
    assert (code, stdout) == (2, "") and "cannot write" in err
    assert not unwritable.parent.exists()
    # Negative obstruction parameters are input errors; parameters whose
    # pattern exceeds the search's 32 elements are capacity errors.
    for which in ("obstruction:boolean=-1", "obstruction:omega=-2", "obstruction:boolean=1,omega=-1"):
        assert run_cli(capsys, "analyze", str(chain), which)[0] == 2, which
    for which, name in (
        ("obstruction:boolean=99", "boolean=99"),
        ("obstruction:boolean=6,omega=1", "boolean=6"),
        ("obstruction:boolean=1,omega=5", "omega=5"),
    ):
        code, _, err = run_cli(capsys, "analyze", str(chain), which)
        assert code == 3 and name in err, which
    assert run_cli(capsys, "analyze", str(chain), "obstruction:boolean=5,omega=4")[0] == 0


def test_reports_are_deterministic(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))

    def run_once():
        _, stdout, _ = run_cli(capsys, "check", str(chain), "convex-geometry")
        payload = json.loads(stdout)
        payload.pop("timing_ms")
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


def test_text_format(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    code, stdout, _ = run_cli(
        capsys, "check", str(chain), "convex-geometry", "--format", "text"
    )
    assert code == 0
    assert "check convex-geometry: PASS" in stdout


def test_export_round_trip_and_dot(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:2", "--output", str(chain))
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert run_cli(capsys, "export", str(chain), "json", "--output", str(one))[0] == 0
    assert run_cli(capsys, "export", str(one), "json", "--output", str(two))[0] == 0
    assert one.read_text() == two.read_text()
    code, stdout, _ = run_cli(capsys, "export", str(chain), "dot")
    assert code == 0
    assert stdout.count("->") == 4 and stdout.count("[label=") == 4


def test_bound_flag_and_env(tmp_path, capsys, monkeypatch):
    big = write(
        tmp_path,
        "big.json",
        {
            "dim": 2,
            "points": [
                {"label": f"p{i}", "coords": [str(i), str(i * i)]} for i in range(5)
            ],
        },
    )
    assert run_cli(capsys, "gen", f"points:{big}", "--bound", "4")[0] == 3
    assert run_cli(capsys, "gen", f"points:{big}", "--bound", "-1")[0] == 2
    monkeypatch.setenv("CONVEXITY_LAB_BOUND", "4")
    assert run_cli(capsys, "gen", f"points:{big}")[0] == 3
    for bad in ("abc", "-3", "4.5"):
        monkeypatch.setenv("CONVEXITY_LAB_BOUND", bad)
        code, _, err = run_cli(capsys, "gen", f"points:{big}")
        assert code == 2 and "input error" in err
    monkeypatch.delenv("CONVEXITY_LAB_BOUND")
    assert run_cli(capsys, "gen", f"points:{big}")[0] == 0
    # The three strict pairs of a 3-chain form the ground set of its suborders.
    chain = write(
        tmp_path, "chain.json", {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
    )
    code, _, err = run_cli(capsys, "gen", f"suborders:{chain}", "--bound", "2")
    assert code == 3 and "ground set size 3 exceeds the enumeration bound 2" in err
    assert run_cli(capsys, "gen", f"suborders:{chain}", "--bound", "3")[0] == 0
    # A bichain has no cap of its own: 20 images fit the default bound.
    code, stdout, _ = run_cli(capsys, "gen", f"perm:{list(range(19, -1, -1))}")
    assert code == 0 and len(json.loads(stdout)["closed"]) == 211  # the intervals of a 20-chain
    code, _, err = run_cli(capsys, "gen", f"perm:{list(range(21))}")
    assert code == 3 and "ground set size 21 exceeds the enumeration bound 20" in err


def test_seed_flag_is_echoed(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    _, stdout, _ = run_cli(
        capsys, "check", str(chain), "anti-exchange", "--seed", "42"
    )
    assert json.loads(stdout)["seed"] == 42


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli._build_parser.cache_clear()
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    for which in ("modular", "anti-exchange", "characterization"):
        run_cli(capsys, "check", str(chain), which)
    run_cli(capsys, "export", str(chain), "dot")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_calls_share_no_options(tmp_path, capsys, monkeypatch):
    """Each call starts from the defaults, whatever the call before set."""
    monkeypatch.delenv("CONVEXITY_LAB_BOUND", raising=False)
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    out = tmp_path / "o.json"

    def plain_report():
        code, stdout, _ = run_cli(capsys, "check", str(chain), "modular")
        assert code == 1
        return json.loads(stdout)

    flags = ["--format", "text", "--bound", "5", "--seed", "7", "--output", str(out)]
    for argv in (["check", str(chain), "modular", *flags], [*flags, "check", str(chain), "modular"]):
        code, stdout, _ = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert out.read_text().startswith("command: ")
        report = plain_report()
        assert (report["bound"], report["seed"]) == (20, None)
    monkeypatch.setenv("CONVEXITY_LAB_BOUND", "7")
    assert plain_report()["bound"] == 7
    monkeypatch.setenv("CONVEXITY_LAB_BOUND", "9")
    assert plain_report()["bound"] == 9
    monkeypatch.delenv("CONVEXITY_LAB_BOUND")
    with pytest.raises(SystemExit) as stop:
        main(["check", str(chain), "modular", "--bound", "abc"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert plain_report()["bound"] == 20


def test_reports_match_a_freshly_built_parser(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    run_cli(capsys, "gen", "chain-intervals:3", "--output", str(chain))
    omega = tmp_path / "omega.json"
    run_cli(capsys, "gen", "omega:1", "--output", str(omega))
    calls = [
        ["gen", "chain-intervals:4"],
        ["gen", "perm:[2,0,1]", "--bound", "5"],
        ["check", str(chain), "distributive"],
        ["check", str(chain), "super-solvable", "--format", "text"],
        ["analyze", str(chain), "irreducibles", "--seed", "3"],
        ["analyze", str(omega), "obstruction:boolean=2,omega=2"],
        ["export", str(chain), "json"],
        ["export", str(chain), "dot"],
        ["check", str(chain), "nonsense"],
    ]

    def output(argv):
        code, stdout, err = run_cli(capsys, *argv)
        return code, re.sub(r'timing_ms"?: \d+', "timing_ms", stdout), err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(output(argv))
    assert [output(argv) for argv in calls] == fresh


def test_parse_any_rejects_binary(tmp_path):
    assert parse_any("[1, 2]") == [1, 2]
    with pytest.raises(Exception):
        parse_any("")
