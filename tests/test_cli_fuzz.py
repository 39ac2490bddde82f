"""Fuzzed CLI contract: whatever the arguments and file contents,
``cli.main`` returns an exit code 0-3 or argparse stops with
``SystemExit(2)``; no other exception leaves it.  A negative parameter
in a verb's argument is an input error (exit 2)."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexitylab.cli import main

# One well-formed payload per file kind; the fuzzer damages one spot.
TEMPLATES = {
    "system": {"ground": ["a", "b", "c"], "closed": [[], [0], [1], [2], [0, 1, 2]]},
    "semilattice": {
        "elements": ["0", "a", "b", "1"],
        "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
    },
    "points": {
        "dim": 2,
        "points": [
            {"label": "p", "coords": ["0", "0"]},
            {"label": "q", "coords": ["2", "0"]},
            {"label": "r", "coords": ["0", "1/2"]},
            {"label": "s", "coords": ["1", "1"]},
        ],
    },
    "poset": {"elements": ["x", "y", "z"], "covers": [["x", "y"], ["x", "z"]]},
    "multichain": {"elements": ["x", "y", "z"], "orders": [[0, 1, 2], [2, 0, 1]]},
    "permutation": [2, 0, 1],
}

# Integers as text: negative, zero, small, just past a capacity bound,
# huge, and not integers at all.
NUMBERS = st.sampled_from(
    ["-1", "-7", "0", "1", "2", "3", "5", "6", "9", "33", str(10**30), "-" + str(10**30),
     "1" * 5000, "abc", "", "2.5", " 3"]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from([-1, 0, 1, 2, 3, 7, 10**30, -(10**30), 0.5])
    | st.sampled_from(["", "a", "x", "0", "1/0", "p/q", "nan", "1e9"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "0"]), inner, max_size=2),
    max_leaves=6,
)
RAW_TEXTS = st.sampled_from(
    ["", "{broken", "null", "[]", "{}", "5", '"text"', "[" * 100000, "1" * 5000, "[1, 2]", "\x00\xff"]
)


def _spots(value, path=()):
    """Every position inside a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key in value:
            yield from _spots(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _spots(item, path + (i,))


@st.composite
def payload_texts(draw, kind):
    """The file text: the kind's template, intact or with one spot
    replaced or removed, or raw text that is no such payload."""
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return draw(RAW_TEXTS)
    payload = json.loads(json.dumps(TEMPLATES[kind]))
    if choice == 1:
        return json.dumps(payload)
    path = draw(st.sampled_from(list(_spots(payload))))
    if not path:
        return json.dumps(draw(JSON_VALUES))
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    if draw(st.booleans()):
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        del parent[path[-1]]
    return json.dumps(payload)


@st.composite
def which_args(draw, verb):
    if verb == "check":
        names = ["anti-exchange", "convex-geometry", "characterization", "distributive",
                 "modular", "super-solvable", "nonsense"]
        name = draw(st.sampled_from(names + ["super-solvable:"]))
        if name.endswith(":"):
            name += ",".join(draw(st.lists(NUMBERS, min_size=1, max_size=4)))
        return name
    if verb == "analyze":
        names = ["irreducibles", "independent", "dimension", "duality", "nonsense"]
        if draw(st.booleans()):
            return draw(st.sampled_from(names))
        keys = st.sampled_from(["boolean", "omega", "other", ""])
        parts = draw(st.lists(st.tuples(keys, NUMBERS), max_size=3))
        return "obstruction:" + ",".join(f"{k}={v}" for k, v in parts)
    return draw(st.sampled_from(["dot", "json", "svg"]))


FLAGS = st.lists(
    st.sampled_from(
        [["--bound", "2"], ["--bound", "5"], ["--format", "text"], ["--format", "json"],
         ["--seed", "7"], ["--output", "{dir}/out.txt"], ["--output", "{dir}/out.txt"],
         ["--bound", "-1"], ["--bound", "abc"], ["--format", "xml"], ["--seed", "x"],
         ["--output", "{dir}/missing/out.txt"], ["--output", "{dir}"], ["--unknown"]]
    ),
    max_size=2,
)


@st.composite
def invocations(draw):
    """(argv with "{file}" and "{dir}" placeholders, file text or None)."""
    verb = draw(st.sampled_from(["gen", "check", "analyze", "export"] * 2 + ["bogus"]))
    flags = [part for flag in draw(FLAGS) for part in flag]
    if verb == "gen":
        kind = draw(st.sampled_from(["points", "subsemilattices", "suborders", "multichain",
                                     "perm", "chain-intervals", "omega", "nonsense"]))
        if kind in ("chain-intervals", "omega"):
            return ["gen", f"{kind}:{draw(NUMBERS)}"] + flags, None
        if kind == "perm":
            return ["gen", "perm:" + draw(payload_texts("permutation"))] + flags, None
        file_kind = {"points": "points", "multichain": "multichain"}.get(kind, "poset")
        return ["gen", f"{kind}:{{file}}"] + flags, draw(payload_texts(file_kind))
    kind = draw(st.sampled_from(["system", "semilattice"] if verb == "analyze" else ["system"]))
    argv = [verb, "{file}"] + ([draw(which_args(verb))] if verb != "bogus" else []) + flags
    return argv, draw(payload_texts(kind))


def _negative_parameter(argv) -> bool:
    """Whether the verb's argument carries a negative integer."""
    arg = argv[2] if argv[0] in ("check", "analyze") and len(argv) > 2 else argv[1]
    parts = arg.partition(":")[2].replace("=", ",").split(",")
    return any(p.startswith("-") and p[1:].isdigit() for p in parts)


@settings(max_examples=300)
@given(invocations())
# an output path whose directory is missing
@example((["check", "{file}", "modular", "--output", "{dir}/missing/out.txt"], json.dumps(TEMPLATES["system"])))
@example((["analyze", "{file}", "independent", "--output", "{dir}"], json.dumps(TEMPLATES["system"])))
# negative obstruction parameters
@example((["analyze", "{file}", "obstruction:boolean=-1"], json.dumps(TEMPLATES["system"])))
@example((["analyze", "{file}", "obstruction:omega=-2"], json.dumps(TEMPLATES["semilattice"])))
# numbers beyond the integer-string limit, and nesting beyond the recursion limit
@example((["check", "{file}", "modular"], '{"ground": ["a"], "closed": [[' + "1" * 5000 + "]]}"))
@example((["gen", "perm:[" + "1" * 5000 + "]"], None))
@example((["gen", "chain-intervals:" + str(10**30)], None))
@example((["analyze", "{file}", "dimension"], "[" * 100000))
def test_cli_ends_in_an_exit_code(tmp_path_factory, invocation):
    argv, text = invocation
    workdir = tmp_path_factory.getbasetemp() / "cli-fuzz"
    workdir.mkdir(exist_ok=True)
    path = workdir / "input.json"
    if text is not None:
        path.write_text(text)
    argv = [a.replace("{file}", str(path)).replace("{dir}", str(workdir)) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    if _negative_parameter(argv):
        assert code == 2, argv
