"""The input boundary as a property: a run on any input file or config with one JSON node
changed exits 0, or exits 1 with one ``plab: error:`` line on stderr, nothing on stdout and
no temp file left.

Each example takes one input of ``tests/data`` or one config per kind (small trial counts),
changes one node of its JSON (replaces it with a value that is not what the key wants,
deletes it, duplicates it or wraps it in a list) and runs ``plab.cli.main`` in process.
Float warnings are shown, not raised, as a user's shell would show them, so a warning
printed before the error line fails the test.
"""

import contextlib
import io
import json
import math
import os
import shutil
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from plab.cli import main

DATA = Path(__file__).parent / "data"

INPUTS = {
    "dist.json": json.loads((DATA / "dist_abc.json").read_text()),
    "points.json": json.loads((DATA / "dist_points.json").read_text()),
    "task.json": json.loads((DATA / "task_identity.json").read_text()),
    "poly.json": json.loads((DATA / "polytope_mixed_literals.json").read_text()),
    "states/t0.json": json.loads((DATA / "states" / "t0.json").read_text()),
    "states/t1.json": json.loads((DATA / "states" / "t1.json").read_text()),
    "emx.cfg": {"kind": "emx", "parameters": {"dist": "dist.json", "trials": 20, "sweep_d": [1, 3]}, "seed": 7},
    "coarse.cfg": {"kind": "coarse", "parameters": {"dist": "points.json", "trials": 20, "bits": 4,
                                                    "sweep_bits": [2, 6]}},
    "demo.cfg": {"kind": "compress", "parameters": {"mode": "demo", "domain": ["a", "b", "c"], "pair": ["c", "a"]}},
    "lemma1.cfg": {"kind": "compress", "parameters": {"mode": "lemma1", "dist": "dist.json", "trials": 20,
                                                      "sweep_n": [4, 6]}},
    "quantum.cfg": {"kind": "quantum", "parameters": {"gamma": 0.8, "copies": 2, "delta": 0.05,
                                                      "sweep_gamma": [0.5, 0.9]}},
    "lp.cfg": {"kind": "feasible-lp", "parameters": {"task": "task.json", "polytope": "poly.json",
                                                     "epsilon": "1/2", "delta": "1/5"}},
    "sdp.cfg": {"kind": "feasible-sdp", "parameters": {"task": "task.json", "states": "states", "copies": 2,
                                                       "epsilon": "1/2", "delta": "1/5"}},
}
# The input each command line reads: mutating it is one example.
RUNS = [
    ("dist.json", ["emx", "--dist", "dist.json", "--trials", "20", "--sweep-d", "1,3"]),
    ("dist.json", ["compress", "--mode", "lemma1", "--dist", "dist.json", "--trials", "20"]),
    ("points.json", ["coarse", "--dist", "points.json", "--trials", "20", "--bits", "4"]),
    ("task.json", ["feasible", "lp", "--task", "task.json"]),
    ("task.json", ["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "2"]),
    ("poly.json", ["feasible", "lp", "--task", "task.json", "--polytope", "poly.json"]),
    ("states/t0.json", ["feasible", "sdp", "--task", "task.json", "--states", "states", "--copies", "2"]),
    ("states/t1.json", ["feasible", "sdp", "--task", "task.json", "--states", "states"]),
    ("emx.cfg", ["emx", "--config", "emx.cfg"]),
    ("coarse.cfg", ["coarse", "--config", "coarse.cfg"]),
    ("demo.cfg", ["compress", "--config", "demo.cfg"]),
    ("lemma1.cfg", ["compress", "--config", "lemma1.cfg"]),
    ("quantum.cfg", ["quantum", "discriminate", "--config", "quantum.cfg"]),
    ("lp.cfg", ["feasible", "lp", "--config", "lp.cfg"]),
    ("sdp.cfg", ["feasible", "sdp", "--config", "sdp.cfg"]),
]
# Strings that are not rationals, a zero denominator, NaN, numbers at and past the float and
# int64 ranges, empty containers, null and booleans.
VALUES = ["", "x", "1/0", "0x1", "1e999", "nan", math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400,
          2**63, -2**63, 0, -1, {}, [], None, True, False, "1/2"]
OUTPUTS = [[], ["--out", "r.json"]]


def node_paths(obj, path=()):
    """The path of every node of a parsed JSON value, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from node_paths(value, (*path, key))


def mutated(obj, path, how) -> str:
    """The text of ``obj`` with the node at ``path`` changed: ``("value", v)`` replaces it with v,
    "delete" removes it, "duplicate" repeats it (a list item beside itself, an object member under
    a second key) and "wrap" puts it in a one-item list.  The root deleted is an empty file, and
    the root duplicated is two JSON texts in one file."""
    holder = [json.loads(json.dumps(obj))]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    if how == "delete":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif how == "duplicate":
        parent[f"{key}2"] = parent[key]
    elif how == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = how[1]
    return "\n".join(json.dumps(root) for root in holder)


@st.composite
def examples(draw):
    name, argv = draw(st.sampled_from(RUNS))
    path = draw(st.sampled_from(list(node_paths(INPUTS[name]))))
    how = draw(st.sampled_from(["delete", "duplicate", "wrap"]) | st.sampled_from(VALUES).map(lambda v: ("value", v)))
    return name, mutated(INPUTS[name], path, how), [*argv, *draw(st.sampled_from(OUTPUTS))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(example=examples())
def test_a_changed_input_node_exits_0_or_1_with_one_error_line(example, tmp_path_factory):
    name, text, argv = example
    workdir = tmp_path_factory.mktemp("boundary")
    for other, obj in INPUTS.items():
        (workdir / other).parent.mkdir(exist_ok=True)
        (workdir / other).write_text(json.dumps(obj))
    (workdir / name).write_text(text)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc in (0, 1), (rc, err.getvalue())
    if rc == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("plab: error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == ""
    assert not list(workdir.rglob("*.tmp"))
    shutil.rmtree(workdir)
