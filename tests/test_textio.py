from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posmt import textio
from posmt.cli import main
from posmt.structures import FiniteStructure, Signature
from posmt.textio import SCHEMA, report_to_json

from oracles import plain_json

REPO = Path(__file__).resolve().parents[1]

# hypothesis: the report writer prints the bytes of
# json.dumps(indent=2, sort_keys=True), which the benchmark reference pins

AWKWARD_TEXT = ["", "é", "naïve ∀x", '"', "\\", 'a"b\\c', "\n\t\r\x00\x1f\x7f", " ﻿", "\U0001f600"]

texts = st.one_of(st.text(), st.sampled_from(AWKWARD_TEXT))
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e-7, 1e300, -1e300, float("nan"),
                                                 float("inf"), float("-inf")]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20,
)


def nest(value, keys):
    """value under one list (key None) or one-key dict per entry of keys."""
    for key in keys:
        value = [value] if key is None else {key: value}
    return value


deep = st.builds(nest, st.one_of(values, st.just({}), st.just([])),
                 st.lists(st.one_of(st.none(), texts), min_size=5, max_size=8))


@given(st.dictionaries(texts, st.one_of(values, deep), max_size=5))
@settings(max_examples=150, deadline=None)
@example({})
@example({"b": [True, False, 1, 0, None], "e": [{}, [], {"x": []}]})
@example({"f": [-0.0, 1e-7, 1e300, float("nan"), float("inf"), float("-inf")]})
@example({"s": ['"\\\n\x00é∀', {"é": {"\n": "\U0001f600"}}]})
def test_report_writer_prints_the_bytes_of_json_dumps(report):
    expected = json.dumps({"schema": SCHEMA, **plain_json(report)}, indent=2, sort_keys=True)
    assert report_to_json(report) == expected


SHARED = [
    FiniteStructure(Signature.make(relations={"le": 2}), ("a", "b"),
                    {"le": frozenset({("a", "a"), ("a", "b"), ("b", "b")})}),
    FiniteStructure(Signature.make(relations={"P": 1}, functions={"f": 1}, constants=["c"]), ("é",),
                    {"P": frozenset({("é",)})}, {"f": {("é",): "é"}}, {"c": "é"}),
]
keys = st.lists(st.one_of(st.none(), texts), max_size=4)


@given(st.sampled_from(SHARED), keys, keys, st.dictionaries(texts, values, max_size=3))
@settings(max_examples=100, deadline=None)
def test_report_writer_prints_a_structure_shared_at_two_depths(structure, outer, inner, rest):
    # the writer renders each structure once per depth and reuses that
    # text wherever it meets the structure again
    report = {**rest, "x": nest(structure, outer), "y": nest([structure, nest(structure, inner)], outer),
              "z": [nest(structure, inner), structure]}
    expected = json.dumps({"schema": SCHEMA, **plain_json(report)}, indent=2, sort_keys=True)
    assert report_to_json(report) == expected


def test_report_writer_prints_bools_as_json_literals():
    assert report_to_json({"b": True, "n": 1}) == (
        '{\n  "b": true,\n  "n": 1,\n  "schema": "posmt-report/1"\n}')


class _Level(IntEnum):
    ONE = 1


class _Ratio(float):
    pass


def test_report_writer_prints_scalar_subclasses_and_rejects_what_json_dumps_rejects():
    # the scalars are printed without the json package, as its encoder
    # prints them: int and float subclasses by the base type's repr
    for value in (_Level.ONE, _Ratio(0.5), _Ratio("nan"), 2 ** 70, -0.0):
        assert report_to_json({"x": value}) == json.dumps({"schema": SCHEMA, "x": value}, indent=2, sort_keys=True)
    for value in ({1}, b"x", 1j, object()):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            report_to_json({"x": value})


def test_cli_import_loads_no_json_package():
    # the report writer takes its string encoder from `_json`, the C module
    # that json.encoder wraps; importing the json package would cost every
    # posmt process its start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    # -S: no site hooks, which may import json before posmt runs
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, posmt.cli; print('json' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "False"


def test_a_basis_report_converts_each_structure_once(monkeypatch):
    # the 841 wing instances of chain2 name 8 structures; each is
    # converted to JSON once, not twice per instance, and rendered once, as
    # every wing sits at the same depth: a render is counted by its
    # (structure, indent), not by the address of a dict that lives only for it
    calls, rendered = [], []
    real, real_write = textio.structure_to_json, textio._write_dict
    monkeypatch.setattr(textio, "structure_to_json", lambda s: calls.append(s) or real(s))
    monkeypatch.setattr(textio, "_write_dict", lambda value, head, indent, *rest: (
        list(value) == ["structure"] and rendered.append((json.dumps(value["structure"], sort_keys=True), indent)),
        real_write(value, head, indent, *rest)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["basis", str(REPO / "data" / "posets.posmt"), "--structure", "chain2",
                     "--kinds", "hhhh", "--theory", "T_pos", "--json"]) == 0
    report = json.loads(out.getvalue())
    named = {json.dumps(inst[wing], sort_keys=True) for inst in report["instances"] for wing in "BC"}
    assert len(calls) == len({id(s) for s in calls}) == len(named) == 8
    assert len(rendered) == len(set(rendered)) == 8
