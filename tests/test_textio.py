from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

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


def test_a_basis_report_converts_each_structure_once(monkeypatch):
    # the 841 wing instances of chain2 name 8 structures; each is
    # converted to JSON once, not twice per instance, and rendered once, as
    # every wing sits at the same depth
    calls, rendered = [], []
    real, real_write = textio.structure_to_json, textio._write_dict
    monkeypatch.setattr(textio, "structure_to_json", lambda s: calls.append(s) or real(s))
    monkeypatch.setattr(textio, "_write_dict", lambda value, *rest: (
        list(value) == ["structure"] and rendered.append(id(value)), real_write(value, *rest)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["basis", str(REPO / "data" / "posets.posmt"), "--structure", "chain2",
                     "--kinds", "hhhh", "--theory", "T_pos", "--json"]) == 0
    report = json.loads(out.getvalue())
    named = {json.dumps(inst[wing], sort_keys=True) for inst in report["instances"] for wing in "BC"}
    assert len(calls) == len({id(s) for s in calls}) == len(named) == 8
    assert len(rendered) == len(set(rendered)) == 8
