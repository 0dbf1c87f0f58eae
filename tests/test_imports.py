"""Import and surface rules for posmt modules: every name a module imports
is read somewhere in it, no module imports `dataclasses`, every public
top-level function and class has a caller outside the tests, and the
README's library example runs."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

from posmt import cli
from posmt.structures import FiniteStructure, Signature

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "posmt"


def unused_imports(source: Path | str):
    """The (line, name) of each name `source`, a file or its text, imports
    and never reads."""
    tree = ast.parse(source.read_text(encoding="utf-8") if isinstance(source, Path) else source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # a read of a Name covers attribute roots too: `a.b.c` holds Name `a`
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    # `posmt.records` stands in for it: dataclasses and the inspect module
    # it loads cost every posmt process its start-up
    assert "dataclasses" not in set(imported_modules(path))


# Public names that only the tests call, each with the reason it stays.  The
# names the benchmark's tracer wraps need no entry: perfbench/traced.py names
# them.
SURFACE_ALLOWED = {
    "pair_diagrams": "the acceptance suite checks the README's diagram API through it",
    "theory_from_diagram": "the acceptance suite checks the paper's change of constants through it",
    "eval_formula": "the formula layer's public evaluator",
    "classify_sentence": "the formula layer's public sentence classes",
    "parse_sentences": "the README's library example",
}


MODULES = {path.stem for path in SRC.glob("*.py")}
TRACER = REPO / "perfbench" / "traced.py"


def referenced_names(path: Path):
    """Every name `path` reads or imports, every attribute it reads off a
    posmt module name (`corpus.evaluator`), and in perfbench/traced.py every
    whole string (it names its targets so).  A method or a string spelled
    like a public name elsewhere is no caller of it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif path == TRACER and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    callers = [*SRC.glob("*.py"), *(REPO / "scripts").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    reached = set().union(*map(referenced_names, callers))
    reached |= {f"cmd_{name}" for name in cli._COMMANDS}  # looked up by build_parser
    unreached = {
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in reached
    }
    assert {name.split(".")[1] for name in unreached} == set(SURFACE_ALLOWED), sorted(unreached)


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert unused_imports(code) == []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    sig = Signature.make(relations={"le": 2})
    one_point_poset = FiniteStructure(sig, ("a",), {"le": frozenset({("a", "a")})})
    assert out.getvalue() == f"{[one_point_poset]}\n"


def test_the_solver_does_not_depend_on_the_harness():
    # the harness draws random problems and calls the solver; the solver
    # module neither draws nor calls back
    path = SRC / "amalgamation.py"
    relative = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module is None for alias in node.names}
    assert not {"random", "harness", "posmt.harness"} & (set(imported_modules(path)) | relative)
