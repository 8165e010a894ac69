"""The error hierarchy is the exit-code contract, and stays that size.

`cli.main` exits 2 on a ConfigError, 3 on a NumericalError and 4 on any
other SgaError. A class in `errors.py` beyond the base and those
exit-code classes must be caught by name somewhere in `src/`: a class no
code tells apart from its parent is its parent. Every `raise` in `src/`
raises a class of `errors.py`, so no error ends in a traceback.
"""

import ast
import inspect
from pathlib import Path

import pytest

from sgaedit import cli, errors

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__]
EXIT_CODES = {errors.ConfigError: 2, errors.NumericalError: 3}
PREFIXES = {2: "config error: ", 3: "numerical error: ", 4: "invariant violation: "}


def _name(node: ast.expr) -> str:
    """`Name` or `module.Name` as the bare class name."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", ast.dump(node))


def _nodes(kind):
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, kind):
                yield path, node


def test_hierarchy_is_the_exit_code_classes_and_the_caught_ones():
    caught = set()
    for _, handler in _nodes(ast.ExceptHandler):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught |= {_name(t) for t in types if t is not None}
    kept = {errors.SgaError, errors.ConfigError, errors.NumericalError, errors.ValidationError}
    assert sorted(cls.__name__ for cls in CLASSES if cls not in kept and cls.__name__ not in caught) == []
    assert all(issubclass(cls, errors.SgaError) for cls in CLASSES)


def test_every_raise_raises_a_package_error():
    names = {cls.__name__ for cls in CLASSES}
    stray = []
    for path, node in _nodes(ast.Raise):
        if node.exc is None:  # a bare re-raise
            continue
        raised = _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        if raised not in names:
            stray.append(f"{path.name}:{node.lineno} raises {raised}")
    assert stray == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_main_maps_each_class_to_its_exit_code(tmp_path, capsys, monkeypatch, cls):
    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli.cfgmod, "load", fail)
    code = next((c for base, c in EXIT_CODES.items() if issubclass(cls, base)), 4)
    assert cli.main(["ablate", "--config", str(tmp_path / "run.json")]) == code
    err = capsys.readouterr().err
    assert err == f"{PREFIXES[code]}boom\n"
