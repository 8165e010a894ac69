"""Every public helper of the package is used by the program.

A public module-level function, class or constant of `src/sgaedit/*.py`
must be referenced outside its own definition by a `.py` file under
`src/`, `tools/` or `perfbench/`: as an identifier (a name, an attribute
or an imported name), or as a dotted string naming it, the way
`perfbench/run.py`'s traced-layer table names `attention.dense_attention`.
References from the tests do not count, so a helper that only tests call
fails here and goes, or moves into the test suite.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgaedit"


def defined(node: ast.stmt) -> list:
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def references(node: ast.AST) -> set:
    """The identifiers read in `node`, and its dotted-name strings as `module.name`."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name.rsplit(".", 1)[-1])
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and "." in child.value:
            parts = child.value.split(".")
            if all(part.isidentifier() for part in parts):  # a dotted name, not prose
                found.add(f"{parts[0]}.{parts[1]}")
    return found


def test_every_public_name_is_referenced_by_the_program():
    # (file, names the statement defines, what it references) per top-level statement
    statements = []
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                statements.append((path, defined(node), references(node)))
    unused = []
    for path, names, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in (n for n in names if not n.startswith("_")):
            wanted = {name, f"{path.stem}.{name}"}
            # a name's own definition does not reference it
            if not any(refs & wanted for other, defs, refs in statements if not (other == path and name in defs)):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
