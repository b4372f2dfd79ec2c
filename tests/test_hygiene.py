"""Source hygiene: no dead top-level definitions, no unused imports.

Both checks read the code with ``ast``.  A name counts as used when it
appears as an identifier (a name, an attribute or an imported name) or
as a string constant anywhere outside its own definition, so names that
are looked up by string (``getattr``, ``__all__``) count as well.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcsflow"
USER_DIRS = ("src", "tests", "demos", "perfbench")
IMPORT_DIRS = ("src", "tests")


def _sources(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _mentions(tree) -> set[str]:
    """Identifiers and string constants a module mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def dead_definitions() -> list[str]:
    """Top-level defs and classes of the package that nothing names."""
    used = set()
    for _, tree in _sources(USER_DIRS):
        used |= _mentions(tree)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used):
                dead.append(f"{path.name}:{node.name}")
    return dead


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".", 1)[0]


def unused_imports() -> list[str]:
    """Imported names that their module never reads."""
    found = []
    for path, tree in _sources(IMPORT_DIRS):
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if _bound_name(alias) not in read:
                        rel = path.relative_to(ROOT)
                        found.append(f"{rel}:{node.lineno}:{_bound_name(alias)}")
    return found


def test_every_package_definition_is_named_somewhere():
    assert dead_definitions() == []


def test_no_unused_imports():
    assert unused_imports() == []
