"""Source hygiene: no dead top-level definitions, constants or methods, no
unused imports, no default that every caller leaves alone.

The checks read the code with ``ast``.  Only the code that runs the
package counts as a user: src, demos and perfbench.  Tests do not, so a
definition or a default that only tests reach fails; nor do the
re-exports of ``lcsflow/__init__.py``.  A name counts as used when it
is read as an identifier (a loaded name, an attribute or an imported
name) or appears as a string constant anywhere outside its own
definition, so names that are looked up by string (``getattr``,
``__all__``) count as well; assigning a name does not use it.  Methods and
properties of package classes are held to a stricter rule: only reading
them as an identifier counts, since a string such as a report or config
key that shares a method's name does not call it.  Dunder methods are
exempt, and so are dataclass fields, since reports serialize them through
``asdict`` / ``vars``.

A defaulted parameter counts as passed when some call of a function with
that name, anywhere in src, demos or perfbench, passes it by
position or keyword, or passes ``*`` / ``**`` arguments.  Calls match by
name only: ``f(..)`` and ``obj.f(..)`` both call every package ``f``, a
class name calls its ``__init__`` and ``C(..)(..)`` calls ``C.__call__``.
The fields of a package dataclass are the parameters of its generated
``__init__``, in order, so a defaulted field is held to the same rule.
A tuple that holds a function name next to a set of strings (the
runner's generator table, whose config keys reach the builder through
``**``) passes those strings as keywords to that function.

Only ``forms`` knows how a form is stored.  A spectrum is a form's Fourier
coefficients, so no package module rescales one by the node count (reads
``num_nodes``), and no module but ``forms`` names an FFT: ``scipy.fft``,
``numpy.fft`` or any identifier containing ``fft``.  Within ``forms`` a
form is transformed forward only by ``DiffForm.spectra``, which caches the
result: ``sfft.fftn`` appears there and in ``downsample_values``, whose
fine-grid values belong to no form, and nowhere else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcsflow"
USER_DIRS = ("src", "demos", "perfbench")
IMPORT_DIRS = ("src", "tests")
EXPORTS = PACKAGE / "__init__.py"


def _sources(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _user_sources():
    return ((path, tree) for path, tree in _sources(USER_DIRS) if path != EXPORTS)


def _mentions(tree) -> tuple[set[str], set[str]]:
    """Identifiers a module reads, and the string constants it holds."""
    names, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return names, strings


def _top_level_names(node) -> list[str]:
    """Names a top-level statement defines: a def, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)
            and not t.id.startswith("__")]


def dead_definitions() -> list[str]:
    """Top-level defs, classes, constants and class members of the package
    nothing reads."""
    read, strings = set(), set()
    for _, tree in _user_sources():
        names, consts = _mentions(tree)
        read |= names
        strings |= consts
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            dead += [f"{path.name}:{name}" for name in _top_level_names(node)
                     if name not in read | strings]
            if isinstance(node, ast.ClassDef):
                dead += [f"{path.name}:{node.name}.{fn.name}" for fn in node.body
                         if isinstance(fn, ast.FunctionDef)
                         and not fn.name.startswith("__") and fn.name not in read]
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


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Call):
        inner = _callee(func.func)
        return inner and inner + ".__call__"
    return None


def passed_arguments() -> dict[str, set]:
    """Callee name -> positions, keywords, "*" and "**" some call passes."""
    passed: dict[str, set] = {}
    for _, tree in _user_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node.func)
                if name is None:
                    continue
                got = passed.setdefault(name, set())
                for i, arg in enumerate(node.args):
                    got.add("*" if isinstance(arg, ast.Starred) else i)
                got |= {kw.arg or "**" for kw in node.keywords}
            elif isinstance(node, ast.Tuple):
                keys = {c.value for e in node.elts if isinstance(e, ast.Set)
                        for c in e.elts if isinstance(c, ast.Constant)}
                for e in node.elts:
                    if isinstance(e, ast.Name):
                        passed.setdefault(e.id, set()).update(keys)
    return passed


def _functions(body, cls=None):
    """(callee name, def, leading parameters a call does not pass)."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node.name)
        elif isinstance(node, ast.FunctionDef):
            name = node.name
            if cls and name == "__init__":
                name = cls
            elif cls and name == "__call__":
                name = cls + ".__call__"
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            yield name, node, int(bool(cls) and not static)
            yield from _functions(node.body)


def _dataclass_fields(body):
    """(class name, fields in order) for each dataclass defined in body."""
    for node in body:
        if isinstance(node, ast.ClassDef) and any(
                _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list):
            yield node.name, [s for s in node.body if isinstance(s, ast.AnnAssign)]


def unpassed_defaults() -> list[str]:
    """Defaulted parameters of package functions, and defaulted fields of
    package dataclasses, that no call passes."""
    passed = passed_arguments()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        for name, fields in _dataclass_fields(body):
            got = passed.get(name, set())
            found += [f"{path.name}:{name}({f.target.id})" for i, f in enumerate(fields)
                      if f.value is not None and not got & {i, f.target.id, "*", "**"}]
        for name, fn, skip in _functions(body):
            got = passed.get(name, set())
            positional = (fn.args.posonlyargs + fn.args.args)[skip:]
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                if not got & {i, arg.arg, "*", "**"}:
                    found.append(f"{path.name}:{name}({arg.arg})")
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None and not got & {arg.arg, "**"}:
                    found.append(f"{path.name}:{name}({arg.arg})")
    return found


def test_every_package_definition_is_named_somewhere():
    assert dead_definitions() == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_every_default_is_overridden_by_some_call():
    assert unpassed_defaults() == []


def _identifiers(tree):
    """Every name a module reads, imports or defines an alias for."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def storage_leaks() -> list[str]:
    """Package modules that read num_nodes, and modules other than forms
    that import or call an FFT."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(_identifiers(ast.parse(path.read_text())))
        if "num_nodes" in names:
            found.append(f"{path.name}:num_nodes")
        if path.name != "forms.py":
            found += [f"{path.name}:{name}" for name in sorted(names) if "fft" in name]
    return found


def test_only_forms_knows_how_a_form_is_stored():
    assert storage_leaks() == []


def forward_transforms() -> list[str]:
    """Package functions, as module:qualified.name, that name sfft.fftn."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "fftn"
                    and isinstance(child.value, ast.Name) and child.value.id == "sfft"):
                found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    return found


def test_a_form_is_transformed_forward_only_by_its_spectra():
    assert forward_transforms() == ["forms.py:DiffForm.spectra",
                                    "forms.py:downsample_values"]
