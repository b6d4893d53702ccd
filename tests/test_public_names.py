"""Every public name in the package is used by the system itself.

A name exported from `viralsearch`, or defined public at the top level of
one of its modules, must be used by at least one of:

- the package's own code, outside the name's definition and `__init__.py`;
- the benchmark scripts in `perfbench/`;
- the README's API, its backticked spans and Python blocks outside the
  migration notes;
- the imports of the acceptance battery.

A name only the tests call belongs in `tests/reference.py`. Uses are found
with `ast`, not by matching words, because names such as `order` and `run`
are common words in code and prose.

Likewise every field of a config class must be set by the system: by a
call keyword or a string key of a config dict in the package's code
outside the class's own definition, in `perfbench/`, in the README's
Python blocks outside the migration notes, or in the acceptance battery.
A field no caller sets is an option with one value in use: a constant.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import viralsearch
from viralsearch import DEConfig, ExperimentSpec, GAParams, VSConfig

SRC = Path(viralsearch.__file__).resolve().parent
ROOT = SRC.parent.parent
# names a module of the package is reached by: `vs.run`, `engine.rebalance`
MODULES = {"viralsearch", "vs"} | {p.stem for p in SRC.glob("*.py")}
MIGRATION_HEADING = "## Migration notes"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _public_names() -> set:
    names = set()
    for node in _parse(SRC / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    for path in SRC.glob("*.py"):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _bound_names(tree: ast.Module) -> set:
    """Names a module binds at top level to the package's objects: its own
    definitions and what it imports from the package."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("viralsearch")
        ):
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def _uses(tree: ast.AST, bound: set) -> dict:
    """Each used name, mapped to the names of the top-level definitions it
    is used in ("" outside any): a read of a bound name, or an attribute
    read off a package module."""
    uses = {}

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            uses.setdefault(node.id, set()).add(owner)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            uses.setdefault(node.attr, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in getattr(tree, "body", [tree]):
        is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        visit(node, node.name if is_def else "")
    return uses


def _used_in_src() -> set:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        for name, owners in _uses(tree, _bound_names(tree)).items():
            if owners - {name}:
                used.add(name)
    return used


def _used_in_perfbench() -> set:
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = _parse(path)
        used |= set(_uses(tree, _bound_names(tree)))
    return used


def _readme_without_migration_notes() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.find(MIGRATION_HEADING)
    if start >= 0:
        end = text.find("\n## ", start + 1)
        text = text[:start] + (text[end:] if end >= 0 else "")
    return text


def _python_blocks(text: str) -> list:
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def _readme_api() -> set:
    text = _readme_without_migration_notes()
    blocks = _python_blocks(text)
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    used = set()
    for code in blocks + re.findall(r"`([^`\n]+)`", text):
        try:
            tree = ast.parse(code)
        except SyntaxError:
            continue  # prose in backticks: a CLI flag, a formula
        used |= set(_uses(tree, {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}))
    return used


def _acceptance_imports() -> set:
    return {
        alias.name
        for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_public_name_is_used_by_the_system():
    used = _used_in_src() | _used_in_perfbench() | _readme_api() | _acceptance_imports()
    unused = sorted(_public_names() - used)
    assert not unused, f"public names only the tests use: {unused}"


def _set_keys(tree: ast.AST, skip_class: str = "") -> set:
    """The call keywords and string dict keys in `tree`, outside the
    definition of the class named `skip_class`."""
    keys = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == skip_class:
            return
        if isinstance(node, ast.Call):
            keys.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return keys


def test_every_config_field_is_set_by_the_system():
    outside = [_parse(path) for path in (ROOT / "perfbench").glob("*.py")]
    outside += [ast.parse(code) for code in _python_blocks(_readme_without_migration_notes())]
    outside.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    src = [_parse(path) for path in SRC.glob("*.py")]
    unset = []
    for cls in (VSConfig, DEConfig, GAParams, ExperimentSpec):
        keys = set().union(*(_set_keys(tree) for tree in outside),
                           *(_set_keys(tree, cls.__name__) for tree in src))
        unset += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in keys]
    assert not unset, f"config fields no caller sets: {unset}"
