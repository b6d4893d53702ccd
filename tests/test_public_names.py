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

Every count and seed the package takes is checked by `core.check_counts`:
a public function, a public class's constructor or a config class that
takes one must pass it to `check_counts`, or forward it to a function or
class that does.
"""

import ast
import re
from dataclasses import fields
from pathlib import Path

import viralsearch
from viralsearch import DEConfig, ExperimentSpec, GAParams, VSConfig

CONFIGS = (VSConfig, DEConfig, GAParams, ExperimentSpec)

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
    for cls in CONFIGS:
        keys = set().union(*(_set_keys(tree) for tree in outside),
                           *(_set_keys(tree, cls.__name__) for tree in src))
        unset += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in keys]
    assert not unset, f"config fields no caller sets: {unset}"


# parameter and field names that hold a count or a seed
COUNT_NAMES = {"seed", "parent_seed", "index", "n", "m", "arity", "length", "trials",
               "generations", "pop_size", "repeat", "seed_base"}


def _callables() -> dict:
    """Each top-level function and class of the package, mapped to its
    parameters in order, the body that checks them, and whether the body
    reads them as `self.<name>`: a function's own, a class's `__init__`
    after `self`, a config class's fields in its `__post_init__`."""
    configs = {cls.__name__: [f.name for f in fields(cls)] for cls in CONFIGS}
    found = {}
    for path in SRC.glob("*.py"):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                a = node.args
                found[node.name] = ([p.arg for p in a.posonlyargs + a.args + a.kwonlyargs],
                                    node, False)
            elif isinstance(node, ast.ClassDef):
                methods = {m.name: m for m in node.body if isinstance(m, ast.FunctionDef)}
                if node.name in configs and "__post_init__" in methods:
                    found[node.name] = (configs[node.name], methods["__post_init__"], True)
                elif "__init__" in methods:
                    a = methods["__init__"].args
                    found[node.name] = ([p.arg for p in a.args[1:] + a.kwonlyargs],
                                        methods["__init__"], False)
    return found


def _is_ref(expr: ast.AST, name: str, on_self: bool) -> bool:
    if on_self:
        return (isinstance(expr, ast.Attribute) and expr.attr == name
                and isinstance(expr.value, ast.Name) and expr.value.id == "self")
    return isinstance(expr, ast.Name) and expr.id == name


def _checked_counts(found: dict) -> set:
    """The (callable, parameter) pairs whose value reaches `check_counts`,
    directly or forwarded through calls, found by iterating to a fixpoint."""
    checked = set()
    while True:
        before = len(checked)
        for owner, (params, body, on_self) in found.items():
            for call in (n for n in ast.walk(body) if isinstance(n, ast.Call)):
                f = call.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                passed = [(kw.arg, kw.value) for kw in call.keywords]
                if callee in found:
                    passed += list(zip(found[callee][0], call.args))
                for target, value in passed:
                    if callee == "check_counts" or (callee, target) in checked:
                        checked |= {(owner, p) for p in params if _is_ref(value, p, on_self)}
        if len(checked) == before:
            return checked


def test_every_count_and_seed_goes_through_check_counts():
    found = _callables()
    checked = _checked_counts(found)
    unchecked = [
        f"{owner}({p})"
        for owner, (params, _, _) in found.items()
        if not owner.startswith("_")
        for p in params
        if p in COUNT_NAMES and (owner, p) not in checked
    ]
    assert not unchecked, f"counts and seeds not checked by check_counts: {sorted(unchecked)}"
