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
keyword of a call of the class itself or of `replace`, or by a string key
of a config dict, in the package's code outside the class's own
definition, in `perfbench/` or in the README's Python blocks outside the
migration notes. Tests are not callers. A field no caller sets is an
option with one value in use: a constant.

Likewise every defaulted parameter of a public function, public method or
explicit `__init__`, and every parameter of a benchmark builder, must be
passed by keyword or by position: in the package's code, where passing on
a parameter of the calling function counts only if that parameter is
itself passed; in `perfbench/`; in the README outside the migration
notes, where `make_benchmark("x", k=...)` and the keys of a spec's
`benchmark_params` set builder `x`'s `k`; or in the acceptance battery.

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
from viralsearch.benchmarks import _BUILDERS

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


def _readme_trees() -> list:
    """The README's Python blocks and backticked spans that parse as Python,
    outside the migration notes."""
    text = _readme_without_migration_notes()
    blocks = _python_blocks(text)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    trees = []
    for code in blocks + spans:
        try:
            trees.append(ast.parse(code))
        except SyntaxError:
            pass  # prose in backticks: a CLI flag, a formula
    return trees


def _readme_api() -> set:
    used = set()
    for tree in _readme_trees():
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


def _set_keys(tree: ast.AST, cls: str) -> set:
    """The keywords of calls of the class named `cls` or of `replace`, and
    the string dict keys, in `tree` outside `cls`'s own definition."""
    keys = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in (cls, "replace"):
                keys.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return keys


def test_every_config_field_is_set_by_the_system():
    trees = [_parse(path) for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]]
    trees += [ast.parse(code) for code in _python_blocks(_readme_without_migration_notes())]
    unset = []
    for cls in CONFIGS:
        keys = set().union(*(_set_keys(tree, cls.__name__) for tree in trees))
        unset += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in keys]
    assert not unset, f"config fields no caller sets: {unset}"


def _signatures() -> tuple:
    """The parameters in order of each function of the package, keyed as a
    call names it: a function or method by its name, an `__init__` by its
    class's. Also the defaulted parameters of all of them, and the subset
    the guard checks: those of public functions, of public methods and
    `__init__`s of public classes, and every parameter of a benchmark
    builder."""
    params, defaulted, checked = {}, set(), set()

    def add(key, node, public, skip_self):
        a = node.args
        names = [p.arg for p in a.posonlyargs + a.args][skip_self:]
        params[key] = names + [p.arg for p in a.kwonlyargs]
        with_default = names[len(names) - len(a.defaults):] if a.defaults else []
        with_default += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        defaulted.update((key, name) for name in with_default)
        if public:
            checked.update((key, name) for name in with_default)

    for path in SRC.glob("*.py"):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                add(node.name, node, not node.name.startswith("_"), 0)
            elif isinstance(node, ast.ClassDef):
                for method in (m for m in node.body if isinstance(m, ast.FunctionDef)):
                    if method.name == "__init__":
                        add(node.name, method, not node.name.startswith("_"), 1)
                    elif not method.name.startswith("_"):
                        add(method.name, method, not node.name.startswith("_"), 1)
    for builder in _BUILDERS.values():
        checked.update((builder.__name__, name) for name in params[builder.__name__])
    return params, defaulted, checked


def _constant(node):
    return node.value if isinstance(node, ast.Constant) else None


def _passes(tree: ast.AST, params: dict) -> list:
    """Each (function, parameter) an argument in `tree` is passed to, with
    the (function, parameter) of the caller it passes on unchanged, or None.

    A call to `make_benchmark` with a benchmark name passes its keywords to
    that benchmark's builder, and a `benchmark_params` dict, in a call
    whose `benchmark` is a name, passes its keys to that builder."""
    builders = {name: builder.__name__ for name, builder in _BUILDERS.items()}
    found = []

    def visit(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # a lambda's own parameters are given by its caller, so they are
            # passed whatever they hold; closures keep their definer
            owner = None
            if isinstance(node, ast.FunctionDef):
                owner = cls if node.name == "__init__" else node.name
            a = node.args
            scope = {**scope, **{p.arg: owner for p in a.posonlyargs + a.args + a.kwonlyargs}}
            cls = None
        elif isinstance(node, ast.Call):
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            first = _constant(node.args[0]) if node.args else None
            passed = []
            if callee in params:
                passed += [(callee, key, value) for key, value in keywords.items()]
                passed += [(callee, key, value) for key, value in zip(params[callee], node.args)]
            if callee == "make_benchmark" and first in builders:
                passed += [(builders[first], key, value) for key, value in keywords.items()]
            name = _constant(keywords["benchmark"]) if "benchmark" in keywords else first
            table = keywords.get("benchmark_params")
            if name in builders and isinstance(table, ast.Dict):
                passed += [(builders[name], _constant(key), value)
                           for key, value in zip(table.keys, table.values)]
            for owner, key, value in passed:
                source = scope.get(value.id) if isinstance(value, ast.Name) else None
                found.append(((owner, key), (source, value.id) if source else None))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, cls)

    visit(tree, {}, None)
    return found


def test_every_defaulted_parameter_is_set_by_the_system():
    params, defaulted, checked = _signatures()
    outside = [_parse(path) for path in (ROOT / "perfbench").glob("*.py")]
    outside += _readme_trees()
    outside.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    passed = {target for tree in outside for target, _ in _passes(tree, params)}
    forwarded = [hop for path in SRC.glob("*.py") for hop in _passes(_parse(path), params)]
    while True:
        before = len(passed)
        passed |= {target for target, source in forwarded
                   if source is None or source not in defaulted or source in passed}
        if len(passed) == before:
            break
    # `main(argv)` lets the tests drive the CLI in-process; the console
    # script calls `main()`, which parses `sys.argv`
    unset = checked - passed - {("main", "argv")}
    assert not unset, f"parameters no caller sets: {sorted(f'{f}({p})' for f, p in unset)}"


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
