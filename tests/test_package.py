"""The package's surface: every top-level name has a user outside the
tests, and the README's documented example runs."""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _top_level_names(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _name_uses(node):
    """How often each name occurs under node, as a bare name or as an
    attribute."""
    uses = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[n.attr] += 1
    return uses


def test_every_package_name_has_a_user_outside_the_tests():
    # a name that only tests call is a second copy of an oracle or dead
    # code.  A user is package code outside the name's own definition (the
    # re-exports in __init__ do not count), the benchmark, or the README.
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "clprover").glob("*.py"))
               if p.name != "__init__.py"}
    package = sum((_name_uses(tree) for tree in modules.values()),
                  collections.Counter())
    bench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(p.read_text(encoding="utf-8"))
        bench |= set(_name_uses(tree))
        bench |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = readme.split("\n## Removed names\n", 1)[0]  # listed as gone
    unused = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name, definition in _top_level_names(tree)
        if package[name] <= _name_uses(definition)[name]
        and name not in bench
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def test_readme_python_api_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
