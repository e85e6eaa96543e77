"""Every name a loopforge module imports is used in that module, and every
public top-level function or class is used by the package or the benchmark."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "loopforge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "import math\nimport os as o\nfrom x import y, z\nprint(o.sep, z)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: y"]


def mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes, imported names and the words of string constants
    in tree, leaving out the subtree skip and docstring-like bare strings.
    Strings count because the tracer names what it patches by string."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_public_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """Public top-level functions and classes of modules (name -> source)
    that no module names outside the definition itself and no source in
    users names at all."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = set().union(*(mentions(ast.parse(source)) for source in users))
    unused = []
    for name, tree in trees.items():
        for d in tree.body:
            if (isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
                    and d.name not in outside
                    and not any(d.name in mentions(t, d if other == name else None)
                                for other, t in trees.items())):
                unused.append(f"{name}: {d.name}")
    return unused


def test_every_public_name_is_used():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "loopbench").glob("*.py"))]
    assert unused_public_names(modules, users) == []


def test_check_finds_a_test_only_name():
    modules = {
        "a.py": 'def only_tests():\n    """only_tests"""\n    return only_tests()\n\n'
                "def called(): pass\ndef traced(): pass\ndef benched(): pass\n"
                "class _Private: pass\n",
        "b.py": 'from a import called\nPATCHED = ("traced",)\n',
    }
    assert unused_public_names(modules, ["import a\na.benched()\n"]) == ["a.py: only_tests"]
