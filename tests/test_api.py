"""The public API is derived: ``abtaut.__all__`` is the union of the module
lists, so each public name is listed once, in its module."""

import ast
import re
from pathlib import Path

import abtaut
from abtaut import boundary, charclass, graded, rationals, satake, tautring


def test_public_api_is_the_union_of_the_module_lists():
    modules = (rationals, graded, charclass, tautring, boundary, satake)
    assert len(abtaut.__all__) == len(set(abtaut.__all__))
    assert set(abtaut.__all__) == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(abtaut, name) is getattr(module, name), (module.__name__, name)


# argparse_oracle is the CLI's former parser: it drives the CLI's command
# handlers and check table by design, so it may import exactly these
_PRIVATE_IMPORTS_BY_DESIGN = {"argparse_oracle.py": ("abtaut.cli", re.compile(r"_CHECKS$|_cmd_\w+$"))}


def test_oracles_use_only_public_names():
    # a second route that reaches into the library's private helpers shares
    # code with the route it checks; an oracle reads no _-prefixed attribute
    # at all, so none of the library's either
    oracles = sorted(Path(__file__).parent.glob("*_oracle.py"))
    assert len(oracles) >= 8
    for path in oracles:
        allowed = _PRIVATE_IMPORTS_BY_DESIGN.get(path.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.endswith("__")
                assert not private, f"{path.name}:{node.lineno} reads .{node.attr}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for alias in node.names:
                    parts = f"{module}.{alias.name}".strip(".").split(".")
                    if parts[0] != "abtaut" or not any(p.startswith("_") for p in parts):
                        continue
                    by_design = allowed is not None and module == allowed[0] and allowed[1].match(alias.name)
                    assert by_design, f"{path.name}:{node.lineno} imports {'.'.join(parts)}"


def test_readme_route_table_names_every_oracle():
    # the README's table of second routes cannot go stale: each oracle
    # module is a row of it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Second routes\n", 1)[1]
    table = "\n".join(line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|"))
    oracles = sorted(Path(__file__).parent.glob("*_oracle.py"))
    assert len(oracles) >= 8
    for path in oracles:
        assert f"`tests/{path.name}`" in table, path.name
    for item in (10, 11, 13):
        assert f"gap (ROADMAP item {item})" in table
