"""No source file imports a name it never uses: with no linter installed, this
keeps removed code from leaving its imports behind."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source):
    """(line, name) of each name `source` imports and never reads. Imports on a
    line marked `noqa: F401` (bindings kept for another module) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport os.path\nfrom json import dumps as d, loads\n"
              "import sys  # noqa: F401 - kept\nprint(os.sep, loads)\n")
    assert unused_imports(source) == [(3, "d")]
    assert unused_imports("import numpy as np\n") == [(1, "np")]


def test_no_file_imports_a_name_it_never_uses():
    found = []
    for top in ("src", "tests", "perfbench"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        found += [f"{os.path.relpath(path, ROOT)}:{line}: {unused}"
                                  for line, unused in unused_imports(fh.read())]
    assert found == []
