"""No source file imports a name it never uses, and no top-level definition of
the package goes unused: with no linter installed, this keeps removed code
from leaving its imports or its helpers behind."""

import ast
import collections
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_sources():
    """{path relative to the repository: text} of every .py file under src/,
    tests/ and perfbench/."""
    sources = {}
    for top in ("src", "tests", "perfbench"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        sources[os.path.relpath(path, ROOT)] = fh.read()
    return sources


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


def top_level_names(source):
    """Names of the functions, classes and assignments at the top level of `source`."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def dead_definitions(sources):
    """"<path>: <name>" of each top-level definition of a file under
    src/segdetect/ whose name, as a whole word, occurs in that file only at its
    definition and in no other file of `sources` ({path: text}), except files
    that define that name themselves (which then mean their own)."""
    defined = {path: set(top_level_names(text)) for path, text in sources.items()}
    words = {path: collections.Counter(re.findall(r"\w+", text))
             for path, text in sources.items()}
    return [f"{path}: {name}" for path, text in sources.items()
            if path.startswith(os.path.join("src", "segdetect", ""))
            for name in top_level_names(text)
            if words[path][name] < 2 and not any(
                words[other][name] for other in sources
                if other != path and name not in defined[other])]


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport os.path\nfrom json import dumps as d, loads\n"
              "import sys  # noqa: F401 - kept\nprint(os.sep, loads)\n")
    assert unused_imports(source) == [(3, "d")]
    assert unused_imports("import numpy as np\n") == [(1, "np")]


def test_no_file_imports_a_name_it_never_uses():
    found = [f"{path}:{line}: {unused}" for path, text in python_sources().items()
             for line, unused in unused_imports(text)]
    assert found == []


def test_the_scan_finds_a_dead_definition():
    package = os.path.join("src", "segdetect", "a.py")
    sources = {package: ("X = 1\nY, (Z, W) = 2, (3, 4)\nT: int = 5\n\n\ndef f():\n"
                         "    return X + Y + W\n\n\nclass C:\n    pass\n\n\n"
                         "def unit_keys():\n    pass\n"),
               os.path.join("tests", "t.py"): "f()\nkeys = unit_keys_of(C_)\nprint(Z)\n",
               # its own Z and T: no use of the package's
               os.path.join("perfbench", "b.py"): "Z = 0\n\n\ndef T():\n    return T\n"}
    assert dead_definitions(sources) == [f"{package}: T", f"{package}: C",
                                         f"{package}: unit_keys"]


def test_no_package_definition_goes_unused():
    assert dead_definitions(python_sources()) == []


CPU_NAMES = {"cpu_count", "fork", "sched_getaffinity"}


def cpu_names(source):
    """(line, name) of each use in `source` of a name in CPU_NAMES: read,
    imported or taken as an attribute (`os.fork`, `workers.cpu_count`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        found += [(node.lineno, name) for name in names if name in CPU_NAMES]
    return sorted(found)


def test_the_scan_finds_a_cpu_name():
    source = ("import os\nfrom os import fork\nn = workers.cpu_count()\n"
              "# cpu_count in a comment\nos.sched_getaffinity(0)\nforked = 1\n")
    assert cpu_names(source) == [(2, "fork"), (3, "cpu_count"), (5, "sched_getaffinity")]


def test_only_workers_reads_the_cpu_count_or_forks():
    """workers.forked_map alone decides how many processes a map gets."""
    found = [f"{path}:{line}: {name}" for path, text in python_sources().items()
             if path.startswith(os.path.join("src", "segdetect", ""))
             and path != os.path.join("src", "segdetect", "workers.py")
             for line, name in cpu_names(text)]
    assert found == []
