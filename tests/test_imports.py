"""No source file imports a name it never uses, and no top-level definition of
the package goes unused: with no linter installed, this keeps removed code
from leaving its imports or its helpers behind."""

import ast
import collections
import importlib.util
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


def imported(source, kept):
    """(line, name) of each name `source` binds by an import that is marked
    `noqa: F401` (a binding kept for another module) if `kept`, or unmarked if not."""
    lines = source.splitlines()
    nodes = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    return [(node.lineno, alias.asname or alias.name.split(".")[0]) for node in nodes
            if kept == any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names]


def unused_imports(source):
    """(line, name) of each name `source` imports and never reads. Imports on a
    line marked `noqa: F401` are exempt."""
    read = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported(source, kept=False) if name not in read]


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


def test_the_scan_finds_a_kept_import():
    source = ("import os\nfrom .model import (predict,  # noqa: F401 - kept\n"
              "                     train)\nimport sys  # noqa: F401\n")
    assert imported(source, kept=True) == [(2, "predict"), (2, "train"), (4, "sys")]


def test_every_kept_import_is_a_binding_the_tracer_wraps():
    """An import under src/segdetect kept only for another module is a (module,
    name) binding of perfbench's tracing.BINDINGS. When the tracer stops
    wrapping a binding, this names the import to delete."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)    # defines the tables, runs nothing
    bindings = {(module, attr) for module, attr, _ in tracing.BINDINGS}
    kept = [(os.path.basename(path)[:-3], name) for path, text in python_sources().items()
            if path.startswith(os.path.join("src", "segdetect", ""))
            for _, name in imported(text, kept=True)]
    assert [binding for binding in kept if binding not in bindings] == []


RUN_RECORDS = ("config.json", "keys.json", "run.lock")


def record_names(source):
    """(line, text) of each string literal in `source`, docstrings and f-string
    parts included, that names a file of RUN_RECORDS."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(name in node.value for name in RUN_RECORDS)]


def test_the_scan_finds_a_record_name():
    source = ('"""Reads config.json."""\npath = os.path.join(out, "keys.json")\n'
              '# run.lock in a comment\nlock = f"{out}/run.lock"\nname = "keys"\n')
    assert record_names(source) == [(1, "Reads config.json."), (2, "keys.json"),
                                    (4, "/run.lock")]


def test_only_pipeline_names_a_run_record():
    """pipeline alone reads or writes a run directory's config.json, keys.json
    and run.lock."""
    found = [f"{path}:{line}: {literal!r}" for path, text in python_sources().items()
             if path.startswith(os.path.join("src", "segdetect", ""))
             and path != os.path.join("src", "segdetect", "pipeline.py")
             for line, literal in record_names(text)]
    assert found == []


# The wordings of a config-key message, an f-string's fields read as "{}".
CONFIG_KEY_MESSAGE = re.compile(r"key\(s\)|key \S+: expected|: expected object")


def config_key_messages(source):
    """(line, text) of each string literal in `source`, docstrings included, that
    words a config-key message; an f-string is one text, "{}" for each field."""
    tree = ast.parse(source)
    parts = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
             for part in node.values}
    texts = [(node.lineno, "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                   for part in node.values)) for node in ast.walk(tree)
             if isinstance(node, ast.JoinedStr)]
    texts += [(node.lineno, node.value) for node in ast.walk(tree) if isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in parts]
    return sorted((line, text) for line, text in texts if CONFIG_KEY_MESSAGE.search(text))


def test_the_scan_finds_a_config_key_message():
    source = ('"""Lists the unknown key(s)."""\nraise E(f"{s} key {k}: expected {t}")\n'
              'm = "dataset: expected object"\nn = f"{s} key {k}: must be {r}"\nkey = "expected"\n')
    assert config_key_messages(source) == [(1, "Lists the unknown key(s)."),
                                           (2, "{} key {}: expected {}"),
                                           (3, "dataset: expected object")]


def test_only_errors_words_a_config_key_message():
    """errors alone words the messages of an unknown key, a value of the wrong
    type and a value that is no object, so every config check shares them."""
    found = [f"{path}:{line}: {text!r}" for path, text in python_sources().items()
             if path.startswith(os.path.join("src", "segdetect", ""))
             and path != os.path.join("src", "segdetect", "errors.py")
             for line, text in config_key_messages(text)]
    assert found == []


def check_type_calls(source):
    """Line of each call in `source` of check_type, by its name or as an
    attribute (`errors.check_type(...)`)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and "check_type" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_scan_finds_a_check_type_call():
    source = ("from .errors import check_type\ncheck_type(s, k, v, int)\n"
              "# check_type(s, k, v, int) in a comment\nerrors.check_type(s, k, v, float)\n"
              "text = 'check_type(v)'\ncheck = check_type\ncheck_types(v)\n")
    assert check_type_calls(source) == [2, 4]


def test_only_errors_calls_check_type():
    """errors.check_fields alone checks a config value's type, so every config
    field, a detector kind's keys included, is checked in one form."""
    found = [f"{path}:{line}" for path, text in python_sources().items()
             if path.startswith(os.path.join("src", "segdetect", ""))
             and path != os.path.join("src", "segdetect", "errors.py")
             for line in check_type_calls(text)]
    assert found == []


DELETERS = {("shutil", "rmtree"), ("os", "remove"), ("os", "unlink"), ("os", "rmdir")}


def deletions(source):
    """(line, innermost enclosing function, "module.name") of each use in
    `source` of a DELETERS function, taken as an attribute (`os.remove`) or
    imported by name; the function is "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                found.extend((child.lineno, where, f"{child.module}.{alias.name}")
                             for alias in child.names if (child.module, alias.name) in DELETERS)
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and (child.value.id, child.attr) in DELETERS):
                found.append((child.lineno, where, f"{child.value.id}.{child.attr}"))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_a_deletion():
    source = ("import os, shutil\nfrom os import unlink\n\n\ndef drop(p):\n"
              "    def inner():\n        shutil.rmtree(p)\n    os.remove(p)\n\n\n"
              "names.remove(1)\nos.rmdir('x')\nos.replace('a', 'b')\n# os.unlink in a comment\n")
    assert deletions(source) == [(2, "", "os.unlink"), (7, "inner", "shutil.rmtree"),
                                 (8, "drop", "os.remove"), (12, "", "os.rmdir")]


def test_only_drop_deletes_a_file():
    """pipeline._drop alone removes files or directories, so a recorded unit
    is forgotten in one way: its key first, then its files."""
    found = [f"{path}:{line}: {name} in {where or 'module'}"
             for path, text in python_sources().items()
             if path.startswith(os.path.join("src", "segdetect", ""))
             for line, where, name in deletions(text)
             if (path, where) != (os.path.join("src", "segdetect", "pipeline.py"), "_drop")]
    assert found == []
