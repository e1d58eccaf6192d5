"""Every top-level import in the package modules is used, every private
top-level function is referenced somewhere in the package, every public
one is reached by a walk from the exports and the CLI, every oracle in
``tests/oracles.py`` is referenced by the tests and runs none of the
package's residual engine or checkers, values are divided only
in ``exactlin``, JSON is written and files are touched only by ``fileio``,
no module imports ``dataclasses`` or ``typing``, no term builder takes a
``skew`` flag and only ``Algebra3._skew`` calls the skew scan (no linter is
installed, so this is the lint)."""
import ast
import glob
import os
import subprocess
import sys

import pytest

from homlie3.cli import Verb

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, os.pardir, "src", "homlie3")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 # the package's imports are its public names
                 if os.path.basename(p) != "__init__.py")


def _annotation_names(node) -> set:
    """Names inside a string annotation such as -> "Mat"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    src = "import os\nfrom typing import Mapping, Optional\n\ndef f(x: 'Mapping'):\n    return os\n"
    assert unused_imports(src) == [(2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_top_level_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_names(top) -> set:
    """Names one top-level statement reads, looks up as attributes or
    imports by name; a function or class naming itself does not count."""
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    if isinstance(top, DEFINITIONS):
        names.discard(top.name)
    return names


def referenced_names(source: str) -> set:
    """Names a module reads, looks up as attributes or imports by name; a
    top-level function or class naming itself does not count."""
    return set().union(*map(_read_names, ast.parse(source).body))


def unreferenced_private_functions(sources: dict) -> list:
    """(module, name) for each private top-level function of the modules in
    ``sources`` ({module: source}) that no module references."""
    used = set().union(*map(referenced_names, sources.values()))
    return sorted((mod, node.name) for mod, src in sources.items()
                  for node in ast.parse(src).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and node.name not in used)


def test_detector_flags_an_unreferenced_private_function():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    return _dead\n",
               "b": "from .a import _used\n\ndef _called(x):\n    return x.y\n\n"
                    "def f():\n    return _used, _called\n"}
    # a function that only names itself is as dead as one nothing names
    assert unreferenced_private_functions(sources) == [("a", "_dead")]


def test_no_unreferenced_private_functions():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unreferenced_private_functions(sources) == []


def cli_reached(source: str) -> set:
    """Names the CLI reaches only through strings: the function of each
    ``Verb``'s op and check ("module.function"), ``load_NAME`` for each
    input NAME of a ``Verb`` and each fileio writer that ``_TO_DOC``
    names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Verb"):
            fields = dict(zip(Verb._fields, node.args))
            fields.update((k.arg, k.value) for k in node.keywords)
            out |= {"load_" + n.strip("[]")
                    for n in fields["inputs"].value.split()}
            out |= {f.value.rpartition(".")[2]
                    for f in (fields.get("op"), fields.get("check"))
                    if isinstance(f, ast.Constant)}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and [getattr(t, "id", None) for t in node.targets] == ["_TO_DOC"]):
            out |= {v.value for v in node.value.values}
    return out


def unreachable_public(sources: dict) -> list:
    """(module, name) for each public top-level function or class of the
    modules in ``sources`` ({module: source}, "__init__.py" and "cli.py"
    among them) that a walk from the roots does not reach. The roots are
    the names ``__init__`` exports, those the CLI reaches through a string,
    its entry point ``main`` and the names that top-level statements other
    than definitions and imports read (they run at import); a reached
    definition reaches every name it reads. So a chain of dead code, whose
    links only name one another, is flagged whole."""
    defs: dict = {}
    reached = cli_reached(sources["cli.py"]) | {"main"}
    reached |= referenced_names(sources["__init__.py"])
    for src in sources.values():
        for top in ast.parse(src).body:
            if isinstance(top, DEFINITIONS):
                defs.setdefault(top.name, []).append(top)
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                reached |= _read_names(top)
    todo = list(reached)
    while todo:
        for top in defs.pop(todo.pop(), ()):
            new = _read_names(top) - reached
            reached |= new
            todo += new
    return sorted((mod, node.name) for mod, src in sources.items()
                  for node in ast.parse(src).body
                  if isinstance(node, DEFINITIONS)
                  and not node.name.startswith("_")
                  and node.name not in reached)


def test_detector_flags_an_unreachable_public_definition():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": "from .b import imported\n\n"
                "class Exported:\n    def f(self):\n        return _live()\n\n"
                "def _live():\n    return used\n\n"
                "def used():\n    pass\n\n"
                "class Dead:\n    def f(self):\n        return Dead()\n\n"
                "def helper():\n    return imported\n\n"
                "def _link():\n    return helper()\n\n"
                "def dead():\n    return _link(), dead\n\n"
                "def op():\n    pass\n\ndef checker():\n    pass\n",
        "b.py": "def imported():\n    pass\n",
        "fileio.py": "def load_thing():\n    pass\n\n"
                     "def load_other():\n    pass\n\n"
                     "def thing_to_doc():\n    pass\n\n"
                     "def other_to_doc():\n    pass\n",
        "cli.py": "_TO_DOC = {'thg': 'thing_to_doc'}\n"
                  "HANDLERS = {('v', 't'): Verb('thing [other]', 'a.op'),\n"
                  "            ('v', 'u'): Verb('thing', _glue, check='a.checker')}\n",
    }
    # a class or function naming only itself is unreached, and so is the
    # whole chain that only a dead definition names, through a private
    # link and an import; what a reached class's method names is reached
    assert unreachable_public(sources) == [
        ("a.py", "Dead"), ("a.py", "dead"), ("a.py", "helper"),
        ("b.py", "imported"), ("fileio.py", "other_to_doc")]


def test_every_public_definition_is_reachable():
    """Public code that no verb, export or other definition reaches is
    deleted, and what tests alone call lives in ``tests/``."""
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unreachable_public(sources) == []


def unreferenced_functions(sources: dict, module: str) -> list:
    """Top-level functions of ``module`` that no module in ``sources``
    ({module: source}, ``module`` among them) references."""
    used = set().union(*map(referenced_names, sources.values()))
    return sorted(node.name for node in ast.parse(sources[module]).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name not in used)


def test_detector_flags_an_unused_oracle():
    sources = {"oracles.py": "def _helper():\n    pass\n\n"
                             "def used():\n    return _helper()\n\n"
                             "def dead():\n    return dead\n",
               "test_a.py": "import oracles\n\n"
                            "def test_a():\n    oracles.used()\n"}
    assert unreferenced_functions(sources, "oracles.py") == ["dead"]


def test_every_oracle_is_used():
    sources = {}
    for path in glob.glob(os.path.join(TESTS, "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert unreferenced_functions(sources, "oracles.py") == []


# The residual engine, its composed outer parts and the checkers that the
# oracles stand in for; the term builders are the names ``_*_terms``.
ENGINE = frozenset({"_identity", "_residual", "_twisted_outer", "_by_slot",
                    "_slot_outer", "twist_slots", "check_algebra",
                    "check_representation", "check_o_operator"})


def engine_names(source: str) -> list:
    """The names of the engine, a term builder or a checker of ENGINE that
    a module reads, looks up as an attribute or imports."""
    return sorted(name for name in referenced_names(source)
                  if name in ENGINE
                  or name.startswith("_") and name.endswith("_terms"))


def test_detector_flags_an_oracle_on_the_engine():
    src = ("from homlie3.homlie import _fourterm_terms, _permuted\n"
           "from homlie3 import reps\n\n"
           "def check_algebra_loop(a):\n"
           "    return reps.check_representation(a), _permuted\n")
    assert engine_names(src) == ["_fourterm_terms", "check_representation"]


def test_oracles_do_not_run_the_engine():
    """An oracle that ran the package's engine or checker would share the
    design it checks, so it could not catch a misreading of the paper."""
    with open(os.path.join(TESTS, "oracles.py")) as fh:
        assert engine_names(fh.read()) == []


def divisions(source: str) -> list:
    """Lines of the true divisions (``/`` and ``/=``) in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


def test_detector_flags_a_division():
    src = ("def f(a, b):\n    c = a // b\n    c /= 2\n"
           "    return f'{a}/{b}', '1/2', a / b\n")
    assert divisions(src) == [3, 4]


@pytest.mark.parametrize(
    "path", sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                   if os.path.basename(p) != "exactlin.py"),
    ids=os.path.basename)
def test_values_are_divided_only_in_exactlin(path):
    """Elements are ints when integral: int / int would give a float, so
    the one division, which keeps a Fraction numerator, is in exactlin."""
    with open(path) as fh:
        assert divisions(fh.read()) == []


def json_writes(source: str) -> list:
    """Lines that call ``json.dump``/``json.dumps`` or import either name
    from ``json``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name in ("dump", "dumps") for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_flags_a_json_write():
    src = ("import json\nfrom json import dumps as d\n\n"
           "def f(x, fh):\n    json.dump(x, fh)\n    json.loads(x)\n"
           "    return json.dumps(x, indent=2)\n")
    assert json_writes(src) == [2, 5, 7]


@pytest.mark.parametrize(
    "path", sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                   if os.path.basename(p) != "fileio.py"),
    ids=os.path.basename)
def test_json_is_written_only_by_fileio(path):
    """Every byte the package writes goes through the one canonical
    encoder, ``fileio.dumps``."""
    with open(path) as fh:
        assert json_writes(fh.read()) == []


OS_FILE_CALLS = ("open", "replace", "unlink")


def file_calls(source: str) -> list:
    """Lines that call ``open``, ``os.open``, ``os.replace`` or
    ``os.unlink``, or import one of the ``os`` names."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Name) and f.id == "open")
                    or (isinstance(f, ast.Attribute)
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "os" and f.attr in OS_FILE_CALLS)):
                lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in OS_FILE_CALLS for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_flags_a_file_call():
    src = ("import os\nfrom os import replace as r\n\n"
           "def f(p, fh):\n    fh.open()\n    os.makedirs(p)\n"
           "    with open(p) as g:\n        os.replace(p, p)\n"
           "    os.unlink(p)\n    return os.open(p, 0), os.path.join(p)\n")
    assert file_calls(src) == [2, 7, 8, 9, 10]


@pytest.mark.parametrize(
    "path", sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                   if os.path.basename(p) != "fileio.py"),
    ids=os.path.basename)
def test_files_are_touched_only_by_fileio(path):
    """Every artifact is read and written atomically by ``fileio``."""
    with open(path) as fh:
        assert file_calls(fh.read()) == []


# Modules whose import alone costs milliseconds at each start of the CLI:
# dataclasses generates and execs code per class and pulls in inspect, ast
# and dis, and typing is a large module that annotations do not need.
SLOW_IMPORTS = ("dataclasses", "typing")


def slow_imports(source: str) -> list:
    """Lines that import one of SLOW_IMPORTS, or a submodule of one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n.split(".")[0] in SLOW_IMPORTS for n in names):
            lines.append(node.lineno)
    return lines


def test_detector_flags_a_slow_import():
    src = ("import os, typing\nfrom dataclasses import dataclass\n"
           "from collections.abc import Mapping\nfrom .typing import x\n"
           "def f():\n    import typing.re\n")
    assert slow_imports(src) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_dataclasses_or_typing(path):
    with open(path) as fh:
        assert slow_imports(fh.read()) == []


def test_fresh_import_loads_no_code_generation_modules():
    """In a fresh interpreter without site packages, importing the package,
    the CLI and fileio loads none of the modules that dataclasses and typing
    bring in. No timing is checked."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import homlie3, homlie3.cli, homlie3.fileio; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis'} "
            "& set(sys.modules)))")
    src = os.path.abspath(os.path.join(SRC, os.pardir))
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]"]


def skew_flagged_term_builders(source: str) -> list:
    """Functions named ``*_terms`` with a parameter named ``skew``."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and node.name.endswith("_terms")
                  and any(arg.arg == "skew" for arg in ast.walk(node.args)
                          if isinstance(arg, ast.arg)))


def stray_skew_scans(source: str) -> list:
    """Lines that name ``_skew_scan`` outside ``Algebra3._skew``, its
    definition aside."""
    tree = ast.parse(source)
    inside = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
              and cls.name == "Algebra3" for f in cls.body
              if isinstance(f, ast.FunctionDef) and f.name == "_skew"
              for node in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in inside
                  and "_skew_scan" in (getattr(node, "id", None),
                                       getattr(node, "attr", None),
                                       getattr(node, "name", None))
                  and not isinstance(node, ast.FunctionDef))


def test_detector_flags_a_skew_flag_and_a_stray_skew_scan():
    src = ("from .homlie import _skew_scan\n\n"
           "class Algebra3:\n    def _skew(self):\n"
           "        return _skew_scan(self.bracket)\n\n"
           "def _skew_scan(c):\n    return c\n\n"
           "def _a_terms(a, skew):\n    return homlie._skew_scan(a)\n\n"
           "def _b_terms(a, *, skew=True):\n    return _skew_scan\n\n"
           "def _c_terms(a, d):\n    return a._skew\n\n"
           "def f(skew):\n    return skew\n")
    assert skew_flagged_term_builders(src) == ["_a_terms", "_b_terms"]
    assert stray_skew_scans(src) == [1, 11, 14]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_one_skew_precondition(path):
    """Each identity over an algebra has one term list, formed at sorted
    keys, and every precondition reads the one scan cached on the
    algebra."""
    with open(path) as fh:
        source = fh.read()
    assert skew_flagged_term_builders(source) == []
    assert stray_skew_scans(source) == []
