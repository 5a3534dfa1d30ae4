"""Every import in the package, its tests and its scripts is used: a
module-level import in its file, an import inside a function in that
function."""
from __future__ import annotations

import ast
import importlib
import operator
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "sftlab").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")])


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(nodes):
    """The nodes and their descendants in source order, less those of the
    functions, lambdas and classes nested in them."""
    for node in nodes:
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
            yield from _own_nodes(ast.iter_child_nodes(node))


def _bound(nodes) -> dict[str, int]:
    """The names the imports among nodes bind, with their lines."""
    bound: dict[str, int] = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _names(nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in its scope.  A module-level
    import's scope is the module, where names listed in ``__all__`` count as
    read; an import in a function's scope is that function's body, nested
    functions included."""
    tree = ast.parse(source)
    used = _names([tree])
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    found = [f"{name} (line {line})" for name, line in _bound(tree.body).items()
             if name not in used]
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            read = _names(fn.body)
            found += [f"{name} (line {line})"
                      for name, line in _bound(_own_nodes(fn.body)).items()
                      if name not in read]
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


def test_guard_sees_an_unused_local_import():
    source = ("import os\n"
              "def f():\n"
              "    import sys\n"
              "    if os:\n"
              "        from a import b, c\n"
              "    def g():\n"
              "        return b\n"
              "    return g\n"
              "def h():\n"
              "    return sys, c\n")
    assert unused_imports(source) == ["sys (line 3)", "c (line 5)"]


GENERATORS = {"dataclasses", "inspect"}       # modules that build code at import
EVALUATORS = {"exec", "eval", "compile"}


def generated_code(source: str) -> list[str]:
    """Imports of ``dataclasses`` or ``inspect`` and calls of the built-in
    ``exec``, ``eval`` or ``compile``: each costs every process that imports
    the module, so the package's records are built without them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[0] in GENERATORS]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] in GENERATORS):
            found.append(f"from {node.module} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in EVALUATORS):
            found.append(f"{node.func.id}() (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sftlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_generated_code(path):
    assert generated_code(path.read_text()) == []


def test_guard_sees_generated_code():
    source = ("import dataclasses\n"
              "from inspect import signature\n"
              "import re, os.path\n"
              "from .inspect import x\n"
              "re.compile('a')\n"
              "exec('b = 1')\n"
              "def f():\n"
              "    return eval('2') + compile('3', '', 'eval')\n")
    assert generated_code(source) == ["import dataclasses (line 1)",
                                      "from inspect (line 2)", "exec() (line 6)",
                                      "eval() (line 8)", "compile() (line 8)"]


# the private names one module of the package may take from another
SHARED_PRIVATE = {"cohomology._build", "shifts._canonical"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source: str) -> list[str]:
    """The private names of other ``sftlab`` modules that a module of the
    package imports or reads, as ``module._name (line n)``: a relative
    ``from`` import of a name with one leading underscore, or such an
    attribute read off a module bound by a relative import."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name: alias.name
               for node in imports if node.module is None for alias in node.names}
    found = [(node.lineno, f"{node.module}.{alias.name}")
             for node in imports if node.module is not None
             for alias in node.names if _is_private(alias.name)]
    found += [(node.lineno, f"{modules[node.value.id]}.{node.attr}")
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _is_private(node.attr)]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_only_the_shared_private_names_cross_modules():
    found = {entry.split()[0] for path in (ROOT / "src" / "sftlab").glob("*.py")
             for entry in foreign_private_names(path.read_text())}
    assert found == SHARED_PRIVATE


def test_guard_sees_a_foreign_private_name():
    source = ("from . import cohomology as coh, shifts\n"
              "from .moves import _factor_pairs, elementary\n"
              "def f(p):\n"
              "    from . import linalg as la\n"
              "    return coh._build, shifts.words, la._pivot, coh.__name__, p._x\n")
    assert foreign_private_names(source) == ["moves._factor_pairs (line 2)",
                                             "cohomology._build (line 5)",
                                             "linalg._pivot (line 5)"]


# The machine layer, the verdicts and the random instances read B_k by
# position off the word levels of ``shifts``; these modules take none of its
# word-table builders.
_LEVEL_ONLY = ("transducers", "moves", "classify", "randgen")
_WORD_TABLES = {"words"}
# The function layer does too, but for its text boundary: the file format
# lists each word of B_k.
_FUNCTION_LAYER = ("cohomology", "actions")
_TEXT_BOUNDARY = {"parse_function_text", "format_function_text"}
# The modules that print or re-export word tables: ``sftlab words`` and the
# package namespace.
_TEXT_MODULES = ("cli", "__init__")


def names_from_shifts(source: str) -> list[str]:
    """The names a module of the package takes from ``shifts``, as ``name
    (line n)``: by a relative ``from .shifts import``, or as attributes read
    off ``shifts`` bound by ``from . import shifts``."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level]
    bound = {alias.asname or alias.name for node in imports if node.module is None
             for alias in node.names if alias.name == "shifts"}
    found = [(node.lineno, alias.name)
             for node in imports if node.module == "shifts" for alias in node.names]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def word_table_uses(source: str) -> list[str]:
    """The reads of a word-table builder of ``shifts`` in the functions and
    methods of a module, as ``function: name (line n)``, nested functions
    and lambdas counted under the outermost: a name taken by a relative
    ``from .shifts import``, or an attribute read off ``shifts`` bound by
    ``from . import shifts``."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level]
    taken = {alias.asname or alias.name: alias.name for node in imports
             if node.module == "shifts" for alias in node.names}
    bound = {alias.asname or alias.name for node in imports if node.module is None
             for alias in node.names if alias.name == "shifts"}
    functions = [node for top in tree.body
                 for node in (top.body if isinstance(top, ast.ClassDef) else [top])
                 if isinstance(node, FUNCTIONS)]
    found = []
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in taken:
                name = taken[node.id]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound):
                name = node.attr
            else:
                continue
            if name in _WORD_TABLES:
                found.append((node.lineno, f"{fn.name}: {name} (line {node.lineno})"))
    return [entry for _line, entry in sorted(found)]


def word_table_imports(source: str) -> list[str]:
    """The word-table builders among the names a module takes from
    ``shifts``, as ``name (line n)``."""
    return [entry for entry in names_from_shifts(source)
            if entry.split()[0] in _WORD_TABLES]


def test_machine_layer_builds_no_word_tables():
    """transducers, moves, classify and randgen take no word-table builder;
    the compute functions of cohomology and actions call none.  Every other
    module that takes a name from ``shifts`` is one of the text modules."""
    modules = {path.stem: path.read_text()
               for path in (ROOT / "src" / "sftlab").glob("*.py")}
    takers = {stem for stem, source in modules.items() if names_from_shifts(source)}
    assert takers <= {*_LEVEL_ONLY, *_FUNCTION_LAYER, *_TEXT_MODULES}
    found = set()
    for stem in _LEVEL_ONLY:
        found |= {f"{stem}: {entry}" for entry in word_table_imports(modules[stem])}
    for stem in _FUNCTION_LAYER:
        found |= {f"{stem}.{use}" for use in word_table_uses(modules[stem])
                  if use.split(":")[0] not in _TEXT_BOUNDARY}
    assert found == set()


def test_guard_sees_a_word_table_import():
    source = ("from .shifts import word_level, words\n"
              "from . import cohomology, shifts as sh\n"
              "def f(p):\n"
              "    return sh.block_edges(p, 2), cohomology.words\n")
    assert names_from_shifts(source) == ["word_level (line 1)", "words (line 1)",
                                         "block_edges (line 4)"]


def test_guard_sees_words_taken_by_a_level_only_module():
    """An aliased import and an attribute read off ``shifts`` both count."""
    source = ("from .shifts import SftPresentation, words as table\n"
              "from . import shifts\n"
              "def f(p):\n"
              "    return table(p, 2), shifts.word_level(p, 2), shifts.words(p, 3)\n")
    assert word_table_imports(source) == ["words (line 1)", "words (line 4)"]


def test_guard_sees_a_word_table_use():
    source = ("from .shifts import word_level, words as table\n"
              "from . import shifts as sh\n"
              "def f(p):\n"
              "    return word_level(p, 2), other.words(p, 1)\n"
              "class C:\n"
              "    def g(self, p):\n"
              "        return [lambda: table(p, 3)], sh.words(p, 1)\n"
              "outside = table\n")
    assert word_table_uses(source) == ["g: words (line 7)", "g: words (line 7)"]


# The word layer, the function layer, the machine layer and the moves load
# no linear algebra when imported: ``shifts`` and ``moves`` take ``mat_mul``
# inside the one function that calls it, and ``freeze`` comes from ``record``.
_NO_LINEAR_ALGEBRA = ("shifts", "cohomology", "transducers", "actions", "moves")


def module_level_linalg_names(source: str) -> list[str]:
    """The names a module takes from ``linalg`` outside its functions and
    classes, as ``name (line n)``: by a relative ``from .linalg import``, or
    the module itself by ``from . import linalg``."""
    found = [(node.lineno, alias.name) for node in _own_nodes(ast.parse(source).body)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names
             if node.module == "linalg" or (node.module is None
                                            and alias.name == "linalg")]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_lower_layers_load_no_linear_algebra():
    found = {f"{stem}: {entry}" for stem in _NO_LINEAR_ALGEBRA
             for entry in module_level_linalg_names(
                 (ROOT / "src" / "sftlab" / f"{stem}.py").read_text())}
    assert found == set()


def test_guard_sees_a_module_level_linalg_import():
    source = ("from .linalg import freeze, mat_mul as mm\n"
              "from . import cohomology, linalg as la\n"
              "if True:\n"
              "    from .linalg import smith\n"
              "from .record import freeze\n"
              "def f():\n"
              "    from .linalg import cokernel\n"
              "    return cokernel\n"
              "class C:\n"
              "    from . import linalg\n")
    assert module_level_linalg_names(source) == ["freeze (line 1)", "mat_mul (line 1)",
                                                 "linalg (line 2)", "smith (line 4)"]


# ``pointed_iso`` re-checks a yes against the inverse it builds, by products
# modulo the moduli, so neither it nor any function of ``linalg`` it reaches
# takes a Smith form or a determinant.
_SMITH_PATH = {"cokernel", "smith", "determinant", "is_unimodular"}


def smith_path_reads(source: str, root: str) -> list[str]:
    """The reads of a Smith-path name in ``root`` and in every top-level
    function of its module that ``root`` reaches by reading its name, as
    ``function: name (line n)``; nested functions and lambdas count under
    the outermost."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, FUNCTIONS)}
    reached, todo, found = set(), [root], []
    while todo:
        name = todo.pop()
        if name in reached or name not in functions:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                todo.append(node.id)
                if node.id in _SMITH_PATH:
                    entry = f"{name}: {node.id} (line {node.lineno})"
                    found.append((node.lineno, entry))
    return [entry for _line, entry in sorted(found)]


def test_pointed_iso_check_takes_no_smith_form():
    source = (ROOT / "src" / "sftlab" / "linalg.py").read_text()
    assert smith_path_reads(source, "pointed_iso") == []


def test_guard_sees_a_smith_path_read():
    """A read two calls down, by a lambda, or by the root itself counts; a
    method, a function the root does not reach and an attribute do not."""
    source = ("def pointed_iso(x):\n"
              "    return check(x) and la.smith(x)\n"
              "def check(x):\n"
              "    return inner(x)\n"
              "def inner(x):\n"
              "    f = lambda m: cokernel(m)\n"
              "    return f(x) and is_unimodular(x)\n"
              "def unreached(x):\n"
              "    return determinant(x)\n"
              "class C:\n"
              "    def check(self, x):\n"
              "        return smith(x)\n")
    assert smith_path_reads(source, "pointed_iso") == [
        "inner: cokernel (line 6)", "inner: is_unimodular (line 7)"]
    assert smith_path_reads("def pointed_iso(m):\n    return determinant(m)\n",
                            "pointed_iso") == ["pointed_iso: determinant (line 2)"]


# Of these, all but ``actions`` load no ``fractions`` (nor the ``decimal`` it
# imports) when imported: ``cohomology`` imports it where ring Q makes or
# parses a value.  Nor does ``linalg``, whose numbers are all integers.
_NO_FRACTIONS = ("shifts", "cohomology", "transducers", "moves", "linalg")


def module_level_imports(source: str, module: str) -> list[str]:
    """The imports of the top-level module ``module`` outside the functions
    and classes of a module, as ``module (line n)``."""
    lines = [node.lineno for node in _own_nodes(ast.parse(source).body)
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == module for alias in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and node.module.split(".")[0] == module]
    return [f"{module} (line {line})" for line in lines]


def test_lower_layers_load_no_fractions():
    found = {f"{stem}: {entry}" for stem in _NO_FRACTIONS
             for entry in module_level_imports(
                 (ROOT / "src" / "sftlab" / f"{stem}.py").read_text(), "fractions")}
    assert found == set()


def test_guard_sees_a_module_level_fractions_import():
    source = ("import os, fractions as fr\n"
              "from fractions import Fraction\n"
              "try:\n"
              "    from fractions import Fraction as F\n"
              "except ImportError:\n"
              "    pass\n"
              "from .fractions import x\n"
              "def f():\n"
              "    from fractions import Fraction\n"
              "    return Fraction\n")
    assert module_level_imports(source, "fractions") == [
        "fractions (line 1)", "fractions (line 2)", "fractions (line 4)"]


# What a command loads, seen in a fresh interpreter, which also sees a
# module-level import in any module the command loads.  It runs without
# ``site`` (``-S``), whose ``.pth`` files may load modules of their own.  No
# command loads ``pathlib`` or ``random``: under ``python -S -X importtime``
# (Python 3.11) they cost 14-16 and 3-4.5 ms on their own, and only
# ``selftest`` draws at random, importing ``random`` when it runs.
_NEVER_LOADED = ("pathlib", "random")
_PROBE = ("import sys, sftlab.cli\n"
          "code = sftlab.cli.run(sys.argv[1:])\n"
          "print(code, *sys.modules)\n")


def loaded_modules(src: pathlib.Path, cwd: pathlib.Path, argv: list[str]) -> set[str]:
    """The modules loaded once ``sftlab`` from ``src`` has run argv in cwd."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120,
                          check=False)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(loaded)


def unwanted_modules(src: pathlib.Path, cwd: pathlib.Path, argv: list[str],
                     absent: str) -> list[str]:
    """The modules named in ``absent``, or loaded by no command, that argv
    loads."""
    return sorted(loaded_modules(src, cwd, argv) & {*absent.split(), *_NEVER_LOADED})


def _planted(tmp_path: pathlib.Path, imports: str) -> pathlib.Path:
    """A copy of the package under tmp_path whose ``shifts`` makes the given
    imports at module level."""
    shutil.copytree(ROOT / "src" / "sftlab", tmp_path / "sftlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shifts = tmp_path / "sftlab" / "shifts.py"
    source = shifts.read_text()
    patched = source.replace("\nimport functools\n", f"\nimport functools\n{imports}", 1)
    assert patched != source
    shifts.write_text(patched)
    return tmp_path


# Commands that build no word level load no ``array``: ``shifts`` imports it
# where it builds level 1, not at the top.
@pytest.mark.parametrize("command", ["validate fib.mat", "invariants fib.mat",
                                     "coe fib.mat full2.mat"])
def test_commands_without_levels_load_no_array(fixture_dir, command):
    assert unwanted_modules(ROOT / "src", fixture_dir, command.split(), "array") == []


def test_guard_sees_a_module_level_array_import(fixture_dir, tmp_path):
    src = _planted(tmp_path, "from array import array\n")
    assert unwanted_modules(src, fixture_dir, ["validate", "fib.mat"],
                            "array") == ["array"]


# Commands that make no rational load no ``fractions``, and the transfers
# along an expansion no ``linalg``.
@pytest.mark.parametrize("command, absent", [
    ("snf fib.mat", "fractions decimal"),
    ("cohom class-equal fib.mat gauge.f zero.f", "fractions"),
    ("transducer verify-coe fib.mat fib.mat ident.t zero.f gauge.f", "fractions"),
    ("transfer psi-xi fib.mat x.f", "fractions sftlab.linalg"),
])
def test_commands_without_rationals_load_no_fractions(fixture_dir, tmp_path, command,
                                                      absent):
    (tmp_path / "x.f").write_text("function x depth=1 ring=Z\n0 1\n1 1\n2 1\n")
    argv = [str(tmp_path / a) if a == "x.f" else a for a in command.split()]
    assert unwanted_modules(ROOT / "src", fixture_dir, argv, absent) == []


def test_guard_sees_module_level_fractions_linalg_pathlib_and_random(fixture_dir,
                                                                     tmp_path):
    src = _planted(tmp_path, "import fractions, pathlib, random\nfrom . import linalg\n")
    assert unwanted_modules(src, fixture_dir, ["validate", "fib.mat"],
                            "fractions sftlab.linalg") == [
        "fractions", "pathlib", "random", "sftlab.linalg"]


# Public names of the package that nothing in ``src/`` or ``scripts/`` reads,
# each with the reason it stays: functions and classes as ``module.name``,
# methods and properties as ``module.Class.name``.  The tests and the
# benchmark are not readers, and neither are the re-exports of ``__init__``.
UNREAD_ALLOWED = {
    # perfbench's checks compare functions at points and test a difference
    # for zero
    "cohomology.LocallyConstantFunction.value_at_point",
    "cohomology.LocallyConstantFunction.is_zero",
    # ROADMAP item 8: the last decision that returns a bare bool, and the
    # printer of the matrix round trip
    "cohomology.order_unit_check",
    "shifts.format_matrix_text",
    # item 11: the gauge-action verdicts, to be reached from a command
    "classify.consistency_check",
    "transducers.block_conjugacy",
    "transducers.is_eventual_conjugacy",
    # perfbench/layertrace.py counts its calls, and the tests size tables by
    # it, their count of |B_k| independent of the word levels
    "shifts.count_words",
}


def _module_bindings(tree, modules: set[str], exports: dict[str, str]):
    """(names bound to package modules, names bound to package members) by
    the imports anywhere in a file: relative ones, and absolute ones from
    ``sftlab``, whose re-exports resolve through ``exports``."""
    mods: dict[str, str] = {}
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sftlab" and len(parts) == 2 and alias.asname:
                    mods[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "sftlab":
                continue
            module = module.removeprefix("sftlab").lstrip(".")
            for alias in node.names:
                bound = alias.asname or alias.name
                if module:
                    members[bound] = f"{module}.{alias.name}"
                elif alias.name in modules:
                    mods[bound] = alias.name
                elif alias.name in exports:
                    members[bound] = exports[alias.name]
    return mods, members


def _resolver(tree, stem, modules: set[str], exports: dict[str, str]):
    """A function from a node of the file to the package member it reads,
    as ``module.name``, or None: a name imported from the package, an
    attribute of a package module, or, in module ``stem``, a name defined at
    its top level."""
    mods, members = _module_bindings(tree, modules, exports)
    if stem is not None:
        members.update({node.name: f"{stem}.{node.name}" for node in tree.body
                        if isinstance(node, (*FUNCTIONS, ast.ClassDef))})

    def resolve(node):
        if isinstance(node, ast.Name):
            return members.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in mods):
            return f"{mods[node.value.id]}.{node.attr}"
        return None
    return resolve


def _reads(tree, stem, modules: set[str], exports: dict[str, str]):
    """(qualified name, reader) for every read of a package member in a
    file, resolved by ``_resolver``.  The reader is ``stem.name`` inside a
    top-level definition, else None."""
    resolve = _resolver(tree, stem, modules, exports)
    for top in tree.body:
        owner = (f"{stem}.{top.name}"
                 if stem and isinstance(top, (*FUNCTIONS, ast.ClassDef)) else None)
        for node in ast.walk(top):
            name = resolve(node)
            if name is not None:
                yield name, owner


def _methods(tree, stem) -> dict[str, ast.AST]:
    """``stem.Class.name`` -> definition, for each method and property of
    the file's top-level classes.  Fields are annotations, not definitions."""
    return {f"{stem}.{cls.name}.{node.name}": node for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, FUNCTIONS)}


def _attribute_reads(tree, stem):
    """(attribute name, reader) for every attribute read in a file.  The
    reader is ``stem.Class.name`` inside a method of a top-level class of
    module ``stem``, else None."""
    owners = {id(node): name for name, fn in
              (_methods(tree, stem).items() if stem is not None else ())
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, owners.get(id(node))


def unread_public_names(package: dict[str, str], scripts=()) -> set[str]:
    """The public functions and classes defined at the top level of the
    package's modules (stem -> source) that no module and no script reads
    outside their own definition, as ``module.name``, and the public
    methods and properties of their top-level classes that no module and no
    script reads as an attribute of that name outside their own
    definition, as ``module.Class.name``.  ``__init__`` reads nothing: its
    names are re-exports."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    exports = {}
    if "__init__" in trees:
        exports = _module_bindings(trees.pop("__init__"), set(trees), {})[1]
    defined = {f"{stem}.{node.name}" for stem, tree in trees.items()
               for node in tree.body
               if isinstance(node, (*FUNCTIONS, ast.ClassDef))
               and not node.name.startswith("_")}
    methods = {name for stem, tree in trees.items() for name in _methods(tree, stem)
               if not name.rsplit(".", 1)[1].startswith("_")}
    read = {name for stem, tree in trees.items()
            for name, owner in _reads(tree, stem, set(trees), exports) if name != owner}
    read |= {name for source in scripts
             for name, _owner in _reads(ast.parse(source), None, set(trees), exports)}
    readers: dict[str, set] = {}
    files = [*trees.items(), *((None, ast.parse(source)) for source in scripts)]
    for stem, tree in files:
        for attr, owner in _attribute_reads(tree, stem):
            readers.setdefault(attr, set()).add(owner)
    read |= {name for name in methods
             if readers.get(name.rsplit(".", 1)[1], set()) - {name}}
    return (defined | methods) - read


def allow_list_drift(found: set[str], allowed: set[str]) -> list[str]:
    """The names found and missing from the allow-list, and its stale
    entries."""
    return ([f"unlisted: {name}" for name in sorted(found - allowed)]
            + [f"stale: {name}" for name in sorted(allowed - found)])


def test_every_public_name_has_a_reader():
    package = {path.stem: path.read_text()
               for path in (ROOT / "src" / "sftlab").glob("*.py")}
    scripts = [path.read_text() for path in (ROOT / "scripts").glob("*.py")]
    assert allow_list_drift(unread_public_names(package, scripts),
                             UNREAD_ALLOWED) == []


def test_guard_sees_an_unread_method():
    """A method or property read only from its own body, or not at all, has
    no reader; one read as an attribute by another method, a function or a
    script has one, whatever the object it is read off.  Fields and private
    methods are not listed."""
    package = {
        "a": ("class Group:\n"
              "    free_rank: int\n"
              "    def moduli(self):\n        return (0,) * self.free_rank\n"
              "    @property\n"
              "    def rank(self):\n        return len(self.moduli())\n"
              "    def describe(self):\n        return self.describe\n"
              "    def summary(self):\n        return self._helper()\n"
              "    def _helper(self):\n        pass\n"
              "def user(g):\n    return g.moduli()\n"),
        "b": "from . import a\ndef caller(g):\n    return a.user(g)\n",
    }
    scripts = ["from sftlab.a import Group\nfrom sftlab.b import caller\n"
               "caller(Group()).summary()\n"]
    assert unread_public_names(package, scripts) == {"a.Group.rank", "a.Group.describe"}


def test_guard_sees_a_planted_unread_property():
    """The property ``FgAbelianGroup.rank``, which nothing read, put back
    into ``linalg``."""
    package = {path.stem: path.read_text()
               for path in (ROOT / "src" / "sftlab").glob("*.py")}
    anchor = "    def moduli(self) -> tuple[int, ...]:\n"
    planted = package["linalg"].replace(anchor, (
        "    @property\n"
        "    def rank(self) -> int:\n"
        "        return self.free_rank + len(self.invariant_factors)\n\n" + anchor), 1)
    assert planted != package["linalg"]
    scripts = [path.read_text() for path in (ROOT / "scripts").glob("*.py")]
    found = unread_public_names({**package, "linalg": planted}, scripts)
    assert allow_list_drift(found, UNREAD_ALLOWED) == [
        "unlisted: linalg.FgAbelianGroup.rank"]


def test_guard_sees_an_unread_name_and_a_stale_entry():
    """A re-export and a call from its own body are no readers; a
    module alias, a script's import through the package and a call from
    another top-level function of the module are."""
    package = {
        "__init__": "from .a import exported, used\n__all__ = ['exported', 'used']\n",
        "a": ("def used():\n    pass\n"
              "def exported():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def helper():\n    pass\n"
              "def user():\n    return helper()\n"
              "class Kept:\n    pass\n"
              "def _private():\n    pass\n"),
        "b": ("from . import a as m\n"
              "def caller():\n    return m.user()\n"),
    }
    scripts = ["from sftlab import used\nfrom sftlab.a import Kept\nused(), Kept\n"]
    found = unread_public_names(package, scripts)
    assert found == {"a.exported", "a.recursive", "b.caller"}
    assert allow_list_drift(found, {"b.caller", "a.gone"}) == [
        "unlisted: a.exported", "unlisted: a.recursive", "stale: a.gone"]


# Parameters with a default, on public functions of the package, that no call
# in ``src/`` or ``scripts/`` sets, each with the reason it stays.  A
# parameter that only the tests set is a constant in disguise.
UNSET_ALLOWED = {
    "cli.run.argv": "the tests and the benchmark drive the CLI in-process",
    "classify.consistency_check.witness": "item 11, to be set by orbit-verify",
    "transducers.is_eventual_conjugacy.h_back": "item 11, to be set by orbit-verify",
    "transducers.is_eventual_conjugacy.data_back": "item 11, to be set by orbit-verify",
}


def _optional_parameters(fn) -> tuple[list[str], list[str]]:
    """(the positional parameters of fn in order, those of its parameters
    that have a default)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    optional = positional[len(positional) - len(args.defaults):]
    optional += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                 if default is not None]
    return positional, optional


def unset_parameters(package: dict[str, str], scripts=()) -> set[str]:
    """The parameters with a default, on the public functions defined at the
    top level of the package's modules (stem -> source), that no call in a
    module or a script passes by position or by keyword, as
    ``module.function.parameter``; callees are resolved by ``_resolver``.  A
    call with ``*args`` or ``**kwargs`` sets every parameter it could
    reach."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    exports = {}
    if "__init__" in trees:
        exports = _module_bindings(trees.pop("__init__"), set(trees), {})[1]
    signatures = {f"{stem}.{node.name}": _optional_parameters(node)
                  for stem, tree in trees.items() for node in tree.body
                  if isinstance(node, FUNCTIONS) and not node.name.startswith("_")}
    unset = {f"{name}.{param}" for name, (_pos, optional) in signatures.items()
             for param in optional}
    files = [*((tree, stem) for stem, tree in trees.items()),
             *((ast.parse(source), None) for source in scripts)]
    for tree, stem in files:
        resolve = _resolver(tree, stem, set(trees), exports)
        for call in ast.walk(tree):
            name = isinstance(call, ast.Call) and resolve(call.func)
            if name not in signatures:
                continue
            positional, optional = signatures[name]
            given = {*positional[:len(call.args)], *(kw.arg for kw in call.keywords)}
            if None in given or any(isinstance(a, ast.Starred) for a in call.args):
                given = set(optional)
            unset -= {f"{name}.{param}" for param in given}
    return unset


def test_every_optional_parameter_has_a_setter():
    package = {path.stem: path.read_text()
               for path in (ROOT / "src" / "sftlab").glob("*.py")}
    scripts = [path.read_text() for path in (ROOT / "scripts").glob("*.py")]
    assert allow_list_drift(unset_parameters(package, scripts),
                             set(UNSET_ALLOWED)) == []


def test_guard_sees_an_unset_parameter_and_a_stale_entry():
    """A parameter set by position, by keyword, by a script through a
    re-export or by ``**kwargs`` has a setter; a private function's is not
    listed."""
    package = {
        "__init__": "from .a import build\n__all__ = ['build']\n",
        "a": ("def build(m, limits=None, *, kind='v'):\n    pass\n"
              "def search(a, b, bound=3, budget=9):\n    return build(a, None)\n"
              "def _helper(x=1):\n    pass\n"),
        "b": ("from . import a\n"
              "def run(opts):\n    return a.search(1, 2, budget=4), a.build(**opts)\n"),
    }
    scripts = ["from sftlab import build\nbuild(1, kind='e')\n"]
    found = unset_parameters(package, scripts)
    assert found == {"a.search.bound"}
    assert allow_list_drift(found, {"a.gone.x"}) == ["unlisted: a.search.bound",
                                                     "stale: a.gone.x"]


# ------------------------------------------- the names the benchmark reads

BENCH = ROOT / "perfbench"
# perfbench/layertrace.py's tuples of names: the layer modules, and the
# functions of one layer whose calls it counts
_LAYERTRACE_TUPLES = {"LAYERS": None, "DECISIONS": "cohomology", "TRANSFERS": "moves"}
# Names the benchmark reads that are gone, each with the reason it stays.
# A hook on a gone name never runs, so its counter reads 0.
BENCH_MISSING_ALLOWED = {
    # ROADMAP item 1: the hook that counts cohomology.graph_edges
    "sftlab.cohomology.potential_graph",
}


def _traced(qual: str) -> tuple[str, str]:
    """(module, attribute) of a name as layertrace qualifies it:
    ``layer.name`` or ``layer.Class.method``."""
    layer, _, attr = qual.partition(".")
    return f"sftlab.{layer}", attr


def benchmark_reads(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each sftlab name the source reads, attribute
    "" for a module alone: the modules it imports, the names it imports from
    them, the attributes it reads off a module's alias, the names in
    layertrace's tuples, the keys of the dict its ``_hooks`` returns, and
    the names its counters take with ``by_name.get``."""
    tree = ast.parse(source)
    found: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS) and node.name == "_hooks":
            found.update(_traced(key.value) for ret in _own_nodes(node.body)
                         if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict)
                         for key in ret.value.keys if isinstance(key, ast.Constant))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "by_name" and node.args
              and isinstance(node.args[0], ast.Constant)):
            found.add(_traced(node.args[0].value))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sftlab":
                    found.add((alias.name, ""))
                    if alias.asname:
                        aliases[alias.asname] = alias.name
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "sftlab"):
            found.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in _LAYERTRACE_TUPLES):
            layer = _LAYERTRACE_TUPLES[node.targets[0].id]
            found.update((f"sftlab.{name}", "") if layer is None
                         else (f"sftlab.{layer}", name)
                         for name in ast.literal_eval(node.value))
    found.update((aliases[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return found


def missing_names(reads: set[tuple[str, str]]) -> list[str]:
    """The modules and the attributes, dotted ones too, that are gone."""
    missing = []
    for module, attr in sorted(reads):
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            missing.append(module)
            continue
        if attr:
            try:
                operator.attrgetter(attr)(mod)
            except AttributeError:
                missing.append(f"{module}.{attr}")
    return missing


def test_every_name_the_benchmark_reads_exists():
    """perfbench runs against sftlab's names, read here and not run: a module
    or attribute it reads that is gone would fail the benchmark, and a name
    it hooks or counts that is gone would read 0."""
    reads = {name for path in sorted(BENCH.glob("*.py"))
             for name in benchmark_reads(path.read_text())}
    assert {("sftlab.actions", ""), ("sftlab.actions", "equivalent"),
            ("sftlab.shifts", "validate"), ("sftlab.cohomology", "order_unit_check"),
            ("sftlab.moves", "psi_xi"), ("sftlab.transducers", "make_transducer"),
            ("sftlab.classify", "coe_verdict")} <= reads
    assert allow_list_drift(set(missing_names(reads)), BENCH_MISSING_ALLOWED) == []


def test_guard_sees_a_missing_benchmark_name():
    source = ("import sftlab.cohomology as coh\nimport sftlab.gone\n"
              "from sftlab.shifts import validate, vanished\n"
              "LAYERS = ('shifts', 'lost')\nDECISIONS = ('class_is_zero', 'undecide')\n"
              "def run(p):\n    return coh.unit(p), coh.missing(p)\n")
    assert missing_names(benchmark_reads(source)) == [
        "sftlab.cohomology.missing", "sftlab.cohomology.undecide", "sftlab.gone",
        "sftlab.lost", "sftlab.shifts.vanished"]


def test_guard_sees_a_missing_hooked_or_counted_name():
    """Keys of the dict ``_hooks`` returns and names ``by_name.get`` takes,
    a method's among them; another dict's keys and another mapping's
    ``get`` are not read."""
    source = ("class Tracer:\n"
              "    def _hooks(self):\n"
              "        def words(args, result):\n"
              "            return {'shifts.ignored': result}\n"
              "        return {'shifts.words': words,\n"
              "                'cohomology.potential_graph': words,\n"
              "                'transducers.Transducer.table': words,\n"
              "                'transducers.Transducer.gone': words}\n"
              "    def summary(self, by_name, other):\n"
              "        return (by_name.get('shifts.count_words', 0),\n"
              "                by_name.get('moves.lost', 0), other.get('moves.ignored'))\n")
    reads = benchmark_reads(source)
    assert ("sftlab.shifts", "ignored") not in reads
    assert ("sftlab.moves", "ignored") not in reads
    assert missing_names(reads) == [
        "sftlab.cohomology.potential_graph", "sftlab.moves.lost",
        "sftlab.transducers.Transducer.gone"]
