"""Every import in the package, its tests and its scripts is used: a
module-level import in its file, an import inside a function in that
function."""
from __future__ import annotations

import ast
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


# Of these, all but ``actions`` load no ``fractions`` (nor the ``decimal`` it
# imports) when imported: ``cohomology`` imports it where ring Q makes or
# parses a value.
_NO_FRACTIONS = ("shifts", "cohomology", "transducers", "moves")


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
# each with the reason it stays.  The tests and the benchmark are not readers,
# and neither are the re-exports of ``__init__``.
UNREAD_ALLOWED = {
    # ROADMAP item 4: the flow and orbit-equivalence certificates check their
    # claims by lattice membership
    "linalg.lattice_member",
    # item 8: the last decision that returns a bare bool, and the printer of
    # the matrix round trip
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


def unread_public_names(package: dict[str, str], scripts=()) -> set[str]:
    """The public functions and classes defined at the top level of the
    package's modules (stem -> source) that no module and no script reads
    outside their own definition, as ``module.name``.  ``__init__`` reads
    nothing: its names are re-exports."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    exports = {}
    if "__init__" in trees:
        exports = _module_bindings(trees.pop("__init__"), set(trees), {})[1]
    defined = {f"{stem}.{node.name}" for stem, tree in trees.items()
               for node in tree.body
               if isinstance(node, (*FUNCTIONS, ast.ClassDef))
               and not node.name.startswith("_")}
    read = {name for stem, tree in trees.items()
            for name, owner in _reads(tree, stem, set(trees), exports) if name != owner}
    read |= {name for source in scripts
             for name, _owner in _reads(ast.parse(source), None, set(trees), exports)}
    return defined - read


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
