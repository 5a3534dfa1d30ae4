"""A Limits object passed by the caller is honoured on every code path,
also when the environment sets a smaller word cap.  The caps are given where
a presentation is built and travel with it; the environment is read only
when a presentation is built without them."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import sftlab
import sftlab.actions as act
import sftlab.classify as cl
import sftlab.cohomology as coh
import sftlab.moves as mv
import sftlab.randgen as rg
import sftlab.shifts as sh
import sftlab.transducers as tr
from sftlab import Limits
from sftlab.cli import run
from sftlab.config import MAX_WORDS_ENV, default_limits
from sftlab.errors import EnvelopeExceeded, FormatError
from sftlab.shifts import periodic_point

FIB = ((1, 1), (1, 0))
FULL3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
SMALL = Limits(max_words=2)


def _fib(lim):
    return sh.validate(FIB, "vertex", None, lim)


@pytest.fixture
def tiny_env_cap(monkeypatch):
    """|B_2| of the Fibonacci shift is 3; the environment allows 2."""
    monkeypatch.setenv(MAX_WORDS_ENV, "2")


@pytest.fixture
def big_fib():
    return _fib(Limits())


def test_environment_cap_applies_without_limits(tiny_env_cap):
    fib = _fib(None)
    with pytest.raises(EnvelopeExceeded):
        coh.function(fib, 2, [1, 2, 3])


def test_environment_cap_is_read_when_built(monkeypatch):
    """A presentation built under the environment cap keeps it after the
    variable is unset."""
    monkeypatch.setenv(MAX_WORDS_ENV, "2")
    fib = _fib(None)
    monkeypatch.delenv(MAX_WORDS_ENV)
    assert fib.limits == SMALL
    with pytest.raises(EnvelopeExceeded, match="word cap 2"):
        sh.words(fib, 2)


def test_later_environment_cap_leaves_built_presentations_alone(monkeypatch):
    """A presentation built before the variable is set, and the ones derived
    from it afterwards, keep the caps resolved when it was built."""
    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    fib = _fib(None)
    monkeypatch.setenv(MAX_WORDS_ENV, "2")
    for p in (fib, sh.higher_block(fib, 1), mv.expand(fib, 0).expanded):
        assert p.limits == Limits()
        assert len(sh.words(p, 2)) == sh.count_words(p, 2) > 2


def test_tables_do_not_read_the_environment(monkeypatch):
    """Only validate resolves caps: table requests on a presentation built
    without Limits never call default_limits again."""
    def refuse():
        raise AssertionError("default_limits called after the build")

    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    fib = _fib(None)
    monkeypatch.setattr(sh, "default_limits", refuse)
    assert len(sh.words(fib, 3)) == 5
    assert sh.word_level(fib, 4).offsets[-1] == 8
    assert coh.function(fib, 2, [1, 2, 3]).depth == 2


def test_function_and_kernel(big_fib, tiny_env_cap):
    fib = big_fib
    f = coh.function(fib, 2, [1, 2, 3])
    assert f.depth == 2
    assert coh.window_sums(f, [((0, 1, 0), 2)]) == [2 + 3]
    assert f.value_on_word((1, 0)) == 3
    assert f.value_at_point(periodic_point(fib, (), (0, 1))) == 2
    assert coh.orbit_sum(f, (0, 1)) == 5
    assert coh.partial_sum(f, 2).depth == 3
    assert coh.zero(fib).is_zero()
    assert coh.unit(fib) == coh.constant(fib, 1, coh.RING_INT)


def test_phase(big_fib, tiny_env_cap):
    a = act.action(coh.function(big_fib, 2, [1, 2, 3]))
    x = periodic_point(big_fib, (), (0,))
    assert act.evaluate_phase(a, (0, 1), Fraction(1, 7), x) == Fraction(5, 7)


def test_elementary_transfers(tiny_env_cap):
    ee = mv.elementary(((1, 1),), ((1,), (1,)), Limits())    # B = DC has 4 edges
    f = coh.function(ee.a, 2, [1, 2, 3, 4])
    g = coh.function(ee.b, 1, [1, 2, 3, 4])
    assert mv.psi(ee, mv.phi(ee, f)) == coh.pullback_sigma(f)
    assert mv.phi(ee, mv.psi(ee, g)) == coh.pullback_sigma(g)


def test_expansion_transfers(big_fib, tiny_env_cap):
    e = mv.expand(big_fib, 0)
    f = coh.function(big_fib, 2, [1, 2, 3])
    assert mv.psi_xi(e, mv.psi_eta(e, f)) == f
    ft = coh.unit(e.expanded)
    assert tr.transfer_psi(e.split, e.split_data, ft) == mv.psi_xi(e, ft)


def test_orbit_maps_and_detectors(big_fib, tiny_env_cap):
    h = tr.identity_transducer(big_fib)
    data = tr.conjugacy_data(big_fib)
    amount = coh.function(big_fib, 2, [0, 1, 1])
    assert tr.shifted_image(h, amount, 0).domain == big_fib
    assert tr.verify_orbit_relation(h, data).holds
    assert tr.is_eventual_conjugacy(h, data, h, data).verdict
    assert tr.is_strong_coe(h, data).verdict


# ------------------------------------------------- every entry point, by table

LAYERS = ("shifts", "linalg", "cohomology", "actions", "transducers", "moves",
          "classify", "randgen")


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """Inputs built under the default Limits while the environment allows
    two words.  |B_2| of fib is 3 and |B_1| of full3 is 3, both above it."""
    big = Limits()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(MAX_WORDS_ENV, "2")
        fib = _fib(big)
        full3 = sh.validate(FULL3, "vertex", None, big)
        f2 = coh.function(fib, 2, [1, 2, 3])
        ee = mv.elementary(((1, 1),), ((1,), (1,)), big)
        e = mv.expand(fib, 0)
        h, h3 = tr.identity_transducer(fib), tr.identity_transducer(full3)
        data, data3 = tr.conjugacy_data(fib), tr.conjugacy_data(full3)
        path = tmp_path_factory.mktemp("limits") / "fib.mat"
        path.write_text("matrix vertex 2\n1 1\n1 0\n")
        return SimpleNamespace(
            fib=fib, full3=full3, f2=f2, a=act.action(f2), ee=ee, e=e,
            g1=coh.function(fib, 1, [1, 0]),
            f2_text=coh.format_function_text(f2, "fib"),
            amount=coh.function(fib, 2, [0, 1, 1]),
            fa=coh.function(ee.a, 1, [1, 2]),
            gb=coh.function(ee.b, 1, [1, 2, 3, 4]),
            fe=coh.function(e.expanded, 1, [1, 2, 3]),
            x=periodic_point(fib, (), (0, 1)),
            h=h, h3=h3, data=data, data3=data3,
            witness=cl.CoeWitness(h, data, h, data),
            path=path)


# The public functions of the layers that take `limits`: each builds a
# presentation from raw matrices (test_every_limits_taker_has_a_case).
# qualified name -> call(ctx, limits)
CONSTRUCTORS = {
    "shifts.validate": lambda c, lim: _fib(lim),
    "shifts.load_matrix_file": lambda c, lim: sh.load_matrix_file(c.path, lim),
    "moves.elementary": lambda c, lim: mv.elementary(((1, 1),), ((1,), (1,)), lim),
    "moves.sse_search":
        lambda c, lim: mv.sse_search(((2,),), ((1, 1), (1, 1)), 2, 1, 1, lim),
    "randgen.random_irreducible":
        lambda c, lim: rg.random_irreducible(random.Random(1), 3, lim),
    "randgen.random_edge_presentation":
        lambda c, lim: rg.random_edge_presentation(random.Random(1), 3, 2, lim),
    "randgen.random_elementary":
        lambda c, lim: rg.random_elementary(random.Random(1), 2, 2, 2, lim),
}

# Every other entry point that once took `limits` and passed it on; it now
# reads the caps of the presentations it is given.  qualified name -> call(ctx)
CASES = {
    "shifts.words": lambda c: sh.words(c.fib, 2),
    "shifts.word_index": lambda c: sh.word_index(c.fib, 2),
    "shifts.enumerate_points": lambda c: sh.enumerate_points(c.fib, 0, 2),
    "shifts.higher_block": lambda c: sh.higher_block(c.fib, 1),
    "shifts.block_edges": lambda c: sh.block_edges(c.fib, 2),
    "shifts.to_edge_form": lambda c: sh.to_edge_form(c.fib),
    "cohomology.LocallyConstantFunction.value_on_word":
        lambda c: c.f2.value_on_word((1, 0)),
    "cohomology.LocallyConstantFunction.value_at_point":
        lambda c: c.f2.value_at_point(c.x),
    "cohomology.function": lambda c: coh.function(c.fib, 2, [1, 2, 3]),
    "cohomology.constant": lambda c: coh.constant(c.full3, 1, coh.RING_INT),
    "cohomology.unit": lambda c: coh.unit(c.full3),
    "cohomology.zero": lambda c: coh.zero(c.full3),
    "cohomology.indicator": lambda c: coh.indicator(c.fib, (0, 1)),
    "cohomology.lift_table": lambda c: coh.lift_table(c.g1, 2),
    "cohomology.add": lambda c: coh.add(c.f2, c.f2),
    "cohomology.subtract": lambda c: coh.subtract(c.f2, c.g1),
    "cohomology.multiply": lambda c: coh.multiply(c.f2, c.f2),
    "cohomology.scale": lambda c: coh.scale(c.f2, 2),
    "cohomology.pullback_sigma": lambda c: coh.pullback_sigma(c.f2),
    "cohomology.window_sums": lambda c: coh.window_sums(c.f2, [((0, 1, 0), 2)]),
    "cohomology.partial_sum": lambda c: coh.partial_sum(c.f2, 2),
    "cohomology.coboundary": lambda c: coh.coboundary(c.f2),
    "cohomology.orbit_sum": lambda c: coh.orbit_sum(c.f2, (0, 1)),
    "cohomology.class_is_zero": lambda c: coh.class_is_zero(c.f2),
    "cohomology.class_equal": lambda c: coh.class_equal(c.f2, c.g1),
    "cohomology.class_is_nonnegative": lambda c: coh.class_is_nonnegative(c.f2),
    "cohomology.order_unit_check": lambda c: coh.order_unit_check(c.f2),
    "cohomology.parse_function_text":
        lambda c: coh.parse_function_text(c.f2_text, c.fib, "fib"),
    "cohomology.format_function_text":
        lambda c: coh.format_function_text(c.f2, "fib"),
    "actions.compose": lambda c: act.compose(c.a, c.a),
    "actions.equivalent": lambda c: act.equivalent(c.a, c.a),
    "actions.class_nonnegative": lambda c: act.class_nonnegative(c.a),
    "actions.is_order_unit": lambda c: act.is_order_unit(c.a),
    "actions.phase_on_word": lambda c: act.phase_on_word(c.a, (0, 1)),
    "actions.evaluate_phase":
        lambda c: act.evaluate_phase(c.a, (0, 1), Fraction(1, 7), c.x),
    "transducers.conjugacy_data": lambda c: tr.conjugacy_data(c.full3),
    "transducers.shifted_image": lambda c: tr.shifted_image(c.h, c.amount, 0),
    "transducers.verify_orbit_relation":
        lambda c: tr.verify_orbit_relation(c.h, c.data),
    "transducers.transfer_psi": lambda c: tr.transfer_psi(c.h, c.data, c.f2),
    "transducers.is_eventual_conjugacy":
        lambda c: tr.is_eventual_conjugacy(c.h3, c.data3, c.h3, c.data3),
    "transducers.is_strong_coe": lambda c: tr.is_strong_coe(c.h3, c.data3),
    "transducers.block_conjugacy": lambda c: tr.block_conjugacy(c.fib, 1),
    "moves.expand": lambda c: mv.expand(c.fib, 0),
    "moves.psi_xi": lambda c: mv.psi_xi(c.e, c.fe),
    "moves.psi_eta": lambda c: mv.psi_eta(c.e, c.f2),
    "moves.phi": lambda c: mv.phi(c.ee, c.fa),
    "moves.psi": lambda c: mv.psi(c.ee, c.gb),
    "classify.consistency_check":
        lambda c: cl.consistency_check(c.fib, c.fib, c.witness),
    "randgen.random_function":
        lambda c: rg.random_function(random.Random(1), c.full3, 1, -5, 5),
}

ENTRY_POINTS = sorted(CONSTRUCTORS.keys() | CASES.keys())

# Calls that build no word table (they read the vertex cap only).
NO_TABLE = set(CONSTRUCTORS) | {"shifts.to_edge_form"}


def _call(name, c, lim):
    """A constructor gets ``lim``; any other call reads the caps of ctx."""
    if name in CONSTRUCTORS:
        return CONSTRUCTORS[name](c, lim)
    return CASES[name](c)


def _limits_takers() -> set[str]:
    found = set()
    for layer in LAYERS + ("cli",):
        mod = importlib.import_module(f"sftlab.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                members = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                           if not attr.startswith("_") and inspect.isfunction(fn)]
            else:
                continue
            found.update(f"{layer}.{qual}" for qual, fn in members
                         if "limits" in inspect.signature(fn).parameters)
    return found


def test_every_limits_taker_has_a_case():
    """Only the constructors take `limits`; everything else reads the caps
    of the presentation, and the CLI takes none."""
    assert _limits_takers() == set(CONSTRUCTORS)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_caller_limits_override_environment(name, ctx, tiny_env_cap):
    _call(name, ctx, Limits())


@pytest.fixture
def small_ctx(ctx, monkeypatch):
    """ctx with the small word cap on every presentation for one test.
    ``limits`` is a plain instance attribute of the frozen presentation, so
    it is swapped in the instance dict and restored afterwards."""
    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    for p in (ctx.fib, ctx.full3, ctx.ee.a, ctx.ee.b, ctx.e.expanded):
        monkeypatch.setitem(vars(p), "limits", SMALL)
    return ctx


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_caller_word_cap_reaches_every_table(name, small_ctx):
    if name in NO_TABLE:
        _call(name, small_ctx, SMALL)
    else:
        with pytest.raises(EnvelopeExceeded):
            _call(name, small_ctx, SMALL)


# ------------------------------------------------- the caps travel with p

# qualified name -> build(ctx, limits), a presentation built under limits,
# either by a constructor or derived from one built under limits
BUILT = {
    "shifts.validate": lambda c, lim: _fib(lim),
    "shifts.load_matrix_file": lambda c, lim: sh.load_matrix_file(c.path, lim),
    "moves.elementary.a": lambda c, lim: mv.elementary(((1, 1),), ((1,), (1,)), lim).a,
    "moves.elementary.b": lambda c, lim: mv.elementary(((1, 1),), ((1,), (1,)), lim).b,
    "moves.sse_search":
        lambda c, lim: mv.sse_search(((1, 1), (1, 1)), ((2,),), limits=lim).found[0].a,
    "moves.expand": lambda c, lim: mv.expand(_fib(lim), 0).expanded,
    "shifts.higher_block": lambda c, lim: sh.higher_block(_fib(lim), 1),
    "shifts.to_edge_form": lambda c, lim: sh.to_edge_form(_fib(lim)),
    "transducers.block_conjugacy":
        lambda c, lim: tr.block_conjugacy(_fib(lim), 1).forward.codomain,
    "randgen.random_irreducible":
        lambda c, lim: rg.random_irreducible(random.Random(1), 3, lim),
    "randgen.random_edge_presentation":
        lambda c, lim: rg.random_edge_presentation(random.Random(1), 3, 2, lim),
    "randgen.random_elementary":
        lambda c, lim: rg.random_elementary(random.Random(1), 2, 2, 2, lim).a,
}

# expand, higher_block and block_conjugacy build B_2 of fib (3 words) or
# B_1 of the derived shift (3 words) on the way, so two words is too few
TIGHT = Limits(max_words=3)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_presentation_carries_the_cap(name, ctx, monkeypatch):
    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    p = BUILT[name](ctx, TIGHT)
    assert p.limits is TIGHT
    k = next(k for k in itertools.count() if sh.count_words(p, k) > TIGHT.max_words)
    sh.words(p, k - 1)
    with pytest.raises(EnvelopeExceeded, match=f"word cap {TIGHT.max_words}"):
        sh.words(p, k)


# C = (1 2), D = (1 1)^T: A = (3), B = ((1, 1), (2, 2)).  Both ways |B_k| of
# the source is below |B_(k+1)| of the target, so f fits under the cap.
C_D = (((1, 2),), ((1,), (1,)))


def _refused_call(name, k):
    """(cap, target, f, call): a depth-k f and a call that builds B_(k+1) of
    the target, whose cap is one word below |B_(k+1)|."""
    if name in ("phi", "psi"):
        plain = mv.elementary(*C_D)
        side = {"phi": lambda ee: (ee.a, ee.b), "psi": lambda ee: (ee.b, ee.a)}[name]
        cap = sh.count_words(side(plain)[1], k + 1) - 1
        ee = mv.elementary(*C_D, Limits(max_words=cap))
        source, target = side(ee)
        f = coh.function(source, k, list(range(sh.count_words(source, k))))
        return cap, target, f, lambda: getattr(mv, name)(ee, f)
    cap = sh.count_words(sh.validate(FULL3), k + 1) - 1
    p = sh.validate(FULL3, limits=Limits(max_words=cap))
    f = coh.function(p, k, list(range(27)))
    call = {"pullback_sigma": lambda: coh.pullback_sigma(f),
            "lift_table": lambda: coh.lift_table(f, k + 1),
            "coboundary": lambda: coh.coboundary(f)}[name]
    return cap, p, f, call


@pytest.mark.parametrize(
    "name", ["pullback_sigma", "lift_table", "coboundary", "phi", "psi"])
def test_refused_level_is_not_built(name):
    """A depth-k table whose depth-(k+1) image is one word over the caller's
    cap: the stepped count refuses it before any level of the target is
    built, so level k + 1 is not left behind."""
    k = 3
    cap, target, f, call = _refused_call(name, k)
    assert f.depth == k
    built = set(target._word_levels)
    with pytest.raises(EnvelopeExceeded, match=rf"\|B_{k + 1}\| = {cap + 1} exceeds"):
        call()
    assert set(target._word_levels) == built and max(built) <= k


def test_caps_do_not_change_equality(monkeypatch):
    """A presentation equals and hashes like its uncapped twin, so every
    presentation != domain check behaves as before."""
    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    capped, plain = sh.validate(FIB, limits=SMALL), sh.validate(FIB)
    assert capped == plain and hash(capped) == hash(plain)
    assert capped.limits is SMALL and plain.limits == Limits()
    assert "limits" not in repr(capped)


# ------------------------------------------------------ the environment cap

def test_default_limits_rereads_environment(monkeypatch):
    monkeypatch.setenv(MAX_WORDS_ENV, "5")
    assert default_limits() == Limits(max_words=5)
    monkeypatch.setenv(MAX_WORDS_ENV, "7")
    assert default_limits() == Limits(max_words=7)
    monkeypatch.delenv(MAX_WORDS_ENV)
    assert default_limits() == Limits()


@pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
def test_malformed_environment_cap(value, monkeypatch):
    monkeypatch.setenv(MAX_WORDS_ENV, value)
    with pytest.raises(FormatError, match=MAX_WORDS_ENV):
        default_limits()


def _resolvers() -> set[str]:
    """Qualified names of the functions that call default_limits()."""
    found = set()
    for path in pathlib.Path(sftlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "default_limits":
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_limits_resolved_only_where_a_cap_is_read():
    """Everything else passes its limits on; see the config docstring."""
    outside_config = {q for q in _resolvers() if not q.startswith("config.")}
    assert outside_config == {"shifts.validate"}


def _reads_environment(source: str) -> bool:
    """Whether the module reads os.environ or os.getenv, by attribute or by
    ``from os import``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv") \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in ("environ", "getenv") for a in node.names):
            return True
    return False


def test_environment_read_only_in_config():
    assert _reads_environment("import os\nx = os.getenv('A')\n")
    assert _reads_environment("from os import environ\n")
    assert not _reads_environment("import os\nos.path.join('a')\n")
    readers = {path.stem for path in pathlib.Path(sftlab.__file__).parent.glob("*.py")
               if _reads_environment(path.read_text())}
    assert readers == {"config"}


def _cap_readers() -> dict[str, set[str]]:
    """For each field of Limits, the qualified names of the innermost
    functions that read it as an attribute (``<module>`` outside any)."""
    found: dict[str, set[str]] = {f.name: set() for f in dataclasses.fields(Limits)}
    for path in pathlib.Path(sftlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        scope_of = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                scope_of[child] = parent
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in found:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.Module)):
                    scope = scope_of[scope]
                name = getattr(scope, "name", "<module>")
                found[node.attr].add(f"{path.stem}.{name}")
    return found


def test_each_cap_has_one_reader():
    """The word cap is read in _check_word_cap and the vertex cap in
    validate; every other function leaves the caps to the presentation."""
    assert _cap_readers() == {"max_vertices": {"shifts.validate"},
                              "max_words": {"shifts._check_word_cap"}}


def test_limits_holds_only_the_input_size_caps():
    """Search and check bounds are constants at their reader, not knobs."""
    assert [f.name for f in dataclasses.fields(Limits)] == ["max_vertices", "max_words"]


_REFUSED_BY_CAP = """
import random
from sftlab import Limits
from sftlab.errors import EnvelopeExceeded
import sftlab.moves as mv
import sftlab.randgen as rg
lim = Limits(max_vertices=0)
for make in (rg.random_irreducible, rg.random_edge_presentation,
             rg.random_elementary):
    try:
        make(random.Random(1), limits=lim)
    except EnvelopeExceeded:
        print(make.__name__)
try:
    mv.elementary(((1, 1),), ((1,), (1,)), lim)
except EnvelopeExceeded:
    print("elementary")
try:
    mv.sse_search(((1, 1), (1, 1)), ((2,),), limits=Limits(max_vertices=1))
except EnvelopeExceeded as exc:
    assert "supported maximum is 1" in str(exc), exc
    print("sse_search")
"""


_MALFORMED_ENV_CAP = """
import random
from sftlab.errors import FormatError
import sftlab.moves as mv
import sftlab.randgen as rg
calls = {
    "elementary": lambda: mv.elementary(((1, 1),), ((1,), (1,))),
    "sse_search": lambda: mv.sse_search(((1, 1), (1, 1)), ((2,),)),
    "random_elementary": lambda: rg.random_elementary(random.Random(1)),
}
for name, call in calls.items():
    try:
        call()
    except FormatError as exc:
        assert "SFTLAB_MAX_WORDS" in str(exc), exc
        print(name)
"""


def test_malformed_environment_cap_propagates():
    """A malformed environment cap is raised by elementary, not taken for a
    rejected product that the search skips and the generator retries."""
    src = pathlib.Path(sftlab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _MALFORMED_ENV_CAP],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(src),
                                   **{MAX_WORDS_ENV: "abc"}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["elementary", "sse_search", "random_elementary"]


def test_refusing_cap_propagates():
    """A cap that refuses every candidate is raised, not retried forever.
    The subprocess and its timeout keep a regression from hanging the suite."""
    src = pathlib.Path(sftlab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _REFUSED_BY_CAP],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["random_irreducible", "random_edge_presentation",
                                   "random_elementary", "elementary",
                                   "sse_search"]


# --------------------------------------------------------------------- CLI

def _cli(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Commands that build a presentation, by test id suffix; "validate" keeps
# the bare value as its id.  Files are fixture_dir names, "a.f" a function
# on A = CD.
BUILDING_COMMANDS = {
    "validate": ("validate", "fib.mat"),
    "elementary": ("elementary", "c.mat", "d.mat"),
    "transfer-phi": ("transfer", "phi", "c.mat", "d.mat", "a.f"),
    "selftest": ("selftest", "--count", "1"),
}


@pytest.fixture(scope="module")
def a_function_file(fixture_dir):
    path = fixture_dir / "a.f"
    path.write_text("function m depth=1 ring=Z\n1>1~0 1\n1>1~1 2\n")
    return path


@pytest.mark.parametrize("value, argv", [
    pytest.param(value, argv, id=value if name == "validate" else f"{value}-{name}")
    for name, argv in BUILDING_COMMANDS.items() for value in ("abc", "0")])
def test_cli_malformed_environment_cap(value, argv, capsys, fixture_dir,
                                       a_function_file, monkeypatch):
    monkeypatch.setenv(MAX_WORDS_ENV, value)
    code, out, err = _cli(capsys, *(fixture_dir / a if a.endswith((".mat", ".f"))
                                    else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: FormatError: ") and err.count("\n") == 1
    assert MAX_WORDS_ENV in err


def test_cli_snf_does_not_read_environment_cap(capsys, fixture_dir, monkeypatch):
    """snf reads a plain matrix and builds no presentation, so no cap."""
    monkeypatch.setenv(MAX_WORDS_ENV, "abc")
    code, out, err = _cli(capsys, "snf", fixture_dir / "c.mat")
    assert (code, err) == (0, "") and out
    monkeypatch.delenv(MAX_WORDS_ENV)
    assert _cli(capsys, "snf", fixture_dir / "c.mat") == (0, out, "")


def test_cli_phase_negative_rational(capsys, fixture_dir):
    head = ("action", "phase", fixture_dir / "fib.mat", fixture_dir / "gauge.f", "1")
    code, out, err = _cli(capsys, *head, "-1/3", ":1")
    assert (code, err) == (0, "")
    assert "t: -1/3" in out and "phase: 2/3" in out
    assert _cli(capsys, *head, "--", "-1/3", ":1") == (0, out, "")
    code, out, err = _cli(capsys, *head, "-1/0", ":1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
