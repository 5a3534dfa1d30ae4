"""A Limits object passed by the caller is honoured on every code path,
also when the environment sets a smaller word cap; the environment is read
only where a cap is read."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
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


@pytest.fixture
def tiny_env_cap(monkeypatch):
    """|B_2| of the Fibonacci shift is 3; the environment allows 2."""
    monkeypatch.setenv(MAX_WORDS_ENV, "2")


def test_environment_cap_applies_without_limits(fib, tiny_env_cap):
    with pytest.raises(EnvelopeExceeded):
        coh.function(fib, 2, [1, 2, 3])


def test_function_and_kernel(fib, tiny_env_cap):
    lim = Limits()
    f = coh.function(fib, 2, [1, 2, 3], limits=lim)
    assert f.depth == 2
    assert coh.window_sums(f, [((0, 1, 0), 2)], lim) == [2 + 3]
    assert f.value_on_word((1, 0), lim) == 3
    assert f.value_at_point(periodic_point(fib, (), (0, 1)), lim) == 2
    assert coh.orbit_sum(f, (0, 1), lim) == 5
    assert coh.partial_sum(f, 2, lim).depth == 3
    assert coh.zero(fib, lim).is_zero()
    assert coh.unit(fib, lim) == coh.constant(fib, 1, coh.RING_INT, lim)


def test_phase(fib, tiny_env_cap):
    lim = Limits()
    a = act.action(coh.function(fib, 2, [1, 2, 3], limits=lim))
    x = periodic_point(fib, (), (0,))
    assert act.evaluate_phase(a, (0, 1), Fraction(1, 7), x, lim) == Fraction(5, 7)


def test_elementary_transfers(tiny_env_cap):
    lim = Limits()
    ee = mv.elementary(((1, 1),), ((1,), (1,)), lim)     # B = DC has 4 edges
    f = coh.function(ee.a, 2, [1, 2, 3, 4], limits=lim)
    g = coh.function(ee.b, 1, [1, 2, 3, 4], limits=lim)
    assert mv.psi(ee, mv.phi(ee, f, lim), lim) == coh.pullback_sigma(f, lim)
    assert mv.phi(ee, mv.psi(ee, g, lim), lim) == coh.pullback_sigma(g, lim)


def test_expansion_transfers(fib, tiny_env_cap):
    lim = Limits()
    e = mv.expand(fib, 0, lim)
    f = coh.function(fib, 2, [1, 2, 3], limits=lim)
    assert mv.psi_xi(e, mv.psi_eta(e, f, lim), lim) == f
    ft = coh.unit(e.expanded, lim)
    assert tr.transfer_psi(e.split, e.split_data, ft, lim) == mv.psi_xi(e, ft, lim)


def test_orbit_maps_and_detectors(fib, tiny_env_cap):
    lim = Limits()
    h = tr.identity_transducer(fib)
    data = tr.conjugacy_data(fib, lim)
    amount = coh.function(fib, 2, [0, 1, 1], limits=lim)
    assert tr.shifted_image(h, amount, 0, lim).domain == fib
    assert tr.verify_orbit_relation(h, data, lim).holds
    assert tr.is_eventual_conjugacy(h, data, h, data, lim).verdict
    assert tr.is_strong_coe(h, data, lim).verdict


# ------------------------------------------------- every entry point, by table

LAYERS = ("shifts", "linalg", "cohomology", "actions", "transducers", "moves",
          "classify", "randgen")
FIB = ((1, 1), (1, 0))
FULL3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
SMALL = Limits(max_words=2)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """Inputs built under the default Limits, whatever the environment says.
    |B_2| of fib is 3 and |B_1| of full3 is 3, both above the small cap."""
    big = Limits()
    fib = sh.validate(FIB, "vertex", None, big)
    full3 = sh.validate(FULL3, "vertex", None, big)
    f2 = coh.function(fib, 2, [1, 2, 3], limits=big)
    ee = mv.elementary(((1, 1),), ((1,), (1,)), big)
    e = mv.expand(fib, 0, big)
    h, h3 = tr.identity_transducer(fib), tr.identity_transducer(full3)
    data, data3 = tr.conjugacy_data(fib, big), tr.conjugacy_data(full3, big)
    path = tmp_path_factory.mktemp("limits") / "fib.mat"
    path.write_text("matrix vertex 2\n1 1\n1 0\n")
    return SimpleNamespace(
        fib=fib, full3=full3, f2=f2, a=act.action(f2), ee=ee, e=e,
        g1=coh.function(fib, 1, [1, 0], limits=big),
        f2_text=coh.format_function_text(f2, "fib", big),
        amount=coh.function(fib, 2, [0, 1, 1], limits=big),
        fa=coh.function(ee.a, 1, [1, 2], limits=big),
        gb=coh.function(ee.b, 1, [1, 2, 3, 4], limits=big),
        fe=coh.function(e.expanded, 1, [1, 2, 3], limits=big),
        x=periodic_point(fib, (), (0, 1)),
        h=h, h3=h3, data=data, data3=data3,
        witness=cl.CoeWitness(h, data, h, data),
        path=path)


# qualified name -> call(ctx, limits); every public function of the layers
# that takes `limits` has a row (test_every_limits_taker_has_a_case).
CASES = {
    "shifts.validate": lambda c, lim: sh.validate(FIB, "vertex", None, lim),
    "shifts.words": lambda c, lim: sh.words(c.fib, 2, lim),
    "shifts.word_index": lambda c, lim: sh.word_index(c.fib, 2, lim),
    "shifts.enumerate_points": lambda c, lim: sh.enumerate_points(c.fib, 0, 2, lim),
    "shifts.higher_block": lambda c, lim: sh.higher_block(c.fib, 1, lim),
    "shifts.to_edge_form": lambda c, lim: sh.to_edge_form(c.fib, lim),
    "shifts.load_matrix_file": lambda c, lim: sh.load_matrix_file(c.path, lim),
    "cohomology.LocallyConstantFunction.value_on_word":
        lambda c, lim: c.f2.value_on_word((1, 0), lim),
    "cohomology.LocallyConstantFunction.value_at_point":
        lambda c, lim: c.f2.value_at_point(c.x, lim),
    "cohomology.function":
        lambda c, lim: coh.function(c.fib, 2, [1, 2, 3], limits=lim),
    "cohomology.constant":
        lambda c, lim: coh.constant(c.full3, 1, coh.RING_INT, lim),
    "cohomology.unit": lambda c, lim: coh.unit(c.full3, lim),
    "cohomology.zero": lambda c, lim: coh.zero(c.full3, lim),
    "cohomology.indicator": lambda c, lim: coh.indicator(c.fib, (0, 1), lim),
    "cohomology.lift_table": lambda c, lim: coh.lift_table(c.g1, 2, lim),
    "cohomology.add": lambda c, lim: coh.add(c.f2, c.f2, lim),
    "cohomology.subtract": lambda c, lim: coh.subtract(c.f2, c.g1, lim),
    "cohomology.multiply": lambda c, lim: coh.multiply(c.f2, c.f2, lim),
    "cohomology.scale": lambda c, lim: coh.scale(c.f2, 2, lim),
    "cohomology.pullback_sigma": lambda c, lim: coh.pullback_sigma(c.f2, lim),
    "cohomology.window_sums":
        lambda c, lim: coh.window_sums(c.f2, [((0, 1, 0), 2)], lim),
    "cohomology.partial_sum": lambda c, lim: coh.partial_sum(c.f2, 2, lim),
    "cohomology.coboundary": lambda c, lim: coh.coboundary(c.f2, lim),
    "cohomology.orbit_sum": lambda c, lim: coh.orbit_sum(c.f2, (0, 1), lim),
    "cohomology.potential_graph": lambda c, lim: coh.potential_graph(c.fib, 2, lim),
    "cohomology.class_is_zero": lambda c, lim: coh.class_is_zero(c.f2, lim),
    "cohomology.class_equal": lambda c, lim: coh.class_equal(c.f2, c.g1, lim),
    "cohomology.class_is_nonnegative":
        lambda c, lim: coh.class_is_nonnegative(c.f2, lim),
    "cohomology.order_unit_check": lambda c, lim: coh.order_unit_check(c.f2, lim),
    "cohomology.parse_function_text":
        lambda c, lim: coh.parse_function_text(c.f2_text, c.fib, "fib", lim),
    "cohomology.format_function_text":
        lambda c, lim: coh.format_function_text(c.f2, "fib", lim),
    "actions.compose": lambda c, lim: act.compose(c.a, c.a, lim),
    "actions.equivalent": lambda c, lim: act.equivalent(c.a, c.a, lim),
    "actions.class_nonnegative": lambda c, lim: act.class_nonnegative(c.a, lim),
    "actions.is_order_unit": lambda c, lim: act.is_order_unit(c.a, lim),
    "actions.phase_on_word": lambda c, lim: act.phase_on_word(c.a, (0, 1), lim),
    "actions.evaluate_phase":
        lambda c, lim: act.evaluate_phase(c.a, (0, 1), Fraction(1, 7), c.x, lim),
    "transducers.conjugacy_data": lambda c, lim: tr.conjugacy_data(c.full3, lim),
    "transducers.shifted_image":
        lambda c, lim: tr.shifted_image(c.h, c.amount, 0, lim),
    "transducers.verify_orbit_relation":
        lambda c, lim: tr.verify_orbit_relation(c.h, c.data, lim),
    "transducers.transfer_psi":
        lambda c, lim: tr.transfer_psi(c.h, c.data, c.f2, lim),
    "transducers.is_eventual_conjugacy":
        lambda c, lim: tr.is_eventual_conjugacy(c.h3, c.data3, c.h3, c.data3, lim),
    "transducers.is_strong_coe": lambda c, lim: tr.is_strong_coe(c.h3, c.data3, lim),
    "transducers.block_conjugacy": lambda c, lim: tr.block_conjugacy(c.fib, 1, lim),
    "moves.expand": lambda c, lim: mv.expand(c.fib, 0, lim),
    "moves.psi_xi": lambda c, lim: mv.psi_xi(c.e, c.fe, lim),
    "moves.psi_eta": lambda c, lim: mv.psi_eta(c.e, c.f2, lim),
    "moves.elementary": lambda c, lim: mv.elementary(((1, 1),), ((1,), (1,)), lim),
    "moves.phi": lambda c, lim: mv.phi(c.ee, c.fa, lim),
    "moves.psi": lambda c, lim: mv.psi(c.ee, c.gb, lim),
    "moves.sse_search":
        lambda c, lim: mv.sse_search(((2,),), ((1, 1), (1, 1)), 2, 1, 1, lim),
    "classify.consistency_check":
        lambda c, lim: cl.consistency_check(c.fib, c.fib, c.witness, lim),
    "randgen.random_irreducible":
        lambda c, lim: rg.random_irreducible(random.Random(1), 3, lim),
    "randgen.random_edge_presentation":
        lambda c, lim: rg.random_edge_presentation(random.Random(1), 3, 2, lim),
    "randgen.random_function":
        lambda c, lim: rg.random_function(random.Random(1), c.full3, 1, -5, 5, lim),
    "randgen.random_elementary":
        lambda c, lim: rg.random_elementary(random.Random(1), 2, 2, 2, lim),
}

# Calls that build no word table (they read the vertex cap only).
NO_TABLE = {
    "shifts.validate", "shifts.to_edge_form", "shifts.load_matrix_file",
    "moves.elementary", "moves.sse_search", "randgen.random_irreducible",
    "randgen.random_edge_presentation", "randgen.random_elementary",
}


def _limits_takers() -> set[str]:
    found = set()
    for layer in LAYERS:
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
    assert _limits_takers() == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_caller_limits_override_environment(name, ctx, tiny_env_cap):
    CASES[name](ctx, Limits())


@pytest.mark.parametrize("name", sorted(CASES))
def test_caller_word_cap_reaches_every_table(name, ctx, monkeypatch):
    monkeypatch.delenv(MAX_WORDS_ENV, raising=False)
    if name in NO_TABLE:
        CASES[name](ctx, SMALL)
    else:
        with pytest.raises(EnvelopeExceeded):
            CASES[name](ctx, SMALL)


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
    assert outside_config == {"shifts.words", "shifts.validate", "cli.run"}


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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_malformed_environment_cap(value, capsys, fixture_dir, monkeypatch):
    monkeypatch.setenv(MAX_WORDS_ENV, value)
    code, out, err = _cli(capsys, "validate", fixture_dir / "fib.mat")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MAX_WORDS_ENV in err


def test_cli_phase_negative_rational(capsys, fixture_dir):
    head = ("action", "phase", fixture_dir / "fib.mat", fixture_dir / "gauge.f", "1")
    code, out, err = _cli(capsys, *head, "-1/3", ":1")
    assert (code, err) == (0, "")
    assert "t: -1/3" in out and "phase: 2/3" in out
    assert _cli(capsys, *head, "--", "-1/3", ":1") == (0, out, "")
    code, out, err = _cli(capsys, *head, "-1/0", ":1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
