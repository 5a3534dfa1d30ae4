"""Command-line interface.

Reports are stable line-oriented ``key: value`` text; multi-line values
(matrices, functions, machines) are emitted as an indented block under the
key.  ``--json`` mirrors the same ordered key/value pairs.  Exit codes:
0 success, 1 internal contradiction, 2 malformed input or failed validation.

Each handler imports the layers it calls, so a command loads only those.
The parser is built per run, and of the commands only the chosen one gets
its parser: every command's name and help line are registered, so usage
lines, help pages and refusals read as if all were built.  The command table
is read when the parser is built, not at import, so a handler rebound after
import is the one that runs.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .config import SSE_CHAIN_BOUND, SSE_ENTRY_BOUND, SSE_INNER_DIM
from .errors import ContradictionDetected, FormatError, SftError
from .shifts import (
    SftPresentation,
    load_matrix_file,
    parse_matrix_text,
    parse_point,
    read_text,
    words,
)


class Report:
    def __init__(self) -> None:
        self.lines: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.lines.append((key, str(value)))

    def add_rows(self, key: str, matrix) -> None:
        self.add(key, "\n".join(" ".join(str(v) for v in row) for row in matrix))

    def render(self) -> str:
        out: list[str] = []
        for key, value in self.lines:
            if "\n" in value:
                out.append(f"{key}:")
                out.extend("  " + line for line in value.splitlines())
            else:
                out.append(f"{key}: {value}")
        return "\n".join(out) + "\n"

    def render_json(self, command: str) -> str:
        import json
        return json.dumps({"command": command, "report": self.lines},
                          indent=2) + "\n"


def _load_presentation(path: str) -> tuple[str, SftPresentation]:
    """The file's stem, as ``pathlib`` takes it (a name ending in a dot
    keeps it), and the presentation it holds."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return stem, load_matrix_file(path)


def _load_rect(path: str) -> tuple:
    _kind, rows = parse_matrix_text(read_text(path))
    return rows


def _load_function(path: str, p: SftPresentation, matrix_id):
    from . import cohomology as coh
    return coh.parse_function_text(read_text(path), p, matrix_id)


def _load_transducer(path: str, dom: SftPresentation, cod: SftPresentation,
                     dom_id, cod_id):
    from . import transducers as tr
    return tr.parse_transducer_text(read_text(path), dom, cod, dom_id, cod_id)


def _load_orbit_data(args, dom: SftPresentation, dom_id) -> tr.OrbitData:
    from . import transducers as tr
    k1 = _load_function(args.k1, dom, dom_id)
    l1 = _load_function(args.l1, dom, dom_id)
    return tr.OrbitData(k1, l1)


def _function_text(f, matrix_id: str) -> str:
    from . import cohomology as coh
    return coh.format_function_text(f, matrix_id).rstrip("\n")


def _machine_text(t, dom_id: str, cod_id: str) -> str:
    from . import transducers as tr
    return tr.format_transducer_text(t, dom_id, cod_id).rstrip("\n")


def _add_invariants(rep: Report, prefix: str, inv) -> None:
    rep.add(f"{prefix}.bf-group", inv.bf_group.describe())
    rep.add(f"{prefix}.det-sign", inv.det_sign)
    rep.add(f"{prefix}.k0-group", inv.k0_pointed.group.describe())
    rep.add(f"{prefix}.k0-marked",
            " ".join(str(v) for v in inv.k0_pointed.marked) or "()")
    lo, hi = inv.spectral_radius_bounds
    rep.add(f"{prefix}.spectral-radius", f"[{lo}, {hi}]")


def _add_coboundary(rep: Report, res, p, name: str, matrix_id: str) -> None:
    if res.is_coboundary:
        rep.add(f"{name}", "yes")
        rep.add("witness", _function_text(res.potential, matrix_id))
    else:
        rep.add(f"{name}", "no")
        rep.add("cycle", p.word_label(res.cycle))
        rep.add("cycle-orbit-sum", res.cycle_sum)


# ----------------------------------------------------------- subcommands

def cmd_validate(args) -> Report:
    name, p = _load_presentation(args.matrix)
    rep = Report()
    rep.add("matrix", name)
    rep.add("kind", p.kind)
    rep.add("vertices", p.n_vertices)
    rep.add("symbols", p.alphabet_size)
    rep.add("irreducible", "yes")
    rep.add("non-permutation", "yes")
    return rep


def cmd_words(args) -> Report:
    name, p = _load_presentation(args.matrix)
    ws = words(p, args.k)
    rep = Report()
    rep.add("matrix", name)
    rep.add("k", args.k)
    rep.add("count", len(ws))
    for w in ws:
        rep.add("word", p.word_label(w))
    return rep


def cmd_snf(args) -> Report:
    from .linalg import smith
    rows = _load_rect(args.matrix)
    dec = smith(rows)
    rep = Report()
    rep.add("shape", f"{len(rows)}x{len(rows[0])}")
    rep.add("diagonal", " ".join(str(v) for v in dec.diagonal))
    rep.add_rows("u", dec.u)
    rep.add_rows("v", dec.v)
    rep.add("checked", "yes")
    return rep


def cmd_invariants(args) -> Report:
    from . import classify
    name, p = _load_presentation(args.matrix)
    inv = classify.invariants(p)
    rep = Report()
    rep.add("matrix", name)
    _add_invariants(rep, name, inv)
    return rep


def cmd_flow_equiv(args) -> Report:
    from . import classify
    name_a, pa = _load_presentation(args.matrix_a)
    name_b, pb = _load_presentation(args.matrix_b)
    res = classify.flow_equivalent(pa, pb)
    rep = Report()
    rep.add("flow-equivalent", "yes" if res.verdict else "no")
    rep.add("reason", res.reason)
    _add_invariants(rep, name_a, res.a)
    _add_invariants(rep, name_b, res.b)
    return rep


def cmd_coe(args) -> Report:
    from . import classify
    name_a, pa = _load_presentation(args.matrix_a)
    name_b, pb = _load_presentation(args.matrix_b)
    res = classify.coe_verdict(pa, pb)
    rep = Report()
    rep.add("coe", res.verdict)
    rep.add("reason", res.reason)
    if res.iso is not None and res.iso.verdict == "yes":
        if res.iso.witness:
            rep.add_rows("iso-witness", res.iso.witness)
        else:
            rep.add("iso-witness", "trivial")
    _add_invariants(rep, name_a, res.a)
    _add_invariants(rep, name_b, res.b)
    return rep


def cmd_cohom(args) -> Report:
    from . import cohomology as coh
    name, p = _load_presentation(args.matrix)
    f = _load_function(args.f, p, name)
    rep = Report()
    rep.add("matrix", name)
    if args.mode == "class-equal":
        g = _load_function(args.g, p, name)
        _add_coboundary(rep, coh.class_equal(f, g), p, "class-equal", name)
    elif args.mode == "positive":
        res = coh.class_is_nonnegative(f)
        if res.nonnegative:
            rep.add("class-nonnegative", "yes")
            rep.add("representative", _function_text(res.representative, name))
            rep.add("potential", _function_text(res.potential, name))
        else:
            rep.add("class-nonnegative", "no")
            rep.add("cycle", p.word_label(res.cycle))
            rep.add("cycle-orbit-sum", res.cycle_sum)
    else:
        cycle = p.parse_word(args.cycle)
        rep.add("cycle", p.word_label(cycle))
        rep.add("orbit-sum", coh.orbit_sum(f, cycle))
    return rep


def cmd_action(args) -> Report:
    from . import actions, cohomology as coh
    name, p = _load_presentation(args.matrix)
    f = actions.action(_load_function(args.f, p, name))
    rep = Report()
    rep.add("matrix", name)
    if args.mode == "compose":
        g = actions.action(_load_function(args.g, p, name))
        rep.add("classifier", _function_text(coh.add(f, g), name))
    elif args.mode == "equivalent":
        g = actions.action(_load_function(args.g, p, name))
        _add_coboundary(rep, actions.equivalent(f, g), p, "equivalent", name)
    elif args.mode == "positive":
        res = coh.class_is_nonnegative(f)
        rep.add("class-nonnegative", "yes" if res.nonnegative else "no")
        if res.nonnegative:
            rep.add("representative", _function_text(res.representative, name))
        else:
            rep.add("cycle", p.word_label(res.cycle))
    else:
        mu = p.parse_word(args.word)
        t = coh.parse_value(args.t, coh.RING_RAT)
        x = parse_point(p, args.point)
        p.check_admissible(mu)
        exponent = coh.partial_sum(f, len(mu))
        value = actions.evaluate_phase(f, mu, t, x)
        rep.add("word", p.word_label(mu))
        rep.add("t", t)
        rep.add("point", x.label())
        rep.add("exponent", _function_text(exponent, name))
        rep.add("phase", value)
    return rep


def cmd_transducer(args) -> Report:
    from . import transducers as tr
    rep = Report()
    if args.mode == "compose":
        a_id, pa = _load_presentation(args.matrix_a)
        b_id, pb = _load_presentation(args.matrix_b)
        c_id, pc = _load_presentation(args.matrix_c)
        outer = _load_transducer(args.outer, pb, pc, b_id, c_id)
        inner = _load_transducer(args.inner, pa, pb, a_id, b_id)
        composed = tr.compose(outer, inner)
        rep.add("machine", _machine_text(composed, a_id, c_id))
        return rep
    dom_id, dom = _load_presentation(args.domain)
    cod_id, cod = _load_presentation(args.codomain)
    if args.mode == "equiv":
        t1 = _load_transducer(args.first, dom, cod, dom_id, cod_id)
        t2 = _load_transducer(args.second, dom, cod, dom_id, cod_id)
        res = tr.equivalent_maps(t1, t2, args.delay)
        rep.add("maps-equal", res.status)
        rep.add("delay-bound", res.delay_bound)
        if res.witness is not None:
            rep.add("witness", dom.word_label(res.witness))
        return rep
    machine = _load_transducer(args.machine, dom, cod, dom_id, cod_id)
    if args.mode == "apply":
        x = parse_point(dom, args.point)
        rep.add("point", x.label())
        rep.add("image", tr.apply(machine, x).label())
    elif args.mode == "verify-coe":
        data = _load_orbit_data(args, dom, dom_id)
        res = tr.verify_orbit_relation(machine, data)
        rep.add("orbit-relation", "holds" if res.holds else "fails")
        if res.witness is not None:
            rep.add("witness", dom.word_label(res.witness))
        rep.add("machine-check", res.machine_status)
        rep.add("points-checked", res.points_checked)
    else:
        data = _load_orbit_data(args, dom, dom_id)
        f = _load_function(args.function, cod, cod_id)
        out = tr.transfer_psi(machine, data, f)
        rep.add("transfer", _function_text(out, dom_id))
    return rep


def _resolve_vertex(p: SftPresentation, label: str | None) -> int:
    if label is None:
        return 0
    if label in p.vertex_labels:
        return p.vertex_labels.index(label)
    raise FormatError(f"unknown vertex label {label!r}")


def cmd_expand(args) -> Report:
    from . import moves
    name, p = _load_presentation(args.matrix)
    e = moves.expand(p, _resolve_vertex(p, args.vertex))
    exp_id = f"{name}.expanded"
    rep = Report()
    rep.add("matrix", name)
    rep.add("vertex", p.vertex_labels[e.vertex])
    rep.add_rows("expanded", e.expanded.adjacency)
    rep.add("split", _machine_text(e.split, name, exp_id))
    rep.add("split-k1", _function_text(e.split_data.k1, name))
    rep.add("split-l1", _function_text(e.split_data.l1, name))
    rep.add("merge", _machine_text(e.merge, exp_id, name))
    rep.add("merge-k1", _function_text(e.merge_data.k1, exp_id))
    rep.add("merge-l1", _function_text(e.merge_data.l1, exp_id))
    return rep


def cmd_elementary(args) -> Report:
    from . import moves
    c = _load_rect(args.c_file)
    d = _load_rect(args.d_file)
    ee = moves.elementary(c, d)
    rep = Report()
    rep.add_rows("a", ee.a.adjacency)
    rep.add_rows("b", ee.b.adjacency)
    rep.add_rows("z", ee.z)
    for s, (ci, di) in enumerate(ee.a_pairs):
        rep.add("a-pair",
                f"{ee.a.symbols[s]} = ({ee.c_edges[ci]}, {ee.d_edges[di]})")
    for s, (di, ci) in enumerate(ee.b_pairs):
        rep.add("b-pair",
                f"{ee.b.symbols[s]} = ({ee.d_edges[di]}, {ee.c_edges[ci]})")
    return rep


def cmd_transfer(args) -> Report:
    from . import moves
    rep = Report()
    if args.mode in ("phi", "psi"):
        c = _load_rect(args.c_file)
        d = _load_rect(args.d_file)
        ee = moves.elementary(c, d)
        if args.mode == "phi":
            f = _load_function(args.function, ee.a, None)
            out = moves.phi(ee, f)
            rep.add("transfer", _function_text(out, "B"))
        else:
            g = _load_function(args.function, ee.b, None)
            out = moves.psi(ee, g)
            rep.add("transfer", _function_text(out, "A"))
    else:
        name, p = _load_presentation(args.matrix)
        e = moves.expand(p, _resolve_vertex(p, args.vertex))
        if args.mode == "psi-xi":
            f = _load_function(args.function, e.expanded, None)
            out = moves.psi_xi(e, f)
            rep.add("transfer", _function_text(out, name))
        else:
            f = _load_function(args.function, p, name)
            out = moves.psi_eta(e, f)
            rep.add("transfer", _function_text(out, f"{name}.expanded"))
    return rep


def cmd_sse_search(args) -> Report:
    from . import moves
    _name_a, pa = _load_presentation(args.matrix_a)
    _name_b, pb = _load_presentation(args.matrix_b)
    res = moves.sse_search(pa.adjacency, pb.adjacency,
                           args.inner_dim, args.entry_bound, args.chain_bound)
    rep = Report()
    if res.found is None:
        rep.add("sse-chain", "not-found")
        rep.add("note", "bounded search only; not a proof of inequivalence")
    else:
        rep.add("sse-chain", "found")
        rep.add("length", len(res.found))
        for i, ee in enumerate(res.found):
            rep.add_rows(f"step-{i}.c", ee.c)
            rep.add_rows(f"step-{i}.d", ee.d)
    rep.add("nodes", res.nodes_explored)
    rep.add("attempts", res.attempts)
    return rep


# ------------------------------------------------------------- selftest

def _selftest_coboundary(rng: random.Random) -> bool:
    from . import cohomology as coh, randgen
    p = randgen.random_irreducible(rng, 6)
    b = randgen.random_function(rng, p, 3)
    cob = coh.coboundary(b)
    good = coh.class_is_zero(cob)
    if not good.is_coboundary:
        return False
    bad = coh.class_is_zero(coh.add(cob, coh.unit(p)))
    return (not bad.is_coboundary) and bad.cycle is not None


def _selftest_action(rng: random.Random) -> bool:
    from . import actions, cohomology as coh, randgen
    p = randgen.random_irreducible(rng, 5)
    f = randgen.random_function(rng, p, 2)
    b = randgen.random_function(rng, p, 2)
    res = actions.equivalent(f, coh.add(f, coh.coboundary(b)))
    if not res.is_coboundary:
        return False
    return not actions.equivalent(coh.unit(p), coh.zero(p)).is_coboundary


def _selftest_elementary(rng: random.Random) -> bool:
    from . import cohomology as coh, moves, randgen
    ee = randgen.random_elementary(rng, 3, 3, 2)
    f = randgen.random_function(rng, ee.a, 2)
    g = randgen.random_function(rng, ee.b, 2)
    lhs = moves.psi(ee, moves.phi(ee, f))
    rhs = moves.phi(ee, moves.psi(ee, g))
    return lhs == coh.pullback_sigma(f) and rhs == coh.pullback_sigma(g)


def _selftest_expansion(rng: random.Random) -> bool:
    from . import cohomology as coh, moves, randgen
    p = randgen.random_irreducible(rng, 4)
    e = moves.expand(p, rng.randrange(p.n_vertices))
    f = randgen.random_function(rng, p, 2)
    ft = randgen.random_function(rng, e.expanded, 2)
    if moves.psi_xi(e, moves.psi_eta(e, f)) != f:
        return False
    diff = coh.subtract(moves.psi_eta(e, moves.psi_xi(e, ft)), ft)
    f0 = coh.multiply(ft, coh.indicator(e.expanded, (0,)))
    want = coh.subtract(coh.pullback_sigma(f0), f0)
    return diff == want


def _selftest_invariance(rng: random.Random) -> bool:
    from . import classify, moves, randgen
    p = randgen.random_irreducible(rng, 5)
    e = moves.expand(p, rng.randrange(p.n_vertices))
    res = classify.flow_equivalent(p, e.expanded)
    return res.verdict


_SELFTEST_FAMILIES = (
    ("coboundary-detection", _selftest_coboundary),
    ("action-equivalence", _selftest_action),
    ("elementary-transfer", _selftest_elementary),
    ("expansion-transfer", _selftest_expansion),
    ("expansion-invariance", _selftest_invariance),
)


def cmd_selftest(args) -> Report:
    import random
    rep = Report()
    rep.add("seed", args.seed)
    rep.add("count", args.count)
    passed = 0
    failing: list[str] = []
    for name, fn in _SELFTEST_FAMILIES:
        ok = sum(1 for i in range(args.count)
                 if fn(random.Random(args.seed * 1_000_003 + i)))
        rep.add(name, f"{ok}/{args.count}")
        passed += ok
        if ok != args.count:
            failing.append(name)
    rep.add("passed", f"{passed}/{args.count * len(_SELFTEST_FAMILIES)}")
    if failing:
        sys.stderr.write(rep.render())
        raise ContradictionDetected(
            "selftest found failing identities in: " + ", ".join(failing))
    return rep


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """Refuses with a FormatError, which ``run`` prints as one line, in place
    of a usage line, an error line and SystemExit; subparsers inherit it."""

    def error(self, message):
        raise FormatError(message)


class _Chosen(argparse._SubParsersAction):
    """Subparsers built when chosen.  ``add`` registers a name, its help
    line if it has one, and the function that fills in its parser; the
    usage line, the help page and the invalid-choice refusal read only the
    names and help lines, so they are as if every parser were built."""

    def add(self, name: str, build, help: str | None = None) -> None:
        if help is not None:
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = build

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]                 # one of the choices: argparse checked it
        build = self._name_parser_map[name]
        if not isinstance(build, argparse.ArgumentParser):
            chosen = self._parser_class(prog=f"{self._prog_prefix} {name}")
            build(chosen)
            self._name_parser_map[name] = chosen
        super().__call__(parser, namespace, values, option_string)


class _Nonnegative(argparse.Action):
    """Stores an int option, refusing a negative one: the parser owns the
    bounds on counts and search depths."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"argument {option_string}: must be nonnegative, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="sftlab",
        description="Exact invariants of one-sided shifts of finite type: "
                    "ordered cohomology, circle actions, transducer orbit "
                    "maps, matrix moves, and equivalence verdicts.")
    top.add_argument("--json", action="store_true",
                     help="emit the report as JSON")
    top.add_argument("--seed", type=int, default=0,
                     help="seed for randomized subcommands")
    sub = top.add_subparsers(dest="command", required=True, action=_Chosen)

    def count(default):
        return {"type": int, "default": default, "action": _Nonnegative}

    # command: (help, handler, {mode: (positional names, {further argument:
    # add_argument keywords})}); a command without modes has the one mode
    # None.  Built per call, not at import, so a handler wrapped after import
    # (as perfbench's layer trace does) is the one the parser calls; only
    # the chosen command's parser, and its chosen mode's, is built.
    commands = {
        "validate": ("validate a matrix file", cmd_validate, {None: ("matrix", {})}),
        "words": ("enumerate admissible words", cmd_words,
                  {None: ("matrix", {"k": {"type": int}})}),
        "snf": ("Smith normal form of a matrix file", cmd_snf, {None: ("matrix", {})}),
        "invariants": ("classification invariants", cmd_invariants,
                       {None: ("matrix", {})}),
        "flow-equiv": ("flow equivalence verdict", cmd_flow_equiv,
                       {None: ("matrix_a matrix_b", {})}),
        "coe": ("continuous orbit equivalence verdict", cmd_coe,
                {None: ("matrix_a matrix_b", {})}),
        "cohom": ("cohomology class decisions", cmd_cohom, {
            "class-equal": ("matrix f g", {}),
            "positive": ("matrix f", {}),
            "orbit-sum": ("matrix f cycle", {}),
        }),
        "action": ("circle action operations", cmd_action, {
            "compose": ("matrix f g", {}),
            "equivalent": ("matrix f g", {}),
            "positive": ("matrix f", {}),
            "phase": ("matrix f word t point", {}),
        }),
        "transducer": ("machine operations", cmd_transducer, {
            "apply": ("domain codomain machine point", {}),
            "compose": ("matrix_a matrix_b matrix_c outer inner", {}),
            "equiv": ("domain codomain first second", {"--delay": count(None)}),
            "verify-coe": ("domain codomain machine k1 l1", {}),
            "psi": ("domain codomain machine k1 l1 function", {}),
        }),
        "expand": ("vertex expansion with machines", cmd_expand, {None: (
            "matrix", {"--vertex": {"help": "vertex label (default: first)"}})}),
        "elementary": ("elementary equivalence A=CD, B=DC", cmd_elementary,
                       {None: ("c_file d_file", {})}),
        "transfer": ("function transfer along moves", cmd_transfer, {
            "phi": ("c_file d_file function", {}),
            "psi": ("c_file d_file function", {}),
            "psi-xi": ("matrix function", {"--vertex": {}}),
            "psi-eta": ("matrix function", {"--vertex": {}}),
        }),
        "sse-search": ("bounded strong shift equivalence search", cmd_sse_search,
                       {None: ("matrix_a matrix_b", {
                           "--inner-dim": count(SSE_INNER_DIM),
                           "--entry-bound": count(SSE_ENTRY_BOUND),
                           "--chain-bound": count(SSE_CHAIN_BOUND)})}),
        "selftest": ("run the embedded identity suite", cmd_selftest,
                     {None: ("", {"--count": count(25)})}),
    }
    for command, (text, handler, modes) in commands.items():
        sub.add(command, functools.partial(_build_command, handler=handler,
                                           modes=modes), help=text)
    return top


def _build_command(s: argparse.ArgumentParser, handler, modes: dict) -> None:
    s.set_defaults(fn=handler)
    if None in modes:
        _build_mode(s, None, *modes[None])
        return
    mode_parsers = s.add_subparsers(dest="mode", required=True, action=_Chosen)
    for mode, (names, options) in modes.items():
        mode_parsers.add(mode, functools.partial(_build_mode, mode=mode, names=names,
                                                 options=options))


def _build_mode(m: argparse.ArgumentParser, mode, names: str, options: dict) -> None:
    if mode == "phase":
        # argparse takes only integers and decimals for negative numbers
        # and reads a negative rational t such as -1/3 as an option
        m._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    for name in names.split():
        m.add_argument(name)
    for name, keywords in options.items():
        m.add_argument(name, **keywords)


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.fn(args)
    except ContradictionDetected as exc:
        print(f"error: contradiction: {exc}", file=sys.stderr)
        return 1
    except SftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.render_json(args.command) if args.json else report.render()
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
