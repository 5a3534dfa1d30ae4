"""End-to-end command-line checks: report content, exit codes, JSON mirror,
and byte-for-byte determinism."""
from __future__ import annotations

import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import sftlab
import sftlab.cohomology as coh
import sftlab.moves as moves
from sftlab.cli import build_parser, run
from sftlab.shifts import load_matrix_file


def cli(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_vertex_matrix(self, capsys, fixture_dir):
        code, out, err = cli(capsys, "validate", fixture_dir / "fib.mat")
        assert code == 0 and err == ""
        assert "matrix: fib" in out
        assert "kind: vertex" in out
        assert "vertices: 2" in out
        assert "irreducible: yes" in out

    def test_edge_matrix(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "validate", fixture_dir / "two.mat")
        assert code == 0
        assert "kind: edge" in out
        assert "symbols: 2" in out

    def test_missing_file(self, capsys, fixture_dir):
        code, out, err = cli(capsys, "validate", fixture_dir / "nope.mat")
        assert code == 2 and out == ""
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("matrix vertex 2\n1 1\n")
        code, _, err = cli(capsys, "validate", bad)
        assert code == 2
        assert "error" in err

    def test_rect_refused(self, capsys, fixture_dir):
        code, _, err = cli(capsys, "validate", fixture_dir / "c.mat")
        assert code == 2
        assert "rect" in err


class TestWordsAndSnf:
    def test_words(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "words", fixture_dir / "fib.mat", 2)
        assert code == 0
        assert "count: 3" in out
        body = [line for line in out.splitlines() if line.startswith("word: ")]
        assert body == ["word: 11", "word: 12", "word: 21"]

    def test_words_envelope(self, capsys, fixture_dir):
        code, _, err = cli(capsys, "words", fixture_dir / "full3.mat", 100)
        assert code == 2
        assert "error" in err

    def test_words_negative_length(self, capsys, fixture_dir):
        code, out, err = cli(capsys, "words", fixture_dir / "fib.mat", -1)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [10**5, 10**9])
    def test_words_far_over_the_cap(self, capsys, fixture_dir, k):
        """Refused at the first level over the cap: one short line, no
        count of B_k and no traceback."""
        code, out, err = cli(capsys, "words", fixture_dir / "fib.mat", k)
        assert code == 2 and out == ""
        assert err == (f"error: EnvelopeExceeded: |B_{k}| exceeds the word cap "
                       "1000000: |B_29| = 1346269 already does\n")

    def test_snf_square(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "snf", fixture_dir / "fib.mat")
        assert code == 0
        assert "shape: 2x2" in out
        assert "diagonal: 1 1" in out
        assert "checked: yes" in out

    def test_snf_rect(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "snf", fixture_dir / "c.mat")
        assert code == 0
        assert "shape: 1x2" in out
        assert "diagonal: 1" in out


class TestMalformedInput:
    """Each is refused with exit 2 and one error line, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (("words", "fib.mat", "x"), "argument k: invalid int value: 'x'"),
        ((), "the following arguments are required: command"),
        (("cohom", "orbit-sum", "fib.mat", "g2.f", "-1:2"),
         "the following arguments are required: cycle"),
        (("selftest", "--count", "-1"), "argument --count: must be nonnegative, got -1"),
        (("selftest", "--count", "x"), "argument --count: invalid int value: 'x'"),
        (("cohom", "nope"), "argument mode: invalid choice: 'nope'"),
        (("nope",), "argument command: invalid choice: 'nope'"),
        (("validate", "fib.mat", "extra"), "unrecognized arguments: extra"),
    ], ids=["int", "no-command", "leading-dash", "bound", "option-int", "mode",
            "command", "extra"])
    def test_parser_refusal(self, capsys, fixture_dir, argv, message):
        """argparse refusals take the same path as every other refusal:
        run returns 2 and prints one FormatError line, raising nothing."""
        argv = [fixture_dir / a if a.endswith((".mat", ".f")) else a for a in argv]
        try:
            code, out, err = cli(capsys, *argv)
        except SystemExit as exc:
            pytest.fail(f"run raised SystemExit({exc.code})")
        assert code == 2 and out == ""
        assert err.startswith(f"error: FormatError: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, line", [
        (("nope",), "argument command: invalid choice: 'nope' (choose from "
                    "'validate', 'words', 'snf', 'invariants', 'flow-equiv', 'coe', "
                    "'cohom', 'action', 'transducer', 'expand', 'elementary', "
                    "'transfer', 'sse-search', 'selftest')"),
        (("cohom", "nope"), "argument mode: invalid choice: 'nope' (choose from "
                            "'class-equal', 'positive', 'orbit-sum')"),
    ], ids=["command", "mode"])
    def test_invalid_choice_lists_every_choice(self, capsys, argv, line):
        """The choices of a refusal are every command, or every mode of the
        command, whether or not its parser was built."""
        assert cli(capsys, *argv) == (2, "", f"error: FormatError: {line}\n")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sftlab")

    def test_leading_dash_token_after_double_dash(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "cohom", "orbit-sum", fixture_dir / "fib.mat",
                           fixture_dir / "g2.f", "--", "12")
        assert code == 0 and "orbit-sum: 3" in out

    @pytest.mark.parametrize("argv", [
        ("transducer", "equiv", "fib.mat", "fib.mat", "ident.t", "ident.t",
         "--delay", "-1"),
        ("sse-search", "two.mat", "full2.mat", "--inner-dim", "-1"),
        ("sse-search", "two.mat", "full2.mat", "--entry-bound", "-2"),
        ("sse-search", "two.mat", "full2.mat", "--chain-bound", "-3"),
        ("selftest", "--count", "-1"),
    ], ids=["delay", "inner-dim", "entry-bound", "chain-bound", "count"])
    def test_negative_count_or_bound(self, capsys, fixture_dir, argv):
        argv = [fixture_dir / a if a.endswith((".mat", ".t")) else a for a in argv]
        code, out, err = cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: FormatError: ") and err.count("\n") == 1
        assert str(argv[-2]) in err

    @pytest.mark.parametrize("mode, extra", [("verify-coe", ()), ("psi", ("g2.f",))])
    def test_negative_cocycle_exponent(self, capsys, fixture_dir, mode, extra):
        """g2.f takes the value -1, so it cannot be a cocycle exponent."""
        argv = ("fib.mat", "fib.mat", "ident.t", "g2.f", "gauge.f", *extra)
        code, out, err = cli(capsys, "transducer", mode,
                             *(fixture_dir / a for a in argv))
        assert code == 2 and out == ""
        assert err == "error: FormatError: cocycle exponents must be nonnegative\n"

    @pytest.mark.parametrize("header", ["matrix rect 0 0", "matrix rect 0 3",
                                        "matrix vertex 0"])
    def test_empty_matrix_header(self, capsys, tmp_path, header):
        bad = tmp_path / "empty.mat"
        bad.write_text(header + "\n")
        code, out, err = cli(capsys, "snf", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: FormatError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("validate", "bad"),
        ("snf", "bad"),
        ("cohom", "positive", "fib.mat", "bad"),
        ("transducer", "apply", "fib.mat", "fib.mat", "bad", "1:12"),
    ], ids=["matrix", "rect", "function", "transducer"])
    def test_non_ascii_file(self, capsys, fixture_dir, tmp_path, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(b"# caf\xc3\xa9\nmatrix vertex 2\n1 1\n1 0\n")
        argv = [bad if a == "bad" else fixture_dir / a if a.endswith(".mat") else a
                for a in argv]
        code, out, err = cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: FormatError: ") and err.count("\n") == 1
        assert "non-ASCII" in err


def _help(capsys, monkeypatch, *path):
    """The --help page of a command path, wrapped at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run([*path, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


# every command and mode path with its usage line
USAGES = [
    ("validate", "validate [-h] matrix"),
    ("words", "words [-h] matrix k"),
    ("snf", "snf [-h] matrix"),
    ("invariants", "invariants [-h] matrix"),
    ("flow-equiv", "flow-equiv [-h] matrix_a matrix_b"),
    ("coe", "coe [-h] matrix_a matrix_b"),
    ("cohom", "cohom [-h] {class-equal,positive,orbit-sum} ..."),
    ("cohom class-equal", "cohom class-equal [-h] matrix f g"),
    ("cohom positive", "cohom positive [-h] matrix f"),
    ("cohom orbit-sum", "cohom orbit-sum [-h] matrix f cycle"),
    ("action", "action [-h] {compose,equivalent,positive,phase} ..."),
    ("action compose", "action compose [-h] matrix f g"),
    ("action equivalent", "action equivalent [-h] matrix f g"),
    ("action positive", "action positive [-h] matrix f"),
    ("action phase", "action phase [-h] matrix f word t point"),
    ("transducer", "transducer [-h] {apply,compose,equiv,verify-coe,psi} ..."),
    ("transducer apply", "transducer apply [-h] domain codomain machine point"),
    ("transducer compose",
     "transducer compose [-h] matrix_a matrix_b matrix_c outer inner"),
    ("transducer equiv", "transducer equiv [-h] [--delay DELAY]\n"
                         "                               domain codomain first second"),
    ("transducer verify-coe",
     "transducer verify-coe [-h] domain codomain machine k1 l1"),
    ("transducer psi",
     "transducer psi [-h] domain codomain machine k1 l1 function"),
    ("expand", "expand [-h] [--vertex VERTEX] matrix"),
    ("elementary", "elementary [-h] c_file d_file"),
    ("transfer", "transfer [-h] {phi,psi,psi-xi,psi-eta} ..."),
    ("transfer phi", "transfer phi [-h] c_file d_file function"),
    ("transfer psi", "transfer psi [-h] c_file d_file function"),
    ("transfer psi-xi", "transfer psi-xi [-h] [--vertex VERTEX] matrix function"),
    ("transfer psi-eta", "transfer psi-eta [-h] [--vertex VERTEX] matrix function"),
    ("sse-search", "sse-search [-h] [--inner-dim INNER_DIM]\n"
                   "                         [--entry-bound ENTRY_BOUND]\n"
                   "                         [--chain-bound CHAIN_BOUND]\n"
                   "                         matrix_a matrix_b"),
    ("selftest", "selftest [-h] [--count COUNT]"),
]


class TestParserShape:
    """The commands, modes, positionals and options the parser accepts."""

    @pytest.mark.parametrize("path, usage", USAGES)
    def test_usage(self, capsys, monkeypatch, path, usage):
        page = _help(capsys, monkeypatch, *path.split())
        assert page.split("\n\n")[0] == f"usage: sftlab {usage}"

    def test_command_listing(self, capsys, monkeypatch):
        page = _help(capsys, monkeypatch)
        listing = page.split("positional arguments:\n")[1].split("\n\n")[0]
        assert listing.splitlines()[1:] == [
            "    validate            validate a matrix file",
            "    words               enumerate admissible words",
            "    snf                 Smith normal form of a matrix file",
            "    invariants          classification invariants",
            "    flow-equiv          flow equivalence verdict",
            "    coe                 continuous orbit equivalence verdict",
            "    cohom               cohomology class decisions",
            "    action              circle action operations",
            "    transducer          machine operations",
            "    expand              vertex expansion with machines",
            "    elementary          elementary equivalence A=CD, B=DC",
            "    transfer            function transfer along moves",
            "    sse-search          bounded strong shift equivalence search",
            "    selftest            run the embedded identity suite",
        ]

    @pytest.mark.parametrize("argv, json_flag, seed", [
        (["--js", "validate", "fib.mat"], True, 0),
        (["--se", "3", "validate", "fib.mat"], False, 3),
        (["--seed", "7", "validate", "fib.mat"], False, 7),
    ])
    def test_top_options_before_the_command(self, argv, json_flag, seed):
        """argparse reads a unique prefix of a top-level option, and the
        value after ``--seed`` is no command."""
        args = build_parser().parse_args(argv)
        assert (args.command, args.matrix, args.json, args.seed) == (
            "validate", "fib.mat", json_flag, seed)

    @pytest.mark.parametrize("path, built", [
        ("validate", ["sftlab", "sftlab validate"]),
        ("cohom class-equal", ["sftlab", "sftlab cohom", "sftlab cohom class-equal"]),
    ])
    def test_only_the_chosen_parsers_are_built(self, capsys, monkeypatch,
                                               fixture_dir, path, built):
        """A run builds the top parser, its command's and its mode's, and
        no other."""
        progs = []

        class Counted(sftlab.cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                progs.append(self.prog)

        monkeypatch.setattr(sftlab.cli, "_Parser", Counted)
        argv = [str(fixture_dir / a) for a in RUNS[path].split()]
        code, _out, err = cli(capsys, *path.split(), *argv)
        assert code == 0, err
        assert progs == built

    def test_sse_defaults_have_one_holder(self):
        args = build_parser().parse_args(["sse-search", "a", "b"])
        parsed = (args.inner_dim, args.entry_bound, args.chain_bound)
        signature = inspect.signature(moves.sse_search).parameters
        assert parsed == (3, 2, 3)
        assert parsed == tuple(signature[name].default for name in
                               ("inner_dim_bound", "entry_bound", "chain_bound"))


class TestVerdicts:
    def test_invariants(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "invariants", fixture_dir / "full3.mat")
        assert code == 0
        assert "full3.bf-group: Z/2" in out
        assert "full3.det-sign: -1" in out
        assert "full3.spectral-radius: [3, 3]" in out

    def test_flow_equiv_yes(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "flow-equiv", fixture_dir / "fib.mat",
                           fixture_dir / "full2.mat")
        assert code == 0
        assert "flow-equivalent: yes" in out

    def test_flow_equiv_no(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "flow-equiv", fixture_dir / "full2.mat",
                           fixture_dir / "full3.mat")
        assert code == 0
        assert "flow-equivalent: no" in out

    def test_coe(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "coe", fixture_dir / "fib.mat",
                           fixture_dir / "full2.mat")
        assert code == 0
        assert "coe: yes" in out
        code, out, _ = cli(capsys, "coe", fixture_dir / "full2.mat",
                           fixture_dir / "full3.mat")
        assert code == 0
        assert "coe: no" in out

    def test_coe_mixed_witness(self, capsys, fixture_dir):
        """The printed witness carries mixed_a's marked element to mixed_b's,
        checked from the printed k0 lines alone."""
        code, out, _ = cli(capsys, "coe", fixture_dir / "mixed_a.mat",
                           fixture_dir / "mixed_b.mat")
        assert code == 0
        rep = _parse_report(out)
        assert rep["coe"] == "yes"
        witness = [[int(v) for v in row.split()]
                   for row in rep["iso-witness"].splitlines()]
        moduli, src = _pointed(rep, "mixed_a")
        dst_moduli, dst = _pointed(rep, "mixed_b")
        assert moduli == dst_moduli == [2, 0]
        assert len(witness) == len(moduli)
        for row, d, want in zip(witness, moduli, dst):
            assert len(row) == len(moduli)
            image = sum(x * y for x, y in zip(row, src))
            assert (image - want) % d == 0 if d else image == want


def _parse_report(out: str) -> dict:
    """key: value lines; indented lines continue the key above."""
    rep, key = {}, None
    for line in out.splitlines():
        if line.startswith("  "):
            rep[key] += ("\n" if rep[key] else "") + line[2:]
        else:
            key, _, value = line.partition(":")
            rep[key] = value.strip()
    return rep


def _pointed(rep: dict, name: str):
    """Coordinate moduli (0 for Z) and marked element of a printed k0 line."""
    parts = [p.strip() for p in rep[f"{name}.k0-group"].split("+")]
    moduli = [int(p[2:]) for p in parts if p.startswith("Z/")]
    moduli += [0] * parts.count("Z")
    return moduli, [int(v) for v in rep[f"{name}.k0-marked"].split()]


class TestCohom:
    def test_class_equal_yes(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "cohom", "class-equal",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f",
                           fixture_dir / "gauge.f")
        assert code == 0
        assert "class-equal: yes" in out
        assert "witness:" in out

    def test_class_equal_no(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "cohom", "class-equal",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f",
                           fixture_dir / "zero.f")
        assert code == 0
        assert "class-equal: no" in out
        assert "cycle:" in out

    def test_positive(self, capsys, fixture_dir, tmp_path):
        code, out, _ = cli(capsys, "cohom", "positive",
                           fixture_dir / "fib.mat", fixture_dir / "one1.f")
        assert code == 0
        assert "class-nonnegative: yes" in out
        neg = tmp_path / "neg.f"
        neg.write_text("function fib depth=1 ring=Z\n1 -1\n2 -1\n")
        code, out, _ = cli(capsys, "cohom", "positive",
                           fixture_dir / "fib.mat", neg)
        assert code == 0
        assert "class-nonnegative: no" in out
        assert "cycle:" in out

    def test_orbit_sum(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "cohom", "orbit-sum",
                           fixture_dir / "fib.mat", fixture_dir / "g2.f", "12")
        assert code == 0
        assert "orbit-sum: 3" in out

    def test_function_id_mismatch(self, capsys, fixture_dir):
        code, _, err = cli(capsys, "cohom", "positive",
                           fixture_dir / "full2.mat", fixture_dir / "gauge.f")
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv", [
    "cohom class-equal fib.mat - -", "cohom positive fib.mat -",
    "cohom orbit-sum fib.mat - 33", "action compose fib.mat - -",
    "action equivalent fib.mat - -", "action positive fib.mat -",
    "action phase fib.mat - 33 abc 9:9"])
def test_function_f_is_read_after_the_matrix_and_before_the_rest(
        capsys, fixture_dir, tmp_path, argv):
    """Every argument after the matrix is bad, a "-" a missing function
    file; the refusal names f, and with the matrix missing too, the matrix."""
    def run_with(matrix):
        missing = iter([tmp_path / "f-missing.f", tmp_path / "g-missing.f"])
        return cli(capsys, *[matrix if a == "fib.mat" else next(missing) if a == "-"
                             else a for a in argv.split()])

    code, out, err = run_with(fixture_dir / "fib.mat")
    assert (code, out) == (2, "") and "f-missing.f" in err
    code, out, err = run_with(tmp_path / "m-missing.mat")
    assert (code, out) == (2, "") and "m-missing.mat" in err


class TestAction:
    def test_compose(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "action", "compose", fixture_dir / "fib.mat",
                           fixture_dir / "gauge.f", fixture_dir / "gauge.f")
        assert code == 0
        assert "classifier:" in out
        assert "1 2" in out and "2 2" in out

    def test_equivalent(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "action", "equivalent",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f",
                           fixture_dir / "gauge.f")
        assert code == 0
        assert "equivalent: yes" in out
        code, out, _ = cli(capsys, "action", "equivalent",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f",
                           fixture_dir / "zero.f")
        assert code == 0
        assert "equivalent: no" in out

    @pytest.mark.parametrize("f, g, cycle_sum", [("one1.f", "gauge.f", "1"),
                                                 ("gauge.f", "one1.f", "-1")])
    def test_equivalent_reports_the_decided_function(self, capsys, fixture_dir,
                                                    f, g, cycle_sum):
        """``equivalent f g`` decides whether g - f is a coboundary, and its
        cycle sum is that of g - f in either argument order: the report of
        ``cohom class-equal g f``."""
        fib = fixture_dir / "fib.mat"
        code, out, _ = cli(capsys, "action", "equivalent", fib,
                           fixture_dir / f, fixture_dir / g)
        assert code == 0
        rep = _parse_report(out)
        assert rep["equivalent"] == "no"
        assert rep["cycle-orbit-sum"] == cycle_sum
        code, out, _ = cli(capsys, "cohom", "class-equal", fib,
                           fixture_dir / g, fixture_dir / f)
        assert code == 0
        assert _parse_report(out)["cycle-orbit-sum"] == cycle_sum

    def test_positive(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "action", "positive",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f")
        assert code == 0
        assert "class-nonnegative: yes" in out
        assert "representative:" in out

    def test_phase(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "action", "phase", fixture_dir / "fib.mat",
                           fixture_dir / "gauge.f", "12", "1/4", ":12")
        assert code == 0
        assert "word: 12" in out
        assert "phase: 1/2" in out

    def test_phase_inadmissible(self, capsys, fixture_dir):
        code, _, err = cli(capsys, "action", "phase", fixture_dir / "fib.mat",
                           fixture_dir / "gauge.f", "12", "1/4", ":21")
        assert code == 2
        assert "error" in err

    def test_phase_malformed_t(self, capsys, fixture_dir):
        code, out, err = cli(capsys, "action", "phase", fixture_dir / "fib.mat",
                             fixture_dir / "gauge.f", "1", "abc", "1:1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_phase_zero_denominator(self, capsys, fixture_dir):
        code, out, err = cli(capsys, "action", "phase", fixture_dir / "fib.mat",
                             fixture_dir / "gauge.f", "1", "1/0", "1:1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTransducer:
    def test_apply(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "transducer", "apply",
                           fixture_dir / "fib.mat", fixture_dir / "fib.mat",
                           fixture_dir / "ident.t", "1:12")
        assert code == 0
        assert "image: 1:12" in out

    def test_equiv(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "transducer", "equiv",
                           fixture_dir / "fib.mat", fixture_dir / "fib.mat",
                           fixture_dir / "ident.t", fixture_dir / "ident.t")
        assert code == 0
        assert "maps-equal: equal" in out

    def test_verify_coe(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "transducer", "verify-coe",
                           fixture_dir / "fib.mat", fixture_dir / "fib.mat",
                           fixture_dir / "ident.t", fixture_dir / "zero.f",
                           fixture_dir / "gauge.f")
        assert code == 0
        assert "orbit-relation: holds" in out
        assert "machine-check: equal" in out

    def test_psi(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "transducer", "psi",
                           fixture_dir / "fib.mat", fixture_dir / "fib.mat",
                           fixture_dir / "ident.t", fixture_dir / "zero.f",
                           fixture_dir / "gauge.f", fixture_dir / "g2.f")
        assert code == 0
        assert "transfer:" in out
        assert "11 3" in out and "21 4" in out


class TestMoves:
    def test_expand(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "expand", fixture_dir / "fib.mat")
        assert code == 0
        assert "expanded:" in out
        assert "  0 1 1" in out and "  1 0 0" in out and "  0 1 0" in out
        assert "split:" in out and "merge:" in out
        assert "split-l1:" in out

    def test_expand_unknown_vertex(self, capsys, fixture_dir):
        code, _, err = cli(capsys, "expand", fixture_dir / "fib.mat",
                           "--vertex", "9")
        assert code == 2
        assert "error" in err

    def test_elementary(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "elementary", fixture_dir / "c.mat",
                           fixture_dir / "d.mat")
        assert code == 0
        assert "a: 2\n" in out
        assert "b:\n  1 1\n  1 1\n" in out
        assert "z:" in out
        assert "a-pair" in out and "b-pair" in out

    def test_transfer_psi_xi(self, capsys, fixture_dir, tmp_path):
        unit = tmp_path / "unit_exp.f"
        unit.write_text("function x depth=1 ring=Z\n0 1\n1 1\n2 1\n")
        code, out, _ = cli(capsys, "transfer", "psi-xi",
                           fixture_dir / "fib.mat", unit)
        assert code == 0
        assert "1 2" in out and "2 1" in out

    def test_transfer_psi_eta(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "transfer", "psi-eta",
                           fixture_dir / "fib.mat", fixture_dir / "gauge.f")
        assert code == 0
        assert "0 0" in out and "1 1" in out and "2 1" in out

    def test_sse_found(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "sse-search", fixture_dir / "two.mat",
                           fixture_dir / "full2.mat")
        assert code == 0
        assert "sse-chain: found" in out
        assert "length: 1" in out
        assert "step-0.c:" in out and "step-0.d:" in out

    def test_sse_not_found(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "sse-search", fixture_dir / "fib.mat",
                           fixture_dir / "full2.mat")
        assert code == 0
        assert "sse-chain: not-found" in out
        assert "note:" in out


class TestDeterminism:
    def test_report_bytes_stable(self, capsys, fixture_dir):
        _, out1, _ = cli(capsys, "coe", fixture_dir / "fib.mat",
                         fixture_dir / "full2.mat")
        _, out2, _ = cli(capsys, "coe", fixture_dir / "fib.mat",
                         fixture_dir / "full2.mat")
        assert out1 == out2

    def test_selftest_passes(self, capsys):
        code, out, err = cli(capsys, "selftest", "--count", "2")
        assert code == 0, err
        assert "passed: 10/10" in out

    def test_selftest_seed_changes_instances(self, capsys):
        code, out, _ = cli(capsys, "--seed", "7", "selftest", "--count", "2")
        assert code == 0
        assert "seed: 7" in out

    def test_json_mirror(self, capsys, fixture_dir):
        code, out, _ = cli(capsys, "--json", "validate", fixture_dir / "fib.mat")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert doc["report"][0] == ["matrix", "fib"]
        assert ["irreducible", "yes"] in doc["report"]


def _write_transfer_functions(fixture_dir, where) -> None:
    """a.f and b.f on the two sides of c.mat/d.mat's elementary equivalence,
    x.f on the expansion of fib."""
    ee = moves.elementary(((1, 1),), ((1,), (1,)))
    e = moves.expand(load_matrix_file(fixture_dir / "fib.mat"))
    files = {
        "a.f": coh.function(ee.a, 2, [3, -1, 4, 1]),
        "b.f": coh.function(ee.b, 1, [5, -9, 2, 6]),
        "x.f": coh.function(e.expanded, 2, [5, 3, -5, 8]),
    }
    for name, f in files.items():
        (where / name).write_text(coh.format_function_text(f, "m"))


class TestOptimizedInterpreter:
    """The transfers, the identity suite and a mixed-case coe report the
    same bytes when ``python -O`` strips the asserts."""

    def test_transfer_and_selftest_bytes(self, fixture_dir, tmp_path):
        fx = fixture_dir
        _write_transfer_functions(fx, tmp_path)
        commands = [
            ["transfer", "phi", fx / "c.mat", fx / "d.mat", tmp_path / "a.f"],
            ["transfer", "psi", fx / "c.mat", fx / "d.mat", tmp_path / "b.f"],
            ["transfer", "psi-xi", fx / "fib.mat", tmp_path / "x.f"],
            ["transfer", "psi-eta", fx / "fib.mat", fx / "g2.f"],
            ["selftest", "--count", "2"],
        ]
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("SFTLAB_MAX_WORDS", None)

        def stdout(flags, argv):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "sftlab.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, check=False)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        for argv in commands:
            plain = stdout([], argv)
            assert plain.startswith(("transfer:\n", "seed: "))
            assert stdout(["-O"], argv) == plain

    def test_coe_mixed_bytes(self, fixture_dir):
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "sftlab.cli", "coe",
                str(fixture_dir / "mixed_a.mat"), str(fixture_dir / "mixed_b.mat")]
        plain = subprocess.run(argv, capture_output=True, text=True, env=env,
                               timeout=120)
        optimised = subprocess.run(argv[:1] + ["-O"] + argv[1:], capture_output=True,
                                   text=True, env=env, timeout=120)
        assert plain.returncode == optimised.returncode == 0, plain.stderr
        assert plain.stdout.startswith("coe: yes\n")
        assert optimised.stdout == plain.stdout


# the arguments of each command and mode path with no further modes; a bare
# name is a fixture file, a name in TMP one that _write_transfer_functions
# writes
RUNS = {
    "validate": "fib.mat",
    "words": "fib.mat 3",
    "snf": "fib.mat",
    "invariants": "fib.mat",
    "flow-equiv": "fib.mat full2.mat",
    "coe": "fib.mat full2.mat",
    "cohom class-equal": "fib.mat gauge.f zero.f",
    "cohom positive": "fib.mat gauge.f",
    "cohom orbit-sum": "fib.mat gauge.f 12",
    "action compose": "fib.mat gauge.f one1.f",
    "action equivalent": "fib.mat gauge.f one1.f",
    "action positive": "fib.mat gauge.f",
    "action phase": "fib.mat gauge.f 12 1/4 :12",
    "transducer apply": "fib.mat fib.mat ident.t 1:12",
    "transducer compose": "fib.mat fib.mat fib.mat ident.t ident.t",
    "transducer equiv": "fib.mat fib.mat ident.t ident.t",
    "transducer verify-coe": "fib.mat fib.mat ident.t zero.f gauge.f",
    "transducer psi": "fib.mat fib.mat ident.t zero.f gauge.f g2.f",
    "expand": "fib.mat",
    "elementary": "c.mat d.mat",
    "transfer phi": "c.mat d.mat a.f",
    "transfer psi": "c.mat d.mat b.f",
    "transfer psi-xi": "fib.mat x.f",
    "transfer psi-eta": "fib.mat g2.f",
    "sse-search": "two.mat full2.mat",
    "selftest": "--count 1",
}
TMP = ("a.f", "b.f", "x.f")


# sha256 of the stdout of each RUNS path, plain and with --json
REPORT_DIGESTS = {
    "validate": (
        "f90c17e3d41c5bcd492d568828dcc9d9a910d869853a1ff507485e5854767a40",
        "c84f4ca0a2b31faab20981c4ff3c2766b7b8b17cad16e37ea506ddebb3f42544"),
    "words": (
        "7fc05fe321d8045445009cc7384b85cfd745b3b719439194fe32cdc529b45b8e",
        "b0c07a8baa5335a508858da304897c3b78d31594953f78e5fd7f9d7cd8045946"),
    "snf": (
        "3ac853bf6c77eb91b14128190c90d5ac4f932477b5bb60f53c48e7a161962373",
        "bc5ee5a1a91852a3de219dfe0021c70feb972965a9db682ac4f70d1dedf9f6bc"),
    "invariants": (
        "4b9588156ca5d7cfd5c1fa1f07aae751f83bdab3e33bdf3b6d0081f541a6e275",
        "462705d1bcde8bb7107afc79a1020e2478e75ab3307a067851025ca0aa1a33b4"),
    "flow-equiv": (
        "3f8cf02700341071b90da7271c76bb92e1038b2e361fc8f482ed937326621c24",
        "d6d9245d18c7b42bf8da9e20d08933ab2eb3170de6860f0e59f25e7406d23aa5"),
    "coe": (
        "f826684b766ebcd19017c3c177f9e6c9106734058f5cee101ede227c9dcd5177",
        "571c86cc2ac658606525d719e2d7ce75e9020dbb1ba76f55b75c8a20a5fcc671"),
    "cohom class-equal": (
        "2fbd61cfe90f05f479bcd5e3f7ab62d620287f86226f2cc8b50e42828d25449d",
        "141204e328ff4466076e220055fd48bda38b9ca264dbb818aad31ac12a302fdf"),
    "cohom positive": (
        "cbc7eced03e708719b863f27ab89ddd5d8ef38e946f469e9ada2ae19ef817ade",
        "1093aa04dfecd034108f5325a474df4d99ea78c053b596567535ecab308dd752"),
    "cohom orbit-sum": (
        "2f2d6f61b793026ee8285f05a1a7e3cebf77dd48258d04d501e6086d26a36619",
        "b70049c5b02e396433c77e9a4fba198c95c3452fcb8a3c049621409f9bdced29"),
    "action compose": (
        "8804e4ac454804d604c2b92dbf3e488ca1a93b9c9b9c3ef1958983424c116702",
        "90560222f13f0d70024d36d26bdd36a222baaa9671fb5e1d3fd0db098f504c7a"),
    "action equivalent": (
        "342fa13e9316f4b6ef7e9235e7d67b3e18e8fd58eb18481fdc1ec106cac2cd47",
        "2833cda31b5b312319b6452d3372108a0d1f532327bf4b709c5df2ea53f99e2d"),
    "action positive": (
        "e5ef37e41fbfb30b647325ed6196603e05eda570ba53e9f38297487246c8780e",
        "4200b3ebd79449ca0fb89297a1905aa8caa912430b3251c8230c5a0b1be7b6a6"),
    "action phase": (
        "009517f75a3f69b8a35ac527736a0574810cc09421cdf786903fd3d21bdd4216",
        "0e462353821b93f6f25af3f683d7519e7729664e6115c13c983e23611ef37af8"),
    "transducer apply": (
        "e3cd512a8903e01f73bb5861894a5c216ab9125b1aa260e01239aabd8b0d0b22",
        "c069a247cf07d0e399abfc4331cd93e2dc2bf29a0af123aacea0357f4fb57249"),
    "transducer compose": (
        "20b3534e51acd9f914c3e5c4c61602ab885bbe56bb2abd8931931a1e9604b033",
        "18e1d74c08a65a17cad1a88dda57f9f1393e13a2ef8f9247d25f1acf08701972"),
    "transducer equiv": (
        "19e70e96dcf551b13c19ce973194dc23f899581f6066f3615e15c85ef87418d9",
        "d7cd36a4c2ca499e2ebd92912d213e1725c9ca4becf468535a5fd9028a707876"),
    "transducer verify-coe": (
        "d4766589fdd101c0c9d82b9fb64a2d4a08f1e31f3d8a66a37ea0cbe5ecad1fc1",
        "49f202ed8e7d12e17698e11d1d8ee4c344ca5376b724aa09fbe1475b2c152566"),
    "transducer psi": (
        "fe845d81e410f81cd638f6d19bab2cdbeef84664b89bdbde1254061a339ea625",
        "fe3eb50ec44e1d950304e03069569dded811c221c0438d0b7799fc676ba0057e"),
    "expand": (
        "b0af282907e3441b058059c39ef7a1c3a540259e3198c1934d1f01cdbbb6d105",
        "c5b8666b352cace57a63df20b7cf29d1207093dae0fd575481bf5951bf40a2b1"),
    "elementary": (
        "e1d638de7dfd1f567c277f24acca42371e05b507451015877acac30b25d41150",
        "5c391268212d4d2bc44d992ac507f39642ef3bb500e6a119475541f01ac8b706"),
    "transfer phi": (
        "9e2c10caace214355df2f8c2367453ad0a5ee35f6e42731874da06e243bc031e",
        "b88bd3da7eb79a064ff0e5290e4b93f4f79ca0ed0f6837269139192e65042bf2"),
    "transfer psi": (
        "5ee07eb3bdc92942f53f42d79aa82486544395dc4257eadfcace0ea22f789411",
        "7c0036eb17f5fdbdc1243c5fd6ab302822bbb3abdebe84cb8745743a887dd1a8"),
    "transfer psi-xi": (
        "40d894646c8656c28b1cc992a3826f8ae6914944ac44324d6c3138ebb2917af9",
        "28d36f4b1c1bc390acfa7370378a39fdde48eeba5e9e3d3f711fef25c235dedc"),
    "transfer psi-eta": (
        "49d3d0b03531edd298b92ee2c1817b5b3e056f432d83c3a054e0f35abcf4a839",
        "ecfbf9579ac5e30c5adfe27cd31b6efffd3023a777d169be6b30585400642c77"),
    "sse-search": (
        "743b2fffaafd48781d8117b1730f90ae43010228ad6e17f9b50ebe6bc879163d",
        "7a58b7714ade765f9a8c54e7f9d0d26a9b358c4189471f1bd580370976269457"),
    "selftest": (
        "f3d59f0b79dfbb6312131f40be52b02182bea53fd89054b24583f98bff4ee916",
        "13e2062d34853175d4fbd74fb6be8585ba0be3383d9174b67c33eb7ab04339fe"),
}


class TestEveryPath:
    """Each command and mode runs to exit 0, plain and with --json, so a
    handler that lost an import it needs fails here with the NameError that
    ``run`` lets through; and each report's bytes are pinned, so a change
    to what a path prints fails here too, showing the text it printed."""

    def test_runs_cover_every_path(self):
        assert set(RUNS) == {path for path, usage in USAGES
                             if not usage.endswith(" ...")}
        assert set(REPORT_DIGESTS) == set(RUNS)

    @pytest.mark.parametrize("path", RUNS)
    def test_path_runs(self, capsys, fixture_dir, tmp_path, path):
        _write_transfer_functions(fixture_dir, tmp_path)
        args = [str((tmp_path if a in TMP else fixture_dir) / a)
                if a.endswith((".mat", ".f", ".t")) else a
                for a in RUNS[path].split()]
        for flags, digest in zip(([], ["--json"]), REPORT_DIGESTS[path]):
            code, out, err = cli(capsys, *flags, *path.split(), *args)
            assert code == 0, err
            assert out and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, out


class TestLazyLayers:
    """A fresh interpreter that runs one command loads only the layers its
    handler calls, and ``json`` only for ``--json``."""

    PROBE = ("import sys, sftlab.cli\n"
             "code = sftlab.cli.run(sys.argv[1:])\n"
             "print(code, *sorted(sys.modules))\n")

    @staticmethod
    def _modules(fixture_dir, argv) -> set[str]:
        src = pathlib.Path(sftlab.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-c", TestLazyLayers.PROBE, *argv],
                              cwd=fixture_dir, capture_output=True, text=True,
                              env=env, timeout=120, check=False)
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        return set(modules)

    @pytest.mark.parametrize("path, absent", [
        ("validate", "cohomology transducers moves classify actions randgen linalg"),
        ("cohom class-equal", "transducers moves classify actions randgen linalg"),
        ("invariants", "cohomology transducers moves actions randgen"),
        ("coe", "cohomology transducers moves actions randgen"),
        ("transducer verify-coe", "moves classify actions randgen linalg"),
    ])
    def test_command_loads_only_its_layers(self, fixture_dir, path, absent):
        loaded = self._modules(fixture_dir, [*path.split(), *RUNS[path].split()])
        assert "sftlab.cli" in loaded
        assert loaded.isdisjoint(f"sftlab.{name}" for name in absent.split())
        assert "json" not in loaded

    def test_json_loads_json(self, fixture_dir):
        assert "json" in self._modules(fixture_dir, ["--json", "validate", "fib.mat"])

    def test_records_load_no_code_generation(self, fixture_dir):
        """The records of ``sftlab.record`` need neither ``dataclasses`` nor
        the ``inspect`` it imports."""
        loaded = self._modules(fixture_dir, ["validate", *RUNS["validate"].split()])
        assert loaded.isdisjoint({"dataclasses", "inspect"})
