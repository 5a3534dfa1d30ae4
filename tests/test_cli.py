"""End-to-end command-line checks: report content, exit codes, JSON mirror,
and byte-for-byte determinism."""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sftlab
import sftlab.cohomology as coh
import sftlab.moves as moves
from sftlab.cli import run
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


class TestParserShape:
    """The commands, modes, positionals and options the parser accepts."""

    @pytest.mark.parametrize("path, usage", [
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
    ])
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


class TestOptimizedInterpreter:
    """The transfers, the identity suite and a mixed-case coe report the
    same bytes when ``python -O`` strips the asserts."""

    def test_transfer_and_selftest_bytes(self, fixture_dir, tmp_path):
        fx = fixture_dir
        ee = moves.elementary(((1, 1),), ((1,), (1,)))
        e = moves.expand(load_matrix_file(fx / "fib.mat"))
        files = {
            "a.f": coh.function(ee.a, 2, [3, -1, 4, 1]),
            "b.f": coh.function(ee.b, 1, [5, -9, 2, 6]),
            "x.f": coh.function(e.expanded, 2, [5, 3, -5, 8]),
        }
        for name, f in files.items():
            (tmp_path / name).write_text(coh.format_function_text(f, "m"))
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
