"""The cli-cold workload: fresh ``python -m sftlab.cli`` processes.

Each round writes its own seeded matrix, function and machine files and
runs the seven commands below in sequence, one process at a time.  A task is
one process, so its time includes interpreter start and ``import sftlab``.
Certificates printed by the CLI are re-checked in this process through the
library's public calls.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import gen
from workloads import Task, _iso_witness_error, _same, _truth_groups

import sftlab.cohomology as coh
import sftlab.linalg as la
import sftlab.moves as mv
from sftlab.shifts import validate

ROUNDS = 6


def _words(rows, k):
    """Admissible words of length k in sftlab's frozen lexicographic order."""
    out = [(a,) for a in range(len(rows))]
    for _ in range(k - 1):
        out = [w + (b,) for w in out for b in range(len(rows)) if rows[w[-1]][b]]
    return out


def _label(w, labels) -> str:
    return "".join(labels[s] for s in w)


def _function_text(ident, rows, labels, depth, table) -> str:
    lines = [f"function {ident} depth={depth} ring=Z"]
    lines += [f"{_label(w, labels)} {v}"
              for w, v in zip(_words(rows, depth), table)]
    return "\n".join(lines) + "\n"


def _matrix_text(rows) -> str:
    return f"matrix vertex {len(rows)}\n" + \
        "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _round_files(rng: random.Random, where: Path, size: int) -> dict:
    """Write one round's files; returns what the checks need."""
    a = gen.irreducible_01(rng, size, size)
    b = gen.irreducible_01(rng, size, size)
    n = len(a)
    labels = [str(i + 1) for i in range(n)]
    vertex = rng.randrange(n)
    ax = gen.expanded_matrix(a, vertex)
    x_labels = ["0"] + labels
    depth = rng.randint(1, 2)
    f = gen.values(rng, len(_words(a, depth)))
    if rng.random() < 0.5:       # g = f + coboundary(h): the classes agree
        h = gen.values(rng, len(_words(a, depth)))
        index = {w: i for i, w in enumerate(_words(a, depth))}
        g_depth = depth + 1
        g = tuple(f[index[w[:depth]]] + h[index[w[:depth]]] - h[index[w[1:]]]
                  for w in _words(a, g_depth))
    else:
        g_depth = depth
        g = gen.values(rng, len(_words(a, depth)))
    fx_depth = rng.randint(1, 2)
    fx = gen.values(rng, len(_words(ax, fx_depth)))
    # Ax.mat read back from its file labels its vertices 1..n+1, so the new
    # vertex is "1" and base vertex s becomes s+2
    split = ["transducer A Ax states=1 initial=0"]
    for s in range(n):
        out = str(s + 2) + ("1" if s == vertex else "")
        split.append(f"0 {labels[s]} -> 0 {out}")
    files = {
        "A.mat": _matrix_text(a), "B.mat": _matrix_text(b),
        "Ax.mat": _matrix_text(ax),
        "f.f": _function_text("A", a, labels, depth, f),
        "g.f": _function_text("A", a, labels, g_depth, g),
        "fx.f": _function_text("Ax", ax, x_labels, fx_depth, fx),
        "split.t": "\n".join(split) + "\n",
        "k1.f": _function_text("A", a, labels, 1, [0] * n),
        "l1.f": _function_text("A", a, labels, 1,
                               [2 if s == vertex else 1 for s in range(n)]),
    }
    where.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (where / name).write_text(text, encoding="ascii")
    return {"a": a, "b": b, "vertex": vertex, "label": labels[vertex],
            "files": files}


def _report(stdout: str) -> dict:
    """key -> value of a CLI text report; indented blocks become text."""
    out: dict[str, str] = {}
    key = None
    for line in stdout.splitlines():
        if line.startswith("  ") and key is not None:
            out[key] += ("\n" if out[key] else "") + line[2:]
        else:
            key, _, value = line.partition(":")
            out[key] = value.strip()
    return out


def _check_validate(rep, info) -> str | None:
    return None if rep.get("irreducible") == "yes" else "validate did not accept A"


def _check_invariants(rep, info) -> str | None:
    want = _truth_groups(info["a"])[1]
    got = rep.get("A.bf-group", "")
    factors = tuple(int(part.strip()[2:]) for part in got.split("+")
                    if part.strip().startswith("Z/"))
    return None if factors == tuple(d for d in want if d) else \
        "Bowen-Franks group differs from the independent Smith oracle"


def _pointed(rep, name):
    parts = [p.strip() for p in rep[f"{name}.k0-group"].split("+")]
    factors = tuple(int(p[2:]) for p in parts if p.startswith("Z/"))
    free = sum(1 for p in parts if p == "Z")
    marked = rep[f"{name}.k0-marked"]
    marked = () if marked == "()" else tuple(int(v) for v in marked.split())
    return la.PointedGroup(la.FgAbelianGroup(free, factors), marked)


def _check_coe(rep, info) -> str | None:
    if rep.get("coe") != "yes" or rep.get("iso-witness") in (None, "trivial"):
        return None
    witness = tuple(tuple(int(v) for v in row.split())
                    for row in rep["iso-witness"].splitlines())
    return _iso_witness_error(la.PointedIsoResult("yes", witness),
                              _pointed(rep, "A"), _pointed(rep, "B"))


def _check_class_equal(rep, info) -> str | None:
    p = validate(info["a"])
    f = coh.parse_function_text(info["files"]["f.f"], p)
    g = coh.parse_function_text(info["files"]["g.f"], p)
    diff = coh.subtract(f, g)
    if rep.get("class-equal") == "yes":
        b = coh.parse_function_text(rep["witness"], p)
        return None if _same(coh.coboundary(b), diff) else \
            "coboundary(witness) differs from f - g"
    cycle = p.parse_word(rep.get("cycle", ""))
    total = coh.orbit_sum(diff, cycle)
    if total == 0 or str(total) != rep.get("cycle-orbit-sum"):
        return "printed cycle does not separate the classes"
    return None


def _check_verify(rep, info) -> str | None:
    return None if rep.get("orbit-relation") == "holds" else \
        "split machine of an expansion fails its orbit relation"


def _check_transfer(rep, info) -> str | None:
    p = validate(info["a"])
    e = mv.expand(p, info["vertex"])
    fx = coh.parse_function_text(info["files"]["fx.f"], e.expanded)
    want = coh.format_function_text(mv.psi_xi(e, fx), "A").rstrip("\n")
    return None if rep.get("transfer") == want else "psi-xi output differs from psi_xi"


def _check_selftest(rep, info) -> str | None:
    return None if rep.get("passed") == "10/10" else "selftest reported failures"


COMMANDS = (
    ("validate", ["validate", "A.mat"], _check_validate),
    ("invariants", ["invariants", "A.mat"], _check_invariants),
    ("coe", ["coe", "A.mat", "B.mat"], _check_coe),
    ("cohom class-equal", ["cohom", "class-equal", "A.mat", "f.f", "g.f"],
     _check_class_equal),
    ("transducer verify-coe",
     ["transducer", "verify-coe", "A.mat", "Ax.mat", "split.t", "k1.f", "l1.f"],
     _check_verify),
    ("transfer psi-xi", ["transfer", "psi-xi", "A.mat", "fx.f", "--vertex", "{v}"],
     _check_transfer),
    ("selftest", ["selftest", "--count", "2"], _check_selftest),
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv, cwd: Path, env: dict):
    """Run one process to completion; returns (exit code, stdout, stderr,
    peak resident set size in KiB) with the child's own rusage."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def cli_cold(seed: int, root: Path, prefix=None) -> list[Task]:
    """prefix replaces ``python -m sftlab.cli`` (the traced run passes the
    tracing shim here)."""
    rng = random.Random(f"cli-cold/{seed}")
    src = root / "src"
    env = child_env(src)
    base = root / "perfbench" / "out" / f"cli-cold-{seed}"
    tasks = []
    for r in range(ROUNDS):
        where = base / f"round-{r}"
        info = _round_files(rng, where, 3 + r % 3)
        for name, args, check in COMMANDS:
            tasks.append(_cli_task(name, args, check, info, where, env, prefix))
    return tasks


def _cli_task(name, args, check, info, where, env, prefix):
    def run():
        head = prefix(where) if prefix else [sys.executable, "-m", "sftlab.cli"]
        argv = [info["label"] if a == "{v}" else a for a in args]
        return run_child(head + argv, where, env)

    def checker(r):
        code, out, err, _rss = r
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        return check(_report(out), info)
    return Task(name, run, checker, lambda r: (str(r[0]), r[1]))
