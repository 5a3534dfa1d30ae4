"""Outside-in layer tracing of sftlab, with nothing under ``src/`` edited.

``Tracer.install`` wraps every public function of the eight layer modules
and every public method of the classes they define (properties are left
alone).  A wrapped function is rebound in every ``sftlab`` module namespace
that holds it, so calls from one layer into another are timed too.

Each call is a span: name, start, end, parent span and task id.  Every
span is kept in memory (48 bytes each) and written out by ``dump``.  Self
time, a span's duration minus the time its child spans cover, is summed per
layer while the run goes, apart for task spans and set-up spans (task id
-1).  Post-call hooks count the work quantities the per-layer metrics need.

Run as a script, this module is the shim the traced cli-cold run uses in
place of ``python -m sftlab.cli``:

    python perfbench/layertrace.py SUMMARY.json CLI-ARGS...
"""
from __future__ import annotations

import inspect
import json
import math
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("shifts", "linalg", "cohomology", "actions", "transducers", "moves",
          "classify", "cli")
WORD_CACHE = 256          # maxsize of sftlab.shifts._word_list's lru_cache
TRANSFERS = ("phi", "psi", "psi_xi", "psi_eta")
DECISIONS = ("class_is_zero", "class_is_nonnegative", "order_unit_check")


def _decade(n: int) -> str:
    return f"1e{int(math.log10(n))}" if n > 0 else "0"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.setup_self_s = [0.0] * len(LAYERS)
        self.times = array("d")            # start, end per span
        self.links = array("q")            # span id, name id, parent, task
        self.spans_total = 0
        self.task = -1
        self.counters: Counter = Counter()
        self.table_keys: set = set()
        self.machine_states: Counter = Counter()
        self.groups: Counter = Counter()
        self._stack: list[list] = []       # [child time, span id, name id]
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        import importlib
        mods = {name: importlib.import_module(f"sftlab.{name}") for name in LAYERS}
        hooks = self._hooks()
        replaced: dict = {}
        for li, (layer, mod) in enumerate(mods.items()):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and obj not in replaced:        # aliases share one
                    replaced[obj] = self._wrap(obj, li, f"{layer}.{name}",
                                               hooks.get(f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        self._undo.append((obj, attr, fn))
                        setattr(obj, attr, self._wrap(fn, li, qual, hooks.get(qual)))
        for modname, mod in list(sys.modules.items()):
            if modname != "sftlab" and not modname.startswith("sftlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replaced[obj])

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def _wrap(self, fn, layer: int, qual: str, hook):
        nid = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, setup_self = self.calls, self.self_s, self.setup_self_s
        times, links = self.times, self.links
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.spans_total
            tracer.spans_total = sid + 1
            frame = [0.0, sid, nid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = -1
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                calls[nid] += 1
                if tracer.task >= 0:
                    self_s[nid] += dur - frame[0]
                else:
                    setup_self[layer] += dur - frame[0]
                times.append(t0)
                times.append(t1)
                links.extend((sid, nid, parent, tracer.task))
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --------------------------------------------------------------- hooks

    def _hooks(self) -> dict:
        c = self.counters

        def words(args, result):
            c["shifts.max_table_words"] = max(c["shifts.max_table_words"], len(result))
            self.table_keys.add((args[0], args[1]))

        def graph(args, result):
            c["cohomology.graph_edges"] += len(result.edge_words)

        def verify(args, result):
            c["transducers.points_checked"] += result.points_checked

        def machine(args, result):
            c["transducers.machine_states"] += result.n_states

        def built(args, result):
            self.machine_states[_decade(result.n_states)] += 1

        def sse(args, result):
            c["moves.sse_attempts"] += result.attempts
            c["moves.sse_nodes"] += result.nodes_explored

        iso_id = []

        def pointed(args, result):
            """Counts outermost decisions only: the mixed case recurses."""
            if not iso_id:
                iso_id.append(self.names.index("linalg.pointed_iso"))
            if any(frame[2] == iso_id[0] for frame in self._stack):
                return
            if result.verdict == "undecided":
                c["linalg.undecided"] += 1
            g = args[0].group
            if g.free_rank:
                shape = "mixed" if g.invariant_factors else "free"
            elif len(g.invariant_factors) > 1:
                shape = "multi-factor finite"
            else:
                shape = "cyclic" if g.invariant_factors else "trivial"
            self.groups[shape] += 1

        return {"shifts.words": words, "cohomology.potential_graph": graph,
                "transducers.verify_orbit_relation": verify,
                "transducers.compose": machine,
                "transducers.shifted_image": machine,
                "transducers.make_transducer": built,
                "moves.sse_search": sse, "linalg.pointed_iso": pointed}

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        """Per-layer self time and calls, counters and input profile, as
        plain data that merges by addition (see ``merge``)."""
        by_name = {q: self.calls[i] for i, q in enumerate(self.names) if self.calls[i]}
        layer_self = [0.0] * len(LAYERS)
        layer_calls = [0] * len(LAYERS)
        for i, li in enumerate(self.layer_of):
            layer_self[li] += self.self_s[i]
            layer_calls[li] += self.calls[i]
        counts = dict(self.counters)
        counts["shifts.count_words_calls"] = by_name.get("shifts.count_words", 0)
        counts["shifts.points_built"] = by_name.get("shifts.periodic_point", 0)
        counts["cohomology.decisions"] = sum(by_name.get(f"cohomology.{d}", 0)
                                             for d in DECISIONS)
        counts["transducers.apply_calls"] = by_name.get("transducers.apply", 0)
        counts["moves.transfer_calls"] = sum(by_name.get(f"moves.{t}", 0)
                                             for t in TRANSFERS)
        counts["linalg.smith_calls"] = by_name.get("linalg.smith", 0)
        counts["linalg.pointed_iso_calls"] = by_name.get("linalg.pointed_iso", 0)
        counts["classify.verdicts"] = by_name.get("classify.flow_equivalent", 0) + \
            by_name.get("classify.coe_verdict", 0)
        from sftlab.shifts import count_words
        count_words = getattr(count_words, "__wrapped__", count_words)
        sizes = Counter(_decade(count_words(p, k)) for p, k in self.table_keys)
        top = sorted(range(len(self.names)), key=lambda i: -self.self_s[i])[:12]
        return {
            "layer_self_s": dict(zip(LAYERS, layer_self)),
            "layer_calls": dict(zip(LAYERS, layer_calls)),
            "setup_self_s": dict(zip(LAYERS, self.setup_self_s)),
            "counts": counts,
            "processes": 1,
            "table_keys": len(self.table_keys),
            "table_sizes": dict(sizes),
            "machine_states": dict(self.machine_states),
            "groups": dict(self.groups),
            "spans": self.spans_total,
            "top_self_s": {self.names[i]: self.self_s[i] for i in top
                           if self.self_s[i] > 0},
        }

    def dump(self, path, seed=None) -> None:
        """Write every span: a JSON header line with the span-name table,
        then the raw arrays (start/end doubles; id/name/parent/task int64)."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "layers": [LAYERS[i] for i in self.layer_of],
                    "spans": self.spans_total, "seed": seed}
            fh.write(json.dumps(head).encode() + b"\n")
            self.times.tofile(fh)
            self.links.tofile(fh)


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (the cli-cold run merges its children)."""
    if not total:
        return json.loads(json.dumps(part))
    for key, value in part.items():
        if isinstance(value, dict):
            dest = total.setdefault(key, {})
            for k, v in value.items():
                if key == "counts" and k == "shifts.max_table_words":
                    dest[k] = max(dest.get(k, 0), v)
                else:
                    dest[k] = dest.get(k, 0) + v
        else:
            total[key] = total.get(key, 0) + value
    return total


def _child_main(argv: list[str]) -> int:
    """Traced ``python -m sftlab.cli``: one task span around cli.run."""
    out_path, cli_args = argv[0], argv[1:]
    import sftlab.cli                  # imported before wrapping, as a user would
    tracer = Tracer()
    tracer.install()
    tracer.task = 0
    try:
        code = sftlab.cli.run(cli_args)
    finally:
        tracer.task = -1
        tracer.uninstall()
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(out_path + ".spans")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
