"""Span recorder that traces charvar from outside the package.

`Tracer.install()` wraps every public function of every charvar module.
Callers find these functions through module globals, so each wrapper is
set in the defining module and in every module that imported the
function by name.  Calls that go through a private table, such as the
pipeline's embedding dispatch, are not seen; their time stays in the
caller's self time.  `numpy.linalg.svd` and the CLI's `json.dumps` are
wrapped too.

A span is `[name, layer, group, start, end, parent, op]`.  Spans stay in
memory; `summarize()` turns them into per-layer metrics and `dump()`
writes them out.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import statistics
import sys
import time
import types

LAYERS = ("presentation", "reps", "coeffmodules", "cohomology", "linalg", "classifier", "pipeline", "cli")

# "layer.function" -> metric group.  A group's call count skips spans whose
# parent is in the same group, so a builder that dispatches to another
# builder counts once.
GROUPS = {
    "reps.build_representation": "reps.build",
    "reps.triangle_group": "reps.build",
    "reps.polygon_group": "reps.build",
    "reps.half_mirrored_disc": "reps.build",
    "reps.burnside_irreducible": "reps.burnside",
    "coeffmodules.decompose_sl": "coeffmodules.decompose",
    "cohomology.cohomology_report": "cohomology.table",
    "cohomology.h_dims": "cohomology.h_dims",
    "cohomology.twisted_euler": "cohomology.twisted_euler",
    "cohomology.h1_basis": "cohomology.h1_basis",
    "cohomology.pair_fundamental_class": "cohomology.pairing",
    "cohomology.goldman_obstruction": "cohomology.obstruction",
    "cohomology.fundamental_pairing_matrix": "cohomology.pairing_matrix",
    "cohomology.cup": "cohomology.cup",
    "cohomology.weil_slope": "cohomology.weil",
    "linalg.rank_report": "linalg.rank",
    "linalg.kernel_basis": "linalg.rank",
    "linalg.image_basis": "linalg.rank",
    "linalg.svd": "linalg.svd",
    "pipeline.report_to_json": "cli.serialize",
    "cli.dumps": "cli.serialize",
    "cli.main": "cli.main",
    "cli.import": "cli.import",
}

# groups reported with both a call count and a self time
TIMED_GROUPS = (
    "reps.build",
    "reps.burnside",
    "coeffmodules.decompose",
    "cohomology.table",
    "cohomology.h_dims",
    "cohomology.twisted_euler",
    "cohomology.h1_basis",
    "cohomology.pairing",
    "cohomology.obstruction",
    "cohomology.pairing_matrix",
    "cohomology.weil",
    "linalg.svd",
    "linalg.rank",
)


def _build_note(args, result):
    info = getattr(result, "build_info", None) or {}
    return [int(info.get("nfev", 0)), int(info.get("tries", 0))]


def _module_note(args, result):
    # identifies a coefficient block by label and action matrices
    m = args[1]
    digest = hashlib.sha1(b"".join(a.tobytes() for a in m.action)).hexdigest()
    return [m.label, digest]


def _svd_note(args, result):
    shape = getattr(args[0], "shape", ())
    return list(shape[-2:]) if len(shape) >= 2 else [0, 0]


NOTES = {
    "reps.build": _build_note,
    "cohomology.h1_basis": _module_note,
    "linalg.svd": _svd_note,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, list] = {}
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        group = GROUPS.get(name)
        note = NOTES.get(group)
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, group, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def begin(self, name: str, layer: str) -> int:
        """Open a span by hand and return its index; close it with end()."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, GROUPS.get(name), time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list, notes: dict, parent: int, op):
        """Append spans recorded by another process (whose clock is the
        same system-wide monotonic clock) under the span at `parent`."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[5] = parent if s[5] < 0 else s[5] + base
            s[6] = op
            self.spans.append(s)
        for k, v in notes.items():
            self.notes[int(k) + base] = v

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy as np

        modules = [m for n, m in list(sys.modules.items()) if n == "charvar" or n.startswith("charvar.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self._patch(np.linalg, "svd", self._wrap(np.linalg.svd, "linalg.svd", "linalg"))
        cli = sys.modules.get("charvar.cli")
        if cli is not None:
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            proxy.dumps = self._wrap(json.dumps, "cli.dumps", "cli")
            self._patch(cli, "json", proxy)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "group", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "notes": self.notes,
                },
                fh,
                separators=(",", ":"),
            )


def summarize(spans: list, notes: dict, import_s: list[float]) -> dict[str, float]:
    """Per-layer metrics over the spans that belong to an op.  `import_s`
    holds import times measured outside any op; `cli.import_s` is the
    median import time per process."""
    import_s = list(import_s)
    covered = [0.0] * len(spans)
    for s in spans:
        if s[5] >= 0:
            covered[s[5]] += s[4] - s[3]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    op_wall = op_self = serialize_s = 0.0
    ops = set()
    nfev = tries = 0
    h1_seen, h1_repeats, h1_total = set(), 0, 0
    svd_rows = svd_cols = 0
    for i, (name, layer, group, start, end, parent, op) in enumerate(spans):
        if op is None:
            continue
        own = end - start - covered[i]
        if name == "op":
            ops.add(op)
            op_wall += end - start
            op_self += own
            continue
        up = spans[parent] if parent >= 0 else None
        self_s[layer] = self_s.get(layer, 0.0) + own
        if up is None or up[1] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if group is None:
            continue
        self_s[group] = self_s.get(group, 0.0) + own
        if up is not None and up[2] == group:
            continue
        calls[group] = calls.get(group, 0) + 1
        note = notes.get(i)
        if group == "cli.import":
            import_s.append(end - start)
        elif group == "cli.serialize":
            serialize_s += end - start
        elif group == "reps.build":
            nfev += note[0]
            tries += note[1]
        elif group == "cohomology.h1_basis":
            h1_total += 1
            key = (op, *note)
            h1_repeats += key in h1_seen
            h1_seen.add(key)
        elif group == "linalg.svd":
            svd_rows = max(svd_rows, note[0])
            svd_cols = max(svd_cols, note[1])

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for group in TIMED_GROUPS:
        out[f"{group}_calls"] = calls.get(group, 0)
        out[f"{group}_self_s"] = self_s.get(group, 0.0)
    out["cohomology.cup_calls"] = calls.get("cohomology.cup", 0)
    out["reps.build_nfev"] = nfev
    out["reps.build_tries"] = tries
    out["cohomology.h1_basis_repeat_share"] = h1_repeats / h1_total if h1_total else 0.0
    out["linalg.svd_max_rows"] = svd_rows
    out["linalg.svd_max_cols"] = svd_cols
    out["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    out["cli.main_self_s"] = self_s.get("cli.main", 0.0)
    out["cli.serialize_s"] = serialize_s
    out["trace.ops"] = len(ops)
    out["trace.spans"] = sum(1 for s in spans if s[6] is not None and s[0] != "op")
    out["trace.op_wall_s"] = op_wall
    out["trace.uncovered_share"] = op_self / op_wall if op_wall else 0.0
    return out
