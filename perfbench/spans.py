"""Span recording around the public functions of pointideals' modules.

A Tracer replaces each traced function, in every pointideals module
namespace that holds it, with a wrapper that records a span: (name, start,
end, parent span index, operation id).  Wrapping every namespace matters
because `projective` and `affine` import `normal_form` and friends by name,
while `linalg` is reached through the module attribute.  Functions that a
given version of the package lacks are skipped; their metrics read 0.

Spans nest strictly (one thread, one call stack), so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from time import perf_counter

# affine_certify has no metric of its own; it is traced so that its
# normal_form calls are not charged to its caller.
TRACED = [
    "linalg.solve",
    "linalg.rank",
    "poly.normal_form",
    "poly.s_polynomial",
    "poly.evaluate",
    "poly.buchberger",
    "affine.buchberger_moeller",
    "affine.canonical_element",
    "projective.cone_basis",
    "projective.merge",
    "projective.lift_infinite_part",
    "projective.certify",
    "projective.affine_certify",
    "projective.hilbert_function",
    "projective.projective_gb",
    "io.parse_points",
    "io.parse_basis",
    "io.basis_doc",
    "io.dumps",
    "render.render_staircase",
]

# Callers of normal_form named in the per-layer breakdown; any other caller
# is counted under "other".
NF_PARENTS = ("certify", "merge", "canonical_element")
# Children of certify and the certify part each is charged to.
CERTIFY_PARTS = {
    "poly.evaluate": "vanishing_s",
    "poly.s_polynomial": "spairs_s",
    "poly.normal_form": "spairs_s",
    "projective.hilbert_function": "hilbert_s",
}

# Per-layer metrics: name -> unit.  Times and counts are per traced pass
# over round 0 of the workload.
METRICS = {
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.cells": "count",
    "linalg.solve.max_rows": "count",
    "linalg.solve.max_cols": "count",
    "linalg.solve.consistent_frac": "ratio",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.cells": "count",
    "poly.normal_form.calls": "count",
    "poly.normal_form.self_s": "s",
    **{
        "poly.normal_form.%s.%s" % (p, k): u
        for p in NF_PARENTS + ("other",)
        for k, u in (("calls", "count"), ("self_s", "s"))
    },
    "poly.s_polynomial.calls": "count",
    "poly.evaluate.calls": "count",
    "poly.evaluate.self_s": "s",
    "poly.buchberger.self_s": "s",
    "affine.buchberger_moeller.calls": "count",
    "affine.buchberger_moeller.self_s": "s",
    "affine.canonical_element.calls": "count",
    "affine.canonical_element.total_s": "s",
    "projective.cone_basis.calls": "count",
    "projective.cone_basis.self_s": "s",
    "projective.cone_basis.total_s": "s",
    "projective.merge.calls": "count",
    "projective.merge.self_s": "s",
    "projective.merge.total_s": "s",
    "projective.lift_infinite_part.calls": "count",
    "projective.certify.calls": "count",
    "projective.certify.total_s": "s",
    "certify.vanishing_s": "s",
    "certify.spairs_s": "s",
    "certify.hilbert_s": "s",
    "certify.self_s": "s",
    "certify.spairs": "count",
    "certify.coprime_pairs": "count",
    "projective.hilbert_function.calls": "count",
    "projective.hilbert_function.total_s": "s",
    "projective.projective_gb.total_s": "s",
    "io.parse_points.self_s": "s",
    "io.parse_basis.self_s": "s",
    "io.basis_doc.self_s": "s",
    "io.dumps.self_s": "s",
    "render.render_staircase.self_s": "s",
    "cli.main.total_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


def program_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "pointideals" or name.startswith("pointideals.")]


def _shape(matrix):
    return getattr(matrix, "rows", 0), getattr(matrix, "cols", 0)


def _coprime_pairs(gb):
    leads = [g.leading("deglex")[0] for g in gb.elements if g.terms]
    return sum(
        1
        for i in range(len(leads))
        for j in range(i + 1, len(leads))
        if not any(x and y for x, y in zip(leads[i], leads[j]))
    )


class Tracer:
    """Records spans while `recording` is set; otherwise the wrappers only
    forward the call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.recording = False
        self.counts = {}
        self._installed = []

    def _note(self, name, args, result, span_index):
        if name == "linalg.solve" or name == "linalg.rank":
            rows, cols = _shape(args[0])
            add(self.counts, name + ".cells", rows * cols)
            if name == "linalg.solve":
                add(self.counts, "linalg.solve.consistent", result is not None)
                if rows * cols > self.counts.get("linalg.solve.max_cells", -1):
                    self.counts["linalg.solve.max_cells"] = rows * cols
                    self.counts["linalg.solve.max_rows"] = rows
                    self.counts["linalg.solve.max_cols"] = cols
        elif name == "projective.certify":
            # the S-pair stage ran iff an s_polynomial span is a child
            if any(s[0] == "poly.s_polynomial" and s[3] == span_index for s in self.spans[span_index + 1 :]):
                add(self.counts, "certify.coprime_pairs", _coprime_pairs(args[0]))

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer._note(name, args, result, index)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every loaded pointideals module."""
        modules = program_modules()
        by_name = {m.__name__.split(".")[-1]: m for m in modules}
        for name in TRACED:
            mod_name, attr = name.split(".")
            fn = getattr(by_name.get(mod_name), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._installed):
            setattr(m, key, fn)
        self._installed = []

    def call(self, name, fn, *args):
        """Run fn(*args) as a top-level recorded span."""
        return self.wrap(name, fn)(*args)

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def raw(self):
        """Sums over the recorded spans, in a form that adds across
        processes (see merge_raw)."""
        raw = dict(self.counts)
        names = [s[0] for s in self.spans]
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total = end - start
            self_s = total - child_s[i]
            caller = names[parent].split(".")[-1] if parent is not None else None
            add(raw, name + ".calls", 1)
            add(raw, name + ".total_s", total)
            add(raw, name + ".self_s", self_s)
            if name == "poly.normal_form":
                group = caller if caller in NF_PARENTS else "other"
                add(raw, "poly.normal_form.%s.calls" % group, 1)
                add(raw, "poly.normal_form.%s.self_s" % group, self_s)
            if caller == "certify":
                part = CERTIFY_PARTS.get(name)
                if part is not None:
                    add(raw, "certify." + part, total)
                if name == "poly.s_polynomial":
                    add(raw, "certify.spairs", 1)
        return raw


def add(raw, key, value):
    raw[key] = raw.get(key, 0) + value


def merge_raw(into, raw):
    """Add one pass's raw sums into another; the largest solve matrix is
    kept by cell count."""
    for key, value in raw.items():
        if key.startswith("linalg.solve.max_"):
            continue
        add(into, key, value)
    if raw.get("linalg.solve.max_cells", -1) > into.get("linalg.solve.max_cells", -1):
        for k in ("max_cells", "max_rows", "max_cols"):
            into["linalg.solve." + k] = raw["linalg.solve." + k]
    return into


def finish(raw):
    """Per-layer metric values from raw sums (cli and trace entries are
    filled in by the caller)."""
    values = {name: raw.get(name, 0) for name in METRICS}
    calls = raw.get("linalg.solve.calls", 0)
    values["linalg.solve.consistent_frac"] = raw.get("linalg.solve.consistent", 0) / calls if calls else 0.0
    # the remainder, so that the four certify parts add up to its total
    values["certify.self_s"] = raw.get("projective.certify.total_s", 0) - sum(
        raw.get("certify." + part, 0) for part in set(CERTIFY_PARTS.values())
    )
    return values
