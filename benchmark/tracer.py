"""Layer spans and counters for a traced benchmark pass, recorded from outside.

The library has no tracing hooks, so each layer is timed by rebinding the
module attributes through which the layers call each other.  A function
copied into another module with ``from ... import`` is a separate
attribute there; ``Tracer.install`` rebinds every liecheck module attribute
that refers to the original, or the wrapper would never see those calls.
Wrappers around ``lru_cache``d functions count cache hits as calls.

Spans stay in memory (up to ``SPAN_CAP`` of them; the aggregates are always
complete) and are written out by the caller when the run ends.
"""

import sys
import time
from fractions import Fraction
from itertools import repeat

SPAN_CAP = 20000

# (span name, defining module, attribute, kind).  kind "call" records one
# span per call, "gen" one span per resumption of a generator and counts
# the items it yields, "seq" counts the items of the returned tuple.
LAYERS = (
    ("exact.rank", "liecheck._exact", "rank", "call"),
    ("matrixoracle.element", "liecheck.matrixoracle", "element", "call"),
    ("matrixoracle.matrix_fixed_dims", "liecheck.matrixoracle", "matrix_fixed_dims", "call"),
    ("matrixoracle.from_signature", "liecheck.matrixoracle", "from_signature", "call"),
    ("centralizers.enumerate_signatures", "liecheck.centralizers", "enumerate_signatures", "gen"),
    ("centralizers.signature_dim", "liecheck.centralizers", "signature_dim", "call"),
    ("centralizers.oracle_max", "liecheck.centralizers", "oracle_max", "call"),
    ("involutions.isotropy_entries", "liecheck.involutions", "isotropy_entries", "seq"),
    ("involutions.instantiations", "liecheck.involutions", "instantiations", "seq"),
    ("algebras.render", "liecheck.algebras", "render", "call"),
    ("algebras.reductive_dims", "liecheck.algebras", "reductive_dims", "call"),
    ("algebras.iter_noncompact_simple", "liecheck.algebras", "iter_noncompact_simple", "gen"),
    ("verify.verify_case", "liecheck.verify", "verify_case", "call"),
    ("verify.sweep", "liecheck.verify", "sweep", "call"),
    ("verify.check_semisimple", "liecheck.verify", "check_semisimple", "call"),
    ("verify.case_payload", "liecheck.verify", "case_payload", "call"),
    ("cli.export_payload", "liecheck.cli", "export_payload", "call"),
)

# the counter each "gen" / "seq" layer fills
_ITEM_COUNTER = {
    "centralizers.enumerate_signatures": "centralizers.enumerate_signatures.yielded",
    "algebras.iter_noncompact_simple": "algebras.iter_noncompact_simple.yielded",
    "involutions.isotropy_entries": "involutions.isotropy_entries.rows",
    "involutions.instantiations": "involutions.instantiations.yielded",
}

CLI_VERBS = ("info", "involutions", "oracle", "verify", "vcd", "export")


class Tracer:
    """Span stack, per-layer aggregates and counters for one process."""

    def __init__(self):
        self.stack = []  # open spans: [name, span_id, start, time covered by children]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.under = {}  # (name, parent name) -> total_s
        self.counts = {}
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.dropped = 0
        self._next_id = 1
        self._patched = []  # (namespace dict, key, original)

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        name, span_id, start, covered = self.stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
            key = (name, parent[0])
            self.under[key] = self.under.get(key, 0.0) + dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[1] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _count_matrix(self, rows):
        """Shape counters of one rank() argument, taken outside its span."""
        cells = nonzeros = fractions = 0
        for row in rows:
            cells += len(row)
            nonzeros += len(row) - row.count(0)
            fractions += sum(map(isinstance, row, repeat(Fraction)))
        self.count("exact.rank.rows", len(rows))
        self.count("exact.rank.cells", cells)
        self.count("exact.rank.nonzeros", nonzeros)
        self.count("exact.rank.fraction_cells", fractions)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, kind, fn):
        enter, exit_ = self._enter, self._exit
        if kind == "gen":
            counter = _ITEM_COUNTER[name]
            count = self.count

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    count(counter)
                    yield item

            return gen_wrapper

        before = self._count_matrix if name == "exact.rank" else None
        counter = _ITEM_COUNTER.get(name)
        count = self.count

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args[0])
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if counter is not None:
                count(counter, len(result))
            return result

        return wrapper

    def install(self):
        """Rebind every traced layer in every loaded liecheck module."""
        mods = [m for n, m in sys.modules.items() if n == "liecheck" or n.startswith("liecheck.")]
        for name, modname, attr, kind in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, kind, original)
            for m in mods:
                ns = vars(m)
                for key in [k for k, v in ns.items() if v is original]:
                    self._patched.append((ns, key, original))
                    ns[key] = wrapper
        cli = sys.modules.get("liecheck.cli")
        if cli is not None:
            dispatch = cli._DISPATCH
            for verb, original in list(dispatch.items()):
                self._patched.append((dispatch, verb, original))
                dispatch[verb] = self._wrap("cli.main." + verb, "call", original)

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    # -- results -------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metric values of everything recorded so far."""
        def stat(name, i):
            return self.stats.get(name, (0, 0.0, 0.0))[i]

        out = {}
        for name, *_ in LAYERS:
            out[name + ".calls"] = stat(name, 0)
            out[name + ".self_s"] = stat(name, 2)
        for counter in _ITEM_COUNTER.values():
            out[counter] = self.counts.get(counter, 0)
        for verb in CLI_VERBS:
            out["cli.main.%s.calls" % verb] = stat("cli.main." + verb, 0)
            out["cli.main.%s.self_s" % verb] = stat("cli.main." + verb, 2)
        for key in ("rows", "cells", "nonzeros", "fraction_cells"):
            out["exact.rank." + key] = self.counts.get("exact.rank." + key, 0)
        out["exact.rank.under_element_s"] = self.under.get(("exact.rank", "matrixoracle.element"), 0.0)
        out["exact.rank.under_fixed_dims_s"] = self.under.get(
            ("exact.rank", "matrixoracle.matrix_fixed_dims"), 0.0
        )
        return out

    def dump(self):
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "under": [{"span": k[0], "parent": k[1], "total_s": v} for k, v in self.under.items()],
            "counts": dict(self.counts),
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
            "spans_dropped": self.dropped,
        }
