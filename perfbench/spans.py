"""Layer tracing from outside the library.

``Tracer.install`` wraps tnngrass's public functions in spans: it rebinds
each function on its module and on every sibling module that imported it
by name, and patches the ``RationalMatrix`` operators on the class.  Spans
live in memory as ``[name, parent, start_ns, end_ns]`` and are reduced to
per-layer metrics once the traced block ends.  A layer's ``self_s`` is its
span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from math import comb

# (module, attribute, layer) for functions rebound wherever they are bound
FUNCTIONS = [
    ("exact_linalg", "all_maximal_minors", "exact_linalg.all_maximal_minors"),
    ("exact_linalg", "subsets_colex", "exact_linalg.subsets_colex"),
    ("exact_linalg", "outer_product", "exact_linalg.elementwise"),
    ("exact_linalg", "det", "exact_linalg.det"),
    ("exact_linalg", "rank", "exact_linalg.rank"),
    ("exact_linalg", "kernel_basis", "exact_linalg.kernel_basis"),
    ("exact_linalg", "solve_for_left_factor", "exact_linalg.solve_for_left_factor"),
    ("exact_linalg", "invert", "exact_linalg.invert"),
    ("tnn_grassmannian", "in_closed_cell", "tnn_grassmannian.in_closed_cell"),
    ("tnn_grassmannian", "check_tnn", "tnn_grassmannian.check_tnn"),
    ("fiber", "sample_fiber_partner", "fiber.sample_fiber_partner"),
    ("fiber", "convexity_certificate", "fiber.convexity_certificate"),
    ("amplituhedron_map", "build_setup", "amplituhedron_map.build_setup"),
    ("amplituhedron_map", "build_z0", "amplituhedron_map.build_z0"),
    ("amplituhedron_map", "hat_map", "amplituhedron_map.hat_map"),
    ("equivalence", "construct_equivalence", "equivalence.construct_equivalence"),
    ("equivalence", "equivalence_transport_check", "equivalence.equivalence_transport_check"),
    ("embeddings", "pluecker", "embeddings.pluecker"),
    ("embeddings", "veronese", "embeddings.veronese"),
    ("cli", "write_json", "cli.json_out"),
    ("cli", "load_json", "cli.json_in"),
    ("cli", "cmd_report", "cli.report"),
]

# RationalMatrix methods, patched on the class.  The constructor is only
# counted: it consumes the lazy generators of @, + and outer_product, so a
# span there would take their time.
METHODS = [
    ("__matmul__", "exact_linalg.matmul"),
    ("__add__", "exact_linalg.elementwise"),
    ("__sub__", "exact_linalg.elementwise"),
    ("__neg__", "exact_linalg.elementwise"),
    ("scale", "exact_linalg.elementwise"),
]

CLASSMETHODS = [("tnn_grassmannian", "TNNPoint", "from_matrix", "tnn_grassmannian.TNNPoint.from_matrix")]

LAYERS = sorted({layer for *_, layer in FUNCTIONS + METHODS + CLASSMETHODS})


def _entry_bits(matrix) -> int:
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for row in matrix.row_tuples()
        for x in row
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {
            "exact_linalg.all_maximal_minors.subsets": 0,
            "exact_linalg.matmul.mults": 0,
            "exact_linalg.matrix_new.calls": 0,
            "exact_linalg.max_entry_bits": 0,
            "cli.json_out.bytes": 0,
            "amplituhedron_map.z0_attempts": 0,
        }
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks that count work at the layer boundary -----------------------

    def _minor_table(self, args) -> None:
        m = args[0]
        self.counts["exact_linalg.all_maximal_minors.subsets"] += comb(m.cols, m.rows)
        self._det(args)

    def _det(self, args) -> None:
        bits = _entry_bits(args[0])
        if bits > self.counts["exact_linalg.max_entry_bits"]:
            self.counts["exact_linalg.max_entry_bits"] = bits

    def _matmul(self, args) -> None:
        a, b = args[0], args[1]
        self.counts["exact_linalg.matmul.mults"] += a.rows * a.cols * b.cols

    def _json_out(self, args) -> None:
        self.counts["cli.json_out.bytes"] += os.path.getsize(args[0])

    # -- wrapping ----------------------------------------------------------

    def _span(self, layer, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [layer, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if after is not None:
                    after(args)

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "tnngrass"]
        hooks = {
            "exact_linalg.all_maximal_minors": (self._minor_table, None),
            "exact_linalg.det": (self._det, None),
            "exact_linalg.matmul": (self._matmul, None),
            "cli.json_out": (None, self._json_out),
        }
        for module, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[f"tnngrass.{module}"], attr)
            wrapped = self._span(layer, original, *hooks.get(layer, (None, None)))
            for mod in package:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)

        linalg = sys.modules["tnngrass.exact_linalg"]
        matrix_cls = linalg.RationalMatrix
        for attr, layer in METHODS:
            original = matrix_cls.__dict__[attr]
            self._set(matrix_cls, attr, self._span(layer, original, *hooks.get(layer, (None, None))))
        for module, cls_name, attr, layer in CLASSMETHODS:
            cls = getattr(sys.modules[f"tnngrass.{module}"], cls_name)
            self._set(cls, attr, classmethod(self._span(layer, cls.__dict__[attr].__func__)))

        counts = self.counts
        init = matrix_cls.__init__

        def counted_init(matrix, rows):
            counts["exact_linalg.matrix_new.calls"] += 1
            init(matrix, rows)

        self._set(matrix_cls, "__init__", counted_init)

        amp = sys.modules["tnngrass.amplituhedron_map"]
        trig_rows = amp._trig_rows

        def counted_trig_rows(*args):
            counts["amplituhedron_map.z0_attempts"] += 1
            return trig_rows(*args)

        self._set(amp, "_trig_rows", counted_trig_rows)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per layer (every layer present, zero if unused)."""
        child_ns = [0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for index, (layer, _, start, end) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[index]
        return calls, {layer: ns / 1e9 for layer, ns in self_ns.items()}
