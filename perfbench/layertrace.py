"""Outside-in layer trace: spans and counts at hyswap's module boundaries.

The tracer replaces, for the duration of a traced phase, the public names
that ``hyswap.protocols``, ``hyswap.optics``, ``hyswap.sweep`` and
``hyswap.verification`` import from each other with wrappers that record
a span per call.  Nothing under ``src/`` changes.  A name the program no
longer binds is reported as absent, with a warning, never as a crash or a
zero.  Spans stay in memory until ``dump`` writes them out.

Spans made inside sweep's worker processes stay in those workers; only
the parent's spans are collected.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute) -> span name; the span name's prefix is the layer
WRAPPED = {
    ("protocols", "make_hybrid_pair"): "fock.prep",
    ("protocols", "make_vsp_bell"): "fock.prep",
    ("protocols", "make_coherent"): "fock.prep",
    ("protocols", "make_fock"): "fock.prep",
    ("protocols", "tensor"): "fock.prep",
    ("verification", "make_hybrid_pair"): "fock.prep",
    ("verification", "make_vsp_bell"): "fock.prep",
    ("verification", "make_coherent"): "fock.prep",
    ("verification", "make_fock"): "fock.prep",
    ("verification", "tensor"): "fock.prep",
    ("optics", "reduced_density"): "fock.reduce",
    ("verification", "reduced_density"): "fock.reduce",
    ("protocols", "apply_bs"): "optics.apply_bs",
    ("verification", "apply_bs"): "optics.apply_bs",
    ("protocols", "measure_and_reduce"): "optics.measure",
    ("protocols", "quadrature_amplitudes"): "optics.quadrature",
    ("protocols", "homodyne_grid"): "optics.grid",
    ("sweep", "homodyne_grid"): "optics.grid",
    ("verification", "apply_loss"): "optics.loss",
    ("verification", "apply_loss_dilated"): "optics.loss",
    ("protocols", "negativity"): "negativity",
    ("verification", "negativity"): "negativity",
    ("sweep", "dv_swap"): "protocols.dv",
    ("sweep", "he_swap_spd"): "protocols.he_spd",
    ("sweep", "he_swap_homodyne"): "protocols.he_ho",
    ("verification", "dv_swap"): "protocols.dv",
    ("verification", "he_swap_spd"): "protocols.he_spd",
    ("verification", "he_swap_homodyne"): "protocols.he_ho",
    ("verification", "cv_bsm_failure_prob"): "protocols.cv_bsm",
    ("sweep", "evaluate_point"): "sweep.evaluate_point",
    ("sweep", "run_sweep"): "sweep.run_sweep",
}


class Tracer:
    """Nested spans ``[id, parent, name, start, end]`` plus boundary counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if name == "optics.apply_bs":
                tracer._count_apply_bs(args)
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count_apply_bs(self, args) -> None:
        """Register size and computed work of one splitter application."""
        try:
            state, mode_x, mode_y = args[:3]
            reg = state.register
            n = int(reg.dim)
            d1, d2 = reg.dims[reg.axis(mode_x)], reg.dims[reg.axis(mode_y)]
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.counts["optics.apply_bs_uncounted"] += 1
            return
        if not hasattr(state, "amplitudes"):  # density operators: d^2 entries
            n *= n
        self.counts["optics.apply_bs_amplitudes"] += n
        self.counts["optics.apply_bs_flop"] += 8 * n * d1 * d2
        self.counts["optics.apply_bs_byte"] += 16 * n * 2
        self.counts["fock.amplitudes_max"] = max(self.counts["fock.amplitudes_max"], n)

    def install(self, modules: dict) -> None:
        """Wrap every name in WRAPPED that ``modules`` still binds."""
        for (mod_name, attr), name in WRAPPED.items():
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                label = f"hyswap.{mod_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                    sys.stderr.write(f"warning: trace: {label} is not bound; "
                                     f"its span {name} is absent\n")
                continue
            self._saved.append((mod, attr, fn))
            self.installed.add(name)
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_times(self) -> tuple[dict, Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for sid, parent, _name, start, end in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        total: dict = {}
        calls: Counter = Counter()
        for sid, _parent, name, start, end in self.spans:
            if end is None:
                continue
            total[name] = total.get(name, 0.0) + (end - start) - child[sid]
            calls[name] += 1
        return total, calls

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
