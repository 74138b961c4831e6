"""Span tracing of poincare_cgc from outside the library.

A :class:`Tracer` replaces each traced library function with a wrapper at
every binding the package holds: the defining module, every module that
imported it with ``from .x import f``, the package namespace and
module-level dispatch dicts (``lorentz._BOOSTS``). Library code is not
edited; uninstalling puts the original objects back.

Each wrapped call records a span (name, start, end, parent). Spans stay
in memory and are written out once at the end of the run. A span's self
time is its duration minus the time covered by its child spans. Functions
whose call is about as cheap as the span itself (``HalfInt.of``,
``components``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import poincare_cgc
from poincare_cgc import cgc, cli, halfint, lorentz, reference_tables, states, su2, verify

MODULES = (poincare_cgc, halfint, lorentz, su2, cgc, states, reference_tables, verify, cli)

# (layer module, function name) pairs that get a span per call.
SPANNED = (
    (lorentz, "canonical_boost"),
    (lorentz, "helicity_boost"),
    (lorentz, "wigner_rotation"),
    (lorentz, "spinor_to_lorentz"),
    (lorentz, "apply_lorentz"),
    (su2, "wigner_d_small"),
    (su2, "rep_matrix"),
    (su2, "su2_cgc"),
    (su2, "spherical_harmonic"),
    (cgc, "spin_orbit_com_table"),
    (cgc, "helicity_com_table"),
    # helicity_com_scalar is spanned so that wigner_d_small calls made on
    # its behalf, which read one entry per angle, can be told apart.
    (cgc, "helicity_com_scalar"),
    (cgc, "spin_orbit_general_table"),
    (cgc, "helicity_general_table"),
    (states, "all_basis_states"),
    (states, "gram_matrix"),
    (states, "decompose_product_state"),
    (states, "reconstruct"),
    (states, "apply_rotation"),
    (states, "state_to_json"),
    (states, "state_from_json"),
    (states, "convert_slots_to_canonical"),
    (verify, "run"),
    (cli, "cmd_table"),
    (cli, "cmd_decompose"),
    (cli, "cmd_verify"),
)

# inner_product is counted, not spanned, so that gram_matrix's self time
# keeps the pairwise products it is made of.
COUNTED = ((halfint, "components"), (cgc, "coupling_channels"), (states, "inner_product"))


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _array_key(x):
    """Hashable identity of an argument; arrays are keyed by content."""
    if isinstance(x, np.ndarray) and x.ndim > 0:
        digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16)
        return (x.shape, x.dtype.str, digest.hexdigest())
    return float(np.asarray(x, dtype=float))


class Tracer:
    """Collects spans and counters while installed and active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds]
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.values = Counter()  # summed per-call quantities, e.g. bytes
        self.active = False
        self._stack = []
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        for module, name in SPANNED:
            self._rebind(getattr(module, name), self._spanning(f"{_layer(module)}.{name}"))
        for module, name in COUNTED:
            self._rebind(getattr(module, name), self._counting(f"{_layer(module)}.{name}"))
        of = halfint.HalfInt.__dict__["of"]
        counted_of = self._counting("halfint.HalfInt.of")(of.__func__)
        halfint.HalfInt.of = classmethod(counted_of)
        self._restore.append(lambda: setattr(halfint.HalfInt, "of", of))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _rebind(self, original, make_wrapper):
        wrapper = make_wrapper(original)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(lambda m=module, a=attr: setattr(m, a, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._restore.append(
                                lambda d=value, k=key: d.__setitem__(k, original)
                            )

    @contextlib.contextmanager
    def recording(self):
        """Record while the block runs; library calls outside it are not traced."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for a block, e.g. a correctness check."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers -----------------------------------------------------

    def _counting(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _spanning(self, name):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.active or (self._stack and self.spans[self._stack[-1]][0] == name):
                    # untraced, or a recursive call folded into its caller's span
                    return fn(*args, **kwargs)
                label = name
                if name == "states.apply_rotation":
                    label += ".loaded" if args[0].evaluator is None else ".closed"
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                span = [label, time.perf_counter(), 0.0, parent, 0.0]
                self.spans.append(span)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                    if parent >= 0:
                        self.spans[parent][4] += span[2] - span[1]
                self.counts[label] += 1
                if observe is not None:
                    observe(span, args, kwargs, result)
                    if parent >= 0:
                        # keep the observation's cost out of the caller's self time
                        self.spans[parent][4] += time.perf_counter() - span[2]
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # Per-call observations, made after the span has closed.

    def _observe_su2_su2_cgc(self, span, args, kwargs, result):
        self.distinct["su2.su2_cgc"].add(tuple(float(a) for a in args))
        if result == 0.0:
            self.values["su2.su2_cgc.zero"] += 1

    def _observe_su2_spherical_harmonic(self, span, args, kwargs, result):
        self.distinct["su2.spherical_harmonic"].add(tuple(_array_key(a) for a in args))

    def _observe_su2_wigner_d_small(self, span, args, kwargs, result):
        computed = result.size
        n_angles = max(1, result.size // (result.shape[-1] * result.shape[-2]))
        parent = span[3]
        caller = self.spans[parent][0] if parent >= 0 else ""
        # helicity_com_scalar reads the single (chi, mu) entry at each angle;
        # every other caller uses the whole matrix.
        used = n_angles if caller == "cgc.helicity_com_scalar" else computed
        self.values["su2.wigner_d_small.computed"] += computed
        self.values["su2.wigner_d_small.used"] += used

    def _observe_states_gram_matrix(self, span, args, kwargs, result):
        state_list = list(args[0])
        if not state_list:
            return
        amps = state_list[0].amplitudes
        k = len(state_list)
        # Computed, not counted: one complex multiply-accumulate (8 real
        # flops) per node and spin slot for each of the k(k+1)/2 entries of
        # the Hermitian matrix.
        self.values["states.gram_matrix.flop"] += 8 * amps.size * k * (k + 1) // 2

    def _observe_states_state_to_json(self, span, args, kwargs, result):
        self.values["states.state_to_json.bytes"] += len(result)

    def _observe_states_state_from_json(self, span, args, kwargs, result):
        self.values["states.state_from_json.bytes"] += len(args[0])

    # -- results ------------------------------------------------------

    def seconds(self) -> tuple[Counter, Counter]:
        """Summed self and inclusive seconds per span name."""
        self_s, total_s = Counter(), Counter()
        for name, start, end, _, child in self.spans:
            self_s[name] += (end - start) - child
            total_s[name] += end - start
        return self_s, total_s

    def write_spans(self, path):
        """Write every span as one JSON line: name, start, end, parent, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, child in self.spans:
                fh.write(
                    json.dumps([name, start, end, parent, (end - start) - child]) + "\n"
                )

    def layer_metrics(self) -> dict:
        """Per-layer values by metric name (counts, seconds and ratios)."""
        selfs, totals = self.seconds()
        calls = self.counts
        v = self.values
        out = {
            "halfint.HalfInt.of.calls": calls["halfint.HalfInt.of"],
            "halfint.components.calls": calls["halfint.components"],
        }
        for fn in ("canonical_boost", "helicity_boost", "wigner_rotation",
                   "spinor_to_lorentz", "apply_lorentz"):
            out[f"lorentz.{fn}.calls"] = calls[f"lorentz.{fn}"]
            out[f"lorentz.{fn}.self_s"] = float(selfs[f"lorentz.{fn}"])
        for fn in ("wigner_d_small", "rep_matrix", "su2_cgc", "spherical_harmonic"):
            out[f"su2.{fn}.calls"] = calls[f"su2.{fn}"]
            out[f"su2.{fn}.self_s"] = float(selfs[f"su2.{fn}"])
        out["su2.wigner_d_small.entries_per_use"] = _ratio(
            v["su2.wigner_d_small.computed"], v["su2.wigner_d_small.used"]
        )
        for fn in ("su2_cgc", "spherical_harmonic"):
            out[f"su2.{fn}.distinct_ratio"] = _ratio(
                len(self.distinct[f"su2.{fn}"]), calls[f"su2.{fn}"]
            )
        out["su2.su2_cgc.zero_ratio"] = _ratio(v["su2.su2_cgc.zero"], calls["su2.su2_cgc"])
        for fn in ("spin_orbit_com_table", "helicity_com_table",
                   "spin_orbit_general_table", "helicity_general_table"):
            out[f"cgc.{fn}.calls"] = calls[f"cgc.{fn}"]
            out[f"cgc.{fn}.self_s"] = float(selfs[f"cgc.{fn}"])
        out["cgc.coupling_channels.calls"] = calls["cgc.coupling_channels"]
        for fn in ("all_basis_states", "decompose_product_state", "reconstruct",
                   "gram_matrix", "apply_rotation.closed", "apply_rotation.loaded", "state_to_json",
                   "state_from_json", "convert_slots_to_canonical"):
            out[f"states.{fn}.self_s"] = float(selfs[f"states.{fn}"])
        out["states.gram_matrix.gflops"] = _ratio(
            v["states.gram_matrix.flop"] / 1e9, totals["states.gram_matrix"]
        )
        out["states.inner_product.calls"] = calls["states.inner_product"]
        for fn in ("state_to_json", "state_from_json"):
            out[f"states.{fn}.mb_per_s"] = _ratio(
                v[f"states.{fn}.bytes"] / 1e6, totals[f"states.{fn}"]
            )
        out["verify.run.self_s"] = float(selfs["verify.run"])
        for fn in ("cmd_table", "cmd_decompose", "cmd_verify"):
            out[f"cli.{fn}.self_s"] = float(selfs[f"cli.{fn}"])
        return out


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return float(num) / float(den) if den else 0.0

