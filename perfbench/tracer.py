"""Span recorder and counters for the traced benchmark run.

Wrappers live here, in the benchmark, around the calls into each layer of
``powemb``; the package itself is not modified.  A wrapper replaces the
function on its defining module *and* on every ``powemb`` module that bound
it by ``from ... import`` (``norms`` and ``verify`` import ``lp_blocks``,
``weighted_lp`` and ``make_dyadic`` that way), so no caller slips past it.

Each call records one span (id, name, start, end, parent id, op id).  Spans
stay in memory; ``write_spans`` saves them when the run ends.  Self time is
a span's duration minus the time covered by its child spans; inclusive time
is counted once for recursive calls of the same name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name); a dotted attribute is looked up on a class.
SPAN_TARGETS = [
    ("powemb.params", "spec_from_dict", "params.spec_from_dict"),
    ("powemb.params", "validate", "params.validate"),
    ("powemb.params", "indices", "params.indices"),
    ("powemb.oracle", "decide", "oracle.decide"),
    ("powemb.oracle", "embedding_matrix", "oracle.embedding_matrix"),
    ("powemb.lpengine", "make_dyadic", "lpengine.make_dyadic"),
    ("powemb.lpengine", "lp_blocks", "lpengine.lp_blocks"),
    ("powemb.lpengine", "upsample_values", "lpengine.upsample_values"),
    ("powemb.lpengine", "weighted_lp", "lpengine.weighted_lp"),
    ("powemb.lpengine", "weighted_cell_sum", "lpengine.weighted_cell_sum"),
    ("powemb.lpengine", "_cell_weights_1d", "lpengine.cell_weights"),
    ("powemb.lpengine", "_cell_weights_2d", "lpengine.cell_weights"),
    ("powemb.lpengine", "radial_weighted_lp", "lpengine.radial_weighted_lp"),
    ("numpy.fft", "fft", "lpengine.fft"),
    ("numpy.fft", "ifft", "lpengine.fft"),
    ("numpy.fft", "fftn", "lpengine.fft"),
    ("numpy.fft", "ifftn", "lpengine.fft"),
    ("powemb.norms", "besov_norm", "norms.besov_norm"),
    ("powemb.norms", "triebel_norm", "norms.triebel_norm"),
    ("powemb.norms", "bessel_norm", "norms.bessel_norm"),
    ("powemb.norms", "sobolev_norm", "norms.sobolev_norm"),
    ("powemb.witnesses", "WitnessFamily.member", "witnesses.member"),
    ("powemb.verify", "check_peak_scaling", "verify.check"),
    ("powemb.verify", "check_translation_scaling", "verify.check"),
    ("powemb.verify", "check_nikolskij", "verify.check"),
    ("powemb.verify", "check_gagliardo", "verify.check"),
    ("powemb.verify", "check_lacunary_qnecessity", "verify.check"),
    ("powemb.verify", "check_embedding_bounded", "verify.check"),
    ("powemb.verify", "demonstrate_failure", "verify.check"),
    ("powemb.verify", "fit_exponent", "verify.fit_exponent"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPAN_TARGETS))
LAYERS = ("params", "oracle", "lpengine", "norms", "witnesses", "verify")
SRC_MODULES = ("params", "oracle", "lpengine", "norms", "witnesses", "verify",
               "suite", "cli")

# Spans kept for the trace file; aggregates always cover every call.
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # [span id, seconds covered by child spans]
        self._active = Counter()
        self._next_id = 0

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer._active[name] == 0:
                    tracer.incl[name] += dur
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.op_id))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- counters hooked onto particular calls ----------------------------

    def _after_fft(self, args, kwargs, out):
        self.counts["lpengine.fft.points"] += int(np.size(out))

    def _after_lp_blocks(self, args, kwargs, out):
        from powemb import lpengine

        self.counts["lpengine.lp_blocks.blocks_made"] += len(out)
        # Blocks a norm reads: 0..kmax, kmax the last block the band reaches.
        kmax = lpengine._active_blocks(args[0], args[1])
        self.counts["lpengine.lp_blocks.blocks_read"] += kmax + 1

    def _after_decide(self, args, kwargs, out):
        self.counts[f"oracle.outcome.{out.outcome}"] += 1

    def _norm_fft_counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = tracer.calls["lpengine.fft"]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts[f"norms.fft_in.{key}"] += (
                    tracer.calls["lpengine.fft"] - before)

        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever powemb imported it.

        A target that is not found raises, naming it: a renamed function
        must fail the traced run, not report its metrics as 0.
        """
        from powemb import lpengine

        after = {
            "lpengine.fft": self._after_fft,
            "lpengine.lp_blocks": self._after_lp_blocks,
            "oracle.decide": self._after_decide,
        }
        missing = []
        for modname, attr, name in SPAN_TARGETS:
            mod = sys.modules.get(modname) or __import__(modname, fromlist=["_"])
            owner, leaf = mod, attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, leaf, None)
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            fn = orig
            if name in ("norms.besov_norm", "norms.triebel_norm"):
                fn = self._norm_fft_counter(name.split(".")[1].split("_")[0], fn)
            wrapped = self._span(name, fn, after.get(name))
            setattr(owner, leaf, wrapped)
            if owner is mod:
                _rebind(orig, wrapped)

        field_init = lpengine.Field.__init__
        tracer = self

        @functools.wraps(field_init)
        def counted_init(obj, *args, **kwargs):
            tracer.counts["lpengine.field.constructed"] += 1
            field_init(obj, *args, **kwargs)

        lpengine.Field.__init__ = counted_init
        if missing:
            raise LookupError(f"tracer: targets not found: {', '.join(missing)}")

    # -- results ----------------------------------------------------------

    def metrics(self, src_dir):
        """Per-layer metrics as {name: (value, unit)}."""
        from powemb import lpengine, verify

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.incl[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items()
                        if k.startswith(layer + "."))
            out[f"layer.{layer}.self_s"] = (total, "s")
        c = self.counts
        out["lpengine.fft.points"] = (c["lpengine.fft.points"], "count")
        made = c["lpengine.lp_blocks.blocks_made"]
        out["lpengine.lp_blocks.blocks_made"] = (made, "count")
        out["lpengine.lp_blocks.useful_ratio"] = (
            c["lpengine.lp_blocks.blocks_read"] / made if made else 0.0, "ratio")
        out["lpengine.field.constructed"] = (c["lpengine.field.constructed"], "count")
        out["lpengine.weight_cache.entries"] = (len(lpengine._weight_cache), "count")
        out["verify.dyadic_cache.entries"] = (len(verify._sys_cache), "count")
        for key in ("besov", "triebel"):
            n = self.calls[f"norms.{key}_norm"]
            out[f"norms.fft_per_call.{key}"] = (
                c[f"norms.fft_in.{key}"] / n if n else 0.0, "count")
        for outcome in ("embeds", "no", "unknown"):
            out[f"oracle.outcome.{outcome}"] = (c[f"oracle.outcome.{outcome}"], "count")
        lines = {}
        for path in sorted(src_dir.glob("*.py")):
            with open(path, encoding="utf-8") as fh:
                lines[path.stem] = sum(1 for _ in fh)
        for mod in SRC_MODULES:
            out[f"src_lines.{mod}"] = (lines.get(mod, 0), "count")
        out["src_lines.total"] = (sum(lines.values()), "count")
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "op"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(orig, wrapped):
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("powemb") or mod is None:
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)
