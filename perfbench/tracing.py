"""Per-layer tracing installed from the benchmark's side of the API.

The wrappers replace each listed callable wherever the package looks it
up: every `arraycodes.*` module global bound to the function (so
`arraycodes.ted.vt_syndrome` and `arraycodes.dc.vt_syndrome` are patched
with `arraycodes.vt.vt_syndrome`), and the class attribute for methods.
A callable that is missing, or that a class only inherits, is reported as
absent rather than failing the run.

Each call opens a span (name, start, end, parent span, trial id).  A
span's self time is its duration minus the durations of the traced calls
made inside it.  Spans are kept in memory in flat arrays and written out
when the run ends; the leaf callables in AGGREGATED (up to millions of
calls per run) only add to their counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List

# Module -> callables timed in it.  `cli` is a thin front end and `errors`
# does no work, so neither is listed; `bounds` is reached through `tables`.
LAYERS = {
    "field": ("Gf2m.mul", "Gf2m.inv", "Gf2m.pow"),
    "rs": ("ReedSolomon.encode", "ReedSolomon.decode_erasures",
           "ReedSolomon.is_codeword"),
    "ted": ("TedCode.encode", "TedCode.decode", "TedCode.membership",
            "theta_symbol"),
    "dc": ("DcCode.encode", "DcCode.decode", "DcCode.membership"),
    "vt": ("vt_syndrome", "vt_decode", "vt_systematic_encode"),
    "arrays": ("BitArray.from_lists", "BitArray.row_bits",
               "RaggedArray.from_lists", "RaggedArray.row_bits",
               "apply_te_pattern"),
    "channel": ("apply_channel", "enumerate_channel_instances",
                "random_instance"),
    "gf2": ("gf2_rank", "gf2_solve", "gf2_row_reduce"),
    "te": ("verify_min_distance", "TeParityCheck.pattern_multiset",
           "te_decode", "TeEncoder.encode", "construct_hasse"),
    "tables": ("table_i", "table_ii", "table_i_construct"),
    "bounds": ("te_sphere_packing",),
    "basecodes": ("bch_pcm", "claim5_base_pcm"),
}

# Decoders also count the calls that ended in an exception.
DECODERS = ("ted.TedCode.decode", "dc.DcCode.decode", "te.te_decode",
            "vt.vt_decode", "rs.ReedSolomon.decode_erasures")

# Leaves whose traced children, if any, are leaves too: counted and timed,
# no span kept.
AGGREGATED = frozenset((
    "field.Gf2m.mul", "field.Gf2m.inv", "field.Gf2m.pow",
    "vt.vt_syndrome", "ted.theta_symbol",
    "arrays.BitArray.row_bits", "arrays.RaggedArray.row_bits",
    "arrays.BitArray.from_lists", "arrays.RaggedArray.from_lists",
    "gf2.gf2_rank", "te.TeParityCheck.pattern_multiset",
))

# Membership re-checks per decode: the work a decoder spends confirming
# its own output.
RATIOS = {
    "ted.membership_per_decode": ("ted.TedCode.membership", "ted.TedCode.decode"),
    "dc.membership_per_decode": ("dc.DcCode.membership", "dc.DcCode.decode"),
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in (f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in DECODERS:
            units[f"{name}.raised"] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.stats: Dict[str, List] = {}    # name -> [calls, self_s, raised]
        self.absent: List[str] = []
        self.trial = [-1]                   # current trial id, set by the loop
        self._stack: List[List] = []        # [child s, span id, parent id] per open call
        self._next_id = [0]
        self._names: List[str] = []
        self._span_cols = {k: array(t) for k, t in
                           (("id", "q"), ("name", "i"), ("parent", "q"),
                            ("trial", "q"), ("start", "d"), ("end", "d"))}
        self._patches = []                  # (owner, attribute, original)

    def set_trial(self, trial: int) -> None:
        self.trial[0] = trial

    # -- installation -------------------------------------------------

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "arraycodes" or n.startswith("arraycodes.")]
        seen = set()
        for mod_name, quals in LAYERS.items():
            try:
                module = importlib.import_module(f"arraycodes.{mod_name}")
            except ImportError:
                module = None
            for qual in quals:
                name = f"{mod_name}.{qual}"
                self.stats[name] = [0, 0.0, 0]
                target = _resolve(module, qual) if module is not None else None
                if target is None or id(target[2]) in seen:
                    self.absent.append(name)
                    continue
                owner, attr, raw = target
                seen.add(id(raw))
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                if inspect.isclass(owner):
                    self._patch(owner, attr, raw, new)
                else:
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, key, raw, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, new) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        keep = name not in AGGREGATED
        name_id = len(self._names)
        self._names.append(name)
        stack, next_id, trial = self._stack, self._next_id, self.trial
        cols = self._span_cols
        clock = time.perf_counter

        def new_frame():
            parent = stack[-1][1] if stack else -1
            sid = parent
            if keep:
                sid = next_id[0]
                next_id[0] += 1
            return [0.0, sid, parent]

        def leave(frame, t0, t1):
            stack.pop()
            dt = t1 - t0
            st[1] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

        def record(frame, t0, t1):
            if keep:
                for key, value in (("id", frame[1]), ("name", name_id),
                                   ("parent", frame[2]), ("trial", trial[0]),
                                   ("start", t0), ("end", t1)):
                    cols[key].append(value)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # Self time adds up the time spent inside each resume; the
                # span runs from the first resume to exhaustion.
                it = fn(*args, **kwargs)
                st[0] += 1
                span = first = None
                while True:
                    if span is None:
                        span = new_frame()
                    frame = [0.0, span[1], span[2]]
                    stack.append(frame)
                    t0 = clock()
                    done = False
                    try:
                        item = next(it)
                    except StopIteration:
                        done = True
                    except BaseException:
                        st[2] += 1
                        raise
                    finally:
                        t1 = clock()
                        leave(frame, t0, t1)
                        if first is None:
                            first = t0
                    if done:
                        record(span, first, t1)
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = new_frame()
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st[2] += 1
                raise
            finally:
                t1 = clock()
                st[0] += 1
                leave(frame, t0, t1)
                record(frame, t0, t1)
        return wrapper

    # -- results ------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, (calls, self_s, raised) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in DECODERS:
                out[f"{name}.raised"] = raised
        for ratio, (num, den) in RATIOS.items():
            calls = self.stats[den][0]
            out[ratio] = self.stats[num][0] / calls if calls else 0.0
        return out

    @property
    def span_count(self) -> int:
        return len(self._span_cols["id"])

    def write_spans(self, path: Path) -> None:
        cols = self._span_cols
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\ttrial\tname\tstart_s\tend_s\n")
            for k in range(self.span_count):
                fh.write(f"{cols['id'][k]}\t{cols['parent'][k]}\t"
                         f"{cols['trial'][k]}\t{self._names[cols['name'][k]]}\t"
                         f"{cols['start'][k]:.9f}\t{cols['end'][k]:.9f}\n")


def _resolve(module, qual: str):
    """(owner, attribute, raw object) for a callable, or None when absent.

    A method counts only where its class defines it, so a method that a
    later refactor moves into a base class is absent under its old name.
    """
    if "." not in qual:
        fn = getattr(module, qual, None)
        return (module, qual, fn) if callable(fn) else None
    cls_name, attr = qual.split(".", 1)
    cls = getattr(module, cls_name, None)
    if not inspect.isclass(cls) or attr not in vars(cls):
        return None
    raw = vars(cls)[attr]
    if not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        return None
    return cls, attr, raw
