"""Spans recorded from outside the program, around calls into its modules.

A Tracer keeps every span in flat arrays (name id, parent index, start,
end) and writes them out once, when the run ends.  Wrappers are
installed on every loaded ``hardsphere`` module attribute and class
attribute that refers to the wrapped function, because modules import
functions by name (``hierarchy`` and ``checks`` hold their own reference
to ``evolve``): patching the defining module alone would miss them.

Self time of a span is its duration minus the durations of its direct
children.  Calls nest strictly in one thread, so the self times of all
spans under a root add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Name id of the innermost open span, -1 outside any span."""
        idx = self._stack[-1]
        return self.name_id[idx] if idx >= 0 else -1

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct
    children (parent index -1 marks a root)."""
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def summarize(tracer: Tracer, root: int) -> dict:
    """Per span name: number of spans, summed self time and summed
    inclusive time of the outermost spans of that name, over the spans
    opened at or after ``root`` (the measured region)."""
    arr = tracer.arrays()
    sl = slice(root, None)
    names = arr["name_id"][sl]
    parent = arr["parent"][sl] - root
    parent[arr["parent"][sl] < root] = -1
    start, end = arr["start"][sl], arr["end"][sl]
    selft = self_times(parent, start, end)
    dur = end - start
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
    outer = parent_name != names
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = names == nid
        if mask.any():
            out[name] = {"spans": int(mask.sum()),
                         "self_s": float(selft[mask].sum()),
                         "incl_s": float(dur[mask & outer].sum())}
    out["_total_self_s"] = float(selft.sum())
    out["_root_s"] = float(dur[0])
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

class Patches:
    """Installed wrappers; ``restore`` puts every original back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper, owners=None) -> None:
        """Point every attribute that holds ``original`` at ``wrapper``, in
        all loaded hardsphere modules, or in ``owners`` when given."""
        if owners is None:
            owners = [m for name, m in list(sys.modules.items())
                      if name == "hardsphere" or name.startswith("hardsphere.")]
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no attribute refers to {original!r}")

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def timed(tracer: Tracer, name, fn, on_result=None, on_error=None):
    """Wrap ``fn`` in a span named ``name``, or ``name(args)`` when it is
    callable.  ``on_result(args, result, outer)`` and ``on_error(args, exc,
    outer)`` see every call at the boundary; outer is False for a call made
    from inside a span of the same name (the recursive leg of a backward
    ``evolve``).  Exceptions propagate unchanged."""
    fixed = None if callable(name) else tracer.name_of(name)

    def wrapper(*args, **kwargs):
        nid = fixed if fixed is not None else tracer.name_of(name(args))
        outer = tracer.current() != nid
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if on_error is not None:
                on_error(args, exc, outer)
            raise
        tracer.close(idx)
        if on_result is not None:
            on_result(args, result, outer)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install_layers(tracer: Tracer, patches: Patches) -> None:
    """Spans and boundary counts for the dynamics, hierarchy, measures and
    geometry layers."""
    from hardsphere import dynamics, geometry, hierarchy, measures

    counts = tracer.counts

    def evolve_result(args, result, outer):
        if outer:
            log = result[1]
            counts["dynamics.evolve.calls"] += 1
            counts["dynamics.pair_events"] += log.n_pair
            counts["dynamics.wall_events"] += log.n_wall

    def evolve_error(args, exc, outer):
        if outer:
            counts["dynamics.evolve.calls"] += 1
            if isinstance(exc, dynamics.DegeneracyError):
                counts[f"dynamics.degenerate.{exc.kind.value}"] += 1

    def history_result(args, outcome, outer):
        counts[f"hierarchy.build_history.{outcome.status.value}"] += 1

    patches.replace(dynamics.evolve,
                    timed(tracer, "dynamics.evolve", dynamics.evolve,
                          evolve_result, evolve_error))
    patches.replace(hierarchy.build_history,
                    timed(tracer, lambda args: f"hierarchy.build_history.m{args[2].m}",
                          hierarchy.build_history, history_result))
    for fn in (hierarchy.empirical_rho, hierarchy.series_eval):
        patches.replace(fn, timed(tracer, f"hierarchy.{fn.__name__}", fn))
    patches.replace(geometry.omega_admissible,
                    timed(tracer, "geometry.omega_admissible", geometry.omega_admissible))
    patches.replace(measures.get_measure,
                    timed(tracer, "measures.get_measure", measures.get_measure))
    for cls, attr in ((measures.InitialMeasure, "sample_batch"),
                      (measures.InitialMeasure, "sample"),
                      (measures.InitialMeasure, "exclusion_integral"),
                      (measures.InitialMeasure, "admissible"),
                      (measures.CorrelationVector, "eval_arrays")):
        fn = vars(cls)[attr]
        patches.replace(fn, timed(tracer, f"measures.{attr}", fn), owners=[cls])


def install_checks(tracer: Tracer, patches: Patches) -> None:
    """One span per ``run_check`` call, named after the check id.  Worker
    processes run outside this process, so nothing deeper is wrapped."""
    from hardsphere import checks

    original = checks.run_check
    spans = {cid: timed(tracer, f"checks.run_check.{cid}", original)
             for cid in checks._RUNNERS}

    def run_check(exp, check_id, *args, **kwargs):
        return spans[check_id](exp, check_id, *args, **kwargs)

    patches.replace(original, run_check)
