"""Per-layer tracing of squint from outside the program.

``install()`` wraps the public functions named in ``TRACED`` and rebinds each
wrapper in every loaded squint module that holds the original, so calls
between modules are caught while the program's source stays untouched. Each
wrapper keeps, per function, the call count, the inclusive time and the self
time (inclusive time minus the time of traced callees), and per caller/callee
edge the calls and inclusive time. The spans live in memory; ``snapshot()``
returns them as plain numbers for the parent process to merge.

Import squint's modules before calling ``install()``: a module imported later
keeps the unwrapped functions. A traced function that the program no longer
has is skipped and reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path) of every traced function, one layer per module.
TRACED = (
    ("gaussian", "build_interferometer"),
    ("detection", "click_distribution"),
    ("detection", "fringe"),
    ("detection", "fringe_visibility"),
    ("detection", "overlap_for_visibility"),
    ("metrology", "fisher_per_trial"),
    ("metrology", "max_fisher"),
    ("metrology", "threshold_tm_numeric"),
    ("metrology", "fisher_sweep"),
    ("estimation", "CalibrationModel.from_config"),
    ("estimation", "calibrate"),
    ("estimation", "estimate_phase"),
    ("estimation", "bootstrap_sigma"),
    ("estimation", "crlb"),
    ("simkit", "run_tracking"),
    ("simkit", "sensitivity_report"),
    ("fock", "simulate_fock"),
    ("fock", "squeezer_unitary"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
BUILD = "gaussian.build_interferometer"


class Tracer:
    """Span bookkeeping shared by the wrappers of one process."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.incl = dict.fromkeys(NAMES, 0.0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.builds_under = dict.fromkeys(NAMES, 0)
        self.edges: dict[tuple[str, str], list] = {}
        self.points = 0  # phase points requested from detection.fringe
        self._stack: list[list] = []  # [name, start, time in traced callees]

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "detection.fringe":
                self.points += len(args[1] if len(args) > 1 else kwargs["phi_grid"])
            elif name == BUILD:
                for frame_name in {frame[0] for frame in stack}:
                    self.builds_under[frame_name] += 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if not any(f[0] == name for f in stack):  # count recursion once
                    self.incl[name] += dur
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    edge = self.edges.setdefault((parent[0], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += dur

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "incl_s": self.incl,
            "self_s": self.self_s,
            "builds_under": self.builds_under,
            "fringe_points": self.points,
            "edges": [[a, b, n, t] for (a, b), (n, t) in self.edges.items()],
        }


def install() -> Tracer:
    """Wrap every traced function in all loaded squint modules."""
    tracer = Tracer()
    homes = [importlib.import_module(f"squint.{mod_name}") for mod_name, _ in TRACED]
    modules = [m for k, m in list(sys.modules.items()) if k == "squint" or k.startswith("squint.")]
    for home, (mod_name, attr) in zip(homes, TRACED):
        name = f"{mod_name}.{attr}"
        # a function the program no longer has keeps 0 calls
        if "." in attr:  # a classmethod: rebinding it on the class reaches every caller
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if isinstance(original, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, original.__func__)))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer


def merge(snapshots) -> dict:
    """Sum the snapshots of several processes."""
    total = {"calls": dict.fromkeys(NAMES, 0), "incl_s": dict.fromkeys(NAMES, 0.0),
             "self_s": dict.fromkeys(NAMES, 0.0), "builds_under": dict.fromkeys(NAMES, 0),
             "fringe_points": 0, "edges": {}}
    for snap in snapshots:
        for key in ("calls", "incl_s", "self_s", "builds_under"):
            for name, value in snap[key].items():
                total[key][name] += value
        total["fringe_points"] += snap["fringe_points"]
        for a, b, n, t in snap["edges"]:
            edge = total["edges"].setdefault((a, b), [0, 0.0])
            edge[0] += n
            edge[1] += t
    return total


def layer_metrics(total: dict) -> dict:
    """Per-layer metrics: calls and self time per function, plus the ratios."""

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (total["calls"][name], "count")
        metrics[f"{name}.self_s"] = (total["self_s"][name], "s")
    calls, edges = total["calls"], total["edges"]
    metrics["detection.fringe.points"] = (
        ratio(total["fringe_points"], calls["detection.fringe"]), "points/call")
    metrics["metrology.max_fisher.builds_per_call"] = (
        ratio(total["builds_under"]["metrology.max_fisher"], calls["metrology.max_fisher"]), "builds/call")
    evals = edges.get(("estimation.calibrate", "detection.fringe"), [0, 0.0])[0]
    metrics["estimation.calibrate.objective_evals"] = (ratio(evals, calls["estimation.calibrate"]), "evals/call")
    fisher_s = edges.get(("estimation.estimate_phase", "metrology.fisher_per_trial"), [0, 0.0])[1]
    metrics["estimation.estimate_phase.fisher_share"] = (
        ratio(fisher_s, total["incl_s"]["estimation.estimate_phase"]), "fraction")
    return metrics
