"""Span tracing from outside the program: wrappers around symvo's public calls.

A traced run replaces each function in ``TARGETS`` by a wrapper that opens a
span, calls the original and closes the span.  Every module binding that
holds the original object is patched, so a call is traced whichever name the
caller looks it up by, and a wrapper always calls the original directly, so
no call is counted twice.  ``uninstall`` puts every binding back.

A span is ``[span_id, parent_id, pass_id, name, start_ns, end_ns]``.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; over a tree the self times add up to
the root's duration exactly, since all times are integer nanoseconds.

Run this file to self-test the self-time arithmetic and the wrapper removal.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "pipeline.process_frame"  # the span the harness opens per frame


def _hamming_pairs(counts, bound, result):
    counts["features.hamming_pairs"] += bound["a"].shape[0] * bound["b"].shape[0]


def _match(counts, bound, result):
    mask = bound.get("query_mask")
    n = len(bound["query_ids"]) if mask is None else int(np.count_nonzero(mask))
    counts["association.queries"] += n
    counts["association.accepted"] += len(result)


def _solve(counts, bound, result):
    counts["optimizer.lm_iterations"] += result.iterations


def _local_ba(counts, bound, result):
    counts["optimizer.ba_observations"] += len(bound["problem"].observations)
    counts["optimizer.ba_removed"] += len(result.removed)


def _one(key):
    def hook(counts, bound, result):
        counts[key] += 1
    return hook


def _culled(counts, bound, result):
    counts["worldmap.keyframes_culled"] += len(result)


# (module, attribute, counting hook or None).  "Class.method" patches the
# class attribute, which every instance looks the method up through.
TARGETS = (
    ("features", "hamming_matrix", _hamming_pairs),
    ("features", "depth_invariance_interval", None),
    ("features", "select_reference_appearance_index", None),
    ("association", "match", _match),
    ("association", "search_by_projection", None),
    ("association", "search_for_triangulation", None),
    ("association", "fuse", None),
    ("optimizer", "OptimizationProblem.__post_init__", None),  # validation
    ("optimizer", "solve_problem", _solve),
    ("optimizer", "optimize_pose", None),
    ("optimizer", "local_bundle_adjustment", _local_ba),
    ("worldmap", "WorldMap.add_keyframe", None),
    ("worldmap", "WorldMap.keyframe_ids", None),
    ("worldmap", "WorldMap.latest_keyframe_ids", None),
    ("worldmap", "WorldMap.create_point", _one("worldmap.points_created")),
    ("worldmap", "WorldMap.add_observation", None),
    ("worldmap", "WorldMap.refresh_points", None),
    ("worldmap", "WorldMap.remove_observation", None),
    ("worldmap", "WorldMap.merge_points", _one("worldmap.merges")),
    ("worldmap", "WorldMap.reselect_references", None),
    ("worldmap", "WorldMap.cull_points", None),
    ("worldmap", "WorldMap.apply_retention", _culled),
    ("worldmap", "WorldMap.local_keyframe_ids", None),
    ("worldmap", "WorldMap.graph_stats", None),
    ("worldmap", "WorldMap.check_integrity", None),
    ("pipeline", "initialize_two_view", None),
    ("synth", "generate", None),
    ("evaluation", "evaluate_run", None),
)


def span_name(module: str, attr: str) -> str:
    """``module.function``; a method is named by itself, a dunder by its class."""
    owner, _, last = attr.rpartition(".")
    return f"{module}.{owner if last.startswith('__') else last}"


class Tracer:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._stack: list = []
        self._raised: list = []  # exceptions already counted, by identity

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.pass_id, name,
                           time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> int:
        """Ends the span; returns its duration in nanoseconds."""
        span = self.spans[sid]
        span[5] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")
        return span[5] - span[4]

    def count_error(self, exc: BaseException, key: str):
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.counts[key] += 1

    def write(self, path):
        with open(path, "w") as f:
            f.write("span_id,parent_id,pass_id,name,start_ns,end_ns\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")


def self_times(spans) -> list:
    """Self time of every span, indexed like ``spans``."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[5] - s[4]
    return out


def _make_wrapper(tracer, name, fn, hook, error_key):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid)
            if error_key is not None and isinstance(exc, error_key[0]):
                tracer.count_error(exc, error_key[1])
            raise
        tracer.close(sid)
        if hook is not None:
            hook(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
        return result

    wrapper.traced_original = fn
    return wrapper


class Instrumentation:
    """Installs the wrappers for one tracer; ``uninstall`` restores them."""

    def __init__(self, tracer: Tracer, package: str = "symvo", targets=TARGETS):
        self.tracer = tracer
        self.package = package
        self.targets = targets
        self._patched: list = []  # (owner, attribute, original)

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if (name == self.package or name.startswith(prefix))
                and m is not None]

    def install(self):
        errors = sys.modules[self.package + ".errors"]
        error_key = (errors.DegenerateProblemError, "optimizer.degenerate")
        modules = self._modules()
        for module_name, attr, hook in self.targets:
            module = sys.modules[f"{self.package}.{module_name}"]
            name = span_name(module_name, attr)
            err = error_key if module_name == "optimizer" else None
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original,
                            _make_wrapper(self.tracer, name, original, hook, err))
                continue
            original = getattr(module, attr)
            wrapper = _make_wrapper(self.tracer, name, original, hook, err)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def leftover_wrappers(self) -> list:
        """Names in the package that still hold a wrapper; empty when clean."""
        left = []
        for module in self._modules():
            for key, value in vars(module).items():
                if hasattr(value, "traced_original"):
                    left.append(f"{module.__name__}.{key}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for mkey, mvalue in vars(value).items():
                        if hasattr(mvalue, "traced_original"):
                            left.append(f"{module.__name__}.{key}.{mkey}")
        return left


def layer_times(spans) -> dict:
    """Per-name and per-module self nanoseconds inside ROOT trees, plus totals.

    ``pass_ns`` is the summed ROOT duration; ``outside`` collects spans in
    no ROOT tree (set-up, evaluation, the end-of-run statistics).
    """
    own = self_times(spans)
    in_pass = [False] * len(spans)
    for s in spans:  # parents precede children, so one forward sweep works
        in_pass[s[0]] = s[3] == ROOT or (s[1] >= 0 and in_pass[s[1]])
    by_name = defaultdict(int)
    by_module = defaultdict(int)
    outside = defaultdict(int)
    pass_ns = 0
    for s, ns, inside in zip(spans, own, in_pass):
        if not inside:
            outside[s[3]] += ns
            continue
        if s[3] == ROOT:
            pass_ns += s[5] - s[4]
            by_name["pipeline.self"] += ns
        else:
            by_name[s[3]] += ns
        by_module[s[3].split(".")[0]] += ns
    return {"by_name": dict(by_name), "by_module": dict(by_module),
            "outside": dict(outside), "pass_ns": pass_ns}


# ----------------------------------------------------------------------
# self-test


def _expect(ok: bool, what: str):
    if not ok:
        raise AssertionError(f"spans self-test: {what}")


def self_test():
    """Checks self-time arithmetic and wrapper removal on a toy package."""
    spans = [
        [0, -1, 0, ROOT, 0, 100],
        [1, 0, 0, "association.search_by_projection", 10, 60],
        [2, 1, 0, "association.match", 20, 50],
        [3, 2, 0, "features.hamming_matrix", 25, 45],
        [4, 0, 0, "optimizer.optimize_pose", 70, 90],
        [5, -1, 1, "evaluation.evaluate_run", 200, 230],
    ]
    _expect(self_times(spans) == [30, 20, 10, 20, 20, 30], "self times")
    layers = layer_times(spans)
    _expect(layers["pass_ns"] == 100, "pass time")
    _expect(layers["by_module"] == {"pipeline": 30, "association": 30,
                                    "features": 20, "optimizer": 20},
            "module self times")
    _expect(sum(layers["by_module"].values()) == layers["pass_ns"],
            "module self times add up to the pass time")
    _expect(layers["outside"] == {"evaluation.evaluate_run": 30},
            "spans outside a pass")

    import types
    errors = types.ModuleType("toypkg.errors")
    errors.DegenerateProblemError = type("DegenerateProblemError", (Exception,), {})
    feats = types.ModuleType("toypkg.features")
    feats.hamming_matrix = lambda a, b: "dist"
    assoc = types.ModuleType("toypkg.association")
    assoc.hamming_matrix = feats.hamming_matrix  # imported by name
    original = feats.hamming_matrix
    toy = {"toypkg": types.ModuleType("toypkg"), "toypkg.errors": errors,
           "toypkg.features": feats, "toypkg.association": assoc}
    sys.modules.update(toy)
    try:
        tracer = Tracer()
        inst = Instrumentation(tracer, "toypkg",
                               (("features", "hamming_matrix", None),))
        inst.install()
        _expect(assoc.hamming_matrix is feats.hamming_matrix is not original,
                "every binding is patched with one wrapper")
        _expect(assoc.hamming_matrix([], []) == "dist", "wrapper result")
        _expect([s[3] for s in tracer.spans] == ["features.hamming_matrix"],
                "one span per call")
        inst.uninstall()
        _expect(feats.hamming_matrix is original
                and assoc.hamming_matrix is original, "bindings restored")
        _expect(inst.leftover_wrappers() == [], "no wrapper left")
    finally:
        for name in toy:
            sys.modules.pop(name, None)


if __name__ == "__main__":
    self_test()
    print("spans self-test passed")
