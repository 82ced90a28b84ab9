"""Set-up, timed forward/backward passes, output checks and metrics.

A *unit* is one set-up of a workload followed by every pass it defines:
each config, forward then backward, on one generated sequence.  A run
repeats units until its time is up; every unit must reproduce the first
one's digests bit for bit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np
# Functions are looked up on their modules at call time, so that a traced
# run's wrappers are the ones called.
from symvo import errors, evaluation, pipeline, synth, trajectory

import spans
from spans import ROOT, TARGETS, span_name

# Speed reference.  The host's speed drifts by 10-40% over minutes (other
# tenants share its cores), more than any change worth catching.  A fixed
# kernel of the same kinds of work as a frame and a set-up (a popcount
# cube, random draws, small solves, dict updates) is timed before every
# frame and around every set-up.  Frame times are scaled by REFERENCE_NS /
# the run's median kernel time, each set-up by REFERENCE_NS / the median
# of the kernels around it: they read as seconds on a host where the
# kernel takes 5 ms.
REFERENCE_NS = 5_000_000
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.integers(0, 256, (150, 32), dtype=np.uint8)
_REF_B = _REF_RNG.integers(0, 256, (150, 32), dtype=np.uint8)
_REF_M = _REF_RNG.normal(size=(6, 6)) + 6.0 * np.eye(6)
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def reference_ns() -> int:
    """Duration of one run of the fixed reference kernel."""
    t0 = time.perf_counter_ns()
    _POPCOUNT[_REF_A[:, None, :] ^ _REF_B[None, :, :]].sum(axis=-1)
    np.packbits(_REF_RNG.random((300, 256)) < 0.02, axis=1)
    v = np.ones(6)
    for _ in range(80):
        v = np.linalg.solve(_REF_M, v) + 1.0
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter_ns() - t0


@dataclass
class PassResult:
    config: str
    direction: str
    n_frames: int
    frame_ns: list = field(default_factory=list)
    health: str = "raised"  # ok | tracking_lost | init_failed | raised
    error: str | None = None  # exception type and message of a raising pass
    n_poses: int = 0
    digest: str | None = None
    e_r: float | None = None
    e_r_error: str | None = None
    ate: float | None = None
    init_attempts: int = 0
    init_frame: int | None = None  # 1-based frame at which init succeeded
    map_points: int = 0
    problems: list = field(default_factory=list)  # failed output checks

    def key(self) -> str:
        return f"{self.config}/{self.direction}"


def setup(workload, seed: int):
    """Scene generation, reversal and one fresh Pipeline per pass.

    Returns (seconds, [(config, direction, pipeline, frames, truth)]).
    """
    t0 = time.perf_counter()
    seq = synth.generate(synth.SceneSpec(seed=seed, **workload.scene))
    k = workload.frames
    frames = seq.frames[:k]
    truth = trajectory.Trajectory(seq.ground_truth.timestamps[:k],
                                  seq.ground_truth.poses[:k])
    directions = (("fwd", frames, truth),
                  ("bwd", pipeline.reverse(frames), truth.reversed()))
    base = pipeline.PipelineConfig()
    configs = (evaluation.ablation_configs(base) if workload.ablation
               else [("full", base)])
    passes = [
        (name, direction, pipeline.Pipeline(seq.cam, config), use_frames, use_truth)
        for name, config in configs
        for direction, use_frames, use_truth in directions
    ]
    return time.perf_counter() - t0, passes


class Samples:
    """Set-up times and reference-kernel times, taken between frames.

    The host's speed shifts within seconds, so the samples are spread over
    the whole run instead of taken in one burst.  Each set-up is timed
    between two reference kernels on each side and scaled by their median,
    so that it is measured against the host's speed of that moment.
    """

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.setup_s: list = []  # wall seconds
        self.setup_ref_ns: list = []  # local reference of each set-up
        self.reference_ns: list = []
        self._next_setup = 0.0

    def add_setup(self, seconds: float, before: list):
        after = [reference_ns(), reference_ns()]
        self.setup_s.append(seconds)
        self.setup_ref_ns.append(statistics.median(before + after))

    def take(self):
        """A reference timing each call; a set-up at most once a second."""
        self.reference_ns.append(reference_ns())
        now = time.perf_counter()
        if now >= self._next_setup:
            before = [self.reference_ns[-1], reference_ns()]
            self.add_setup(setup(self.workload, self.seed)[0], before)
            self._next_setup = now + 1.0

    def scaled_setup_s(self) -> float:
        """Median set-up time at reference speed."""
        return statistics.median(
            s * REFERENCE_NS / ref
            for s, ref in zip(self.setup_s, self.setup_ref_ns))


def run_pass(name, direction, pipe, frames, truth, tracer=None,
             samples=None) -> PassResult:
    result = PassResult(name, direction, len(frames))
    process = pipe.process_frame

    def timed(frame):
        if samples is not None:
            samples.take()
        was_init, had_ref = pipe.initialized, pipe.init_ref is not None
        if tracer is not None:
            sid = tracer.open(ROOT)
        else:
            t0 = time.perf_counter_ns()
        try:
            return process(frame)
        finally:
            result.frame_ns.append(
                tracer.close(sid) if tracer is not None
                else time.perf_counter_ns() - t0
            )
            if not was_init:
                result.init_attempts += had_ref
                if pipe.initialized:
                    result.init_frame = len(result.frame_ns)

    pipe.process_frame = timed  # Pipeline.run calls it through the instance
    try:
        estimate, report = pipe.run(frames)
    except Exception as exc:  # a failed pass is recorded; the run goes on
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        result.map_points = len(pipe.world.points)
        del pipe.process_frame  # breaks the pipe -> timed -> pipe cycle
    result.health = report.health
    result.n_poses = len(estimate)
    result.digest = report.digest
    _check_output(estimate, report, result)
    _score(estimate, truth, result)
    return result


def _check_output(estimate, report, result):
    digest = pipeline.poses_digest(estimate.timestamps, estimate.poses)
    if digest != report.digest:
        result.problems.append("poses_digest of the trajectory != RunReport.digest")
    if report.n_tracked != len(estimate):
        result.problems.append(
            f"n_tracked {report.n_tracked} != {len(estimate)} poses")
    if not all(np.isfinite(p.rotation).all() and np.isfinite(p.translation).all()
               for p in estimate.poses):
        result.problems.append("non-finite pose")


def _score(estimate, truth, result):
    if result.health == "ok":
        try:
            result.e_r = evaluation.evaluate_run(estimate, truth)
        except errors.AlignmentDegenerateError as exc:
            result.e_r_error = str(exc)
    if len(estimate) >= 3:
        pairs = evaluation.associate_timestamps(estimate, truth)
        est = estimate.positions()[[i for i, _ in pairs]]
        ref = truth.positions()[[j for _, j in pairs]]
        try:
            sim = evaluation.umeyama(est, ref)
        except errors.AlignmentDegenerateError:
            return
        aligned = estimate.transformed(sim.scale, sim.rotation, sim.translation)
        result.ate = evaluation.alignment_error(aligned, truth)


def run_unit(workload, seed, tracer=None, samples=None) -> list:
    """Set-up plus every pass of the workload; returns the PassResults."""
    before = [reference_ns(), reference_ns()] if samples is not None else []
    setup_s, passes = setup(workload, seed)
    if samples is not None:
        samples.add_setup(setup_s, before)
    results = []
    for pass_id in range(len(passes)):
        # drop each pipeline after its pass, as a user keeping only the
        # trajectories would, so one pass's map does not inflate the next
        name, direction, pipe, frames, truth = passes[pass_id]
        passes[pass_id] = None
        if tracer is not None:
            tracer.pass_id = pass_id
        results.append(run_pass(name, direction, pipe, frames, truth,
                                tracer, samples))
        del pipe
    return results


def run_units(workload, seed, seconds, samples) -> list:
    """Untraced units until the next would end past ``seconds``; at least one."""
    start = time.perf_counter()
    units = []
    while True:
        t0 = time.perf_counter()
        units.append(run_unit(workload, seed, samples=samples))
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return units


def traced_unit(workload, seed, untraced_first: dict, spans_path) -> tuple:
    """One unit under the wrappers; returns (unit, per-layer metrics, problems)."""
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    inst.install()
    try:
        for _ in range(3):
            setup(workload, seed)
        generate_ns = [s[5] - s[4] for s in tracer.spans if s[3] == "synth.generate"]
        tracer.spans.clear()
        unit = run_unit(workload, seed, tracer)
    finally:
        inst.uninstall()
    problems = []
    left = inst.leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {', '.join(left)}")
    if digests(unit) != untraced_first:
        problems.append("the traced run gave other digests than the untraced")
    layers = spans.layer_times(tracer.spans)
    timed_ns = sum(ns for p in unit for ns in p.frame_ns)
    if sum(layers["by_module"].values()) != timed_ns or layers["pass_ns"] != timed_ns:
        problems.append("per-module self times do not add up to the pass time")
    tracer.write(spans_path)
    return unit, per_layer(unit, tracer, layers, generate_ns), problems


def digests(unit: list) -> dict:
    """Pass key -> digest, or the exception type for a raising pass."""
    return {
        p.key(): p.digest if p.digest is not None
        else "raised " + p.error.split(":", 1)[0]
        for p in unit
    }


# ----------------------------------------------------------------------
# metrics


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def end_to_end(units, samples: Samples) -> tuple:
    """The end-to-end metrics and the number of frames timed.

    Timing covers every pass of every unit; quality comes from the first
    unit, which later units repeat bit for bit.
    """
    frame_ns = [ns for unit in units for p in unit for ns in p.frame_ns]
    ref_ms = statistics.median(samples.reference_ns) / 1e6
    scale = REFERENCE_NS / 1e6 / ref_ms
    wall_s = sum(frame_ns) / len(frame_ns) / 1e9
    wall_p50 = statistics.median(frame_ns) / 1e6
    wall_setup = statistics.median(samples.setup_s)
    passes = units[0]
    n = len(passes)
    fwd = [p.e_r for p in passes if p.direction == "fwd"]
    bwd = [p.e_r for p in passes if p.direction == "bwd"]
    failed = sum(p.health != "ok" for p in passes)
    return {
        "s_per_frame": (wall_s * scale, "s"),
        "frame_ms_p50": (wall_p50 * scale, "ms"),
        "setup_s": (samples.scaled_setup_s(), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "e_r_fwd": (_mean(fwd), "scene_units"),
        "e_r_bwd": (_mean(bwd), "scene_units"),
        "abs_bias": (_abs_bias(passes), "scene_units"),
        "ate": (_mean(p.ate for p in passes), "scene_units"),
        "tracked_frac": (sum(p.n_poses for p in passes)
                         / sum(p.n_frames for p in passes), "ratio"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "failed_frac": (failed / n, "ratio"),
        "unevaluable_frac": (sum(p.e_r_error is not None for p in passes) / n,
                             "ratio"),
        "wall_s_per_frame": (wall_s, "s"),
        "wall_frame_ms_p50": (wall_p50, "ms"),
        "wall_setup_s": (wall_setup, "s"),
        "reference_ms": (ref_ms, "ms"),
    }, len(frame_ns)


def _abs_bias(passes):
    by_key = {(p.config, p.direction): p for p in passes}
    names = sorted({p.config for p in passes
                    if by_key[(p.config, "fwd")].e_r is not None
                    and by_key[(p.config, "bwd")].e_r is not None})
    if not names:
        return None
    report = evaluation.bias_metrics(
        [evaluation.SequenceRun(n, by_key[(n, "fwd")].e_r) for n in names],
        [evaluation.SequenceRun(n, by_key[(n, "bwd")].e_r) for n in names],
    )
    return report.bias["rmse"]


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(unit: list, tracer, layers: dict, generate_ns) -> dict:
    """Per-module metrics of one traced unit: self seconds and counts."""
    secs = {name: ns / 1e9 for name, ns in layers["by_name"].items()}
    counts = tracer.counts
    out = {}
    for name in [span_name(m, a) for m, a, _ in TARGETS] + ["pipeline.self"]:
        if name.split(".")[0] not in ("synth", "evaluation"):  # not pass time
            out[f"{name}_s"] = (secs.get(name, 0.0), "s")
    for module in ("features", "association", "optimizer", "worldmap", "pipeline"):
        out[f"{module}.module_s"] = (layers["by_module"].get(module, 0) / 1e9, "s")
    out["pass_s"] = (layers["pass_ns"] / 1e9, "s")
    for key in ("features.hamming_pairs", "association.queries",
                "association.accepted", "optimizer.lm_iterations",
                "optimizer.ba_observations", "optimizer.ba_removed",
                "optimizer.degenerate", "worldmap.points_created",
                "worldmap.merges", "worldmap.keyframes_culled"):
        out[key] = (counts[key], "count")
    hamming_s = secs.get("features.hamming_matrix", 0.0)
    out["features.hamming_mpairs_per_s"] = (
        counts["features.hamming_pairs"] / 1e6 / hamming_s if hamming_s else 0.0,
        "Mpairs/s")
    out["association.accept_ratio"] = (
        counts["association.accepted"] / max(counts["association.queries"], 1),
        "ratio")
    out["worldmap.map_points"] = (sum(p.map_points for p in unit), "count")
    out["pipeline.init_attempts"] = (sum(p.init_attempts for p in unit), "count")
    out["pipeline.init_gap_frames"] = (
        sum(p.init_frame - 2 for p in unit if p.init_frame), "count")
    out["synth.generate_s"] = (statistics.median(generate_ns) / 1e9, "s")
    out["evaluation.evaluate_run_s"] = (
        layers["outside"].get("evaluation.evaluate_run", 0) / 1e9, "s")
    return out
