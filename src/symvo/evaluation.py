"""Trajectory alignment error, motion-bias metrics, and the ablation grid.

The headline metric is the translational RMSE of the estimate after a
closed-form similarity alignment to the start and end segments of the
ground truth; the motion-bias of a sequence is the difference of that
error between its forward and backward passes.  ``BiasReport.to_dict`` is
the one writer of the study's numbers: plain JSON-ready values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlignmentDegenerateError, AssociationPairingError, SymvoError
from .pipeline import Pipeline, PipelineConfig, reverse
from .trajectory import Trajectory

@dataclass(frozen=True)
class SimilarityTransform:
    scale: float
    rotation: np.ndarray
    translation: np.ndarray


def umeyama(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Closed-form similarity minimizing |target - (s R source + t)|^2."""
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.shape != dst.shape or src.shape[0] < 3:
        raise AlignmentDegenerateError("need at least three paired positions")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / len(src)
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    var_s = float(np.mean(np.sum(xs * xs, axis=1)))
    if var_s < 1e-15:
        raise AlignmentDegenerateError("source positions are coincident")
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S)) / var_s
    t = mu_d - s * (R @ mu_s)
    return SimilarityTransform(s, R, t)


def associate_timestamps(est: Trajectory, ref: Trajectory):
    """Pair estimate indices with nearest reference indices, within half
    the reference's median frame period (0.5 s for a one-pose reference).
    """
    if len(est) == 0 or len(ref) == 0:
        raise SymvoError("cannot associate empty trajectories")
    ts_ref = ref.timestamps
    tolerance = 0.5 * float(np.median(np.diff(ts_ref))) if ts_ref.size > 1 else 0.5
    pairs = []
    for i, t in enumerate(est.timestamps):
        j = int(np.argmin(np.abs(ts_ref - t)))
        if abs(ts_ref[j] - t) <= tolerance:
            pairs.append((i, j))
    if not pairs:
        raise SymvoError("no timestamp associations within tolerance")
    return pairs


def _segment_pairs(pairs, ref: Trajectory):
    segment_length = default_segment_length(ref)
    t0 = float(ref.timestamps[0])
    t1 = float(ref.timestamps[-1])
    head = [(i, j) for i, j in pairs if ref.timestamps[j] <= t0 + segment_length]
    tail = [(i, j) for i, j in pairs if ref.timestamps[j] >= t1 - segment_length]
    return head, tail


def default_segment_length(ref: Trajectory) -> float:
    """10 seconds or 10% of the span, whichever is smaller."""
    span = float(ref.timestamps[-1] - ref.timestamps[0])
    return min(10.0, 0.1 * span)


def align_start_end(estimate: Trajectory, ground_truth: Trajectory):
    """Similarity-align the estimate to the boundary segments of the truth,
    each ``default_segment_length`` long.

    Returns (aligned_estimate, SimilarityTransform).  Degenerate segments
    (fewer than three poses each, or a collinear support) raise
    AlignmentDegenerateError.
    """
    pairs = associate_timestamps(estimate, ground_truth)
    head, tail = _segment_pairs(pairs, ground_truth)
    if len(head) < 3 or len(tail) < 3:
        raise AlignmentDegenerateError(
            f"segments hold {len(head)}/{len(tail)} poses; need 3+3"
        )
    support = head + tail
    est_pts = estimate.positions()[[i for i, _ in support]]
    ref_pts = ground_truth.positions()[[j for _, j in support]]
    centered = est_pts - est_pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] < 1e-9 * max(svals[0], 1e-12):
        raise AlignmentDegenerateError("alignment support is collinear")
    transform = umeyama(est_pts, ref_pts)
    aligned = estimate.transformed(
        transform.scale, transform.rotation, transform.translation
    )
    return aligned, transform


def alignment_error(aligned: Trajectory, ground_truth: Trajectory) -> float:
    """Translational RMSE over associated pose pairs."""
    pairs = associate_timestamps(aligned, ground_truth)
    est = aligned.positions()[[i for i, _ in pairs]]
    ref = ground_truth.positions()[[j for _, j in pairs]]
    d = est - ref
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def evaluate_run(estimate: Trajectory, ground_truth: Trajectory) -> float:
    """Start/end-aligned e_r of one run."""
    aligned, _ = align_start_end(estimate, ground_truth)
    return alignment_error(aligned, ground_truth)


# ----------------------------------------------------------------------
# bias metrics


@dataclass(frozen=True)
class SequenceRun:
    """One pass over one sequence."""

    name: str
    e_r: float
    graph_stats: tuple | None = None  # (points, local keyframes, inliers)


def _aggregate(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {"rmse": math.nan, "mean": math.nan, "std": math.nan}
    return {
        "rmse": float(np.sqrt(np.mean(arr * arr))),
        "mean": float(np.mean(arr)),
        "std": float(np.std(arr)),
    }


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    q = np.percentile(arr, [0, 25, 50, 75, 100]) if arr.size else [math.nan] * 5
    return {"min": q[0], "q1": q[1], "median": q[2], "q3": q[3], "max": q[4]}


@dataclass
class BiasReport:
    """Per-sequence bias rows plus Table-style aggregates."""

    rows: list  # (name, e_r_f, e_r_b, bias)
    forward: dict  # rmse/mean/std of e_r(f)
    backward: dict
    bias: dict
    bias_quantiles: dict
    graph_stat_deltas: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"sequence": n, "e_r_forward": ef, "e_r_backward": eb,
                 "bias": b}
                for n, ef, eb, b in self.rows
            ],
            "forward": self.forward,
            "backward": self.backward,
            "bias": self.bias,
            "bias_quantiles": self.bias_quantiles,
            "graph_stat_deltas": [
                {"sequence": n, "d_points": d[0], "d_local_keyframes": d[1],
                 "d_inliers": d[2]}
                for n, d in self.graph_stat_deltas
            ],
        }


def bias_metrics(forward_runs, backward_runs) -> BiasReport:
    """Pair forward/backward runs by sequence name and tabulate the bias.

    Each name must appear exactly once per direction; a repeated or an
    unpaired name raises ``AssociationPairingError``.
    """
    forward_runs, backward_runs = list(forward_runs), list(backward_runs)
    repeated = sorted({name for runs in (forward_runs, backward_runs)
                       for name, n in Counter(run.name for run in runs).items()
                       if n > 1})
    if repeated:
        raise AssociationPairingError(
            f"repeated sequences: {', '.join(repeated)}"
        )
    fwd = {run.name: run for run in forward_runs}
    bwd = {run.name: run for run in backward_runs}
    orphans = sorted(set(fwd) ^ set(bwd))
    if orphans:
        raise AssociationPairingError(
            f"unpaired sequences: {', '.join(orphans)}"
        )
    rows = []
    deltas = []
    for name in sorted(fwd):
        f, b = fwd[name], bwd[name]
        rows.append((name, f.e_r, b.e_r, f.e_r - b.e_r))
        if f.graph_stats is not None and b.graph_stats is not None:
            deltas.append((name, tuple(
                fs - bs for fs, bs in zip(f.graph_stats, b.graph_stats)
            )))
    biases = [r[3] for r in rows]
    return BiasReport(
        rows=rows,
        forward=_aggregate([r[1] for r in rows]),
        backward=_aggregate([r[2] for r in rows]),
        bias=_aggregate(biases),
        bias_quantiles=_quantiles(biases),
        graph_stat_deltas=deltas,
    )


# ----------------------------------------------------------------------
# ablation grid


ABLATION_AXES = (
    ("full", {}),
    ("no_geometric_descriptor", {"descriptor_selection": "appearance"}),
    ("no_depth_filter", {"use_depth_filter": False}),
    ("no_robust_matching", {"association_ordering": "sequential"}),
    ("no_symmetric_gates", {"constraint_mode": "heterogeneous"}),
    ("no_symmetric_covariance", {"covariance_model": "standard"}),
    ("no_keep_all_outliers", {"outlier_policy": "early_removal"}),
)


def ablation_configs(base: PipelineConfig):
    return [(name, replace(base, **overrides)) for name, overrides in ABLATION_AXES]


@dataclass
class GridRow:
    config_name: str
    report: BiasReport | None
    failures: list  # (sequence, direction, health)


def _run_one(frames, cam, config, ground_truth):
    """(e_r, health, report) of one pass; e_r is None unless it ends ``ok``
    and aligns, and report is None for a pass that raised a SymvoError."""
    try:
        trajectory, report = Pipeline(cam, config).run(frames)
    except SymvoError:
        return None, "raised", None
    if report.health != "ok":
        return None, report.health, report
    try:
        e_r = evaluate_run(trajectory, ground_truth)
    except AlignmentDegenerateError:
        return None, "unevaluable", report
    return e_r, "ok", report


def ablation_grid(base_config: PipelineConfig, sequences) -> list:
    """Run the full config plus six leave-one-out configs, both directions.

    ``sequences`` is an iterable of (name, frames, cam, ground_truth); it
    is read once, so a generator serves every config.  A run that does not
    end ``ok``, whose alignment segments are degenerate (``unevaluable``),
    or that raises a ``SymvoError`` (``raised``) becomes a (sequence,
    direction, health) failure entry, and its sequence is left out of that
    config's bias report; the grid continues.  Any other exception
    propagates.
    """
    sequences = list(sequences)
    grid = []
    for config_name, config in ablation_configs(base_config):
        fwd_runs, bwd_runs, failures = [], [], []
        for name, frames, cam, gt in sequences:
            for direction, use_frames, use_gt in (
                ("fwd", frames, gt),
                ("bwd", reverse(frames), gt.reversed()),
            ):
                e_r, health, report = _run_one(use_frames, cam, config, use_gt)
                if e_r is None:
                    failures.append((name, direction, health))
                    continue
                run = SequenceRun(name=name, e_r=e_r,
                                  graph_stats=report.graph_stats)
                (fwd_runs if direction == "fwd" else bwd_runs).append(run)
        failed_names = {name for name, _, _ in failures}
        fwd_runs = [r for r in fwd_runs if r.name not in failed_names]
        bwd_runs = [r for r in bwd_runs if r.name not in failed_names]
        report = bias_metrics(fwd_runs, bwd_runs) if fwd_runs else None
        grid.append(GridRow(config_name, report, failures))
    return grid

