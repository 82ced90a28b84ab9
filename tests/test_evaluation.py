import json
import math

import numpy as np
import pytest

from symvo import evaluation
from symvo.errors import AssociationPairingError, DegenerateProblemError
from symvo.evaluation import ABLATION_AXES, SequenceRun, ablation_grid, bias_metrics
from symvo.geometry import Pose
from symvo.pipeline import FrameInput, PipelineConfig, RunReport
from symvo.trajectory import Trajectory
from symvo.worldmap import GraphStats

N = 40  # default segments then hold 4 poses at each end


def circle(timestamps) -> Trajectory:
    angles = np.linspace(0.0, np.pi, len(timestamps))
    poses = [Pose(np.eye(3), (np.cos(a), np.sin(a), 0.1 * a)) for a in angles]
    return Trajectory(np.asarray(timestamps, dtype=np.float64), tuple(poses))


def stub_pipeline(n_poses):
    """A Pipeline stand-in whose runs end ok with ``n_poses`` poses."""

    class Stub:
        def __init__(self, cam, config):
            pass

        def run(self, frames):
            stamps = [f.timestamp for f in frames][:n_poses]
            report = RunReport(health="ok", n_frames=len(frames),
                               n_tracked=len(stamps), lost_at_frame=None,
                               graph_stats=GraphStats(0, 0, 0), digest="")
            return circle(stamps), report

    return Stub


def raising_pipeline(exc):
    """A Pipeline stand-in whose forward runs end ok and whose backward runs
    raise ``exc``."""
    ok = stub_pipeline(N)

    class Stub(ok):
        def run(self, frames):
            if frames[0].n_keypoints:  # only a backward pass starts on one
                raise exc
            return super().run(frames)

    return Stub


def sequences():
    """One sequence whose frame t holds t keypoints, so the forward pass
    starts on an empty frame and the backward pass does not."""
    frames = [FrameInput(float(t), np.zeros((t, 2)), np.zeros(t, np.int64),
                         np.zeros((t, 32), np.uint8)) for t in range(N)]
    yield "seq", frames, None, circle(range(N))


def test_generator_input_serves_every_config(monkeypatch):
    monkeypatch.setattr(evaluation, "Pipeline", stub_pipeline(N))
    grid = ablation_grid(PipelineConfig(), sequences())
    assert [row.config_name for row in grid] == [name for name, _ in ABLATION_AXES]
    for row in grid:
        assert row.failures == []
        assert [r[0] for r in row.report.rows] == ["seq"]


def test_unevaluable_run_is_a_failure_entry(monkeypatch):
    monkeypatch.setattr(evaluation, "Pipeline", stub_pipeline(2))
    grid = ablation_grid(PipelineConfig(), sequences())
    assert len(grid) == len(ABLATION_AXES)
    for row in grid:
        assert row.report is None
        assert row.failures == [("seq", "fwd", "unevaluable"),
                                ("seq", "bwd", "unevaluable")]


def test_raising_run_is_a_failure_entry(monkeypatch):
    monkeypatch.setattr(evaluation, "Pipeline", raising_pipeline(
        DegenerateProblemError("normal equations are singular")))
    grid = ablation_grid(PipelineConfig(), sequences())
    assert [row.config_name for row in grid] == [name for name, _ in ABLATION_AXES]
    for row in grid:
        assert row.report is None
        assert row.failures == [("seq", "bwd", "raised")]


def test_errors_outside_the_program_propagate(monkeypatch):
    monkeypatch.setattr(evaluation, "Pipeline",
                        raising_pipeline(RuntimeError("not a SymvoError")))
    with pytest.raises(RuntimeError, match="not a SymvoError"):
        ablation_grid(PipelineConfig(), sequences())


# hand-made runs: biases (f - b) are -1, 1 and 3
FORWARD = [SequenceRun("c", 4.0, (5, 2, 9)), SequenceRun("a", 1.0, (3, 1, 4)),
           SequenceRun("b", 2.0)]
BACKWARD = [SequenceRun("b", 1.0), SequenceRun("a", 2.0, (1, 1, 6)),
            SequenceRun("c", 1.0, (5, 3, 2))]


def test_bias_pairs_runs_by_name():
    report = bias_metrics(FORWARD, BACKWARD)
    assert report.rows == [("a", 1.0, 2.0, -1.0), ("b", 2.0, 1.0, 1.0),
                           ("c", 4.0, 1.0, 3.0)]
    # a sequence without graph stats in either direction has no delta row
    assert report.graph_stat_deltas == [("a", (2, 0, -2)), ("c", (0, -1, 7))]


@pytest.mark.parametrize("forward, backward, orphans", [
    (FORWARD, BACKWARD[:2], "c"),
    (FORWARD[1:], BACKWARD, "c"),
    (FORWARD + [SequenceRun("d", 1.0)], BACKWARD + [SequenceRun("e", 1.0)], "d, e"),
])
def test_unpaired_sequences_raise(forward, backward, orphans):
    with pytest.raises(AssociationPairingError,
                       match=f"unpaired sequences: {orphans}$"):
        bias_metrics(forward, backward)


@pytest.mark.parametrize("forward, backward, repeated", [
    (FORWARD + [SequenceRun("a", 3.0)], BACKWARD, "a"),
    (FORWARD, BACKWARD + [SequenceRun("c", 0.5), SequenceRun("b", 0.5)], "b, c"),
])
def test_repeated_sequences_raise(forward, backward, repeated):
    with pytest.raises(AssociationPairingError,
                       match=f"repeated sequences: {repeated}$"):
        bias_metrics(forward, backward)


def test_bias_aggregates_match_hand_values():
    report = bias_metrics(FORWARD, BACKWARD)
    # population statistics: std is sqrt(mean(x^2) - mean^2)
    for got, (rmse, mean, std) in (
        (report.forward, (math.sqrt(7.0), 7.0 / 3.0, math.sqrt(14.0) / 3.0)),
        (report.backward, (math.sqrt(2.0), 4.0 / 3.0, math.sqrt(2.0) / 3.0)),
        (report.bias, (math.sqrt(11.0 / 3.0), 1.0, math.sqrt(8.0 / 3.0))),
    ):
        assert got == pytest.approx({"rmse": rmse, "mean": mean, "std": std},
                                    rel=1e-15)
    # linear interpolation between the sorted biases -1, 1, 3
    assert report.bias_quantiles == {"min": -1.0, "q1": 0.0, "median": 1.0,
                                     "q3": 2.0, "max": 3.0}


def test_bias_of_no_runs_is_nan():
    report = bias_metrics([], [])
    assert report.rows == [] and report.graph_stat_deltas == []
    for values in (report.forward, report.backward, report.bias,
                   report.bias_quantiles):
        assert values and all(math.isnan(v) for v in values.values())


def test_to_dict_holds_the_report_as_json_values():
    out = bias_metrics(FORWARD, BACKWARD).to_dict()
    assert out["rows"] == [
        {"sequence": "a", "e_r_forward": 1.0, "e_r_backward": 2.0, "bias": -1.0},
        {"sequence": "b", "e_r_forward": 2.0, "e_r_backward": 1.0, "bias": 1.0},
        {"sequence": "c", "e_r_forward": 4.0, "e_r_backward": 1.0, "bias": 3.0},
    ]
    for key, (rmse, mean, std) in (
        ("forward", (math.sqrt(7.0), 7.0 / 3.0, math.sqrt(14.0) / 3.0)),
        ("backward", (math.sqrt(2.0), 4.0 / 3.0, math.sqrt(2.0) / 3.0)),
        ("bias", (math.sqrt(11.0 / 3.0), 1.0, math.sqrt(8.0 / 3.0))),
    ):
        assert out[key] == pytest.approx({"rmse": rmse, "mean": mean, "std": std},
                                         rel=1e-15)
    assert out["bias_quantiles"] == {"min": -1.0, "q1": 0.0, "median": 1.0,
                                     "q3": 2.0, "max": 3.0}
    assert out["graph_stat_deltas"] == [
        {"sequence": "a", "d_points": 2, "d_local_keyframes": 0, "d_inliers": -2},
        {"sequence": "c", "d_points": 0, "d_local_keyframes": -1, "d_inliers": 7},
    ]
    assert set(out) == {"rows", "forward", "backward", "bias", "bias_quantiles",
                        "graph_stat_deltas"}
    assert json.loads(json.dumps(out)) == out
