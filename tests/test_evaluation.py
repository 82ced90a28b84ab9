import numpy as np

from symvo import evaluation
from symvo.evaluation import ABLATION_AXES, ablation_grid
from symvo.geometry import Pose
from symvo.pipeline import FrameInput, PipelineConfig, RunReport
from symvo.trajectory import Trajectory

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
                               graph_stats=(0, 0, 0), digest="")
            return circle(stamps), report

    return Stub


def sequences():
    frames = [FrameInput(float(t), np.zeros((0, 2)), np.zeros(0, np.int64),
                         np.zeros((0, 32), np.uint8)) for t in range(N)]
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
    seen = []
    grid = ablation_grid(PipelineConfig(), sequences(),
                         progress=lambda *args: seen.append(args[3]))
    assert len(grid) == len(ABLATION_AXES)
    for row in grid:
        assert row.report is None
        assert row.failures == [("seq", "fwd", "unevaluable"),
                                ("seq", "bwd", "unevaluable")]
    assert set(seen) == {"unevaluable"}
