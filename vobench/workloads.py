"""The benchmark's workloads: one synthetic scene each, plus the configs run on it.

Every workload runs each of its configs forward and backward over the first
``frames`` frames of one generated sequence.  Taking a prefix keeps a
scene's motion per frame (and so its initialization behaviour) while
bounding the cost of a pass.  The scene seed comes from the command line;
nothing else about the inputs varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed on which later speed claims are re-checked; no tuning used it.
HELD_OUT_SEED = 1009

# The forward-corridor scene of the roadmap's re-anchor: SceneSpec defaults
# (2000 landmarks, 50-unit path) over 30 frames, 0.5 px noise, 5% decoys.
CORRIDOR = dict(trajectory="forward-corridor", n_frames=30,
                noise_px=0.5, outlier_rate=0.05)

# A sparse 300-landmark cloud that stays in view from the whole orbit,
# 4.5 degrees of orbit per frame.
ORBIT = dict(trajectory="orbit", n_landmarks=300, n_frames=80,
             path_length=20.0, noise_px=0.5, outlier_rate=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # SceneSpec keyword arguments, apart from the seed
    frames: int  # passes run over this many leading frames
    ablation: bool = False  # run every evaluation.ABLATION_AXES config


WORKLOADS = {
    w.name: w for w in (
        # Association-heavy forward motion; shows the initialization gap.
        Workload("corridor", CORRIDOR, frames=12),
        # Long tracks: local BA and map upkeep dominate, hamming does not.
        Workload("orbit", ORBIT, frames=48),
        # The same modules on the six toggled paths; counts failing configs.
        Workload("ablation", ORBIT, frames=12, ablation=True),
    )
}
