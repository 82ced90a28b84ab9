"""The benchmark's span tracer still fits the program.

``vobench/spans.py`` wraps the functions its ``TARGETS`` name and binds the
arguments its counting hooks read.  A renamed target, or a renamed argument
a hook binds, breaks a traced benchmark run; this test makes it break here
too, on a short orbit run.  The tracer is loaded from its file and is not
modified.  Its accepted-match count is checked against the ``len`` of every
result ``association.match`` returns, so a change of that return type that
skews the count breaks here too.
"""

import importlib.util
import pathlib
from unittest import mock

import pytest

import symvo.association as association
import symvo.evaluation  # noqa: F401  (every traced module must be loaded)
import symvo.pipeline as pipeline
from symvo.pipeline import Pipeline, PipelineConfig
from symvo.synth import SceneSpec, generate

SPANS_PATH = pathlib.Path(__file__).parent.parent / "vobench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("vobench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_orbit_run_records_spans_and_unwinds(spans):
    seq = generate(SceneSpec(trajectory="orbit", n_landmarks=300, n_frames=80,
                             path_length=20.0, noise_px=0.5, outlier_rate=0.05,
                             seed=61))
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    inst.install()
    traced_match = association.match
    accepted = []

    def counted_match(*args, **kwargs):
        result = traced_match(*args, **kwargs)
        accepted.append(len(result))
        return result

    try:
        # both bindings the program calls ``match`` through now hold the
        # tracer's wrapper; each is wrapped once more to count accepted pairs
        with mock.patch.object(association, "match", wraps=counted_match), \
                mock.patch.object(pipeline, "match", wraps=counted_match):
            _, report = Pipeline(seq.cam, PipelineConfig()).run(seq.frames[:4])
    finally:
        inst.uninstall()
    assert report.health == "ok"
    names = {s[3] for s in tracer.spans}
    assert {"worldmap.create_point", "worldmap.refresh_points",
            "association.search_by_projection", "association.match",
            "optimizer.local_bundle_adjustment"} <= names
    assert all(s[5] >= s[4] for s in tracer.spans)
    assert tracer.counts["worldmap.points_created"] > 0
    assert tracer.counts["association.queries"] > 0
    assert len(accepted) == sum(s[3] == "association.match" for s in tracer.spans)
    assert sum(accepted) == tracer.counts["association.accepted"] > 0
    assert tracer.counts["optimizer.lm_iterations"] > 0
    assert inst.leftover_wrappers() == []
