"""Tests of the benchmark's tracer on a small training run.

Run from the repository root: PYTHONPATH=src python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import spans  # noqa: E402

hipan = pytest.importorskip("hipan")
pytest.importorskip("hipan.cli")


def test_spans_cover_a_training_and_are_removed():
    tree = hipan.tree.loads_tree(gen.complete_tree(3, 3).edge_text())
    ds = hipan.tree.encode_tree(tree)
    model = hipan.model.new_model(hipan.model.ModelConfig(ds.codec), seed=0)
    original = hipan.optim._gist_sweep
    tracer = spans.Tracer(hipan)
    try:
        assert hipan.optim._gist_sweep is not original
        with tracer.span("bench.train"):
            result = hipan.optim.train(
                model, ds, hipan.optim.GistConfig(), hipan.optim.default_plan(ds.codec.K), tree=tree
            )
    finally:
        tracer.close()
    assert hipan.optim._gist_sweep is original

    summary = tracer.summary()
    epochs = len(result.history)
    assert summary["optim.sweep"]["calls"] == epochs
    assert summary["optim.epoch_metrics"]["calls"] == epochs
    assert summary["model.descent"]["calls"] == epochs * ds.n_records
    # every span's duration is its self time plus its children's durations,
    # so the self times add up to the one span without a parent
    assert sum(s["self"] for s in summary.values()) == pytest.approx(summary["bench.train"]["total"])
    assert summary["model.reconstruct"]["self"] == pytest.approx(summary["model.reconstruct"]["total"])

    metrics = tracer.metrics(wall_s=1.0)
    assert set(metrics) == set(spans.METRICS) | {"trace.spans", "trace.wall_s", "trace.overhead_est_pct"}
    assert metrics["optim.coords_visited"]["value"] == result.evals // 3
    assert metrics["optim.adam_steps"]["value"] == 0
