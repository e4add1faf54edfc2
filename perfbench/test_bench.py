"""Tests of the benchmark itself: every metric is reported with its unit, the
exact counts match their formulas, and traced mode leaves the library as it
found it.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
from oacnet import correlation, geometry, network, pipeline, storage, tensor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# long enough for desk_train's loss check (ten or more steps) in either mode
SECONDS = {"desk_train": 3.0, "paper_train": 2.0, "paper_eval": 1.0}


def _units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def _library_attributes():
    """Every module and class attribute a tracer may replace."""
    owners = (correlation, geometry, network, pipeline, storage, tensor,
              tensor.BatchNorm, tensor.Adam, pipeline.RandomProjectionProvider,
              network.AttentiveAlignmentModel)
    return {(owner.__name__, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, record = run.run(name, seed=0, seconds=SECONDS[name], trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert record["seed"] == 0 and record["src_lines"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric_and_restores_the_library(name):
    before = _library_attributes()
    result, _ = run.run(name, seed=0, seconds=SECONDS[name], trace=1)
    after = _library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    H, W, N, path = {"desk_train": (8, 8, 48, "reordered")}.get(name, (15, 15, 128, "direct"))
    issued = correlation.count_multiplications(H, W, N, path)
    assert metrics["correlation.oac_multiplies"] == issued
    assert metrics["correlation.useful_multiply_ratio"] == \
        correlation.count_nonzero_offset_entries(H, W, N) / issued
    assert metrics["correlation.oac_fwd_ms"] > 0
    if name == "desk_train":
        assert metrics["pipeline.provider_calls"] == 2
        assert metrics["geometry.border_displacement_calls"] == 2
        assert metrics["pipeline.make_batch_ms"] > metrics["pipeline.provider_ms"] > 0
    if name == "paper_eval":
        assert metrics["storage.load_checkpoint_ms"] > 0
        assert metrics["pipeline.import_feature_ms"] > metrics["storage.load_tensor_ms"] > 0
        assert metrics["correlation.oac_bwd_ms"] == 0


def test_restore_after_a_raising_call():
    class Owner:
        @staticmethod
        def fail():
            raise ValueError("boom")

    original = vars(Owner)["fail"]
    tracer = tracing.Tracer()
    tracer.wrap(Owner, "fail", "owner.fail")
    with pytest.raises(ValueError):
        Owner.fail()
    tracer.restore()
    assert vars(Owner)["fail"] is original
    assert tracer.spans[0][0] == "owner.fail" and tracer.spans[0][2] is not None


def test_self_time_subtracts_children():
    # step 1: step [0, 10] > batch_loss [1, 9] > forward [2, 5] > oac_fwd [3, 4]
    spans = [
        ["step", 0.0, 10.0, -1, 1],
        ["pipeline.batch_loss_and_grads", 1.0, 9.0, 0, 1],
        ["network.AttentiveAlignmentModel.forward_features", 2.0, 5.0, 1, 1],
        ["correlation.oac_forward_direct", 3.0, 4.0, 2, 1],
        ["storage.load_checkpoint", 0.0, 0.5, -1, None],
    ]
    out = tracing.summarize(spans, pairs_per_step=1)
    assert out["unattributed_ms"] == pytest.approx(2e3)
    assert out["pipeline.batch_loss_self_ms"] == pytest.approx(5e3)
    assert out["network.forward_ms"] == pytest.approx(3e3)
    assert out["network.self_ms"] == pytest.approx(2e3)
    assert out["correlation.oac_fwd_ms"] == pytest.approx(1e3)
    assert out["storage.load_checkpoint_ms"] == pytest.approx(500.0)
