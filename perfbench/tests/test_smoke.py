"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

import hypersheaf  # noqa: E402
from hypersheaf import laplacian, model, spectral  # noqa: E402

SEED = 7
SECONDS = 0.3


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.TINY))
def test_every_workload_reports_every_metric(name, trace, tmp_path):
    record = harness.run(workloads.TINY[name], SEED, SECONDS, trace, ROOT, tmp_path)
    assert record["attempted"] >= 1 and record["failed"] == 0, record["failures"]
    assert record["environment"]["seed"] == SEED and record["environment"]["trace"] is trace
    section, names = ("per_layer", harness.PER_LAYER) if trace else ("end_to_end", harness.END_TO_END)
    for metric, unit, better in names:
        entry = record[section][metric]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert isinstance(entry["value"], (int, float)), metric
    line = harness.result_line(record, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert list(line["metrics"]) == [m for m, *_ in names]
    json.dumps(line)


def _break_train(result):
    result.history[0]["train_loss"] = float("nan")
    return result


def _break_assemble(output):
    bundle, Y = output
    return bundle, Y + 1e-6


def _break_verify(report):
    return dataclasses.replace(report, max_eig=2.0, failures=["bound: injected"])


BREAKERS = {
    "train-light": _break_train,
    "train-full": _break_train,
    "assemble": _break_assemble,
    "verify": _break_verify,
}


@dataclasses.dataclass(frozen=True)
class Corrupted:
    """A workload whose every op output is made wrong after the op returns."""

    inner: object
    corrupt: object

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def op(self, state, inp):
        return self.corrupt(self.inner.op(state, inp))


@pytest.mark.parametrize("name", list(workloads.TINY))
def test_a_wrong_output_counts_as_a_failed_op(name, tmp_path):
    bad = Corrupted(workloads.TINY[name], BREAKERS[name])
    record = harness.run(bad, SEED, SECONDS, False, ROOT, tmp_path)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert record["end_to_end"]["fail_frac"]["value"] == 1.0
    assert harness.result_line(record, False)["correct"] is False


def test_an_op_that_raises_counts_as_a_failed_op(tmp_path):
    def diverge(result):
        raise model.TrainingDiverged(1, float("nan"))

    bad = Corrupted(workloads.TINY["train-light"], diverge)
    record = harness.run(bad, SEED, SECONDS, False, ROOT, tmp_path)
    assert record["failed"] == record["attempted"] >= 1
    assert "TrainingDiverged" in record["failures"][0]


def test_tracer_wraps_every_lookup_and_restores_it():
    originals = (spectral.jacobi_eigh, laplacian.jacobi_eigh, model._apply_signless, hypersheaf.train)
    tracer = layertrace.Tracer()
    assert tracer.missing == []
    with tracer.root("bench.op", 0):
        assert spectral.jacobi_eigh is not originals[0]
        assert laplacian.jacobi_eigh is spectral.jacobi_eigh
        assert model._apply_signless is not originals[2]
        assert hypersheaf.train is model.train is not originals[3]
        spectral.hermitian_eigenvalues(np.eye(3))
    assert (spectral.jacobi_eigh, laplacian.jacobi_eigh, model._apply_signless, hypersheaf.train) == originals
    names = [span[0] for span in tracer.spans]
    assert names == ["bench.op", "jacobi.jacobi_eigh"]
    values = layertrace.layer_metrics(tracer, [], [0])
    assert values["jacobi.calls"] == 1.0 and values["jacobi.max_dim"] == 6.0


def test_a_metric_whose_target_is_gone_is_missing_not_zero(monkeypatch):
    monkeypatch.delattr(model, "_apply_signless")
    tracer = layertrace.Tracer()
    assert tracer.missing == ["model._apply_signless"]
    values = layertrace.layer_metrics(tracer, [], [])
    assert values["model.signless_apply_s"] is None
    assert values["model.classifier_s"] is None
    assert values["model.layer_norm_s"] == 0.0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_uses_the_marks_around_each_interval():
    speed = harness.SpeedScale()
    speed.marks = [harness.REFERENCE_MS * f for f in (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2)]
    assert speed.factor(0) == 1.0  # marks 0..4
    assert speed.factor(8) == 0.5  # marks 5..12
    assert speed.factor(4) == pytest.approx(1 / 1.5)  # marks 1..8: four at 1x, four at 2x
