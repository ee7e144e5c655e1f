"""Tests of the benchmark itself: generator, self-time arithmetic, smoke runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.run import WORKLOADS
from perfbench.synth import CORA, INPUT_FILES, MID, planted_graph, write_inputs
from perfbench.tracing import self_times

ROOT = Path(__file__).resolve().parents[1]
TINY = CORA.scaled(0.05)


def test_generator_is_byte_deterministic_per_seed_and_part(tmp_path):
    first = write_inputs(TINY, 7, tmp_path / "a")
    again = write_inputs(TINY, 7, tmp_path / "b")
    assert first == again
    for name in INPUT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert write_inputs(TINY, 8, tmp_path / "c") != first
    assert write_inputs(TINY, 7, tmp_path / "d", part=1) != first


def test_generator_keeps_the_preset_shape():
    preset = MID.scaled(0.1)
    edges, features, labels = planted_graph(preset, 3)
    assert edges.shape == (preset.n_edges, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.unique(edges, axis=0).shape[0] == preset.n_edges
    assert set(np.unique(labels).tolist()) == set(range(preset.n_classes))
    homophily = float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]]))
    assert abs(homophily - preset.homophily) < 0.05
    assert abs(features.mean() - preset.density) < 0.5 * preset.density


def _self(spans):
    """spans: (start, end, parent) triples."""
    start, end, parent = (np.array(col) for col in zip(*spans))
    return self_times(start, end, parent)


def test_self_times_on_the_ncnc_recursion_shape():
    # cmd_train > train > {train (stage 1) > build, make_scorer, build > completion}
    spans = [
        (0.0, 10.0, -1),  # 0 cli.cmd_train
        (1.0, 9.0, 0),  # 1 backbone.train (ncnc)
        (2.0, 5.0, 1),  # 2 backbone.train (stage-1 ncn), nested in 1
        (3.0, 4.0, 2),  # 3 build inside stage 1
        (5.0, 6.0, 1),  # 4 make_scorer for the completion scorer
        (6.0, 8.0, 1),  # 5 ncnc build
        (6.5, 7.5, 5),  # 6 completion scorer called by the build
    ]
    selfs = _self(spans)
    assert selfs.tolist() == [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    # the nested train is not counted twice: self times add up to the stage
    assert selfs.sum() == 10.0
    assert selfs[[1, 2]].sum() == 4.0


def test_self_times_take_the_union_of_overlapping_children():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (9.0, 12.0, 0)]
    assert _self(spans)[0] == pytest.approx(4.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 2 and result["failed"] == 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
