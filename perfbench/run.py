"""classlink benchmark: seeded synthetic workloads run through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` each repeat runs three ``classlink`` child processes from
this checkout's ``src/`` in a fresh run directory, one after another:
``ingest``, a cold ``run-all`` and a warm ``run-all``.  Repeats cycle over
several input graphs drawn from the seed and continue for ``--seconds``; each
end-to-end metric is the mean over the graphs of its median over their
repeats, and times are rescaled to a reference CPU speed.  With
``--trace 1`` the same three phases run inside one process per repeat, once
untraced and once with every layer function wrapped (see ``tracing.py``), and
the per-layer metrics are medians of self times plus exact work counts.

Inputs are generated from ``--seed`` before any timing starts; the program
sees only the files.  Every repeat's outputs are checked; a repeat that fails
a check counts as failed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here
for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT))

from perfbench.synth import CORA, MID, Preset, write_inputs  # noqa: E402
from perfbench.tracing import self_times  # noqa: E402

# How much work a graph gives Louvain, k-means and training varies with the
# graph, so a timed run measures several graphs drawn from its seed and
# averages them.  Repeats cycle over the graphs; every graph runs at least
# once and the first at least twice, for the byte-identity check.
INPUT_SETS = 3
# A CPU's speed can drift by a factor of two within seconds on a shared host.
# The run is pinned to one CPU, and while a child runs there a thread of this
# process times a short fixed loop in its own CPU time every SAMPLE_EVERY_S.
# Each child's wall time is rescaled to a CPU on which that loop takes
# CALIBRATION_REF_S, which is a definition, not a measurement.
CALIBRATION_LOOPS = 20_000
CALIBRATION_REF_S = 0.002
SAMPLE_EVERY_S = 0.04
DEADLINE = time.perf_counter() + 170.0  # children still running then are killed
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    preset: Preset
    config: dict
    artifacts: tuple[str, ...]  # byte-identical across repeats
    upstream: tuple[str, ...]  # stages the warm run-all must find up to date


_REPORTS = ("eval/report.json", "eval/ranks.csv")

# Node counts are scaled so a repeat takes a few seconds; each graph keeps
# its preset's classes, features, density, mean degree and homophily.
WORKLOADS = {
    # The backbone does nearly all the work; clustering and heuristics none.
    "cora-ncnc": Workload(
        CORA.scaled(0.3),
        {
            "label_source": "true",
            "mode": "ncnc",
            "scorer": "model",
            "epochs": 10,
            "patience": 10,  # early stopping never shortens the fixed budget
            "metric": "hr@100",
        },
        _REPORTS + ("checkpoint.json",),
        ("ingest", "split", "prior", "train"),
    ),
    # Graph-sized: Louvain sweeps, per-positive negative sampling, per-pair RA.
    "sbm-louvain-hc": Workload(
        MID.scaled(0.3),
        {
            "label_source": "louvain",
            "scorer": "hc",
            "hc_base": "ra",
            "per_edge_negatives": 30,
            "metric": "hr@20",
        },
        _REPORTS,
        ("ingest", "split", "cluster", "prior"),
    ),
    # Cora files again: dense Lloyd iterations and Katz mat-vecs instead.
    "cora-kmeans-katz": Workload(
        CORA.scaled(0.3),
        {
            "label_source": "kmeans",
            "k_grid": list(range(2, 11)),
            "max_iters": 10,  # most Lloyd runs hit the cap, so work barely depends on the seed
            "scorer": "hc",
            "hc_base": "katz",
            "per_edge_negatives": 120,
            # many pairs have no short walks and tie near rank 60; a cut above
            # that tie band keeps the hit rate steady across seeds
            "metric": "hr@80",
        },
        _REPORTS,
        ("ingest", "split", "cluster", "prior"),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("quality", "ratio"),
)
# the three timed children, in order, and the name of their unscaled time
WALL_METRICS = {"setup_s": "setup_wall_s", "pipeline_s": "pipeline_wall_s",
                "rerun_s": "rerun_wall_s"}

# (metric, unit, how, span names): "incl" sums span durations, "self" sums
# self times, "calls" counts spans, "counter" reads a counter.
SPAN_METRICS = (
    ("cli.ingest_s", "s", "incl", ("cli.cmd_ingest",)),
    ("cli.split_s", "s", "incl", ("cli.cmd_split",)),
    ("cli.cluster_s", "s", "incl", ("cli.cmd_cluster",)),
    ("cli.prior_s", "s", "incl", ("cli.cmd_prior",)),
    ("cli.train_s", "s", "incl", ("cli.cmd_train",)),
    ("cli.evaluate_s", "s", "incl", ("cli.cmd_evaluate",)),
    ("cli.self_s", "s", "self", ("cli.main", "cli.cmd_ingest", "cli.cmd_split",
                                 "cli.cmd_cluster", "cli.cmd_prior", "cli.cmd_train",
                                 "cli.cmd_evaluate", "cli.cmd_run_all")),
    ("graph.load_graph_s", "s", "self", ("graph.load_graph",)),
    ("graph.graph_json_s", "s", "self", ("graph.save_graph_json", "graph.load_graph_json")),
    ("graph.load_graph_json_calls", "count", "calls", ("graph.load_graph_json",)),
    ("graph.split_json_s", "s", "self", ("graph.save_split_json", "graph.load_split_json")),
    ("graph.split_edges_s", "s", "self", ("graph.split_edges",)),
    ("graph.train_graph_s", "s", "self", ("graph.EdgeSplit.train_graph",)),
    ("graph.train_graph_calls", "count", "calls", ("graph.EdgeSplit.train_graph",)),
    ("graph.sample_negatives_s", "s", "self", ("graph.sample_negatives",)),
    ("graph.sample_negatives_calls", "count", "calls", ("graph.sample_negatives",)),
    ("graph.negatives_sampled", "count", "counter", ("graph.negatives_sampled",)),
    ("priors.count_class_links_s", "s", "self", ("priors.count_class_links",)),
    ("priors.lookup_prior_batch_s", "s", "self", ("priors.lookup_prior_batch",)),
    ("priors.prior_io_s", "s", "self", ("priors.save_prior_json", "priors.load_prior_json",
                                        "priors.export_heatmap")),
    ("clustering.louvain_s", "s", "self", ("clustering.louvain",)),
    ("clustering.elbow_kmeans_s", "s", "self", ("clustering.elbow_kmeans",)),
    ("clustering.aggregate_features_s", "s", "self", ("clustering.aggregate_features",)),
    ("clustering.k", "count", "counter", ("clustering.k",)),
    ("heuristics.hc_s", "s", "self", ("heuristics.class_heuristic_score",)),
    ("heuristics.ra_s", "s", "self", ("heuristics.ra_score",)),
    ("heuristics.katz_s", "s", "self", ("heuristics.katz_score",)),
    ("heuristics.scorer_s", "s", "self", ("heuristics.scorer",)),
    ("heuristics.pairs_scored", "count", "counter", ("heuristics.pairs_scored",)),
    ("backbone.train_s", "s", "self", ("backbone.train",)),
    ("backbone.epochs", "count", "counter", ("backbone.epochs",)),
    ("backbone.batch_build_s", "s", "self", ("backbone.BatchBuilder.build",)),
    ("backbone.batch_build_calls", "count", "calls", ("backbone.BatchBuilder.build",)),
    ("backbone.neighborhood_entries", "count", "counter", ("backbone.neighborhood_entries",)),
    ("backbone.completion_s", "s", "incl", ("backbone.completion",)),
    ("backbone.completion_pairs", "count", "counter", ("backbone.completion_pairs",)),
    ("backbone.forward_loss_s", "s", "self", ("backbone.forward_loss",)),
    ("backbone.backward_s", "s", "self", ("backbone.backward",)),
    ("backbone.predict_batch_s", "s", "self", ("backbone.predict_batch",)),
    ("backbone.checkpoint_io_s", "s", "self", ("backbone.save_checkpoint",
                                               "backbone.load_checkpoint",
                                               "backbone.save_training_log")),
    ("backbone.make_scorer_s", "s", "self", ("backbone.make_scorer",)),
    ("evaluation.evaluate_split_s", "s", "self", ("evaluation.evaluate_split",)),
    ("evaluation.rank_positive_s", "s", "self", ("evaluation.rank_positive",)),
    ("evaluation.rank_positive_calls", "count", "calls", ("evaluation.rank_positive",)),
    ("evaluation.pairs_scored", "count", "counter", ("evaluation.pairs_scored",)),
    ("evaluation.save_report_s", "s", "self", ("evaluation.save_report",)),
)
DERIVED_METRICS = (
    ("cli.artifact_bytes", "bytes"),
    ("heuristics.us_per_pair", "us"),
    ("backbone.train_pairs_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple((m, u) for m, u, _, _ in SPAN_METRICS) + DERIVED_METRICS
STAGE_SPANS = tuple(names[0] for m, _, how, names in SPAN_METRICS
                    if how == "incl" and m.startswith("cli."))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    command: str
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_mib: float = 0.0
    calibration_s: float = math.nan  # the loop's mean time while this child ran

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * CALIBRATION_REF_S / self.calibration_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def loop_cpu_s() -> float:
    """CPU time of one fixed loop: the current speed of the CPU it ran on."""
    t0 = time.thread_time()
    x = 0
    for j in range(CALIBRATION_LOOPS):
        x += j * j % 7
    return time.thread_time() - t0


class SpeedSampler:
    """Times the loop every SAMPLE_EVERY_S from a thread until stopped."""

    def __init__(self) -> None:
        self.samples = [loop_cpu_s()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(loop_cpu_s())

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self.samples.append(loop_cpu_s())
        return statistics.fmean(self.samples)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, the sampler's."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(name: str, argv: list[str], cwd: Path, log: Path) -> Phase:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    with open(f"{log}.out", "w+") as out, open(f"{log}.err", "w+") as err:
        sampler = SpeedSampler()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, DEADLINE - time.perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        calibration = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Phase(name, seconds, proc.returncode, out.read(), err.read(),
                     usage.ru_maxrss / 1024.0, calibration)


def timed_repeat(cfg: Path, run_dir: Path) -> list[Phase]:
    phases = []
    for i, command in enumerate(("ingest", "run-all", "run-all")):
        argv = [sys.executable, "-m", "classlink", command, "--config", str(cfg)]
        phases.append(run_child(command, argv, run_dir, run_dir / f"phase{i}"))
        if phases[-1].exit_code != 0:
            break
    return phases


def traced_repeat(cfg: Path, run_dir: Path, traced: bool) -> tuple[list[Phase], dict]:
    """The three phases in one process; the payload holds counters and spans."""
    tag = "traced" if traced else "plain"
    result = run_dir / f"{tag}.json"
    argv = [sys.executable, "-m", "perfbench.tracing", "--config", str(cfg),
            "--out", str(result), "--src", str(SRC)] + ([] if traced else ["--off"])
    proc = run_child("tracer", argv, ROOT, run_dir / tag)
    if proc.exit_code != 0 or not result.exists():
        return [proc], {}
    payload = json.loads(result.read_text())
    return [Phase(**p) for p in payload["phases"]], payload


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recomputed_quality(metric: str, ranks: list[int]) -> float:
    if metric == "mrr":
        return sum(1.0 / r for r in ranks) / len(ranks)
    k = int(metric.split("@")[1])
    return sum(r <= k for r in ranks) / len(ranks)


def check_repeat(wl: Workload, phases: list[Phase], run_dir: Path,
                 reference: dict[str, str]) -> tuple[list[str], float]:
    """Problems found in one repeat (empty when it passed) and its quality."""
    problems = []
    for ph in phases:
        if ph.exit_code != 0:
            problems.append(f"{ph.command} exited with {ph.exit_code}: {ph.stderr.strip()[-300:]}")
        if "error[" in ph.stderr:
            problems.append(f"{ph.command} printed an error line")
    if len(phases) < 3:
        return problems or ["pipeline stopped early"], math.nan
    for stage in wl.upstream:
        if f"{stage}: up to date" not in phases[2].stdout:
            problems.append(f"warm run-all did not find {stage} up to date")
    for name in wl.artifacts:
        path = run_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        digest = _sha256(path)
        if reference.setdefault(name, digest) != digest:
            problems.append(f"{name} differs from the first repeat")
    try:
        report = json.loads((run_dir / "eval/report.json").read_text())
        ranks = [int(line.rsplit(",", 1)[1]) for line in
                 (run_dir / "eval/ranks.csv").read_text().splitlines()]
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"unreadable report: {exc}"], math.nan
    quality = float(report["value"])
    if not (math.isfinite(quality) and 0.0 <= quality <= 1.0):
        problems.append(f"quality {quality} is not in [0, 1]")
    if len(ranks) != report["n_positives"] or not ranks:
        problems.append("ranks.csv does not hold one rank per positive")
    elif any(not 1 <= r <= report["n_negatives"] + 1 for r in ranks):
        problems.append("a rank lies outside [1, negatives + 1]")
    elif abs(recomputed_quality(wl.config["metric"], ranks) - quality) > 1e-12:
        problems.append("report value does not match the ranks")
    return problems, quality


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(payload: dict, spans_path: Path, out_dir: Path) -> dict:
    """Per-layer values of one traced repeat."""
    import numpy as np

    with np.load(spans_path, allow_pickle=False) as z:
        names = np.array([str(n) for n in z["names"]], dtype=object)
        name_id, start, end, parent = z["name_id"], z["start"], z["end"], z["parent"]
    span_name = names[name_id]
    selfs = self_times(start, end, parent)
    dur = end - start
    counters = payload["counters"]

    def select(wanted) -> np.ndarray:
        return np.isin(span_name, list(wanted))

    values = {}
    for metric, _, how, wanted in SPAN_METRICS:
        mask = select(wanted)
        if how == "incl":
            values[metric] = float(dur[mask].sum())
        elif how == "self":
            values[metric] = float(selfs[mask].sum())
        elif how == "calls":
            values[metric] = int(mask.sum())
        else:
            values[metric] = counters.get(wanted[0], 0)

    heuristics = np.array([n.startswith("heuristics.") for n in span_name], dtype=bool)
    pairs = counters.get("heuristics.pairs_scored", 0)
    values["heuristics.us_per_pair"] = (
        1e6 * float(selfs[heuristics].sum()) / pairs if pairs else 0.0)
    train = select(["backbone.train"])
    outer_train = train & ~np.isin(parent, np.flatnonzero(train))
    train_time = float(dur[outer_train].sum())
    values["backbone.train_pairs_per_s"] = (
        counters.get("backbone.train_pairs", 0) / train_time if train_time else 0.0)
    values["cli.artifact_bytes"] = sum(
        f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    values["trace.spans"] = int(name_id.size)

    # self times are clipped to their parent, so summed by layer under a
    # stage span they add up to that span: where each stage's time went
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent.tolist()):
        children.setdefault(p, []).append(i)
    by_stage: dict[str, dict[str, float]] = {}
    for root in np.flatnonzero(select(STAGE_SPANS)).tolist():
        layers = by_stage.setdefault(span_name[root], {"total": 0.0})
        layers["total"] += dur[root]
        todo = [root]
        while todo:
            i = todo.pop()
            layer = span_name[i].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + selfs[i]
            todo.extend(children.get(i, ()))
    values["attribution"] = by_stage
    return values


# ---------------------------------------------------------------------------
# Repeats and results
# ---------------------------------------------------------------------------


def environment(cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def write_config(wl: Workload, inputs: Path, out: Path, path: Path) -> Path:
    cfg = {
        "edges": str(inputs / "edges.txt"),
        "features": str(inputs / "features.csv"),
        "labels": str(inputs / "labels.csv"),
        "out": str(out),
        "seed": 0,
        **wl.config,
    }
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    wl = WORKLOADS[workload]
    preset = wl.preset.scaled(scale)
    # traced counts must repeat exactly, so a traced run keeps to one graph
    n_sets = 1 if trace else INPUT_SETS
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        print(f"workload {workload} seed {seed}: {n_sets} graphs of {preset.n_nodes} nodes, "
              f"{preset.n_edges} edges, {preset.n_classes} classes, "
              f"{preset.n_features} features")
        for part in range(n_sets):
            digest = write_inputs(preset, seed, base / f"inputs{part}", part)
            print(f"  inputs{part} sha256 {digest}")
        print("environment " + json.dumps(environment(pin_to_one_cpu()), sort_keys=True))

        references: list[dict[str, str]] = [{} for _ in range(n_sets)]
        samples: list[dict[str, list]] = [{} for _ in range(n_sets)]
        counts_seen: dict[str, object] = {}
        attempted = failed = 0
        t_end = time.perf_counter() + seconds
        longest = 0.0
        while time.perf_counter() < DEADLINE and (
                attempted <= n_sets or time.perf_counter() + longest <= t_end):
            t0 = time.perf_counter()
            part = attempted % n_sets
            ok, values = (traced_pair if trace else timed_once)(
                wl, base / f"r{attempted}", base / f"inputs{part}", references[part],
                counts_seen)
            attempted += 1
            failed += not ok
            if ok:
                for k, v in values.items():
                    samples[part].setdefault(k, []).append(v)
            longest = max(longest, time.perf_counter() - t0)
        print(f"repeats {attempted} attempted, {failed} failed, "
              f"failed_frac {failed / attempted:.4f} ratio")

        metrics = {}
        for name, unit in (PER_LAYER if trace else END_TO_END):
            per_set = [s[name] for s in samples if s.get(name)]
            if len(per_set) < n_sets:
                continue
            if unit == "count":  # counts repeat exactly; checked in traced_pair
                value = per_set[0][0]
            else:
                value = statistics.fmean(statistics.median(vals) for vals in per_set)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<34} {value:>14.6g} {unit:<6} (mean over graphs of the median "
                  f"over their repeats; {sum(map(len, per_set))} samples)")
            if not trace:
                for part, vals in enumerate(per_set):
                    print(f"    graph {part}: " + " ".join(f"{v:.4g}" for v in vals))
        if not trace:
            print("unscaled wall seconds, mean over graphs of the median:")
            for name in WALL_METRICS.values():
                value = statistics.fmean(statistics.median(s[name]) for s in samples if s)
                print(f"  {name:<34} {value:>14.6g} s")
        if samples[0].get("attribution"):
            print("self seconds by layer inside each cli stage (last traced repeat):")
            for stage, layers in samples[0]["attribution"][-1].items():
                total = layers.pop("total")
                parts = sorted(layers.items(), key=lambda kv: -kv[1])
                print(f"  {stage} {total:.4g} s: " + ", ".join(f"{k} {v:.4g}" for k, v in parts))
        correct = failed == 0 and len(metrics) == len(PER_LAYER if trace else END_TO_END)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()


def _fresh(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)


def timed_once(wl: Workload, run_dir: Path, inputs: Path, reference: dict, _counts: dict):
    _fresh(run_dir)
    out = run_dir / "out"
    cfg = write_config(wl, inputs, out, run_dir / "run.json")
    phases = timed_repeat(cfg, run_dir)
    problems, quality = check_repeat(wl, phases, out, reference)
    for p in problems:
        print(f"  check failed: {p}", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    if problems:
        return False, {}
    values = {"peak_rss_mb": max(p.maxrss_mib for p in phases), "quality": quality}
    for (name, wall), phase in zip(WALL_METRICS.items(), phases):
        values[name] = phase.scaled_seconds
        values[wall] = phase.seconds
    return True, values


def traced_pair(wl: Workload, run_dir: Path, inputs: Path, reference: dict,
                counts_seen: dict):
    """One untraced and one traced in-process run; per-layer values of the latter."""
    _fresh(run_dir)
    walls = {}
    values: dict = {}
    problems: list[str] = []
    for traced in (False, True):
        out = run_dir / ("traced" if traced else "plain")
        cfg = write_config(wl, inputs, out, out.with_suffix(".yaml"))
        phases, payload = traced_repeat(cfg, run_dir, traced)
        found, _ = check_repeat(wl, phases, out, reference)
        problems += found
        walls[traced] = sum(p.seconds for p in phases)
        if traced and not found:
            values = layer_metrics(payload, run_dir / payload["spans"], out)
    shutil.rmtree(run_dir, ignore_errors=True)
    for name, _, how, _ in SPAN_METRICS:
        if how in ("calls", "counter") and name in values:
            if counts_seen.setdefault(name, values[name]) != values[name]:
                problems.append(f"{name} changed between repeats")
    for p in problems:
        print(f"  check failed: {p}", file=sys.stderr)
    if problems:
        return False, {}
    values["trace.overhead"] = walls[True] / walls[False]
    return True, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply node and edge counts (small values for smoke tests)")
    args = parser.parse_args()
    if not (SRC / "classlink" / "__init__.py").is_file():
        print(f"error: no classlink sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
