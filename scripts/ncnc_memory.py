#!/usr/bin/env python3
"""Time and memory of a cold ``ncnc`` train at the north star's size.

Writes the 50k-node / 400k-edge planted graph of ``perfbench.synth``
(``Preset(50000, 400000, 10, 128, 0.06, 0.6)``, generator seed 1), runs
``ingest``, ``split`` and ``prior`` (85/5/10 split, config seed 0, true
labels), then a cold ``ncnc`` ``train`` child, each a ``python -m
classlink`` process of its own.  Every child is pinned to one CPU and runs
one BLAS thread.  The script prints each child's wall time and peak RSS
(``ru_maxrss``) and the SHA-256 of the ``checkpoint.json`` that ``train``
wrote.  It then runs the same ``train`` in its own process under
``tracemalloc`` and prints that run's peak of traced memory, which, unlike
RSS, does not depend on how the heap fragments.

A child's ``ru_maxrss`` is at least the high-water RSS of the process that
spawned it, so this process imports neither numpy nor the library until
the children are done; the inputs are written by a child as well.

Usage:
    python3 scripts/ncnc_memory.py [--epochs 1] [--work DIR] [--no-trace]

Without ``--work`` the inputs and artifacts go to a temporary directory that
is removed at the end.  The checkpoint holds a digest of the run's config,
input paths included, so the checkpoints of two source trees have the same
SHA-256 only when both runs are given the same ``--work``.  On one CPU
the child takes about a minute per epoch, and the traced run of one epoch
as long again; both peak between 0.5 and 1 GiB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread here and in every child, set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
PRESET = "Preset(50000, 400000, 10, 128, 0.06, 0.6)"
GRAPH_SEED = 1
WRITE_INPUTS = (
    "import sys; from perfbench.synth import Preset, write_inputs; "
    f"write_inputs({PRESET}, {GRAPH_SEED}, sys.argv[1])"
)


def run_child(argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS (MiB) of one Python child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    argv = [sys.executable, *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv[1:3])} failed")
    return seconds, usage.ru_maxrss / 1024.0


def traced_train(cfg: Path) -> float:
    """Peak traced memory (MiB) of ``classlink train`` in this process."""
    import tracemalloc

    sys.path[:0] = [str(SRC)]
    from classlink import backbone, cli, graph, priors  # noqa: F401  imported untraced

    tracemalloc.start()
    try:
        if cli.main(["train", "--config", str(cfg)]) != 0:
            raise SystemExit("classlink train failed in process")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(work: Path, epochs: int, trace: bool) -> None:
    inputs, out = work / "inputs", work / "out"
    run_child(["-c", WRITE_INPUTS, str(inputs)])
    cfg = work / "config.json"
    config = {
        "edges": str(inputs / "edges.txt"),
        "features": str(inputs / "features.csv"),
        "labels": str(inputs / "labels.csv"),
        "out": str(out),
        "seed": 0,
        "ratios": [0.85, 0.05, 0.10],
        "label_source": "true",
        "mode": "ncnc",
        "epochs": epochs,
        "patience": epochs,
    }
    cfg.write_text(json.dumps(config, indent=1) + "\n")
    checkpoint = out / "checkpoint.json"
    for command in ("ingest", "split", "prior", "train"):
        if command == "train":
            checkpoint.unlink(missing_ok=True)  # a cold train, not "up to date"
        seconds, rss = run_child(["-m", "classlink", command, "--config", str(cfg)])
        print(f"{command}: {seconds:.1f} s, ru_maxrss {rss:.1f} MiB", flush=True)
    digest = sha256(checkpoint)
    print(f"checkpoint.json sha256 {digest}")
    if trace:
        checkpoint.unlink()
        peak = traced_train(cfg)
        same = "identical" if sha256(checkpoint) == digest else "DIFFERENT"
        print(f"train in process: tracemalloc peak {peak:.1f} MiB, checkpoint {same}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=1, help="training epochs (default 1)")
    parser.add_argument("--work", type=Path, help="keep inputs and artifacts here")
    parser.add_argument("--no-trace", dest="trace", action="store_false",
                        help="skip the in-process tracemalloc run")
    args = parser.parse_args(argv)

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit the pin
    print(f"pinned to CPU {cpu}, {PRESET}, graph seed {GRAPH_SEED}, {args.epochs} epoch(s)")
    work = args.work or Path(tempfile.mkdtemp(prefix="ncnc-memory-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure(work, args.epochs, args.trace)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
