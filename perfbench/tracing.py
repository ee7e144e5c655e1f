"""Per-layer tracing of the classlink pipeline, from outside the package.

The traced run wraps the public functions of each classlink layer module
(``graph``, ``priors``, ``clustering``, ``heuristics``, ``backbone``,
``evaluation``, ``cli``) in place, at every module attribute and module-level
table through which they are called, so ``backbone.sample_negatives`` and
``cli.COMMANDS['ingest']`` are traced as well as ``graph.sample_negatives`` and
``cli.cmd_ingest``.  Nothing under ``src/`` changes.

Each call becomes a span ``(name, start, end, parent)`` kept in memory and
written out when the run ends; a span's self time is its duration minus the
part of it that its child spans cover.  Counts are read from return values.

Run as ``python -m perfbench.tracing --config CFG --out FILE --src SRC [--off]``
with the checkout root and ``SRC`` on ``PYTHONPATH``: it runs ``ingest``,
``run-all`` and ``run-all`` again through ``classlink.cli.main`` in this one
process.  ``--off`` runs the same three phases without tracing, which is the
baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

LAYERS = ("graph", "priors", "clustering", "heuristics", "backbone", "evaluation", "cli")

# Helpers called once per pair or per graph construction from inside another
# function; wrapping them would move their caller's work into a different
# metric and add a span per pair, so their time stays in the caller's span.
FOLDED = frozenset(
    {
        "graph.build_graph",
        "graph.common_neighbors",
        "priors.lookup_prior",
        "heuristics.adjacency_matrix",
        "heuristics.z_normalizer",
        "backbone.normalized_operator",
    }
)

# Methods traced besides module-level functions: (layer, class, method).
METHODS = (("graph", "EdgeSplit", "train_graph"), ("backbone", "BatchBuilder", "build"))

# Spans whose scorer factory runs inside one of these builds a completion
# scorer (ncnc) or a structural base for ``hc``, not a scorer the user ranks with.
_NESTED_SCORER_PARENTS = frozenset(
    {"backbone.train", "backbone.make_scorer", "heuristics.make_heuristic_scorer"}
)


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def parent_name(self, span: int) -> str | None:
        p = self.parent[span]
        return None if p < 0 else self.names[self.name_id[p]]

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``after(rec, span, args, result)``
        reads counts from the result and may replace it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                result = after(self, span, args, result)
            return result

        return traced

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# Counts read from return values
# ---------------------------------------------------------------------------


def _count_negatives(rec: Recorder, span: int, args: tuple, result):
    rec.count("graph.negatives_sampled", len(result))
    return result


def _count_k(rec: Recorder, span: int, args: tuple, result):
    rec.counters["clustering.k"] = result.k
    return result


def _count_batch(rec: Recorder, span: int, args: tuple, result):
    rec.count("backbone.neighborhood_entries", int(result.u_idx.size))
    return result


def _count_training(rec: Recorder, span: int, args: tuple, result):
    _, log = result
    rec.count("backbone.epochs", len(log))
    # each epoch sees every training positive plus as many sampled negatives
    rec.count("backbone.train_pairs", 2 * len(log) * len(args[1].train_edges))
    return result


def _scorer_hook(layer: str) -> Callable:
    def after(rec: Recorder, span: int, args: tuple, scorer):
        if rec.parent_name(span) in _NESTED_SCORER_PARENTS:
            if layer != "backbone":
                return scorer  # hc's structural base: the hc scorer counts its pairs
            counter, name = "backbone.completion_pairs", "backbone.completion"
        else:
            counter, name = f"{layer}.pairs_scored", f"{layer}.scorer"

        def count_pairs(r: Recorder, s: int, call_args: tuple, scores):
            r.count(counter, len(scores))
            if name != "backbone.completion":
                r.count("evaluation.pairs_scored", len(scores))
            return scores

        return rec.wrap(scorer, name, count_pairs)

    return after


AFTER = {
    "graph.sample_negatives": _count_negatives,
    "clustering.louvain": _count_k,
    "clustering.kmeans": _count_k,
    "clustering.elbow_kmeans": _count_k,
    "clustering.mono_label": _count_k,
    "backbone.BatchBuilder.build": _count_batch,
    "backbone.train": _count_training,
    "backbone.make_scorer": _scorer_hook("backbone"),
    "heuristics.make_heuristic_scorer": _scorer_hook("heuristics"),
}


def install(rec: Recorder) -> None:
    """Replace every reference to a traced function inside ``classlink``.

    Mutates the imported classlink modules, so call it only in a process
    that exists to be traced.
    """
    modules = {layer: importlib.import_module(f"classlink.{layer}") for layer in LAYERS}
    wrapped: dict[Callable, Callable] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in FOLDED
            ):
                wrapped[obj] = rec.wrap(obj, name, AFTER.get(name))
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{method}"
        setattr(cls, method, rec.wrap(getattr(cls, method), name, AFTER.get(name)))

    def swap(obj):
        if isinstance(obj, tuple):
            return tuple(swap(item) for item in obj)
        if inspect.isfunction(obj):
            return wrapped.get(obj, obj)
        return obj

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "classlink" and not mod_name.startswith("classlink."):
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):  # dispatch tables such as cli.COMMANDS
                for key, value in list(obj.items()):
                    obj[key] = swap(value)
            else:
                setattr(mod, attr, swap(obj))


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    order = np.lexsort((start, parent))
    current, reach = -1, 0.0
    for i in order.tolist():
        p = int(parent[i])
        if p < 0:
            continue
        if p != current:
            current, reach = p, float(start[p])
        lo = max(float(start[i]), reach)
        hi = min(float(end[i]), float(end[p]))
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return end - start - covered


# ---------------------------------------------------------------------------
# Traced child process
# ---------------------------------------------------------------------------

PHASES = ("ingest", "run-all", "run-all")


def run_phases(config: str) -> list[dict]:
    from classlink import cli

    phases = []
    for command in PHASES:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config])
        phases.append(
            {
                "command": command,
                "seconds": time.perf_counter() - t0,
                "exit_code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )
        if code != 0:
            break
    return phases


def main() -> int:
    parser = argparse.ArgumentParser(description="one traced classlink pipeline run")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="result JSON; spans go beside it")
    parser.add_argument("--src", required=True, help="the src/ directory under test")
    parser.add_argument("--off", action="store_true", help="run without tracing")
    args = parser.parse_args()

    import classlink

    src = Path(args.src).resolve()
    if src not in Path(classlink.__file__).resolve().parents:
        print(f"classlink imported from {classlink.__file__}, not {src}", file=sys.stderr)
        return 2
    rec = None if args.off else Recorder()
    if rec is not None:
        install(rec)
    phases = run_phases(args.config)
    out = Path(args.out)
    result = {"phases": phases, "counters": {}, "spans": None}
    if rec is not None:
        spans = out.with_suffix(".npz")
        rec.save(spans)
        result.update(counters=rec.counters, spans=spans.name)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
