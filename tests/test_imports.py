"""Import hygiene of the ``classlink`` package, read from its source with ``ast``.

Three rules, one test each per module:

* every name a module imports is used in that module (annotations count);
* no module imports a ``_private`` name from another classlink module: what
  two modules share is public;
* no module imports scipy when it is imported: ``graph.py`` imports it
  inside the functions that build a graph from dense or scipy features and
  make its scipy views, or for type checking; ``clustering.py``,
  ``heuristics.py`` and ``backbone.py`` import it nowhere.

One more test runs feature aggregation, elbow k-means, Louvain, ``hc`` over
RA and the negative samplers in a fresh interpreter, which must load neither
scipy nor ``numpy.ma`` on the way.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "classlink"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree: ast.Module) -> list[tuple[ast.ImportFrom | ast.Import, str, str]]:
    """``(node, name bound, name imported)`` of every import in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node, alias.asname or alias.name.split(".")[0], alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found.append((node, alias.asname or alias.name, alias.name))
    return found


def test_the_package_has_modules():
    assert {"graph.py", "heuristics.py", "backbone.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for _, bound, _ in imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{'.' * node.level}{node.module or ''}:{name}"
        for node, _, name in imports(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "classlink")
        and name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names {private}"


def module_level_imports(node: ast.AST) -> list[str]:
    """Modules imported by the code under ``node`` that runs when the module
    is imported: everything but function bodies and ``if TYPE_CHECKING:``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
            child = ast.Module(body=child.orelse, type_ignores=[])
        elif isinstance(child, ast.Import):
            found += [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            found.append(child.module or "")
        found += module_level_imports(child)
    return found


def test_the_guard_sees_top_level_and_skips_type_checking():
    tree = ast.parse(
        "import scipy.sparse as sp\n"
        "from scipy import linalg\n"
        "if TYPE_CHECKING:\n    import scipy.stats\n"
        "else:\n    import scipy.signal\n"
        "try:\n    import scipy.io\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy.optimize\n"
        "class C:\n    import scipy.special\n"
    )
    assert module_level_imports(tree) == [
        "scipy.sparse", "scipy", "scipy.signal", "scipy.io", "scipy.special"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_backbone_imports_scipy_at_module_level(path):
    """No module imports scipy when it is imported: the functions that still
    use it (a graph's scipy views and its build from dense or scipy
    features) import it in their bodies."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scipy = [m for m in module_level_imports(tree) if m.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy} when it is imported"


def test_heuristics_imports_no_scipy_anywhere():
    """Every heuristic scores, the backbone propagates, predicts and trains,
    and k-means aggregates and clusters, on the graph's CSR arrays: no
    function body or ``TYPE_CHECKING`` block of ``clustering.py``,
    ``heuristics.py`` or ``backbone.py`` imports scipy."""
    for name in ("clustering.py", "heuristics.py", "backbone.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        scipy = [imported for _, _, imported in imports(tree) if imported.split(".")[0] == "scipy"]
        scipy += [
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
        ]
        assert not scipy, f"{name} imports {scipy}"


def test_louvain_hc_and_the_negative_samplers_load_no_scipy_or_numpy_ma(tmp_path):
    """Feature aggregation and elbow k-means (with and without row
    normalisation), Louvain, ``hc`` over RA (with and without local
    normalisation), the split's pools, the per-edge pools and the training
    negatives run on the graph's CSR arrays with no plain ``np.unique``,
    which loads ``numpy.ma``: in a fresh interpreter they load neither scipy
    nor ``numpy.ma``."""
    rng = np.random.default_rng(0)
    edges, features = tmp_path / "edges.txt", tmp_path / "features.csv"
    edges.write_text("".join(f"{u} {v}\n" for u, v in rng.integers(0, 80, size=(300, 2))))
    rows = (rng.random((80, 12)) < 0.2).astype(int)
    features.write_text("".join(f"{i},{','.join(map(str, r))}\n" for i, r in enumerate(rows)))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from classlink.clustering import aggregate_features, elbow_kmeans, louvain\n"
        "from classlink.evaluation import draw_per_edge_pools\n"
        "from classlink.graph import load_graph, sample_negatives, split_edges\n"
        "from classlink.heuristics import ClassHeuristicParams, make_heuristic_scorer\n"
        "from classlink.priors import count_class_links\n"
        f"g = load_graph({str(edges)!r}, {str(features)!r})\n"
        "assert g.n_nodes == 80 and g.n_features == 12\n"
        "split = split_edges(g, (0.8, 0.1, 0.1), 1, negatives=20)\n"
        "train = split.train_graph(g)\n"
        "for unit in (False, True):\n"
        "    km = elbow_kmeans(aggregate_features(train), [1, 2, 3, 4], 1, normalize_rows=unit)\n"
        "    assert km.labels.size == 80 and len(km.ssd_curve) == 4\n"
        "labels = louvain(train, 1)\n"
        "assert labels.k > 1\n"
        "pools = draw_per_edge_pools(train, len(split.test_edges), 5, 1)\n"
        "assert pools.shape == (len(split.test_edges), 5, 2)\n"
        "prior = count_class_links(split.train_edges, labels.labels, labels.k)\n"
        "for local in (False, True):\n"
        "    hc = make_heuristic_scorer('hc', train, prior=prior, labels=labels.labels,\n"
        "        params=ClassHeuristicParams(normalize_locally=local), base='ra')\n"
        "    assert np.isfinite(hc(pools.reshape(-1, 2))).all()\n"
        "assert sample_negatives(train, 50, 3).shape == (50, 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "    or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
