"""The names ``import tokenspectra`` exports, the names the benchmark traces,
and the README's library example."""
import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import numpy as np

import tokenspectra

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# the paper's literal construction and the dense two-token sector matrix:
# references kept in their modules, not exported
UNEXPORTED = {"tokenspectra.polymatrix": ("sector_eigenpairs", "filter_spurious"),
              "tokenspectra.twotoken": ("build_b2",)}


def test_exports_and_traced_names_resolve():
    names = tokenspectra.__all__
    assert len(names) == len(set(names)) == 31
    for name in names:
        assert hasattr(tokenspectra, name), name
    for module, attrs in UNEXPORTED.items():
        for attr in attrs:
            assert attr not in names and not hasattr(tokenspectra, attr), attr
            assert callable(getattr(importlib.import_module(module), attr)), attr
    # the benchmark wraps each traced function by module path; read its
    # table from the file's syntax tree, without running the file
    tree = ast.parse(TRACING.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACED"])
    traced = [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]
    ours = [(module, attr) for module, attr in traced if module.startswith("tokenspectra.")]
    assert ours
    for module, attr in ours:
        assert callable(reduce(getattr, attr.split("."), importlib.import_module(module))), \
            (module, attr)


def test_readme_library_example_runs_as_commented():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n+```python\n(.*?)```", text, re.S).group(1)
    names = {}
    exec(block, names)
    report, dropped, matrix = names["report"], names["dropped"], names["matrix"]
    assert len(report.kept) == 20
    assert report.values[dropped].tolist() == [6.0] * 4
    assert report.sectors[dropped].tolist() == [1, 2, 4, 5]
    assert matrix.entries[3][1] == {1: -1, 3: -1, 5: -1}
    assert matrix.cell_texts(balanced=True)[3][1] == "-z-z^3-z^-1"
    assert matrix.specialize(1).shape == (4, 4)
    assert np.shape(names["vec"].values) == (20,)
