"""The README's quick tour runs as written and prints what its comments say."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour():
    """Run the README's python block; return its namespace and its expression values."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), ns)
    return block, ns, values


def test_quick_tour_values():
    block, ns, (downwind, diameter, c_half) = _quick_tour()
    assert "# 2/3" in block and "# 4/3" in block and "16x16" in block and "~1.5" in block
    assert downwind == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert diameter == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert ns["data"].matrix.shape == (16, 16)
    assert ns["sym"].shape == ns["anti"].shape == (16, 16)
    assert c_half == pytest.approx(1.5, abs=1e-3)
