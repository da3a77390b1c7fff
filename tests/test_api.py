import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import randers

MODULES = ["boundary", "config", "expressions", "fields", "geodesics", "integrators",
           "norms", "recovery", "zermelo"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"randers.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_shooting_record_exported():
    from randers import geodesics

    assert "PairShots" in geodesics.__all__ and "PairShot" not in geodesics.__all__
    assert not hasattr(geodesics, "PairShot")
    assert not hasattr(randers, "PairShot")


def test_forward_and_inverse_paths_load_no_scipy(tmp_path):
    # a fresh interpreter, so that scipy imported by other tests cannot mask
    # an import that reaches randers; polyline_hausdorff alone may load it
    cfg = tmp_path / "wind.cfg"
    cfg.write_text('[domain]\nboundary_samples = 4\n\n'
                   '[medium]\nkind = "zermelo"\nc = "1"\nwind = "const(0.5, 0)"\n')
    script = textwrap.dedent(f"""
        import math, sys
        import numpy as np
        import randers, randers.cli
        from randers import BoundaryDistanceData, herglotz_invert
        assert randers.cli.main(["simulate", "--config", {str(cfg)!r},
                                 "--out", {str(tmp_path / "out")!r}]) == 0
        ang = 2 * math.pi * np.arange(16) / 16
        sep = np.abs((ang[:, None] - ang[None, :] + math.pi) % (2 * math.pi) - math.pi)
        herglotz_invert(BoundaryDistanceData(angles=ang, radius=1.0,
                                             matrix=2.0 * np.sin(sep / 2.0),
                                             spec_hash="0" * 12))
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    src = str(Path(randers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
