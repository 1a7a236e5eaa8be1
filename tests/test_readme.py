"""The README's library example runs against the current API."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "README 'Library use' must hold exactly one python block"
    return blocks[0]


def test_library_use_snippet_runs():
    namespace: dict = {}
    exec(compile(library_use_snippet(), str(README), "exec"), namespace)
    state, diag = namespace["state"], namespace["diag"]
    assert namespace["cfg"].nominal_q.shape == (5, 4, 4)
    assert np.all(np.isfinite(state.x_hat))
    assert diag.iterations >= 1
    assert abs(diag.chi.sum() - 1.0) <= 1e-12
