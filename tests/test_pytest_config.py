"""The pytest settings of pyproject.toml keep a failing property test readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # warnings are errors under these settings; one raised inside the
    # hypothesis plugin's report hook once ended the run in INTERNALERROR
    # lines before the falsifying example was printed
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_ten(x):\n"
        "    assert x < 10\n"
    )
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "Falsifying example: test_below_ten(" in res.stdout
    assert "INTERNALERROR" not in res.stdout + res.stderr


def test_hypothesis_draws_no_literals_from_the_library():
    # conftest.py pins hypothesis's pool of local literals empty, so a
    # derandomized property draws the same examples whatever src/ holds and
    # whichever modules were imported first
    import qcflow.heatflow  # noqa: F401  (a module with many float literals)
    from hypothesis.internal.conjecture.providers import HypothesisProvider

    # the pool as the provider that draws the examples sees it
    assert len(HypothesisProvider(None)._local_constants) == 0
