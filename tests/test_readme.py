"""The python snippets of README.md run as written."""
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every fenced python block of README.md runs, in order and in one
    namespace, as a reader would type them into one session.  They run in
    an empty working directory with a copy of configs/, because they read
    the example element set and write files."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) >= 2
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "deployment.jsonl").stat().st_size > 0
