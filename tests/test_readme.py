"""The README's library quickstart runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks() -> list[str]:
    # The ```python blocks of the "Quickstart: library" section, in order.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quickstart: library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_quickstart_runs():
    # The blocks share one namespace, as a reader pasting them in turn would;
    # the suite's filter makes any warning they raise an error.
    blocks = quickstart_blocks()
    assert len(blocks) == 3
    namespace = {"__name__": "readme_quickstart"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue()
    for label in ("entropy production:", "max divergence:", "first law:", "min I:"):
        assert label in printed, printed
