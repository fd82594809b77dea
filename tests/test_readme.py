"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md runs, in order, in one namespace. A
print(...) line whose comment is a bracketed literal with no ';', as in
`print(out.mean)  # [2. 1.]`, must print exactly that literal.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PRINTED = re.compile(r"^(print\(.*\))\s+#\s*(\[[^;]*\])\s*$")


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace, checked = {}, 0
    for block in blocks:
        # The lines between two checked prints run as one piece of code.
        pending = []
        for line in block.splitlines():
            match = PRINTED.match(line)
            if match is None:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(match.group(1), namespace)
            assert out.getvalue().rstrip("\n") == match.group(2), line
            checked += 1
        exec("\n".join(pending), namespace)
    assert checked >= 2
