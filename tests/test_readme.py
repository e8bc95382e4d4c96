"""The README's library section runs, and its signature block matches the
code: every ``js.name(...)`` line names a public function that takes
exactly the listed parameters, with the listed defaults."""

import ast
import inspect
import re
from pathlib import Path

import jacobisplit as js

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_snippet_runs(capsys):
    snippet = _library_blocks()[0]
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("verified ")


def test_signature_block_matches_code():
    block = _library_blocks()[1]
    code = "\n".join(line.split("#", 1)[0] for line in block.splitlines())
    calls = [node for node in ast.parse(code).body if isinstance(node, ast.Expr)]
    assert len(calls) >= 10
    for node in calls:
        call = node.value
        name = call.func.attr
        listed = [(arg.id, inspect.Parameter.empty) for arg in call.args]
        listed += [(kw.arg, ast.literal_eval(kw.value)) for kw in call.keywords]
        params = inspect.signature(getattr(js, name)).parameters.values()
        assert [(p.name, p.default) for p in params] == listed, name
