"""The README's Python and CLI examples call the package with arguments it accepts.

The ``python`` blocks are parsed, not run: every ``rf.<name>(...)`` call has
its keyword names and positional count bound against the signature of the
attribute it names.  Every ``riskfix ...`` command line in the ``bash``
blocks is parsed by the CLI's own argument parser, not run.  A renamed or
dropped parameter or flag fails here until the README follows.
"""

import ast
import inspect
import re
import shlex
from pathlib import Path

import riskfix as rf
from riskfix.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _rf_attribute(node):
    """The riskfix object an ``rf.a.b`` expression names, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id == "rf" and names):
        return None
    obj = rf
    for name in reversed(names):
        obj = getattr(obj, name)
    return obj


def test_readme_calls_bind_to_signatures():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    checked = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if not isinstance(node, ast.Call):
                continue
            target = _rf_attribute(node.func)
            if target is None:
                continue
            keywords = {kw.arg: None for kw in node.keywords}
            inspect.signature(target).bind(*node.args, **keywords)
            checked.append(ast.unparse(node.func))
    assert "rf.FixedPointProblem" in checked and len(checked) >= 10, checked


def test_readme_commands_parse():
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["riskfix"]:
                build_parser().parse_args(words[1:])
                commands.append(words[1])
    assert len(commands) >= 7 and set(commands) >= {
        "project", "kernels", "risk-curve", "fixed-point", "simulate", "experiment"}, commands
