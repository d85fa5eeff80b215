"""README's library example runs, and imports only public names."""

import ast
import pathlib
import re

import trigiter

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python block"
    return blocks


def test_examples_import_only_public_names():
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "trigiter":
                missing = [alias.name for alias in node.names if alias.name not in trigiter.__all__]
                assert not missing, f"README imports names outside trigiter.__all__: {missing}"


def test_examples_run():
    for block in python_blocks():
        exec(compile(block, str(README), "exec"), {})
