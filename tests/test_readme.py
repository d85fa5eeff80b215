"""README's library example runs and imports only public names, and its command lines exit 0."""

import ast
import pathlib
import re
import shlex

import pytest

import trigiter
from trigiter import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    found = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert found, f"README has no {language} block"
    return found


def command_lines():
    """The argv of each `trigiter …` line of README's sh blocks, comment and redirection cut."""
    argvs = []
    for block in blocks("sh"):
        for line in block.splitlines():
            if line.startswith("trigiter "):
                words = shlex.split(line, comments=True)[1:]
                argvs.append(words[: words.index(">")] if ">" in words else words)
    assert argvs, "README has no trigiter command line"
    return argvs


def test_examples_import_only_public_names():
    for block in blocks("python"):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "trigiter":
                missing = [alias.name for alias in node.names if alias.name not in trigiter.__all__]
                assert not missing, f"README imports names outside trigiter.__all__: {missing}"


def test_examples_run():
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_lines_exit_0(capsys, argv):
    code = cli.main(argv)
    assert code == 0, capsys.readouterr().err
