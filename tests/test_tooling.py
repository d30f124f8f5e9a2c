"""Checks that tie the package to files outside it: the benchmark's tracer
wraps package names by module attribute, so every name it wraps must exist,
or traced benchmark rounds fail; every CLI example in the README must
still parse; and only the CLI's ``main`` prints."""

import ast
import importlib
import importlib.util
import pathlib
import re
import shlex

from isobenefit import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _span, _measure in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_readme_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    examples = [line for block in blocks for line in block.splitlines()
                if line.startswith("isobenefit ")]
    assert len(examples) >= 10
    parser = cli._build_parser()
    for line in examples:
        argv = cli._join_minus_values(shlex.split(line)[1:])
        args = parser.parse_args(argv)
        assert args.func is not None, line
        # main parses with the named command's parser alone; it must agree
        assert cli._build_parser(argv[0]).parse_args(argv) == args, line


def test_cli_prints_only_in_main():
    # handlers return their lines; main prints them once the command has
    # succeeded, so a failing command prints no partial report
    tree = ast.parse((ROOT / "src" / "isobenefit" / "cli.py").read_text())
    printers = {getattr(node, "name", "<module>")
                for node in tree.body for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "print"}
    assert printers == {"main"}
