"""The README's tables against the code they describe."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from selfsim.cli import build_parser, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)` \| (`\w+`(?:, `\w+`)*) \| ([^|]+) \|")


def _solver_constant_rows():
    text = README.read_text()
    section = text.split("## Solver constants", 1)[1].split("\n## ", 1)[0]
    return [ROW.match(line).groups() for line in section.splitlines()
            if ROW.match(line)]


def _assigned_numeric_constants(module: str) -> set[str]:
    """The UPPER_CASE int and float constants a module assigns itself, read
    from its source, so that a constant it imports does not count."""
    mod = importlib.import_module(f"selfsim.{module}")
    names = {t.id for node in ast.parse(Path(mod.__file__).read_text()).body
             if isinstance(node, ast.Assign)
             for target in node.targets
             for t in (target.elts if isinstance(target, ast.Tuple) else [target])
             if isinstance(t, ast.Name) and t.id.isupper()}
    return {name for name in names if type(getattr(mod, name)) in (int, float)}


def test_solver_constants_table_matches_the_modules():
    rows = _solver_constant_rows()
    assert len(rows) >= 15
    listed = set()
    for module, names, values in rows:
        mod = importlib.import_module(f"selfsim.{module}")
        names = re.findall(r"`(\w+)`", names)
        values = [v.strip() for v in values.split(",")]
        assert len(names) == len(values), (module, names, values)
        for name, value in zip(names, values):
            assert hasattr(mod, name), f"README names {module}.{name}, which does not exist"
            assert getattr(mod, name) == float(value), (module, name, value)
            listed.add((module, name))
    # and the reverse: every numeric constant of these modules has a row
    for module in ("scalar", "system", "spectral", "models", "measures", "diagnostics"):
        missing = {(module, name) for name in _assigned_numeric_constants(module)} - listed
        assert not missing, f"README's constants table has no row for {sorted(missing)}"


def _parser_options() -> set[str]:
    sub = next(a for a in build_parser()._actions if a.choices)
    return {opt for sp in sub.choices.values() for a in sp._actions
            for opt in a.option_strings}


def test_readme_flags_are_cli_options():
    # every --flag the README names, outside the pip install lines
    lines = [line for line in README.read_text().splitlines()
             if not line.lstrip().startswith("pip ")]
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", "\n".join(lines)))
    assert {"--eps-ladder", "--strict", "--config", "--uL"} <= flags
    assert flags <= _parser_options(), sorted(flags - _parser_options())


def _readme_commands():
    """The arguments of every ``selfsim`` command in the README's sh blocks,
    backslash continuations joined, each with the last json block above it."""
    json_block = None
    for lang, body in re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(), re.S | re.M):
        if lang == "json":
            json_block = body
        elif lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.startswith("selfsim "):
                    yield shlex.split(line)[1:], json_block


def test_readme_commands_parse(tmp_path, monkeypatch):
    # a --config file is the json block the README shows above the command
    monkeypatch.chdir(tmp_path)
    commands = list(_readme_commands())
    assert len(commands) >= 8
    for argv, json_block in commands:
        if "--config" in argv:
            (tmp_path / argv[argv.index("--config") + 1]).write_text(json_block)
        parse_config(argv)
