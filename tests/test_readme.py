"""The README's "Python API" section: its example runs, and it names every
exported name and every field of `TimeSeries`, so the public surface and its
documentation move together.  Every name the README qualifies by a module of
the package exists."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import thermaljc

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _code_block(section: str) -> str:
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Python API section has no python code block"
    return match[1]


def test_the_example_runs(capsys):
    exec(compile(_code_block(_api_section()), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 6 and all(float(value) >= -1.0 for value in printed)


def test_every_exported_name_is_documented():
    section = _api_section()
    code = _code_block(section) + " ".join(re.findall(r"`([^`\n]+)`", section))
    missing = [name for name in thermaljc.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", code)]
    assert not missing, f"exported but not in the README's Python API section: {missing}"


def test_every_time_series_field_is_documented():
    section = _api_section()
    named = set(re.findall(r"`([^`\n]+)`", section))
    missing = [field.name for field in dataclasses.fields(thermaljc.TimeSeries)
               if field.name not in named]
    assert not missing, f"TimeSeries fields not in the README's Python API section: {missing}"


def test_every_module_qualified_name_resolves():
    # `oracle.x`, `cli._X(args)` or `thermaljc.core.x`, but not a file name
    # such as `oracle.py`
    modules = {info.name for info in pkgutil.iter_modules(thermaljc.__path__)}
    spans = re.findall(r"`((?:\w+\.)+\w+)(?:\([^`]*\))?`", README.read_text(encoding="utf-8"))
    missing, names = [], sorted({span for span in spans if not span.endswith(".py")})
    for name in names:
        parts = name.removeprefix("thermaljc.").split(".")
        if parts[0] not in modules:
            continue
        owner = importlib.import_module(f"thermaljc.{parts[0]}")
        for part in parts[1:]:
            owner = getattr(owner, part, missing)
        if owner is missing:
            missing.append(name)
    assert not missing, f"README names that resolve to nothing: {missing}"
