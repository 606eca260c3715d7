"""The package's public surface: the README quick start runs, ``__all__``
names exactly the public objects ``straindec/__init__.py`` binds, and README's
"Scripts" section names exactly the scripts under ``scripts/``, and every
dotted straindec name README uses resolves, but those it lists as removed."""

import dataclasses
import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np

import straindec
from straindec import CheckStatus

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    """The fenced python block under README's ``## Library quick start``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    assert Path(straindec.__file__).resolve().parent == ROOT / "src" / "straindec"
    namespace = {}
    exec(compile(_quick_start(), "README.md", "exec"), namespace)
    assert np.linalg.norm(namespace["closed"] - namespace["oracle"]) < 1e-8
    verdict = namespace["verdict"]
    assert verdict.energy_positivity is verdict.flux_causality is CheckStatus.PASS
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_all_is_sorted_and_unique():
    assert straindec.__all__ == sorted(set(straindec.__all__))


def test_all_names_every_public_binding():
    bound = {
        name
        for name, value in vars(straindec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(straindec.__all__) == bound


def test_readme_scripts_section_names_every_script():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^- `scripts/([^`]+\.py)`", section, re.M))
    assert named == {path.name for path in (ROOT / "scripts").glob("*.py")}


def _module_names() -> dict:
    """Each straindec module by its name, and each public object one binds by its name."""
    modules = {
        info.name: importlib.import_module(f"straindec.{info.name}")
        for info in pkgutil.iter_modules(straindec.__path__)
    }
    names = {"straindec": straindec, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if not name.startswith("_") and not isinstance(value, types.ModuleType):
                names.setdefault(name, value)
    return names


def _dotted_names(text: str, starts) -> list:
    """The dotted name that opens each backticked span of ``text``, if ``starts`` has its head.

    Fenced code blocks are skipped, and so are file names (``sampling.py``).
    """
    found = []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        name = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if name and name.group().split(".")[0] in starts and not span.endswith(".py"):
            found.append(name.group())
    return found


def test_readme_names_only_code_that_exists():
    """Every dotted straindec name in README resolves, but those it lists as removed.

    The tables of the "Removed names" section list a removed name in their
    first column, which must not resolve, and what to use instead in the
    others; that section's prose names what went with them and is not read.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    head, rest = readme.split("\n### Removed names\n", 1)
    section, tail = rest.split("\n## ", 1)
    names = _module_names()
    kept, removed = _dotted_names(head + tail, names), []
    for line in section.splitlines():
        if line.startswith("| `"):
            first, others = line.split(" | ", 1)
            removed += _dotted_names(first, names)
            kept += _dotted_names(others, names)

    def resolves(name: str) -> bool:
        """An attribute of the object ``names`` gives its head, or a dataclass field."""
        head, *parts = name.split(".")
        obj = names[head]
        for part in parts:
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            if not (hasattr(obj, part) or part in {f.name for f in fields}):
                return False
            obj = getattr(obj, part, None)
        return True

    assert len(kept) > 20 and removed
    assert [name for name in kept if not resolves(name)] == []
    assert [name for name in removed if resolves(name)] == []
