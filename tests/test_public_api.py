"""The package's public surface: the README quick start runs, ``__all__``
names exactly the public objects ``straindec/__init__.py`` binds, and README's
"Scripts" section names exactly the scripts under ``scripts/``."""

import re
import types
from pathlib import Path

import numpy as np

import straindec

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
    assert namespace["verdict"].passed and not namespace["verdict"].vacuous
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
