"""The README names only what the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import spectral_cliques

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(spectral_cliques.__path__)}


def _dotted_names() -> list[str]:
    """Every `module.name` in README code spans whose first part, after an
    optional ``spectral_cliques.``, is a module of the package."""
    spans = re.findall(r"`([A-Za-z_][\w.]*\w)`", README.read_text(encoding="utf-8"))
    names = []
    for span in spans:
        parts = span.removeprefix("spectral_cliques.").split(".")
        if parts[0] in MODULES and len(parts) > 1:
            names.append(span)
    return names


def test_readme_names_resolve():
    names = _dotted_names()
    assert "screen.SCREEN_MARGIN" in names
    missing = []
    for name in names:
        parts = name.removeprefix("spectral_cliques.").split(".")
        obj = importlib.import_module(f"spectral_cliques.{parts[0]}")
        for attr in parts[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
