"""The README names only what the package has."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import spectral_cliques
from spectral_cliques import cli

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


def _readme_cli_examples() -> list[list[str]]:
    """The arguments of every ``scl`` line of the README's ``sh`` blocks,
    backslash continuations joined and ``#`` comments cut."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            args = shlex.split(line, comments=True)
            if args[:1] == ["scl"]:
                examples.append(args[1:])
    return examples


def test_readme_cli_examples_parse():
    parser = cli._build_parser()
    commands = {parser.parse_args(args).command for args in _readme_cli_examples()}
    assert commands == {"gen", "check", "scan", "witness"}


def test_readme_names_the_stability_verdicts():
    text = README.read_text(encoding="utf-8")
    verdicts = ("witnessed", "exhaustive-miss", "inconclusive", "premise-failed",
                "premise-inconclusive", "ood")
    assert [v for v in verdicts if f"`{v}`" not in text] == []
    assert [gone for gone in ("heuristic-miss", "search_mode", "--mode") if gone in text] == []


def test_layout_has_a_row_for_every_module():
    """The Layout table names every module of the package but
    ``__main__``, each in a row of its own, and no other."""
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("## Layout"):]
    layout = layout[:layout.index("\n## ", 1)]
    rows = re.findall(r"^\| `spectral_cliques\.(\w+)` \|", layout, flags=re.M)
    assert sorted(rows) == sorted(MODULES - {"__main__"})
