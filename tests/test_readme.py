"""The README's citations of the package's private names."""

import importlib
import pkgutil
import re
from pathlib import Path

import poincare_cgc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_private_name_the_readme_cites_exists():
    """Each private name that README cites in backticks, as `_name` or
    `module._name` (arguments may follow), is an attribute of that module
    of the package, or of some module when none is named."""
    modules = {info.name: importlib.import_module(f"poincare_cgc.{info.name}")
               for info in pkgutil.iter_modules(poincare_cgc.__path__)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    cites = {match.groups() for span in spans
             for match in re.finditer(r"(?<![\w.])(?:(\w+)\.)?(_[A-Za-z]\w*)", span)}
    assert len(cites) >= 20
    missing = sorted(f"{module}.{name}" if module else name for module, name in cites
                     if not any(hasattr(modules[m], name) for m in ([module] if module else modules)))
    assert not missing, missing
