"""Registry of the packaged construction data.

Every morphism, substitution, and avoidance spec the scenarios exercise is
stored as a text file under ``scenarios/`` in the package, in the same
formats the CLI accepts.  The registry parses them once and hands out the
shared objects; tests pin the files by checksum so silent edits fail loudly.
"""

from __future__ import annotations

import copy
import json
from functools import lru_cache
from importlib import resources

from .morphisms import parse_morphism, parse_substitution
from .words import AvoidanceSpec, parse_spec

MORPHISM_NAMES = ("dekking_h", "dekking_g", "fs_h", "fs_g",
                  "pu_f", "pu_h", "pu_g1", "pu_g2")
SUBSTITUTION_NAMES = ("dekking_sub", "fs_sub")
SPEC_NAMES = ("dekking_h_source", "dekking_g_source", "squarefree4",
              "dekking_binary", "fs_h_source", "fs_h_target", "fs_g_source",
              "fs_binary", "pu_source", "pu_binary", "ejs2", "ejs3")
DATA_NAMES = ("reference_prefixes",)

# CLI spec shorthand; values are registry attribute names.
SPEC_ALIASES = {"dekking": "dekking_binary", "fraenkel-simpson": "fs_binary",
                "ejs2": "ejs2", "ejs3": "ejs3"}


class InstanceRegistry:
    """Parsed packaged instances, attribute per entry.

    ``replaced`` builds a shallow copy with entries overridden, which is how
    fault-injection tests corrupt a single morphism without touching disk.
    """

    def __init__(self):
        root = resources.files(__package__) / "scenarios"
        texts: dict[str, str] = {}
        for name in MORPHISM_NAMES + SUBSTITUTION_NAMES + SPEC_NAMES:
            texts[name] = (root / f"{name}.txt").read_text()
        for name in DATA_NAMES:
            texts[name] = (root / f"{name}.json").read_text()
        for name in MORPHISM_NAMES:
            setattr(self, name, parse_morphism(texts[name]))
        for name in SUBSTITUTION_NAMES:
            setattr(self, name, parse_substitution(texts[name]))
        for name in SPEC_NAMES:
            setattr(self, name, parse_spec(texts[name]))
        self.reference_prefixes: dict[str, str] = json.loads(
            texts["reference_prefixes"])

    def spec_by_name(self, token: str) -> AvoidanceSpec | None:
        """Resolve a spec alias or registry spec name; None if unknown."""
        attr = SPEC_ALIASES.get(token, token if token in SPEC_NAMES else None)
        return getattr(self, attr) if attr else None

    def replaced(self, **entries) -> "InstanceRegistry":
        other = copy.copy(self)
        for name, value in entries.items():
            if not hasattr(other, name):
                raise ValueError(f"unknown registry entry {name!r}")
            setattr(other, name, value)
        return other


@lru_cache(maxsize=1)
def load_registry() -> InstanceRegistry:
    return InstanceRegistry()

