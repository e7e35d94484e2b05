"""Dead-code gate: every function, class and method in `src/omega23` is
referred to somewhere in `src/`, or is allowlisted with a reason.

The scan is syntactic. A definition is a top-level function or class of
a module, or a method of such a class that is not a dunder. A reference
is an `ast.Name`, an `ast.Attribute` or an import alias with the same
bare name anywhere in `src/omega23`, its own definition excluded (a
definition is not a `Name`). So a name shared by two definitions keeps
both alive; the gate catches names nothing mentions at all.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "omega23"

# name -> (reason, note). A reason is one of:
#   public    named in the README's library tour;
#   hook      called by a framework through an inherited method;
#   tracer    read only by perfbench/tracer.py (ROADMAP B deletes it);
#   direction kept for a ROADMAP item, whose letter starts the note.
ALLOWED = {
    "cli._Parser.error": ("hook", "argparse reports a usage error through it"),
    "linalg.factor_poly": ("tracer", "galoistools' gf_factor"),
    "linalg.Poly.pow_mod": ("tracer", "galoistools' gf_pow_mod"),
    "forms.reflection_decomposition": ("tracer", "an isometry as reflections"),
    "certify.Orbit.positions": ("direction", "C: batched sifting looks up many codes at once"),
    "certify.StabilizerChain.sift": ("public", "sift a Matrix through a built chain"),
    "verify.verify_caseB_closed_forms_all_a": ("public", "acceptance criterion 3"),
    "verify.hermitian_rep": ("public", "acceptance criterion 5"),
    "fields.field_from_json": ("public", "reads a report's field header back"),
    "linalg.vector": ("public", "coerces scalars to an (n, f) vector"),
}
REASONS = {"public", "hook", "tracer", "direction"}


def _scan():
    """(qualified name -> bare name of every definition, referenced bare names)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_definition_is_referenced_or_allowlisted():
    defined, used = _scan()
    unreferenced = {q for q, name in defined.items() if name not in used}
    assert unreferenced - ALLOWED.keys() == set(), "no reference in src/ and not allowlisted"
    # An entry that is referenced again, or gone, must leave the list.
    assert ALLOWED.keys() - unreferenced == set(), "stale allowlist entries"


def test_every_allowlist_reason_holds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    for qualified, (reason, note) in ALLOWED.items():
        assert reason in REASONS and note, qualified
        module, *owner, name = qualified.split(".")
        if reason == "public":
            # A code span that starts with the name, led by its class or module.
            lead = f"{owner[0]}\\." if owner else f"(?:{module}\\.)?"
            assert re.search(rf"`{lead}{name}\b", readme), qualified
        elif reason == "tracer":
            assert re.search(rf"\b{name}\b", tracer), qualified
        elif reason == "hook":
            cls = getattr(importlib.import_module(f"omega23.{module}"), owner[0])
            assert any(name in vars(base) for base in cls.__mro__[1:]), qualified
        else:
            letter = note.split(":")[0]
            assert re.search(rf"^### {letter}\. ", roadmap, re.M), qualified
