"""Dead-code gate: every function, class, method and module-level name in
`src/omega23` is referred to somewhere in `src/`, or is allowlisted with
a reason.

The scan is syntactic. A definition is a top-level function or class of
a module, a method of such a class that is not a dunder, or a name a
module-level assignment binds that is not a dunder. A module-level name
is read where its own module reads it as an `ast.Name` (`Load` context),
where another module imports it from its module (`from .mod import
name`), or where another module reads an `ast.Attribute` of that name.
A method is read where any module reads an attribute of its name, or
its own module a Name. A definition is not a read. So a module-level
name that another module defines and reads as a Name does not keep it
alive: the gate catches every definition its own readers do not reach.

A second gate flags an import that its module never reads: a name an
`import` or `from ... import` binds (`__future__` imports excluded) with
no `ast.Name` read in the same module.
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
    "certify.orbit": ("public", "the orbit of a vector under Matrix generators"),
    "verify.verify_caseB_closed_forms_all_a": ("public", "acceptance criterion 3"),
    "verify.hermitian_rep": ("public", "acceptance criterion 5"),
    "fields.field_from_json": ("public", "reads a report's field header back"),
}
REASONS = {"public", "hook", "tracer", "direction"}

# module.name -> (reason, note) for an import its module does not read
IMPORTS_ALLOWED = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced(src=SRC):
    """Qualified name of every definition in src that nothing reads."""
    defined = set()  # qualified names: module.name or module.Class.method
    names, attrs = {}, {}  # module -> bare names it reads as a Name, as an attribute
    imported = set()  # module.name of every name another module imports from it
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined.update(f"{module}.{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not _is_dunder(item.name))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(f"{module}.{t.id}" for target in targets for t in ast.walk(target)
                               if isinstance(t, ast.Name) and not _is_dunder(t.id))
        walked = list(ast.walk(tree))
        names[module] = {node.id for node in walked
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        attrs[module] = {node.attr for node in walked if isinstance(node, ast.Attribute)}
        # package-relative imports: `from . import name` imports from __init__
        imported.update(f"{node.module or '__init__'}.{alias.name}" for node in walked
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names)

    def read(qualified):
        module, *owner, name = qualified.split(".")
        if name in names[module]:
            return True
        if owner:
            return any(name in a for a in attrs.values())
        return qualified in imported or any(name in a for m, a in attrs.items() if m != module)

    return {q for q in defined if not read(q)}


def test_every_definition_is_referenced_or_allowlisted():
    unreferenced = _unreferenced()
    assert unreferenced - ALLOWED.keys() == set(), "no reference in src/ and not allowlisted"
    # An entry that is referenced again, or gone, must leave the list.
    assert ALLOWED.keys() - unreferenced == set(), "stale allowlist entries"


def test_a_name_read_only_in_another_module_is_flagged(tmp_path):
    """A table that nothing reads stays flagged although another module
    defines a table of the same name and reads it."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    assert _unreferenced(tmp_path) == _unreferenced()
    certify = tmp_path / "certify.py"
    certify.write_text(certify.read_text(encoding="utf-8") + "\n_CASE_A = {}\n",
                       encoding="utf-8")
    assert _unreferenced(tmp_path) - _unreferenced() == {"certify._CASE_A"}


def _kernel_importers(src=SRC):
    """Stem of every module in src that imports the orbit kernel, by a
    relative or an absolute import of `_kernels` or of a name from it."""
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "omega23" if node.level == 1 else ""
                module = ".".join(filter(None, [base, node.module]))
                modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "omega23._kernels" in modules:
                importers.add(path.stem)
    return importers


def test_only_certify_imports_the_orbit_kernel(tmp_path):
    """The stabilizer chain is the kernel's one client: `fields` owns the
    digit enumerator that `forms` and `cli` read."""
    assert _kernel_importers() == {"certify"}
    (tmp_path / "forms.py").write_text("from ._kernels import DENSE_CAP\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text("from omega23 import _kernels\n", encoding="utf-8")
    assert _kernel_importers(tmp_path) == {"forms", "cli"}


def _unread_imports():
    """module.name of every name a module imports and never reads."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {f"{path.stem}.{name}" for name in bound - reads}
    return unread


def test_every_import_is_read_or_allowlisted():
    unread = _unread_imports()
    assert unread - IMPORTS_ALLOWED.keys() == set(), "imported, never read, not allowlisted"
    assert IMPORTS_ALLOWED.keys() - unread == set(), "stale allowlist entries"


def test_every_allowlist_reason_holds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    for qualified, (reason, note) in {**ALLOWED, **IMPORTS_ALLOWED}.items():
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
