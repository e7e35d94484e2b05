"""Per-layer call tracing applied from outside the omega23 package.

`install()` wraps selected functions and methods of the package in timing
wrappers. A module-level function is replaced at every binding of the same
object in every loaded `omega23.*` module (a function imported with
`from .forms import in_omega` is bound separately in each importer); a
method is replaced in its class. `install()` then checks that no binding
of an original object is left, so calls cannot slip past the tracer.

Each wrapped call is a span. Spans nest through a stack: a span's self
time is its duration minus the durations of the wrapped calls made inside
it. All calls are aggregated per (name, parent name), which keeps memory
bounded; calls outside `HOT` are also stored one span each, tagged with
the item they belong to.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# (span name, module, attribute path). `linalg.matmul` is split by field
# degree into `linalg.matmul.f1` and `linalg.matmul.fext` at call time.
TARGETS = (
    ("fields.mul", "omega23.fields", "FieldCtx.mul"),
    ("fields.inv", "omega23.fields", "FieldCtx.inv"),
    ("fields.pow", "omega23.fields", "FieldCtx.pow"),
    ("linalg.matmul", "omega23.linalg", "Matrix.__matmul__"),
    ("linalg.det", "omega23.linalg", "Matrix.det"),
    ("linalg.inverse", "omega23.linalg", "Matrix.inverse"),
    ("linalg.rref", "omega23.linalg", "rref"),
    ("linalg.charpoly", "omega23.linalg", "charpoly"),
    ("linalg.minpoly", "omega23.linalg", "minpoly"),
    ("linalg.element_order", "omega23.linalg", "element_order"),
    ("linalg.factor_poly", "omega23.linalg", "factor_poly"),
    ("linalg.evaluate_word", "omega23.linalg", "evaluate_word"),
    ("linalg.poly.pow_mod", "omega23.linalg", "Poly.pow_mod"),
    ("linalg.poly.divmod", "omega23.linalg", "Poly.__divmod__"),
    ("forms.in_omega", "omega23.forms", "in_omega"),
    ("forms.spinor_norm", "omega23.forms", "spinor_norm"),
    ("forms.reflection_decomposition", "omega23.forms", "reflection_decomposition"),
    ("forms.congruent_diagonalization", "omega23.forms", "congruent_diagonalization"),
    ("forms.reflection", "omega23.forms", "reflection"),
    ("generators.build_pair", "omega23.generators", "build_pair"),
    ("generators.search_a", "omega23.generators", "search_a"),
    ("verify.verify_structural", "omega23.verify", "verify_structural"),
    ("verify.verify_caseA_identities", "omega23.verify", "verify_caseA_identities"),
    ("verify.verify_caseB_identities", "omega23.verify", "verify_caseB_identities"),
    ("verify.verify_order_claims", "omega23.verify", "verify_order_claims"),
    ("certify.certify_generation", "omega23.certify", "certify_generation"),
    ("certify.stabilizer_chain", "omega23.certify", "stabilizer_chain"),
    ("certify.orbit", "omega23.certify", "orbit"),
    ("certify.level_recompute", "omega23.certify", "Level.recompute"),
    ("certify.sift", "omega23.certify", "_sift_from"),
    ("certify.verify_schreier", "omega23.certify", "_ChainBuilder.verify_schreier"),
    ("certify.random_element", "omega23.certify", "_RandomElements.__next__"),
    ("kernels.orbit_bfs", "omega23._kernels", "orbit_bfs"),
)

# Spans aggregated only, never stored one by one: leaf calls made up to
# millions of times per run.
HOT = frozenset({
    "fields.mul", "fields.inv", "fields.pow", "linalg.matmul.f1",
    "linalg.matmul.fext", "linalg.det", "linalg.inverse", "linalg.rref",
    "linalg.poly.pow_mod", "linalg.poly.divmod", "forms.reflection",
    "certify.sift", "certify.random_element",
})

_ROUTES = {"powering": "linalg.element_order.route_powering",
           "minpoly-route": "linalg.element_order.route_minpoly"}


def _matmul_name(args):
    return "linalg.matmul.f1" if args[0].ctx.f == 1 else "linalg.matmul.fext"


def _after_element_order(tr, args, out):
    tr.count(_ROUTES.get(getattr(out, "method", None),
                         "linalg.element_order.route_other"))


def _after_orbit_bfs(tr, args, out):
    tr.count("kernels.orbit_bfs.points", len(out[1]))


def _after_recompute(tr, args, out):
    table = getattr(args[0], "_u", None)
    tr.count("certify.transversal_built", len(table) if table is not None else 0)


def _after_stabilizer_chain(tr, args, out):
    # orbit points of the final chain whose transversal table was built
    tr.count("certify.final_orbit_points",
             sum(lv.orbit.size for lv in getattr(out, "levels", ())
                 if getattr(lv, "_u", None) is not None))


_AFTER = {
    "linalg.element_order": _after_element_order,
    "kernels.orbit_bfs": _after_orbit_bfs,
    "certify.level_recompute": _after_recompute,
    "certify.stabilizer_chain": _after_stabilizer_chain,
}


class Tracer:
    """Span stack, per-(name, parent) aggregates, counters, stored spans."""

    def __init__(self):
        self.stack = []      # open spans: [name, time covered by children]
        self.agg = {}        # (name, parent) -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []      # (item, name, parent, start_s, end_s)
        self.item = None
        self.absent = []     # TARGETS entries missing from the package

    def count(self, key, k=1):
        self.counters[key] = self.counters.get(key, 0) + k

    def span(self, name, fn, name_of=None, after=None):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nm = name if name_of is None else name_of(args)
            frame = [nm, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent = stack[-1] if stack else None
                pname = parent[0] if parent is not None else None
                if parent is not None:
                    parent[1] += dt
                rec = agg.get((nm, pname))
                if rec is None:
                    agg[(nm, pname)] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if nm not in HOT:
                    spans.append((tracer.item, nm, pname, t0, t1))
            if after is not None:
                after(tracer, args, out)
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def run_item(self, item_id, fn):
        """Run fn() as the root span `item`, tagging stored spans with item_id."""
        self.item = item_id
        try:
            return self.span("item", fn)()
        finally:
            self.item = None

    def totals(self) -> dict:
        """name -> [calls, self_s] summed over parents."""
        out = {}
        for (name, _), (calls, _, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out


def _package_modules():
    import omega23
    for info in pkgutil.walk_packages(omega23.__path__, "omega23."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "omega23" or name.startswith("omega23."))]


def install(tracer: Tracer) -> dict:
    """Wrap every TARGETS entry; returns {span name: original object}."""
    modules = _package_modules()
    originals = {}
    for name, modname, path in TARGETS:
        owner = sys.modules.get(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            tracer.absent.append(name)
            continue
        fn = vars(owner)[attr]
        wrapped = tracer.span(
            name, fn,
            name_of=_matmul_name if name == "linalg.matmul" else None,
            after=_AFTER.get(name))
        originals[name] = fn
        if cls_path:
            setattr(owner, attr, wrapped)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
    leftover = unwrapped_references(originals, modules)
    if leftover:
        raise RuntimeError(f"unwrapped references remain: {leftover}")
    return originals


def unwrapped_references(originals: dict, modules=None) -> list:
    """Bindings of an original object left in omega23 modules or classes."""
    if modules is None:
        modules = _package_modules()
    ids = {id(fn): name for name, fn in originals.items()}
    found = []
    for mod in modules:
        for key, value in vars(mod).items():
            if id(value) in ids:
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if id(member) in ids:
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found
