"""Every public function and class in the package is used by the package.

A public top-level name that nothing in ``src/tempersmc`` refers to is API
that only tests reach; it either gets a caller or goes.  The allowlist holds
the oracle's cross-check routes, which exist to be compared against each
other and against the engine.  Each module's ``__all__`` lists exactly
names that exist, and every public function and class it defines.

The same holds for dataclass fields: a field that nothing in the package
reads as an attribute is state that only tests look at.  The experiment
config is exempt: it is written out whole through ``asdict``, so every
field reaches the output.  The oracle's report fields that only its tests
read are allowlisted.
And it holds for the public methods and properties of every class, which
``asdict`` does not write out.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tempersmc"

ALLOWED = {
    "flow_map": "transport by the weighted operators; cross-checks flow_map_via_s",
    "flow_map_via_s": "transport by the twisted kernels S_k; cross-checks flow_map",
    "v_norm_distance": "exact weighted-TV norm of the two-flow forgetting check",
    "norm_const_lower_bound_check": "exact normalizer masses against the Lemma 3 bound",
}


# the dataclass serialized whole through ``asdict``, so every field is output
SERIALIZED = {"ExperimentConfig"}

ALLOWED_FIELDS = {
    **{("NormConstReport", name): "report of norm_const_lower_bound_check, itself allowlisted"
       for name in ("per_k", "min_mass", "c_const", "bound", "mu_v", "u_norm", "a1_ok", "ok")},
    ("TiltedDriftObjects", "nu_nk"): "Lemma 1 tilted minorizing law; the oracle tests check it",
    ("TiltedDriftObjects", "v_nk"): "Lemma 1 tilted drift function; the oracle tests check it",
    ("TiltedDriftObjects", "v_prev"): "tilted drift one step back; the oracle tests check it",
}


def _names(top):
    """Every name, attribute and imported name that appears in one top-level node."""
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unreached_names():
    """Public top-level functions and classes that no other top-level node names.

    Each node's name set is computed once; a definition is reached when some
    node other than itself names it, that is, when the number of nodes that
    name it exceeds the one count its own node may contribute.
    """
    tops = [top for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
            for top in ast.parse(p.read_text()).body]
    names = [_names(top) for top in tops]
    naming = Counter(name for found in names for name in found)
    return [top.name for top, found in zip(tops, names)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
            and naming[top.name] == (top.name in found)]


def test_public_names_are_reached_from_the_package():
    assert sorted(unreached_names()) == sorted(ALLOWED)


def _is_dataclass(node):
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(fn, ast.Name) and fn.id == "dataclass":
            return True
    return False


def _classes_and_reads():
    """Every top-level class of the package, and every attribute name it reads."""
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [cls for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)], reads


def unread_fields():
    """(class, field) for every dataclass field that no attribute read in the package names."""
    classes, reads = _classes_and_reads()
    return [(cls.name, stmt.target.id) for cls in classes
            if _is_dataclass(cls) and cls.name not in SERIALIZED
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads]


def test_dataclass_fields_are_read_by_the_package():
    assert sorted(unread_fields()) == sorted(ALLOWED_FIELDS)


def unread_methods():
    """(class, name) for every public method or property that no package attribute read names."""
    classes, reads = _classes_and_reads()
    return [(cls.name, fn.name) for cls in classes for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and fn.name not in reads]


def test_methods_and_properties_are_read_by_the_package():
    assert unread_methods() == []


def _modules():
    """(module, parsed source) for every module of the package, ``__init__`` included."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "tempersmc" if path.stem == "__init__" else f"tempersmc.{path.stem}"
        yield importlib.import_module(name), ast.parse(path.read_text())


def test_every_name_in_all_exists():
    missing = [(module.__name__, name) for module, _ in _modules()
               for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_every_public_definition_is_in_all():
    unlisted = [(module.__name__, node.name) for module, tree in _modules() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in module.__all__]
    assert unlisted == []
