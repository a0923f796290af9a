"""What perfbench/ relies on in toric_exc must exist, with the same call shapes.

perfbench/spans.py wraps functions by module and name, and perfbench/child.py
and perfbench/workloads.py call the library directly.  A renamed function or
a dropped parameter would make every benchmark operation fail, or leave a
traced round without its spans, and no other test would notice.  These tests
only read perfbench/; they change nothing there.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_module_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_module"
            and len(node.args) == 1)


def _module_literal(node):
    """'X' for the expression _module("X"), else None."""
    if _is_module_call(node) and isinstance(node.args[0], ast.Constant):
        return node.args[0].value
    return None


def _library_calls(path):
    """(module, function, call node) for every call of a toric_exc function in a script.

    Functions are reached through `from toric_exc.X import f`, through a name
    bound to `_module("X")` (also in a tuple or a generator over literal
    names), or as `_module("X").f(...)`.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toric_exc."):
            for alias in node.names:
                functions[alias.asname or alias.name] = (node.module.split(".", 1)[1], alias.name)
        if not isinstance(node, ast.Assign):
            continue
        targets = node.targets[0]
        names = [t.id for t in targets.elts] if isinstance(targets, ast.Tuple) else [getattr(targets, "id", None)]
        value = node.value
        if isinstance(value, ast.GeneratorExp) and _is_module_call(value.elt):
            shorts = [c.value for c in value.generators[0].iter.elts]
        elif isinstance(value, ast.Tuple):
            shorts = [_module_literal(v) for v in value.elts]
        else:
            shorts = [_module_literal(value)]
        for name, short in zip(names, shorts):
            if short is not None:
                modules[name] = short

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            calls.append((*functions[func.id], node))
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                calls.append((modules[func.value.id], func.attr, node))
            elif _module_literal(func.value) is not None:
                calls.append((_module_literal(func.value), func.attr, node))
    return calls


def test_traced_and_counted_names_resolve():
    spans = _load_spans()
    for table in (spans.TRACED, spans.COUNTED):
        for short, names in table.items():
            module = importlib.import_module(f"toric_exc.{short}")
            for name in names:
                assert callable(getattr(module, name, None)), f"toric_exc.{short}.{name}"


@pytest.mark.parametrize("script", ["child.py", "workloads.py"])
def test_every_library_call_binds(script):
    calls = _library_calls(PERFBENCH / script)
    assert calls
    for short, name, node in calls:
        fn = getattr(importlib.import_module(f"toric_exc.{short}"), name, None)
        assert callable(fn), f"{script}:{node.lineno} toric_exc.{short}.{name}"
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(kw.arg is not None for kw in node.keywords)
        try:
            inspect.signature(fn).bind(*[None] * len(node.args), **{kw.arg: None for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{script}:{node.lineno} {short}.{name}: {exc}")


def test_child_makes_the_expected_calls():
    # guards the parser above: it must find the calls the workloads are built on
    found = {(short, name, len(node.args), tuple(sorted(kw.arg for kw in node.keywords)))
             for short, name, node in _library_calls(PERFBENCH / "child.py")}
    for query in ("cohomology_table", "is_acyclic", "has_nonzero_global_sections"):
        assert ("cohomology", query, 2, ("escalate",)) in found
    assert ("frobenius", "decompose", 4, ()) in found
    assert ("cohomology", "forbidden_sets", 1, ()) in found
    assert ("cli", "main", 1, ()) in found


def test_arguments_and_fields_that_spans_reads():
    # spans.py reads some arguments by position or name, and some result fields
    spans = _load_spans()
    for query in spans.QUERIES:
        short, name = query.split(".")
        params = list(inspect.signature(getattr(importlib.import_module(f"toric_exc.{short}"), name)).parameters)
        assert params[:2] == ["ctx", "divisor"], query
    from toric_exc.cohomology import CohomologyTable, ForbiddenSetReport
    from toric_exc.exceptional import VerificationReport
    from toric_exc.frobenius import FrobeniusDecomposition, decompose
    params = list(inspect.signature(decompose).parameters)
    assert params[0] == "fan" and params[3] == "p"
    for cls, field in ((FrobeniusDecomposition, "summands"), (CohomologyTable, "box_radius_used"),
                       (ForbiddenSetReport, "forbidden"), (VerificationReport, "collection")):
        assert field in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, field)
