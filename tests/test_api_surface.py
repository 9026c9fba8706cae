"""Every public function, class and method in src/ has a caller in src/,
and every default parameter of one is set by some call of the program.

A public name that only tests call is API that no suite, the CLI or the
benchmark runs: move it into the tests that use it, or report what it checks.
A reference is a Name or an Attribute node with the same identifier anywhere
in src/ outside the definition itself, so the check is coarse: a method
called `norm` counts as used wherever any `.norm` is read.

A default that no call in src/ or perfbench/ (the program's traffic) passes
is a knob nobody turns: make it a module constant.  A call in tests/ does not
count, unless the default is a test's reference implementation listed in
ALLOWED_DEFAULTS.  A default that every call of the traffic passes is a value
the program never uses: make the parameter required.  Calls are matched by
the called identifier, as above; a call passes a parameter by keyword, by
position, or through *args/**kwargs.

Every function that perfbench's tracer wraps by name must still exist.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hkforms"
PERFBENCH = ROOT / "perfbench"

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "cli.main": "the console entry point",
    "exterior.forms.wedge": "the benchmark's sweep calls it and traces it as exterior.wedge",
}

# `module.function parameter` -> why a default only tests pass stays
ALLOWED_DEFAULTS = {
    "exterior.forms.inner metric": "the reference pairing of the non-flat adjointness "
                                   "check in test_operators.py",
}


def _public_definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Qualified public names of `sources` (module -> text) that nothing else names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, []).append(node)
    out = []
    for module, tree in trees.items():
        for qualified, definition in _public_definitions(module, tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in uses.get(definition.name, [])):
                out.append(qualified)
    return out


def _src_sources() -> dict[str, str]:
    return {".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def test_every_public_name_has_a_caller_in_src():
    assert sorted(set(unreferenced(_src_sources())) - set(ALLOWED)) == []


def test_allowed_names_exist():
    defined = {name for module, text in _src_sources().items()
               for name, _ in _public_definitions(module, ast.parse(text))}
    assert set(ALLOWED) <= defined


def test_guard_sees_a_test_only_function_and_method():
    # a call from inside its own definition, recursion included, is no caller
    sources = {
        "a": "def used():\n    return 1\n\ndef lonely():\n    return lonely() + used()\n",
        "b": "class Box:\n    def read(self):\n        return 1\n\n"
             "    def write(self):\n        return self.read()\n\nBox()\n",
    }
    assert unreferenced(sources) == ["a.lonely", "b.Box.write"]


def _defaults(definition: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position among the call's arguments or None if keyword-only) of each default."""
    args = definition.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _default_passes(sources: dict[str, str], callers: list[str]):
    """(`module.function parameter`, whether each call in `callers` (texts) passes
    it) for each default of a public function in `sources`."""
    calls: dict[str, list[ast.Call]] = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    for module, text in sources.items():
        for qualified, definition in _public_definitions(module, ast.parse(text)):
            if not isinstance(definition, ast.FunctionDef):
                continue
            # a method called as obj.method(...) does not pass self positionally
            bound = qualified.count(".") > module.count(".") + 1 and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in definition.decorator_list)
            for name, position in _defaults(definition, bound):
                yield f"{qualified} {name}", [_passes(call, name, position)
                                              for call in calls.get(definition.name, [])]


def unset_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Each default that no call in `callers` passes."""
    return [default for default, passed in _default_passes(sources, callers) if not any(passed)]


def overridden_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Each default that some call in `callers` passes, and every call does."""
    return [default for default, passed in _default_passes(sources, callers)
            if passed and all(passed)]


def _traffic(sources: dict[str, str]) -> list[str]:
    """The texts whose calls count: src/ and the benchmark in perfbench/, not its tests."""
    return list(sources.values()) + [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_default_parameter_is_set_by_some_call():
    sources = _src_sources()
    assert sorted(unset_defaults(sources, _traffic(sources))) == sorted(ALLOWED_DEFAULTS)


def test_guard_sees_an_unset_default():
    sources = {
        "a": "def solve(u, tol=1e-12, *, steps=3):\n    return u\n",
        "b": "class Chart:\n    def lift(self, u, h=1e-4, order=2):\n        return u\n\n"
             "    @staticmethod\n    def pack(z, w=0.0):\n        return z\n",
    }
    callers = list(sources.values()) + [
        "solve(1.0, steps=4)\nChart().lift(1.0, 1e-3)\nChart.pack(1.0)\n",
        "def forward(*args):\n    return solve(*args)\n",
    ]
    assert unset_defaults(sources, callers) == ["b.Chart.lift order", "b.Chart.pack w"]
    # without the *args call, tol is unset too
    assert unset_defaults(sources, callers[:-1]) == [
        "a.solve tol", "b.Chart.lift order", "b.Chart.pack w"]
    # a default that only a test passes is still unset in the traffic
    test_only = "def test_lift():\n    assert Chart().lift(1.0, 1e-3, order=4) == 1.0\n"
    assert unset_defaults(sources, callers + [test_only]) == ["b.Chart.pack w"]
    assert unset_defaults(sources, callers) == ["b.Chart.lift order", "b.Chart.pack w"]


def test_no_default_is_passed_by_every_call():
    sources = _src_sources()
    assert overridden_defaults(sources, _traffic(sources)) == []


def test_guard_sees_a_default_that_every_call_passes():
    sources = {
        "a": "def solve(u, tol=1e-12, *, steps=3, seed=0):\n    return u\n",
        "b": "class Chart:\n    def lift(self, u, h=1e-4):\n        return u\n",
    }
    callers = list(sources.values()) + [
        "solve(1.0, 1e-9, seed=1)\nsolve(2.0, tol=1e-6, seed=2)\nChart().lift(1.0, 1e-3)\n"]
    # steps is passed by no call: unset, not overridden
    assert overridden_defaults(sources, callers) == ["a.solve tol", "a.solve seed",
                                                     "b.Chart.lift h"]
    assert unset_defaults(sources, callers) == ["a.solve steps"]
    # one call that keeps a default clears it
    assert overridden_defaults(sources, callers + ["solve(3.0, seed=3)\n"]) == [
        "a.solve seed", "b.Chart.lift h"]


def _perfbench_spans():
    """perfbench/spans.py, loaded by path and only read: no tracer is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    # a rename in src/ must not leave `perfbench/run.py --trace` patching a missing name
    spans = _perfbench_spans()
    for prefix, module_name, path in spans.SPANNED + spans.COUNTED:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), prefix
    assert set(spans.EVALUATED) <= {prefix for prefix, _, _ in spans.SPANNED}
