"""Every public function, class and method in src/ has a caller in src/.

A public name that only tests call is API that no suite, the CLI or the
benchmark runs: move it into the tests that use it, or report what it checks.
A reference is a Name or an Attribute node with the same identifier anywhere
in src/ outside the definition itself, so the check is coarse: a method
called `norm` counts as used wherever any `.norm` is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hkforms"

# qualified name -> why it stays without a caller in src/
ALLOWED = {
    "cli.main": "the console entry point",
    "exterior.forms.wedge": "the benchmark's sweep calls it and traces it as exterior.wedge",
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
