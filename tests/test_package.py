"""The package namespace re-exports each layer module's public surface,
every public name has a use outside the tests, the input symmetries are
decided in one place, and the streamed reducer is read through its feed and
finish only."""

import ast
import io
import re
import tokenize
from pathlib import Path

import tfuncert
from tfuncert import certifier, cli, constants, norms, sampling, transforms, variational

LAYERS = (constants, sampling, transforms, norms, certifier, variational)


def test_package_all_is_the_union_of_the_layer_alls():
    names = [name for mod in LAYERS for name in mod.__all__]
    assert len(set(names)) == len(names)  # no name is public in two layers
    assert sorted(tfuncert.__all__) == sorted(["__version__", "main", *names])
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(tfuncert, name) is getattr(mod, name), name
    assert tfuncert.main is cli.main


ROOT = Path(__file__).resolve().parent.parent


def _definition_lines(path):
    """Line spans of ``path``'s ``__all__`` assignment and of each top-level definition.

    A function's or class's span is all of it, body included, so the name in
    its own error messages or recursive calls is not a use.
    """
    tree = ast.parse(path.read_text())
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans[name] = list(range(node.lineno, node.end_lineno + 1))
    return spans


def _uncommented(path):
    """``path``'s text with each ``#`` comment cut from its line; strings and docstrings stay."""
    text = path.read_text()
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def test_every_public_name_is_used_outside_the_tests():
    # a name in a layer's __all__ is mentioned in the README, under perfbench/
    # or in the library itself, apart from its own definition and __all__
    # entry; in Python files code and docstrings count, comments do not
    sources = sorted((ROOT / "src" / "tfuncert").glob("*.py"))
    texts = {path: _uncommented(path) for path in sources}
    others = [ROOT / "README.md", *sorted(p for p in (ROOT / "perfbench").rglob("*") if p.is_file())]
    elsewhere = "\n".join(
        "\n".join(_uncommented(p)) if p.suffix == ".py" else p.read_text(errors="ignore")
        for p in others
        if p.suffix in (".md", ".py", ".json")
    )
    unused = []
    for mod in LAYERS:
        path = Path(mod.__file__)
        spans = _definition_lines(path)
        own = set(spans["__all__"])
        for name in mod.__all__:
            skip = own | set(spans.get(name, ()))
            word = re.compile(rf"\b{re.escape(name)}\b")
            library = (
                line for src, lines in texts.items() for k, line in enumerate(lines, 1)
                if not (src == path and k in skip)
            )
            if not word.search(elsewhere) and not any(word.search(line) for line in library):
                unused.append(f"{mod.__name__}.{name}")
    assert unused == []


def test_mirror_comparisons_are_made_by_the_shared_decision_only():
    # transforms._input_symmetries decides every input symmetry; no other
    # library function calls _mirror_even, so the streamed norms and the
    # spectrum forms cannot drift apart
    callers = set()
    for path in sorted((ROOT / "src" / "tfuncert").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "_mirror_even":
                        callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("transforms.py", "_input_symmetries")}


def test_the_reducer_layout_stays_inside_norms():
    # outside norms the streamed reducer is read through stream, inner and
    # value only, so its weight tables and counts can change in one module;
    # the dense mixed_norm never names it, so it checks the reducer
    def constructs(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_MixedReduction"

    read = set()
    for path in sorted((ROOT / "src" / "tfuncert").glob("*.py")):
        if path.name == "norms.py":
            continue
        for top in ast.parse(path.read_text()).body:
            bound = {
                target.id
                for node in ast.walk(top)
                if isinstance(node, ast.Assign) and constructs(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and (
                    constructs(node.value) or getattr(node.value, "id", None) in bound
                ):
                    read.add(node.attr)
    assert read == {"stream", "inner", "value"}
    tree = ast.parse((ROOT / "src" / "tfuncert" / "norms.py").read_text())
    (mixed,) = [top for top in tree.body if getattr(top, "name", None) == "mixed_norm"]
    assert not any(getattr(node, "id", None) == "_MixedReduction" for node in ast.walk(mixed))
