"""The package namespace re-exports each layer module's public surface, and
every public name has a use outside the tests."""

import ast
import re
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


def test_every_public_name_is_used_outside_the_tests():
    # a name in a layer's __all__ is mentioned in the README, under perfbench/
    # or in the library itself, apart from its own definition and __all__ entry
    sources = sorted((ROOT / "src" / "tfuncert").glob("*.py"))
    texts = {path: path.read_text().splitlines() for path in sources}
    others = [ROOT / "README.md", *sorted(p for p in (ROOT / "perfbench").rglob("*") if p.is_file())]
    elsewhere = "\n".join(p.read_text(errors="ignore") for p in others if p.suffix in (".md", ".py", ".json"))
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
