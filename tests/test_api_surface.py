"""Every public function, class and method of ``foldlie`` is used by the
package itself or by the benchmark harness: one the tests alone call
belongs in the test that calls it.  The sources are read with ``ast``;
nothing is imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foldlie"
HARNESS = ROOT / "perfbench"

# Public names no caller reaches by name, with the reason each is kept.
ALLOWED = {
    "weyl.WeylGroup.word": "the spelling of an element, documented in the README",
}


def _references(node) -> tuple[Counter, Counter]:
    """Bare names (and imported names) and attribute names used under ``node``."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.asname or n.name.rsplit(".", 1)[-1]] += 1
    return names, attrs


def _public_definitions():
    """(qualified name, short name, definition node, is a method) for every
    public module-level function or class and every public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item, True


def unreferenced() -> list[str]:
    """Public definitions referenced nowhere in the package or the harness
    outside their own body.  A method counts only as an attribute
    (``x.name``); a function or class as a bare name, an import or an
    attribute (``module.name``)."""
    names, attrs = Counter(), Counter()
    for path in [*PACKAGE.glob("*.py"), *HARNESS.glob("*.py")]:
        n, a = _references(ast.parse(path.read_text()))
        names += n
        attrs += a
    out = []
    for qualified, name, node, method in _public_definitions():
        own_names, own_attrs = _references(node)
        uses = attrs[name] - own_attrs[name]
        if not method:
            uses += names[name] - own_names[name]
        if uses <= 0:
            out.append(qualified)
    return out


def test_every_public_name_has_a_caller():
    assert [q for q in unreferenced() if q not in ALLOWED] == []


def test_allowlist_is_current():
    """Each allowed name still exists and still has no caller."""
    assert set(ALLOWED) <= set(unreferenced())
