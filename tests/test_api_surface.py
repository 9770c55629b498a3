"""Every public function, class and method of ``foldlie`` is used by the
package itself or by the benchmark harness, and every public field and
module-level name is read there: one the tests alone call or read belongs
in the test that needs it.  The sources are read with ``ast``; nothing is
imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foldlie"
HARNESS = ROOT / "perfbench"

# Public names no caller reaches by name, with the reason each is kept: a
# method whose name another definition shares names the caller that reaches
# it through an instance.
ALLOWED = {
    "weyl.WeylGroup.word": "the spelling of an element, documented in the README",
    "exactalg.RatMatrix.is_zero": "called by exactalg.nullspace",
    "exactalg.RatMatrix.rank": "called by weyl.WeylGroup.reflections",
    "exactalg.RatMatrix.inverse": "called by invariants.triality_matrix_eps",
    "exactalg.MultiPoly.is_zero": "called by unfolding.exceptional_divisor_components",
    "liealg.MatrixLieAlgebra.contains": "called by verify.suite_liealg",
    "liealg.ChevalleyData.to_json": "called by cli.cmd_liealg",
    "liealg.LieAut.apply": "called by liealg.verify_bracket_preservation",
    "rootsys.RootSystem.rank": "read by weyl.WeylGroup.generate",
    "rootsys.RootSystem.to_json": "called by cli.cmd_fold",
    "verify.Report.to_json": "called by cli.cmd_verify",
    "weyl.WeylGroup.contains": "called by weyl._commutant_indices",
    "weyl.WeylGroup.inverse": "called by cameral._relation_product",
    "weyl.WeylGroup.apply": "called by verify.suite_weyl",
}


def _references(node, cls=None, refs=None) -> tuple[Counter, Counter, Counter]:
    """Bare names (and imported names) and attribute names read under
    ``node``, and the attribute reads keyed by (owner, name): ``owner.name``,
    and ``self.name`` or ``cls.name`` with the enclosing class ``cls`` as
    owner.  An assignment target is no read."""
    names, attrs, owned = refs or (Counter(), Counter(), Counter())
    if isinstance(node, ast.ClassDef):
        cls = node.name
    store = isinstance(getattr(node, "ctx", None), ast.Store)
    if isinstance(node, ast.Name) and not store:
        names[node.id] += 1
    elif isinstance(node, ast.Attribute) and not store:
        attrs[node.attr] += 1
        if isinstance(node.value, ast.Name):
            owner = cls if node.value.id in ("self", "cls") else node.value.id
            owned[owner, node.attr] += 1
    elif isinstance(node, ast.alias):
        names[node.asname or node.name.rsplit(".", 1)[-1]] += 1
    for child in ast.iter_child_nodes(node):
        _references(child, cls, (names, attrs, owned))
    return names, attrs, owned


def _public_definitions():
    """(qualified name, short name, definition node, owning class or None)
    for every public module-level function or class and every public
    method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield f"{path.stem}.{node.name}", node.name, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item, node.name


def _defined_names() -> Counter:
    """How often each name is defined in the package, as a module-level
    function or class or as a method."""
    defined = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] += 1
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
    return defined


def unreferenced() -> list[str]:
    """Public definitions referenced nowhere in the package or the harness
    outside their own body.  A function or class counts as a bare name, an
    import or an attribute (``module.name``).  A method counts as an
    attribute (``x.name``), unless another definition shares its name: then
    only reads resolved to its class count (``Class.name``, and ``self.name``
    inside the class)."""
    names, attrs, owned = Counter(), Counter(), Counter()
    for path in [*PACKAGE.glob("*.py"), *HARNESS.glob("*.py")]:
        _references(ast.parse(path.read_text()), refs=(names, attrs, owned))
    defined = _defined_names()
    out = []
    for qualified, name, node, owner in _public_definitions():
        own_names, own_attrs, own_owned = _references(node, owner)
        if owner is None:
            uses = names[name] - own_names[name] + attrs[name] - own_attrs[name]
        elif defined[name] == 1:
            uses = attrs[name] - own_attrs[name]
        else:
            uses = owned[owner, name] - own_owned[owner, name]
        if uses <= 0:
            out.append(qualified)
    return out


def _targets(node) -> list:
    """The assignment targets of ``node``; none unless it is an assignment."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


def _stored_names(targets):
    """The names bound by assignment targets, through tuple unpacking."""
    for t in targets:
        if isinstance(t, ast.Name):
            yield t.id
        elif isinstance(t, (ast.Tuple, ast.List)):
            yield from _stored_names(t.elts)


def _public_state():
    """(qualified name, short name, whether it is a field) for every public
    module-level name bound by an assignment (dunders aside) and every
    public field of a public class: an annotation in the class body, as a
    dataclass declares its fields, or a ``self.name = ...`` inside
    ``__init__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _stored_names(_targets(node)):
                if name[0] != "_":
                    yield f"{path.stem}.{name}", name, False
            if not isinstance(node, ast.ClassDef) or node.name[0] == "_":
                continue
            fields = [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    fields += [t.attr for stmt in ast.walk(item) for t in _targets(stmt)
                               if isinstance(t, ast.Attribute)
                               and isinstance(t.value, ast.Name) and t.value.id == "self"]
            for name in dict.fromkeys(fields):
                if name[0] != "_":
                    yield f"{path.stem}.{node.name}.{name}", name, True


def unread_state() -> list[str]:
    """Public fields and module-level names read nowhere in the package or
    the harness.  A field is read as an attribute (``x.name``); a
    module-level name as a bare name, an import or an attribute
    (``module.name``); an assignment is no read.

    Reads are matched by name alone, whatever object they are read from.
    This is a blind spot: a field whose name another class also defines,
    as a field or a method (such as ``order``, ``weights`` or ``degrees``),
    counts as read when any attribute of that name is read, and a
    module-level name when any bare name spells it, a local variable too.
    An unread field of that kind goes unseen here and is found by hand."""
    names, attrs = Counter(), Counter()
    for path in [*PACKAGE.glob("*.py"), *HARNESS.glob("*.py")]:
        _references(ast.parse(path.read_text()), refs=(names, attrs, Counter()))
    return [qualified for qualified, name, field in _public_state()
            if attrs[name] + (0 if field else names[name]) == 0]


def test_every_public_name_has_a_caller():
    assert [q for q in unreferenced() if q not in ALLOWED] == []


def test_every_public_field_and_module_name_is_read():
    assert [q for q in unread_state() if q not in ALLOWED] == []


def test_allowlist_is_current():
    """Each allowed name still exists and still has no caller or reader."""
    assert set(ALLOWED) <= set(unreferenced()) | set(unread_state())
