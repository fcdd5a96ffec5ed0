"""Every public function, class, method and property in ``src/lawkit`` has a
caller in ``src/lawkit``, no module imports a name it never uses, every
``@dataclass`` uses something a ``typing.NamedTuple`` cannot give, no record
stores a 2-cell with its boundary functors, lawkit's own exceptions are the
five it reports, and ``finset.enumerate_models`` runs only in the replay of a
theory's models.

A name that only tests reach belongs in the tests; a name nothing reaches
belongs nowhere.  The one exemption is ``cli.main``, the ``lawkit`` console
entry point that ``pyproject.toml`` names.

References are resolved, not matched by name, so one definition cannot hide
behind another of the same name:

* a top-level name is reached by its bare name in its own module, by a name
  imported from its module, or as ``module.name`` after ``from . import
  module``, unless a parameter or local variable of the function shadows
  ``module``;
* a member ``C.m`` is reached by ``x.m`` where ``x`` has a type related to
  ``C`` by inheritance.  Types are read from ``self``, annotations of
  parameters, fields and return values, ``isinstance`` tests and
  constructor calls.  Where the type of ``x`` is unknown, ``x.m`` counts only
  when no other class defines a member ``m``.

References inside a definition itself (recursion) do not count.
"""

import ast
import builtins
from collections import Counter, defaultdict

from conftest import ROOT

SRC = ROOT / "src" / "lawkit"
TESTS = ROOT / "tests"
ENTRY_POINTS = {("cli", "main")}


def _is_class(t: str) -> bool:
    return t[0] not in "*["


def _parse(directory):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


class Source:
    """The classes, members and top-level functions of the ``src/lawkit`` modules."""

    def __init__(self, trees: dict[str, ast.Module]):
        self.trees = trees
        self.classes = {node.name: node for tree in trees.values() for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        self.functions = defaultdict(list)
        for tree in trees.values():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions[node.name].append(node)
        self.members = {name: self._members(node) for name, node in self.classes.items()}
        self.owners = defaultdict(set)
        for cls, members in self.members.items():
            for member in members:
                self.owners[member].add(cls)

    @staticmethod
    def _members(node: ast.ClassDef) -> dict[str, ast.AST]:
        members = {}
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                members[item.name] = item
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                members[item.target.id] = item
        return members

    def ancestors(self, cls: str) -> list[str]:
        out = [cls]
        for base in self.classes[cls].bases:
            if isinstance(base, ast.Name) and base.id in self.classes:
                out += self.ancestors(base.id)
        return out

    def related(self, a: str, b: str) -> bool:
        return a in self.ancestors(b) or b in self.ancestors(a)

    def annotation(self, node) -> frozenset:
        """Classes an annotation names; ``*C`` stands for a tuple or list of C,
        ``[C`` for a dict with values C."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Name) and node.id in self.classes:
            return frozenset({node.id})
        if isinstance(node, ast.BinOp):  # C | None
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id in ("tuple", "list"):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if len(args) == 1 or (len(args) == 2 and isinstance(args[1], ast.Constant)):
                return frozenset("*" + c for c in self.annotation(args[0]) if _is_class(c))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id == "dict" and isinstance(node.slice, ast.Tuple):
            return frozenset("[" + c for c in self.annotation(node.slice.elts[1]) if _is_class(c))
        return frozenset()

    def member_type(self, types, attr: str, called: bool) -> frozenset:
        out = set()
        for cls in filter(_is_class, types):
            for owner in self.ancestors(cls):
                member = self.members[owner].get(attr)
                if isinstance(member, ast.AnnAssign):
                    out |= self.annotation(member.annotation)
                elif member is not None and (called or any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in member.decorator_list)):
                    out |= self.annotation(member.returns)
                if member is not None:
                    break
        return frozenset(out)

    def returns(self, name: str) -> frozenset:
        return frozenset().union(*(self.annotation(f.returns) for f in self.functions[name]))


class Scope:
    """Flow-insensitive types of the local names of one function (or of a
    module's top-level statements), nested functions included."""

    def __init__(self, src: Source, root: ast.AST, cls: str | None):
        self.src = src
        self.env = defaultdict(set)
        if cls is not None and root.args.args:
            self.env[root.args.args[0].arg].add(cls)
        for _ in range(3):  # let assignments see the types of earlier ones
            for node in ast.walk(root):
                self._learn(node)

    def _learn(self, node):
        src, env = self.src, self.env
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            for arg in node.args.args + node.args.kwonlyargs:
                env[arg.arg] |= src.annotation(arg.annotation)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and isinstance(node.args[0], ast.Name):
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if isinstance(kind, ast.Name) and kind.id in src.classes:
                    env[node.args[0].id].add(kind.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] |= self.type(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            env[node.target.id] |= src.annotation(node.annotation)
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            env[node.target.id] |= {t[1:] for t in self.type(node.iter) if t.startswith("*")}

    def type(self, node) -> frozenset:
        src = self.src
        if isinstance(node, ast.Name):
            return frozenset(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return src.member_type(self.type(node.value), node.attr, False)
        if isinstance(node, ast.Subscript):
            return frozenset(t[1:] for t in self.type(node.value) if not _is_class(t))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in src.classes:
                return frozenset({name})
            if isinstance(func, ast.Attribute) and self.type(func.value):
                return src.member_type(self.type(func.value), func.attr, True)
            return src.returns(name)
        return frozenset()


def _member_references(src: Source) -> Counter:
    """(class, member) -> number of resolved ``x.member`` references."""
    refs: Counter = Counter()

    def scan(root, cls=None, defining=None):
        scope = Scope(src, root, cls)
        for node in ast.walk(root):
            if not isinstance(node, ast.Attribute):
                continue
            types = set(filter(_is_class, scope.type(node.value)))
            for owner in src.owners.get(node.attr, ()):
                if (owner, node.attr) == defining:
                    continue
                if types and not any(src.related(owner, t) for t in types):
                    continue
                if not types and len(src.owners[node.attr]) > 1:
                    continue
                refs[owner, node.attr] += 1

    for tree in src.trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        scan(item, node.name, (node.name, item.name))
            elif isinstance(node, ast.FunctionDef):
                scan(node)
        scan(ast.Module([n for n in tree.body
                         if not isinstance(n, (ast.FunctionDef, ast.ClassDef))], []))
    return refs


def _top_level_references(trees: dict[str, ast.Module]) -> Counter:
    """(module, name) -> number of references that resolve to that module."""
    defined = {module: {n.name for n in tree.body
                        if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
               for module, tree in trees.items()}
    refs: Counter = Counter()
    for module, tree in trees.items():
        imported, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        shadowed = set()  # ids of the Name nodes that read a local, not a module
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                args = fn.args
                local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                local |= {n.id for n in ast.walk(fn)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                shadowed |= {id(n) for n in ast.walk(fn)
                             if isinstance(n, ast.Name) and n.id in local and n.id in modules}
        owner_of_definition = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    owner_of_definition[id(inner)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id in defined[module]:
                    target = (module, node.id)
                elif node.id in imported:
                    target = imported[node.id]
                else:
                    continue
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules and id(node.value) not in shadowed:
                target = (modules[node.value.id], node.attr)
            else:
                continue
            if target != (module, owner_of_definition.get(id(node))):
                refs[target] += 1
    return refs


def unreferenced_public_names(trees: dict[str, ast.Module]) -> list[str]:
    src = Source(trees)
    top = _top_level_references(trees)
    members = _member_references(src)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module, node.name) in ENTRY_POINTS:
                continue
            if not top[module, node.name]:
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_") \
                            and not members[node.name, item.name]:
                        unused.append(f"{module}.{node.name}.{item.name}")
    return unused


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    return unused


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).partition("(")[0] == "dataclass" for d in node.decorator_list)


def _uses_a_dataclass_feature(item) -> bool:
    if isinstance(item, ast.FunctionDef):
        return item.name == "__post_init__" or any(
            ast.unparse(d).endswith("cached_property") for d in item.decorator_list)
    return isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call) \
        and ast.unparse(item.value.func) == "field"


def records_that_could_be_tuples(trees: dict[str, ast.Module]) -> list[str]:
    """The ``@dataclass`` classes with no ``__post_init__``, no ``field(...)``,
    no ``cached_property`` and no dataclass base or subclass: a record that
    needs none of these is a ``typing.NamedTuple``, which is cheaper to define
    and to build."""
    dataclasses = {node.name: (module, node) for module, tree in trees.items()
                   for node in tree.body if _is_dataclass(node)}
    inheriting = set()
    for name, (_, node) in dataclasses.items():
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)} & dataclasses.keys()
        if bases:
            inheriting |= bases | {name}
    return [f"{module}.{name}" for name, (module, node) in dataclasses.items()
            if name not in inheriting and not any(map(_uses_a_dataclass_feature, node.body))]


def test_every_dataclass_uses_what_a_tuple_lacks():
    assert records_that_could_be_tuples(_parse(SRC)) == []


def test_records_that_could_be_tuples_sees_each_dataclass_feature():
    tree = ast.parse("@dataclass(frozen=True)\nclass Plain:\n    x: int\n"
                     "@dataclass\nclass Checked:\n    def __post_init__(self): pass\n"
                     "@dataclass\nclass Memo:\n    m: dict = field(default_factory=dict)\n"
                     "@dataclass\nclass Cached:\n    @functools.cached_property\n"
                     "    def c(self): pass\n"
                     "@dataclass\nclass Base:\n    pass\n"
                     "@dataclass\nclass Derived(Base):\n    y: int = 0\n"
                     "class Record(NamedTuple):\n    z: int\n")
    assert records_that_could_be_tuples({"m": tree}) == ["m.Plain"]


def fields_naming(trees: dict[str, ast.Module], type_name: str) -> list[str]:
    """``module.Class.field`` for each field of a class whose annotation
    names ``type_name``, bare, qualified or nested in another type."""
    def names(annotation) -> bool:
        return any(isinstance(n, ast.Name) and n.id == type_name
                   or isinstance(n, ast.Attribute) and n.attr == type_name
                   for n in ast.walk(annotation))
    return [f"{module}.{node.name}.{item.target.id}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and names(item.annotation)]


def test_no_record_stores_a_natural_transformation():
    # A 2-cell is stored as its component table: its boundary functors are
    # fixed by the 1-cells around it, and a ``FinNat`` is built only where a
    # naturality check reads them.
    assert fields_naming(_parse(SRC), "FinNat") == []


def test_the_field_scan_sees_nested_and_qualified_annotations():
    tree = ast.parse("class A:\n    x: tuple[tuple[str, FinNat], ...]\n    y: int\n"
                     "class B(NamedTuple):\n    z: fincat.FinNat\n"
                     "    def f(self) -> FinNat: pass\n")
    assert fields_naming({"m": tree}, "FinNat") == ["m.A.x", "m.B.z"]


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_public_names(_parse(SRC)) == []


def test_module_qualified_references_resolve_to_their_module():
    # `live` is reached as `a.live`; `dead` only through a parameter and a
    # local variable that shadow the module `a`.
    trees = {
        "a": ast.parse("def live(): pass\n"
                       "def dead(): pass\n"),
        "b": ast.parse("from . import a\n"
                       "def _use(): return a.live()\n"
                       "def _param(a): return a.dead()\n"
                       "def _local():\n"
                       "    a = {}\n"
                       "    return a.dead()\n"),
    }
    assert unreferenced_public_names(trees) == ["a.dead"]


def test_every_import_is_used():
    assert unused_imports(_parse(SRC)) == []
    assert unused_imports(_parse(TESTS)) == []


# The exceptions lawkit defines: each is reported, by an exit code of
# ``cli.run`` or as a positioned diagnostic (``dsl.ParseError``).  Whatever
# else is raised is a built-in exception, and signals a lawkit bug.
EXCEPTIONS = {"TheoryError", "InputError", "ModelViolation", "EnumerationBound", "ParseError"}
# Besides those, an ``except`` may name a file that cannot be read or
# decoded, and argparse's exit; ``cli.main`` alone catches every exception,
# to report a bug.
CAUGHT_BUILTINS = {"OSError", "UnicodeDecodeError", "SystemExit"}
CATCH_ALL = ("cli.main", "Exception")


def exception_classes(trees: dict[str, ast.Module]) -> set[str]:
    """The classes defined in ``trees`` that derive from a built-in
    exception, directly or through one another."""
    bases = {node.name: [ast.unparse(b).rpartition(".")[2] for b in node.bases]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, bases.get(name, ())))

    return {name for name in bases if is_exception(name)}


def caught(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """``(module.definition, name)`` for each exception an ``except`` names,
    by the top-level definition it is in; a bare ``except`` names ``""``."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            where = f"{module}.{getattr(node, 'name', '<module>')}"
            for handler in ast.walk(node):
                if not isinstance(handler, ast.ExceptHandler):
                    continue
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
                    else [handler.type] if handler.type is not None else []
                out += [(where, ast.unparse(k).rpartition(".")[2]) for k in kinds] or [(where, "")]
    return out


def test_lawkit_defines_only_the_exceptions_it_reports():
    assert exception_classes(_parse(SRC)) == EXCEPTIONS


def test_every_except_names_a_reported_exception():
    allowed = EXCEPTIONS | CAUGHT_BUILTINS
    stray = [f"{where}: {name or 'bare except'}" for where, name in caught(_parse(SRC))
             if name not in allowed and (where, name) != CATCH_ALL]
    assert stray == []


def test_the_exception_scan_sees_subclasses_tuples_and_bare_excepts():
    trees = {"m": ast.parse("class A(Exception): pass\n"
                            "class B(A): pass\n"
                            "class C(errors.ValueError): pass\n"
                            "class D: pass\n"
                            "def f():\n"
                            "    try: pass\n"
                            "    except (B, dsl.C): pass\n"
                            "    except: pass\n")}
    assert exception_classes(trees) == {"A", "B", "C"}
    assert caught(trees) == [("m.f", "B"), ("m.f", "C"), ("m.f", "")]


def references_to(trees: dict[str, ast.Module], name: str) -> list[str]:
    """``module.definition`` for each use of ``name`` (a bare name, an
    attribute or an import), by the innermost function it is in."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Name) and child.id == name \
                    or isinstance(child, ast.Attribute) and child.attr == name \
                    or isinstance(child, ast.alias) and child.name == name:
                out.append(where)
            visit(child, where)

    for module, tree in trees.items():
        visit(tree, module)
    return out


def test_a_theorys_models_come_only_from_its_replay():
    """Every command takes a theory's models from ``TheoryPresentation.models``,
    so each (theory, size) is enumerated once."""
    assert references_to(_parse(SRC), "enumerate_models") == ["theory.TheoryPresentation.models"]


def test_the_reference_scan_sees_names_attributes_and_imports():
    trees = {"m": ast.parse("from .f import g\n"
                            "class C:\n"
                            "    def h(self):\n"
                            "        return f.g(g)\n"
                            "def g(): pass\n")}
    assert references_to(trees, "g") == ["m", "m.C.h", "m.C.h"]
