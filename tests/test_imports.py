"""Every module-level import and private name in the package is read by
its module, and every public function or class is exported or read.

A deletion or a merge can leave an import, a private helper such as a
``_require_...`` check, or a public helper that only tests still call,
behind that nothing reads any more; these tests parse each module with
``ast`` and name them. ``__init__.py`` is skipped by the import check: its
imports are the package's public names.

Monomial packing is decided in ``rings`` alone: no other module defines a
packing class or its overflow signal, or packs through int bytes or
arrays, so the packed layout is known to one module. The
packing is also the only definition of each monomial order, so no other
module defines a sort key: a function named ``key`` or ``*_key``.

The basis cache is ``verify``'s alone: no other module names ``_GB_CACHE``,
``_recall`` or ``_remember``, and ``matrices`` imports nothing from
``verify``, so both determinant routes stay uncached oracles. Which bytes
name an ideal or a matrix is ``matrices``' alone: no other module writes a
bytes literal that starts an ideal's key (``b"G"``) or a minor ideal's
(``b"M..."``).

A chart is its exponent rule: ``blowup`` names no ``Substitution``, by
import or attribute, so it builds none to apply or print a chart. The
charts of a center share its ring: ``blowup.ChartMap`` calls no ``Ring``,
and ``resolution._chart_reduction`` calls no ``Center``, so a node's
center and chart ring are built once, not once per chart.

A leaf is decided from one grevlex basis: ``verify.check_leaf`` names
neither ``saturate`` nor ``elimination_order``, and ``verify.saturate`` is
the only code outside ``groebner`` that names ``elimination_order``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detsing"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unread_private_names(source):
    """(line, name) of each module-level function, class or assigned name
    starting with a single underscore that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = stmt.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom .x import a, b as c\n\nprint(sys.argv, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_SEEN: set = set()\n__all__ = []\n"
        "def _dead(rows):\n    return _LIMIT\n"
        "def _live():\n    return 1\n"
        "class _Gone:\n    pass\n"
        "def public():\n    _SEEN = 2\n    return _live()\n"
    )
    assert unread_private_names(source) == [(2, "_SEEN"), (4, "_dead"), (8, "_Gone")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_private_names_are_read(path):
    assert unread_private_names(path.read_text()) == []


def unread_public_names(sources, exported):
    """(module, line, name) of each public module-level function or class of
    the given {module: source} that is not in `exported` and that no module
    reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.id for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, tree in trees.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in exported and stmt.name not in read
    )


def exported_names(init_source):
    """The strings of the ``__all__`` list of a package's ``__init__``."""
    for stmt in ast.parse(init_source).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_finds_an_unread_public_name():
    sources = {
        "a": "def shown():\n    return helper()\ndef helper():\n    return 1\nclass Dead:\n    pass\n",
        "b": "from .a import shown\ndef unused(x):\n    return shown(x)\ndef exported():\n    pass\n",
    }
    assert unread_public_names(sources, {"shown", "exported"}) == [("a", 5, "Dead"), ("b", 2, "unused")]
    assert exported_names("__all__ = ['x', 'y']\n") == {"x", "y"}


def test_public_names_are_exported_or_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_public_names(sources, exported_names(sources["__init__.py"])) == []


PACKING_CLASSES = {"_Packing", "_Overflow"}
BYTE_ATTRIBUTES = {"from_bytes", "to_bytes", "tobytes", "frombytes"}


def packing_outside_rings(source):
    """(line, name) of each definition of _Packing or _Overflow, of each use
    of int.from_bytes, .to_bytes, .tobytes or .frombytes, called or passed,
    and of each call of array or array.array, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            if isinstance(node, ast.Attribute) and node.attr in BYTE_ATTRIBUTES:
                found.append((node.lineno, node.attr))
            elif isinstance(node, ast.Call) and "array" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)):
                found.append((node.lineno, "array"))
            continue
        found += [(node.lineno, name) for name in names if name in PACKING_CLASSES]
    return sorted(found)


def test_finds_packing_outside_rings():
    source = (
        "class _Packing:\n    pass\n"
        "_Overflow = ValueError\n"
        "def pack(m):\n    return int.from_bytes(bytes(m), 'big')\n"
        "def unpack(p, n):\n    return list(map(int.to_bytes, [p], [n], ['big']))\n"
        "def _Overflowing():\n    return (3).bit_length()\n"
        "def fields(m):\n    return array('H', m).tobytes()\n"
        "def spread(p):\n    a = array.array('Q')\n    a.frombytes(p)\n    return a\n"
        "def not_packing(xs):\n    return sorted(xs, key=len), xs.array, xs.bytes\n"
    )
    assert packing_outside_rings(source) == [
        (1, "_Packing"), (3, "_Overflow"), (5, "from_bytes"), (7, "to_bytes"),
        (11, "array"), (11, "tobytes"), (13, "array"), (14, "frombytes"),
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "rings.py"), ids=lambda p: p.name
)
def test_only_rings_packs_monomials(path):
    assert packing_outside_rings(path.read_text()) == []


def order_keys(source):
    """(line, name) of each function named key or *_key, at any depth, and of
    each lambda bound to such a name, in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if name == "key" or name.endswith("_key")]
    return sorted(found)


def test_finds_an_order_key():
    source = (
        "def grevlex_key(m):\n    return m\n"
        "def order(spec):\n    def key(m):\n        return m\n    return key\n"
        "lex_key = lambda m: m\n"
        "def monkey(xs):\n    return sorted(xs, key=lambda m: m)\n"
        "sort_key = None\n"
    )
    assert order_keys(source) == [(1, "grevlex_key"), (4, "key"), (7, "lex_key")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "rings.py"), ids=lambda p: p.name
)
def test_only_rings_defines_an_order_key(path):
    assert order_keys(path.read_text()) == []


CACHE_NAMES = {"_GB_CACHE", "_recall", "_remember"}


def cache_names(source):
    """(line, name) of each use of _GB_CACHE, _recall or _remember in
    source: as a name, an attribute, an imported name or a definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in CACHE_NAMES]
    return sorted(found)


def verify_imports(source):
    """(line, module) of each import, at any depth, that reaches the verify
    module: from .verify, from . import verify, import detsing.verify."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names if not node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, module) for module in modules if module.split(".")[-1] == "verify"]
    return sorted(found)


def test_finds_the_cache_and_verify_imports():
    source = (
        "from .verify import _GB_CACHE, groebner_of\n"
        "from . import verify\n"
        "import detsing.verify as v\n"
        "def _recall(key):\n    return v._remember(key, b'')\n"
        "def det(M):\n"
        "    from .verify import determinant_of\n"
        "    return determinant_of(M), _GB_CACHE\n"
        "from .verifying import recall\n"
    )
    assert cache_names(source) == [(1, "_GB_CACHE"), (4, "_recall"), (5, "_remember"), (8, "_GB_CACHE")]
    assert verify_imports(source) == [(1, "verify"), (2, "verify"), (3, "detsing.verify"), (7, "verify")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "verify.py"), ids=lambda p: p.name
)
def test_only_verify_names_the_cache(path):
    assert cache_names(path.read_text()) == []


def test_matrices_imports_nothing_from_verify():
    assert verify_imports((PACKAGE / "matrices.py").read_text()) == []


KEY_PREFIXES = (b"G", b"M")


def key_literals(source):
    """(line, literal) of each bytes literal in source that starts an
    ideal's basis key (b"G...") or a minor ideal's (b"M...")."""
    return sorted(
        (node.lineno, node.value) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes) and node.value.startswith(KEY_PREFIXES)
    )


def test_finds_a_key_literal():
    source = (
        "def basis(I):\n    return b'G' + I\n"
        "def minor(r, M):\n    return b'M%d,' % r + M\n"
        "sat = b'S' + b'Gx'\n"
        "text = 'G' + 'M'\n"
        "det = b'D%s,' % b'cofactor'\n"
        "tail = b'|G'\n"
    )
    assert key_literals(source) == [(2, b"G"), (4, b"M%d,"), (5, b"Gx")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "matrices.py"), ids=lambda p: p.name
)
def test_only_matrices_names_an_ideal_or_a_matrix(path):
    assert key_literals(path.read_text()) == []


def substitution_names(source):
    """(line, name) of each import, name or attribute, at any depth, that
    names Substitution in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name == "Substitution"]
    return sorted(found)


def test_finds_a_substitution():
    source = (
        "from .rings import Ring, Substitution\n"
        "def chart(R):\n"
        "    from . import rings\n"
        "    return rings.Substitution(R, R, {}), Substitution\n"
        "substitution = 'Substitution'\n"
    )
    assert substitution_names(source) == [(1, "Substitution"), (4, "Substitution"), (4, "Substitution")]


def test_blowup_imports_no_substitution():
    assert substitution_names((PACKAGE / "blowup.py").read_text()) == []


def calls_in(source, definition, callee):
    """The lines of each call of callee, by name or attribute, inside the
    module-level class or function named definition in source; None when
    source defines no such class or function."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)) and stmt.name == definition:
            return sorted(
                node.lineno for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            )
    return None


def test_finds_a_call_inside_a_definition():
    source = (
        "from .rings import Ring\n"
        "class ChartMap:\n"
        "    def __init__(self, src):\n"
        "        self.target = Ring(src.names, src.field)\n"
        "        self.other = rings.Ring([], src.field)\n"
        "def charts(center):\n"
        "    return Ring, center.Ring\n"
        "def chart_ring(src):\n"
        "    return Ring(src.names, src.field)\n"
    )
    assert calls_in(source, "ChartMap", "Ring") == [4, 5]
    assert calls_in(source, "charts", "Ring") == []
    assert calls_in(source, "chart_ring", "Ring") == [9]
    assert calls_in(source, "missing", "Ring") is None


def test_charts_share_their_center_and_its_ring():
    assert calls_in((PACKAGE / "blowup.py").read_text(), "ChartMap", "Ring") == []
    assert calls_in((PACKAGE / "resolution.py").read_text(), "_chart_reduction", "Center") == []


def namers(source, name):
    """Each module-level statement of source that names name, as a name or
    an attribute at any depth: a function or class by its own name, any
    other statement as "<module>". Imports are not counted."""
    return [
        getattr(stmt, "name", "<module>") for stmt in ast.parse(source).body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and any(name in (getattr(node, "id", None), getattr(node, "attr", None)) for node in ast.walk(stmt))
    ]


def test_finds_the_statements_that_name_a_function():
    source = (
        "from .groebner import elimination_order\n"
        "import detsing.verify as v\n"
        "def saturate(I, u):\n    return groebner(gens, elimination_order(R, [t]))\n"
        "def check_leaf(leaf):\n    return v.saturate(leaf.strict_ideal, leaf.units[0])\n"
        "class Leaf:\n    order = staticmethod(elimination_order)\n"
        "ORDER = elimination_order\n"
        "def elimination_order():\n    return 'elimination_order'\n"
    )
    assert namers(source, "elimination_order") == ["saturate", "Leaf", "<module>"]
    assert namers(source, "saturate") == ["check_leaf"]
    assert namers(source, "groebner_of") == []


def test_a_leaf_is_decided_without_saturation():
    verify_source = (PACKAGE / "verify.py").read_text()
    assert namers(verify_source, "elimination_order") == ["saturate"]
    assert "check_leaf" not in namers(verify_source, "saturate")
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("verify.py", "groebner.py")]
    assert {p.name: namers(p.read_text(), "elimination_order") for p in others} == {p.name: [] for p in others}
