"""Every module-level function, class and assigned name of the package,
and every method and property of its classes, public or private (one leading
underscore), is used by the package itself or by the benchmark under
perfbench/.  A name that only tests call is a dead helper: it goes, or its
test calls the code underneath, unless KEPT (public names) or KEPT_PRIVATE
lists it with the reason it stays.  Methods are matched by attribute
name, whatever the object they are looked up on.  The package's re-export of
a name from its __init__ is not a use of it.  Parameters are dead too when no
call passes a defaulted one (unless KEPT_PARAMS lists it), when every call
passes one the same literal (unless KEPT_CONSTANT_PARAMS lists it), or when
every call passes a defaulted one (unless KEPT_ALWAYS_PASSED lists it)."""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prudentwalks"
SCANNED = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

KEPT = {
    "rhs_2sided": "one application of the functional equation: the independent fixed-point check",
    "rhs_4sided": "one application of the functional equation: the independent fixed-point check",
    "rhs_triangular": "one application of the functional equation: the independent fixed-point check",
    "two_sided_endpoint_closed": "closed form of the X+Y-refined 2-sided series; joins the exact drift route",
    "enumerate_walks": "the exhaustive walk list, unreduced by symmetry, that the searches are checked against",
}

KEPT_PRIVATE = {}  # private names with one leading underscore: the reason each stays

KEPT_PARAMS = {}  # "function(param)" or "Class.method(param)": the reason it stays

# "function(param)" or "Class.method(param)" that every call passes as one
# literal: the reason it stays a parameter
KEPT_CONSTANT_PARAMS = {}

# "function(param)" or "Class.method(param)" that every call passes: the
# reason it keeps its default
KEPT_ALWAYS_PASSED = {}


@lru_cache(maxsize=None)
def _tree(path):
    """The parsed file, shared by every scan so that they see the same nodes."""
    return ast.parse(path.read_text(), filename=str(path))


def _public(name):
    return not name.startswith("_")


def _private(name):
    """One leading underscore: not public, and not a dunder or mangled name."""
    return name.startswith("_") and not name.startswith("__")


def _definitions_and_references(wanted=_public):
    """(definitions, references): definitions maps each module-level
    function, class or assigned name of the package, and each method or
    property of a package class as "Class.name", whose name is wanted, to
    (name, defining nodes); references lists (name, node) for every name,
    attribute and imported name in the scanned files, but for the package
    __init__'s imports."""
    definitions, references = {}, []
    for path in SCANNED:
        tree = _tree(path)
        if path.parent == PACKAGE:
            for top in tree.body:
                if isinstance(top, (ast.Assign, ast.AnnAssign)):
                    targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                    for node in (n for target in targets for n in ast.walk(target)):
                        stored = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        if stored and wanted(node.id):
                            definitions.setdefault(node.id, (node.id, []))[1].append(node)
                if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if wanted(top.name):
                    definitions.setdefault(top.name, (top.name, []))[1].append(top)
                if isinstance(top, ast.ClassDef):
                    for node in top.body:
                        if isinstance(node, ast.FunctionDef) and wanted(node.name):
                            qualname = "%s.%s" % (top.name, node.name)
                            definitions.setdefault(qualname, (node.name, []))[1].append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, node))
            elif isinstance(node, ast.alias) and path != PACKAGE / "__init__.py":
                references.append((node.name, node))
    return definitions, references


def _unreferenced(wanted=_public):
    """Wanted names referenced nowhere outside their own definition (by
    name: a name defined in two places counts as one)."""
    definitions, references = _definitions_and_references(wanted)
    own = {}  # name -> ids of the nodes inside its definitions
    for name, nodes in definitions.values():
        own.setdefault(name, set()).update(id(n) for d in nodes for n in ast.walk(d))
    used = {name for name, node in references if name in own and id(node) not in own[name]}
    return {qualname for qualname, (name, _) in definitions.items() if name not in used}


def test_no_public_name_is_used_only_by_tests():
    dead = sorted(_unreferenced() - set(KEPT))
    assert not dead, "referenced nowhere in src/ or perfbench/: %s" % dead


def test_every_kept_name_is_still_defined_and_unused():
    # an entry whose name went, or gained a caller, is stale
    definitions, _ = _definitions_and_references()
    assert set(KEPT) <= set(definitions)
    assert set(KEPT) <= _unreferenced()


def test_no_private_name_is_used_only_by_tests():
    dead = sorted(_unreferenced(_private) - set(KEPT_PRIVATE))
    assert not dead, "private names referenced nowhere in src/ or perfbench/: %s" % dead


def test_every_kept_private_name_is_still_defined_and_unused():
    definitions, _ = _definitions_and_references(_private)
    assert set(KEPT_PRIVATE) <= set(definitions)
    assert set(KEPT_PRIVATE) <= _unreferenced(_private)


def test_private_scan_finds_the_private_definitions():
    # the gate covers module-level functions, classes and assigned names and
    # methods, and leaves public, dunder and mangled names to others
    definitions, _ = _definitions_and_references(_private)
    assert {"_dfs", "_TRI_INFLATE", "_Walk", "_Walk._parse", "CPoly._remap"} <= set(definitions)
    assert not any(name.startswith("__") or _public(name) for name, _ in definitions.values())


def _spelled_keywords(node, dicts):
    """{key: value node} of a ** argument that spells a dict literal with str
    keys, directly or as a constant subscript of a module-level dict literal
    (dicts, by name); None for any other."""
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in dicts:
        outer = dicts[node.value.id]
        key = _literal(node.slice)
        node = next((v for k, v in zip(outer.keys, outer.values) if k and _literal(k) == key), None)
    if isinstance(node, ast.Dict) and all(isinstance(getattr(k, "value", None), str) for k in node.keys):
        return {k.value: v for k, v in zip(node.keys, node.values)}
    return None


def _calls():
    """(name, positional count, starred, {keyword: value node},
    double-starred, call node) for every call in the scanned files, named by
    its function's name or attribute.  A ** argument whose keys the source
    spells counts as those keywords, any other as double-starred."""
    out = []
    for path in SCANNED:
        tree = _tree(path)
        dicts = {
            target.id: top.value for top in tree.body
            if isinstance(top, ast.Assign) and isinstance(top.value, ast.Dict)
            for target in top.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords, double = {}, False
            for k in node.keywords:
                spelled = {k.arg: k.value} if k.arg else _spelled_keywords(k.value, dicts)
                if spelled is None:
                    double = True
                else:
                    keywords.update(spelled)
            out.append((name, len(node.args), starred, keywords, double, node))
    return out


def _functions():
    """(qualname, call names, skip, def node) for each package function and
    method (but dunders other than __init__); skip is 1 where the first
    parameter is self or cls."""
    functions, bases = [], {}  # functions: (qualname, class name or None, def)
    for path in sorted(PACKAGE.glob("*.py")):
        for top in _tree(path).body:
            if isinstance(top, ast.FunctionDef):
                functions.append((top.name, None, top))
            elif isinstance(top, ast.ClassDef):
                bases[top.name] = {b.id for b in top.bases if isinstance(b, ast.Name)}
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and (
                        not node.name.startswith("__") or node.name == "__init__"
                    ):
                        functions.append(("%s.%s" % (top.name, node.name), top.name, node))

    def subclasses(cls):
        found = {cls}
        while True:
            more = {c for c, bs in bases.items() if bs & found} - found
            if not more:
                return found
            found |= more

    out = []
    for qualname, owner, node in functions:
        call_names = subclasses(owner) if node.name == "__init__" else {node.name}
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        out.append((qualname, call_names, 1 if owner and not static else 0, node))
    return out


def _default_parameters():
    """{"name(param)": (call names, positional index or None, param)} for each
    parameter with a default of a package function or method."""
    out = {}
    for qualname, call_names, skip, node in _functions():
        a = node.args
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            name = positional[i].arg
            out["%s(%s)" % (qualname, name)] = (call_names, i - skip, name)
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out["%s(%s)" % (qualname, arg.arg)] = (call_names, None, arg.arg)
    return out


def _unset_parameters():
    calls = _calls()
    return {
        key for key, (names, index, param) in _default_parameters().items()
        if not any(
            name in names and (
                param in keywords or double or (index is not None and (starred or index < npos))
            )
            for name, npos, starred, keywords, double, _ in calls
        )
    }


def test_every_default_parameter_is_passed_by_some_call():
    unset = sorted(_unset_parameters() - set(KEPT_PARAMS))
    assert not unset, "default parameters no call in src/ or perfbench/ passes: %s" % unset


def test_every_kept_parameter_is_still_defined_and_unset():
    assert set(KEPT_PARAMS) <= set(_default_parameters())
    assert set(KEPT_PARAMS) <= _unset_parameters()


def _literal(node):
    """repr of the literal that an expression node spells, or None."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def _constant_parameters():
    """{"name(param)": literal} for each parameter of a package function or
    method that every call in src/ and perfbench/ passes as the same literal;
    a call that leaves the parameter out passes its default.  A function
    whose name is also used other than as a call target (passed on, stored)
    may be called where the scan cannot see, so its parameters never count."""
    calls = _calls()
    called = {id(node.func) for *_, node in calls}
    _, references = _definitions_and_references()
    out = {}
    for qualname, call_names, skip, node in _functions():
        own = {id(n) for n in ast.walk(node)}
        if any(
            name in call_names and id(ref) not in called and id(ref) not in own
            and not isinstance(ref, ast.alias)
            for name, ref in references
        ):
            continue
        sites = [c for c in calls if c[0] in call_names]
        a = node.args
        positional = a.posonlyargs + a.args
        defaults = dict(zip([p.arg for p in positional[len(positional) - len(a.defaults):]], a.defaults))
        defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        params = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= skip]
        params += [(None, p.arg) for p in a.kwonlyargs]
        for index, param in params:
            values = set()
            for _, npos, starred, keywords, double, call in sites:
                if starred or double:
                    values.add(None)
                elif param in keywords:
                    values.add(_literal(keywords[param]))
                elif index is not None and index < npos:
                    values.add(_literal(call.args[index]))
                else:
                    values.add(_literal(defaults[param]) if param in defaults else None)
            if len(values) == 1 and None not in values:
                out["%s(%s)" % (qualname, param)] = values.pop()
    return out


def test_no_parameter_is_the_same_literal_at_every_call():
    constant = sorted(set(_constant_parameters()) - set(KEPT_CONSTANT_PARAMS))
    assert not constant, "parameters every call in src/ or perfbench/ passes as one literal: %s" % constant


def test_every_kept_constant_parameter_is_still_constant():
    assert set(KEPT_CONSTANT_PARAMS) <= set(_constant_parameters())


def _always_passed_parameters():
    """Defaulted parameters that some call in src/ and perfbench/ passes and
    no call leaves out, so that the default is never read.  A call with * or
    with a ** whose keys the source does not spell may leave any out."""
    calls = _calls()
    out = set()
    for key, (names, index, param) in _default_parameters().items():
        sites = [c for c in calls if c[0] in names]
        if sites and all(
            not (starred or double) and (param in keywords or (index is not None and index < npos))
            for _, npos, starred, keywords, double, _ in sites
        ):
            out.add(key)
    return out


def test_no_default_is_passed_by_every_call():
    always = sorted(_always_passed_parameters() - set(KEPT_ALWAYS_PASSED))
    assert not always, "defaults every call in src/ or perfbench/ overrides: %s" % always


def test_every_kept_always_passed_parameter_is_still_passed_by_every_call():
    assert set(KEPT_ALWAYS_PASSED) <= _always_passed_parameters()


def _owned_private_names(tree):
    """Private names a package module defines: at module level, in a class
    body, or as an attribute it assigns (self._x = ...)."""
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owned.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            owned.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owned.add(node.attr)
    return {name for name in owned if _private(name)}


def _foreign_private_uses():
    """(module, name) for each private name that a package module imports
    from another package module, or reads as an attribute while only other
    package modules define it."""
    trees = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    owned = {module: _owned_private_names(tree) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in owned.items() if other != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prudentwalks"):
                out += [(module, alias.name) for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Attribute) and node.attr in elsewhere - owned[module]:
                out.append((module, node.attr))
    return out


def test_no_module_reads_another_modules_private_names():
    # a private helper that another module needs is shared API: it gets a
    # public name, so the scans above see its users for what they are
    foreign = sorted(set(_foreign_private_uses()))
    assert not foreign, "private names read from another package module: %s" % foreign
