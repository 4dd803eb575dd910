"""Source hygiene of the package: no unused imports, no imports inside
functions, no unreferenced definitions."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcatkit"


def _trees():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _test_trees():
    return [(f"tests/{path.name}", ast.parse(path.read_text()))
            for path in sorted((ROOT / "tests").glob("*.py"))]


def _program_trees(package):
    """The trees of the package and of the benchmark, its tests left out."""
    return [tree for _, tree in package] + [
        ast.parse(p.read_text()) for p in (ROOT / "perfbench").rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts]


def _references(tree, bare_names: bool, skip: frozenset) -> Counter:
    """Names read as variables (unless ``bare_names`` is false) or attributes.
    A string is no reference: the benchmark's tracer names what it wraps by
    string, and wrapping a definition is no use of it.  Nodes in ``skip`` are
    not entered."""
    out: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            if bare_names:
                out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree):
    """Top-level functions and classes, then the non-dunder methods of the
    classes, each with its qualified name and whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item, f"{node.name}.{item.name}", True


def test_no_unused_imports():
    """Every name an ``import`` or ``from ... import`` binds is read, in the
    package and in its tests."""
    unused = []
    for module, tree in _trees() + _test_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                # ``import a.b`` binds ``a``
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{module}:{node.lineno} {name}" for name in bound if name not in used]
    assert not unused


def test_no_package_imports_inside_functions():
    """In the package and in its tests, every package import sits at the
    top of its module."""
    local = [f"{module}:{node.lineno}" for module, tree in _trees() + _test_trees()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or node.module.split(".")[0] == "qcatkit")]
    assert not local


# Definitions that only the tests reach, each with why it stays.
TEST_ONLY = {
    # oracles for HO(N(C))(J) = C^J
    "FunctorCategory": "oracle: the functor category C^J that HO(N(C))(J) is compared with",
    "counit_functor": "oracle: the comparison Ho(N(J)) -> J",
    "functor_is_isomorphism": "oracle: decides that a comparison functor is an isomorphism",
    # other oracles
    "enumerate_nats": "oracle: all natural transformations, behind FunctorCategory",
    "one_step_homotopic": "oracle: the unclosed homotopy relation the Ho classes are checked on",
    "projection": "oracle: product projections, check map_pairs and the product's faces",
    "ProductSSet.map_pairs": "oracle: cellwise maps out of a product, behind the comparisons",
    "nerve_product_compare_inv": "oracle: N(J) x N(K) -> N(J x K), checks the chain split "
                                 "of transports and enrichment levels",
    "chain_shape_iso": "oracle: the standard simplex as the nerve of the chain poset",
    "Exponential.evaluate_at_vertex": "oracle: reads a cell of T^S at an exponent vertex",
    "Exponential.locate": "oracle: the cell a map out of S x Δn is, checks the coded levels",
    "Exponential.map_of": "oracle: the map out of S x Δn a cell is, checks the coded levels",
    "Exponential.expr_at": "oracle: behind Exponential.locate, the cell of a level-n code tuple",
    "Exponential.codes_of": "oracle: behind Exponential.map_of, the code tuple of a cell",
    "compose_maps": "oracle: composes simplicial maps, checks faces and functoriality",
    "induced_prederivator_morphism": "oracle: exact HO(f) on the nerves, which the verdict "
                                     "on the models is checked against",
    "mapping_space": "oracle: the pinned exponential Map_Q(x, y), whose Ho the face-row "
                     "surrogate is checked against",
    "TruncatedSSet.interval": "oracle: the Δ1 the mapping_space oracles of one base share",
    # claim checks of the paper's statements
    "check_strict": "claim check: strict 2-naturality of a morphism",
    "check_modification": "claim check: a modification between strict morphisms",
    "Modification": "claim check: the 2-cells check_modification audits",
    "StrictMorphism.key_on": "claim check: compares morphisms on a shared scope",
    "simplicial_operator": "claim check: the simplicial structure of the enrichment",
    "compose_simplicial": "claim check: associativity of the enrichment's composition",
    "ho_on_map": "claim check: Ho of a simplicial map, for delocalization",
    # test inputs and text formats
    "identity_nat": "test input: identity 2-cell",
    "identity_strict": "test input: identity strict morphism",
    "cat_to_text": "text format: writes a category, behind sample_to_manifest",
    "sample_to_manifest": "text format: writes a sample the CLI reads back",
    "parse_expr": "text format: reads a simplex token",
    "empty_sset": "test input: the empty simplicial set",
    "eilenberg_maclane": "test input: K(Z/2, n), on which the surrogate's π1 branch runs",
}


def test_every_definition_is_referenced():
    """Every definition is reached from the package or the benchmark,
    outside the bodies of the ``TEST_ONLY`` definitions, or is listed there;
    a reference from a test is not a use.  A method is reached only through
    an attribute, never through a bare name: a local function of
    the same name is not a call."""
    package = _trees()
    defined = [(module, node, name, method) for module, tree in package
               for node, name, method in _definitions(tree)]
    test_only = frozenset(node for _, node, name, _ in defined if name in TEST_ONLY)
    trees = _program_trees(package)
    counts = {bare: sum((_references(t, bare, test_only) for t in trees), Counter())
              for bare in (True, False)}
    dead, stale = [], sorted(set(TEST_ONLY) - {name for _, _, name, _ in defined})
    for module, node, name, method in defined:
        # a reference from inside the definition itself (recursion) does not count
        own = _references(node, not method, test_only)[node.name]
        used = counts[not method][node.name] - own
        if name in TEST_ONLY and used > 0:
            stale.append(name)
        elif name not in TEST_ONLY and used < 1:
            dead.append(f"{module}:{node.lineno} {name}")
    assert not dead
    assert not stale


def test_every_test_only_definition_is_read_by_a_test():
    """Every ``TEST_ONLY`` entry is read, as a name or an attribute, in a
    test module other than this one; its name in a string is no read.  So
    an oracle whose last test went is no longer kept."""
    read = sum((_references(tree, True, frozenset()) for module, tree in _test_trees()
                if module != "tests/test_hygiene.py"), Counter())
    unread = [name for name in TEST_ONLY if not read[name.rsplit(".", 1)[-1]]]
    assert not unread


# Parameters with a default that no call in the package or the benchmark
# passes, each with why it stays.
TEST_OPTIONS = {
    "Exponential.pinned": "the mapping_space oracle pins its exponential through it, and "
                          "tests pass pinned={} to force the direct search",
    "Exponential.name": "the mapping_space oracle names its exponential Q(x,y) through it",
    "enrichment_sample.depth": "the compose_simplicial associativity check needs its nested "
                               "products",
    "main.argv": "the CLI tests pass their arguments through it",
}


def _options(defined):
    """Per definition, its qualified name, the name its calls use, and its
    parameters with a default, each with its position in a call (None for a
    keyword-only one).  A class's are those of its ``__init__``; a method's
    and a class's positions start after ``self``."""
    for node, name, method in defined:
        fn, skip = node, int(method)
        if isinstance(node, ast.ClassDef):
            fn = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                       and item.name == "__init__"), None)
            skip = 1
        if fn is None:
            continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args][skip:]
        defaults = positional[len(positional) - len(a.defaults):]
        options = [(p, positional.index(p)) for p in defaults]
        options += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if options:
            yield name, node.name, options


def _calls(tree, skip: frozenset):
    """Each call outside the nodes in ``skip``: the name called (a bare name
    or an attribute; for ``super().__init__`` in a class, each of its bases),
    how many positional arguments it passes (None after a ``*``), and its
    keywords (None after a ``**``)."""
    stack = [(tree, ())]
    while stack:
        node, bases = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.ClassDef):
            bases = tuple(b.id for b in node.bases if isinstance(b, ast.Name))
        stack.extend((child, bases) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            func = node.func
            called = [func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)]
            if (called == ["__init__"] and isinstance(func.value, ast.Call)
                    and getattr(func.value.func, "id", None) == "super"):
                called = bases
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {k.arg for k in node.keywords}
            for name in called:
                yield (name, None if starred else len(node.args),
                       None if None in keywords else keywords)


def test_every_option_is_set_outside_the_tests():
    """Every parameter with a default, on a definition outside ``TEST_ONLY``,
    is passed, by position or by keyword, by some call in the package or the
    benchmark outside the bodies of the ``TEST_ONLY`` definitions: an
    option that only tests set is a second configuration the program never
    runs.  The exceptions are ``TEST_OPTIONS``, each of which must still
    name such a parameter that no such call passes."""
    package = _trees()
    defined = [d for _, tree in package for d in _definitions(tree)]
    test_only = frozenset(node for node, name, _ in defined if name in TEST_ONLY)
    calls: dict = {}
    for tree in _program_trees(package):
        for called, count, keywords in _calls(tree, test_only):
            calls.setdefault(called, []).append((count, keywords))

    def passed(called: str, option: str, position) -> bool:
        return any(keywords is None or option in keywords
                   or (position is not None and (count is None or count > position))
                   for count, keywords in calls.get(called, ()))

    unset, listed = [], []
    for name, called, options in _options(d for d in defined if d[1] not in TEST_ONLY):
        for option, position in options:
            if f"{name}.{option}" in TEST_OPTIONS:
                listed.append(f"{name}.{option}")
                if passed(called, option, position):
                    unset.append(f"{name}.{option} is passed, so it needs no entry")
            elif not passed(called, option, position):
                unset.append(f"{name}.{option}")
    assert not unset
    assert sorted(listed) == sorted(TEST_OPTIONS)


def _outermost_functions(tree):
    """Functions not nested in another function: top level and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_no_unread_assignments():
    """A plain ``name = value`` in a function whose name the function never
    reads, nested closures included, is dead code, in the package and in
    its tests."""
    unread = []
    for module, tree in _trees() + _test_trees():
        for fn in _outermost_functions(tree):
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}:{node.lineno} {target.id} in {fn.name}"
                       for node in ast.walk(fn) if isinstance(node, ast.Assign)
                       for target in node.targets
                       if isinstance(target, ast.Name) and target.id not in read]
    assert not unread


MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
                     "WeakValueDictionary", "WeakKeyDictionary"}


def test_no_module_level_mutable_state():
    """Tables live on the objects they describe (``util.memo`` and
    ``util.Budget.cached`` keep them there).  A module-level dict, list, set
    or weak dictionary outlives them or keeps them apart from their owner,
    so none is allowed."""
    found = []
    for module, tree in _trees():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                mutable = name in MUTABLE_FACTORIES
            else:
                mutable = isinstance(value, MUTABLE_LITERALS)
            if mutable:
                found.append(f"{module}:{node.lineno}")
    assert not found


def _only_raises(fn) -> bool:
    """A body that only raises, after an optional docstring: a hook that
    subclasses override."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return all(isinstance(node, ast.Raise) for node in body)


def _is_memo(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "memo" for d in fn.decorator_list)


def test_every_parameter_is_read():
    """Every parameter of a function in the package, nested functions
    included, is read in its body.  Exempt are ``self``, the owner of a
    ``util.memo`` answer (its first parameter) and a body that only raises.
    A lambda takes the parameters its caller passes, so it is not scanned."""
    unread = []
    for module, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or _only_raises(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None][1 if _is_memo(fn) else 0:]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}:{fn.lineno} {p} in {fn.name}" for p in params
                       if p != "self" and p not in read]
    assert not unread
