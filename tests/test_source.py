"""Rules the library source keeps."""

import ast
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import orelco

LIBRARY = Path(orelco.__file__).parent


def _library(skip=None):
    """(file name, parsed tree) of each library module but ``skip``; the
    glob must find at least one module, or every rule would pass vacuously."""
    paths = sorted(LIBRARY.glob("*.py"))
    assert paths, f"no modules under {LIBRARY}"
    for path in paths:
        if path.name != skip:
            yield path.name, ast.parse(path.read_text(), filename=str(path))


def _where(skip, wanted):
    """``name:line`` of every node that ``wanted`` accepts, in every library
    module but ``skip``."""
    return [f"{name}:{node.lineno}" for name, tree in _library(skip)
            for node in ast.walk(tree) if wanted(node)]


def _calls(*names):
    def wanted(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.attr if isinstance(f, ast.Attribute)
                else getattr(f, "id", None)) in names
    return wanted


def test_library_states_invariants_as_typed_errors_not_asserts():
    # python -O strips assert statements, and with them the check
    found = _where(None, lambda node: isinstance(node, ast.Assert))
    assert not found, found


def test_only_covers_walks_the_relator_image():
    # the exponent rule lives in covers.validate_quotient; a call of
    # permutation_of or cycles elsewhere would be a second home for it
    found = _where("covers.py", _calls("permutation_of", "cycles"))
    assert not found, found


def _is_relator(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "relator"


def _relator_power(node, aliases=frozenset()) -> bool:
    """A product with a ``.relator`` attribute, or a name in ``aliases``,
    on either side."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(_is_relator(side) or isinstance(side, ast.Name)
                    and side.id in aliases
                    for side in (node.left, node.right)))


def _relator_aliases(fn) -> set:
    """The local names that ``fn`` assigns a ``.relator`` attribute to."""
    return {target.id for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _is_relator(node.value)
            for target in node.targets if isinstance(target, ast.Name)}


def test_only_orbicomplex_spells_the_relator_power():
    # relator_power_path() is the one spelling of w^n; a product with
    # x.relator elsewhere, or with a local name for it, would be a second
    found = set(_where("orbicomplex.py", _relator_power))
    for name, tree in _library("orbicomplex.py"):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                aliases = _relator_aliases(fn)
                found.update(f"{name}:{node.lineno}" for node in ast.walk(fn)
                             if _relator_power(node, aliases))
    assert not found, sorted(found)


def test_only_textio_reads_text():
    # textio._lines is the one line reader; a splitlines call elsewhere
    # would be a second text format with its own comment and error rules
    found = _where("textio.py", lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "splitlines")
    assert not found, found


def _halves_a_path(node) -> bool:
    """``p[x] = x = p[p[x]]``: a read of ``p`` through ``p`` stored in ``p``."""
    if not (isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Subscript)):
        return False
    base = ast.dump(node.value.value)
    return ast.dump(node.value.slice.value) == base and any(
        isinstance(t, ast.Subscript) and ast.dump(t.value) == base
        for t in node.targets)


def test_only_complexes_finds_union_find_roots():
    # complexes._find is the one union-find root search; a path-halving
    # loop elsewhere would be a second copy of it
    found = _where("complexes.py", _halves_a_path)
    assert not found, found


def test_only_complexes_defines_a_find():
    # a recursive root search halves no path, so the rule above misses it;
    # a function or method named find or _find elsewhere is a second copy
    found = _where("complexes.py", lambda node: isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("find", "_find"))
    assert not found, found


def _keeps_an_inverse_table(node) -> bool:
    """A definition of ``_inverse`` or a read of an ``_inverses`` table."""
    return ((isinstance(node, ast.FunctionDef) and node.name == "_inverse")
            or (isinstance(node, ast.Attribute) and node.attr == "_inverses"))


def test_only_covers_walk_reads_a_permutation_backwards():
    # covers._walk is the one walk of a word through a quotient, and reads
    # an inverse letter with p.index; an inverse table or a search of a
    # permutation elsewhere would be a second walk
    found = _where(None, _keeps_an_inverse_table)
    assert not found, found
    walk = [f"covers.py:{node.lineno}" for name, tree in _library()
            if name == "covers.py" for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_walk"
            for node in ast.walk(fn) if _calls("index")(node)]
    assert walk, "covers._walk reads no inverse letter"
    found = _where(None, _calls("index"))
    assert sorted(found) == sorted(walk), found


def _states_the_torsion_rule(node) -> bool:
    """The refusal ``<...>.branch_index < 2``."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Lt)
            and getattr(node.left, "attr", None) == "branch_index"
            and ast.dump(node.comparators[0]) == ast.dump(ast.Constant(2)))


def test_only_words_states_the_torsion_rule():
    # words._require_torsion is the one home of n >= 2; a second comparison
    # would be a second message for the same rule
    found = _where("words.py", _states_the_torsion_rule)
    assert not found, found
    assert [node for _, tree in _library() for node in ast.walk(tree)
            if _states_the_torsion_rule(node)], "the rule has no home"


_LOOPS = ("edges", "perms", "_rose_symbols")


def _in_loops(node) -> bool:
    """``<...> [not] in <...>.edges``, or ``.perms`` or ``._rose_symbols``."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and getattr(node.comparators[0], "attr", None) in _LOOPS)


def _refuses_a_letter(node) -> bool:
    """A raise guarded by a test of the loops, a comprehension that sifts
    symbols by the loops, or a call of ``is_reduced``."""
    if isinstance(node, ast.If):
        return _in_loops(node.test) and isinstance(node.body[0], ast.Raise)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return any(map(_in_loops, (c for g in node.generators for c in g.ifs)))
    return _calls("is_reduced")(node)


def test_only_words_refuses_a_letter():
    # words._check_letters is the one letter rule, and dehn_solve's refusal
    # the one reducedness rule; a loop of its own elsewhere once gave the
    # same fault three wordings and let a sign of 2 through
    found = _where("words.py", _refuses_a_letter)
    assert not found, found
    assert _where(None, _refuses_a_letter), "the rule has no home"


def _is_number(node) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bounds_a_flag(node) -> bool:
    """A comparison of an ``args.<name>`` attribute with a number."""
    sides = [node.left, *node.comparators] if isinstance(
        node, ast.Compare) else []
    return any(isinstance(side, ast.Attribute)
               and getattr(side.value, "id", None) == "args"
               for side in sides) and any(map(_is_number, sides))


# the library arguments behind the CLI's bounded flags
_BOUNDED = ("attach_probability", "max_degree", "max_stages", "max_word_len",
            "seed", "suites", "trials", "vertex_budget")


def test_only_the_library_states_an_argument_range():
    # each range is one ArgumentError raise in the library, which the CLI
    # reports under the flag's name; a bound of its own in cli.py was a
    # second wording of the rule, and once drifted from it
    found = [f"cli.py:{node.lineno}" for name, tree in _library()
             if name == "cli.py" for node in ast.walk(tree)
             if _bounds_a_flag(node)]
    assert not found, found
    homes = Counter(node.args[0].value for _, tree in _library()
                    for node in ast.walk(tree) if _calls("ArgumentError")(node))
    assert set(_BOUNDED) <= set(homes), "a rule has no home"
    assert all(count == 1 for count in homes.values()), homes


def test_no_library_module_calls_gcd():
    # covers.validate_quotient is the one home of the exponent-n rule; a gcd
    # of exponent sums would be a second derivation of it
    found = _where(None, _calls("gcd"))
    assert not found, found


_LIBRARY_TYPES = ("CellMorphism", "Graph", "OneRelatorOrbicomplex",
                  "TwoComplex")


def _tests_a_library_type(node) -> bool:
    """``isinstance(x, T)`` with ``T`` a map or complex type of the library,
    alone or in a tuple."""
    if not (_calls("isinstance")(node) and len(node.args) == 2):
        return False
    kinds = node.args[1]
    return any((getattr(kind, "id", None) or getattr(kind, "attr", None))
               in _LIBRARY_TYPES
               for kind in (kinds.elts if isinstance(kinds, ast.Tuple)
                            else [kinds]))


def test_no_library_function_branches_on_a_library_type():
    # degree once took either map type and ran a second immersion check
    # for the ordinary one, and a stacking once took a complex or an
    # orbicomplex; each function takes one map type and one complex type
    found = _where(None, _tests_a_library_type)
    assert not found, found


def test_only_cell_morphism_declares_an_edge_map():
    # a map into an orbicomplex is a CellMorphism into its presentation
    # complex; a second class with an edge_map field would be a second
    # map type beside it
    found = [f"{name}:{cls.name}" for name, cls in _classes()
             for field in cls.body
             if isinstance(field, ast.AnnAssign)
             and getattr(field.target, "id", None) == "edge_map"]
    assert found == ["complexes.py:CellMorphism"], found


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def _reads_environment(node) -> bool:
    """``os.environ``, ``os.getenv`` and kin, by attribute or by import."""
    if isinstance(node, ast.Attribute):
        return node.attr in _ENVIRONMENT
    return isinstance(node, ast.ImportFrom) and any(
        alias.name in _ENVIRONMENT for alias in node.names)


def test_no_library_module_reads_the_environment():
    # a run's output depends on its command line alone; an environment
    # variable beside a flag would be a second way in to the same value
    found = _where(None, _reads_environment)
    assert not found, found


def _imports(module):
    def wanted(node):
        return (isinstance(node, ast.ImportFrom) and node.module == module
                or isinstance(node, ast.Import)
                and any(a.name == module for a in node.names))
    return wanted


def test_only_harness_draws_random_numbers():
    # the campaigns sample; the quotient search, the covers and the pipeline
    # are deterministic by construction, whatever seed they are passed
    found = _where("harness.py", _imports("random"))
    assert not found, found


def test_no_library_module_imports_dataclasses():
    # a dataclass execs about six generated methods at every import, and
    # dataclasses imports inspect; a record that caches a table on its
    # instance subclasses a NamedTuple, which keeps an instance __dict__
    found = _where(None, _imports("dataclasses"))
    assert not found, found


UNUSED_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                   "linecache")


def test_importing_orelco_loads_no_module_it_does_not_use():
    # each of these is read and run at every start of a command or a check;
    # a fresh interpreter, as this one has them loaded already
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import orelco\n"
             "library = set(sys.modules)\n"
             "import orelco.cli\n"
             "print(sorted(library - before))\n"
             "print(sorted(set(sys.modules) - library))\n")
    path = os.pathsep.join(filter(None, [str(LIBRARY.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    library, cli = map(ast.literal_eval, out.splitlines())
    assert "orelco" in library and "orelco.cli" in cli
    assert [m for m in UNUSED_AT_START if m in library] == []
    assert [m for m in UNUSED_AT_START if m in cli] == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")


def _unnamed(modules, trees, spared, params=False):
    """``module:function`` of each module-level function of ``modules``,
    (file name, tree) pairs, that ``spared`` does not spare and that no
    top-level statement of ``trees`` names outside its own def; with
    ``params`` a parameter names the function of its name too, as a test
    names a pytest fixture."""
    named_in = defaultdict(set)     # name -> the top-level statements naming it
    for tree in trees:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named_in[node.id].add(stmt)
                elif isinstance(node, ast.Attribute):
                    named_in[node.attr].add(stmt)
                elif params and isinstance(node, ast.arg):
                    named_in[node.arg].add(stmt)
    return [f"{module}:{stmt.name}" for module, tree in modules
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not spared(stmt.name) and not named_in[stmt.name] - {stmt}]


def test_every_library_function_has_a_caller():
    # a module-level function that nothing names outside its own def is dead
    bench = sorted(PERFBENCH.glob("*.py"))
    assert bench, f"no modules under {PERFBENCH}"
    library = list(_library())
    trees = [t for _, t in library] + [ast.parse(p.read_text(), str(p))
                                       for p in bench]
    dead = _unnamed(library, trees, lambda name: name.startswith("__")
                    or name in orelco.__all__)
    assert not dead, dead


# (module, function, parameter): the unread parameters the library keeps.
# present_subgroup's seed is passed by the benchmark workloads and the
# acceptance suite, so its signature keeps the keyword.
_UNREAD_KEPT = {("pipeline.py", "present_subgroup", "seed")}


def _unread_params(fn, is_method):
    """Each parameter of ``fn`` that no name in its body reads, nested
    functions included; a method's receiver is not an input."""
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs, args.vararg, args.kwarg)
              if a is not None]
    named = {node.id for stmt in fn.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name)}
    return [p for p in params[is_method:] if p not in named]


def test_no_library_function_takes_a_parameter_it_never_reads():
    # the quotient search once took a seed that it never read: an input
    # that changes nothing is a knob that suggests it does
    found = set()
    for module, tree in _library():
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)
                   and "staticmethod" not in map(_named, fn.decorator_list)}
        found |= {(module, fn.name, p) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for p in _unread_params(fn, fn in methods)}
    assert sorted(found - _UNREAD_KEPT) == [], found
    assert found >= _UNREAD_KEPT, "an exemption names a parameter it reads"


def test_every_test_helper_has_a_caller():
    # the same rule for the tests: a module-level function of tests/*.py
    # other than a test that no other statement or parameter names is dead
    paths = sorted(Path(__file__).parent.glob("*.py"))
    tests = [(p.name, ast.parse(p.read_text(), str(p))) for p in paths]
    dead = _unnamed(tests, [t for _, t in tests],
                    lambda name: name.startswith("test_"), params=True)
    assert not dead, dead


def _reads(root) -> Counter:
    """How often each attribute name is read under ``root``."""
    return Counter(node.attr for node in ast.walk(root)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def _named(node):
    """The name a decorator, base or callee ``node`` gives: ``x`` in ``x``,
    ``m.x`` and ``x(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _classes():
    """(file name, class) of every library class."""
    return [(name, cls) for name, tree in _library() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)]


def _classes_and_reads():
    """Every library class, by module, and the attribute reads of the
    library, ``perfbench`` and the acceptance suite, the pinned public
    contract."""
    bench = sorted(PERFBENCH.glob("*.py"))
    assert bench, f"no modules under {PERFBENCH}"
    trees = [t for _, t in _library()] + [ast.parse(p.read_text(), str(p))
                                          for p in bench + [ACCEPTANCE]]
    return _classes(), sum(map(_reads, trees), Counter())


def test_every_library_method_is_read():
    # a method, property or cached property that nothing reads as an
    # attribute outside its own body is dead
    classes, everywhere = _classes_and_reads()
    dead = [f"{module}:{cls.name}.{fn.name}" for module, cls in classes
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("__")
            and everywhere[fn.name] == _reads(fn)[fn.name]]
    assert not dead, dead


def test_every_report_field_is_read():
    # a field of a report or audit that nothing reads outside its class is
    # work done on every call for no reader
    classes, everywhere = _classes_and_reads()
    reports = [(module, cls) for module, cls in classes
               if cls.name.endswith(("Report", "Audit"))]
    assert reports, "no report or audit classes"
    dead = [f"{module}:{cls.name}.{field.target.id}"
            for module, cls in reports for field in cls.body
            if isinstance(field, ast.AnnAssign)
            and isinstance(field.target, ast.Name)
            and everywhere[field.target.id] == _reads(cls)[field.target.id]]
    assert not dead, dead


_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
            ast.SetComp)


def test_no_named_tuple_field_defaults_to_a_mutable_value():
    # a NamedTuple default is one object shared by every instance that
    # takes it, so a dict default would be one dict for them all
    found = [f"{name}:{cls.name}.{field.target.id}" for name, cls in _classes()
             if any(_named(b) == "NamedTuple" for b in cls.bases)
             for field in cls.body
             if isinstance(field, ast.AnnAssign) and field.value is not None
             and (isinstance(field.value, _MUTABLE)
                  or isinstance(field.value, ast.Call)
                  and _named(field.value) in ("dict", "list", "set", "field"))]
    assert not found, found



def test_the_test_oracles_import_only_the_standard_library():
    # tests/oracles.py is the second reading of the quotient rule; importing
    # orelco, or a helper that does, would share the code that it checks
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"oracles.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] not in sys.stdlib_module_names
                 for a in node.names)
             or isinstance(node, ast.ImportFrom) and (
                 node.level or node.module.split(".")[0]
                 not in sys.stdlib_module_names)]
    assert not found, found
