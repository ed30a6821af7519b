"""Source hygiene of the package, read with `ast` (no linter needed).

Every imported name must be used, every module-level def or class
must be referenced somewhere in the package, only `families` reads
a family's fields or tests its class (and tests it only in `max_blocks`
and the config functions), `clear_caches` empties every cache a
def of the package is decorated with, and no function mutates a dict,
list or set bound at module level.  A nested function that calls
itself is deleted when its caller ends, the window pass is driven
from one place, and the norming closure is run only by the patterns
cache and the raw generation.  One call of each norm, of the norming-set and
certificate writers and readers, and of a precision retry leaves no
reference cycle behind for the cyclic collector.
"""
import ast
import contextlib
import gc
import importlib
import io
import os
from fractions import Fraction
from pathlib import Path

import pytest

import tsinorm
from tsinorm import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tsinorm"
SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}


def used_names(node) -> set:
    """Names read under `node`: bare names, attribute names, and the
    strings listed in an `__all__`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets):
            out.update(elt.value for elt in sub.value.elts)
    return out


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_import_is_used(module):
    tree, lines = TREES[module], SOURCES[module].splitlines()
    used = used_names(tree)
    unused = []
    for stmt in ast.walk(tree):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{module}:{stmt.lineno} {name}")
    assert unused == []


def test_every_module_level_definition_is_referenced():
    # a definition's own body does not count as a reference to it, but
    # any other top-level statement of the package does, imports included
    statements = [(module, stmt) for module, tree in TREES.items() for stmt in tree.body]
    references = [(stmt, used_names(stmt) | {alias.asname or alias.name
                                              for sub in ast.walk(stmt)
                                              if isinstance(sub, (ast.Import, ast.ImportFrom))
                                              for alias in sub.names})
                  for _, stmt in statements]
    unreferenced = [
        f"{module}:{stmt.lineno} {stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in references if other is not stmt)]
    assert unreferenced == []


FAMILY_CLASSES = {"Schreier1", "CardinalityAtMost", "ExplicitFinite"}


def class_tests(module, node) -> list:
    """Each isinstance call under `node` that names a family class."""
    return [f"{module}:{sub.lineno} isinstance {name}"
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "isinstance" and len(sub.args) == 2
            for name in sorted(used_names(sub.args[1]) & FAMILY_CLASSES)]


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"families.py"}))
def test_only_families_reads_a_family(module):
    # a family's own fields and its class are read through families'
    # functions (max_blocks, part_bound, is_admissible) everywhere else
    reads = [f"{module}:{sub.lineno} .{sub.attr}" for sub in ast.walk(TREES[module])
             if isinstance(sub, ast.Attribute) and sub.attr in ("sets", "_top")]
    assert reads + class_tests(module, TREES[module]) == []


def test_families_tests_a_class_only_where_it_must():
    # every other question about a family goes through max_blocks (or
    # the listed sets of an unbounded one), so a new bounded family is
    # described by its max_blocks case alone
    allowed = {"max_blocks", "spec_to_config", "spec_from_config"}
    assert [read for stmt in TREES["families.py"].body
            if getattr(stmt, "name", None) not in allowed
            for read in class_tests("families.py", stmt)] == []


def cached_definitions() -> list:
    """(module, qualified name) of every def decorated with a functools
    cache, in a module or a class body; a cache inside a function body
    would be made per call, out of clear_caches' reach, and fails here."""
    out = []
    for module, tree in TREES.items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and any(
                    used_names(d) & {"lru_cache", "cache"} for d in node.decorator_list)):
                continue
            names, up = [node.name], parents.get(node)
            while up is not None:
                assert not isinstance(up, ast.FunctionDef), f"{module}:{node.lineno} per call"
                if isinstance(up, ast.ClassDef):
                    names.insert(0, up.name)
                up = parents.get(up)
            out.append((module[:-3], ".".join(names)))
    return out


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault",
            "add", "discard", "popitem", "sort", "reverse", "difference_update",
            "intersection_update", "symmetric_difference_update", "__setitem__",
            "__delitem__"}


def module_containers(tree) -> set:
    """Names a module binds at top level to a dict, list or set."""
    out = set()
    for stmt in tree.body:
        value = getattr(stmt, "value", None)
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or not (
                isinstance(value, CONTAINERS) or isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name) and value.func.id in ("dict", "list", "set")):
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def state_mutations(module, tree, names) -> list:
    """Each place inside a function of `tree` that changes one of the
    module-level containers `names` in place: a mutating method call, a
    store or del through a subscript, or an augmented assignment, on the
    bare name or on a module attribute of that name."""
    def named(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names)

    owners = enclosing_functions(tree)
    out = []
    for node, owner in owners.items():
        if owner is None:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS and named(node.func.value):
            base = node.func.value
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and named(node.value):
            base = node.value
        elif isinstance(node, ast.AugAssign) and named(node.target):
            base = node.target
        else:
            continue
        out.append(f"{module}:{node.lineno} {getattr(base, 'id', None) or base.attr}")
    return sorted(out)


def test_no_function_mutates_module_state():
    # kept state lives in the lru_caches that clear_caches() empties; a
    # module-level table filled by a function (a hand-rolled memo) would
    # outlive it.  PRESETS and _FLIPPED are only read
    names = set().union(*map(module_containers, TREES.values()))
    assert {"PRESETS", "_FLIPPED"} <= names
    assert [hit for module, tree in TREES.items()
            for hit in state_mutations(module, tree, names)] == []


def test_the_state_rule_catches_a_memo():
    tree = ast.parse(
        "_ROWS = {}\n"
        "def rows(patterns):\n"
        "    got = _ROWS.get(id(patterns))\n"
        "    if got is None:\n"
        "        got = _ROWS[id(patterns)] = build(patterns)\n"
        "    return got\n"
        "def forget():\n"
        "    _ROWS.clear()\n"
        "    norming._ROWS.update({})\n")
    names = module_containers(tree)
    assert names == {"_ROWS"}
    assert state_mutations("memo.py", tree, names) == [
        "memo.py:5 _ROWS", "memo.py:8 _ROWS", "memo.py:9 _ROWS"]


def test_clear_caches_empties_every_cache():
    caches = {}
    for module, qualname in cached_definitions():
        cache = importlib.import_module(f"tsinorm.{module}")
        for part in qualname.split("."):
            cache = getattr(cache, part)
        caches[f"{module}.{qualname}"] = cache
    assert caches
    x = tsinorm.parse_vector("2:1 3:-1/2 4:1")
    tsinorm.mixed_norm(tsinorm.schlumprecht_spec(), x)
    tsinorm.dual_norm_value(tsinorm.tsirelson_spec(), x)
    assert {name for name, f in caches.items() if not f.cache_info().currsize} == set()
    tsinorm.clear_caches()
    assert {name for name, f in caches.items() if f.cache_info().currsize} == set()


def enclosing_functions(tree) -> dict:
    """{node: the innermost def whose body holds it, or None} under a
    module tree; a def maps to the def around it, and a class body is
    looked through."""
    out, todo = {}, [(tree, None)]
    while todo:
        node, owner = todo.pop()
        for child in ast.iter_child_nodes(node):
            out[child] = owner
            todo.append((child, child if isinstance(child, ast.FunctionDef) else owner))
    return out


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_a_self_calling_nested_function_is_deleted_in_a_finally(module):
    # its closure cell refers to it, so it is a reference cycle until the
    # def around it deletes its name on every way out
    owners = enclosing_functions(TREES[module])
    defs = [node for node, owner in owners.items()
            if isinstance(node, ast.FunctionDef) and owner is not None]
    missing = []
    for inner in defs:
        if not any(isinstance(sub, ast.Name) and sub.id == inner.name
                   for stmt in inner.body for sub in ast.walk(stmt)):
            continue
        deleted = any(isinstance(node, ast.Try) and any(
            isinstance(sub, ast.Delete) and any(
                isinstance(t, ast.Name) and t.id == inner.name for t in sub.targets)
            for stmt in node.finalbody for sub in ast.walk(stmt))
            for node in ast.walk(owners[inner]))
        if not deleted:
            missing.append(f"{module}:{inner.lineno} {inner.name}")
    assert missing == []


def test_the_window_pass_has_one_driver():
    # every column of a window pass is filled by _Pass.fill, which keeps
    # the prefix a support shares with the one filled before it
    callers = []
    for module, tree in TREES.items():
        owners = enclosing_functions(tree)
        callers += [f"{module}:{getattr(owners[node], 'name', None)}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "column"]
    assert callers and set(callers) == {"covers.py:fill"}


def test_the_norming_closure_has_one_cached_door():
    # every reader of the maximal patterns goes through the bounded
    # _maximal_patterns cache; only the raw generation, which keeps every
    # key it builds, runs a closure of its own
    callers = []
    for module, tree in TREES.items():
        owners = enclosing_functions(tree)
        callers += [f"{module}:{getattr(owners[node], 'name', None)}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_closure"]
    assert sorted(callers) == ["norming.py:_maximal_patterns",
                               "norming.py:raw_norming_generation"]


CARD_DEMO = tsinorm.MixedSpaceSpec("card-demo", (
    tsinorm.Level(tsinorm.Schreier1(), Fraction(1, 2)),
    tsinorm.Level(tsinorm.CardinalityAtMost(2), Fraction(1, 3))))
EXPLICIT = tsinorm.MixedSpaceSpec("explicit", (
    tsinorm.Level(tsinorm.ExplicitFinite(((2, 3), (3, 5, 6), (4, 6))), Fraction(2, 3)),
    tsinorm.Level(tsinorm.CardinalityAtMost(2), Fraction(1, 2))))
TS = tsinorm.tsirelson_spec()
# one level whose weight enclosure at 4 bits leaves a branch comparison
# of this vector undecided, so the call retries at 8 bits
COARSE = tsinorm.MixedSpaceSpec("coarse", (
    tsinorm.Level(tsinorm.Schreier1(), tsinorm.SchlumprechtWeight(6)),))


def norming_set_command(x):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["norming-set", "4", "--out", os.devnull]) == 0


CYCLE_CALLS = {
    "fj_norm": tsinorm.fj_norm,
    "mixed_norm-tsirelson": lambda x: tsinorm.mixed_norm(tsinorm.tsirelson_spec(), x),
    "mixed_norm-card-demo": lambda x: tsinorm.mixed_norm(CARD_DEMO, x),
    "mixed_norm-explicit": lambda x: tsinorm.mixed_norm(EXPLICIT, x),
    "mixed_norm-schlumprecht": lambda x: tsinorm.mixed_norm(tsinorm.schlumprecht_spec(), x),
    "dual_norm": lambda x: tsinorm.dual_norm(tsinorm.tsirelson_spec(), x),
    "mixed_norm-precision-retry": lambda x: tsinorm.mixed_norm(
        COARSE, tsinorm.parse_vector("3:9 4:8 5:8"), precision=4, precision_cap=8),
    "export_norming_set": lambda x: tsinorm.export_norming_set(tsinorm.build_norming_set(TS, 5)),
    "norming-set-command": norming_set_command,
    "functionals": lambda x: tsinorm.build_norming_set(TS, 4).functionals,
    "norming_generators": lambda x: tsinorm.norming_generators(TS, (1, 2, 3, 4)),
    "export_dual_certificate": lambda x: tsinorm.export_dual_certificate(
        TS, x, tsinorm.dual_norm(TS, x)[1]),
    "verify_dual_certificate": lambda x: tsinorm.verify_dual_certificate(
        TS, x, tsinorm.dual_norm(TS, x)[1]),
}


def test_the_retry_call_retries():
    with pytest.raises(tsinorm.PrecisionExhaustedError, match="undecided at precision cap 4"):
        tsinorm.mixed_norm(COARSE, tsinorm.parse_vector("3:9 4:8 5:8"),
                           precision=4, precision_cap=4)


@pytest.mark.parametrize("name", sorted(CYCLE_CALLS))
def test_a_call_leaves_no_reference_cycle(name):
    # a nested helper that calls itself through its closure cell is a
    # cycle, and it keeps everything the call built until a collection;
    # so is an error kept in a table whose frames its traceback holds.
    # The call runs once first, so that one-time set-up (the command
    # line's argument parser) is not counted.
    x = tsinorm.parse_vector("2:1 3:1/2 4:2 5:3/4 6:1")
    CYCLE_CALLS[name](x)
    tsinorm.clear_caches()  # so the dual norm runs its closure
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        CYCLE_CALLS[name](x)
        gc.collect()
        left = [getattr(o, "__qualname__", type(o).__name__) for o in gc.garbage[before:]]
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    assert left == []
