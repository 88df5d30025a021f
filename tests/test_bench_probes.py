"""The benchmark's tracer probes functions by name; each must still exist.
And ``src`` keeps only what the CLI, a probe or a test oracle calls, no
function of it takes a parameter that it never reads, and no module-level
function has a defaulted parameter that no caller sets.

``perfbench/tracer.py`` reports a probed function that is gone as absent
and drops its metrics from the result line, which then lacks metrics the
benchmark declares.  The tracer is read here as source, never imported
from its directory, so that nothing is written next to it.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import diomorph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SRC = Path(diomorph.__file__).resolve().parent

# Definitions that neither ``cli.main`` nor a probe reaches, kept because tests
# use them as oracles or to build their inputs; what they call is kept with them.
TEST_ONLY = {
    "encode.word_morphism": "the composite morphism a generator word names, the side matrices' reference",
    "encode.p_side_morphism": "reference for matsem.p_side_matrix",
    "encode.q_side_morphism": "reference for matsem.q_side_matrix",
    "mtriple.compute_word_level": "the evaluation oracle of acceptance test_01",
    "matsem.from_dense": "builds test matrices from dense rows",
    "lang.flat_alphabet": "builds one-level test alphabets",
    "lang.leveled_alphabet": "builds test alphabets from their levels",
    "lang.word_concat": "concatenates words in the lang and morph tests",
    "poly.injective_tupling": "the tupling of k variables, the reference that tupled polynomials are composed from",
    "poly.zero": "builds the zero polynomial that compiling refuses",
    "morph.Morphism.table": "copies an image table so that a test can corrupt it",
    "reporting.SuiteReport.failures": "names the failed checks in test assertions",
    "solve.PointVerdict.oracle_found": "reads a report row's oracle verdict in tests",
}


def _tracer_module():
    module = types.ModuleType("perfbench_tracer")
    sys.modules[module.__name__] = module  # its dataclasses look their module up by name
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_probe_names_a_function_of_its_module():
    probes = _tracer_module()._probes()
    assert probes
    missing = [f"{p.module}.{p.function}" for p in probes
               if not callable(getattr(importlib.import_module(f"diomorph.{p.module}"),
                                       p.function, None))]
    assert missing == []


def _source_graph():
    """Every module-level definition and method of ``src`` ("module.name",
    "module.Class.method") with the syntax it refers to, the names each module
    binds, methods by name, and the module-level statements run on import."""
    bodies, names, methods, on_import = {}, {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        bound = names.setdefault(module, {})
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:  # `from . import lang` binds a module
                    bound[alias.asname or alias.name] = (
                        (alias.name,) if stmt.module is None else f"{stmt.module}.{alias.name}")
            elif isinstance(stmt, ast.FunctionDef):
                bound[stmt.name] = f"{module}.{stmt.name}"
                bodies[bound[stmt.name]] = (module, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                bound[stmt.name] = qualified = f"{module}.{stmt.name}"
                own = stmt.bases + stmt.decorator_list
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        bodies[f"{qualified}.{item.name}"] = (module, [item])
                        methods.setdefault(item.name, []).append(f"{qualified}.{item.name}")
                    else:  # fields, defaults and protocol methods come with the class
                        own.append(item)
                bodies[qualified] = (module, own)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        bound[target.id] = f"{module}.{target.id}"
                        bodies[bound[target.id]] = (module, [stmt])
            else:
                on_import.append((module, [stmt]))
    return bodies, names, methods, on_import


def _unreached(roots):
    """Definitions that nothing reaches from the roots, following names,
    ``module.attribute`` references and, for any other attribute, every
    method of that name."""
    bodies, names, methods, on_import = _source_graph()

    def home(module, name):  # follows re-exports to the defining module
        target = names[module].get(name)
        while isinstance(target, str) and target not in bodies:
            target = names.get(target.split(".")[0], {}).get(target.split(".", 1)[1])
        return target

    def refs(module, nodes):
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                yield home(module, node.id)
            elif isinstance(node, ast.Attribute):
                base = home(module, node.value.id) if isinstance(node.value, ast.Name) else None
                if isinstance(base, tuple):
                    yield home(base[0], node.attr)
                yield from methods.get(node.attr, ())

    todo = list(roots) + [r for module, nodes in on_import for r in refs(module, nodes)]
    seen = set()
    while todo:
        name = todo.pop()
        if isinstance(name, str) and name in bodies and name not in seen:
            seen.add(name)
            todo += refs(*bodies[name])
    return set(bodies) - seen


def test_src_keeps_only_what_the_cli_a_probe_or_a_test_oracle_calls():
    program = ["cli.main"] + [f"{p.module}.{p.function}" for p in _tracer_module()._probes()]
    assert sorted(_unreached(program + list(TEST_ONLY))) == []
    called = set(TEST_ONLY) - _unreached(program)
    assert called == set(), "the program calls these now: drop them from TEST_ONLY"


def _unread_parameters():
    """("module.function" or "module.Class.method", parameter) for every
    parameter of a module-level function or method of ``src`` that its body
    never reads.  A read inside a nested function counts; the nested
    function's own parameters are not checked."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                functions = [(f"{path.stem}.{stmt.name}", stmt)]
            elif isinstance(stmt, ast.ClassDef):
                functions = [(f"{path.stem}.{stmt.name}.{item.name}", item)
                             for item in stmt.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualified, fn in functions:
                args = fn.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [
                    a for a in (args.vararg, args.kwarg) if a is not None]
                read = {node.id for top in fn.body for node in ast.walk(top)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                unread += [(qualified, a.arg) for a in params if a.arg not in read]
    return unread


def test_every_parameter_of_src_is_read():
    assert _unread_parameters() == []


def _unset_defaults():
    """"module.function(parameter)" for every defaulted parameter of a
    module-level function of ``src`` that no call in ``src``, ``tests`` or
    ``perfbench`` passes, by keyword or by position.  Calls are matched by
    the called name alone, and a starred argument passes no known position.
    The benchmark's files are parsed from their text, never imported."""
    defaulted = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if isinstance(fn, ast.FunctionDef):
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted += [(path.stem, fn.name, a.arg, i)
                              for i, a in enumerate(positional) if i >= first]
                defaulted += [(path.stem, fn.name, a.arg, None)
                              for a, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
    passed = set()
    for path in [*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                known = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                             len(call.args))
                passed.update((name, k.arg) for k in call.keywords if k.arg is not None)
                passed.update((name, i) for i in range(known))
    return [f"{module}.{fn}({arg})" for module, fn, arg, i in defaulted
            if (fn, arg) not in passed and (fn, i) not in passed]


def test_every_defaulted_parameter_of_src_is_set_by_some_caller():
    assert _unset_defaults() == []
