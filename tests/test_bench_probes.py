"""The benchmark's tracer probes functions by name; each must still exist.
And ``src`` keeps only what the CLI, a probe or a test oracle calls, and
no function of it takes a parameter that it never reads.

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

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(diomorph.__file__).resolve().parent

# Definitions that neither ``cli.main`` nor a probe reaches, kept because tests
# use them as oracles or to build their inputs; what they call is kept with them.
TEST_ONLY = {
    "encode.word_morphism": "the composite morphism a generator word names, the side matrices' reference",
    "encode.p_side_morphism": "reference for matsem.p_side_matrix",
    "encode.q_side_morphism": "reference for matsem.q_side_matrix",
    "mtriple.compute_word_level": "the evaluation oracle of acceptance test_01",
    "mtriple.monomial_parts": "with lay_out, the reference that lay_out_monomials is compared against",
    "matsem.from_dense": "builds test matrices from dense rows",
    "lang.flat_alphabet": "builds one-level test alphabets",
    "lang.leveled_alphabet": "builds test alphabets from their levels",
    "lang.word_concat": "concatenates the reference layout's witnesses",
    "poly.add": "builds test polynomials",
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
