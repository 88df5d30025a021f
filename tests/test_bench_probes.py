"""The benchmark's tracer probes functions by name; each must still exist.

``perfbench/tracer.py`` reports a probed function that is gone as absent
and drops its metrics from the result line, which then lacks metrics the
benchmark declares.  The tracer is read here as source, never imported
from its directory, so that nothing is written next to it.
"""

import importlib
import sys
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
