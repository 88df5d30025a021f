#!/usr/bin/env python3
"""Benchmark of the diomorph command line: compile, report and verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --self-check

One client makes one ``diomorph.cli.main`` call at a time, in this process
(a closed loop).  Each run starts with set-up (importing the program and
writing the documents the workload reads), repeated ``SETUPS`` times, then
makes the workload's calls in a seeded order, round after round, until the
next call would exceed ``--seconds`` (one full pass at least).  Every output
is checked against references that do not come from the program (see
workloads.py), and its sha256 is compared with the digest recorded for the
same call and the same program sources by earlier runs.  ``--trace 1`` runs
one untraced and one traced pass and reports per-layer metrics (see
tracer.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.  A full record of each run (environment,
every call with its time and digest, trace spans) is written under
``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("compile", "report", "verify")
# Set-ups per untraced run; setup_s is their median.  The set-ups of report and
# verify compile encoders (about 7 s and 2.5 s), so they are repeated less.
SETUPS = {"compile": 5, "report": 2, "verify": 2}
# Times of one or two calls: on a shared machine their run-to-run spread can
# exceed the largest bound BENCHMARK.json allows, so they are only printed.
UNBOUNDED = ("call_p50_s", "call_max_s")


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


@dataclass
class Record:
    key: str
    seconds: float
    exit_code: int | None
    digest: str | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Calls the CLI in-process, checks every output and tracks digests."""

    def __init__(self, files: wl.Files):
        self.files = files
        self.cli = None
        self.tracer: tracing.Tracer | None = None
        self.records: list[Record] = []
        self.checked: dict[tuple[str, str], list[str]] = {}
        self.sources = source_digest()
        self.known = load_digests().get(self.sources, {})

    def import_program(self):
        for name in [n for n in sys.modules if n == "diomorph" or n.startswith("diomorph.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("diomorph.cli")
        where = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise BenchError(f"imported diomorph from {where}, not from {SRC}")

    def call(self, op: wl.Op) -> Record:
        gc.collect()
        with contextlib.suppress(FileNotFoundError):
            op.output.unlink()
        err = io.StringIO()
        exit_code = None
        problems: list[str] = []
        span = self.tracer.open_span("call", key=op.key) if self.tracer else None
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            start = time.perf_counter()
            try:
                exit_code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                exit_code = exc.code
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                problems.append("raised: " + traceback.format_exc(limit=-3).strip())
            seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close_span(span)
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if err.getvalue():
            problems.append(f"printed: {err.getvalue().strip()[:200]}")
        digest = None
        if op.output.is_file():
            data = op.output.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            problems += self._check(op, digest, data)
            if self.known.setdefault(op.key, digest) != digest:
                problems.append(f"digest {digest[:12]} differs from {self.known[op.key][:12]}")
        else:
            problems.append("no output written")
        record = Record(op.key, seconds, exit_code, digest, problems)
        self.records.append(record)
        return record

    def _check(self, op: wl.Op, digest: str, data: bytes) -> list[str]:
        if (op.key, digest) not in self.checked:
            try:
                self.checked[op.key, digest] = op.check(data)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self.checked[op.key, digest] = [f"output does not parse: {exc!r}"]
        return self.checked[op.key, digest]

    def set_up(self, instances, encoders) -> float:
        """Import the program and write the documents the workload reads.

        Returns the seconds spent in the program: import, writing the
        polynomial documents and compiling the encoders, not output checks."""
        gc.collect()
        start = time.perf_counter()
        self.import_program()
        self.files.write_polynomials(instances)
        seconds = time.perf_counter() - start
        return seconds + sum(self.call(wl.compile_op(self.files, inst)).seconds
                             for inst in encoders)

    def run_pass(self, workload: wl.Workload) -> float:
        return sum(self.call(op).seconds for op in workload.ops)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diomorph").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_digests() -> dict:
    try:
        return json.loads((OUT / "digests.json").read_text())
    except FileNotFoundError:
        return {}
    except ValueError:
        print("warning: .perfbench_out/digests.json is unreadable; starting afresh", file=sys.stderr)
        return {}


def save_digests(sources: str, known: dict[str, str]) -> None:
    table = load_digests()
    table.setdefault(sources, {}).update(known)
    tmp = OUT / f"digests.json.{os.getpid()}"
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
    os.replace(tmp, OUT / "digests.json")


def environment(seed: int, workload: str, trace: int, sources: str) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "source_sha256": sources,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "loadavg_before": os.getloadavg(),
    }


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 instances, files: wl.Files) -> dict:
    """One run: set-up, then untraced calls for ``seconds`` or, with
    ``trace``, one untraced and one traced pass."""
    runner = Runner(files)
    env = environment(seed, name, trace, runner.sources)
    workload = wl.workload(name, files, seed, instances)
    setups = [runner.set_up(instances, workload.encoders) for _ in range(1 if trace else SETUPS[name])]
    result: dict = {"env": env, "setups_s": setups, "absent": [], "spans": []}
    if trace:
        untraced = runner.run_pass(workload)
        tracer = runner.tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(workload)
        finally:
            tracer.uninstall()
            runner.tracer = None
        metrics = tracer.metrics()
        metrics.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                        "trace.overhead_s": traced - untraced})
        result.update(absent=tracer.missing, spans=tracer.spans, passes_s=[untraced, traced])
    else:
        # closed loop: calls in the seeded order, round after round, while the
        # next call (at its last time) still fits in ``seconds``; one full pass at least
        calls: dict[str, list[float]] = {}
        elapsed = 0.0
        for i, op in enumerate(itertools.cycle(workload.ops)):
            if i >= len(workload.ops) and elapsed + calls[op.key][-1] > seconds:
                break
            record = runner.call(op)
            calls.setdefault(op.key, []).append(record.seconds)
            elapsed += record.seconds
        medians = [statistics.median(times) for times in calls.values()]
        written = instances if name == "compile" else workload.encoders
        metrics = {
            "setup_s": statistics.median(setups),
            # one pass, each call at its median time over the run
            "wall_s": sum(medians),
            "call_p50_s": statistics.median(medians),
            "call_max_s": max(medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "encoder_bytes": sum(path.stat().st_size for path in map(files.encoder, written)
                                 if path.is_file()),
        }
        result.update(calls_s=calls)
    failed = sum(1 for r in runner.records if not r.ok)
    env["loadavg_after"] = os.getloadavg()
    save_digests(runner.sources, runner.known)
    result.update(metrics=metrics, attempted=len(runner.records), failed=failed,
                  records=[asdict(r) for r in runner.records])
    return result


def select(result: dict, spec: dict, trace: int) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json names for this mode, and those the run could not give."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    chosen = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in result["metrics"]}
    return chosen, [m["name"] for m in wanted if m["name"] not in result["metrics"]]


def summary(name: str, result: dict, chosen: dict, absent: list[str]) -> list[str]:
    lines = [f"env {json.dumps(result['env'], sort_keys=True)}"]
    lines += [f"{name:8} {metric:44} {m['value']:>14.6g} {m['unit']}" for metric, m in chosen.items()]
    lines += [f"{name:8} {metric:44} {result['metrics'][metric]:>14.6g} s (printed, not bounded)"
              for metric in UNBOUNDED if metric in result["metrics"]]
    lines.append(f"{name:8} {'failed_ops_frac':44} {result['failed'] / result['attempted']:>14.6g}"
                 f" ratio ({result['failed']} of {result['attempted']} calls)")
    lines += [f"{name:8} FAILED {r['key']}: {'; '.join(r['problems'])}"
              for r in result["records"] if r["problems"]]
    if absent:
        lines.append(f"{name:8} absent (function no longer exists): {', '.join(absent)}")
    return lines


def save(name: str, seed: int, trace: int, result: dict) -> None:
    folder = OUT / "results"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))


def run_all(args) -> int:
    """Each workload in a fresh process of its own, with a combined table."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[1:-1]))
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def self_check(spec: dict) -> int:
    """Every workload kind, untraced and traced, on the 2-variable toy pair."""
    files = wl.Files(OUT / "self-check")
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            start = time.perf_counter()
            result = run_workload(name, 1, 0, trace, (wl.TOY,), files)
            chosen, absent = select(result, spec, trace)
            passed = result["failed"] == 0 and not absent
            ok = ok and passed
            print(f"self-check {name} trace={trace}: {'ok' if passed else 'FAILED'}"
                  f" ({result['attempted']} calls, {time.perf_counter() - start:.2f} s)")
            if not passed:
                print("\n".join(summary(name, result, chosen, absent)[1:]))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload kind on a tiny instance and exit")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "diomorph" / "cli.py").is_file():
            raise BenchError(f"no program sources under {SRC}")
        spec = load_spec()
        sys.path.insert(0, str(SRC))
        if args.self_check:
            return self_check(spec)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        files = wl.Files(OUT / "work" / args.workload)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              wl.INSTANCES, files)
        chosen, absent = select(result, spec, args.trace)
        if absent and not args.trace:
            raise BenchError(f"end-to-end metrics not measured: {absent}")
        result["absent"] += absent
        save(args.workload, args.seed, args.trace, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary(args.workload, result, chosen, absent)))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
