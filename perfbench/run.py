"""Benchmark for the l1comb pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs one workload's ``l1comb`` commands, in order, through
``l1comb.cli.main`` in a fresh child process (``perfbench/child.py``), one at
a time: a closed loop with a single client, as users run the CLI.  Operations
repeat until the next one would end after ``--seconds``; there is always at
least one.  Every operation's outputs are checked (exit codes, digests of the
seed-independent CSV bodies, anchors, and invariants of the seed-dependent
ones) and a mismatch counts as a failed operation.  Each child runs under an
address-space limit, so a memory regression fails fast as a counted failure.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` each operation runs twice, untraced and then traced by
``perfbench/tracer.py``, and the per-layer metrics come from the traced copy;
``trace.overhead_s`` is the difference of the two wall times.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run (environment, every sample, the trace) is written to
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench-out"

# Well above every workload's address-space peak (surface-certify's ~0.9 GB
# is the largest) and below the 7 GB of the reference box.
MEMORY_LIMIT_BYTES = 4 << 30
# The whole run, set-up samples included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0
# Set-up samples per run; half are taken before the first operation and the
# rest after the last, so that they span the run.
MIN_SETUP_SAMPLES = 8

SWAP_RULES = "".join(f"{x}{y} -> {y}{x}\n" for x in "cCdD" for y in "aAbB")
INPUTS = {
    "surface.txt": "# genus-2 surface group\ngenerators: a b c d\n"
                   "relators: abABcdCD\nmode: dehn\n",
    "f2.txt": "generators: a b\nrelators: (none)\nmode: free\n",
    "f2xf2.txt": "generators: a b c d\nrelators: acAC adAD bcBC bdBD\n"
                 "mode: rewriting\nrules:\n" + SWAP_RULES,
    "projection.txt": "target_rank: 2\na -> a\nb -> b\nc -> e\nd -> e\n",
}


@dataclass(frozen=True)
class Workload:
    presentation: str
    commands: tuple  # (command, radius, radius at smoke scale)
    action: str | None = None


# Why each workload is in the matrix is recorded in BENCHMARK.json and
# perfbench/README.md.
WORKLOADS = {
    "surface-certify": Workload("surface.txt", (("verify", 4, 2), ("norms", 4, 2))),
    "free-kernel": Workload("f2.txt", (("verify", 7, 3),)),
    "surface-area": Workload("surface.txt", (("bicombing-stats", 2, 1),)),
    "product-action": Workload("f2xf2.txt", (("action", 5, 2), ("opnorm", 3, 1)),
                               action="projection.txt"),
}

EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- output checks ----------------------------------------------------------

_UNSTABLE_HEADER = (b"# timestamp:", b"# presentation:", b"# seed:")


def body_digest(path: Path) -> str:
    """sha256 of a CSV without its timestamp, path and seed header lines."""
    data = path.read_bytes()
    digest = hashlib.sha256()
    pos = 0
    while data.startswith(b"#", pos):
        end = data.index(b"\n", pos) + 1
        if not data.startswith(_UNSTABLE_HEADER, pos):
            digest.update(data[pos:end])
        pos = end
    digest.update(memoryview(data)[pos:])
    return digest.hexdigest()


def read_csv(path: Path) -> tuple[dict, list[dict]]:
    header, body = {}, []
    with path.open() as fh:
        for line in fh:
            if not line.startswith("# "):
                body.append(line)
                break
            key, _, value = line[2:].rstrip("\n").partition(": ")
            header[key] = value
        body.extend(fh)
    return header, list(csv.DictReader(body))


def check_outputs(name: str, scale: str, out: Path, codes: list) -> list[str]:
    """Problems found in one operation's outputs; empty when all is right."""
    commands = [c for c, _, _ in WORKLOADS[name].commands]
    if codes != [0] * len(commands):
        return [f"exit codes {codes} for {commands}"]
    try:
        return _check_files(EXPECTED[scale].get(name, {}), commands, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"missing or malformed output: {exc!r}"]


def _check_files(expected: dict, commands: list[str], out: Path) -> list[str]:
    problems = []
    for filename, digest in expected.get("digests", {}).items():
        if body_digest(out / filename) != digest:
            problems.append(f"{filename} body differs from the recorded digest")
    for filename, anchors in expected.get("header", {}).items():
        header, _ = read_csv(out / filename)
        for key, value in anchors.items():
            if header.get(key) != value:
                problems.append(f"{filename}: {key} is {header.get(key)!r}, want {value!r}")
    for filename, anchors in expected.get("columns", {}).items():
        _, rows = read_csv(out / filename)
        for key, value in anchors.items():
            seen = [row[key] for row in rows]
            if not seen or any(v != value for v in seen):
                problems.append(f"{filename}: {key} column is {seen}, want all {value!r}")
    if "verify" in commands:
        _, rows = read_csv(out / "verify.csv")
        failing = [row["check"] for row in rows if row["status"] != "pass"]
        if not rows or failing:
            problems.append(f"verify rows not passing: {failing or 'none written'}")
    if "opnorm" in commands:
        header, rows = read_csv(out / "opnorm.csv")
        tol = float(header["tolerance"])
        if not rows:
            problems.append("opnorm.csv has no rows")
        for row in rows:
            found, upper = float(row["lower_bound_found"]), float(row["theoretical_upper"])
            if not 1.0 - tol <= found <= upper + tol:
                problems.append(f"opnorm {row['word']}: {found} outside [1, {upper}]")
    return problems


# -- child processes ----------------------------------------------------------


def _limit_memory(limit: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _memory_limit() -> int:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_LIMIT_BYTES)


def spawn(spec: dict, timeout: float) -> tuple[dict | None, str]:
    """Run child.py on ``spec``; returns (its result or None, error text)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    limit = _memory_limit()
    spec = dict(spec, spawned_at=_now())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0), preexec_fn=lambda: _limit_memory(limit),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"child printed no result: {proc.stdout[-200:]!r}"


def _child_spec(workload: Workload, run_dir: Path, **fields) -> dict:
    inputs = run_dir / "inputs"
    return {
        "presentation": str(inputs / workload.presentation),
        "action": None if workload.action is None else str(inputs / workload.action),
        "commands": [], "log": str(run_dir / "cli.log"),
        "trace": False, "setup_only": False, **fields,
    }


def run_operation(name: str, scale: str, seed: int, trace: bool,
                  run_dir: Path, deadline: float) -> dict:
    workload = WORKLOADS[name]
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    inputs = run_dir / "inputs"
    commands = []
    for command, radius, smoke_radius in workload.commands:
        argv = [command, "--presentation", str(inputs / workload.presentation),
                "--radius", str(radius if scale == "full" else smoke_radius),
                "--seed", str(seed), "--out", str(out)]
        if command == "action":
            argv += ["--action", str(inputs / workload.action)]
        commands.append(argv)
    result, error = spawn(_child_spec(workload, run_dir, commands=commands, trace=trace),
                          deadline - _now())
    op = {"traced": trace}
    if result is None:
        op["problems"] = [error]
        return op
    op.update(result)
    op["problems"] = check_outputs(name, scale, out, result["codes"])
    op["report_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return op


def setup_sample(name: str, run_dir: Path, deadline: float) -> float | None:
    spec = _child_spec(WORKLOADS[name], run_dir, setup_only=True)
    result, _ = spawn(spec, deadline - _now())
    return None if result is None else result["setup_s"]


# -- metrics ----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def layer_metrics(op: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.  Tracer counters keep their
    names; ``<span>_s`` is the span's self time and ``<span>_calls`` its call
    count."""
    spans = op["trace"]["spans"]
    counters = op["trace"]["counters"]
    values = {}
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition("_")
        if name == "cli.cpu_s":
            values[name] = untraced["cpu_s"]
        elif name == "cli.report_bytes":
            values[name] = op["report_bytes"]
        elif name == "trace.overhead_s":
            values[name] = op["wall_s"] - untraced["wall_s"]
        elif name == "cli.self_s":
            values[name] = spans["cli.main"]["self_s"]
        elif name in counters:
            values[name] = counters[name]
        elif kind == "s":
            values[name] = spans[span]["self_s"]
        else:
            values[name] = spans[span]["calls"]
    return values


def layer_self_times(op: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, stat in op["trace"]["spans"].items():
        layer = span.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + stat["self_s"]
    return totals


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "memory_limit_bytes": _memory_limit(),
    }


# -- the run ------------------------------------------------------------------


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              scale: str = "full") -> dict:
    """Run one workload for ``seconds``, print the report, return the result
    object that ends it.  ``scale="smoke"`` uses tiny radii (for tests)."""
    started = _now()
    deadline = started + RUN_DEADLINE_S
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    for filename, text in INPUTS.items():
        (run_dir / "inputs" / filename).write_text(text)

    ops, pairs, setups = [], [], []

    def sample_setups(count: int) -> None:
        while len(setups) < count and _now() < deadline:
            sample = setup_sample(name, run_dir, deadline)
            if sample is None:
                break
            setups.append(sample)

    try:
        sample_setups(MIN_SETUP_SAMPLES // 2)
        while True:
            began = _now()
            plain = run_operation(name, scale, seed, False, run_dir, deadline)
            ops.append(plain)
            if trace:
                traced = run_operation(name, scale, seed, True, run_dir, deadline)
                ops.append(traced)
                pairs.append((plain, traced))
            now = _now()
            if now + (now - began) > started + seconds or now >= deadline:
                break
        setups += [op["setup_s"] for op in ops if "setup_s" in op]
        sample_setups(MIN_SETUP_SAMPLES)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in ops if op["problems"]]
    untraced = [op for op in ops if "wall_s" in op and not op["traced"]]
    good_pairs = [(u, t) for u, t in pairs if "wall_s" in u and "wall_s" in t]
    if not untraced or (trace and not good_pairs):
        raise SystemExit(f"no operation of {name} could be measured: "
                         f"{failed[0]['problems']}")

    env = environment()
    print(f"workload {name} (scale {scale}) seed {seed} seconds {seconds} trace {int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    for op in failed:
        print(f"FAILED operation: {'; '.join(op['problems'])}")
    print(f"fail_frac {len(failed) / len(ops)} ({len(failed)} of {len(ops)} operations failed)")

    summaries = {}
    if trace:
        per_op = [layer_metrics(t, u) for u, t in good_pairs]
        for metric, unit in PER_LAYER_UNITS.items():
            summaries[metric] = dict(summarize([m[metric] for m in per_op]), unit=unit)
        totals = [layer_self_times(t) for _, t in good_pairs]
        layers = {layer: statistics.median(t.get(layer, 0.0) for t in totals)
                  for layer in sorted(set().union(*totals))}
        print("layer self time (s): " + ", ".join(
            f"{layer} {value:.3f}" for layer, value in layers.items()))
        print(f"dominant layer: {max(layers, key=layers.get)}")
    else:
        summaries["wall_s"] = dict(summarize([op["wall_s"] for op in untraced]), unit="s")
        summaries["peak_rss_mb"] = dict(
            summarize([op["peak_rss_mb"] for op in untraced]), unit="MB")
        summaries["setup_s"] = dict(summarize(setups), unit="s")
    for metric, s in summaries.items():
        print(f"{metric} {s['value']!r} {s['unit']} (n={s['n']}, q1={s['q1']!r}, q3={s['q3']!r})")

    # wall_s is printed but not gated: see "End-to-end metrics" in README.md
    listed = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {metric: {"value": s["value"], "unit": s["unit"]}
                    for metric, s in summaries.items() if metric in listed},
    }
    WORK.mkdir(exist_ok=True)
    record = WORK / f"{name}-{scale}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({
        "workload": name, "scale": scale, "seed": seed, "seconds": seconds,
        "trace": trace, "env": env, "summaries": summaries,
        "setup_samples": setups, "operations": ops, "result": result,
    }, indent=1))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "l1comb" / "cli.py").is_file():
        print(f"l1comb sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
