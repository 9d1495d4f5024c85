#!/usr/bin/env python3
"""Run one sobstab benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sobstab is imported from ``src/``
and the CLI is started as ``python -m sobstab.cli``.  The run builds the
workload's inputs from ``--seed``, runs the whole number of rounds of its
operations whose time is nearest to ``--seconds`` (at least one round,
however small ``--seconds`` is), checks every output (see
workloads.py) and prints, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: setup_s, ops_per_s, op_p50_ms
and peak_rss_mb.  ``--trace 1`` reports the per-layer metrics instead: it
runs every operation twice, once plain and once with spans around sobstab's
module boundaries (spans.py), and reports the spans' counts and times per
operation together with the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

NAMES = ("sweep-concentric", "report-collinear", "cli-session")
# Fresh interpreters timed for setup_s; one more runs first, unmeasured, so
# the timed ones find compiled bytecode as an installed package would.
SETUP_PROBES = 5
IMPORT_PROBES = 3
IMPORT_METRICS = {
    "sobstab": "import.sobstab_ms",
    "numpy": "import.numpy_ms",
    "scipy.special": "import.scipy_special_ms",
    "scipy.optimize": "import.scipy_optimize_ms",
}
CLI_KINDS = (
    "constants", "thresholds", "crossover", "eval", "dist",
    "expand_jobs1", "expand_jobs2", "sweep_grid",
)


def load_sobstab():
    """Import sobstab from this checkout's src/, or exit with code 2."""
    if not (SRC / "sobstab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sobstab sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sobstab

    if Path(sobstab.__file__).resolve().parent != (SRC / "sobstab").resolve():
        sys.stderr.write(f"error: imported sobstab from {sobstab.__file__}\n")
        raise SystemExit(2)
    return sobstab


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def setup_probe(name: str, seed: int) -> int:
    """Child side of the set-up measurement: import, build inputs, report."""
    load_sobstab()
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        make_workload(name, seed, Path(tmp))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    return 0


def measure_setup(name: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter to its inputs
    being built, over SETUP_PROBES interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from ``python -X importtime`` output."""
    cumulative: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            own, total = int(parts[0][len("import time:"):]), int(parts[1])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        cumulative.setdefault(module, total / 1e3)
        self_ms.setdefault(module, own / 1e3)
    found = {m: cumulative[m] for m in IMPORT_METRICS if m in cumulative}
    # sobstab.functional imports scipy.optimize through scipy's lazy module
    # attribute, which -X importtime does not log under its own name; it is
    # then the only import nested in sobstab.functional that is not yet loaded.
    if "scipy.optimize" not in found and "sobstab.functional" in cumulative:
        found["scipy.optimize"] = (
            cumulative["sobstab.functional"] - self_ms["sobstab.functional"]
        )
    return found


def probe_imports() -> list[dict[str, float]]:
    from workloads import cli_env

    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sobstab"],
            capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return samples


@dataclass
class Round:
    traced: bool
    times: list[float]  # seconds per operation
    outputs: list
    extra: object  # what finish_round returned
    busy: float  # operation time plus finish_round
    failed: int = 0


def run_rounds(wl, seconds: float, traced: bool, tracer) -> list[Round]:
    """Run the whole number of rounds of wl.ops whose time is nearest to
    `seconds`, at least one: after each round, stop if one more round of the
    mean length so far would end more than half a round past `seconds`.

    The first operation runs once, untimed, before the rounds.  A traced run
    times every operation twice back to back, plain and traced
    in alternating order, so that both see the same state of the machine;
    it returns a plain and a traced Round per round.
    """
    modes = (False, True) if traced else (False,)
    # Warm-up, untimed and unchecked: the first operation once, so that lazy
    # imports and first-call set-up inside the program are not timed.
    try:
        wl.ops[0].run()
    except Exception:
        pass  # the timed rounds count it
    records = []
    busy_total = 0.0
    rounds = 0
    while True:
        times: dict[bool, list[float]] = {m: [] for m in modes}
        outputs: dict[bool, list] = {m: [] for m in modes}
        for i, op in enumerate(wl.ops):
            for mode in modes if i % 2 == 0 else modes[::-1]:
                if mode:
                    tracer.install()
                wl.set_traced(mode)
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted as a failed operation
                    out = exc
                times[mode].append(time.perf_counter() - t0)
                outputs[mode].append(out)
                tracer.uninstall()
                wl.set_traced(False)
        for mode in modes:
            if mode:
                tracer.install()
            t0 = time.perf_counter()
            extra = wl.finish_round(outputs[mode])
            finish = time.perf_counter() - t0
            tracer.uninstall()
            r = Round(mode, times[mode], outputs[mode], extra, sum(times[mode]) + finish)
            records.append(r)
            busy_total += r.busy
        rounds += 1
        if busy_total + busy_total / rounds / 2 > seconds:
            return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    load_sobstab()
    from spans import Tracer, library_metrics

    traced = bool(args.trace)
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        tracer = Tracer()
        records = run_rounds(wl, args.seconds, traced, tracer)
        # Read before the set-up probes start, so that for cli-session the
        # largest child is a sobstab CLI invocation.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_s = None if traced else measure_setup(args.workload, args.seed)

        attempted = failed = 0
        wrong = False
        messages = []
        for r in records:
            for out, err in zip(r.outputs, wl.check(r.outputs, r.extra)):
                attempted += 1
                if err is not None:
                    r.failed += 1
                    wrong = wrong or not isinstance(out, BaseException)
                    messages.append(err)
            failed += r.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for msg in sorted(set(messages))[:10]:
        sys.stderr.write(f"failed: {msg}\n")

    plain = [r for r in records if not r.traced]
    metrics: dict[str, tuple[float, str]] = {}
    if not traced:
        rate = sum(len(r.times) - r.failed for r in plain) / sum(r.busy for r in plain)
        metrics["setup_s"] = (setup_s, "s")
        metrics["ops_per_s"] = (rate, "1/s")
        metrics["op_p50_ms"] = (1e3 * statistics.median(t for r in plain for t in r.times), "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        traced_recs = [r for r in records if r.traced]
        overhead = sum(r.busy for r in traced_recs) / sum(r.busy for r in plain) - 1.0
        metrics.update(library_metrics(tracer, sum(len(r.times) for r in traced_recs)))
        if args.workload == "cli-session":
            imports = [parse_importtime(out.stderr) for r in traced_recs for out in r.outputs
                       if not isinstance(out, BaseException)]
        else:
            imports = probe_imports()
        for module, name in IMPORT_METRICS.items():
            vals = [s[module] for s in imports if module in s]
            metrics[name] = (statistics.median(vals) if vals else 0.0, "ms")
        per_kind: dict[str, list[float]] = {}
        for r in plain:
            for op, t in zip(wl.ops, r.times):
                per_kind.setdefault(op.kind, []).append(t)
        for kind in CLI_KINDS:
            vals = per_kind.get(kind)
            metrics[f"cli.{kind}.ms"] = (1e3 * statistics.median(vals) if vals else 0.0, "ms")
        j1, j2 = metrics["cli.expand_jobs1.ms"][0], metrics["cli.expand_jobs2.ms"][0]
        metrics["cli.pool.speedup"] = (j1 / j2 if j2 else 0.0, "ratio")
        metrics["bubbles.hs_norm_sq.rel_err_max"] = (max(wl.hs_rel_errs, default=0.0), "1")
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
