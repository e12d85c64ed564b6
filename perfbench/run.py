"""aclab benchmark: sweep turnaround and acceptance time, traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload disk-sweep --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one pass of the workload's units untraced and once more
with every layer's public functions wrapped, and reports per-layer self
time and counts.  ``--workload all`` runs every workload both ways in child
processes and prints every metric with its unit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  aclab is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# Fixed BLAS thread count, set before numpy loads in this process and in
# every child.  One thread keeps repeats steady: three disk-sweep solves on a
# 2-core machine read 8.81/8.93/8.96 s on one thread, 7.39/8.65/9.72 s on two.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, RepeatRecord  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("turnaround_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("potential.DoubleWell.wp.s", "s"),
    ("potential.DoubleWell.wpp.s", "s"),
    ("geometry.build_domain.s", "s"),
    ("geometry.signed_distance.s", "s"),
    ("solver.splu.s", "s"),
    ("solver.splu.calls", "count"),
    ("solver.cg.s", "s"),
    ("solver.newton_refine.s", "s"),
    ("solver.newton_iters", "count"),
    ("solver.gradient_flow.s", "s"),
    ("solver.flow_steps", "count"),
    ("solver.stiffness_matrix.s", "s"),
    ("solver.stiffness_matrix.calls_per_solve", "count"),
    ("solver.seed_field.s", "s"),
    ("solver.resharpen.s", "s"),
    ("diagnostics.energy_ratio_curve.s", "s"),
    ("diagnostics.energy_ratio_curve.calls", "count"),
    ("diagnostics.monotonicity_scan.s", "s"),
    ("diagnostics.pohozaev_residual.s", "s"),
    ("diagnostics.make_rotational_field.s", "s"),
    ("diagnostics.boundary_energy.s", "s"),
    ("diagnostics.equipartition_report.s", "s"),
    ("varifold.extract_interface.s", "s"),
    ("varifold.extract_interface.calls", "count"),
    ("varifold.extract_interface.calls_per_solution", "count"),
    ("varifold.export_atoms.s", "s"),
    ("varifold.export_atoms.bytes", "bytes"),
    ("varifold.build_varifold.s", "s"),
    ("varifold.free_boundary_test.s", "s"),
    ("varifold.integrality_check.s", "s"),
    ("cli.save_solution.s", "s"),
    ("cli.save_solution.bytes", "bytes"),
    ("cli.load_solution.s", "s"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.diagnose.errors", "count"),
    *((f"acceptance.criterion_{k}.s", "s") for k in range(1, 11)),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_aclab():
    """Import aclab from this checkout's src/, refusing any other copy."""
    if not (SRC / "aclab" / "__init__.py").is_file():
        _fail(f"no aclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aclab
    if Path(aclab.__file__).resolve().parent != SRC / "aclab":
        _fail(f"imported aclab from {aclab.__file__}, not from {SRC}")
    return aclab


def _check_declared_metrics():
    """The metric lists here must match BENCHMARK.json when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(ours):
            _fail(f"BENCHMARK.json {key} does not match perfbench/run.py")


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count()}


def source_digest() -> str:
    """Digest of the program and of this benchmark's own code."""
    h = hashlib.sha256()
    for p in sorted([*(SRC / "aclab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def summarize(values) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    med = statistics.median(values)
    if n >= 20:
        q = math.floor(100.0 * (1.0 - 10.0 / n))
        high = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        label = f"p{q}"
    else:
        high, label = values[-1], "max"
    return f"median={med:.4f} {label}={high:.4f} n={n}"


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from starting a process to its first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            _fail(f"set-up probe exited with code {code}")
        samples.append(elapsed)
    return samples


class Run:
    """One benchmark run: units, their outcomes and the repeat record.

    Units repeat the workload's inputs in turn.  ``attempted`` and
    ``failed`` count each operation on each distinct input once, so they
    depend on the seed alone and not on how many repeats fit in the time;
    an operation is failed if it failed in any of its repeats.
    """

    def __init__(self, workload, record):
        self.workload = workload
        self.record = record
        self.results = []
        self.keys = []

    def unit(self, index, tracer=None):
        res = self.workload.run_unit(index, self.record, tracer)
        self.results.append(res)
        self.keys.append(index % len(self.workload.units))
        return res

    @property
    def attempted(self):
        first = {}
        for key, r in zip(self.keys, self.results):
            first.setdefault(key, r.attempted)
        return sum(first.values())

    @property
    def failed(self):
        return len({(key, op) for key, r in zip(self.keys, self.results)
                    for op in r.failures})

    @property
    def incorrect(self):
        return [msg for r in self.results for msg in r.incorrect]


def run_untraced(run: Run, seconds: float):
    """Run every input once, then units until the next would end past the
    time budget."""
    start = time.perf_counter()
    walls = []
    index = 0
    while True:
        res = run.unit(index)
        walls.append(res.times["turnaround_s"])
        index += 1
        if (index >= len(run.workload.units) and time.perf_counter() - start
                + statistics.median(walls) > seconds):
            return


def run_traced(run: Run):
    """One pass untraced, then the same pass traced; per-layer metrics."""
    units = range(len(run.workload.units))
    untraced = traced = 0.0
    for i in units:
        untraced += run.unit(i).times["turnaround_s"]
    first = len(run.results)
    with Tracer() as tracer:
        for i in units:
            traced += run.unit(i, tracer).times["turnaround_s"]
    mine = run.results[first:]
    n = len(mine)
    metrics = {f"{name}.s": s / n for name, s in tracer.self_s.items()}
    metrics.update({name: c / n for name, c in tracer.counts.items()})
    counts = [r.counts for r in mine]
    newton_calls = tracer.counts["solver.newton_refine.calls"]
    solutions = sum(c["extract_solutions"] for c in counts)
    metrics.update({
        "solver.flow_steps": tracer.counts["solver.cg.calls"] / n,
        "solver.newton_iters": sum(tracer.newton_iters) / n,
        "solver.stiffness_matrix.calls_per_solve":
            tracer.counts["solver.stiffness_matrix.calls"] / newton_calls
            if newton_calls else 0.0,
        "varifold.extract_interface.calls_per_solution":
            sum(c["extract_calls"] for c in counts) / solutions
            if solutions else 0.0,
        "cli.diagnose.errors": sum(r.diagnose_errors for r in mine) / n,
        "trace.overhead_s": (traced - untraced) / n,
        "trace.unattributed_share": 1.0 - tracer.covered_s / traced,
    })
    for k in range(1, 11):
        metrics[f"acceptance.criterion_{k}.s"] = sum(
            r.runtimes.get(k, 0.0) for r in mine) / n
    for i, c in enumerate(counts):
        print(f"exact counts unit {i}: splu_calls={c['splu_calls']} "
              f"flow_steps={c['flow_steps']} newton_iters="
              f"{'/'.join(map(str, c['newton_iters']))} extract_calls="
              f"{c['extract_calls']} extract_solutions="
              f"{c['extract_solutions']}")
    print(f"trace: traced {traced:.3f}s, untraced {untraced:.3f}s over {n} "
          f"units")
    for phase in run.workload.phases:
        layer_s = {}
        for r in mine:
            for name, s in r.layer_s.get(phase, {}).items():
                layer_s[name] = layer_s.get(name, 0.0) + s / n
        wall = sum(r.times[phase] for r in mine) / n
        top = sorted(layer_s.items(), key=lambda kv: -kv[1])[:5]
        print(f"{phase} {wall:.4f}s per unit, largest self times: "
              + ", ".join(f"{name} {s:.4f}s ({s / wall:.0%})"
                          for name, s in top))
    print("inclusive time per unit: " + ", ".join(
        f"{name} {s / n:.4f}s" for name, s in sorted(
            tracer.total_s.items(), key=lambda kv: -kv[1])))
    return metrics


def run_workload(args) -> int:
    env = environment()
    STATE_DIR.mkdir(exist_ok=True)
    work = STATE_DIR / f"work-{os.getpid()}"
    record = RepeatRecord(
        STATE_DIR / "repeat-record.json",
        f"{source_digest()}|{json.dumps(env, sort_keys=True)}")
    workload = WORKLOADS[args.workload](args.workload, args.seed, work)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload.setup()
    run = Run(workload, record)
    try:
        if args.trace:
            values = run_traced(run)
            declared = PER_LAYER
        else:
            run_untraced(run, args.seconds)
            values = {
                "setup_s": statistics.median(setup),
                "turnaround_s": statistics.median(
                    r.times["turnaround_s"] for r in run.results),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.save()

    if setup:
        print(f"setup_s {summarize(setup)}")
    for phase in (*workload.phases, "turnaround_s"):
        print(f"{phase} {summarize([r.times[phase] for r in run.results])}")
    for i, res in enumerate(run.results):
        for op, reasons in res.failures.items():
            print(f"failed unit {i} {op}: {'; '.join(reasons)}")
    for msg in run.incorrect:
        print(f"incorrect output: {msg}")
    print(f"failed_share {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}")
    result = {
        "correct": not run.incorrect,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced; one table of every metric."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.append((name, "failed_share" + (".traced" if trace else ""),
                         result["failed"] / result["attempted"], "ratio"))
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    print()
    for name, metric, value, unit in rows:
        print(f"{name:15s} {metric:46s} {value:14.6g} {unit}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_aclab()
    _check_declared_metrics()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
