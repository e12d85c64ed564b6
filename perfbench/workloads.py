"""The benchmark's workloads, the output checks and the repeat records.

A workload is a list of units drawn from the workload seed.  A unit is one
epsilon sweep (``cmd_solve`` then ``cmd_diagnose`` over its files) or one
``run_acceptance`` call, driven through aclab's public entry points.

An operation is one epsilon solve, one diagnose call or one acceptance
criterion.  An operation fails when an exception escapes it, when the solve
records its epsilon in ``RunReport.errors``, when one of its output checks
fails, or when its CSV digest or exact counts differ from the ones recorded
for the same input earlier.  Acceptance criteria 3 and 4 are expected to
fail on their structural sub-checks only; that is not counted as a failure.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

H0 = 2.0 * math.sqrt(2.0) / 3.0

# tables every completed diagnose writes with the default checks
DIAGNOSE_TABLES = ("equipartition.csv", "ratio_curves.csv", "monotonicity.csv",
                   "monotonicity_violations.csv", "pohozaev.csv",
                   "boundary_energy.csv", "varifold_mass.csv")

DISK_CONFIG = """\
[domain]
shape = disk
params = 1.0
cells = 256

[solver]
tol = 1e-10
constraint_mean = 0.3

[init]
recipe = radial
pre_steps = 30

[sweep]
epsilons = 0.04 0.03 0.02

[diagnostics]
checks = equipartition ratios monotonicity pohozaev boundary-energy varifold
samples = 10
fields = 5

[output]
seed = {seed}
"""


@dataclass
class UnitResult:
    """Timings, operations and check outcomes of one unit."""

    times: dict = field(default_factory=dict)     # phase -> seconds
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # operation -> reasons
    incorrect: list = field(default_factory=list)  # failed output checks
    diagnose_errors: int = 0
    counts: dict = field(default_factory=dict)    # exact counts, traced only
    runtimes: dict = field(default_factory=dict)  # criterion -> runtime
    layer_s: dict = field(default_factory=dict)   # phase -> self time by span

    def fail(self, op, reason, wrong_output=False):
        self.failures.setdefault(op, []).append(reason)
        if wrong_output:
            self.incorrect.append(f"{op}: {reason}")


class RepeatRecord:
    """Digests and exact counts per input, kept across runs in one checkout.

    Keys carry a digest of the aclab and benchmark sources and of the
    numeric environment, so a different program, benchmark or BLAS thread
    count starts a fresh record.
    """

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}

    def agree(self, key: str, value) -> bool:
        """Record value under key; False if a different value is recorded."""
        key = f"{self.prefix}|{key}"
        if key not in self.data:
            self.data[key] = value
            return True
        return self.data[key] == value

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _text_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error_line(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(frame.filename).name}:{frame.lineno})")


def _solution_header(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.readline())


class SweepWorkload:
    """Epsilon sweeps through ``cmd_solve`` and ``cmd_diagnose``."""

    phases = ("solve_s", "diagnose_s")

    def __init__(self, name, seed, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.units = []

    def setup(self):
        """Import the CLI layer, parse every config and build the domain."""
        from aclab import cli
        from aclab.config import parse_config
        from aclab.geometry import build_domain
        self.cli = cli
        texts = self.unit_texts()
        self.units = [(text, parse_config(text)) for text in texts]
        cfg = self.units[0][1]
        build_domain(cfg.shape, cfg.params, cfg.cells)

    def run_unit(self, index, record: RepeatRecord, tracer=None):
        text, cfg = self.units[index % len(self.units)]
        out = self.work_dir / f"unit{index}"
        res = UnitResult()
        eps_ops = [f"solve eps={e:g}" for e in cfg.epsilons]
        res.attempted = len(eps_ops) + 1
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            report = self.cli.cmd_solve(cfg, out_dir=out)
        except Exception as exc:  # the benchmark keeps running and counts it
            report = None
            for op in eps_ops:
                res.fail(op, _error_line(exc))
        res.times["solve_s"] = time.perf_counter() - t0
        if tracer:
            solve_counts = tracer.counts_since(before)
            res.layer_s["solve_s"] = tracer.self_since(before)

        paths = sorted(out.glob("solution_*.txt"))
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            if not paths:
                raise RuntimeError("no solution files to diagnose")
            diag = self.cli.cmd_diagnose(cfg, [str(p) for p in paths],
                                         out_dir=out)
            res.diagnose_errors = len(diag.errors)
            diagnosed = True
        except Exception as exc:  # e.g. the IndexError in density_estimate
            res.fail("diagnose", _error_line(exc))
            diagnosed = False
        res.times["diagnose_s"] = time.perf_counter() - t0
        res.times["turnaround_s"] = (res.times["solve_s"]
                                     + res.times["diagnose_s"])

        solve_key = _text_key(re.sub(r"(?m)^seed = .*$", "", text))
        self._check_solutions(cfg, report, out, eps_ops, res)
        if diagnosed:
            for table in DIAGNOSE_TABLES:
                if not (out / table).is_file():
                    res.fail("diagnose", f"{table} not written",
                             wrong_output=True)
        solve_files = [out / "summary.csv"] + paths
        if all(p.is_file() for p in solve_files) and not record.agree(
                f"{self.name}|solve|{solve_key}", _digest(solve_files)):
            for op in eps_ops:
                res.fail(op, "summary.csv or solution bytes differ from an "
                             "earlier run of the same input")
        diag_files = sorted(p for p in out.glob("*.csv")
                            if p.name != "summary.csv")
        if not record.agree(f"{self.name}|diagnose|{_text_key(text)}",
                            _digest(diag_files)):
            res.fail("diagnose", "diagnose CSV bytes differ from an earlier "
                                 "run of the same input")
        if tracer:
            diag_counts = tracer.counts_since(before)
            res.layer_s["diagnose_s"] = tracer.self_since(before)
            if not record.agree(f"{self.name}|solve-counts|{solve_key}",
                                solve_counts):
                for op in eps_ops:
                    res.fail(op, f"exact counts {solve_counts} differ from "
                                 "an earlier run of the same input")
            if not record.agree(f"{self.name}|diagnose-counts|"
                                f"{_text_key(text)}", diag_counts):
                res.fail("diagnose", f"exact counts {diag_counts} differ "
                                     "from an earlier run of the same input")
            res.counts = _add_counts(solve_counts, diag_counts)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _check_solutions(self, cfg, report, out, eps_ops, res):
        errors = {e for e, _ in report.errors} if report else set()
        for k, (e, op) in enumerate(zip(cfg.epsilons, eps_ops)):
            if e in errors:
                res.fail(op, "epsilon recorded in RunReport.errors")
                continue
            path = out / f"solution_{k:02d}.txt"
            if not path.is_file():
                if report is not None:
                    res.fail(op, "no solution file", wrong_output=True)
                continue
            head = _solution_header(path)
            if not head["residual_norm"] <= cfg.tol:
                res.fail(op, f"residual {head['residual_norm']:.3e} above "
                             f"tol {cfg.tol:g}", wrong_output=True)
            self.check_solution(head, op, res)


def _add_counts(*parts) -> dict:
    """Sum counts and concatenate per-call lists."""
    total = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total[key] + value if key in total else value
    return total


class IntervalBatch(SweepWorkload):
    """Example-config 1D sweeps with a drawn constraint mean and seed.

    The means are drawn one per equal slice of (-0.6, 0.6), so every seed
    covers the whole range, interfaces near the boundary included, and the
    batch median does not hinge on where a few draws happened to fall.
    """

    batch = 16

    def unit_texts(self):
        from aclab.config import example_config
        rng = random.Random(self.seed)
        texts = []
        for k in range(self.batch):
            m = round(-0.6 + 1.2 * (k + rng.random()) / self.batch, 4)
            diag_seed = rng.randrange(1000)
            text = re.sub(r"(?m)^constraint_mean = .*$",
                          f"constraint_mean = {m!r}", example_config())
            texts.append(re.sub(r"(?m)^seed = .*$", f"seed = {diag_seed}",
                                text))
        return texts

    def check_solution(self, head, op, res):
        """Criterion 3's oracle: one interface carries energy h0."""
        if not abs(head["energy"] - H0) <= 0.03 * H0:
            res.fail(op, f"energy {head['energy']:.6g} not within 3% of "
                         f"h0 {H0:.6g}", wrong_output=True)


class DiskSweep(SweepWorkload):
    """The warm-started 3-epsilon disk-256 sweep and its full diagnose."""

    def unit_texts(self):
        diag_seed = random.Random(self.seed).randrange(1000)
        return [DISK_CONFIG.format(seed=diag_seed)]

    def check_solution(self, head, op, res):
        """Criterion 8's oracle: |lambda| = h0 / (2 r_arc)."""
        from aclab.solver import orthogonal_arc
        r_arc, _, _ = orthogonal_arc(1.0, 0.3)
        oracle = H0 / (2.0 * r_arc)
        if not abs(abs(head["lambda"]) - oracle) <= 0.15 * oracle:
            res.fail(op, f"|lambda| {abs(head['lambda']):.6g} not within 15% "
                         f"of {oracle:.6g}", wrong_output=True)


class Acceptance:
    """``run_acceptance(seed)``, the gate every change runs."""

    phases = ("check_s",)
    name = "acceptance"

    def __init__(self, name, seed, work_dir: Path):
        self.seed = seed
        self.units = [seed]

    def setup(self):
        from aclab import acceptance
        self.acceptance = acceptance

    def run_unit(self, index, record: RepeatRecord, tracer=None):
        acc = self.acceptance
        res = UnitResult()
        res.attempted = len(acc.CRITERIA)
        counts = {}
        criteria = acc.CRITERIA
        if tracer:
            before = tracer.snapshot()
            acc.CRITERIA = tuple(_counted(c, k, tracer, counts)
                                 for k, c in enumerate(criteria, 1))
        t0 = time.perf_counter()
        try:
            results = acc.run_acceptance(seed=self.seed, verbose=False)
        except Exception as exc:
            results = []
            for k in range(1, len(criteria) + 1):
                res.fail(f"criterion {k}", _error_line(exc),
                         wrong_output=True)
        finally:
            acc.CRITERIA = criteria
        res.times["check_s"] = time.perf_counter() - t0
        res.times["turnaround_s"] = res.times["check_s"]
        res.runtimes = {r.index: r.runtime for r in results}

        for r in results:
            op = f"criterion {r.index}"
            bad = [s for s in r.subs if not s.passed]
            structural = r.index in (3, 4) and bool(bad) and all(
                s.note == acc.STRUCTURAL_LIMIT_NOTE for s in bad)
            if r.index in (3, 4) and not structural:
                res.fail(op, "does not fail exactly on its structural "
                             "sub-check", wrong_output=True)
            elif bad and not structural:
                res.fail(op, "; ".join(f"{s.label}: {s.measured}"
                                       for s in bad), wrong_output=True)
            if r.runtime > r.budget:
                res.fail(op, f"runtime {r.runtime:.1f}s over budget "
                             f"{r.budget:.0f}s")
            measured = "|".join(f"{s.label}={s.measured}" for s in r.subs)
            if not record.agree(f"acceptance|{self.seed}|{r.index}",
                                hashlib.sha256(measured.encode()).hexdigest()):
                res.fail(op, "measured values differ from an earlier run "
                             "with the same seed")
            if tracer and not record.agree(
                    f"acceptance-counts|{self.seed}|{r.index}",
                    counts[r.index]):
                res.fail(op, f"exact counts {counts[r.index]} differ from "
                             "an earlier run with the same seed")
        if tracer:
            res.layer_s["check_s"] = tracer.self_since(before)
            res.counts = _add_counts(*(counts[k] for k in sorted(counts)))
        return res


def _counted(crit, index, tracer, counts):
    """A criterion that records the exact counts of the work it causes."""
    def run(ctx):
        before = tracer.snapshot()
        try:
            return crit(ctx)
        finally:
            counts[index] = tracer.counts_since(before)
    return run


WORKLOADS = {
    "interval-batch": IntervalBatch,
    "disk-sweep": DiskSweep,
    "acceptance": Acceptance,
}
