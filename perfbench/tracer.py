"""Span tracer that wraps aclab's public layer functions from outside.

Each wrapped call is one span.  A span's self time is its duration minus
the time covered by the spans it caused, so the self times of all spans add
up to the time covered by the outermost spans.  Counters are recorded at the
same boundaries.  Spans are summed in memory as they close; nothing is
written while tracing.

Modules bind names with ``from .x import y``, so a wrapper replaces the
original object under every name that refers to it in every loaded aclab
module, not only in the defining one.  Function-local imports resolve at
call time and therefore see the wrapper of the defining module.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute path) of every traced function
TARGETS = (
    ("potential.DoubleWell.wp", "aclab.potential", "DoubleWell.wp"),
    ("potential.DoubleWell.wpp", "aclab.potential", "DoubleWell.wpp"),
    ("geometry.build_domain", "aclab.geometry", "build_domain"),
    ("geometry.signed_distance", "aclab.geometry", "signed_distance"),
    ("solver.splu", "aclab.solver", "splu"),
    ("solver.cg", "aclab.solver", "cg"),
    ("solver.newton_refine", "aclab.solver", "newton_refine"),
    ("solver.gradient_flow", "aclab.solver", "gradient_flow"),
    ("solver.stiffness_matrix", "aclab.solver", "stiffness_matrix"),
    ("solver.seed_field", "aclab.solver", "seed_field"),
    ("solver.resharpen", "aclab.solver", "resharpen"),
    ("diagnostics.energy_ratio_curve", "aclab.diagnostics",
     "energy_ratio_curve"),
    ("diagnostics.monotonicity_scan", "aclab.diagnostics",
     "monotonicity_scan"),
    ("diagnostics.pohozaev_residual", "aclab.diagnostics",
     "pohozaev_residual"),
    ("diagnostics.make_rotational_field", "aclab.diagnostics",
     "make_rotational_field"),
    ("diagnostics.boundary_energy", "aclab.diagnostics", "boundary_energy"),
    ("diagnostics.equipartition_report", "aclab.diagnostics",
     "equipartition_report"),
    ("varifold.extract_interface", "aclab.varifold", "extract_interface"),
    ("varifold.export_atoms", "aclab.varifold", "export_atoms"),
    ("varifold.build_varifold", "aclab.varifold", "build_varifold"),
    ("varifold.free_boundary_test", "aclab.varifold", "free_boundary_test"),
    ("varifold.integrality_check", "aclab.varifold", "integrality_check"),
    ("cli.save_solution", "aclab.cli", "save_solution"),
    ("cli.load_solution", "aclab.cli", "load_solution"),
    ("cli.write_csv", "aclab.cli", "write_csv"),
)

# functions whose output file size is counted, by the position of the path
PATH_ARG = {"cli.save_solution": 0, "cli.write_csv": 0,
            "varifold.export_atoms": 1}


class Tracer:
    """Collects self time and call counts per traced function."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.newton_iters = []         # per newton_refine call, in order
        self.extracted = []            # id of the solution, per extraction
        self.covered_s = 0.0           # wall time inside outermost spans
        self._stack = []               # child time accumulated per open span
        self._undo = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                self.self_s[name] += dur - child
                self.total_s[name] += dur
                self.counts[name + ".calls"] += 1
                if stack:
                    stack[-1] += dur
                else:
                    self.covered_s += dur
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name, args, result):
        if name == "solver.newton_refine":
            self.newton_iters.append(result.iterations)
        elif name == "varifold.extract_interface":
            self.extracted.append(id(args[0]))
        elif name in PATH_ARG:
            path = args[PATH_ARG[name]]
            self.counts[name + ".bytes"] += os.path.getsize(path)

    def install(self):
        """Replace every traced function in every loaded aclab module."""
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "aclab" or n.startswith("aclab.")) and m]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            holders = modules
            if "." in attr:                      # a method of a class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for holder in holders:
                if holder.__dict__.get(attr) is orig:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self):
        """The state that counts_since and self_since measure from."""
        return (dict(self.counts), len(self.newton_iters), len(self.extracted),
                dict(self.self_s))

    def counts_since(self, snap) -> dict:
        """Exact counts of the work done since snapshot() returned snap.

        Solutions are told apart by id, which is unique while they are alive,
        that is, within one sweep or one acceptance run.
        """
        counts, newton_before, extracted_before, _ = snap

        def delta(name):
            return self.counts[name] - counts.get(name, 0)

        return {
            "splu_calls": delta("solver.splu.calls"),
            "flow_steps": delta("solver.cg.calls"),
            "newton_iters": self.newton_iters[newton_before:],
            "extract_calls": delta("varifold.extract_interface.calls"),
            "extract_solutions": len(set(self.extracted[extracted_before:])),
        }

    def self_since(self, snap) -> dict:
        """Self time per traced function since snapshot() returned snap."""
        self_before = snap[3]
        return {name: s - self_before.get(name, 0.0)
                for name, s in self.self_s.items()}
