"""Per-layer tracing from outside the package.

While a Tracer is active, the package's public functions are replaced, under
every module name their callers look them up by, with wrappers that record
a span per call. Spans nest on a stack; each keeps the time its children
took, so a layer's self time is its duration minus its children's. Spans are
aggregated per layer as they close (calls, total and self seconds), because
the coefficient closures alone are called tens of millions of times per pass.
The originals are restored when the tracer exits.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from steklovwarp import acceptance, assembler, linalg, oracle, profiles, provenance, spectra, sturm

# Calls that return a result to the user; their outermost span counts the
# eigenvalues returned, against the 1D eigenvalues computed inside it.
RESULT_SPANS = ("assembler.spectrum", "assembler.sigma1", "assembler.first")

BYTES_PER_FLOAT = 8


def schur_kernel_figures(n: int, b: int, m: int) -> tuple[float, float]:
    """Computed (not measured) flops and bytes of one boundary Schur complement.

    n interior unknowns with half-bandwidth b, m boundary unknowns. Leading
    terms: banded Cholesky n b^2 flops, reading and writing the band once;
    the m-column solve 4 n b m flops, re-reading the band for each column
    in both sweeps (LAPACK dpbtrs solves column by column); the product
    A_IB^T X 2 n m^2 flops, reading both n x m blocks.
    """
    band = (b + 1) * n * BYTES_PER_FLOAT
    block = n * m * BYTES_PER_FLOAT
    flops = n * b * b + 4.0 * n * b * m + 2.0 * n * m * m
    moved = 2.0 * band + (2.0 * m * band + 2.0 * block) + 2.0 * block
    return flops, moved


class Tracer:
    """Context manager that wraps the package's layers and aggregates their spans."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.extremes: dict[str, float] = {}
        self.root_s = 0.0
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable[[float], float]) -> Callable[[float], float]:
        """Cheaper span for a one-argument function that calls no traced layer."""
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(t):
            start = clock()
            value = fn(t)
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed
            if stack:
                stack[-1][1] += elapsed
            else:
                self.root_s += elapsed
            return value

        return traced

    def inside(self, *names: str) -> bool:
        return any(frame[0] in names for frame in self._stack)

    def _extreme(self, key: str, value: float, pick: Callable) -> None:
        self.extremes[key] = pick(self.extremes.get(key, value), value)

    # -- observers ----------------------------------------------------------

    def _on_assemble(self, args, kwargs, system) -> None:
        problem = args[0]
        nodes = problem.nodes
        self.counts["sturm.nodes"] += len(nodes)
        # stiffness couplings are -w_mid/dt: the interior chain sits on the
        # first subdiagonal, the elements at Steklov ends in A_IB
        cond = -system.a_ii_banded[1, : system.n_interior - 1]
        if isinstance(problem.left_bc, sturm.SteklovEnd):
            cond = np.concatenate(([-system.a_ib[0, 0]], cond))
        if isinstance(problem.right_bc, sturm.SteklovEnd):
            cond = np.concatenate((cond, [-system.a_ib[-1, -1]]))
        w = cond * np.diff(nodes)
        self._extreme("sturm.w_range", float(w.max() / w.min()), max)
        for a, b in problem.transition_spans:
            inside = int(np.count_nonzero((nodes[:-1] >= a) & (nodes[1:] <= b)))
            self._extreme("sturm.elems_per_span_min", inside, min)

    def _on_solve(self, args, kwargs, values) -> None:
        if self.inside("assembler.branch"):
            self.counts["assembler.branch_solves"] += 1
        if self.inside("assembler.sigma1"):
            self.counts["assembler.sigma1_solves"] += 1
        if self.inside(*RESULT_SPANS):
            self.counts["assembler.computed"] += len(values)

    def _on_schur(self, args, kwargs, result) -> None:
        system = args[0]
        flops, moved = schur_kernel_figures(system.n_interior, system.bandwidth, system.n_boundary)
        self.counts["linalg.schur_flops"] += flops
        self.counts["linalg.schur_bytes"] += moved

    def _on_merge(self, args, kwargs, result) -> None:
        self.counts["provenance.tagged"] += len(args[0])
        self.counts["provenance.entries"] += len(result.entries)

    def _on_extend(self, args, kwargs, result) -> None:
        self.counts["spectra.entries"] += len(result.entries)

    def _on_oracle_assemble(self, args, kwargs, system) -> None:
        self._extreme("oracle.n_interior", system.n_interior, max)
        self._extreme("oracle.bandwidth", system.bandwidth, max)

    def _returned(self, count: Callable[[Any], int]) -> Callable:
        def observe(args, kwargs, result) -> None:
            if not self.inside(*RESULT_SPANS):
                self.counts["assembler.returned"] += count(result)

        return observe

    def _power_fn(self, original: Callable) -> Callable:
        def traced_power_fn(*args, **kwargs):
            return self.wrap_leaf("profiles", original(*args, **kwargs))

        return traced_power_fn

    # -- patching -----------------------------------------------------------

    def _layers(self) -> list[tuple[Callable, Callable]]:
        """(original, replacement) for every traced public function."""
        spectrum_returned = self._returned(lambda s: sum(len(e.sources) for e in s.entries))
        layers = [
            (assembler.steklov_spectrum_warped, "assembler.spectrum", spectrum_returned),
            (assembler.sigma1_construction, "assembler.sigma1", self._returned(lambda r: 1)),
            (assembler.first_eigenvalues, "assembler.first", self._returned(lambda r: len(r[0]))),
            (sturm.base_dtn_spectrum, "assembler.branch", None),
            (sturm.dtn_eigenvalues, "sturm.solve", self._on_solve),
            (sturm.assemble, "sturm.assemble", self._on_assemble),
            (linalg.dtn_matrix, "linalg.schur", self._on_schur),
            (linalg.sym_eig, "linalg.eig", None),
            (provenance.merge_tagged, "provenance.merge", self._on_merge),
            (spectra.extend, "spectra.extend", self._on_extend),
            (oracle.assemble_revolution, "oracle.assemble", self._on_oracle_assemble),
        ]
        for attr, fn in vars(acceptance).items():
            if attr.startswith("criterion_") and callable(fn):
                layers.append((fn, f"acceptance.c{attr.split('_')[1]}", None))
        pairs = [(fn, self.wrap(name, fn, observe)) for fn, name, observe in layers]
        pairs.append((profiles.power_fn, self._power_fn(profiles.power_fn)))
        return pairs

    def __enter__(self) -> "Tracer":
        replacements = {id(fn): (fn, new) for fn, new in self._layers()}
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "steklovwarp"]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, passes: int, pass_s: float) -> dict[str, float]:
        """Per-pass layer figures after `passes` traced passes of mean duration pass_s."""

        def calls(name):
            return self.stats[name][0] / passes if name in self.stats else 0.0

        def total(name):
            return self.stats[name][1] / passes if name in self.stats else 0.0

        def self_s(name):
            return self.stats[name][2] / passes if name in self.stats else 0.0

        def per_pass(key):
            return self.counts.get(key, 0.0) / passes

        def ratio(a, b):
            return a / b if b else 0.0

        schur_s = total("linalg.schur")
        out = {
            "profiles.calls": calls("profiles"),
            "profiles.s": total("profiles"),
            "sturm.solves": calls("sturm.solve"),
            "sturm.solve_s": total("sturm.solve"),
            "sturm.assemble_s": self_s("sturm.assemble"),
            "sturm.nodes_per_solve": ratio(per_pass("sturm.nodes"), calls("sturm.assemble")),
            "sturm.w_range": self.extremes.get("sturm.w_range", 0.0),
            "sturm.elems_per_span_min": self.extremes.get("sturm.elems_per_span_min", 0),
            "linalg.schur_calls": calls("linalg.schur"),
            "linalg.schur_s": schur_s,
            "linalg.eig_s": total("linalg.eig"),
            "linalg.schur_flops": per_pass("linalg.schur_flops"),
            "linalg.schur_bytes": per_pass("linalg.schur_bytes"),
            "linalg.schur_gflops": ratio(per_pass("linalg.schur_flops"), schur_s) / 1e9,
            "provenance.tagged": per_pass("provenance.tagged"),
            "provenance.entries": per_pass("provenance.entries"),
            "provenance.merge_s": total("provenance.merge"),
            "spectra.entries": per_pass("spectra.entries"),
            "spectra.extend_s": total("spectra.extend"),
            "assembler.branches": calls("assembler.branch"),
            "assembler.modes_per_branch": ratio(
                per_pass("assembler.branch_solves"), calls("assembler.branch")
            ),
            "assembler.solves_per_result": ratio(
                per_pass("assembler.sigma1_solves"), calls("assembler.sigma1")
            ),
            "assembler.useful_frac": ratio(
                per_pass("assembler.returned"), per_pass("assembler.computed")
            ),
            "oracle.assemble_s": total("oracle.assemble"),
            "oracle.n_interior": self.extremes.get("oracle.n_interior", 0),
            "oracle.bandwidth": self.extremes.get("oracle.bandwidth", 0),
            "trace.span_frac": ratio(self.root_s / passes, pass_s),
        }
        for i in range(1, 11):
            out[f"acceptance.c{i}_s"] = total(f"acceptance.c{i}")
        return out
