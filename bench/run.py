"""dictsel benchmark: per-selector time and quality on one workload.

    python3 bench/run.py --workload {percap,coupled,online} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; dictsel is imported from ``src/``.
Set-up is repeated SETUP_REPEATS times.  Then whole rounds (ROMP phase,
exact-greedy phase, evaluation phase) repeat until ``--seconds`` would be
exceeded, at least MIN_ROUNDS times.  Every call in a phase is timed on its
own and scaled to a reference machine speed by the calibration kernel in
``speed.py``; a phase's time is the sum over its calls of each call's
median over rounds.  The first round's outputs are checked apart from the
program, and every later round must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-module metrics of the traced
rounds plus the tracing overhead.  The last line of standard output is one
JSON object; a record of the run with every sample is written to
``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that the library default (one
# thread per core) never applies: BLAS threads would compete with the
# benchmark for the cores its timings depend on.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
PHASES = ("romp", "greedy", "eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values) -> float:
    return float(statistics.median(values))


def in_phase(label: str, phase: str) -> bool:
    return label.startswith(phase + ".")


class Run:
    """Rounds of one workload, with the checks and the quality they yield."""

    def __init__(self, workload, inputs, clock):
        self.workload = workload
        self.inputs = inputs
        self.clock = clock
        self.tracer = None
        self.reference = None  # fingerprints and verdicts of the first round
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: dict[str, float] = {}
        self.selection_counts: dict[str, int] = {}

    def round(self) -> dict[str, tuple[float, float]]:
        """One ROMP, exact-greedy and evaluation phase; returns {call: (wall s, scaled s)}."""
        from workloads import evaluate

        outputs = {}
        for p in PHASES:
            if self.tracer is not None:
                self.tracer.phase = p
            if p == "eval":
                outputs[p] = evaluate(self.workload, self.inputs, outputs["romp"] + outputs["greedy"], self.clock)
            else:
                outputs[p] = getattr(self.workload, p)(self.inputs, self.clock)
        if self.tracer is not None:
            self.tracer.phase = "checks"
        self._check(outputs)
        return self.clock.take()

    def _check(self, outputs):
        from checks import test_residual

        a, test = self.inputs.a, self.inputs.test
        ops = [(out.label, out.fingerprint, out.check) for p in ("romp", "greedy") for out in outputs[p]]
        ops += [
            (f"eval.{out.label}.{i}", rv, lambda rv=rv, atoms=atoms: test_residual(rv, a, atoms, test))
            for i, (out, atoms, rv) in enumerate(outputs["eval"])
        ]
        if self.reference is None:
            self.reference = {label: (fp, check()) for label, fp, check in ops}
            self._quality(outputs)
        for label, fp, _ in ops:
            self.attempted += 1
            ref_fp, problems = self.reference[label]
            problems = list(problems)
            if fp != ref_fp:
                problems.append("output differs from the first round's")
            if problems:
                self.failed += 1
                self.problems += [f"{label}: {p}" for p in problems[:3]]

    def _quality(self, outputs):
        test_ms = float((self.inputs.test**2).mean())
        for p in ("romp", "greedy"):
            outs = outputs[p]
            self.quality[f"{p}_explained"] = sum(o.gain for o in outs) / sum(o.energy for o in outs)
            rvs = [rv for out, _, rv in outputs["eval"] if in_phase(out.label, p)]
            self.quality[f"{p}_test_fit"] = 1.0 - statistics.fmean(rvs) / test_ms
            iterations = sum(o.iterations for o in outs)
            atoms = sum(len(d) for o in outs for d in o.dictionaries) if iterations else 0
            self.selection_counts[f"{p}.offline.iterations"] = iterations
            self.selection_counts[f"{p}.offline.repeat_winners"] = iterations - atoms


def setup_layers(tracer) -> dict[str, float]:
    """Per-module set-up metrics of one traced set-up, in wall seconds."""
    return {
        "setup.groundset.s": tracer.module_s("setup", "groundset"),
        "setup.data_io.s": tracer.module_s("setup", "data_io"),
        "setup.linalg.coherence.s": tracer.total_s("setup", "linalg", "coherence"),
        "setup.online.online_state.s": tracer.total_s("setup", "online", "online_state"),
    }


def round_layers(tracer) -> dict[str, float]:
    """Per-module metrics of one traced round, in wall seconds and counts."""
    out = {}
    for p in ("romp", "greedy"):
        out[f"{p}.linalg.s"] = tracer.module_s(p, "linalg")
        for fn in ("factor_insert", "factor_remove", "SupportFactorization.solve", "SupportFactorization.residual"):
            out[f"{p}.linalg.{fn.split('.')[-1]}.calls"] = tracer.calls(p, "linalg", fn)
        out[f"{p}.linalg.rank_deficient"] = tracer.rank_deficient(p, "linalg")
        out[f"{p}.constraints.s"] = tracer.module_s(p, "constraints")
        for fn in ("best_replacement", "solve_exchange", "is_feasible", "PartitionMatroid.independent"):
            out[f"{p}.constraints.{fn.split('.')[-1]}.calls"] = tracer.calls(p, "constraints", fn)
        out[f"{p}.offline.self_s"] = tracer.self_s(p, "offline")
        out[f"{p}.online.self_s"] = tracer.self_s(p, "online")
        out[f"{p}.online.rounds"] = tracer.calls(p, "online", "online_round")
        out[f"{p}.online.hedge_step.s"] = tracer.total_s(p, "online", "hedge_step")
        out[f"{p}.online.hedge_step.calls"] = tracer.calls(p, "online", "hedge_step")
    out["eval.cli.self_s"] = tracer.self_s("eval", "cli")
    out["eval.encoders.self_s"] = tracer.self_s("eval", "encoders")
    out["eval.encoders.omp_encode.calls"] = tracer.calls("eval", "encoders", "omp_encode")
    out["eval.linalg.s"] = tracer.module_s("eval", "linalg")
    out["eval.linalg.factor_insert.calls"] = tracer.calls("eval", "linalg", "factor_insert")
    out["eval.linalg.rank_deficient"] = tracer.rank_deficient("eval", "linalg")
    return out


def unit_of(name: str) -> str:
    return "s" if name.endswith((".s", "self_s")) else "count"


def scale_layers(layers: dict, units: dict) -> dict:
    """Scale each phase's time metrics by the kernel factor of that phase's calls."""
    out = dict(layers)
    for phase in {name.split(".")[0] for name in layers}:
        wall = sum(u[0] for label, u in units.items() if in_phase(label, phase))
        scaled = sum(u[1] for label, u in units.items() if in_phase(label, phase))
        factor = scaled / wall if wall else 1.0
        for name, value in layers.items():
            if in_phase(name, phase) and unit_of(name) == "s":
                out[name] = value * factor
    return out


def phase_seconds(rounds: list[dict], phase: str) -> float:
    """Sum over the phase's calls of each call's median scaled time."""
    labels = [label for label in rounds[0] if in_phase(label, phase)]
    return sum(median([r[label][1] for r in rounds]) for label in labels)


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dictsel" / "__init__.py").is_file():
        sys.stderr.write(f"no dictsel sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dictsel
    from speed import Clock
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    start = perf_counter()
    workload = WORKLOADS[args.workload]()
    tracer = Tracer(dictsel) if args.trace else None
    clock = Clock()

    setup_samples, setup_traced = [], []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.reset()
            tracer.phase = "setup"
            tracer.install()
        try:
            inputs = clock.unit("setup.all", lambda: workload.setup(args.seed))
        finally:
            if tracer is not None:
                tracer.uninstall()
        units = clock.take()
        setup_samples.append(units["setup.all"])
        if tracer is not None:
            setup_traced.append(scale_layers(setup_layers(tracer), units))

    run = Run(workload, inputs, clock)
    measure_start = perf_counter()
    samples = {"untraced": [], "traced": []}
    traced_layers = []
    while True:
        n_plain, n_traced = len(samples["untraced"]), len(samples["traced"])
        if n_plain >= MIN_ROUNDS and (tracer is None or n_traced >= MIN_TRACED_ROUNDS):
            now = perf_counter()
            if now + (now - measure_start) / (n_plain + n_traced) - start > args.seconds:
                break
        traced = tracer is not None and n_traced < n_plain
        if traced:
            tracer.reset()
            tracer.install()
            run.tracer = tracer
        try:
            units = run.round()
        finally:
            if traced:
                tracer.uninstall()
                run.tracer = None
        if traced:
            traced_layers.append(scale_layers(round_layers(tracer), units))
        samples["traced" if traced else "untraced"].append(units)

    plain = samples["untraced"]
    if tracer is None:
        metrics = {"setup_s": (median([s[1] for s in setup_samples]), "s")}
        for p in PHASES:
            metrics[f"{p}_s"] = (phase_seconds(plain, p), "s")
        for name in ("romp_explained", "greedy_explained", "romp_test_fit", "greedy_test_fit"):
            metrics[name] = (run.quality[name], "share")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        metrics = {}
        for rows in (setup_traced, traced_layers):
            for name in rows[0]:
                value = median([row[name] for row in rows])
                metrics[name] = (value if unit_of(name) == "s" else int(value), unit_of(name))
        for name, value in run.selection_counts.items():
            metrics[name] = (value, "count")
        e2e = {mode: median([sum(u[0] for u in r.values()) for r in rounds]) for mode, rounds in samples.items()}
        metrics["trace.overhead"] = (e2e["traced"] / e2e["untraced"] - 1.0, "ratio")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "samples": "[wall s, scaled s] per timed call; kernel_s in run order",
        "kernel_s": clock.kernel_times,
        "setup": setup_samples,
        "rounds": samples,
        "problems": run.problems,
        "result": result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(
        f"# {args.workload} seed={args.seed} rounds={len(plain)}+{len(samples['traced'])} "
        f"blas_threads={BLAS_THREADS} wall={perf_counter() - start:.1f}s"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
