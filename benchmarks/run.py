"""Seeded end-to-end benchmark of relgrid: `train`, then `eval`, via the CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload fit-short-k4 --seed 1 --seconds 30 --trace 0

The workload's corpus is generated from --seed before any timing starts,
and the program receives only the generated files. One cycle is one
`relgrid.cli.main(["train", ...])` followed by `eval_repeats` calls of
`relgrid.cli.main(["eval", ...])`, all in this process, then SETUP_PROBES
fresh interpreters that time the set-up cost. Cycles repeat until --seconds
have passed (at least MIN_CYCLES); each timing metric is the median over
all its samples in the run. Each CLI command is one operation; it fails on
a non-zero exit or a failed output check.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced cycles, then runs one cycle under tracemalloc, and prints the
per-layer metrics of BENCHMARK.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pinned before NumPy is first imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import dataclasses
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_CYCLES = 2
SETUP_PROBES = 6

# A fresh interpreter's fixed cost before its first prediction.
SETUP_PROBE = """
import sys, time
started = time.perf_counter()
import relgrid
from relgrid.corpus import load_native
from relgrid.trainer import load_checkpoint
model = load_checkpoint(sys.argv[1])
corpus, _, _ = load_native(sys.argv[2], model.relations, max_seq_len=model.config.max_seq_len)
print(time.perf_counter() - started, len(corpus), relgrid.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run or measure in this directory."""


def import_program() -> None:
    """Import relgrid from this checkout's src/, never from anywhere else."""
    if not (SRC / "relgrid" / "__init__.py").is_file():
        raise BenchError(f"no relgrid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import relgrid

    if Path(relgrid.__file__).resolve().parent != SRC / "relgrid":
        raise BenchError(f"imported relgrid from {relgrid.__file__}, not {SRC}")


def read_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "python_threads": threading.active_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs CLI commands on one workload's files and checks their outputs."""

    def __init__(self, workload, train_seed: int, work: Path, data: Path, relations: Path, gold_triples: int):
        self.workload = workload
        self.train_seed = train_seed
        self.work = work
        self.data = data
        self.relations = relations
        self.gold_triples = gold_triples
        self.checkpoint = work / "model.npz"
        self.report = work / "report.txt"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _command(self, argv: list[str]) -> tuple[bool, float]:
        from relgrid import cli

        self.attempted += 1
        sink = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - started
        if code != 0:
            self._fail(f"{argv[0]} exited {code}")
            return False, elapsed
        return True, elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def train(self) -> tuple[float, str] | None:
        """Seconds of one `train` command and its last-epoch loss, as logged."""
        w = self.workload
        ok, elapsed = self._command(
            [
                "train",
                "--data", str(self.data),
                "--relations", str(self.relations),
                "--out", str(self.checkpoint),
                "--epochs", str(w.epochs),
                "--batch-size", str(w.batch_size),
                "--lr", repr(w.lr),
                "--dropout", repr(w.dropout),
                "--seed", str(self.train_seed),
            ]
        )
        if not ok:
            return None
        lines = Path(f"{self.checkpoint}.log").read_text(encoding="utf-8").splitlines()
        losses = [line.split("\t")[1] for line in lines]
        if len(losses) != w.epochs or not all(math.isfinite(float(v)) for v in losses):
            self._fail(f"loss log has {len(losses)} lines for {w.epochs} epochs or a non-finite loss")
            return None
        return elapsed, losses[-1]

    def eval(self) -> tuple[float, str] | None:
        """Seconds of one `eval` command and the report's exact F1."""
        ok, elapsed = self._command(
            ["eval", "--data", str(self.data), "--checkpoint", str(self.checkpoint), "--out", str(self.report)]
        )
        if not ok:
            return None
        report = dict(
            line.split("=", 1) for line in self.report.read_text(encoding="utf-8").splitlines() if "=" in line
        )
        if int(report["exact.gold"]) != self.gold_triples:
            self._fail(f"exact.gold {report['exact.gold']} != corpus triples {self.gold_triples}")
            return None
        if self.workload.must_fit and float(report["exact.f1"]) != 1.0:
            self._fail(f"exact.f1 {report['exact.f1']} after {self.workload.epochs} epochs, expected 1.0")
            return None
        return elapsed, report["exact.f1"]

    def cycle(self) -> dict | None:
        trained = self.train()
        if trained is None:
            return None
        evals = [self.eval() for _ in range(self.workload.eval_repeats)]
        if None in evals:
            return None
        return {
            "train_s": trained[0],
            "train_loss": trained[1],
            "eval_s": [e[0] for e in evals],
            "exact_f1": [e[1] for e in evals],
        }

    def check_repeatable(self, cycles: list[dict]) -> None:
        """Seeded runs must be bit-identical: same loss and F1 every cycle."""
        losses = {c["train_loss"] for c in cycles}
        scores = {f for c in cycles for f in c["exact_f1"]}
        if len(losses) != 1 or len(scores) != 1:
            self._fail(f"seeded cycles differ: losses {sorted(losses)}, exact_f1 {sorted(scores)}")

    def setup_seconds(self) -> float | None:
        """One fresh interpreter's import + load_checkpoint + load_native."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(self.checkpoint), str(self.data)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=60,
        )
        fields = proc.stdout.split()
        expected = (str(self.workload.sentences), str(SRC / "relgrid" / "__init__.py"))
        if proc.returncode != 0 or tuple(fields[1:]) != expected:
            self._fail(f"set-up probe failed: {proc.stderr.strip()[-200:]}")
            return None
        return float(fields[0])


def run_cycles(runner: Runner, seconds: float) -> list[dict]:
    """Cycles until `seconds` have passed, each followed by set-up probes."""
    cycles = []
    started = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - started < seconds:
        result = runner.cycle()
        if result is None:
            break
        result["setup_s"] = [runner.setup_seconds() for _ in range(SETUP_PROBES)]
        if None in result["setup_s"]:
            break
        cycles.append(result)
    return cycles


def end_to_end(runner: Runner, seconds: float, spec: dict) -> tuple[dict, dict]:
    w = runner.workload
    cycles = run_cycles(runner, seconds)
    if not cycles:
        raise BenchError("; ".join(runner.errors))
    runner.check_repeatable(cycles)
    train_s = [c["train_s"] for c in cycles]
    eval_s = [t for c in cycles for t in c["eval_s"]]
    setup_s = [t for c in cycles for t in c["setup_s"]]
    values = {
        "setup_s": statistics.median(setup_s),
        "train_sent_per_s": w.sentences * w.epochs / statistics.median(train_s),
        "eval_sent_per_s": w.sentences / statistics.median(eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"cycles": len(cycles), "train_s": train_s, "eval_s": eval_s, "setup_s": setup_s}
    return with_units(values, spec["end_to_end"]), quality(cycles) | record


def quality(cycles: list[dict]) -> dict:
    """Model-quality outputs: checked, printed, but not timed metrics."""
    return {"train_loss": cycles[0]["train_loss"], "exact_f1": cycles[0]["exact_f1"][0]}


def per_layer(runner: Runner, seconds: float, spec: dict, spans_path: Path) -> tuple[dict, dict]:
    def timed_cycle(tracer):
        started = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            result = runner.cycle()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if result is None:
            raise BenchError("; ".join(runner.errors))
        cycles.append(result)
        return time.perf_counter() - started

    cycles, untraced, traced, summaries = [], [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(timed_cycle(None))
        tracer = tracing.Tracer()
        traced.append(timed_cycle(tracer))
        summaries.append(tracer.summary())
    memory = tracing.Tracer(memory=True)
    timed_cycle(memory)
    memory.write(spans_path)
    runner.check_repeatable(cycles)

    values = {}
    timing = tracing.median_summary(summaries)
    peaks = memory.summary()
    for name in tracing.FUNCTIONS:
        values[f"{name}.calls"] = timing[name]["calls"]
        values[f"{name}.self_ms"] = timing[name]["self_ms"]
        values[f"{name}.peak_bytes"] = peaks[name]["peak_bytes"]
    cells = tracer.counts.get("scorer.predict_tags.tagged_cells", 0)
    triples = tracer.counts.get("tagging.decode.triples", 0)
    values["scorer.predict_tags.tagged_cells"] = cells
    values["tagging.decode.triples"] = triples
    values["tagging.decode.triples_per_tagged_cell"] = triples / cells if cells else 0.0
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    total_ms = 1000.0 * statistics.median(traced)
    record = {
        "traced_cycles": len(traced),
        "absent": tracer.absent,
        "traced_cycle_ms": total_ms,
        "self_share": {
            name: round(timing[name]["self_ms"] / total_ms, 4)
            for name in tracing.FUNCTIONS
            if timing[name]["calls"]
        },
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return with_units(values, spec["per_layer"]), quality(cycles) | record


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the declared unit to each value; the two sets must agree."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise BenchError(f"measured {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    try:
        spec = read_spec()
        import_program()
        import workloads

        why = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in why or args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(why)}")
        workload = workloads.get(args.workload, toy=args.toy)

        work_root = ROOT / ".bench_work"
        work = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        work.mkdir(parents=True)
        try:
            data, relations, gold = workloads.generate(workload, args.seed, work)
            runner = Runner(workload, workloads.TRAIN_SEED, work, data, relations, gold)
            if args.trace:
                spans = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
                metrics, measured = per_layer(runner, args.seconds, spec, spans)
            else:
                metrics, measured = end_to_end(runner, args.seconds, spec)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2

    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "toy": args.toy,
        "sizes": dataclasses.asdict(workload),
        "gold_triples": gold,
        "environment": environment(),
        "measured": measured,
        "errors": runner.errors,
    }
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"train_loss = {measured['train_loss']} nats/cell (last epoch, checked bit-identical per seed)")
    print(f"exact_f1 = {measured['exact_f1']} ratio" + (" (checked == 1.0)" if workload.must_fit else ""))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
