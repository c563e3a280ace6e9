"""Benchmark of the emdscalp command chain on deterministic synthetic inputs.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

* ``paper_cohort``: the cold chain prepare -> train-eval (all64, mi21,
  feat21) -> select-channels -> emd -> report on one paper-shaped subject.
* ``wide_cohort``: the same chain on eight short single-run subjects.
* ``emd_scoring``: only ``emd``, on generated maps of three shapes.  Not
  declared in BENCHMARK.json (its run-to-run spread is too wide, see
  bench/README.md) but kept for work on the transport layer.

Inputs are generated from ``--seed``; the program sees only the files.  A
child process (bench/worker.py) runs the passes.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` each
untraced pass is followed by a traced one and the line carries the
per-layer metrics.  Every pass's outputs are checked against oracles.  A
full record with run metadata is written under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gen
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Every run must end within this many seconds of wall time.
RUN_LIMIT_S = 170.0
#: Fresh interpreters started per run, besides the worker, to time start-up.
SETUP_PROBES = 2
#: BLAS threads of the child processes.  On a shared 2-core machine one
#: thread was faster than two for these 21-64 channel matrices, and paper
#: pass times spread 9% across seeds instead of 13%.
BLAS_THREADS = 1

CONFIGS = ("all64", "mi21", "feat21")

#: Per-stage metrics, from the untraced passes of a traced run.
STAGE_METRICS = (
    ("prepare_s", "s", "lower"),
    ("train_eval_s", "s", "lower"),
    ("select_channels_s", "s", "lower"),
    ("emd_pairs_per_s", "1/s", "higher"),
    ("cache_mb_per_subject", "MB", "lower"),
    ("spdgeom.clamped_eigenvalues", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Cohort:
    n_subjects: int
    runs: tuple[int, ...]
    n_trials: int
    n_channels: int
    test_fraction: float


@dataclass(frozen=True)
class Scoring:
    n_binary: int   # top-21 maps vs the built-in baseline (21 <-> 21)
    n_cohorts: int  # cohort files: one binary and one weighted pair each
    n_models: int   # 64-electrode maps vs a 64-electrode baseline map
    n_dense: int    # full-grid maps vs a full-grid baseline (121 <-> 121)

    @property
    def pairs(self) -> int:
        return self.n_binary + 2 * self.n_cohorts + self.n_models + self.n_dense


SIZES = {
    "full": {
        "paper_cohort": Cohort(1, gen.PAPER_RUNS, 15, 64, 0.2),
        "wide_cohort": Cohort(8, (4,), 15, 64, 0.5),
        "emd_scoring": Scoring(60, 12, 12, 4),
    },
    # For the benchmark's own tests: every code path, a few seconds each.
    "smoke": {
        "paper_cohort": Cohort(1, (3, 4), 4, 24, 0.2),
        "wide_cohort": Cohort(5, (4,), 6, 24, 0.5),
        "emd_scoring": Scoring(3, 2, 2, 1),
    },
}
WORKLOADS = tuple(SIZES["full"])


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Checks:
    """Counts attempted operations and records the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def guarded(self, what: str, fn, *args) -> None:
        """Run a group of checks; unreadable output counts as one failure."""
        try:
            fn(self, *args)
        except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            self.expect(False, f"{what}: {type(exc).__name__}: {exc}")


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# workload set-up: inputs, command sequences and expected answers

def _config_text(data: Path, w: Cohort, seed: int, channel_config: str, out: str) -> str:
    return "\n".join([
        "version = 1",
        f"dataset_root = {data}",
        "subjects = " + ",".join(str(s + 1) for s in range(w.n_subjects)),
        "runs = " + ",".join(str(r) for r in w.runs),
        f"channel_config = {channel_config}",
        f"seed = {seed}",
        f"test_fraction = {w.test_fraction}",
        "cache_dir = cache",
        f"output_dir = out/{out}",
    ]) + "\n"


def setup_cohort(w: Cohort, seed: int, inputs: Path) -> dict:
    data = inputs / "data"
    specs = gen.write_cohort(data, seed, w.n_subjects, w.runs, w.n_trials, w.n_channels)
    configs = {c: _config_text(data, w, seed, c, c) for c in CONFIGS}
    configs["select"] = _config_text(data, w, seed, "all64", "select")
    out = "{pass}/out"
    commands = [{"stage": "prepare", "argv": ["prepare", "--config", "{pass}/all64.cfg"]}]
    commands += [{"stage": "train_eval", "argv": ["train-eval", "--config", f"{{pass}}/{c}.cfg"]}
                 for c in CONFIGS]
    commands += [
        {"stage": "select_channels", "argv": ["select-channels", "--config", "{pass}/select.cfg"]},
        {"stage": "emd", "argv": [
            "emd", "--config", "{pass}/all64.cfg", "--output-dir", f"{out}/emd",
            "--cohorts", f"select={out}/select/cohort_riemannian.json",
            f"feat21={out}/feat21/cohort_riemannian.json",
            "--maps", f"feat21_top21={out}/feat21/map_riemannian_binary_top21.csv",
            f"feat21_counts={out}/feat21/map_riemannian_weighted_counts.csv"]},
        {"stage": "report", "argv": [
            "report", "--config", "{pass}/all64.cfg", "--output-dir", f"{out}/report",
            "--rows", *(f"{out}/{c}/rows.csv" for c in CONFIGS)]},
    ]
    return {"configs": configs, "commands": commands, "subjects": specs, "pairs": 6}


def setup_scoring(w: Scoring, seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    maps = inputs / "maps"
    maps.mkdir(parents=True)
    expected: dict[str, dict[str, tuple]] = {"builtin": {}, "model": {}, "dense": {}}

    def put(name: str, mass) -> str:
        path = maps / f"{name}.csv"
        path.write_text(gen.grid_text(mass), encoding="utf-8")
        return str(path)

    base = gen.binary_mass(gen.BASELINE)
    builtin = ["emd", "--output-dir", "{pass}/out/builtin", "--maps"]
    for i in range(w.n_binary):
        mass = gen.binary_mass(gen.random_top21(rng))
        builtin.append(f"bin_{i:02d}={put(f'bin_{i:02d}', mass)}")
        expected["builtin"][f"bin_{i:02d}"] = (oracle.emd(mass, base), None)
    builtin.append("--cohorts")
    for i in range(w.n_cohorts):
        doc = gen.random_cohort(rng, int(rng.integers(5, 21)))
        path = inputs / "cohorts" / f"coh_{i:02d}.json"
        gen.write_json(path, doc)
        builtin.append(f"coh_{i:02d}={path}")
        top, counts = oracle.cohort_maps(doc["counts"])
        expected["builtin"][f"coh_{i:02d}"] = (oracle.emd(top, base), oracle.emd(counts, base))

    model_base = gen.model_weights(rng)
    model = ["emd", "--output-dir", "{pass}/out/model",
             "--baseline-map", put("model_base", model_base), "--maps"]
    for i in range(w.n_models):
        mass = gen.model_weights(rng)
        model.append(f"model_{i:02d}={put(f'model_{i:02d}', mass)}")
        expected["model"][f"model_{i:02d}"] = (oracle.emd(mass, model_base), None)

    dense_base = gen.dense_mass(rng)
    dense = ["emd", "--output-dir", "{pass}/out/dense", "--mass", "normalized",
             "--baseline-map", put("dense_base", dense_base), "--maps"]
    for i in range(w.n_dense):
        mass = gen.dense_mass(rng)
        dense.append(f"dense_{i:02d}={put(f'dense_{i:02d}', mass)}")
        expected["dense"][f"dense_{i:02d}"] = (oracle.emd(mass, dense_base, "normalized"), None)

    commands = [{"stage": "emd", "argv": argv} for argv in (builtin, model, dense)]
    return {"configs": {}, "commands": commands, "expected_emd": expected, "pairs": w.pairs}


# ---------------------------------------------------------------------------
# output checks

def _check_emd_table(checks: Checks, table_path: Path, expected: dict[str, tuple]) -> None:
    got = {row["model"]: row for row in _load_json(table_path)}
    for model, (want_b, want_w) in sorted(expected.items()):
        row = got.get(model, {})
        checks.expect(oracle.close(row.get("emd_binary"), want_b, oracle.EMD_RTOL),
                      f"{table_path}: {model} emd_binary {row.get('emd_binary')} != {want_b}")
        if want_w is not None:
            checks.expect(oracle.close(row.get("emd_weighted"), want_w, oracle.EMD_RTOL),
                          f"{table_path}: {model} emd_weighted {row.get('emd_weighted')} != {want_w}")


def _cohort_emd_expected(out: Path) -> dict[str, tuple]:
    base = gen.binary_mass(gen.BASELINE)
    expected = {}
    for name, path in (("select", out / "select" / "cohort_riemannian.json"),
                       ("feat21", out / "feat21" / "cohort_riemannian.json")):
        top, counts = oracle.cohort_maps(_load_json(path)["counts"])
        expected[name] = (oracle.emd(top, base), oracle.emd(counts, base))
    for name, fname in (("feat21_top21", "map_riemannian_binary_top21.csv"),
                        ("feat21_counts", "map_riemannian_weighted_counts.csv")):
        expected[name] = (oracle.emd(oracle.read_map(out / "feat21" / fname), base), None)
    return expected


def _check_rows(checks: Checks, out: Path, record: dict, subjects: list[int]) -> None:
    results = [c["result"] for c in record["commands"] if c["stage"] == "train_eval"]
    for config, result in zip(CONFIGS, results):
        failed = set((result or {}).get("failed_subjects", ["<no summary>"]))
        rows = {r["subject"] for r in _load_json(out / config / "rows.json")}
        for s in subjects:
            checks.expect(s in rows and f"S{s:03d}" not in failed,
                          f"{config}: no row for subject {s} (failed: {sorted(failed)})")


def _check_planted(checks: Checks, out: Path, specs) -> None:
    selections = _load_json(out / "select" / "cohort_riemannian.json")["selections"]
    for spec in specs:
        chosen = set(selections.get(f"S{spec.subject:03d}", []))
        checks.expect(set(spec.planted) <= chosen,
                      f"subject {spec.subject}: planted {spec.planted} not all in {sorted(chosen)}")


def _check_pvalues(checks: Checks, out: Path) -> None:
    overall = {c: {r["subject"]: r["overall"] for r in _load_json(out / c / "rows.json")}
               for c in CONFIGS}
    pvalues = _load_json(out / "report" / "report.json")["pvalues"]
    for c1 in CONFIGS:
        for c2 in CONFIGS:
            if c1 == c2:
                continue
            subjects = sorted(set(overall[c1]) & set(overall[c2]))
            want = oracle.wilcoxon_p([overall[c1][s] for s in subjects],
                                     [overall[c2][s] for s in subjects])
            got = pvalues[c1][c2]
            checks.expect(oracle.isclose_p(got, want), f"p-value {c1} vs {c2}: {got} != {want}")


def cohort_files(subjects: list[int]) -> list[str]:
    files = [f"{c}/rows.{ext}" for c in CONFIGS for ext in ("csv", "json")]
    files += ["feat21/cohort_riemannian.json", "feat21/map_riemannian_binary_top21.csv",
              "feat21/map_riemannian_weighted_counts.csv", "select/cohort_riemannian.json",
              "emd/emd_table.csv", "emd/emd_table.json",
              "report/table.csv", "report/pvalues.csv", "report/report.json"]
    files += [f"{d}/trace_S{s:03d}.json" for d in ("feat21", "select") for s in subjects]
    return files


def check_pass(checks: Checks, record: dict, setup: dict) -> None:
    out = Path(record["dir"]) / "out"
    for cmd in record["commands"]:
        checks.expect(cmd["rc"] == 0, f"{cmd['stage']} exited {cmd['rc']}: {cmd['stderr']}")
    if "expected_emd" in setup:
        files = [f"{d}/emd_table.{ext}" for d in setup["expected_emd"] for ext in ("csv", "json")]
    else:
        files = cohort_files([s.subject for s in setup["subjects"]])
    for rel in files:
        path = out / rel
        checks.expect(path.is_file() and path.stat().st_size > 0, f"missing output {rel}")
    if "expected_emd" in setup:
        for name, expected in setup["expected_emd"].items():
            checks.guarded(f"emd {name}", _check_emd_table, out / name / "emd_table.json", expected)
        return
    subjects = [s.subject for s in setup["subjects"]]
    checks.guarded("rows", _check_rows, out, record, subjects)
    checks.guarded("planted channels", _check_planted, out, setup["subjects"])
    checks.guarded("emd", lambda c: _check_emd_table(c, out / "emd" / "emd_table.json",
                                                     _cohort_emd_expected(out)))
    checks.guarded("p-values", _check_pvalues, out)


def _digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_identical(checks: Checks, passes: list[dict]) -> None:
    """Outputs of every pass must match the first pass byte for byte."""
    first = _digests(Path(passes[0]["dir"]) / "out")
    for record in passes[1:]:
        digests = _digests(Path(record["dir"]) / "out")
        differ = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
        checks.expect(not differ, f"{record['dir']} differs from the first pass in {differ[:5]}")


# ---------------------------------------------------------------------------
# running

def blas_env() -> tuple[dict[str, str], int]:
    """Environment for child processes with BLAS threads capped at nproc."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    env.update({var: str(threads) for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env, threads


def _child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "emdscalp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout: rely on source_digest
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def stage_metrics(passes: list[dict], setup: dict) -> dict[str, dict]:
    """Per-stage medians over untraced passes; train-eval is summed per pass."""
    n = len(passes)
    subjects = len(setup.get("subjects", ())) or 1
    stage = {k: [p["stages"].get(k, 0.0) for p in passes]
             for k in ("prepare", "train_eval", "select_channels", "emd")}
    out = {
        "prepare_s": _median(stage["prepare"]),
        "train_eval_s": _median(stage["train_eval"]),
        "select_channels_s": _median(stage["select_channels"]),
        "emd_pairs_per_s": _median([setup["pairs"] / t for t in stage["emd"] if t > 0]),
        "cache_mb_per_subject": _median([p["cache_bytes"] / 1e6 / subjects for p in passes]),
    }
    units = {name: unit for name, unit, _ in STAGE_METRICS}
    return {k: _metric(v, units[k], n) for k, v in out.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", tamper=None) -> dict:
    """One run; returns the result line plus the full record.

    `tamper`, if given, is called with the list of pass directories after
    the passes and before the checks (used by the benchmark's own tests).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "emdscalp" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}")
    params = SIZES[size][workload]
    run_dir = WORK / f"{workload}-{size}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    env, threads = blas_env()
    try:
        t0 = time.perf_counter()
        setup = (setup_cohort if isinstance(params, Cohort) else setup_scoring)(
            params, seed, run_dir / "inputs")
        input_s = time.perf_counter() - t0

        probes = []
        if not trace:
            for _ in range(SETUP_PROBES):
                proc = _child([str(BENCH / "worker.py"), "--probe", str(SRC)], env, deadline)
                probes.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])

        trace_out = WORK / "traces" / f"{run_dir.name}.json"
        spec = {
            "src": str(SRC), "pass_root": str(run_dir / "passes"),
            "configs": setup["configs"], "commands": setup["commands"],
            "seconds": seconds, "traced": trace, "trace_out": str(trace_out),
            "result": str(run_dir / "worker.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        _child([str(BENCH / "worker.py"), str(spec_path)], env, deadline)
        worker = _load_json(run_dir / "worker.json")
        passes = worker["passes"]
        setups = probes + [worker["import_s"]]
        if tamper is not None:
            tamper([Path(p["dir"]) for p in passes])

        checks = Checks()
        for record in passes:
            check_pass(checks, record, setup)
        check_identical(checks, passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    stages = stage_metrics(untraced, setup)
    stages["spdgeom.clamped_eigenvalues"] = _metric(
        _median([p["clamped_eigenvalues"] for p in passes]), "count", len(passes))
    untraced_run = _median([p["run_s"] for p in untraced])
    if trace:
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        layers = {name: _metric(_median([p["layers"].get(name, 0.0) for p in traced]),
                                units.get(name, "s"), len(traced))
                  for name in sorted({k for p in traced for k in p["layers"]})}
        stages["trace_overhead_s"] = _metric(
            _median([p["run_s"] for p in traced]) - untraced_run, "s", len(traced))
        metrics = layers | stages
        declared = [name for name, _, _ in tracing.LAYER_METRICS + STAGE_METRICS]
    else:
        metrics = {
            "setup_s": _metric(_median(setups), "s", len(setups)),
            "run_s": _metric(untraced_run, "s", len(untraced)),
            "peak_rss_mb": _metric(worker["peak_rss_mb"], "MB", 1),
        }
        declared = list(metrics)
    line = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in declared},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "metadata": {
            "nproc": os.cpu_count(), "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "subjects": [vars(s) for s in setup.get("subjects", ())],
        "input_s": input_s,
        "passes": [{"traced": p["traced"], "run_s": p["run_s"], "stages": p["stages"]}
                   for p in passes],
        "error_rate": len(checks.failures) / checks.attempted,
        "failures": checks.failures,
        "metrics": metrics,
        "stages": stages,
    }
    (WORK / "results" / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"line": line, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record = result["record"]
    print(f"{args.workload} seed={args.seed} passes={len(record['passes'])} "
          f"error_rate={record['error_rate']:.4f}")
    for name, m in (record["metrics"] | record["stages"]).items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure[:300]}")
    print(json.dumps(result["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
