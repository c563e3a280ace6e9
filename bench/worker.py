"""Child process that runs the timed passes of one benchmark run.

Usage: ``python3 bench/worker.py SPEC.json`` runs the passes the spec lists
and writes their timings and command results to the spec's
``result`` path.  ``python3 bench/worker.py --probe SRC`` only times the
program's start-up (import plus first layout load) and prints it.

Passes run in this process, apart from the benchmark's own set-up and
checks, so that its peak resident memory is that of the program.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def start_program(src: str):
    """Import the CLI from `src` and load the default layout; return (cli, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from emdscalp import cli, montage
    montage.default_layout()
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {src}")
    return cli, elapsed


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_pass(cli, spec: dict, index: int) -> dict:
    """One cold pass of the command sequence in a fresh directory."""
    from emdscalp import spdgeom

    pass_dir = Path(spec["pass_root"]) / f"pass-{index:02d}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    for name, text in spec["configs"].items():
        (pass_dir / f"{name}.cfg").write_text(text, encoding="utf-8")
    clamped = spdgeom.clamped_eigenvalue_count()
    stages: dict[str, float] = {}
    commands = []
    t_pass = time.perf_counter()
    for cmd in spec["commands"]:
        argv = [a.replace("{pass}", str(pass_dir)) for a in cmd["argv"]]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        stages[cmd["stage"]] = stages.get(cmd["stage"], 0.0) + time.perf_counter() - t0
        commands.append({"stage": cmd["stage"], "rc": rc, "result": _last_json(out.getvalue()),
                         "stderr": err.getvalue()[-2000:]})
    run_s = time.perf_counter() - t_pass
    cache = pass_dir / "cache"
    cache_bytes = _tree_bytes(cache) if cache.exists() else 0
    shutil.rmtree(cache, ignore_errors=True)
    return {
        "dir": str(pass_dir),
        "run_s": run_s,
        "stages": stages,
        "commands": commands,
        "cache_bytes": cache_bytes,
        "clamped_eigenvalues": spdgeom.clamped_eigenvalue_count() - clamped,
    }


def _epochs_and_subjects(record: dict) -> tuple[int, int]:
    for cmd in record["commands"]:
        if cmd["stage"] == "prepare" and isinstance(cmd["result"], dict):
            cached = cmd["result"].get("cached", {})
            return sum(cached.values()), len(cached)
    return 0, 0


def run_passes(spec: dict) -> dict:
    cli, import_s = start_program(spec["src"])
    tracer = None
    if spec["traced"]:
        import tracing
        tracer = tracing.Tracer()
    passes = []
    t_start = time.perf_counter()
    rounds = 0
    # Passes repeat until the next round would overrun the measuring time.
    # A traced round is an untraced pass followed by a traced one, so the two
    # give the tracing overhead and can be compared byte for byte.
    while True:
        passes.append(run_pass(cli, spec, len(passes)) | {"traced": False})
        if tracer is not None:
            lo = len(tracer.spans)
            tracer.install()
            try:
                record = run_pass(cli, spec, len(passes))
            finally:
                tracer.uninstall()
            spans = [s[:3] + [s[3] - lo if s[3] >= 0 else -1] + s[4:]
                     for s in tracer.spans[lo:]]
            record["layers"] = tracing.layer_metrics(spans, *_epochs_and_subjects(record))
            passes.append(record | {"traced": True})
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > spec["seconds"]:
            break
    if tracer is not None:
        Path(spec["trace_out"]).write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "note"],
            "spans": tracer.spans,
        }), encoding="utf-8")
    return {
        "import_s": import_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--probe":
        print(json.dumps({"import_s": start_program(argv[1])[1]}))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run_passes(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
