"""Check that the package's source tree writes the same bytes as a revision's.

Usage: python tools/same_bytes.py --against REV [--src DIR] [--size full|smoke]
                                  [--cohort WORKLOAD:SEED ...]

Exports REV's `src/` with `git archive` and generates each cohort's inputs once,
through `bench/run.py`'s `setup_cohort` (imported, not changed).  Runs the
benchmark's whole command chain on both trees, each command as its own
`python -m emdscalp.cli` process, under 1 and then 2 BLAS threads.  Compares
each command's exit status, the sha256 of every file under `out/` and the epoch
cache, and each memo directory's contents by sorted digest, since memo file
names are content keys whose inputs may reorder.  Prints each file that differs
and exits 1 on any difference, 0 when every byte is the same.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_COHORTS = ("paper_cohort:3", "wide_cohort:5", "wide_cohort:7")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bench():
    sys.dont_write_bytecode = True  # leave no file under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    return run


def export_src(rev: str, dest: Path) -> Path:
    """REV's `src/` directory, extracted under `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def run_chain(src: Path, setup: dict, pass_dir: Path, threads: int) -> list[int]:
    """Each command of `setup` in its own process on the package in `src`; their exit codes."""
    pass_dir.mkdir(parents=True)
    for name, text in setup["configs"].items():
        (pass_dir / f"{name}.cfg").write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(BLAS_VARS, str(threads)))
    return [subprocess.run([sys.executable, "-m", "emdscalp.cli",
                            *(a.replace("{pass}", str(pass_dir)) for a in cmd["argv"])],
                           env=env, cwd=pass_dir, capture_output=True).returncode
            for cmd in setup["commands"]]


def digests(pass_dir: Path) -> dict[str, object]:
    """sha256 of each file under `out/` and `cache/` by relative path; for each
    memo directory, the sorted digests of its files."""
    found: dict[str, object] = {}
    for path in sorted(p for top in ("out", "cache") for p in (pass_dir / top).rglob("*")
                       if p.is_file()):
        rel, digest = path.relative_to(pass_dir), hashlib.sha256(path.read_bytes()).hexdigest()
        if rel.parent.name == "derived":
            found.setdefault(f"{rel.parent}/", []).append(digest)
        else:
            found[str(rel)] = digest
    return {k: sorted(v) if isinstance(v, list) else v for k, v in found.items()}


def compare(revision: dict[str, object], tree: dict[str, object]) -> list[str]:
    """A line for each name whose content differs or that one side lacks."""
    return [f"{name} differs" if name in revision and name in tree else
            f"{name} is only in the {'revision' if name in revision else 'tree'}"
            for name in sorted(revision.keys() | tree.keys())
            if revision.get(name) != tree.get(name)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="revision to compare with")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the emdscalp package to check (default: src)")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="cohort size from bench/run.py's SIZES (default: full)")
    parser.add_argument("--cohort", action="append", metavar="WORKLOAD:SEED",
                        help=f"cohort to run, repeatable (default: {' '.join(DEFAULT_COHORTS)})")
    args = parser.parse_args(argv)
    run = _bench()
    cohorts = [(w, int(s)) for w, s in (c.split(":") for c in args.cohort or DEFAULT_COHORTS)]
    problems, files = 0, 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        trees = {"revision": export_src(args.against, work / "revision"),
                 "tree": args.src.resolve()}
        for workload, seed in cohorts:
            inputs = work / "inputs" / f"{workload}-{seed}"
            setup = run.setup_cohort(run.SIZES[args.size][workload], seed, inputs)
            for threads in (1, 2):
                where = f"{workload} seed {seed}, {threads} BLAS thread(s)"
                seen = {}
                for side, src in trees.items():
                    pass_dir = work / side / f"{workload}-{seed}-{threads}t"
                    codes = run_chain(src, setup, pass_dir, threads)
                    for cmd, code in zip(setup["commands"], codes):
                        if code != 0:  # an empty chain would compare equal
                            problems += 1
                            print(f"{where}: {cmd['argv'][0]} exits {code} in the {side}")
                    seen[side] = digests(pass_dir)
                files += len(seen["tree"])
                for line in compare(seen["revision"], seen["tree"]):
                    problems += 1
                    print(f"{where}: {line}")
    if problems:
        print(f"{problems} differences or failures against {args.against}")
        return 1
    print(f"same bytes as {args.against}: {files} files and memo directories compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
