"""Smoke tests of tools/same_bytes.py on one small cohort.

Run from the repository root: ``python -m pytest tools/test_tools.py``
(a git checkout with a HEAD commit; not part of the tier-1 suite).
"""
from __future__ import annotations

import io
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def head_src(dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD", "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def same_bytes(src: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "same_bytes.py"),
                           "--against", "HEAD", "--src", str(src), "--size", "smoke",
                           "--cohort", "wide_cohort:5"],
                          capture_output=True, text=True, timeout=600)


def test_a_tree_against_itself_reports_nothing(tmp_path):
    proc = same_bytes(head_src(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("same bytes as HEAD: ")
    assert len(proc.stdout.splitlines()) == 1


def test_another_shrinkage_default_reports_the_files_it_changes(tmp_path):
    src = head_src(tmp_path)
    cli = src / "emdscalp" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("    shrinkage: float = 0.05\n") == 1
    cli.write_text(text.replace("    shrinkage: float = 0.05\n", "    shrinkage: float = 0.1\n"),
                   encoding="utf-8")
    proc = same_bytes(src)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for threads in (1, 2):
        where = f"wide_cohort seed 5, {threads} BLAS thread(s): "
        # shrinkage is applied on reading the cache: the classifier's files and
        # the memo change, the unshrunk epoch cache does not
        changed = {line.removeprefix(where) for line in lines if line.startswith(where)}
        assert {"out/feat21/rows.csv differs", "out/feat21/trace_S001.json differs",
                "out/select/trace_S001.json differs", "cache/S001/derived/ differs"} <= changed
        assert not any("epochs.npy" in line or "index.json" in line for line in changed)
    assert lines[-1] == f"{len(lines) - 1} differences or failures against HEAD"
