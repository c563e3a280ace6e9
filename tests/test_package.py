import ast
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emdscalp
from emdscalp import cli, montage, relevance

from helpers import make_motor_recording, recording_to_edf

MODULES = [emdscalp, *(importlib.import_module(f"emdscalp.{info.name}")
                       for info in pkgutil.iter_modules(emdscalp.__path__))]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)] == []


#: Run in a fresh interpreter (pytest itself has scipy loaded): run
#: ``cli.main`` on the arguments when there are any, then print the scipy
#: modules that are loaded.
_LOADED_SCIPY = """
import json, sys
import emdscalp.cli
emdscalp.montage.default_layout()
if sys.argv[1:]:
    assert emdscalp.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_fresh(code: str, *argv: str, env: dict[str, str] | None = None,
              cpus: set[int] | None = None):
    """Run `code` with `argv` in a fresh interpreter that imports this
    package, with `env` added to the environment and, if given, its CPU
    affinity set to `cpus`; return the JSON value on its last line of
    output."""
    src = str(Path(emdscalp.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True, preexec_fn=pin)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_scipy(*argv: str) -> list[str]:
    return run_fresh(_LOADED_SCIPY, *argv)


def test_import_loads_no_scipy():
    assert loaded_scipy() == []


def test_report_and_emd_load_no_scipy(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("subject,channel_config,chance,overall\n" + "".join(
        f"{s},{c},0.5,{0.6 + 0.01 * s + (c == 'all64') * 0.001 * s}\n"
        for s in range(1, 7) for c in ("all64", "mi21")))
    out = str(tmp_path / "out")
    assert loaded_scipy("report", "--rows", str(rows), "--output-dir", out) == []
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pvalues"]["all64"]["mi21"] is not None  # the signed-rank test ran

    layout = montage.default_layout()
    shifted = montage.SpatialMap(layout.n, np.roll(relevance.mi_baseline(layout).mass, 1, axis=0))
    montage.save_spatial_map(shifted, tmp_path / "m.csv")
    assert loaded_scipy("emd", "--maps", f"m={tmp_path / 'm.csv'}", "--output-dir", out) == []
    assert json.loads((tmp_path / "out" / "emd_table.json").read_text())[0]["emd_binary"] > 0


@pytest.mark.parametrize("command", ["all64", "mi21", "feat21", "select-channels"])
def test_training_commands_load_no_scipy(tmp_path, rng, command):
    # 21 baseline channels for mi21 and three more for feat21's elimination
    names = [*relevance.MI_BASELINE_CHANNELS, "F3", "Fz", "F4"]
    (tmp_path / "data" / "S001").mkdir(parents=True)
    for run in (3, 4):
        rec = make_motor_recording(rng, names, n_trials=8, discriminative=(8, 12))
        recording_to_edf(tmp_path / "data" / "S001" / f"S001R{run:02d}.edf", rec)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("version = 1\ndataset_root = data\nsubjects = 1\nruns = 3,4\n"
                   f"channel_config = {'feat21' if command == 'select-channels' else command}\n"
                   "cache_dir = cache\noutput_dir = out\n")
    assert cli.main(["prepare", "--config", str(cfg)]) == 0
    argv = ["train-eval", "--config", str(cfg)]
    if command == "select-channels":
        # centroids from the memo, the elimination computed afresh
        assert cli.main(argv) == 0
        traces = list((tmp_path / "cache" / "S001" / "derived").glob("trace-*.json"))
        assert len(traces) == 1
        traces[0].unlink()
        argv[0] = command
    assert loaded_scipy(*argv) == []
    assert (tmp_path / "out" / ("trace_S001.json" if command == "select-channels"
                                else "rows.csv")).exists()


#: Run in a fresh interpreter with scipy blocked: the whole command chain on
#: the configs in the directory ``sys.argv[1]``; print the return codes.
_CHAIN_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import emdscalp.cli
run = sys.argv[1]
out = run + "/out"
chain = [["prepare", "--config", run + "/all64.cfg"]]
chain += [["train-eval", "--config", f"{run}/{c}.cfg"] for c in ("all64", "mi21", "feat21")]
chain += [
    ["select-channels", "--config", run + "/select.cfg"],
    ["emd", "--config", run + "/all64.cfg", "--output-dir", out + "/emd",
     "--cohorts", f"select={out}/select/cohort_riemannian.json",
     f"feat21={out}/feat21/cohort_riemannian.json",
     "--maps", f"top21={out}/feat21/map_riemannian_binary_top21.csv"],
    ["report", "--config", run + "/all64.cfg", "--output-dir", out + "/report",
     "--rows", *(f"{out}/{c}/rows.csv" for c in ("all64", "mi21", "feat21"))],
]
print(json.dumps([emdscalp.cli.main(argv) for argv in chain]))
"""


def chain_digests(tmp_path: Path, rng, names: list[str], runs: dict[str, set[int] | None]
                  ) -> dict[str, dict[str, str]]:
    """Run `_CHAIN_WITHOUT_SCIPY` once per entry of `runs` (name: CPU set or
    None) on one shared two-run subject; return each run's sha256 digests of
    every file it wrote (cache, memo and outputs)."""
    data = tmp_path / "data"
    (data / "S001").mkdir(parents=True)
    for run in (3, 4):
        rec = make_motor_recording(rng, names, n_trials=8, discriminative=(8, 12))
        recording_to_edf(data / "S001" / f"S001R{run:02d}.edf", rec)
    digests = {}
    for name, cpus in runs.items():
        run_dir = tmp_path / name
        run_dir.mkdir()
        for cfg, config in (("all64", "all64"), ("mi21", "mi21"), ("feat21", "feat21"),
                            ("select", "feat21")):
            (run_dir / f"{cfg}.cfg").write_text(
                f"version = 1\ndataset_root = {data}\nsubjects = 1\nruns = 3,4\n"
                f"channel_config = {config}\ncache_dir = cache\noutput_dir = out/{cfg}\n")
        assert run_fresh(_CHAIN_WITHOUT_SCIPY, str(run_dir), cpus=cpus) == [0] * 7
        digests[name] = {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(run_dir.rglob("*")) if p.is_file()}
    return digests


def test_whole_chain_runs_without_scipy(tmp_path, rng):
    names = [*relevance.MI_BASELINE_CHANNELS, "F3", "Fz", "F4"]
    files = chain_digests(tmp_path, rng, names, {"run": None})["run"]
    assert {"out/emd/emd_table.json", "out/report/report.json",
            "out/select/trace_S001.json", "cache/S001/epochs.npy"} <= set(files)
    assert len([f for f in files if f.startswith("cache/S001/derived/model-")]) == 3
    assert not [f for f in files if f.startswith("cache/S001/derived/centroid-")]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin")
def test_chain_is_byte_identical_on_one_and_two_cpus(tmp_path, rng):
    # one CPU fits the class means one after the other, two side by side
    names = [*relevance.MI_BASELINE_CHANNELS, "F3", "Fz", "F4"]
    cpus = sorted(os.sched_getaffinity(0))[:2]
    digests = chain_digests(tmp_path, rng, names, {"one": set(cpus[:1]), "two": set(cpus)})
    assert len(digests["one"]) > 20
    assert digests["one"] == digests["two"]


def test_prepare_loads_no_scipy(tmp_path, rng):
    (tmp_path / "data" / "S001").mkdir(parents=True)
    rec = make_motor_recording(rng, ["Fc5.", "C3..", "C4..", "Cz.."], n_trials=8)
    recording_to_edf(tmp_path / "data" / "S001" / "S001R03.edf", rec)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("version = 1\ndataset_root = data\nsubjects = 1\nruns = 3\n"
                   "cache_dir = cache\noutput_dir = out\n")
    assert loaded_scipy("prepare", "--config", str(cfg)) == []
    assert (tmp_path / "cache" / "S001" / "epochs.npy").exists()


def test_prepare_is_byte_identical_across_blas_thread_counts(tmp_path, rng):
    # 64 channels: the filter's block products, the covariances and the
    # elimination's whitened pencils are large enough for OpenBLAS to split
    # them over two threads
    (tmp_path / "data" / "S001").mkdir(parents=True)
    rec = make_motor_recording(rng, [f"Ch{i}" for i in range(64)], n_trials=4)
    recording_to_edf(tmp_path / "data" / "S001" / "S001R03.edf", rec)
    digests = []
    for threads in ("1", "2"):
        cfg = tmp_path / f"exp{threads}.cfg"
        cfg.write_text(f"version = 1\ndataset_root = data\nsubjects = 1\nruns = 3\n"
                       f"cache_dir = cache{threads}\noutput_dir = out{threads}\n")
        assert run_fresh("import json, sys, emdscalp.cli; print(json.dumps([emdscalp.cli.main("
                         "[command, '--config', sys.argv[1]]) for command in "
                         "('prepare', 'select-channels')]))",
                         str(cfg), env={"OPENBLAS_NUM_THREADS": threads}) == [0, 0]
        digests.append([hashlib.sha256(path.read_bytes()).hexdigest() for path in (
            tmp_path / f"cache{threads}" / "S001" / "epochs.npy",
            tmp_path / f"out{threads}" / "trace_S001.json")])
    assert digests[0] == digests[1]


def test_import_loads_no_network_or_mail_modules():
    # xml.sax.saxutils would pull these in: about 30 ms of every command's start-up
    assert run_fresh("import json, sys, emdscalp.cli; print(json.dumps([m for m in "
                     "('urllib.request', 'http.client', 'email.parser', 'ssl') "
                     "if m in sys.modules]))") == []



def _called(node: ast.AST) -> str:
    return ast.unparse(node.func) if isinstance(node, ast.Call) else ""


def _writes(node: ast.AST) -> bool:
    """Whether `node` imports ``tempfile`` or calls something that creates,
    replaces or renames a file or makes a directory."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "tempfile" in ast.unparse(node)
    name = _called(node)
    if name == "open" or name.endswith(".open") and name != "os.open":
        mode = node.args[1:2] if name == "open" else node.args[:1]
        mode += [k.value for k in node.keywords if k.arg == "mode"]
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in mode)
    return (name in ("os.open", "os.replace", "os.rename", "np.save")
            or name.split(".")[-1] in ("write_text", "write_bytes", "mkdir"))


def test_one_function_writes_files():
    # every file appears whole or not at all because only montage._write_file
    # writes one, to a temporary file that it renames into place
    found = []
    for path in sorted(Path(emdscalp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_write_file":
                allowed |= set(ast.walk(node))
            elif _called(node).endswith("_write_file"):  # np.save into its file object
                allowed |= {n for arg in node.args[1:] for n in ast.walk(arg)
                            if _called(n) == "np.save"}
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if node not in allowed and _writes(node)]
    assert found == []


def _reports(node: ast.AST) -> bool:
    """Whether `node` imports ``logging`` or ``warnings``, calls ``print`` or
    names ``sys.stdout`` or ``sys.stderr``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        return any(m.split(".")[0] in ("logging", "warnings") for m in modules)
    return _called(node) == "print" or (isinstance(node, ast.Attribute)
                                        and ast.unparse(node) in ("sys.stdout", "sys.stderr"))


def test_only_cli_reports():
    # a command's stdout is its JSON summary and its stderr JSON lines, so
    # what the library finds (a skipped trial, a failed subject) travels in
    # return values and cli alone writes it out
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in sorted(Path(emdscalp.__file__).parent.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _reports(node)]
    assert found == []


def _outside_functions(node: ast.AST):
    """The nodes under `node` that no function or lambda encloses."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def _binds_shared_state(node: ast.AST) -> bool:
    """Whether `node` assigns the integer 0 or a call whose name ends in
    ``Lock``, ``Semaphore``, ``Condition``, ``Event`` or ``count``
    (``itertools.count()``)."""
    value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
    return (isinstance(value, ast.Constant) and type(value.value) is int and value.value == 0
            or _called(value).endswith(("Lock", "Semaphore", "Condition", "Event", "count")))


def test_no_module_state():
    # shared mutable module state (a counter starting at 0, a lock) races
    # across mdm_fit's class threads, and a global statement rebinds it;
    # diagnostics travel with results instead
    found = []
    for path in sorted(Path(emdscalp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))]
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in _outside_functions(tree) if _binds_shared_state(node)]
    assert found == []


def test_no_private_exception_class():
    # commands report a failure as type(exc).__name__, so the name of every
    # exception class the package raises reaches its users
    found = []
    for path in sorted(Path(emdscalp.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno}: {node.name}"
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.ClassDef) and node.name.startswith("_")
                  and any(name.endswith(("Error", "Exception", "Warning"))
                          for name in [node.name, *map(ast.unparse, node.bases)])]
    assert found == []


def test_no_public_function_takes_a_callback():
    # a callback crossing a module boundary runs one module's code on
    # another's terms (threads, arguments); the caller composes results instead
    found = [f"{module.__name__}.{name}({param.name})"
             for module in MODULES for name in getattr(module, "__all__", ())
             if inspect.isfunction(fn := getattr(module, name))
             for param in inspect.signature(fn).parameters.values()
             if "Callable" in str(param.annotation)]
    assert found == []


def _checks_json_type(node: ast.AST) -> bool:
    """Whether `node` compares ``type(...)`` or tests ``isinstance`` against
    ``dict``, ``list`` or ``str``."""
    if isinstance(node, ast.Compare):
        return any(_called(n) == "type" for n in (node.left, *node.comparators))
    return _called(node) == "isinstance" and any(
        isinstance(n, ast.Name) and n.id in ("dict", "list", "str")
        for n in ast.walk(node.args[1]))


def test_one_function_checks_json_types():
    # every JSON value a command reads passes montage._json_value, so its rule
    # and its message are written once
    found = []
    for path in sorted(Path(emdscalp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {n for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and node.name == "_json_value" for n in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if node not in allowed and _checks_json_type(node)]
    assert found == []


#: Run in a fresh interpreter: ``sys.argv[1]`` is a JSON list of
#: ``[directory, n, size_limit, code]``.  Each `code` runs under umask 0o022
#: with ``root`` its directory, ``n`` a size and, unless ``size_limit`` is
#: null, that limit on the size of a file, so that a write past it fails
#: part-way with ``EFBIG``; print the name of the exception each raised, or
#: null.
_WRITE_UNDER_LIMIT = """
import json, os, resource, signal, sys
from pathlib import Path
import numpy as np
from emdscalp import cli, montage, spdgeom
os.umask(0o022)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
unlimited = resource.getrlimit(resource.RLIMIT_FSIZE)
raised = []
for root, n, limit, code in json.loads(sys.argv[1]):
    if limit is not None:
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, unlimited[1]))
    try:
        exec(code, {"cli": cli, "montage": montage, "np": np, "spdgeom": spdgeom,
                    "root": Path(root), "n": n})
        raised.append(None)
    except Exception as exc:
        raised.append(type(exc).__name__)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, unlimited)
print(json.dumps(raised))
"""

#: Each writer, as code that writes files under ``root`` whose size grows
#: with ``n``, and the file it writes there, if it replaces one.
WRITERS = {
    "_write_json": ("cli._write_json(root / 'doc.json', list(range(n)))", "doc.json"),
    "_write_csv": ("cli._write_csv(root / 'table.csv', [[i, i * i] for i in range(n)])",
                   "table.csv"),
    "_write_rows": ("cli._write_rows(root, [{'subject': i} for i in range(n)])", "rows.csv"),
    "_write_trace": ("cli._write_trace(root, 1, spdgeom.backward_elimination("
                     "[np.eye(n), np.diag(np.arange(1.0, n + 1))], 2))", "trace_S001.json"),
    "write_epoch_cache": ("cli.write_epoch_cache(root, 1, np.broadcast_to(np.eye(2), (n, 2, 2)),"
                          " ['T1'] * n, ['C3', 'C4'])", "S001/epochs.npy"),
    "memo model": ("cli.DerivedMemo(root, 1).mdm_fit("
                   "np.broadcast_to(np.eye(n), (2, n, n)), ['T1', 'T2'])", None),
    "memo trace": ("cli.DerivedMemo(root, 1).elimination("
                   "[np.eye(n), np.diag(np.arange(1.0, n + 1))], 2)", None),
    "save_spatial_map": ("montage.save_spatial_map(montage.SpatialMap(n, np.eye(n)), "
                         "root / 'map.csv')", "map.csv"),
    "cmd_plot": ("cli.cmd_plot(cli.ExperimentConfig(), str(root.parent.parent / f'{n}.csv'), "
                 "str(root / 'plot' / 'map.svg'))", "plot/map.svg"),
}


def test_writer_failing_part_way_leaves_old_file_or_none(tmp_path):
    layout = montage.default_layout()
    for n in (3, 30):  # cmd_plot's input maps
        montage.save_spatial_map(montage.binary_map(layout.names[:n], layout),
                                 tmp_path / f"{n}.csv")
    # the old files, under umask 0o022; the memo never replaces an entry
    old = [[str(tmp_path / "old" / name), 3, None, code]
           for name, (code, target) in WRITERS.items() if target]
    assert run_fresh(_WRITE_UNDER_LIMIT, json.dumps(old)) == [None] * len(old)
    before = {p: p.read_bytes() for p in (tmp_path / "old").rglob("*") if p.is_file()}
    assert all(tmp_path / "old" / name / target in before
               for name, (_, target) in WRITERS.items() if target)
    assert {p.stat().st_mode & 0o777 for p in before} == {0o644}
    # each writer again, with more content, over the old files and where
    # there are none: each fails 64 bytes into its first file
    cases = [[str(tmp_path / side / name), 30, 64, code] for side in ("old", "new")
             for name, (code, _) in WRITERS.items()]
    assert run_fresh(_WRITE_UNDER_LIMIT, json.dumps(cases)) == ["OSError"] * len(cases)
    after = {p: p.read_bytes() for side in ("old", "new")
             for p in (tmp_path / side).rglob("*") if p.is_file()}
    # the cache's old index was removed before its array was written
    assert after == {p: b for p, b in before.items() if p.name != "index.json"}


def test_readme_library_example_runs(capsys):
    # the Python block of README's "Library use" section, run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    distance, chance, test = capsys.readouterr().out.splitlines()
    assert float(distance) == pytest.approx(1.0149384999516553, rel=1e-12)
    assert (chance, test) == (repr(2 / 3), "0.0625 exact")


def test_readme_config_and_command_lines_parse(tmp_path):
    # README's config example loads and finds its layout, and each line of its
    # "Command line" block parses with `cli.build_parser()`
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (tmp_path / "exp.cfg").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0],
                                      encoding="utf-8")
    cfg = cli.load_config(tmp_path / "exp.cfg")
    assert cli._load_layout(cfg).names == montage.default_layout().names
    section = readme.split("\n## Command line\n", 1)[1]
    parser = cli.build_parser()
    for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        program, *argv = line.split("#", 1)[0].split()
        assert program == "emdscalp"
        parser.parse_args(argv)
