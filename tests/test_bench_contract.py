import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from momentforge.cli import build_parser
from momentforge.distributions import DiscreteDistribution, Grid, MomentVector, cheb_moments
from momentforge.dpsynth import PrivacyBudget
from momentforge.fileio import save_moments_csv
from momentforge.popmle import fingerprint
from momentforge.recovery import NufftBasis
from momentforge.sde import LinearOperator

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return [(mod, name) for mod, names in _tracing().TRACED.items() for name in names]


@pytest.mark.parametrize("module_name,qualname", _traced())
def test_traced_name_exists(module_name, qualname):
    # the traced benchmark wraps each name with getattr, so a renamed or
    # deleted function makes every traced batch raise
    owner = importlib.import_module(f"momentforge.{module_name}")
    for part in qualname.split("."):
        assert hasattr(owner, part), f"momentforge.{module_name}.{qualname} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def _hooked():
    return [
        f"{mod}.{name}" for mod, names in _tracing().TRACED.items() for name, hook in names.items() if hook
    ]


def _moments_file(tmp_path):
    path = tmp_path / "moments.csv"
    save_moments_csv(cheb_moments(DiscreteDistribution.point_mass(0.2), 4), path)
    return str(path)


def _text_file(tmp_path, text="0.25\n-0.5\n"):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


# a tiny call of each traced function that has a count hook: its arguments
# in a temporary directory, the owning instance first for a method
HOOK_CALLS = {
    "recovery.solve_weighted_qp": lambda tmp: (MomentVector(np.zeros(1)), NufftBasis(Grid.chebyshev(8).points, 1)),
    "recovery.solve_moment_lp": lambda tmp: (MomentVector(np.array([0.3, -0.1])), np.full(2, 1e-3)),
    "dpsynth.dp_synthesize_multi": lambda tmp: (
        np.random.default_rng(0).uniform(-1, 1, (64, 2)), PrivacyBudget(0.5, 0.01), 0
    ),
    "sde.LinearOperator.apply_block": lambda tmp: (LinearOperator.from_dense(np.eye(3)), np.ones((3, 2))),
    "sde.estimate_spectral_density": lambda tmp: (LinearOperator.from_diagonal(np.linspace(-1, 1, 64)), 0.5, 0.2, 0),
    "popmle.npmle_em": lambda tmp: (fingerprint(np.array([0, 1, 2, 2]), 2),),
    "fileio.load_moments_csv": lambda tmp: (_moments_file(tmp),),
    "fileio.load_dataset_csv": lambda tmp: (_text_file(tmp),),
    "fileio.save_distribution_csv": lambda tmp: (DiscreteDistribution.point_mass(0.2), str(tmp / "out.csv")),
    "fileio.sha256_file": lambda tmp: (_text_file(tmp),),
    "fileio.write_json_report": lambda tmp: ({"k": 1}, str(tmp / "report.json")),
}


def test_hook_calls_cover_the_hooks():
    assert set(HOOK_CALLS) == set(_hooked())


@pytest.mark.parametrize("name", _hooked())
def test_traced_hook_reads_the_real_result(name, tmp_path):
    # a hook reads fields of its function's result (`.iterations`,
    # `.feasible`, `report.matvecs`, ...); a renamed field passes every
    # other test but makes each traced batch raise
    module_name, qualname = name.split(".", 1)
    owner = importlib.import_module(f"momentforge.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    args = HOOK_CALLS[name](tmp_path)
    result = owner(*args)
    counts = defaultdict(int)
    _tracing().TRACED[module_name][qualname](counts, args, result)
    assert counts and all(isinstance(v, int) for v in counts.values()), dict(counts)


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _library_calls():
    """(dotted name, positional count, keyword names, line) of each call the
    benchmark's workloads make into momentforge's dpsynth, sde or cli. A
    `**name` splat of a function's `**name` parameter stands for the
    keywords each caller of that function passes beyond its own
    parameters, one entry per caller."""
    tree = ast.parse(WORKLOADS.read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    forwarded = {}  # **kwargs name -> keyword sets its callers pass into it
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.args.kwarg:
            own = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            forwarded.setdefault(fn.args.kwarg.arg, []).extend(
                {kw.arg for kw in call.keywords if kw.arg} - own
                for call in calls
                if isinstance(call.func, ast.Name) and call.func.id == fn.name
            )
    found = []
    for call in calls:
        name = _dotted(call.func)
        if not name or name[0] not in ("dpsynth", "sde", "cli"):
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args), f"line {call.lineno}"
        variants = [{kw.arg for kw in call.keywords if kw.arg}]
        for kw in call.keywords:
            if kw.arg is None:
                assert isinstance(kw.value, ast.Name), f"line {call.lineno}"
                extras = forwarded.get(kw.value.id) or [set()]
                variants = [v | extra for v in variants for extra in extras]
        found.extend((".".join(name), len(call.args), keywords, call.lineno) for keywords in variants)
    return found


def test_workload_calls_cover_the_entry_points():
    names = {name for name, _, _, _ in _library_calls()}
    assert {"dpsynth.dp_synthesize", "dpsynth.dp_synthesize_multi", "cli.main",
            "sde.estimate_spectral_density"} <= names


@pytest.mark.parametrize(
    "name,positional,keywords",
    [pytest.param(n, p, k, id=f"{n}:{line}:{'+'.join(sorted(k))}") for n, p, k, line in _library_calls()],
)
def test_workload_call_binds(name, positional, keywords):
    # the benchmark's calls stay fixed while the library changes under them,
    # so a removed or renamed parameter would otherwise fail only in a
    # benchmark run
    owner = importlib.import_module(f"momentforge.{name.split('.')[0]}")
    for part in name.split(".")[1:]:
        owner = getattr(owner, part)
    inspect.signature(owner).bind(*[None] * positional, **dict.fromkeys(keywords))


def _cli_flags():
    """(subcommand, flag, line) for each `--flag` in an argv list literal the
    workloads pass to `cli.main`, the list found by the name it is assigned
    to in the module-level function that makes the call."""
    found = set()
    for fn in ast.parse(WORKLOADS.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        lists = {
            target.id: node.value
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and _dotted(call.func) == ["cli", "main"]):
                continue
            argv = lists[call.args[0].id].elts
            words = [e.value for e in argv if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            found.update((words[0], w, argv[0].lineno) for w in words if w.startswith("--"))
    return sorted(found)


def test_workload_cli_flags_cover_both_subcommands():
    assert {sub for sub, _, _ in _cli_flags()} == {"recover", "popmle"}


@pytest.mark.parametrize("subcommand,flag", [
    pytest.param(sub, flag, id=f"{sub}:{line}:{flag}") for sub, flag, line in _cli_flags()
])
def test_workload_cli_flag_is_known(subcommand, flag):
    # the benchmark's argv lists stay fixed while the CLI changes under
    # them, so a removed option would otherwise fail only in a benchmark run
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subcommand in subparsers.choices
    assert flag in subparsers.choices[subcommand]._option_string_actions


# where each traced fileio function takes its path: the tracing hooks call
# os.path.getsize(args[0]) after a load and os.path.getsize(args[1]) after a
# save, so a moved path argument makes every traced batch raise
FILEIO_PATH_POSITION = {
    "load_moments_csv": 0,
    "load_dataset_csv": 0,
    "sha256_file": 0,
    "save_distribution_csv": 1,
    "write_json_report": 1,
}


def test_traced_fileio_path_position():
    traced = _tracing().TRACED["fileio"]
    assert set(traced) == set(FILEIO_PATH_POSITION)
    fileio = importlib.import_module("momentforge.fileio")
    for name, position in FILEIO_PATH_POSITION.items():
        params = list(inspect.signature(getattr(fileio, name)).parameters)
        assert params[position] == "path", f"fileio.{name}{params}"


def test_traced_cli_small_run_is_correct():
    # one untraced and one traced batch: a tracing hook that reads a changed
    # attribute or signature raises only in the traced batch, and its
    # answers must match the untraced ones
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0
