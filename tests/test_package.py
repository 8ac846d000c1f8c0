import ast
import importlib.util
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import hwmlab

REPO = Path(__file__).resolve().parents[1]


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize alone costs most of the package import time; only
    # recurrence_search needs it.  scipy.linalg (about 0.3 s) is imported only
    # by the eigensolver fallback, when numpy's eigh does not converge.
    env = dict(os.environ, PYTHONPATH=str(Path(hwmlab.__file__).parents[1]))
    code = "import sys, hwmlab; print(['scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


def traced_targets():
    """The (layer, module, function) triples the benchmark's tracer rebinds."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_functions_resolve():
    targets = traced_targets()
    assert targets
    for _, module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


@pytest.fixture(scope="module")
def bench_workloads():
    """perfbench/workloads.py loaded by path; its dataclasses need the module registered while it runs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["flow", "zdbo", "crosscheck"])
def test_benchmark_ops_pass_their_own_checks(bench_workloads, name):
    # the benchmark's self-tests sit outside Tier-1; one op per workload runs its correctness check here
    w = bench_workloads.WORKLOADS[name]
    assert w.check(w.op(w.prepare(w.inputs(301)))) == []


def test_public_names_resolve():
    # a deletion that leaves a stale __all__ entry breaks `from ... import *`
    package = Path(hwmlab.__file__).parent
    modules = ["hwmlab"] + [f"hwmlab.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"]
    assert len(modules) > 10
    for name in modules:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{name}.{public}"


MATRIX_SECTION_BUILDERS = {"build_toeplitz", "build_hankel", "shift_backward_matrix"}


def package_functions():
    """(module file, function node) for every function defined in the package."""
    for path in sorted(Path(hwmlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node


def called_names(fn):
    """Names of everything ``fn`` calls, as plain names or attributes (``np.kron`` -> ``kron``)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            yield f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_no_package_path_builds_a_matrix_section():
    # everything runs on vector sections; the matrix sections are public entry points only
    functions = list(package_functions())
    assert {fn.name for _, fn in functions} >= MATRIX_SECTION_BUILDERS
    for module, fn in functions:
        calls = set(called_names(fn))
        assert not calls & MATRIX_SECTION_BUILDERS, f"{module}:{fn.name} calls {calls & MATRIX_SECTION_BUILDERS}"
        if "kron" in calls:
            assert (module, fn.name) in {("operators.py", "build_toeplitz"), ("operators.py", "build_hankel")}


def test_one_budget_bounds_every_stacked_array():
    # the emit chunk, the step-matrix blocks and the grid check's samples share one budget
    budgets = []
    for path in sorted(Path(hwmlab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            budgets += [(path.name, t.id) for t in targets if getattr(t, "id", "").endswith("_ENTRIES")]
    assert budgets == [("stability.py", "BLOCK_ENTRIES")]
    names = {fn.name: {getattr(n, "id", None) for n in ast.walk(fn)} for _, fn in package_functions()}
    assert all("BLOCK_ENTRIES" in names[fn] for fn in ("emit", "_time_blocks", "_check_block"))


GRID_TRANSFORMS = {("hardy.py", "sample_padded"), ("hardy.py", "fit_padded")}


def owned_nodes():
    """(module file, outermost enclosing function or None, node) of every syntax node in the package."""
    for path in sorted(Path(hwmlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            yield path.name, owner.get(node), node


def fft_users():
    """(module file, outermost enclosing function or None) of every ``np.fft``
    reference and FFT import in the package."""
    for module, fn, node in owned_nodes():
        is_attr = isinstance(node, ast.Attribute) and node.attr == "fft"
        np_fft = is_attr and getattr(node.value, "id", None) in ("np", "numpy")
        if np_fft or isinstance(node, (ast.Import, ast.ImportFrom)) and "fft" in ast.unparse(node):
            yield module, fn


def test_only_the_grid_pair_calls_the_fft():
    # one transform pair: every sample goes through sample_padded and every fit through fit_padded
    assert set(fft_users()) == GRID_TRANSFORMS


def test_grid_pair_scales_one_way_on_every_grid():
    # one pocketfft call each, scaled inside the transform: no branch on the grid size
    pair = {fn.name: fn for module, fn in package_functions() if (module, fn.name) in GRID_TRANSFORMS}
    assert set(pair) == {name for _, name in GRID_TRANSFORMS}
    for name, fn in pair.items():
        assert not any(isinstance(node, ast.If) for node in ast.walk(fn)), name
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and "np.fft." in ast.unparse(n.func)]
        assert len(calls) == 1, name
        assert "norm='forward'" in ast.unparse(calls[0]), name


def test_one_hermitian_eigensolve():
    # hermitian_eigh checks its input before numpy's solve or scipy's fallback; the grid
    # projection's batched pointwise solve cannot take the unbatched fallback, and the
    # conservation report's values-only solve is about 3x faster than eigh at N = 250, d = 4
    users = defaultdict(set)
    for module, fn, node in owned_nodes():
        if isinstance(node, ast.Call):
            f = node.func
            users[f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)].add((module, fn))
    assert users["eigh"] == {("operators.py", "hermitian_eigh"), ("grassmann.py", "project_to_grassmann")}
    assert users["eigvalsh"] == {("evolution.py", "conservation_report")}


def test_model_at_time_alone_sets_a_model_time():
    # the builders make t = 0 models; re-timing is model_at_time's, so a time has one setter
    builds, timed = set(), set()
    for module, fn, node in owned_nodes():
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        keywords = {k.arg for k in node.keywords}
        if name == "IsometryModel":
            builds.add((module, fn))
            # the fields run d, N, lam, vecs, t: a fifth positional argument is a time
            if "t" in keywords or len(node.args) > 4:
                timed.add((module, fn))
        elif name == "replace" and "t" in keywords:
            timed.add((module, fn))
    assert builds == {("stability.py", "_standard_model"), ("evolution.py", "make_plan")}
    assert timed == {("stability.py", "model_at_time")}


def nested_for_loops(path):
    """(outer line, inner line) of every ``for`` statement nested in another in ``path``."""
    for outer in ast.walk(ast.parse(path.read_text())):
        if isinstance(outer, ast.For):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.For):
                    yield outer.lineno, inner.lineno


def test_hardy_has_no_nested_loop():
    # the pointwise products multiply whole entry blocks, not one Python line loop per entry
    assert not list(nested_for_loops(Path(hwmlab.__file__).parent / "hardy.py"))


def test_grassmann_has_no_nested_loop():
    # the grid check forms U^2 from whole row blocks, one loop over the rows
    assert not list(nested_for_loops(Path(hwmlab.__file__).parent / "grassmann.py"))


def test_fourier_series_is_the_one_coefficient_type():
    # an analytic element is its (N+1, d, d) array, not a second wrapper type
    package = Path(hwmlab.__file__).parent
    tree = ast.parse((package / "hardy.py").read_text())
    dataclasses = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(dec) for dec in node.decorator_list)
    ]
    assert dataclasses == ["FourierSeries"]
    assert not [path.name for path in package.glob("*.py") if "HardyElement" in path.read_text()]


def defaulted_parameters(fn):
    """(name, positional index or None) of each parameter of ``fn`` that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls_by_name(roots):
    """{called name: [(positional count, keyword names)]} of every call in the ``roots`` directories."""
    calls = defaultdict(list)
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls[name].append((len(node.args), {k.arg for k in node.keywords}))
    return calls


def unpassed_defaults(roots):
    """``function.parameter`` of each defaulted package parameter that no call in ``roots`` passes."""
    calls = calls_by_name(roots)
    for module, fn in package_functions():
        for name, index in defaulted_parameters(fn):
            # each CLI subcommand passes its runner the quiet flag through a getattr lookup
            if module == "experiments.py" and fn.name.startswith("run_") and name == "quiet":
                continue
            if not any(name in kw or (index is not None and n > index) for n, kw in calls[fn.name]):
                yield f"{fn.name}.{name}"


def test_every_default_is_passed_somewhere():
    # a default that no call overrides is a constant: an option only its definition knows about
    unpassed = list(unpassed_defaults(("src", "tests", "perfbench")))
    assert not unpassed, unpassed


# the defaulted parameters that only tests set: no run of the package or the benchmark passes them
TEST_ONLY_DEFAULTS = {
    "lax_residual.sign",  # criterion 8's wrong-sign experiment; ROADMAP item 21 gives it a CLI caller
    "recurrence_search.coarse_dt",  # ROADMAP item 7's rewrite of the scan gives it a caller
    "project_to_grassmann.sq_tol",  # a non-rational loop misses the 1e-10 default; ROADMAP item 6's datum
    "project_to_grassmann.herm_tol",  # set with sq_tol; ROADMAP item 6's datum
}


def test_only_the_listed_defaults_are_test_knobs():
    # a new option that only tests set must join the list, and one a run comes to pass must leave it
    assert set(unpassed_defaults(("src", "perfbench"))) == TEST_ONLY_DEFAULTS


# the two private helpers another module shares: the row shift and the subspace check
PRIVATE_IMPORTS = {("operators", "hardy", "_shift_up"), ("evolution", "stability", "_as_vector")}


def private_imports():
    """(importing module, source module, name) of every ``_private`` name one hwmlab module imports from another."""
    for path in sorted(Path(hwmlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hwmlab")):
                source = (node.module or "").rsplit(".", 1)[-1]
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        yield path.stem, source, alias.name


def test_modules_share_no_other_private_name():
    # a private name is its module's own; sharing one more means it should be public or stay put
    assert set(private_imports()) == PRIVATE_IMPORTS


# the benchmark's warning counters and filters name it (perfbench/run.py's WARNING_KINDS),
# so it stays until a benchmark-only change drops those names
UNRAISED_ALLOWED = {"DegenerateEigenvalueWarning"}


def raised_names(tree):
    """Names that ``tree`` raises (``raise X`` or ``raise X(...)``) or passes to a ``warn`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(exc, "id", None)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "warn":
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                yield getattr(arg, "id", None)


def test_every_error_and_warning_class_is_raised():
    # a class nothing raises promises callers a failure that no run can give
    defined, raised = set(), set()
    for path in sorted(Path(hwmlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))
        defined |= {c.name for c in classes if c.name.endswith(("Error", "Warning"))}
        raised |= set(raised_names(tree))
    assert len(defined) > 5
    assert defined - raised == UNRAISED_ALLOWED
