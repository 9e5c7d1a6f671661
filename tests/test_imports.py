"""Import hygiene of the package.

Checked with the standard library's ``ast``: every module other than a
package ``__init__.py`` uses each name it imports, no module reaches
into another c2fseg module for a private (``_``-prefixed) name, and only
``parallel.py`` imports the thread modules, and ``nn/layers.py`` has one
conv GEMM path, neither raises nor imports from ``c2fseg.errors`` and
imports nothing from ``c2fseg.parallel``, and
``pipeline.py`` reads the clock only in ``run_case``'s stage timer,
finds the sagittal window's centre in one function, cuts each stage's
planes in one helper and builds training sets in one loop.
Checked in a fresh interpreter: importing the package leaves out what it
loads lazily.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c2fseg

PACKAGE = Path(c2fseg.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def module_id(path: Path) -> str:
    return path.relative_to(PACKAGE.parent).as_posix()


def imported_names(tree: ast.Module):
    """Each name an import statement binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "c2fseg"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=module_id)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported_names(tree) if name not in used)
    assert not unused, f"{module_id(path)} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text())
    private = sorted(
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and is_package_import(node)
        for name in (alias.name for alias in node.names)
        if name.startswith("_")
    )
    assert not private, f"{module_id(path)} imports private names: {private}"


# The top-level packages that start or manage threads.
THREAD_MODULES = {"concurrent", "threading"}


def imported_modules(tree: ast.Module):
    """(line, module) for each absolute import, those inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", [p for p in MODULES if p != PACKAGE / "parallel.py"], ids=module_id)
def test_only_parallel_imports_the_thread_modules(path):
    """``c2fseg.parallel`` is the one module that makes threads and joins them."""
    tree = ast.parse(path.read_text())
    found = sorted(
        f"line {line}: {module}" for line, module in imported_modules(tree) if module.split(".")[0] in THREAD_MODULES
    )
    assert not found, f"{module_id(path)} imports thread modules: {found}"


def test_importing_the_package_does_not_load_concurrent_futures(tmp_path):
    """``parallel.batch_threads`` imports it only when it opens a pool: the import costs several ms of start-up."""
    # As the CLI-run criterion does: the directory holding the c2fseg under test goes first on PYTHONPATH.
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(PACKAGE.resolve().parent) + (os.pathsep + inherited if inherited else "")
    probe = "import sys, c2fseg; print(c2fseg.__file__); print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    child_pkg, loaded = proc.stdout.splitlines()
    assert Path(child_pkg).resolve().parent == PACKAGE.resolve()
    assert loaded == "[]", f"import c2fseg loaded {loaded}"


# Private helper of nn/layers.py -> the one top-level function that may reference it.
CONV_GEMM_HELPERS = {"_taps": "_banded_gemm", "_col2im": "conv2d_backward"}


def test_layers_has_one_conv_gemm_path():
    """Only ``_banded_gemm`` builds columns and only ``conv2d_backward`` scatters them back,
    so every conv, the decoder's two halves too, runs through ``conv2d_forward``/``conv2d_backward``."""
    tree = ast.parse((PACKAGE / "nn" / "layers.py").read_text())
    users = {name: set() for name in CONV_GEMM_HELPERS}
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else f"line {top.lineno}"
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in users:
                users[node.id].add(owner)
    assert users == {name: {owner} for name, owner in CONV_GEMM_HELPERS.items()}


# Name -> the one function of pipeline.py that may reference it ("outer.inner" for a nested one).
PIPELINE_RULE_OWNERS = {"perf_counter": "run_case.timed", "foreground_indices": "_sagittal_center"}

# Name -> the functions of pipeline.py that may reference it: each stage's cut, for training and
# prediction alike, and the one training-set loop that stacks and joins the cut pairs.
PIPELINE_CUT_OWNERS = {
    "resize_slice": {"_coarse_cut"},
    "crop_patch": {"_fine_cut", "_abnormal_cut"},
    "np.stack": {"_training_set"},
    "np.concatenate": {"_training_set"},
}


def pipeline_users(names) -> dict[str, set[str]]:
    """Each of ``names`` -> the functions of ``pipeline.py`` that reference it, as a name, an attribute
    (``perf_counter``) or a dotted attribute (``np.stack``); "line N" for a reference outside any function."""
    users = {name: set() for name in names}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            found = {child.id} if isinstance(child, ast.Name) else set()
            if isinstance(child, ast.Attribute):
                prefix = f"{child.value.id}." if isinstance(child.value, ast.Name) else ""
                found = {child.attr, prefix + child.attr}
            for name in found & users.keys():
                users[name].add(owner or f"line {child.lineno}")
            visit(child, owner)

    visit(ast.parse((PACKAGE / "pipeline.py").read_text()), "")
    return users


def test_pipeline_states_its_timer_and_centre_once():
    """In ``pipeline.py`` only ``run_case``'s stage timer reads the clock, and only ``_sagittal_center``
    computes the foreground centroid that places the sagittal window."""
    assert pipeline_users(PIPELINE_RULE_OWNERS) == {name: {owner} for name, owner in PIPELINE_RULE_OWNERS.items()}


def test_pipeline_states_each_cut_and_the_training_loop_once():
    """In ``pipeline.py`` each stage's planes are resized or cropped by one helper that its training set and
    its prediction step share, and only ``_training_set`` stacks and joins training pairs."""
    assert pipeline_users(PIPELINE_CUT_OWNERS) == PIPELINE_CUT_OWNERS


def layers_imports() -> list[str]:
    """Each module and ``module.name`` that ``nn/layers.py`` imports, relative imports resolved."""
    tree = ast.parse((PACKAGE / "nn" / "layers.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ("", "c2fseg.nn", "c2fseg")[node.level]
            module = ".".join(filter(None, (package, node.module)))
            found += [module, *(f"{module}.{a.name}" for a in node.names)]
    return found


def test_layers_trust_the_net_door():
    """``nn/layers.py`` raises nothing and imports nothing from ``c2fseg.errors``: ``unet_forward`` and
    ``unet_backward`` check every shape once, before any layer runs."""
    tree = ast.parse((PACKAGE / "nn" / "layers.py").read_text())
    raises = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    errors = [name for name in layers_imports() if name.startswith("c2fseg.errors")]
    assert (raises, errors) == ([], [])


def test_layers_split_no_batch():
    """``nn/layers.py`` imports nothing from ``c2fseg.parallel``: the net cuts each batch once per pass,
    and each layer op runs on the samples it is given."""
    assert [name for name in layers_imports() if name.startswith("c2fseg.parallel")] == []
