"""Every module under ``src/repro`` has a runtime importer.

A module is *reached* when a file outside ``tests/`` -- the library
itself, ``examples/``, ``benchmarks/`` or ``e2ebench/`` -- imports it.
The import may be direct (``import repro.a.b``, ``from repro.a.b import
x``, ``from repro.a import b``) or go through a package re-export
(``from repro.a import name`` where ``repro/a/__init__.py`` takes
``name`` from ``repro.a.b``).  A package's
own ``__init__.py`` importing from its own subtree does not count: a
re-export alone keeps nothing alive.  ``__init__`` and ``__main__``
modules are exempt.

A module that only its own tests import is dead weight; delete it with
its tests, or name it in :data:`KEPT_WITHOUT_IMPORTER` with a reason.

The same holds one level down for module constants: an UPPER_CASE name
assigned at the top level of a ``src/repro`` module must be read
somewhere under ``src/repro``, ``tests/``, ``benchmarks/``,
``examples/`` or ``e2ebench/``.

And one execution path finishes ejected coin games: under ``src/repro``
only the fleet player's module, :data:`FLEET_PLAYER`, may call or
import the tiers it runs after the int64 pass (:data:`LADDER_TIERS`).

And ``import repro`` loads no process machinery: every parallel path
runs on threads, so ``multiprocessing`` and
``concurrent.futures.process`` stay out of a fresh interpreter.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTER_DIRS = (SRC / "repro", ROOT / "examples", ROOT / "benchmarks", ROOT / "e2ebench")
READER_DIRS = (*IMPORTER_DIRS, ROOT / "tests")

KEPT_WITHOUT_IMPORTER = {
    "repro.util.gf2": "test oracle: the pairwise-independence check in "
    "tests/test_util_hashing.py solves GF(2) systems with it",
    "repro.util.bucket_queue": "test oracle: the list bucket peel that "
    "tests/test_graphs_arboricity.py checks the array degeneracy against",
    "repro.graphs.reference": "test oracle: the seed CSR builder and BFS "
    "components that tests/test_graphs_graph.py checks Graph against",
    "repro.core.native._build": "the kernel's one build, imported only by "
    "the lazy loader in repro.core.native's own __init__",
}


def _module_name(path: Path, base: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(base).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


def _absolute(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    package = module if is_package else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def unreached_modules(src: Path, importer_dirs: tuple[Path, ...]) -> set[str]:
    """Names of the modules under ``src`` that no importer file reaches."""
    modules = dict(_module_name(p, src) for p in sorted(src.rglob("*.py")))

    # package -> {bound name: (source module, source name)} for its
    # top-level ``from ... import`` re-exports.
    reexports: dict[str, dict[str, tuple[str, str]]] = {}
    for name, is_package in modules.items():
        if not is_package:
            continue
        path = src.joinpath(*name.split("."), "__init__.py")
        table = reexports[name] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                source = _absolute(node, name, True)
                for alias in node.names:
                    table[alias.asname or alias.name] = (source, alias.name)

    def targets(module: str, name: str) -> set[str]:
        found = {module}
        if f"{module}.{name}" in modules:
            found.add(f"{module}.{name}")
        elif name in reexports.get(module, {}):
            found |= targets(*reexports[module][name])
        return found

    reached: set[str] = set()
    for directory in importer_dirs:
        base = src if directory.is_relative_to(src) else directory.parent
        for path in sorted(directory.rglob("*.py")):
            module, is_package = _module_name(path, base)
            hits: set[str] = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    hits.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    source = _absolute(node, module, is_package)
                    for alias in node.names:
                        hits |= targets(source, alias.name)
            if is_package:  # a package's re-exports of its own subtree
                hits = {h for h in hits if h != module and not h.startswith(module + ".")}
            reached |= hits

    return {
        name
        for name, is_package in modules.items()
        if not is_package and name.rpartition(".")[2] != "__main__" and name not in reached
    }


def test_every_module_has_a_runtime_importer():
    unreached = unreached_modules(SRC, IMPORTER_DIRS) - set(KEPT_WITHOUT_IMPORTER)
    assert sorted(unreached) == []


def test_kept_modules_exist_and_are_still_unreached():
    # An entry whose module gained an importer (or was deleted) is stale.
    unreached = unreached_modules(SRC, IMPORTER_DIRS)
    assert set(KEPT_WITHOUT_IMPORTER) <= unreached


def test_rule_on_a_synthetic_tree(tmp_path):
    src = tmp_path / "src"
    files = {
        "pkg/__init__.py": "from pkg.a import f\nfrom pkg.dead import g\n",
        "pkg/a.py": "def f(): ...\n",
        "pkg/b.py": "from . import c\n",
        "pkg/c.py": "",
        "pkg/dead.py": "def g(): ...\n",
        "pkg/__main__.py": "",
        "pkg/sub/__init__.py": "from .deep import h\n",
        "pkg/sub/deep.py": "def h(): ...\n",
        "pkg/sub/leaf.py": "",
        "app/main.py": (
            "from pkg import f\n"
            "import pkg.b\n"
            "from pkg.sub import h, leaf\n"
        ),
    }
    for rel, text in files.items():
        target = (src if rel.startswith("pkg") else tmp_path).joinpath(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    importers = (src / "pkg", tmp_path / "app")
    assert unreached_modules(src, importers) == {"pkg.dead"}


def _is_constant_name(name: str) -> bool:
    return name.lstrip("_")[:1].isalpha() and name == name.upper()


def unread_constants(src: Path, reader_dirs: tuple[Path, ...]) -> set[str]:
    """``module.NAME`` of each top-level UPPER_CASE assignment under
    ``src`` whose name no file under ``reader_dirs`` reads.

    A read is a load of the name, an attribute of that name, an import
    of it, or a string constant equal to it (``monkeypatch.setattr(mod,
    "NAME", ...)``, ``__all__``).
    """
    defined: dict[str, str] = {}
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)[0]
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_constant_name(name.id):
                        defined[name.id] = f"{module}.{name.id}"

    read: set[str] = set()
    for directory in reader_dirs:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    return {qualified for name, qualified in defined.items() if name not in read}


def test_every_module_constant_is_read():
    assert sorted(unread_constants(SRC, READER_DIRS)) == []


FLEET_PLAYER = "repro.core.columnar_rounds"
LADDER_TIERS = ("play_coin_game",)


def ladder_users(src: Path) -> set[str]:
    """``module.name`` of each call or import of a ladder tier under
    ``src``; a definition is neither, so the tiers' own modules pass."""
    found: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in LADDER_TIERS:
                found.add(f"{module}.{name}")
    return found


def test_only_the_fleet_player_finishes_ejected_games():
    users = ladder_users(SRC)
    assert {user.rpartition(".")[0] for user in users} == {FLEET_PLAYER}


def test_ladder_rule_on_a_synthetic_tree(tmp_path):
    files = {
        "pkg/fleet.py": "from pkg.game import play_coin_game\nplay_coin_game()\n",
        "pkg/game.py": "def play_coin_game(): ...\n",
        "pkg/hatch.py": "import pkg.fleet as f\nf.play_coin_game()\n",
        "pkg/alias.py": "from pkg.fleet import play_coin_game as p\n",
    }
    for rel, text in files.items():
        target = tmp_path.joinpath(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    assert ladder_users(tmp_path) == {
        "pkg.fleet.play_coin_game",
        "pkg.hatch.play_coin_game",
        "pkg.alias.play_coin_game",
    }


def test_import_repro_loads_no_process_machinery():
    code = (
        "import repro, sys; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' "
        "or m == 'concurrent.futures.process'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
