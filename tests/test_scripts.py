"""The scripts under ``scripts/`` run end to end against the package under
test."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistspec
from twistspec.errors import NotAHomomorphism

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_tables_small_orders():
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--max-order", "24"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "groups with trivial Reidemeister spectrum" in proc.stdout
    assert "groups with full extended Reidemeister spectrum" in proc.stdout


def test_reproduce_tables_budget_error_is_one_line():
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--budget", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: Z2: product budget 1 exceeded in the abelian count\n")


@pytest.mark.parametrize("error", [AssertionError, NotAHomomorphism])
def test_reproduce_tables_internal_error_exits_4(error, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def classify(group, **kwargs):
        raise error("table mismatch")
    monkeypatch.setattr(script, "classify", classify)
    monkeypatch.setattr("sys.argv", ["reproduce_tables.py"])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 4
    assert capsys.readouterr() == ("", "internal error: Z1: table mismatch\n")


@pytest.mark.parametrize("flag, value", [
    ("--budget", "many"), ("--budget", "0"),
    ("--max-order", "0"), ("--max-order", "-5"),
])
def test_reproduce_tables_usage_errors_exit_1(flag, value):
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         flag, value],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: argument {flag}: must be a positive integer, got "
        f"{value!r} (see reproduce_tables.py --help)\n")


def test_build_catalog_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "build_catalog.py"),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] and written[0] == written[1]
