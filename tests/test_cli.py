import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistspec
from twistspec import catalog
from twistspec.cli import main
from twistspec.catalog import (cyclic, m9, quaternion_dicyclic, save,
                               symmetric)
from twistspec.perm import Permutation


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    return str(path)


@pytest.fixture()
def small_dir(tmp_path):
    directory = tmp_path / "groups"
    directory.mkdir()
    for defn in (cyclic(1), cyclic(2), cyclic(6), symmetric(3),
                 quaternion_dicyclic(2)):
        save(defn, directory / f"{defn.name.lower()}.json")
    return directory


def test_info(s3_file, capsys):
    assert main(["info", s3_file]) == 0
    out = capsys.readouterr().out
    assert "order" in out and "6" in out
    assert "classes" in out and "3" in out


def test_info_json(s3_file, capsys):
    assert main(["info", s3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 6
    assert doc["class_number"] == 3
    assert doc["center_order"] == 1
    assert doc["flags"]["abelian"] is False


def test_info_trivial_group(tmp_path, capsys):
    path = tmp_path / "z1.json"
    save(cyclic(1), path)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 1 and doc["class_number"] == 1


def test_info_m9(tmp_path, capsys):
    path = tmp_path / "m9.json"
    save(m9(), path)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 72 and doc["class_number"] == 6


def test_info_s7_work_bound(tmp_path, capsys, monkeypatch):
    # Structure predicates act with the generators on element indices, so
    # S7 info composes O(|G| * |gens|) permutations; all-pairs loops would
    # need more than |G|^2 = 25.4M.  Products read right-multiplication
    # columns of |G| entries each, built on demand: a few dozen suffice,
    # a full product table would hold |G| of them.
    path = tmp_path / "s7.json"
    save(symmetric(7), path)
    groups = []
    build = catalog.build

    def recorded(*args, **kwargs):
        groups.append(build(*args, **kwargs))
        return groups[-1]

    monkeypatch.setattr(catalog, "build", recorded)
    products = 0
    multiply = Permutation.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    assert main(["info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 5040 and doc["class_number"] == 15
    assert doc["center_order"] == 1
    assert not any(doc["flags"].values())
    assert 0 < products <= 40 * 5040 * 2
    [group] = groups
    assert sum(column is not None for column in group._columns) <= 64


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["info", str(path)]) == 1


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"name": "bad", "degree": 3, "generators": [[1, 1, 2]]}))
    assert main(["info", str(path)]) == 1


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("field,doc", [
    ("degree", {"name": "S3", "degree": True, "generators": [[1]]}),
    ("expected", {"name": "Z2", "degree": 2, "generators": [[2, 1]],
                  "expected": {"order": True}}),
    ("generator", {"name": "Z1", "degree": 1, "generators": [[True]]}),
])
def test_json_booleans_are_not_integers(field, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path), "--json"]) == 1
    assert field in capsys.readouterr().err


def test_spectrum_command(s3_file, capsys):
    assert main(["spectrum", s3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"] == [[3, 6]]
    assert doc["extended_spectrum"] is None


def test_spectrum_extended(s3_file, capsys):
    assert main(["spectrum", s3_file, "--extended", "--method", "checked",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["extended_spectrum"] == [[1, 1], [2, 3], [3, 6]]
    assert doc["flags"]["full_extended_spectrum"] is True


def test_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    assert main(["spectrum", str(path), "--budget", "10"]) == 2


def test_budget_env_variable(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    monkeypatch.setenv("TWISTSPEC_BUDGET", "10")
    assert main(["spectrum", str(path)]) == 2
    monkeypatch.setenv("TWISTSPEC_BUDGET", "100000000")
    assert main(["spectrum", str(path)]) == 0


def test_order_cap_flag(tmp_path, capsys):
    path = tmp_path / "s4.json"
    save(symmetric(4), path)
    assert main(["info", str(path), "--order-cap", "10"]) == 2


@pytest.mark.parametrize("command,env,named", [
    (["spectrum", "@s3"], {"TWISTSPEC_BUDGET": "0"}, "TWISTSPEC_BUDGET"),
    (["info", "@s3"], {"TWISTSPEC_ORDER_CAP": "0"}, "TWISTSPEC_ORDER_CAP"),
    (["spectrum", "@s3", "--budget", "-5"], {}, "--budget"),
    (["info", "@s3", "--order-cap", "-1"], {}, "--order-cap"),
    (["survey", "@dir", "--out", "@out", "--jobs", "0"], {}, "--jobs"),
    (["survey", "@dir", "--out", "@out", "--jobs", "-3"], {}, "--jobs"),
], ids=["env-budget-0", "env-order-cap-0", "budget-negative",
        "order-cap-negative", "jobs-0", "jobs-negative"])
def test_non_positive_limits_are_input_errors(command, env, named, s3_file,
                                              small_dir, tmp_path, capsys,
                                              monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    places = {"@s3": s3_file, "@dir": str(small_dir),
              "@out": str(tmp_path / "r.json")}
    assert main([places.get(arg, arg) for arg in command]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_pass(tmp_path, capsys):
    path = tmp_path / "q8.json"
    save(quaternion_dicyclic(2), path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "extended-excludes-k-minus-1" in out


def test_verify_failure_exit_code(s3_file, capsys, monkeypatch):
    from twistspec.spectra import BatteryCheck
    import twistspec.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "theorem_battery",
        lambda group, budget=None: [BatteryCheck("synthetic", False,
                                                 {"detail": "forced"})])
    assert main(["verify", s3_file]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_survey_roundtrip(small_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["group_count"] == 5
    names = [g["name"] for g in doc["groups"]]
    assert names == sorted(
        names, key=lambda n: next(g["order"] for g in doc["groups"]
                                  if g["name"] == n))
    orders = [g["order"] for g in doc["groups"]]
    assert orders == sorted(orders)


def test_survey_filter(small_dir, tmp_path):
    out = tmp_path / "full.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", "full_extended_spectrum=true"]) == 0
    doc = json.loads(out.read_text())
    assert [g["name"] for g in doc["groups"]] == ["Z1", "Z2", "S3"]
    out2 = tmp_path / "small.json"
    assert main(["survey", str(small_dir), "--out", str(out2),
                 "--filter", "max_order=6,abelian=false"]) == 0
    doc2 = json.loads(out2.read_text())
    assert [g["name"] for g in doc2["groups"]] == ["S3"]


def test_survey_bad_filter(small_dir, tmp_path):
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out),
                 "--filter", "nonsense=1"]) == 1


def test_survey_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "empty.json"
    assert main(["survey", str(empty), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["groups"] == [] and doc["group_count"] == 0


def test_survey_annotates_per_group_failures(small_dir, tmp_path):
    (small_dir / "broken.json").write_text("{oops")
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_count"] == 5
    assert doc["summary"]["errors"][0]["file"] == "broken.json"


def test_survey_records_non_utf8_file(small_dir, tmp_path):
    (small_dir / "latin.json").write_bytes(b"\xff\xfe")
    out = tmp_path / "r.json"
    assert main(["survey", str(small_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["group_count"] == 5
    [error] = doc["summary"]["errors"]
    assert error["file"] == "latin.json"
    assert error["error"].startswith("DefinitionError:")


def test_survey_jobs_byte_identical(small_dir, tmp_path):
    out1 = tmp_path / "jobs1.json"
    out2 = tmp_path / "jobs2.json"
    assert main(["survey", str(small_dir), "--out", str(out1),
                 "--jobs", "1", "--battery"]) == 0
    assert main(["survey", str(small_dir), "--out", str(out2),
                 "--jobs", "3", "--battery"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point(s3_file):
    # Run the package under test, wherever it was imported from.
    src = str(Path(twistspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twistspec.cli", "info", s3_file],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "order" in proc.stdout
