"""The exit-code contract for the documents latscale reads back.

Every one-leaf edit of a valid document, run through ``cli.main``, exits
0 or 2: never 3 and never an exception.  An exit 2 names the file and
the key, and creates no output directory.  The scenario is the bundled
``sla_demo`` through ``simulate``; the checkpoint is a tiny model's
(encoder 8, decoder 4, one epoch) through ``predict``, edited at every
key of its top level, its ``config`` and its ``feature_scaling``, at one
parameter's ``shape``, ``values`` and first value, and by dropping or
adding a key of its top level or its ``config``.  A checkpoint in format
1's layout exits 2 on its version.
"""
import copy
import json
from importlib import resources

import pytest

from latscale.cli import main

# The values each leaf is set to in turn: a string, a boolean, null, a
# fraction, an empty list and object, a numeric string, a negative and zero
MUTATIONS = ["x", True, None, 1.5, [], {}, "3", -1, 0]

SCENARIO = json.loads((resources.files("latscale") / "scenarios" / "sla_demo.json").read_text())

TINY_INI = """
[run]
trace = green
features = cps.green, pods.cart

[tft]
encoder_length = 8
decoder_length = 4
max_epochs = 1
"""


def leaves(doc, path=()):
    """The key path of every value of ``doc`` that is not an object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def edited(doc, path, value=None, drop=False):
    """``doc`` with the value at ``path`` set to ``value``, or dropped."""
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if drop:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return doc


def check_run(capsys, argv, document, path, out, written):
    """Run ``argv``; the contract holds for its exit code and message."""
    rc = main([*argv, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 0:
        assert (out / written).exists()
        return
    assert str(document) in err
    for key in map(str, path):
        if key not in ("services", "workloads"):  # their entries are named singular
            assert key in err, f"{key!r} is not named in {err!r}"
    assert not out.exists()


@pytest.mark.parametrize("value", MUTATIONS, ids=json.dumps)
@pytest.mark.parametrize("path", list(leaves(SCENARIO)), ids=".".join)
def test_scenario_leaf(tmp_path, capsys, path, value):
    document = tmp_path / "scenario.json"
    document.write_text(json.dumps(edited(SCENARIO, path, value)))
    check_run(capsys, ["simulate", "--scenario", str(document), "--duration", "300"],
              document, path, tmp_path / "out", "dataset.csv")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    assert main(["simulate", "--scenario", "sla_demo", "--duration", "120", "--out", str(root),
                 "--quiet"]) == 0
    assert main(["train", "--config", str(ini), "--dataset", str(root / "dataset.csv"),
                 "--out", str(root), "--quiet"]) == 0
    return root, json.loads((root / "checkpoint.json").read_text())


TOP = ["format_version", "config", "encoder_features", "decoder_features", "feature_scaling",
       "params"]
CONFIG = ["hidden_size", "attention_heads", "dropout", "learning_rate", "batch_size", "max_epochs",
          "encoder_length", "decoder_length", "quantiles", "early_stopping_patience",
          "validation_fraction", "seed"]
PARAMETER = "head.q0.w"  # the parameter whose entry is edited


def checkpoint_paths():
    return ([(key,) for key in TOP] + [("config", key) for key in CONFIG]
            + [("feature_scaling", name) for name in ("cps.green", "pods.cart")]
            + [("params", PARAMETER, "shape"), ("params", PARAMETER, "values"),
               ("params", PARAMETER, "values", 0)])


def test_checkpoint_paths_are_every_key(trained):
    _, doc = trained
    assert sorted(checkpoint_paths()) == sorted(
        [(key,) for key in doc] + [("config", key) for key in doc["config"]]
        + [("feature_scaling", key) for key in doc["feature_scaling"]]
        + [("params", PARAMETER, key) for key in doc["params"][PARAMETER]]
        + [("params", PARAMETER, "values", 0)])


@pytest.mark.parametrize("value", MUTATIONS, ids=json.dumps)
@pytest.mark.parametrize("path", checkpoint_paths(), ids=lambda path: ".".join(map(str, path)))
def test_checkpoint_key(trained, tmp_path, capsys, path, value):
    root, doc = trained
    document = tmp_path / "checkpoint.json"
    document.write_text(json.dumps(edited(doc, path, value)))
    check_run(capsys, ["predict", "--dataset", str(root / "dataset.csv"),
                       "--checkpoint", str(document)],
              document, path, tmp_path / "out", "forecast.csv")


def run_predict(capsys, trained, tmp_path, doc, path):
    root, _ = trained
    document = tmp_path / "checkpoint.json"
    document.write_text(json.dumps(doc))
    check_run(capsys, ["predict", "--dataset", str(root / "dataset.csv"),
                       "--checkpoint", str(document)],
              document, path, tmp_path / "out", "forecast.csv")


@pytest.mark.parametrize("path", [(key,) for key in TOP] + [("config", key) for key in CONFIG],
                         ids=".".join)
def test_checkpoint_key_dropped(trained, tmp_path, capsys, path):
    run_predict(capsys, trained, tmp_path, edited(trained[1], path, drop=True), path)


@pytest.mark.parametrize("path", [("surplus",), ("config", "surplus")], ids=".".join)
def test_checkpoint_key_added(trained, tmp_path, capsys, path):
    run_predict(capsys, trained, tmp_path, edited(trained[1], path, 0), path)


def test_format_1_checkpoint(trained, tmp_path, capsys):
    """The layout format 1 wrote: the version again inside ``params``."""
    root, doc = trained
    document = tmp_path / "checkpoint.json"
    document.write_text(json.dumps(
        {**doc, "format_version": 1, "params": {"format_version": 1, "params": doc["params"]}}))
    assert main(["predict", "--dataset", str(root / "dataset.csv"), "--checkpoint", str(document),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {document}: format_version: unsupported checkpoint format 1\n")
    assert not (tmp_path / "out").exists()


def test_unedited_documents_exit_0(trained, tmp_path, capsys):
    """So the contract cannot hold by refusing everything."""
    root, doc = trained
    scenario, checkpoint = tmp_path / "scenario.json", tmp_path / "checkpoint.json"
    scenario.write_text(json.dumps(SCENARIO))
    checkpoint.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(scenario), "--duration", "300",
                 "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["predict", "--dataset", str(root / "dataset.csv"), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
