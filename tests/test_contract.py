"""The exit-code contract for the documents latscale reads back.

Every one-leaf edit of a valid document, run through ``cli.main``, exits
0 or 2: never 3 and never an exception.  An exit 2 names the file and
the key, and creates no output directory.  The scenario is the bundled
``sla_demo`` through ``simulate``; the checkpoint is a tiny model's
(encoder 8, decoder 4, one epoch) through ``predict``, edited at every
key of its top level, its ``config`` and its ``feature_scaling``.
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


def edited(doc, path, value):
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
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
    for key in path:
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


def checkpoint_paths():
    top = ["format_version", "config", "encoder_features", "decoder_features",
           "feature_scaling", "params"]
    config = ["hidden_size", "attention_heads", "dropout", "learning_rate", "batch_size",
              "max_epochs", "encoder_length", "decoder_length", "quantiles",
              "early_stopping_patience", "validation_fraction", "seed"]
    return ([(key,) for key in top] + [("config", key) for key in config]
            + [("feature_scaling", name) for name in ("cps.green", "pods.cart")])


def test_checkpoint_paths_are_every_key(trained):
    _, doc = trained
    assert sorted(checkpoint_paths()) == sorted(
        [(key,) for key in doc] + [("config", key) for key in doc["config"]]
        + [("feature_scaling", key) for key in doc["feature_scaling"]])


@pytest.mark.parametrize("value", MUTATIONS, ids=json.dumps)
@pytest.mark.parametrize("path", checkpoint_paths(), ids=".".join)
def test_checkpoint_key(trained, tmp_path, capsys, path, value):
    root, doc = trained
    document = tmp_path / "checkpoint.json"
    document.write_text(json.dumps(edited(doc, path, value)))
    check_run(capsys, ["predict", "--dataset", str(root / "dataset.csv"),
                       "--checkpoint", str(document)],
              document, path, tmp_path / "out", "forecast.csv")


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
