"""Command-line interface: the full workflow plus the exit-code taxonomy."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import groundling
from groundling import cli
from groundling.corpus import load_corpus, save_corpus
from groundling.correspondence import DEFAULT_REGULARIZATION
from groundling.fixtures import site_spec, tiled
from groundling.symbols import (
    DEFAULT_COLORS,
    REGISTRY_SCHEMA,
    default_registry,
    load_registry,
    save_registry,
)
from groundling.world import load_observations, save_observations, simulate


def test_full_workflow(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    models_dir = tmp_path / "models"
    obs_path = tmp_path / "site1.jsonl"
    csv_path = tmp_path / "bench.csv"
    audit_path = tmp_path / "audit.json"
    registry_path = tmp_path / "registry.yaml"

    assert cli.main(["generate-corpus", "--out", str(corpus_path)]) == 0
    assert len(load_corpus(corpus_path)) == 500

    assert cli.main(["train", "--corpus", str(corpus_path),
                     "--out", str(models_dir)]) == 0
    for name in ("semantic", "perception", "grounding"):
        assert (models_dir / f"{name}.json").exists()

    assert cli.main(["evaluate", "--corpus", str(corpus_path),
                     "--models", str(models_dir)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith(("train:", "held-out:"))]
    assert len(lines) == 2

    assert cli.main(["generate-world", "--site", "site-1",
                     "--out", str(obs_path)]) == 0
    assert len(load_observations(obs_path)) == 60

    assert cli.main(["ground",
                     "--instruction", "go to the farthest cup in the kitchen",
                     "--models", str(models_dir),
                     "--observations", str(obs_path),
                     "--mode", "OF_AP"]) == 0
    out = capsys.readouterr().out
    assert "grounding: action[navigate_to:" in out

    assert cli.main(["benchmark", "--models", str(models_dir),
                     "--out", str(csv_path),
                     "--audit", str(audit_path)]) == 0
    rows = list(csv.reader(csv_path.open()))
    assert len(rows) == 25
    assert len(json.loads(audit_path.read_text())) == 24

    assert cli.main(["dump-registry", "--out", str(registry_path)]) == 0
    assert load_registry(registry_path) == default_registry()


def test_evaluate_prints_no_rate_for_an_empty_split(tmp_path, capsys, corpus_examples):
    # With --fraction 1.0 the held-out split is empty: 0 of 0 is no score.
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_examples[:20], corpus_path)
    models = Path(__file__).parent / "data" / "seed7_models"
    assert cli.main(["evaluate", "--corpus", str(corpus_path), "--models", str(models),
                     "--fraction", "1.0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "train: 20 examples | semantic 1.000 | perception 1.000 | action 1.000",
        "held-out: 0 examples | semantic n/a | perception n/a | action n/a"]


def test_missing_input_exits_one(tmp_path):
    missing = tmp_path / "nope.jsonl"
    code = cli.main(["train", "--corpus", str(missing),
                     "--out", str(tmp_path / "models")])
    assert code == 1


def test_domain_error_exits_one(tmp_path, bundle, capsys):
    models_dir = tmp_path / "models"
    bundle.save(models_dir)
    code = cli.main(["ground", "--instruction", "fetch me a sandwich",
                     "--models", str(models_dir), "--site", "site-1"])
    assert code == 1
    assert "OutOfGrammar" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["not-a-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["generate-corpus"])  # missing required --out
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["generate-corpus", "generate-world",
                                     "train", "evaluate"])
def test_negative_seed_exits_two_without_traceback(
        command, tmp_path, corpus_examples, capsys):
    # A negative seed reached numpy's ValueError after the corpus was read.
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_examples[:20], corpus_path)
    args = {
        "generate-corpus": ["--out", str(tmp_path / "out.jsonl")],
        "generate-world": ["--out", str(tmp_path / "out.jsonl")],
        "train": ["--corpus", str(corpus_path), "--out", str(tmp_path / "out")],
        "evaluate": ["--corpus", str(corpus_path), "--models", str(tmp_path / "models")],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, *args, "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


# SHA-256 of what each writer writes for the default registry and seeds.
@pytest.mark.parametrize("args, digest", [
    (["generate-corpus"], "b3cb84115adb1c531fa5646fe7bd33c26c264edb38dfd03d875ed10185925b97"),
    (["generate-world", "--site", "site-1"],
     "24b7b81272a239f43997db4919377817eadfe2293202712f29f58053e30c102c"),
    (["generate-world", "--site", "site-2"],
     "c9f1a23fa304d0de5d86ab604464cf18e1ba2c5e2f609cf1bcd0ad85f331b4e1"),
    (["dump-registry"], "74577db8b0d4b5b54611f39b74c9aed4dbdb7a450297d15622ffb7fd0218a920"),
], ids=["corpus", "site-1", "site-2", "registry"])
def test_writers_write_the_pinned_bytes(args, digest, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("site, rough, digest", [
    ("site-1", False, "651a7db0ebaad9edbb655c8eb8d6fecc74286b025286cef8f47a2b458b52fb78"),
    ("site-1", True, "63186c7fe0e4cb5fd4524b526f5b7085c75c870f76f9c04e0e875d0055146aca"),
    ("site-2", False, "5580c9b06b80770238355128ec89b1e524245c2d91743cb28b5200f41255107a"),
    ("site-2", True, "9f2773d1294dbbc80f760b6e1ba1a22596bfd61b02c3483a051435db466d2e5d"),
], ids=["site-1", "site-1-rough", "site-2", "site-2-rough"])
def test_long_logs_write_the_pinned_bytes(site, rough, digest, tmp_path):
    # Each site tiled x8, exact and at noise 0.2 with clutter 0.3.
    spec = tiled(site_spec(site), 8)
    if rough:
        spec = replace(spec, noise=0.2, clutter_rate=0.3)
    out = tmp_path / "log.jsonl"
    save_observations(simulate(spec, default_registry()), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["-1", "inf", "nan"])
def test_train_rejects_a_negative_or_non_finite_regularization(
        value, tmp_path, corpus_examples, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_examples[:20], corpus_path)
    assert cli.main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"),
                     f"--regularization={value}"]) == 1
    assert capsys.readouterr().err.startswith("InvalidSpec: regularization must be")
    assert not (tmp_path / "out").exists()
    defaults = cli.build_parser().parse_args(["train", "--corpus", "c", "--out", "o"])
    assert defaults.regularization == DEFAULT_REGULARIZATION


def test_custom_registry_flows_through(tmp_path, capsys):
    registry_path = tmp_path / "registry.yaml"
    assert cli.main(["dump-registry", "--out", str(registry_path)]) == 0
    out_path = tmp_path / "corpus.jsonl"
    assert cli.main(["--registry", str(registry_path),
                     "generate-corpus", "--out", str(out_path)]) == 0
    assert out_path.exists()


def _encoded(content):
    return content if isinstance(content, bytes) else content.encode()


def _rewrite_jsonl(path, record_index, edit):
    """Apply ``edit`` to the JSON record on line ``record_index`` (header is 0)."""
    lines = path.read_bytes().splitlines()
    lines[record_index] = _encoded(edit(json.loads(lines[record_index])))
    path.write_bytes(b"\n".join(lines) + b"\n")


def _drop(key):
    return lambda record: json.dumps({k: v for k, v in record.items() if k != key})


def _set(key, value):
    return lambda record: json.dumps({**record, key: value})


def _nan_rel(record):
    sensed = [{**record["sensed"][0], "rel": [float("nan"), 0.0, 0.0]}]
    return json.dumps({**record, "sensed": sensed})


def _first_weight(value):
    def edit(doc):
        name = next(iter(doc["weights"]))
        return json.dumps({**doc, "weights": {**doc["weights"], name: value}})
    return edit


def _not_utf8(record):
    return b'{"t": "\xff\xfe"}'


def _schema(value):
    """Declare schema ``value`` in a registry's text or a JSON document."""
    def edit(doc):
        if isinstance(doc, str):
            return doc.replace(f"schema: {REGISTRY_SCHEMA}", f"schema: {value}")
        return json.dumps({**doc, "schema": value})
    edit.error = "UnknownSchemaVersion"
    return edit


@pytest.mark.parametrize("command, broken, edit", [
    ("ground", "observations", lambda record: "{not json"),
    ("ground", "observations", _drop("robot_pose")),
    ("ground", "models", _drop("weights")),
    ("evaluate", "corpus", _drop("text")),
    ("train", "corpus", lambda record: '{"uid": "x",'),
    ("ground", "observations", _nan_rel),
    ("ground", "observations", _set("t", 1)),
    ("ground", "observations", _not_utf8),
    ("ground", "models", _not_utf8),
    ("train", "corpus", _not_utf8),
    ("ground", "registry", lambda record: "a: [1, 2"),
    ("ground", "registry", _not_utf8),
    ("ground", "directory", None),
    ("ground", "observations", _set("scene_label", "bathroom")),
    ("train", "corpus", _set("text", 5)),
    ("train", "corpus", _set("superlative", "biggest")),
    ("train", "corpus", _set("noun", "dragon")),
    ("train", "corpus", lambda record: json.dumps(
        {**record, "color": "red", "text": "walk to the farthest red microwave"})),
    ("ground", "observations", _set("t", "x")),
    ("ground", "models", _first_weight(True)),
    ("ground", "registry", lambda text: text.replace(
        "scene_cost_per_observation: 0.2", "scene_cost_per_observation: .nan")),
    ("ground", "corpus-as-log", None),
    ("ground", "registry", _schema(2)),
    ("ground", "observations-header", _schema(9)),
    ("ground", "models", _schema(9)),
    ("train", "corpus-header", _schema(9)),
    ("generate-corpus", "registry", lambda text: text.replace(
        "colors:\n- " + "\n- ".join(DEFAULT_COLORS), "colors: []")),
    ("generate-corpus", "registry", lambda text: text.replace("\n- cup\n", "\n- Cup\n")),
], ids=["obs-not-json", "obs-no-robot-pose", "model-no-weights",
        "corpus-no-text", "corpus-bad-json", "obs-nan-rel", "obs-repeated-t",
        "obs-not-utf8", "model-not-utf8", "corpus-not-utf8",
        "registry-bad-yaml", "registry-not-utf8", "obs-directory",
        "obs-unknown-scene-label", "corpus-int-text",
        "corpus-superlative-off-text", "corpus-noun-off-text",
        "corpus-template-off-slots", "obs-string-t", "model-bool-weight",
        "registry-nan-scene-cost", "corpus-as-observations", "registry-schema-2",
        "obs-schema-9", "model-schema-9", "corpus-schema-9", "registry-no-colors",
        "registry-upper-case-class"])
def test_malformed_input_exits_one_without_traceback(
        command, broken, edit, tmp_path, bundle, site_logs, corpus_examples):
    models_dir = tmp_path / "models"
    bundle.save(models_dir)
    obs_path = tmp_path / "site1.jsonl"
    save_observations(site_logs["site-1"][:3], obs_path)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_examples[:20], corpus_path)
    registry_path = tmp_path / "registry.yaml"
    options = []
    if broken == "models":
        model_path = models_dir / "semantic.json"
        model_path.write_bytes(_encoded(edit(json.loads(model_path.read_text()))))
        named = f"{model_path}:"
    elif broken == "registry":
        save_registry(default_registry(), registry_path)
        registry_path.write_bytes(_encoded(edit(registry_path.read_text())))
        options = ["--registry", str(registry_path)]
        named = f"{registry_path}:"
    elif broken == "directory":
        obs_path = tmp_path / "logs"
        obs_path.mkdir()
        named = f"{obs_path}:"
    elif broken == "corpus-as-log":
        obs_path = corpus_path
        named = f"{corpus_path}:"
    else:
        path = obs_path if broken.startswith("observations") else corpus_path
        header = broken.endswith("-header")
        _rewrite_jsonl(path, 0 if header else 1, edit)
        named = f"{path}:" if header else f"{path} line "

    args = {
        "ground": ["--instruction", "go to the nearest ball",
                   "--models", str(models_dir), "--observations", str(obs_path)],
        "evaluate": ["--corpus", str(corpus_path), "--models", str(models_dir)],
        "train": ["--corpus", str(corpus_path), "--out", str(tmp_path / "out")],
        "generate-corpus": ["--out", str(tmp_path / "generated.jsonl")],
    }[command]
    src = Path(groundling.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "groundling", *options, command, *args],
        capture_output=True, text=True, env=env)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    expected = (f"{obs_path}: " if broken == "directory"
                else f"{getattr(edit, 'error', 'InvalidSpec')}: ")
    assert done.stderr.startswith(expected)
    # Every error names the file, and a JSON-lines file's line.
    assert named in done.stderr


def test_closed_stdout_exits_one_without_traceback(tmp_path, bundle):
    bundle.save(tmp_path / "models")
    src = Path(groundling.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command prints
    try:
        done = subprocess.run(
            [sys.executable, "-m", "groundling", "benchmark",
             "--models", str(tmp_path / "models")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr
