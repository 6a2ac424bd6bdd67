"""Fuzzed JSON artifacts through the CLI: every outcome is exit 0, or exit 1
with an ``error:`` line; a traceback fails the test. A ``pathways.json`` left
by an exit 0 must be strict JSON: no ``NaN`` or ``Infinity``.

Each artifact is mutated by a truncation plus byte flips, by replacing one
node of its decoded JSON document with another JSON value, or by setting
every float in that document to one out-of-range value. The corpus
is a hand-made graph of six entities, so that a mutated ``d_max`` or
``top_k`` cannot make a run long.
"""

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from riskpath.cli import main

_ENTITIES = [("p1", "physical"), ("p2", "physical"), ("s1", "social"),
             ("s2", "social"), ("e1", "economic"), ("e2", "economic")]
_TRIPLES = [("p1", "s1", "d1"), ("s1", "e1", "d1"), ("p2", "s2", "d2"),
            ("s2", "e2", "d2"), ("s1", "e2", "d3"), ("p1", "s2", "d3"),
            ("e1", "s1", "d4"), ("s2", "p1", "d4")]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=4)

# what a float field should never hold; json.dumps writes Infinity and NaN
_BAD_FLOATS = st.sampled_from([float("inf"), float("-inf"), float("nan"), -5.0, 1.5])

_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def done_workdir(tmp_path_factory):
    """A finished pipeline run on the six-entity corpus, plus its inputs."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "entities.jsonl").write_text("".join(
        json.dumps({"name": name, "layer": layer, "severity": 0.8, "aliases": []}) + "\n"
        for name, layer in _ENTITIES))
    (root / "triples.jsonl").write_text("".join(
        json.dumps({"s": s, "p": "raises", "o": o, "doc": doc}) + "\n"
        for s, o, doc in _TRIPLES))
    config = {"triples": str(root / "triples.jsonl"),
              "entities": str(root / "entities.jsonl"),
              "retry_base_delay": 0.0,
              "scoring": {"theta_novelty": 0.0, "d_max": 3}}
    (root / "cfg.json").write_text(json.dumps(config, indent=2))
    workdir = root / "work"
    assert main(["pipeline", "run", "--config", str(root / "cfg.json"),
                 "--workdir", str(workdir)]) == 0
    assert json.loads((workdir / "pathways.json").read_text())["pathways"]
    return workdir


def _mutate(data, raw: bytes) -> bytes:
    """Draw one mutation of a JSON file's bytes."""
    kind = data.draw(st.sampled_from(["node", "floats", "bytes"]), label="kind")
    if kind == "floats":
        value = data.draw(_BAD_FLOATS, label="value")
        return json.dumps(json.loads(raw, parse_float=lambda _: value),
                          indent=2).encode("utf-8")
    if kind == "node":
        doc = json.loads(raw)
        nodes = [(None, None)]  # (container, key) pairs; (None, None) is the root
        stack = [doc]
        while stack:
            node = stack.pop()
            items = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                nodes.append((node, key))
                stack.append(child)
        container, key = data.draw(st.sampled_from(nodes), label="node")
        value = data.draw(_JSON_VALUES, label="value")
        if container is None:
            doc = value
        else:
            container[key] = value
        return json.dumps(doc, indent=2).encode("utf-8")
    out = bytearray(raw)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                         st.integers(1, 255)), max_size=4), label="flips")
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out[:data.draw(st.integers(0, len(raw)), label="cut")])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@contextlib.contextmanager
def _example_dir(tmp_path):
    """A new directory for one example, removed when it ends. Rewriting or
    renaming over a file makes ext4 write it to disk, and removing it later
    waits for that; a file only created and removed within one example
    costs no such wait."""
    path = Path(tempfile.mkdtemp(dir=tmp_path))
    try:
        yield path
    finally:
        shutil.rmtree(path)


def _exits_cleanly(capsys, argv, pathways=None) -> None:
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and "error: " in err), (code, err)
    if code == 0 and pathways is not None and pathways.exists():
        json.loads(pathways.read_text(encoding="utf-8"), parse_constant=_reject_constant)


class TestFuzzedJsonArtifacts:
    @pytest.mark.parametrize("name", ["config.json", "manifest.json"])
    @given(data=st.data())
    @_FUZZ
    def test_pipeline_resume(self, done_workdir, tmp_path, capsys, name, data):
        with _example_dir(tmp_path) as root:
            workdir = root / "work"
            shutil.copytree(done_workdir, workdir)
            (workdir / name).write_bytes(_mutate(data, (done_workdir / name).read_bytes()))
            _exits_cleanly(capsys, ["pipeline", "resume", "--workdir", str(workdir)],
                           workdir / "pathways.json")

    @given(data=st.data())
    @_FUZZ
    def test_discover_pagerank_json(self, done_workdir, tmp_path, capsys, data):
        with _example_dir(tmp_path) as workdir:
            shutil.copy(done_workdir / "graph.rpkg", workdir)
            raw = (done_workdir / "pagerank.json").read_bytes()
            (workdir / "pagerank.json").write_bytes(_mutate(data, raw))
            _exits_cleanly(capsys, ["discover", str(workdir)], workdir / "pathways.json")

    @given(data=st.data())
    @_FUZZ
    def test_discover_scoring_config(self, done_workdir, tmp_path, capsys, data):
        raw = json.dumps({"theta_novelty": 0.0, "d_max": 3, "top_k": 5,
                          "fmax_mode": "edge-max"}, indent=2).encode("utf-8")
        with _example_dir(tmp_path) as workdir:
            for name in ("graph.rpkg", "pagerank.json"):
                shutil.copy(done_workdir / name, workdir)
            config = workdir / "scoring.json"
            config.write_bytes(_mutate(data, raw))
            _exits_cleanly(capsys, ["discover", str(workdir), "--config", str(config)],
                           workdir / "pathways.json")

    @given(data=st.data())
    @_FUZZ
    def test_export_pathways(self, done_workdir, tmp_path, capsys, data):
        with _example_dir(tmp_path) as root:
            pathways = root / "pathways.json"
            pathways.write_bytes(_mutate(data, (done_workdir / "pathways.json").read_bytes()))
            _exits_cleanly(capsys, ["export", str(done_workdir), "--pathways", str(pathways),
                                    "--out", str(root / "out.dot")])
