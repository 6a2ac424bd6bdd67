import fcntl
import json
import logging
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from riskpath import (
    CentralityScores,
    CorpusStats,
    GenSpec,
    Layer,
    PipelineError,
    PlantedChain,
    ScoringConfig,
    TransientStageError,
    discover,
    generate,
    load_snapshot,
)
import riskpath.graph as graph_module
import riskpath.pipeline as pipeline
from riskpath.pipeline import (
    PipelineConfig,
    classify_error,
    resume,
    retry_policy,
    run,
)
from riskpath.syngen import write_corpus

CHAIN = PlantedChain((Layer.PHYSICAL, Layer.SOCIAL, Layer.ECONOMIC), attestations=1)


def make_config(tmp_path, **overrides) -> PipelineConfig:
    spec = GenSpec(n_docs=60, seed=11, entities_per_layer=25,
                   planted_chains=(CHAIN,), background_noise=1.5)
    paths = write_corpus(generate(spec), tmp_path / "corpus")
    params = dict(
        triples=str(paths["triples"]),
        entities=str(paths["entities"]),
        scoring=ScoringConfig(theta_novelty=0.5),
        retry_base_delay=0.0,
    )
    params.update(overrides)
    return PipelineConfig(**params)


class TestRetryPolicy:
    def test_classification(self):
        assert classify_error(TransientStageError("disk hiccup")) == "transient"
        assert classify_error(OSError("io")) == "transient"
        assert classify_error(ValueError("bad")) == "permanent"
        assert classify_error(PipelineError("nope")) == "permanent"

    def test_backoff_doubles(self):
        err = TransientStageError("x")
        assert retry_policy(err, 1, 3, 0.5) == (True, 0.5)
        assert retry_policy(err, 2, 3, 0.5) == (True, 1.0)
        assert retry_policy(err, 3, 3, 0.5) == (True, 2.0)
        assert retry_policy(err, 4, 3, 0.5) == (False, 0.0)

    def test_permanent_fails_fast(self):
        assert retry_policy(ValueError("x"), 1) == (False, 0.0)


class TestRun:
    def test_fresh_run_completes_all_stages(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert summary.skipped == []
        for record in summary.records:
            assert record.status == "done"
            assert record.attempts == 1
            for name in record.output_paths:
                assert (workdir / name).exists()
        assert (workdir / "pathways.json").exists()
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert [r["stage_name"] for r in manifest] == [
            "ingest", "pagerank", "discover", "report"]
        for name in ("entities.json", "relations.json", "corpus_stats.json"):
            assert not (workdir / name).exists()

    def test_pipeline_output_equals_library_calls(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        graph = load_snapshot(workdir / "graph.rpkg")
        stats = CorpusStats.from_graph(graph)
        centrality = CentralityScores.from_dict(
            json.loads((workdir / "pagerank.json").read_text()))
        expected = discover(graph, stats, centrality, config.scoring,
                            workers=config.workers).to_json_dict(graph)
        assert json.loads((workdir / "pathways.json").read_text()) == expected

    def test_rerun_skips_everything(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = {name: (workdir / name).stat().st_mtime_ns
                  for name in ("graph.rpkg", "pathways.json")}
        summary = run(config, workdir)
        assert summary.executed == []
        assert summary.skipped == list(pipeline.STAGE_ORDER)
        after = {name: (workdir / name).stat().st_mtime_ns
                 for name in ("graph.rpkg", "pathways.json")}
        assert before == after

    def test_theta_change_reruns_only_discover_and_report(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        changed = make_config(tmp_path,
                              scoring=ScoringConfig(theta_novelty=0.55))
        summary = run(changed, workdir)
        assert summary.skipped == ["ingest", "pagerank"]
        assert summary.executed == ["discover", "report"]

    @staticmethod
    def corrupt_and_rerun(tmp_path, artifact):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = {name: (workdir / name).read_bytes()
                  for name in ("graph.rpkg", "pagerank.json", "pathways.json")}
        (workdir / artifact).write_bytes(b"garbage")
        summary = run(config, workdir)
        # artifact restored and downstream consistent again
        for name, data in before.items():
            assert (workdir / name).read_bytes() == data, name
        return summary

    def test_corrupted_intermediate_reruns_stage_and_downstream(self, tmp_path):
        summary = self.corrupt_and_rerun(tmp_path, "graph.rpkg")
        assert summary.skipped == []
        assert summary.executed == ["ingest", "pagerank", "discover", "report"]

    def test_corrupted_pagerank_reruns_stage_and_downstream(self, tmp_path):
        summary = self.corrupt_and_rerun(tmp_path, "pagerank.json")
        assert summary.skipped == ["ingest"]
        assert summary.executed == ["pagerank", "discover", "report"]

    def test_five_stage_manifest_reruns_everything(self, tmp_path):
        # a workdir left by the layout with a separate build stage and JSON
        # intermediates: its ingest record names other outputs
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        before = (workdir / "pathways.json").read_bytes()
        manifest = json.loads((workdir / "manifest.json").read_text())
        old_outputs = ["entities.json", "relations.json", "corpus_stats.json",
                       "rejections.jsonl", "parse_errors.jsonl"]
        for name in old_outputs[:3]:
            (workdir / name).write_text("garbage")
        manifest[0]["output_paths"] = old_outputs
        manifest[0]["output_fingerprints"] = [
            pipeline._sha256_file(workdir / name) for name in old_outputs]
        manifest.insert(1, dict(manifest[1], stage_name="build",
                                output_paths=["graph.rpkg"],
                                output_fingerprints=[
                                    pipeline._sha256_file(workdir / "graph.rpkg")]))
        (workdir / "manifest.json").write_text(json.dumps(manifest))
        summary = resume(workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert (workdir / "pathways.json").read_bytes() == before
        rewritten = json.loads((workdir / "manifest.json").read_text())
        assert [r["stage_name"] for r in rewritten] == list(pipeline.STAGE_ORDER)
        for name in old_outputs[:3]:
            assert not (workdir / name).exists(), name

    def test_stale_output_removal_spares_other_files(self, tmp_path):
        # only a bare name that no current stage writes may be removed
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        (workdir / "sub").mkdir()
        spared = [tmp_path / "outside.txt", workdir / "sub" / "x.json"]
        for path in spared:
            path.write_text("keep")
        manifest = json.loads((workdir / "manifest.json").read_text())
        manifest[0]["output_paths"] += [
            "old.json", "../outside.txt", "sub/x.json", str(spared[1]), "sub",
            "..", "config.json", "manifest.json", "pipeline.lock", 7]
        (workdir / "old.json").write_text("stale")
        (workdir / "manifest.json").write_text(json.dumps(manifest))
        summary = resume(workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "old.json").exists()
        assert all(path.read_text() == "keep" for path in spared)
        assert (workdir / "config.json").exists()

    def test_snapshot_of_another_version_reruns_ingest(self, tmp_path, monkeypatch):
        # a workdir written by a release with another snapshot format
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        old = graph_module.SNAPSHOT_VERSION - 1
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "SNAPSHOT_VERSION", old)
            patch.setattr(pipeline, "SNAPSHOT_VERSION", old)
            run(config, workdir)
        changed = make_config(tmp_path, scoring=ScoringConfig(theta_novelty=0.55))
        summary = run(changed, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        load_snapshot(workdir / "graph.rpkg")

    def test_leftover_corpus_stats_is_never_read(self, tmp_path):
        config = make_config(tmp_path)
        clean = tmp_path / "clean"
        run(config, clean)
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "corpus_stats.json").write_text(
            json.dumps({"doc_count": 1, "edge_doc_index": {}}))
        run(config, workdir)
        assert ((workdir / "pathways.json").read_bytes()
                == (clean / "pathways.json").read_bytes())

    def test_path_typed_config_runs(self, tmp_path):
        config = make_config(tmp_path)
        path_config = make_config(tmp_path, triples=Path(config.triples),
                                  entities=Path(config.entities))
        assert path_config == config
        assert isinstance(path_config.triples, str)
        summary = run(path_config, tmp_path / "work")
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert (PipelineConfig.from_json_file(tmp_path / "work" / "config.json")
                == config)

    def test_unconverged_pagerank_warns_once(self, tmp_path, caplog):
        config = make_config(
            tmp_path, scoring=ScoringConfig(theta_novelty=0.5, pr_max_iters=1))
        with caplog.at_level(logging.WARNING, logger="riskpath"):
            run(config, tmp_path / "work")
        # only warnings are captured; ingest may also warn about unregistered names
        assert [r.getMessage() for r in caplog.records if "pagerank" in r.getMessage()
                ] == ["pagerank did not converge in 1 iterations"]

    def test_failure_recorded_in_manifest(self, tmp_path):
        config = make_config(tmp_path)
        config.triples = str(tmp_path / "missing.jsonl")
        workdir = tmp_path / "work"
        with pytest.raises(PipelineError):
            run(config, workdir)
        assert not (workdir / "pipeline.lock").exists()


class TestRetryIntegration:
    def test_transient_error_succeeds_on_second_attempt(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        real = pipeline.STAGES["pagerank"]
        calls = {"n": 0}

        def flaky(cfg, wd):
            calls["n"] += 1
            if calls["n"] < 2:
                raise TransientStageError("injected I/O flake")
            real(cfg, wd)

        monkeypatch.setitem(pipeline.STAGES, "pagerank", flaky)
        summary = run(config, workdir)
        record = next(r for r in summary.records if r.stage_name == "pagerank")
        assert record.status == "done"
        assert record.attempts == 2

    def test_persistent_transient_error_fails_after_limit(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"

        def always_broken(cfg, wd):
            raise TransientStageError("still broken")

        monkeypatch.setitem(pipeline.STAGES, "pagerank", always_broken)
        with pytest.raises(PipelineError, match="4 attempt"):
            run(config, workdir)
        manifest = json.loads((workdir / "manifest.json").read_text())
        record = next(r for r in manifest if r["stage_name"] == "pagerank")
        assert record["status"] == "failed"
        assert record["attempts"] == 4

    def test_validation_error_fails_fast(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"

        def invalid(cfg, wd):
            raise ValueError("bad input shape")

        monkeypatch.setitem(pipeline.STAGES, "ingest", invalid)
        with pytest.raises(PipelineError, match="1 attempt"):
            run(config, workdir)
        manifest = json.loads((workdir / "manifest.json").read_text())
        record = next(r for r in manifest if r["stage_name"] == "ingest")
        assert record["attempts"] == 1


class TestResume:
    def test_resume_without_manifest_is_error(self, tmp_path):
        with pytest.raises(PipelineError, match="resume"):
            resume(tmp_path)

    def test_resume_on_complete_workdir_is_noop(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        run(config, workdir)
        summary = resume(workdir)
        assert summary.executed == []
        assert summary.skipped == list(pipeline.STAGE_ORDER)


def run_pipeline_subprocess(config_path, workdir, crash_at=None):
    env = dict(os.environ)
    env.pop("RISKPATH_TEST_CRASH", None)
    if crash_at:
        env["RISKPATH_TEST_CRASH"] = crash_at
    return subprocess.run(
        [sys.executable, "-m", "riskpath.cli", "pipeline", "run",
         "--config", str(config_path), "--workdir", str(workdir)],
        env=env, capture_output=True, text=True)


class TestCrashResume:
    @pytest.mark.parametrize("crash_at", [
        "after_record:ingest",
        "before_record:pagerank",
        "after_record:pagerank",
        "before_record:discover",
        "after_record:discover",
    ])
    def test_killed_then_resumed_is_byte_identical(self, tmp_path, crash_at):
        config = make_config(tmp_path)
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config.to_dict()))

        clean_dir = tmp_path / "clean"
        proc = run_pipeline_subprocess(config_path, clean_dir)
        assert proc.returncode == 0, proc.stderr

        crash_dir = tmp_path / "crash"
        proc = run_pipeline_subprocess(config_path, crash_dir, crash_at=crash_at)
        assert proc.returncode == 70
        # the interrupted run must not have completed
        manifest = json.loads((crash_dir / "manifest.json").read_text())
        assert (any(r["status"] != "done" for r in manifest)
                or len(manifest) < len(pipeline.STAGE_ORDER))

        summary = resume(crash_dir)
        assert summary.executed, "resume should re-run something"
        for name in ("pathways.json", "graph.rpkg", "report_temporal.json",
                     "report_layers.json"):
            assert (crash_dir / name).read_bytes() == \
                (clean_dir / name).read_bytes(), name


class TestLock:
    def test_live_holder_blocks(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        with open(workdir / "pipeline.lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(PipelineError, match="lock"):
                run(config, workdir)
        assert not (workdir / "manifest.json").exists()

    def test_killed_holder_does_not_block(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, sys\n"
             "fh = open(sys.argv[1], 'w')\n"
             "fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
             "print('locked', flush=True)\n"
             "sys.stdin.read()\n",
             str(workdir / "pipeline.lock")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(PipelineError, match="lock"):
                run(config, workdir)
        finally:
            holder.kill()
            holder.communicate(timeout=60)
        assert holder.returncode == -signal.SIGKILL
        assert (workdir / "pipeline.lock").exists()
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "pipeline.lock").exists()

    def test_stale_lock_taken_over(self, tmp_path):
        config = make_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.mkdir()
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (workdir / "pipeline.lock").write_text(
            json.dumps({"pid": dead.pid, "started_at": 0}))
        summary = run(config, workdir)
        assert summary.executed == list(pipeline.STAGE_ORDER)
        assert not (workdir / "pipeline.lock").exists()


class TestPipelineConfig:
    def test_json_round_trip(self, tmp_path):
        config = make_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert PipelineConfig.from_json_file(path) == config

    def test_missing_required_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"triples": "x"}))
        with pytest.raises(Exception, match="entities"):
            PipelineConfig.from_json_file(path)
