"""The sharded fleet through the CLI: submit/worker/status/top/serve/migrate."""

from __future__ import annotations

import json

from repro.cli import main
from repro.service import ProtectionJob, ShardedJobStore, store_from_spec


def _spec(tmp_path) -> str:
    return (f"shard:sqlite:{tmp_path / 'a.sqlite'},"
            f"sqlite:{tmp_path / 'b.sqlite'}")


def _store(tmp_path) -> ShardedJobStore:
    return store_from_spec(_spec(tmp_path), state_dir=tmp_path / "spool")


class TestShardedFleetCli:
    def test_detached_submit_lands_on_rendezvous_homes(self, tmp_path, capsys):
        # Placement hashes shard names; fixed names (not spec strings
        # holding the tmp path) make the split the same on every run.
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({"shards": [
            {"name": "shard-a", "spec": f"sqlite:{tmp_path / 'a.sqlite'}"},
            {"name": "shard-b", "spec": f"sqlite:{tmp_path / 'b.sqlite'}"},
        ]}), encoding="utf-8")
        spec = f"shard:@{manifest}"
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seeds", "1,2,3,4", "--detach",
                     "--store", spec,
                     "--state-dir", str(tmp_path / "spool")]) == 0
        assert "queued 4 job(s)" in capsys.readouterr().out
        store = store_from_spec(spec, state_dir=tmp_path / "spool")
        records = store.records()
        assert len(records) == 4
        homes = {store.shard_name_for(r.job_id) for r in records}
        assert len(homes) == 2  # four seeds spread over both shards

    def test_worker_once_drains_both_shards(self, tmp_path, capsys):
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seeds", "1,2", "--detach", "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        capsys.readouterr()
        assert main(["worker", "--once", "--no-cache", "--capacity", "2",
                     "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        assert "ran 2 job(s)" in capsys.readouterr().out
        store = _store(tmp_path)
        assert all(r.status == "completed" for r in store.records())
        assert store.claimed_job_ids() == []

    def test_status_shows_a_shard_column(self, tmp_path, capsys):
        store = _store(tmp_path)
        job = ProtectionJob(dataset="flare", generations=2, seed=5)
        store.submit(job)
        assert main(["status", "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert f"sqlite:{tmp_path / 'a.sqlite'}" in out or \
            f"sqlite:{tmp_path / 'b.sqlite'}" in out

    def test_status_json_carries_the_shard(self, tmp_path, capsys):
        store = _store(tmp_path)
        job = ProtectionJob(dataset="flare", generations=2, seed=5)
        store.submit(job)
        assert main(["status", "--json", "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["shard"] == store.shard_name_for(job.job_id)
        capsys.readouterr()
        assert main(["status", "--json", "--job", job.job_id,
                     "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        single = json.loads(capsys.readouterr().out)
        assert single["shard"] == store.shard_name_for(job.job_id)

    def test_top_groups_by_shard(self, tmp_path, capsys):
        store = _store(tmp_path)
        for seed in range(6):
            store.submit(ProtectionJob(dataset="flare", generations=2,
                                       seed=seed))
        assert main(["top", "--json", "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap["shards"]) == set(store.shard_names)
        assert sum(s["queued"] for s in snap["shards"].values()) == 6
        assert all(s["available"] for s in snap["shards"].values())
        capsys.readouterr()
        assert main(["top", "--store", _spec(tmp_path),
                     "--state-dir", str(tmp_path / "spool")]) == 0
        rendered = capsys.readouterr().out
        assert "shards" in rendered and "queued" in rendered

    def test_migrate_single_store_into_fleet_with_progress(self, tmp_path,
                                                           capsys):
        source = store_from_spec(f"sqlite:{tmp_path / 'old.sqlite'}")
        for seed in range(5):
            source.submit(ProtectionJob(dataset="flare", generations=2,
                                        seed=seed))
        assert main(["migrate", "--from", f"sqlite:{tmp_path / 'old.sqlite'}",
                     "--to", _spec(tmp_path), "--chunk-size", "2",
                     "--log-json"]) == 0
        captured = capsys.readouterr()
        assert "migrated 5 job record(s)" in captured.out
        progress = [json.loads(line) for line in captured.err.splitlines()
                    if '"migrate_progress"' in line]
        assert [p["records"] for p in progress] == [2, 4, 5]
        assert len(_store(tmp_path).records()) == 5


class TestServeShardOf:
    def test_serves_the_indexed_child_of_the_fleet_spec(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.service.netstore.JobStoreServer.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        assert main(["serve", "--port", "0", "--token", "t",
                     "--shard-of", _spec(tmp_path), "--shard-index", "1"]) == 0
        out = capsys.readouterr().out
        assert f"serving shard 1 (sqlite:{tmp_path / 'b.sqlite'})" in out
        assert (tmp_path / "b.sqlite").exists()
        assert not (tmp_path / "a.sqlite").exists()

    def test_accepts_a_manifest_and_bare_bodies(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(
            "repro.service.netstore.JobStoreServer.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({"shards": [
            {"name": "east", "spec": f"sqlite:{tmp_path / 'east.sqlite'}"},
        ]}), encoding="utf-8")
        assert main(["serve", "--port", "0", "--token", "t",
                     "--shard-of", f"@{manifest}"]) == 0
        assert "serving shard 0 (east)" in capsys.readouterr().out

    def test_rejects_out_of_range_index(self, tmp_path, capsys):
        code = main(["serve", "--shard-of", _spec(tmp_path),
                     "--shard-index", "7"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_rejects_http_children(self, tmp_path, capsys):
        code = main(["serve",
                     "--shard-of", "shard:http://fleet:8642,sqlite:a.db"])
        assert code == 2
        assert "already served" in capsys.readouterr().err

    def test_rejects_db_and_state_dir(self, tmp_path, capsys):
        code = main(["serve", "--shard-of", _spec(tmp_path),
                     "--db", str(tmp_path / "x.sqlite")])
        assert code == 2
        assert "--shard-of" in capsys.readouterr().err
