"""Checkpoint/resume: bit-identical continuation of an interrupted run."""

from __future__ import annotations

import base64
import json
import zlib

import numpy as np
import pytest

from repro.core import EngineCheckpoint, EvolutionaryProtector
from repro.core.operators import mutate
from repro.exceptions import EvolutionError, ServiceError
from repro.metrics import ProtectionEvaluator
from repro.obs import trace
from repro.service import (
    CheckpointManager,
    JobStore,
    ProtectionJob,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import CodesMemo, _individual_to_dict
from repro.service.islands import (
    MIGRANTS_BLOB_VERSION,
    island_group_id,
    migrants_blob_id,
    plan_island_jobs,
    publish_migrants,
    read_round_migrants,
)

TOTAL_GENERATIONS = 24
INTERRUPT_AT = 10
CHECKPOINT_EVERY = 5


@pytest.fixture()
def evaluator(tiny_dataset):
    return ProtectionEvaluator(tiny_dataset, tiny_dataset.attribute_names)


@pytest.fixture()
def protections(tiny_dataset):
    rng = np.random.default_rng(9)
    return [
        mutate(tiny_dataset, tiny_dataset.attribute_names, seed=rng, name=f"p{i}")
        for i in range(8)
    ]


def _history_signature(history):
    # Timing fields are wall-clock noise; everything else must match.
    return [
        (r.generation, r.operator, r.max_score, r.mean_score, r.min_score,
         r.evaluations, r.accepted)
        for r in history.records
    ]


def _population_signature(result):
    return [(ind.dataset.fingerprint(), ind.score) for ind in result.population]


class TestCheckpointResumeEquivalence:
    def test_resume_matches_uninterrupted_run(self, evaluator, protections, tiny_dataset, tmp_path):
        straight = EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=TOTAL_GENERATIONS
        )

        checkpoints: list[EngineCheckpoint] = []
        interrupted = EvolutionaryProtector(evaluator, seed=5).run(
            protections,
            stopping=INTERRUPT_AT,
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=checkpoints.append,
        )
        assert len(interrupted.history) == INTERRUPT_AT
        assert checkpoints[-1].generation == INTERRUPT_AT

        # Round-trip the final checkpoint through disk, like a real crash.
        manager = CheckpointManager(
            tmp_path / "run.json", fingerprint=evaluator.config_fingerprint()
        )
        manager.save(checkpoints[-1])
        restored = manager.load(tiny_dataset)

        resumed = EvolutionaryProtector(evaluator, seed=5).resume(
            restored, stopping=TOTAL_GENERATIONS
        )
        assert len(resumed.history) == TOTAL_GENERATIONS
        assert _history_signature(resumed.history) == _history_signature(straight.history)
        assert _population_signature(resumed) == _population_signature(straight)
        assert resumed.best.score == straight.best.score

    def test_checkpoint_cadence(self, evaluator, protections):
        checkpoints: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=12, checkpoint_every=5, on_checkpoint=checkpoints.append
        )
        # Every interval plus the final partial one.
        assert [c.generation for c in checkpoints] == [5, 10, 12]

    def test_no_checkpoints_when_disabled(self, evaluator, protections):
        checkpoints: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=4, checkpoint_every=0, on_checkpoint=checkpoints.append
        )
        assert checkpoints == []

    def test_negative_cadence_rejected(self, evaluator, protections):
        with pytest.raises(EvolutionError):
            EvolutionaryProtector(evaluator, seed=5).run(
                protections, stopping=2, checkpoint_every=-1
            )

    def test_resume_rejects_empty_population(self, evaluator):
        empty = EngineCheckpoint(
            generation=0, initial=[], individuals=[], records=[], rng_state={}
        )
        with pytest.raises(EvolutionError):
            EvolutionaryProtector(evaluator, seed=5).resume(empty)


class TestCheckpointSerde:
    def _checkpoint(self, evaluator, protections):
        captured: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=3).run(
            protections, stopping=6, checkpoint_every=3, on_checkpoint=captured.append
        )
        return captured[-1]

    def test_dict_roundtrip(self, evaluator, protections, tiny_dataset):
        checkpoint = self._checkpoint(evaluator, protections)
        back = checkpoint_from_dict(checkpoint_to_dict(checkpoint), tiny_dataset)
        assert back.generation == checkpoint.generation
        assert back.rng_state == checkpoint.rng_state
        assert len(back.individuals) == len(checkpoint.individuals)
        for restored, original in zip(back.individuals, checkpoint.individuals):
            assert restored.dataset.fingerprint() == original.dataset.fingerprint()
            assert restored.evaluation == original.evaluation
        assert [r.generation for r in back.records] == [
            r.generation for r in checkpoint.records
        ]

    def test_fingerprint_mismatch_refused(self, evaluator, protections, tiny_dataset, tmp_path):
        checkpoint = self._checkpoint(evaluator, protections)
        CheckpointManager(tmp_path / "ck.json", fingerprint="config-a").save(checkpoint)
        with pytest.raises(ServiceError, match="different evaluator configuration"):
            CheckpointManager(tmp_path / "ck.json", fingerprint="config-b").load(tiny_dataset)

    def test_unknown_version_refused(self, tiny_dataset):
        with pytest.raises(ServiceError, match="version"):
            checkpoint_from_dict({"version": 99}, tiny_dataset)

    def test_missing_file_refused(self, tiny_dataset, tmp_path):
        manager = CheckpointManager(tmp_path / "absent.json")
        assert not manager.exists()
        with pytest.raises(ServiceError, match="no checkpoint"):
            manager.load(tiny_dataset)

    def test_delete(self, evaluator, protections, tmp_path):
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(self._checkpoint(evaluator, protections))
        assert manager.exists()
        manager.delete()
        assert not manager.exists()


def _plain_v1_decode(entry):
    """The v1 rule any reader applies: zlib stream -> C-order int64."""
    raw = zlib.decompress(base64.b64decode(entry["data"]))
    return np.frombuffer(raw, dtype=np.int64).reshape(entry["shape"])


def _default_level_encode(codes):
    """Codes as earlier writers stored them: zlib at the default level."""
    raw = np.ascontiguousarray(codes, dtype=np.int64).tobytes()
    return {"shape": list(codes.shape),
            "data": base64.b64encode(zlib.compress(raw)).decode("ascii")}


def _distinct_ids(checkpoint):
    return {id(ind.dataset.codes)
            for ind in [*checkpoint.initial, *checkpoint.individuals]}


@pytest.fixture()
def two_checkpoints(evaluator, protections):
    captured: list[EngineCheckpoint] = []
    EvolutionaryProtector(evaluator, seed=3).run(
        protections, stopping=10, checkpoint_every=5, on_checkpoint=captured.append
    )
    return captured


class TestCodesMemo:
    @pytest.fixture()
    def encodes(self, monkeypatch):
        seen: list[int] = []
        real = checkpoint_module._encode_codes

        def counting(codes):
            seen.append(id(codes))
            return real(codes)

        monkeypatch.setattr(checkpoint_module, "_encode_codes", counting)
        return seen

    def test_first_save_encodes_each_distinct_matrix_once(self, two_checkpoints, encodes):
        first = two_checkpoints[0]
        shared = {id(ind.dataset.codes) for ind in first.initial} & {
            id(ind.dataset.codes) for ind in first.individuals
        }
        assert shared  # initial and individuals share survivors
        memo = CodesMemo()
        checkpoint_to_dict(first, memo=memo)
        assert sorted(encodes) == sorted(_distinct_ids(first))
        assert (memo.encoded, memo.reused) == (len(_distinct_ids(first)), 0)

    def test_second_save_encodes_only_new_matrices(self, two_checkpoints, encodes):
        first, second = two_checkpoints
        memo = CodesMemo()
        checkpoint_to_dict(first, memo=memo)
        encodes.clear()
        checkpoint_to_dict(second, memo=memo)
        new = _distinct_ids(second) - _distinct_ids(first)
        assert new  # the run moved on between the saves
        assert sorted(encodes) == sorted(new)
        assert memo.encoded == len(new)
        assert memo.reused == len(_distinct_ids(second) & _distinct_ids(first))

    def test_memo_holds_exactly_the_live_matrices(self, two_checkpoints):
        memo = CodesMemo()
        for checkpoint in two_checkpoints:
            checkpoint_to_dict(checkpoint, memo=memo)
            assert {id(codes) for codes in memo} == _distinct_ids(checkpoint)
            assert len(memo) == memo.encoded + memo.reused

    def test_memo_output_equals_memo_less_output(self, two_checkpoints):
        memo = CodesMemo()
        for checkpoint in two_checkpoints:
            with_memo = json.dumps(checkpoint_to_dict(checkpoint, "fp", memo))
            assert with_memo == json.dumps(checkpoint_to_dict(checkpoint, "fp"))

    def test_manager_reuses_its_memo_and_resumes_bit_identically(
        self, evaluator, protections, tiny_dataset, tmp_path
    ):
        straight = EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=TOTAL_GENERATIONS
        )
        manager = CheckpointManager(tmp_path / "run.json", fingerprint="fp")
        EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=INTERRUPT_AT,
            checkpoint_every=CHECKPOINT_EVERY, on_checkpoint=manager.save,
        )
        assert manager.saves == 2
        assert manager.memo.reused > 0
        resumed = EvolutionaryProtector(evaluator, seed=5).resume(
            manager.load(tiny_dataset), stopping=TOTAL_GENERATIONS
        )
        assert _history_signature(resumed.history) == _history_signature(straight.history)
        assert _population_signature(resumed) == _population_signature(straight)


class TestCodesFormat:
    def test_level_one_output_decodes_by_the_plain_v1_rule(self, two_checkpoints):
        checkpoint = two_checkpoints[-1]
        payload = checkpoint_to_dict(checkpoint)
        for entry, ind in zip(payload["individuals"], checkpoint.individuals):
            # zlib header 78 01: deflate, 32K window, fastest level.
            assert base64.b64decode(entry["codes"]["data"])[:2] == b"\x78\x01"
            decoded = _plain_v1_decode(entry["codes"])
            assert decoded.dtype == np.int64
            assert np.array_equal(decoded, ind.dataset.codes)

    def test_default_level_checkpoint_loads(self, two_checkpoints, tiny_dataset):
        checkpoint = two_checkpoints[-1]
        payload = checkpoint_to_dict(checkpoint, "fp")
        for entry, ind in zip(
            [*payload["initial"], *payload["individuals"]],
            [*checkpoint.initial, *checkpoint.individuals],
        ):
            entry["codes"] = _default_level_encode(ind.dataset.codes)
        back = checkpoint_from_dict(json.loads(json.dumps(payload)), tiny_dataset, "fp")
        assert [ind.dataset.fingerprint() for ind in back.individuals] == [
            ind.dataset.fingerprint() for ind in checkpoint.individuals
        ]
        assert [ind.dataset.fingerprint() for ind in back.initial] == [
            ind.dataset.fingerprint() for ind in checkpoint.initial
        ]

    def test_default_level_migrant_blob_loads(self, two_checkpoints, tiny_dataset, tmp_path):
        store = JobStore(tmp_path / "store")
        job = plan_island_jobs(ProtectionJob(dataset="flare", generations=10, seed=7),
                               2, migrate_every=5, migrants=2)[0]
        elites = two_checkpoints[-1].individuals[:2]
        entries = []
        for ind in elites:
            entry = _individual_to_dict(ind)
            entry["codes"] = _default_level_encode(ind.dataset.codes)
            entries.append(entry)
        store.put_checkpoint(migrants_blob_id(job.job_id), {
            "version": MIGRANTS_BLOB_VERSION, "group": island_group_id(job),
            "island": job.island_index, "topology": job.topology,
            "rounds": {"1": {"generation": 5, "migrants": entries}},
        })
        back = read_round_migrants(store, job.job_id, island_group_id(job), 1, tiny_dataset)
        assert [ind.dataset.fingerprint() for ind in back] == [
            ind.dataset.fingerprint() for ind in elites
        ]


class TestCorruptCodes:
    @pytest.fixture()
    def saved(self, two_checkpoints, tmp_path):
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(two_checkpoints[-1])
        return manager

    def _corrupt(self, manager, **codes):
        payload = json.loads(manager.path.read_text(encoding="utf-8"))
        payload["individuals"][0]["codes"].update(codes)
        manager.path.write_text(json.dumps(payload), encoding="utf-8")

    def test_bad_base64(self, saved, tiny_dataset):
        self._corrupt(saved, data="not base64!")
        with pytest.raises(ServiceError, match="corrupt code matrix in .*ck.json"):
            saved.load(tiny_dataset)

    def test_bad_zlib(self, saved, tiny_dataset):
        self._corrupt(saved, data=base64.b64encode(b"not a zlib stream").decode())
        with pytest.raises(ServiceError, match="corrupt code matrix in .*ck.json"):
            saved.load(tiny_dataset)

    def test_length_does_not_match_shape(self, saved, tiny_dataset):
        payload = json.loads(saved.path.read_text(encoding="utf-8"))
        rows, cols = payload["individuals"][0]["codes"]["shape"]
        self._corrupt(saved, shape=[rows + 1, cols])
        with pytest.raises(ServiceError, match="do not fill"):
            saved.load(tiny_dataset)

    def test_malformed_json(self, saved, tiny_dataset):
        saved.path.write_text('{"version": 1, "initial": [', encoding="utf-8")
        with pytest.raises(ServiceError, match="corrupt checkpoint .*ck.json"):
            saved.load(tiny_dataset)

    def test_corrupt_migrant_blob_names_the_blob(self, two_checkpoints, tiny_dataset, tmp_path):
        store = JobStore(tmp_path / "store")
        job = plan_island_jobs(ProtectionJob(dataset="flare", generations=10, seed=7),
                               2, migrate_every=5, migrants=2)[0]
        publish_migrants(store, job, 1, 5, two_checkpoints[-1].individuals)
        blob_id = migrants_blob_id(job.job_id)
        payload = store.get_checkpoint(blob_id)
        payload["rounds"]["1"]["migrants"][0]["codes"]["data"] = "%%%"
        store.put_checkpoint(blob_id, payload)
        with pytest.raises(ServiceError, match=f"migrant blob {blob_id}"):
            read_round_migrants(store, job.job_id, island_group_id(job), 1, tiny_dataset)


class TestSaveSpan:
    @pytest.fixture(autouse=True)
    def quiet_tracer(self):
        trace.disable_tracing()
        yield
        trace.disable_tracing()

    def test_span_reports_encodes_and_bytes_and_changes_no_byte(self, two_checkpoints, tmp_path):
        plain = CheckpointManager(tmp_path / "plain.json")
        traced = CheckpointManager(tmp_path / "traced.json")
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id()) as scope:
            for checkpoint in two_checkpoints:
                traced.save(checkpoint)
        trace.disable_tracing()
        for checkpoint in two_checkpoints:
            plain.save(checkpoint)
        assert traced.path.read_bytes() == plain.path.read_bytes()
        spans = [s for s in scope.collected if s["name"] == "repro.checkpoint.save"]
        assert len(spans) == 2
        first, second = (s["attrs"] for s in spans)
        assert first["reused"] == 0 and first["encoded"] == len(_distinct_ids(two_checkpoints[0]))
        assert second["encoded"] + second["reused"] == len(_distinct_ids(two_checkpoints[1]))
        assert second["bytes"] == traced.path.stat().st_size
