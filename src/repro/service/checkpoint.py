"""Checkpoint persistence: engine state that survives a crash.

The engine emits :class:`~repro.core.engine.EngineCheckpoint` values via
its ``on_checkpoint`` callback; :class:`CheckpointManager` writes them to
disk (atomically — temp file + rename) and reads them back so a killed
job resumes exactly where it stopped.

Code matrices are stored as base64 of a zlib stream of their C-order
int64 bytes, with the shape alongside.  Readers accept a stream of any
zlib level; writers use level 1, which costs about a sixth of the
default level for ~1.5x the bytes.  Migrant blobs (``islands``) share
this codec.  A job's consecutive checkpoints mostly hold the same
individuals, so a :class:`CodesMemo` keeps each encoded matrix of the
last save and the next save encodes only matrices that are new.
Corrupt codes (bad base64 or zlib, a byte length that does not match
the shape) raise :class:`~repro.exceptions.ServiceError` naming the
file or blob they came from.

A checkpoint records a caller-chosen configuration fingerprint (the job
service stamps the job's content hash, engine-level callers typically the
evaluator's ``config_fingerprint()``); loading under a different
fingerprint is refused rather than silently producing scores that mean
something else.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import zlib
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from repro.core.engine import EngineCheckpoint
from repro.core.history import GenerationRecord
from repro.core.individual import Individual
from repro.data.dataset import CategoricalDataset
from repro.exceptions import ServiceError
from repro.obs import trace
from repro.service.cache import score_from_dict, score_to_dict
from repro.service.store import _atomic_write_json

FORMAT_VERSION = 1


def _encode_codes(codes: np.ndarray) -> dict:
    raw = np.ascontiguousarray(codes, dtype=np.int64).tobytes()
    return {
        "shape": list(codes.shape),
        "data": base64.b64encode(zlib.compress(raw, 1)).decode("ascii"),
    }


def _decode_codes(payload: dict, source: str) -> np.ndarray:
    try:
        shape = [int(n) for n in payload["shape"]]
        raw = zlib.decompress(base64.b64decode(payload["data"], validate=True))
    except (KeyError, TypeError, ValueError, binascii.Error, zlib.error) as exc:
        raise ServiceError(f"corrupt code matrix in {source}: {exc}") from None
    if min(shape, default=0) < 0 or len(raw) != math.prod(shape) * 8:
        raise ServiceError(
            f"corrupt code matrix in {source}: {len(raw)} bytes do not fill "
            f"an int64 matrix of shape {shape}"
        )
    return np.frombuffer(raw, dtype=np.int64).reshape(shape)


class CodesMemo:
    """The encoded code matrices of a job's last checkpoint.

    Keyed by ``id(dataset.codes)``.  A dataset's code matrix is a
    read-only copy made at construction, so one id means one content,
    and the memo holds each array so its id cannot be reused while the
    entry lives.  Every :func:`checkpoint_to_dict` call prunes the memo
    to the matrices of the checkpoint it writes; ``encoded`` and
    ``reused`` count that call's distinct matrices.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[np.ndarray, dict]] = {}
        self.encoded = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[np.ndarray]:
        return (codes for codes, _ in self._entries.values())

    def start_save(self) -> Callable[[np.ndarray], dict]:
        """An encoder for one checkpoint; the memo keeps what it encodes."""
        previous = self._entries
        live: dict[int, tuple[np.ndarray, dict]] = {}
        self._entries = live
        self.encoded = self.reused = 0

        def encode(codes: np.ndarray) -> dict:
            entry = live.get(id(codes))
            if entry is None:
                entry = previous.get(id(codes))
                if entry is None:
                    entry = (codes, _encode_codes(codes))
                    self.encoded += 1
                else:
                    self.reused += 1
                live[id(codes)] = entry
            return entry[1]

        return encode


def _individual_to_dict(
    individual: Individual, encode: Callable[[np.ndarray], dict] | None = None
) -> dict:
    codes = individual.dataset.codes
    return {
        "name": individual.dataset.name,
        "origin": individual.origin,
        "birth_generation": individual.birth_generation,
        "codes": _encode_codes(codes) if encode is None else encode(codes),
        "evaluation": score_to_dict(individual.evaluation),
    }


def _individual_from_dict(
    payload: dict, reference: CategoricalDataset, source: str
) -> Individual:
    codes = _decode_codes(payload["codes"], source)
    dataset = reference.with_codes(codes, name=payload["name"])
    return Individual(
        dataset=dataset,
        evaluation=score_from_dict(payload["evaluation"]),
        origin=payload["origin"],
        birth_generation=payload["birth_generation"],
    )


def _record_to_dict(record: GenerationRecord) -> dict:
    return {
        "generation": record.generation,
        "operator": record.operator,
        "max_score": record.max_score,
        "mean_score": record.mean_score,
        "min_score": record.min_score,
        "evaluations": record.evaluations,
        "fitness_seconds": record.fitness_seconds,
        "other_seconds": record.other_seconds,
        "accepted": record.accepted,
    }


def checkpoint_to_dict(
    checkpoint: EngineCheckpoint,
    fingerprint: str = "",
    memo: CodesMemo | None = None,
) -> dict:
    """JSON-ready representation of a full engine checkpoint.

    Each distinct code matrix is encoded once (individuals that share a
    dataset share its entry).  A ``memo`` carried across a job's saves
    also skips matrices the previous save encoded; the result is the
    same either way.
    """
    encode = (CodesMemo() if memo is None else memo).start_save()
    return {
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "generation": checkpoint.generation,
        "rng_state": checkpoint.rng_state,
        "initial": [_individual_to_dict(ind, encode) for ind in checkpoint.initial],
        "individuals": [_individual_to_dict(ind, encode) for ind in checkpoint.individuals],
        "records": [_record_to_dict(r) for r in checkpoint.records],
    }


def checkpoint_from_dict(
    payload: dict,
    reference: CategoricalDataset,
    expected_fingerprint: str = "",
    source: str = "checkpoint",
) -> EngineCheckpoint:
    """Rebuild an :class:`EngineCheckpoint` from :func:`checkpoint_to_dict`.

    ``reference`` supplies the schema the protected files are decoded
    against (any dataset schema-compatible with the run's original).
    When ``expected_fingerprint`` is given and the checkpoint carries a
    fingerprint, the two must match.  ``source`` names the file or blob
    in errors.
    """
    if payload.get("version") != FORMAT_VERSION:
        raise ServiceError(f"unsupported checkpoint version: {payload.get('version')!r}")
    written_under = payload.get("fingerprint", "")
    if expected_fingerprint and written_under and written_under != expected_fingerprint:
        raise ServiceError(
            "checkpoint was written under a different evaluator configuration; "
            "refusing to resume (scores would not be comparable)"
        )
    return EngineCheckpoint(
        generation=payload["generation"],
        initial=[_individual_from_dict(p, reference, source) for p in payload["initial"]],
        individuals=[
            _individual_from_dict(p, reference, source) for p in payload["individuals"]
        ],
        records=[GenerationRecord(**r) for r in payload["records"]],
        rng_state=payload["rng_state"],
    )


class CheckpointManager:
    """Owns one checkpoint file: atomic saves, verified loads.

    Install :meth:`save` as the engine's ``on_checkpoint`` callback (the
    job runner does this automatically when given a checkpoint
    directory).
    """

    def __init__(self, path: str | Path, fingerprint: str = "") -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.saves = 0
        self.memo = CodesMemo()

    def exists(self) -> bool:
        """True when a checkpoint file is present on disk."""
        return self.path.exists()

    def save(self, checkpoint: EngineCheckpoint) -> None:
        """Atomically persist ``checkpoint`` (unique temp file + rename)."""
        with trace.span("repro.checkpoint.save") as span:
            payload = checkpoint_to_dict(checkpoint, self.fingerprint, self.memo)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_json(self.path, payload)
            span.set(encoded=self.memo.encoded, reused=self.memo.reused,
                     bytes=self.path.stat().st_size)
        self.saves += 1

    def load(self, reference: CategoricalDataset) -> EngineCheckpoint:
        """Read the checkpoint back, decoding against ``reference``'s schema."""
        if not self.exists():
            raise ServiceError(f"no checkpoint at {self.path}")
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ServiceError(f"corrupt checkpoint {self.path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError(f"corrupt checkpoint {self.path}: not a JSON object")
        return checkpoint_from_dict(payload, reference, self.fingerprint, source=str(self.path))

    def delete(self) -> None:
        """Remove the checkpoint file if present."""
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointManager({str(self.path)!r}, saves={self.saves})"
