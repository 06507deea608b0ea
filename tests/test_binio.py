"""Every artifact loader shares binio's record checks: a malformed record
raises binio.FormatError instead of a low-level error or a silent load."""
import json
import re
import struct

import numpy as np
import pytest

from ekd import binio
from ekd.corpus import CORPUS_FORMAT_VERSION, Corpus, Utterance, load_corpus, save_corpus
from ekd.model import (CHECKPOINT_FORMAT_VERSION, ModelConfig, init_model, load_checkpoint,
                       save_checkpoint)
from ekd.selection import (POSTERIORS_FORMAT_VERSION, SELECTION_FORMAT_VERSION, Strategy,
                           TeacherBundle, load_posteriors, load_selection, save_posteriors,
                           save_selection, select_corpus)
from ekd.vocab import default_vocabulary

from conftest import random_posteriors


def _write_corpus(path, rng):
    utts = [Utterance(f"u{i}", rng.normal(size=(3 + i, 2)), np.array([1, 2])) for i in range(2)]
    save_corpus(Corpus("c", default_vocabulary("ab"), utts), path)


def _write_posteriors(path, rng):
    save_posteriors(path, [random_posteriors(rng, 3 + i, 4, f"u{i}") for i in range(2)],
                    "teacher_x", "hash123")


def _write_selection(path, rng):
    bundles = [TeacherBundle(f"u{i}", [random_posteriors(rng, 4, 4, f"u{i}") for _ in range(2)])
               for i in range(2)]
    save_selection(path, select_corpus(Strategy.ELITIST, bundles, 0), "hash123")


def _write_checkpoint(path, rng):
    save_checkpoint(init_model(ModelConfig(hidden_sizes=(4,)), 2, 3, "hash123"), path)


ARTIFACTS = {
    "checkpoint": (_write_checkpoint, load_checkpoint, CHECKPOINT_FORMAT_VERSION),
    "corpus": (_write_corpus, load_corpus, CORPUS_FORMAT_VERSION),
    "posteriors": (_write_posteriors, load_posteriors, POSTERIORS_FORMAT_VERSION),
    "selection": (_write_selection, load_selection, SELECTION_FORMAT_VERSION),
}


def _short(records):
    return [b"\x01\x02\x03", *records[1:]]


def _meta_past_end(records):
    rec = records[0]
    return [struct.pack("<Q", len(rec)) + rec[8:], *records[1:]]


def _wrong_blob_size(records):
    return [records[0][:-8], *records[1:]]


def _count_mismatch(records):
    return records[:-1]


# A selection file has no records, so its one corruption is a record at all.
@pytest.mark.parametrize("kind, corrupt", [
    *((kind, corrupt) for kind in sorted(ARTIFACTS) if kind != "selection"
      for corrupt in (_short, _meta_past_end, _wrong_blob_size, _count_mismatch)),
    ("selection", _short)])
def test_loader_rejects_malformed_record(tmp_path, rng, kind, corrupt):
    write, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    write(path, rng)
    load(path)
    header, records = binio.read_container(path, kind, version)
    binio.write_container(path, kind, version, header, corrupt(records))
    with pytest.raises(binio.FormatError, match="corrupted record"):
        load(path)


@pytest.mark.parametrize("header", [b'["x"]', b'"posteriors"', b"3", b"null",
                                    b"\xff\xfe{", b'{"kind":"\xff"}'])
def test_non_object_header_rejected(tmp_path, header):
    path = tmp_path / "artifact"
    path.write_bytes(binio.MAGIC + struct.pack("<IQ", 1, len(header)) + header
                     + struct.pack("<Q", 0))
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (bad header)")):
        binio.read_container(path, "posteriors", 1)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_header_missing_keys_rejected(tmp_path, rng, kind):
    write, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    write(path, rng)
    _, records = binio.read_container(path, kind, version)
    binio.write_container(path, kind, version, {}, records)   # header is {"kind": kind}
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (header has no '")):
        load(path)


@pytest.mark.parametrize("kind, kept, missing", [("corpus", {"id"}, "transcript"),
                                                 ("posteriors", set(), "id")])
def test_record_meta_missing_keys_rejected(tmp_path, rng, kind, kept, missing):
    write, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    write(path, rng)
    header, records = binio.read_container(path, kind, version)
    (mlen,) = struct.unpack("<Q", records[0][:8])
    meta = json.loads(records[0][8:8 + mlen])
    blob = binio.encode_header({k: v for k, v in meta.items() if k in kept | {"frames"}})
    records[0] = struct.pack("<Q", len(blob)) + blob + records[0][8 + mlen:]
    binio.write_container(path, kind, version, header, records)
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (record 0 has no {missing!r})")):
        load(path)


@pytest.mark.parametrize("missing", ["id", "winning_teacher", "per_teacher_scores",
                                     "pseudo_transcript", "sequence_confidence"])
def test_selection_outcome_missing_keys_rejected(tmp_path, rng, missing):
    path = tmp_path / "artifact"
    _write_selection(path, rng)
    header, records = binio.read_container(path, "selection", SELECTION_FORMAT_VERSION)
    del header["outcomes"][1][missing]
    binio.write_container(path, "selection", SELECTION_FORMAT_VERSION, header, records)
    message = f"{path}: corrupted record (an outcome has no {missing!r})"
    with pytest.raises(binio.FormatError, match=re.escape(message)):
        load_selection(path)


@pytest.mark.parametrize("outcomes", [7, [7], ["u0"], [{"id": "u0", "winning_teacher": 0,
                                                         "per_teacher_scores": [0.5],
                                                         "pseudo_transcript": "ab",
                                                         "sequence_confidence": 0.5}]])
def test_selection_malformed_outcomes_rejected(tmp_path, rng, outcomes):
    path = tmp_path / "artifact"
    _write_selection(path, rng)
    header, records = binio.read_container(path, "selection", SELECTION_FORMAT_VERSION)
    header["outcomes"] = outcomes
    binio.write_container(path, "selection", SELECTION_FORMAT_VERSION, header, records)
    with pytest.raises(binio.FormatError, match=f"^{re.escape(str(path))}: corrupted record"):
        load_selection(path)


def test_bad_meta_json_rejected(tmp_path):
    meta = b"{not json"
    rec = struct.pack("<Q", len(meta)) + meta
    with pytest.raises(binio.FormatError, match="bad meta"):
        binio.decode_records(tmp_path / "x", [rec], [3])


# Each blob holds 2 floats at width 4 (0.5 rows) or 0 floats at width 0, so
# the byte count alone would accept every one of these.
@pytest.mark.parametrize("frames, floats, width", [(0.5, 2, 4), (True, 4, 4), (-1, 0, 0),
                                                   ("1", 4, 4)])
def test_non_integer_frames_rejected(tmp_path, frames, floats, width):
    meta = binio.encode_header({"frames": frames})
    rec = struct.pack("<Q", len(meta)) + meta + np.zeros(floats, dtype="<f8").tobytes()
    with pytest.raises(binio.FormatError, match=re.escape("corrupted record (bad meta)")):
        binio.decode_records(tmp_path / "x", [rec], [width])


@pytest.mark.parametrize("missing", [8, 3])  # one float short, and not a whole float
def test_checkpoint_blob_size_checked(tmp_path, rng, missing):
    path = tmp_path / "model.ekdm"
    _write_checkpoint(path, rng)
    header, records = binio.read_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION)
    records[2] = records[2][:-missing]  # the second weight matrix
    binio.write_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION, header, records)
    with pytest.raises(binio.FormatError, match=re.escape(f"{path}: corrupted record (blob size)")):
        load_checkpoint(path)


def test_checkpoint_record_rows_checked(tmp_path, rng):
    # A bias rewritten as [2, out] passes the blob-size check for 2 rows.
    path = tmp_path / "model.ekdm"
    _write_checkpoint(path, rng)
    header, records = binio.read_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION)
    records[1] = binio.encode_record({}, np.zeros((2, 4)))
    binio.write_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION, header, records)
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (weight 1 has 2 rows")):
        load_checkpoint(path)
