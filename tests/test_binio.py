"""Every artifact loader shares binio's container checks: a malformed file
raises binio.FormatError naming it instead of a low-level error or a
silent load."""
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


def _split(path):
    """(header, value bytes) of the container at ``path``, unchecked."""
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data, 8)
    return json.loads(data[16:16 + hlen]), data[16 + hlen:]


def _join(path, version, header, values):
    """Write a container with exactly ``header`` (no "kind" or "shapes" added)."""
    blob = binio.encode_header(header)
    path.write_bytes(binio.MAGIC + struct.pack("<IQ", version, len(blob)) + blob + values)


def _short(path, kind, version):
    # The last value loses 3 of its 8 bytes; a selection, which has no
    # values, loses the end of its header.
    path.write_bytes(path.read_bytes()[:-3])


def _meta_past_end(path, kind, version):
    # The length of the header, the file's meta, runs past the file's end.
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<Q", len(data)) + data[16:])


def _wrong_blob_size(path, kind, version):
    path.write_bytes(path.read_bytes() + bytes(8))  # trailing bytes


def _bad_shapes(path, kind, version):
    header, values = _split(path)
    header["shapes"] = [str(shape) for shape in header["shapes"]] or "[]"
    _join(path, version, header, values)


def _count_mismatch(path, kind, version):
    # One array fewer than the ids (or weights) it stands for; a selection
    # gets one array, where it has none.
    header, arrays = binio.read_container(path, kind, version)
    binio.write_container(path, kind, version, header, arrays[:-1] if arrays else [np.zeros(2)])


@pytest.mark.parametrize("corrupt", [_short, _meta_past_end, _wrong_blob_size, _bad_shapes,
                                     _count_mismatch])
@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_loader_rejects_malformed_record(tmp_path, rng, kind, corrupt):
    write, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    write(path, rng)
    load(path)
    corrupt(path, kind, version)
    with pytest.raises(binio.FormatError, match=f"^{re.escape(str(path))}: corrupted record"):
        load(path)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_other_version_refused_before_parsing(tmp_path, kind):
    # A stale file needs only its version number to be refused: nothing
    # after it is read, so this one has no header at all.
    _, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    path.write_bytes(binio.MAGIC + struct.pack("<IQ", version - 1, 99))
    with pytest.raises(binio.VersionError, match=re.escape(
            f"{path}: version mismatch (file {version - 1}, expected {version})")):
        load(path)


def test_corpus_transcript_count_checked(tmp_path, rng):
    path = tmp_path / "artifact"
    _write_corpus(path, rng)
    header, features = binio.read_container(path, "corpus", CORPUS_FORMAT_VERSION)
    binio.write_container(path, "corpus", CORPUS_FORMAT_VERSION,
                          {**header, "transcripts": header["transcripts"][:1]}, features)
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (1 transcripts for 2 ids)")):
        load_corpus(path)


@pytest.mark.parametrize("header", [b'["x"]', b'"posteriors"', b"3", b"null",
                                    b"\xff\xfe{", b'{"kind":"\xff"}'])
def test_non_object_header_rejected(tmp_path, header):
    path = tmp_path / "artifact"
    path.write_bytes(binio.MAGIC + struct.pack("<IQ", 1, len(header)) + header)
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (bad header)")):
        binio.read_container(path, "posteriors", 1)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_header_missing_keys_rejected(tmp_path, rng, kind):
    write, load, version = ARTIFACTS[kind]
    path = tmp_path / "artifact"
    write(path, rng)
    _, arrays = binio.read_container(path, kind, version)
    binio.write_container(path, kind, version, {}, arrays)   # header is {"kind", "shapes"}
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (header has no '")):
        load(path)


@pytest.mark.parametrize("missing", ["id", "winning_teacher", "per_teacher_scores",
                                     "pseudo_transcript", "sequence_confidence"])
def test_selection_outcome_missing_keys_rejected(tmp_path, rng, missing):
    path = tmp_path / "artifact"
    _write_selection(path, rng)
    header, _ = binio.read_container(path, "selection", SELECTION_FORMAT_VERSION)
    del header["outcomes"][1][missing]
    binio.write_container(path, "selection", SELECTION_FORMAT_VERSION, header)
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
    header, _ = binio.read_container(path, "selection", SELECTION_FORMAT_VERSION)
    header["outcomes"] = outcomes
    binio.write_container(path, "selection", SELECTION_FORMAT_VERSION, header)
    with pytest.raises(binio.FormatError, match=f"^{re.escape(str(path))}: corrupted record"):
        load_selection(path)


# Each blob holds as many floats as the shape [frames, width] multiplies
# out to, so the byte count alone would accept every one of these.
@pytest.mark.parametrize("frames, floats, width", [(0.5, 2, 4), (True, 4, 4), (-1, 0, 0),
                                                   ("1", 4, 4)])
def test_non_integer_frames_rejected(tmp_path, frames, floats, width):
    path = tmp_path / "artifact"
    _join(path, 1, {"kind": "posteriors", "shapes": [[frames, width]]}, bytes(8 * floats))
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (bad shapes)")):
        binio.read_container(path, "posteriors", 1)


@pytest.mark.parametrize("missing", [8, 3])  # one float short, and not a whole float
def test_checkpoint_blob_size_checked(tmp_path, rng, missing):
    path = tmp_path / "model.ekdm"
    _write_checkpoint(path, rng)
    path.write_bytes(path.read_bytes()[:-missing])
    with pytest.raises(binio.FormatError, match=re.escape(f"{path}: corrupted record (blob size")):
        load_checkpoint(path)


def test_checkpoint_record_rows_checked(tmp_path, rng):
    # A bias stored as [2, out] is a whole container, but not the layout
    # the checkpoint's config implies.
    path = tmp_path / "model.ekdm"
    _write_checkpoint(path, rng)
    header, weights = binio.read_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION)
    weights[1] = np.zeros((2, 4))
    binio.write_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION, header, weights)
    with pytest.raises(binio.FormatError,
                       match=re.escape(f"{path}: corrupted record (weight layout")):
        load_checkpoint(path)
