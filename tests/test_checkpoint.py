"""Binary checkpoint format: round-trips and corruption detection."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmvi.checkpoint import (
    MAGIC,
    VERSION,
    apply_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from dmvi.errors import ParseError, ShapeError
from dmvi.experiment import ExperimentConfig
from dmvi.models import PARTS, build_bundle
from dmvi.rng import RngStream

import references


def _sample_tensors():
    rng = RngStream(0)
    return {
        "enc.fc0.W": rng.normal((4, 8)),
        "enc.fc0.b": np.zeros(8),
        "scalar": np.array(3.5),
        "empty_name_ok": rng.normal((2, 2, 2)),
    }


def test_roundtrip_bitwise(tmp_path):
    p = str(tmp_path / "model.ckpt")
    tensors = _sample_tensors()
    save_checkpoint(p, tensors, b"confighash")
    loaded, h = load_checkpoint(p)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name],
                              np.asarray(tensors[name], dtype=np.float64))
    assert h == b"confighash".ljust(32, b"\0")


def test_roundtrip_preserves_exact_bits(tmp_path):
    p = str(tmp_path / "bits.ckpt")
    vals = np.array([0.1, -0.0, np.pi, 1e-300, 1e300])
    save_checkpoint(p, {"v": vals}, b"")
    loaded, _ = load_checkpoint(p)
    assert loaded["v"].tobytes() == vals.tobytes()


def test_header_layout(tmp_path):
    p = tmp_path / "hdr.ckpt"
    save_checkpoint(str(p), {"a": np.zeros(3)}, b"\xab" * 32)
    raw = p.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<I", raw[4:8])[0] == VERSION
    assert raw[8:40] == b"\xab" * 32
    assert struct.unpack("<I", raw[40:44])[0] == 1
    # Trailing 32 bytes are the digest of everything before them.
    assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()


def test_streamed_writer_matches_the_joined_bytes(tmp_path):
    # save_checkpoint writes and hashes each piece where it lies; the file
    # is byte for byte the one built as a single joined string.
    rng = RngStream(9)
    wide = rng.normal((6, 5))
    tensors = {
        "rank0": np.array(-2.25),
        "empty": np.zeros((0, 3)),
        "empty.inner": np.zeros((4, 0, 2)),
        "transposed": wide.T,
        "strided": wide[::2, 1::2],
        "listed": [[1, 2], [3, 4]],
        "név": rng.normal((3,)),
    }
    assert not tensors["transposed"].flags.c_contiguous
    path = tmp_path / "c.ckpt"
    for config_hash in (b"", bytes(range(40))):
        save_checkpoint(str(path), tensors, config_hash)
        assert path.read_bytes() == references.joined_checkpoint(
            tensors, config_hash)
    save_checkpoint(str(path), {}, b"h")
    assert path.read_bytes() == references.joined_checkpoint({}, b"h")


def test_flipped_byte_detected(tmp_path):
    p = tmp_path / "flip.ckpt"
    save_checkpoint(str(p), _sample_tensors(), b"")
    raw = bytearray(p.read_bytes())
    raw[60] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="digest mismatch"):
        load_checkpoint(str(p))


def test_truncated_file_detected(tmp_path):
    p = tmp_path / "trunc.ckpt"
    save_checkpoint(str(p), _sample_tensors(), b"")
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ParseError):
        load_checkpoint(str(p))


def test_tiny_file_rejected(tmp_path):
    p = tmp_path / "tiny.ckpt"
    p.write_bytes(b"DMVI")
    with pytest.raises(ParseError, match="too short"):
        load_checkpoint(str(p))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "magic.ckpt"
    body = b"XXXX" + struct.pack("<I", VERSION) + b"\0" * 32 + struct.pack("<I", 0)
    p.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ParseError, match="bad magic"):
        load_checkpoint(str(p))


def test_unknown_version_rejected(tmp_path):
    p = tmp_path / "v2.ckpt"
    body = MAGIC + struct.pack("<I", 99) + b"\0" * 32 + struct.pack("<I", 0)
    p.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ParseError, match="version 99"):
        load_checkpoint(str(p))


def test_error_messages_carry_offsets(tmp_path):
    # Declare one tensor but stop before its payload; the reader should say
    # where it ran out.
    p = tmp_path / "short.ckpt"
    body = (MAGIC + struct.pack("<I", VERSION) + b"\0" * 32
            + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"w"
            + struct.pack("<I", 1) + struct.pack("<Q", 10))
    p.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ParseError, match="offset"):
        load_checkpoint(str(p))


def test_apply_checkpoint_restores_parameters(tmp_path):
    cfg = ExperimentConfig(latent=3, hidden=8, batch=4, seed=5)
    bundle = build_bundle(cfg, data_dim=6, rng=RngStream(5),
                          parts=PARTS["vae"])
    saved = {k: v.data.copy() for k, v in bundle.named_parameters().items()}
    p = str(tmp_path / "b.ckpt")
    save_checkpoint(p, saved, b"")
    # Perturb, then restore.
    for t in bundle.named_parameters().values():
        t.data += 1.0
    tensors, _ = load_checkpoint(p)
    apply_checkpoint(bundle, tensors)
    for k, v in bundle.named_parameters().items():
        assert np.array_equal(v.data, saved[k])


def test_apply_checkpoint_shape_mismatch(tmp_path):
    cfg = ExperimentConfig(latent=3, hidden=8, batch=4, seed=5)
    bundle = build_bundle(cfg, data_dim=6, rng=RngStream(5),
                          parts=PARTS["vae"])
    tensors = {k: np.zeros((1, 1)) for k in bundle.named_parameters()}
    with pytest.raises(ShapeError, match="does not match"):
        apply_checkpoint(bundle, tensors)


def test_apply_checkpoint_missing_tensor():
    cfg = ExperimentConfig(latent=3, hidden=8, batch=4, seed=5)
    bundle = build_bundle(cfg, data_dim=6, rng=RngStream(5),
                          parts=PARTS["vae"])
    with pytest.raises(ShapeError, match="missing"):
        apply_checkpoint(bundle, {})


# ---------------------------------------------------------------------------
# Properties, over generated tensors and corruptions. Derandomized so the
# suite draws the same examples on every run.

_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

# Any float64 bit pattern, NaN payloads and signed zeros included, at ranks
# 0 to 3 with possibly empty extents.
_float_bits = (hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
               .flatmap(lambda shape: hnp.arrays(np.uint64, shape))
               .map(lambda a: a.view(np.float64)))


def _corruptions(raw: bytes):
    """Every proper prefix of ``raw``, and ``raw`` with one byte flipped."""
    truncated = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    flipped = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)).map(
        lambda im: raw[:im[0]] + bytes([raw[im[0]] ^ im[1]]) + raw[im[0] + 1:])
    return truncated | flipped


@_PROPERTY
@given(tensors=st.dictionaries(st.text(max_size=6), _float_bits, max_size=4),
       config_hash=st.binary(max_size=31) | st.binary(min_size=32, max_size=40))
def test_roundtrip_bitwise_property(prop_dir, tensors, config_hash):
    p = str(prop_dir / "rt.ckpt")
    save_checkpoint(p, tensors, config_hash)
    loaded, h = load_checkpoint(p)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
    assert h == config_hash[:32].ljust(32, b"\0")


@_PROPERTY
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_parse_error(prop_dir, data):
    p = prop_dir / "corrupt.ckpt"
    save_checkpoint(str(p), _sample_tensors(), b"confighash")
    p.write_bytes(data.draw(_corruptions(p.read_bytes())))
    with pytest.raises(ParseError):
        load_checkpoint(str(p))


@_PROPERTY
@given(name=st.binary(max_size=8))
@example(name=b"\xff\xfe")
def test_any_name_bytes_under_a_valid_digest(prop_dir, name):
    # The digest vouches only for the bytes; a name that is not UTF-8 is
    # still a malformed file.
    body = (MAGIC + struct.pack("<I", VERSION) + b"\0" * 32
            + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<I", 0) + struct.pack("<d", 2.5))
    p = prop_dir / "names.ckpt"
    p.write_bytes(body + hashlib.sha256(body).digest())
    try:
        text = name.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(ParseError, match="not UTF-8"):
            load_checkpoint(str(p))
    else:
        tensors, _ = load_checkpoint(str(p))
        assert list(tensors) == [text] and tensors[text] == 2.5
