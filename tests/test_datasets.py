"""Toy data generators and the IDX reader."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmvi.datasets import (
    GRID2D_SPACING,
    GRID2D_STD,
    RING_RADII,
    RING_STD,
    SPRITE_SIDE,
    array_digest,
    dataset_generate,
    grid2d_means,
    load_idx,
    make_grid2d,
    make_rings,
    make_sprites,
)
from dmvi.errors import ContractError, ParseError
from dmvi.rng import RngStream
from references import sprites_loop


def test_sprites_shape_and_values():
    x = make_sprites(64, RngStream(0))
    assert x.shape == (64, SPRITE_SIDE * SPRITE_SIDE)
    assert set(np.unique(x)) <= {0.0, 1.0}


def test_sprites_are_bars_or_crosses():
    x = make_sprites(200, RngStream(1)).reshape(-1, SPRITE_SIDE, SPRITE_SIDE)
    for img in x:
        full_rows = np.where(img.min(axis=1) == 1.0)[0]
        full_cols = np.where(img.min(axis=0) == 1.0)[0]
        # Exactly one full row, one full column, or one of each; nothing else
        # is lit.
        assert len(full_rows) <= 1 and len(full_cols) <= 1
        assert len(full_rows) + len(full_cols) >= 1
        expected = np.zeros_like(img)
        for r in full_rows:
            expected[r, :] = 1.0
        for c in full_cols:
            expected[:, c] = 1.0
        assert np.array_equal(img, expected)


def test_sprite_pixel_count():
    x = make_sprites(500, RngStream(2))
    counts = x.sum(axis=1)
    # A bar lights 12 pixels; a cross lights 23 (overlap counted once).
    assert set(np.unique(counts)) <= {float(SPRITE_SIDE),
                                      float(2 * SPRITE_SIDE - 1)}


@pytest.mark.parametrize("n", [1, 2, 512, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_sprites_match_the_per_row_loop(n, seed):
    got = make_sprites(n, RngStream(seed))
    want = sprites_loop(n, RngStream(seed))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sprites_digest_is_pinned():
    # Integer draws and 0/1 pixels only, so the bytes, and with them the
    # data_digest every sprites run records, are the same on any machine.
    assert array_digest(dataset_generate("sprites", 512, 0)) == (
        "d59c298e4ba69461d81cab4c18e908995585332ba4b9d8361e23ce37f03a2f57")


def test_grid2d_means_layout():
    m = grid2d_means()
    assert m.shape == (25, 2)
    assert np.allclose(sorted(set(m[:, 0])),
                       (np.arange(5) - 2) * GRID2D_SPACING)
    assert np.allclose(m.mean(axis=0), [0.0, 0.0])


def test_grid2d_samples_near_means():
    x = make_grid2d(2000, RngStream(3))
    means = grid2d_means()
    d = np.linalg.norm(x[:, None, :] - means[None, :, :], axis=2).min(axis=1)
    # 6 sigma in 2-d; essentially all mass.
    assert d.max() < 6.0 * GRID2D_STD * np.sqrt(2.0)


def test_rings_radii():
    x = make_rings(2000, RngStream(4))
    r = np.linalg.norm(x, axis=1)
    near = np.abs(r[:, None] - np.asarray(RING_RADII)[None, :]).min(axis=1)
    assert near.max() < 6.0 * RING_STD
    # Both rings populated.
    inner = (np.abs(r - RING_RADII[0]) < 6.0 * RING_STD).sum()
    outer = (np.abs(r - RING_RADII[1]) < 6.0 * RING_STD).sum()
    assert inner > 500 and outer > 500


def test_dataset_generate_deterministic_per_kind():
    a = dataset_generate("sprites", 32, 7)
    b = dataset_generate("sprites", 32, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(dataset_generate("grid2d", 32, 7),
                              dataset_generate("grid2d", 32, 8))


def test_dataset_generate_kinds_use_distinct_streams():
    g = dataset_generate("grid2d", 16, 0)
    r = dataset_generate("rings", 16, 0)
    assert not np.array_equal(g, r)


def test_dataset_generate_rejects_bad_input():
    with pytest.raises(ContractError):
        dataset_generate("swirl", 10, 0)
    with pytest.raises(ContractError):
        dataset_generate("sprites", 0, 0)


def test_array_digest_sensitivity():
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert array_digest(a) == array_digest(a.copy())
    assert array_digest(a) != array_digest(a.reshape(3, 2))
    assert array_digest(a) != array_digest(a.astype(np.float32))
    b = a.copy()
    b[0, 0] += 1e-9
    assert array_digest(a) != array_digest(b)


def test_array_digest_of_strided_and_rank_zero_arrays_is_pinned():
    # Hashing the buffer of the C-ordered array gives the digest its bytes
    # gave; both values were taken when the digest hashed ``tobytes()``.
    strided = np.arange(12.0).reshape(3, 4).T[::2]
    assert not strided.flags.c_contiguous
    assert array_digest(strided) == (
        "6f4ce6517220cba9860bdb7fa97fd6a89b38e0a8cea6136051eddc54921bea89")
    assert array_digest(np.array(2.5)) == (
        "c33df8200985b6e6e88644b8a52e588df27632a96c0ad18d05319b46b54abdd8")


# ---------------------------------------------------------------------------
# IDX reader.


def _write_idx(path, dims, payload):
    header = struct.pack(">BBBB", 0, 0, 0x08, len(dims))
    header += struct.pack(f">{len(dims)}I", *dims)
    path.write_bytes(header + payload)


def test_load_idx_roundtrip(tmp_path):
    p = tmp_path / "digits.idx"
    data = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    _write_idx(p, (2, 3, 4), data.tobytes())
    out = load_idx(str(p))
    assert out.shape == (2, 3, 4)
    assert np.allclose(out, data / 255.0)
    assert out.dtype == np.float64


def test_load_idx_truncated_header(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00")
    with pytest.raises(ParseError, match="truncated header"):
        load_idx(str(p))


def test_load_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x01\x00\x08\x01" + b"\x00\x00\x00\x01" + b"\x05")
    with pytest.raises(ParseError, match="offset 0"):
        load_idx(str(p))


def test_load_idx_wrong_type_code(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x0d\x01" + b"\x00\x00\x00\x01" + b"\x00" * 4)
    with pytest.raises(ParseError, match="type code"):
        load_idx(str(p))


def test_load_idx_payload_size_mismatch(tmp_path):
    p = tmp_path / "bad.idx"
    _write_idx(p, (3, 3), b"\x00" * 8)  # needs 9
    with pytest.raises(ParseError, match="require 9"):
        load_idx(str(p))


def test_load_idx_reads_gzip_by_its_magic(tmp_path):
    raw = tmp_path / "digits.idx"
    _write_idx(raw, (2, 3, 4), bytes(range(24)))
    # The name does not say the file is compressed; its first bytes do.
    packed = tmp_path / "digits.bin"
    packed.write_bytes(gzip.compress(raw.read_bytes()))
    assert load_idx(str(packed)).tobytes() == load_idx(str(raw)).tobytes()


def _corrupt_gzip(gz, how):
    if how == "truncated":
        return gz[:len(gz) // 2]
    if how == "crc":
        return gz[:-8] + bytes([gz[-8] ^ 0xFF]) + gz[-7:]
    return gz[:10] + b"\xff" * 20 + gz[30:]        # an invalid deflate block


@pytest.mark.parametrize("how", ["truncated", "crc", "deflate"])
def test_corrupt_gzip_idx_raises_parse_error(tmp_path, how):
    p = tmp_path / "digits.idx.gz"
    _write_idx(p, (4, 50), bytes(range(200)))
    p.write_bytes(_corrupt_gzip(gzip.compress(p.read_bytes()), how))
    with pytest.raises(ParseError, match="corrupt gzip stream"):
        load_idx(str(p))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_corrupt_idx_raises_only_parse_error(prop_dir, data):
    # A truncated file never matches its dimension table; a flipped payload
    # byte leaves a valid file, so a flipped file may also load.
    dims = data.draw(st.lists(st.integers(0, 4), max_size=3), label="dims")
    size = int(np.prod(dims))
    p = prop_dir / "corrupt.idx"
    _write_idx(p, dims, data.draw(st.binary(min_size=size, max_size=size)))
    raw = p.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        p.write_bytes(raw[:at])
        with pytest.raises(ParseError):
            load_idx(str(p))
    else:
        mask = data.draw(st.integers(1, 255), label="mask")
        p.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:])
        try:
            load_idx(str(p))
        except ParseError:
            pass
