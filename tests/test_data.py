"""Raster IO, dataset loading rules, and the synthetic generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopseg.data import (
    DataError,
    MASK_THRESHOLD,
    load_dataset,
    make_batches,
    read_raster,
    resize_bilinear,
    resize_nearest,
    synth_dataset,
    write_gray,
)


def write_bytes(path, payload):
    path.write_bytes(payload)
    return path


class TestPnm:
    def test_ascii_and_binary_gray_agree(self, tmp_path):
        vals = [0, 17, 128, 255, 3, 99]
        ascii_p = write_bytes(
            tmp_path / "a.pgm",
            ("P2\n3 2\n255\n" + " ".join(map(str, vals)) + "\n").encode(),
        )
        binary_p = write_bytes(tmp_path / "b.pgm", b"P5\n3 2\n255\n" + bytes(vals))
        a = read_raster(ascii_p)
        b = read_raster(binary_p)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, 3)
        assert a.dtype == np.uint8

    def test_comments_anywhere_in_header(self, tmp_path):
        p = write_bytes(
            tmp_path / "c.pgm",
            b"P5 # format\n# a comment line\n2 # width\n1\n255\n\x07\x08",
        )
        np.testing.assert_array_equal(read_raster(p), [[7, 8]])

    def test_binary_color_layout(self, tmp_path):
        # 1x2 PPM: red pixel then blue pixel, row-major RGB triplets
        p = write_bytes(tmp_path / "c.ppm", b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\xff")
        img = read_raster(p)
        assert img.shape == (1, 2, 3)
        np.testing.assert_array_equal(img[0, 0], [255, 0, 0])
        np.testing.assert_array_equal(img[0, 1], [0, 0, 255])

    def test_wide_maxval_rejected(self, tmp_path):
        p = write_bytes(tmp_path / "w.pgm", b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError):
            read_raster(p)

    @pytest.mark.parametrize(
        "header, field", [(b"P5\nabc 2\n255\n", "width"), (b"P5\n0 2\n255\n", "width"), (b"P5\n2 2\n0\n", "maxval")]
    )
    def test_non_positive_header_field_rejected(self, tmp_path, header, field):
        p = write_bytes(tmp_path / "h.pgm", header + b"\x00" * 4)
        with pytest.raises(DataError, match=rf"h\.pgm: {field} must be a positive integer"):
            read_raster(p)

    @pytest.mark.parametrize("magic", [b"P2", b"P5"])
    def test_small_maxval_rescaled_to_8_bit(self, tmp_path, magic):
        vals = [0, 1, 7, 8, 14, 15]
        body = " ".join(map(str, vals)).encode() if magic == b"P2" else bytes(vals)
        p = write_bytes(tmp_path / "s.pgm", magic + b"\n3 2\n15\n" + body)
        np.testing.assert_array_equal(read_raster(p), [[0, 17, 119], [136, 238, 255]])

    def test_pixel_above_maxval_rejected(self, tmp_path):
        p = write_bytes(tmp_path / "o.pgm", b"P5\n2 1\n15\n\x0f\x10")
        with pytest.raises(DataError, match="outside 0..15"):
            read_raster(p)

    @pytest.mark.parametrize(
        "magic, body", [(b"P2\n2 1\n255\n", b"1 x\n"), (b"P3\n1 1\n255\n", b"1 -2 3\n")], ids=["P2", "P3"]
    )
    def test_non_numeric_ascii_pixel_rejected(self, tmp_path, magic, body):
        p = write_bytes(tmp_path / "n.pnm", magic + body)
        with pytest.raises(DataError, match=r"n\.pnm: pixel value must be a non-negative integer, got b'(x|-2)'"):
            read_raster(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = write_bytes(tmp_path / "t.pgm", b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(DataError):
            read_raster(p)

    def test_unknown_magic_rejected(self, tmp_path):
        p = write_bytes(tmp_path / "u.pgm", b"P9\n1 1\n255\n\x00")
        with pytest.raises(DataError):
            read_raster(p)

    def test_write_read_roundtrip(self, tmp_path):
        arr = np.arange(30, dtype=np.uint8).reshape(5, 6) * 8
        p = tmp_path / "r.pgm"
        write_gray(p, arr)
        np.testing.assert_array_equal(read_raster(p), arr)

    @pytest.mark.parametrize("shape", [(4, 5, 3), (20,), (1, 4, 5)])
    def test_write_gray_rejects_non_2d(self, tmp_path, shape):
        p = tmp_path / "m.pgm"
        with pytest.raises(DataError, match="H x W"):
            write_gray(p, np.zeros(shape, dtype=np.uint8))
        assert not p.exists()


# a header byte a mutation writes: mostly the bytes a header is made of
HEADER_BYTE = st.sampled_from(b"0123456789 \t\n\r#P") | st.integers(0, 255)


@st.composite
def mutated_pnm(draw):
    """A valid small P2/P3/P5/P6 file whose header took one to three single-byte
    mutations: each overwrites, deletes or inserts one byte."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    w, h, maxval = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([1, 15, 255]))
    n = w * h * (3 if magic in (b"P3", b"P6") else 1)
    vals = draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n))
    header = bytearray(magic + b"\n" + draw(st.sampled_from([b"", b"# note\n"]))
                       + f"{w} {h}\n{maxval}\n".encode())
    body = bytes(vals) if magic in (b"P5", b"P6") else " ".join(map(str, vals)).encode() + b"\n"
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["overwrite", "delete", "insert"]))
        i = draw(st.integers(0, len(header) - (kind != "insert")))
        if kind == "overwrite":
            header[i] = draw(HEADER_BYTE)
        elif kind == "delete":
            del header[i]
        else:
            header.insert(i, draw(HEADER_BYTE))
    return bytes(header) + body


@given(mutated_pnm())
@settings(max_examples=300, deadline=None)
def test_any_header_mutation_loads_or_is_a_data_error(tmp_path_factory, blob):
    """A mutated PNM header reads as an 8-bit raster or fails as a DataError."""
    p = write_bytes(tmp_path_factory.getbasetemp() / "any.pnm", blob)
    try:
        img = read_raster(p)
    except DataError:
        return
    assert img.dtype == np.uint8 and img.ndim in (2, 3)


def put_pair(root, stem, img_vals, mask_vals, w, h):
    (root / "images").mkdir(exist_ok=True, parents=True)
    (root / "masks").mkdir(exist_ok=True, parents=True)
    (root / "images" / f"{stem}.pgm").write_bytes(
        f"P5\n{w} {h}\n255\n".encode() + bytes(img_vals)
    )
    (root / "masks" / f"{stem}.pgm").write_bytes(
        f"P5\n{w} {h}\n255\n".encode() + bytes(mask_vals)
    )


class TestLoadDataset:
    def test_empty_dir_gives_empty_list(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        assert load_dataset(tmp_path, 16) == []

    def test_three_pairs_lexicographic(self, tmp_path):
        for stem in ("zebra", "apple", "mango"):
            put_pair(tmp_path, stem, [100] * 16, [255] * 16, 4, 4)
        samples = load_dataset(tmp_path, 16)
        assert [s.id for s in samples] == ["apple", "mango", "zebra"]

    def test_threshold_128_rule(self, tmp_path):
        put_pair(tmp_path, "m", [0] * 4, [0, 255, 127, 128], 2, 2)
        sample = load_dataset(tmp_path, 2)[0]
        np.testing.assert_array_equal(sample.mask[0], [[0.0, 1.0], [0.0, 1.0]])
        assert MASK_THRESHOLD == 128

    def test_maxval_1_mask_is_foreground_where_1(self, tmp_path):
        put_pair(tmp_path, "m", [0] * 4, [255] * 4, 2, 2)
        (tmp_path / "masks" / "m.pgm").write_bytes(b"P5\n2 2\n1\n\x01\x01\x00\x01")
        sample = load_dataset(tmp_path, 2)[0]
        np.testing.assert_array_equal(sample.mask[0], [[1.0, 1.0], [0.0, 1.0]])

    def test_missing_mask_named(self, tmp_path):
        put_pair(tmp_path, "ok", [0] * 4, [255] * 4, 2, 2)
        (tmp_path / "images" / "lonely.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match="lonely"):
            load_dataset(tmp_path, 2)

    @pytest.mark.parametrize("folder", ["images", "masks"])
    def test_two_files_with_one_stem_rejected(self, tmp_path, folder):
        put_pair(tmp_path, "a", [0] * 4, [255] * 4, 2, 2)
        (tmp_path / folder / "a.pnm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match=r"a\.pgm.*a\.pnm.*'a'"):
            load_dataset(tmp_path, 2)

    def test_gray_image_becomes_three_channels(self, tmp_path):
        put_pair(tmp_path, "g", list(range(16)), [255] * 16, 4, 4)
        sample = load_dataset(tmp_path, 4)[0]
        assert sample.image.shape == (3, 4, 4)
        np.testing.assert_array_equal(sample.image[0], sample.image[1])
        assert sample.image.max() <= 1.0

    def test_resize_to_config_size(self, tmp_path):
        put_pair(tmp_path, "r", [10] * 16, [255] * 16, 4, 4)
        sample = load_dataset(tmp_path, 8)[0]
        assert sample.image.shape == (3, 8, 8)
        assert sample.mask.shape == (1, 8, 8)
        assert set(np.unique(sample.mask)) <= {0.0, 1.0}


class TestResize:
    def test_identity_when_same_size(self):
        img = np.random.default_rng(0).uniform(size=(5, 7))
        np.testing.assert_array_equal(resize_bilinear(img, 5, 7), img)
        np.testing.assert_array_equal(resize_nearest(img, 5, 7), img)

    def test_bilinear_preserves_constant(self):
        img = np.full((4, 4), 0.37)
        out = resize_bilinear(img, 9, 6)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_nearest_keeps_binary(self):
        img = (np.random.default_rng(1).uniform(size=(6, 6)) > 0.5).astype(float)
        out = resize_nearest(img, 13, 13)
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestSynthetic:
    def test_same_seed_bitwise_identical(self):
        a = synth_dataset(3, 32, seed=11)
        b = synth_dataset(3, 32, seed=11)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.mask, sb.mask)
            assert sa.id == sb.id

    # SHA-256 of synth_dataset(2, size, 3): (images, masks), each sample's bytes in turn
    DIGESTS = {
        32: ("481d3dc95604bfe1bf1cb38036189b6a47ac472e6063e42971b677c10ea27487",
             "57e7787d6ac775712060b83773ad4d4ab6264146c7cea9cf83b83e4333f33d7d"),
        64: ("be0107b9ac6be00476d1b89eb53bfd1b320f4d0f910fe2478f796d7cee1b67ce",
             "dd37c673c27e999252cdc044dfe0f81cdd5c493254b4d74661b5754b7dd3aa72"),
        128: ("d345e13be03ae19eae08b107e36a9acb0e8034b7db05cd560d531d0582733c1e",
              "1ffeca6c38546b99419d960e404e4fc407e19848e6bb2cd6b51d3e4850ae148c"),
        352: ("392b46b07c0b08c9d1ff496befeff41362d00d5c80a918742144f859bc63c59b",
              "fbf2375a8132c3839b90f03ea7413c689c373c6290bb768d227c1198126d30b9"),
    }

    @pytest.mark.parametrize("size", sorted(DIGESTS))
    def test_bits_are_pinned(self, size):
        """The synthetic sets' bits hang on a numpy layout choice, so they are pinned.
        The background's arithmetic mixes resize_bilinear's F-ordered texture maps with
        C-ordered noise, and numpy returns the result in F order at 128 and 352 px but in
        C order at 32 and 64 px. The target colour starts from the background mean, which
        sums in that order. A numpy release that picks another order fails here instead
        of silently moving every synthetic set and the benchmark's traced objective."""
        images, masks = hashlib.sha256(), hashlib.sha256()
        for s in synth_dataset(2, size, 3):
            images.update(s.image.tobytes())
            masks.update(s.mask.tobytes())
        assert (images.hexdigest(), masks.hexdigest()) == self.DIGESTS[size]

    def test_different_seeds_differ(self):
        a = synth_dataset(1, 32, seed=1)[0]
        b = synth_dataset(1, 32, seed=2)[0]
        assert np.abs(a.image - b.image).max() > 0

    def test_masks_binary_and_nonempty(self):
        for s in synth_dataset(6, 48, seed=7):
            vals = set(np.unique(s.mask))
            assert vals <= {0.0, 1.0}
            assert 1.0 in vals
            assert s.image.shape == (3, 48, 48)
            assert s.mask.shape == (1, 48, 48)
            assert 0.0 <= s.image.min() and s.image.max() <= 1.0

    def test_area_ratio_bounded_across_1000_seeds(self):
        lo, hi = 1.0, 0.0
        for seed in range(1000):
            m = synth_dataset(1, 64, seed=seed)[0].mask
            ratio = m.mean()
            lo, hi = min(lo, ratio), max(hi, ratio)
        assert 0.0 < lo and hi < 0.5

    def test_small_and_large_targets_both_occur(self):
        areas = [s.mask.sum() for s in synth_dataset(64, 64, seed=0)]
        assert min(areas) < 150  # a radius-few-px target showed up
        assert max(areas) > 800

    def test_ids_are_stable(self):
        ids = [s.id for s in synth_dataset(3, 32, seed=0)]
        assert ids == ["synth_0000", "synth_0001", "synth_0002"]

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 32, seed=0)


class TestBatches:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batches_keep_order_and_ids_with_a_short_last_batch(self, dtype):
        samples = synth_dataset(5, 16, seed=0)
        batches = make_batches(samples, 2, dtype)
        assert [ids for ids, _, _ in batches] == [
            ["synth_0000", "synth_0001"], ["synth_0002", "synth_0003"], ["synth_0004"]]
        for i, (_, images, masks) in enumerate(batches):
            chunk = samples[2 * i : 2 * i + 2]
            assert images.dtype == masks.dtype == dtype
            np.testing.assert_array_equal(images.data, np.stack([s.image for s in chunk]).astype(dtype))
            np.testing.assert_array_equal(masks.data, np.stack([s.mask for s in chunk]).astype(dtype))
