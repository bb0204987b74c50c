"""Binary snapshot format: bit-exact round trips and corruption detection."""

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coopseg.checkpoint import CheckpointError, MAGIC, load_checkpoint, save_checkpoint
from coopseg.config import toy_config
from coopseg.model import SegmentationModel


def sample_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "alpha": rng.standard_normal((3, 4)).astype(np.float32),
        "beta.gamma": rng.standard_normal(7),
        "scalar": np.array(3.25, dtype=np.float32),
        "deep.nested.name": rng.standard_normal((2, 1, 3)).astype(np.float32),
    }


class TestRoundTrip:
    def test_bitwise_exact(self, tmp_path):
        state = sample_state()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, state)
        loaded = load_checkpoint(p)
        assert list(loaded) == list(state)
        for name, arr in state.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_header_starts_with_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, sample_state())
        assert p.read_bytes()[:4] == MAGIC

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, sample_state())
        save_checkpoint(b, sample_state())
        assert a.read_bytes() == b.read_bytes()

    def test_empty_state(self, tmp_path):
        p = tmp_path / "e.ckpt"
        save_checkpoint(p, {})
        assert load_checkpoint(p) == {}

    def test_zero_size_array(self, tmp_path):
        p = tmp_path / "z.ckpt"
        save_checkpoint(p, {"e": np.zeros((0, 3), np.float32)})
        loaded = load_checkpoint(p)["e"]
        assert loaded.shape == (0, 3) and loaded.dtype == np.float32

    @given(st.dictionaries(
        st.text(max_size=6),
        hnp.arrays(st.sampled_from([np.float32, np.float64]),
                   hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                   elements=st.floats(width=32) | st.sampled_from([np.nan, -0.0])),
        max_size=4,
    ))
    @settings(max_examples=100, deadline=None)
    def test_any_float_state_round_trips_bitwise(self, tmp_path_factory, state):
        p = tmp_path_factory.getbasetemp() / "any.ckpt"
        save_checkpoint(p, state)
        loaded = load_checkpoint(p)
        assert list(loaded) == list(state)
        for name, arr in state.items():
            assert (loaded[name].dtype, loaded[name].shape) == (arr.dtype, arr.shape)
            assert loaded[name].tobytes() == arr.tobytes()


class TestAtomicWrite:
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, {"w": np.arange(6.0)})
        before = p.read_bytes()

        real_open = Path.open

        class TornFile:
            """Writes half of the first chunk it is given, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(Path, "open", lambda self, *a, **kw: TornFile(real_open(self, *a, **kw)))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(p, {"w": np.zeros(6)})
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["model.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(p)["w"], np.arange(6.0))


def small_checkpoint(tmp_path) -> bytes:
    """A saved two-record state (float32 matrix, float64 vector): 70 bytes."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([0.5])})
    return p.read_bytes()


class TestCorruption:
    def test_every_single_byte_flip_detected(self, tmp_path):
        blob = small_checkpoint(tmp_path)
        q = tmp_path / "c.ckpt"
        q.write_bytes(blob)
        # every other value of every one byte must fail the load (CRC or header checks)
        with q.open("r+b", buffering=0) as fh:
            for pos, byte in enumerate(blob):
                for mask in range(1, 256):
                    fh.seek(pos)
                    fh.write(bytes([byte ^ mask]))
                    with pytest.raises(CheckpointError):
                        load_checkpoint(q)
                fh.seek(pos)
                fh.write(bytes([byte]))

    def test_payload_byte_flip_detected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, sample_state())
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncation_detected(self, tmp_path):
        blob = small_checkpoint(tmp_path)
        q = tmp_path / "c.ckpt"
        for length in range(len(blob)):  # the empty file included
            q.write_bytes(blob[:length])
            with pytest.raises(CheckpointError):
                load_checkpoint(q)

    def test_trailing_garbage_detected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, sample_state())
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_bad_magic_detected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, sample_state())
        blob = bytearray(p.read_bytes())
        blob[:4] = b"XXXX"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


    def test_dims_whose_product_overflows_int64_are_a_truncated_record(self, tmp_path):
        # 2**31 * 2**31 * 4 items wrap to 0 in int64; the record has no payload at all
        body = MAGIC + struct.pack("<IIH1sBB3I", 1, 1, 1, b"w", 0, 3, 2**31, 2**31, 4)
        p = tmp_path / "huge.ckpt"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=f"{p}: truncated record"):
            load_checkpoint(p)

    def test_name_that_is_not_utf8_is_a_checkpoint_error(self, tmp_path):
        body = MAGIC + struct.pack("<IIH1sBBIf", 1, 1, 1, b"\xff", 0, 1, 1, 0.5)
        p = tmp_path / "name.ckpt"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=f"{p}: tensor name at byte 14 is not utf-8"):
            load_checkpoint(p)

    def test_name_saved_twice_is_a_checkpoint_error(self, tmp_path):
        records = [struct.pack("<H1sBBIf", 1, b"w", 0, 1, 1, value) for value in (0.5, 1.5)]
        body = MAGIC + struct.pack("<II", 1, 2) + b"".join(records)
        p = tmp_path / "twice.ckpt"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=f"{p}: tensor 'w' appears twice"):
            load_checkpoint(p)


class TestModelState:
    @pytest.mark.parametrize("ablation, count, digest", [
        ({}, 147, "3d3b434d482613573b47a9f820bf21e74434a2701f607d2ad53b056e58c5bf0b"),
        (dict(glff_on=False, dfm_on=False), 85,
         "ff5e193ce486eac4a3769d26d56150825ded255f3b6a7ca4777abcebba50d634"),
    ])
    def test_state_names_keep_their_order(self, ablation, count, digest):
        """Checkpoint bytes follow named_state() order; pin the toy models' names by hash."""
        names = [name for name, _ in SegmentationModel(toy_config(**ablation)).named_state()]
        assert names[:2] == ["transformer.embed.pos", "transformer.embed.proj.weight"]
        assert len(names) == count
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == digest

    def test_model_round_trip_and_reload(self, tmp_path):
        cfg = toy_config(image_size=32, d_model=48, stem_channels=4,
                         stage_units=1, c4=8, c8=12, c16=16)
        model = SegmentationModel(cfg)
        state = dict(model.named_state())
        assert "view_weights" in state
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, state)
        loaded = load_checkpoint(p)

        other = SegmentationModel(toy_config(
            image_size=32, d_model=48, stem_channels=4, stage_units=1,
            c4=8, c8=12, c16=16, seed=99,
        ))
        other.load_state(loaded)
        for (na, a), (nb, b) in zip(model.named_state(), other.named_state()):
            assert na == nb
            np.testing.assert_array_equal(a if isinstance(a, np.ndarray) else a.data,
                                          b if isinstance(b, np.ndarray) else b.data)

    def test_loaded_arrays_writable_and_assigned_like_astype(self, tmp_path):
        cfg = toy_config(image_size=32, d_model=48, stem_channels=4,
                         stage_units=1, c4=8, c8=12, c16=16)
        model = SegmentationModel(cfg)  # float32 parameters
        rng = np.random.default_rng(3)
        state = {name: rng.standard_normal(np.shape(arr)) for name, arr in model.named_state()}
        path = tmp_path / "f64.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert all(arr.flags.writeable and arr.dtype == np.float64 for arr in loaded.values())
        model.load_state(loaded)
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == state[name].astype(np.float32).tobytes()
        for name, b in model.named_buffers():
            assert b.tobytes() == state[name].astype(b.dtype).tobytes()

    def test_load_state_rejects_shape_change(self, tmp_path):
        cfg = toy_config(image_size=32, d_model=48, stem_channels=4,
                         stage_units=1, c4=8, c8=12, c16=16)
        model = SegmentationModel(cfg)
        state = dict(model.named_state())
        name = next(iter(state))
        state[name] = np.zeros((1, 1))
        with pytest.raises(Exception):
            model.load_state(state)
