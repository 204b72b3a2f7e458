import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from conftest import render_frame_full

from flowvos import data_io
from flowvos.autodiff import DTYPE
from flowvos.data_io import (DataFormatError, SequenceMeta, ShapeSpec, SynthScene,
                             atomic_write, generate_suite, generate_synthetic, load_sequence,
                             random_scene, read_flo, read_meta, read_pgm, read_ppm,
                             write_flo, write_meta, write_pgm, write_ppm)


class TestFlo:
    def test_roundtrip(self, tmp_path, rng):
        uv = rng.standard_normal((2, 7, 5)) * 12.3
        p = tmp_path / "f.flo"
        write_flo(p, uv)
        back = read_flo(p)
        assert back.dtype == DTYPE
        assert np.max(np.abs(back - uv)) <= np.max(np.spacing(uv.astype(np.float32)))

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.flo"
        # a nan magic too: no float comparison may let it through
        for magic in (b"\x00\x00\x00\x00", struct.pack("<f", float("nan"))):
            p.write_bytes(magic + b"\x01\x00\x00\x00" * 2 + b"\x00" * 8)
            with pytest.raises(DataFormatError, match="bad magic.*byte offset 0"):
                read_flo(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "cut.flo"
        write_flo(p, np.zeros((2, 4, 4)))
        p.write_bytes(p.read_bytes()[:30])
        with pytest.raises(DataFormatError, match="truncated payload at byte offset 30"):
            read_flo(p)

    @pytest.mark.parametrize("w, h", [(2 ** 31 - 1, 2 ** 31 - 1), (60000, 60000),
                                      (4, 5)])
    def test_extents_beyond_the_file_rejected(self, tmp_path, w, h):
        p = tmp_path / "big.flo"
        p.write_bytes(struct.pack("<fii", 202021.25, w, h) + b"\x00" * 128)
        with pytest.raises(DataFormatError,
                           match=f"truncated payload at byte offset 140, "
                                 f"expected {12 + 8 * w * h} bytes total"):
            read_flo(p)

    @pytest.mark.parametrize("w, h", [(0, 4), (4, -1)])
    def test_nonpositive_extents_rejected(self, tmp_path, w, h):
        p = tmp_path / "neg.flo"
        p.write_bytes(struct.pack("<fii", 202021.25, w, h) + b"\x00" * 128)
        with pytest.raises(DataFormatError, match="invalid extents.*byte offset 4"):
            read_flo(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_names_path_and_pixel(self, tmp_path, value):
        uv = np.zeros((2, 3, 4))
        uv[1, 2, 1] = value
        p = tmp_path / "bad.flo"
        write_flo(p, uv)
        with pytest.raises(DataFormatError,
                           match=r"bad\.flo: non-finite flow v component at pixel "
                                 r"\(x=1, y=2\)"):
            read_flo(p)

    def test_2x2_is_44_bytes(self, tmp_path):
        p = tmp_path / "tiny.flo"
        write_flo(p, np.ones((2, 2, 2)))
        assert p.stat().st_size == 12 + 32

    def test_layout_is_interleaved_row_major(self, tmp_path):
        uv = np.zeros((2, 1, 2))
        uv[0, 0] = [1.0, 3.0]
        uv[1, 0] = [2.0, 4.0]
        p = tmp_path / "lay.flo"
        write_flo(p, uv)
        raw = np.frombuffer(p.read_bytes()[12:], dtype="<f4")
        np.testing.assert_array_equal(raw, [1.0, 2.0, 3.0, 4.0])


class TestPnm:
    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(3, 6, 9), dtype=np.uint8)
        p = tmp_path / "i.ppm"
        write_ppm(p, img)
        np.testing.assert_array_equal(read_ppm(p), img)

    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 4, size=(5, 8), dtype=np.uint8)
        p = tmp_path / "m.pgm"
        write_pgm(p, img)
        np.testing.assert_array_equal(read_pgm(p), img)

    def test_pgm_magic_check(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(DataFormatError, match="expected P5"):
            read_pgm(p)

    @pytest.mark.parametrize("reader, magic, depth",
                             [(read_ppm, b"P6", 3), (read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("w, h", [(2 ** 63, 2 ** 63), (60000, 60000), (4, 5)])
    def test_extents_beyond_the_file_rejected(self, tmp_path, reader, magic,
                                              depth, w, h):
        p = tmp_path / "big.pnm"
        head = magic + f"\n{w} {h}\n255\n".encode()
        p.write_bytes(head + b"\x00" * 16)
        with pytest.raises(DataFormatError,
                           match=f"truncated payload at byte offset "
                                 f"{len(head) + 16}, expected "
                                 f"{len(head) + depth * w * h} bytes total"):
            reader(p)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("header, field, offset", [
        (b"\n-3 2\n255\n", "-3", 3), (b"\n2 0\n255\n", "0", 5),
        (b" 2 x2\n255\n", "x2", 5)])
    def test_nonpositive_header_field_rejected(self, tmp_path, reader, magic,
                                               header, field, offset):
        p = tmp_path / "neg.pnm"
        p.write_bytes(magic + header + b"\x00" * 16)
        with pytest.raises(DataFormatError,
                           match=f"header field b'{field}' at byte offset {offset} "
                                 "is not a positive integer"):
            reader(p)

    def test_header_comments_tolerated(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(read_pgm(p), [[1, 2], [3, 4]])


@pytest.mark.parametrize("write, read, shape", [(write_ppm, read_ppm, (3, 16, 16)),
                                                (write_flo, read_flo, (2, 16, 16)),
                                                (write_pgm, read_pgm, (16, 16))],
                         ids=["ppm", "flo", "pgm"])
def test_every_truncation_is_a_format_error(tmp_path, rng, write, read, shape):
    p = tmp_path / "frame"
    write(p, rng.integers(0, 256, size=shape).astype(np.uint8))
    blob = p.read_bytes()
    read(p)
    cut = tmp_path / "cut"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataFormatError):
            read(cut)


class TestMeta:
    def test_roundtrip(self, tmp_path):
        m = SequenceMeta(width=32, height=24, frames=7, objects=2)
        p = tmp_path / "meta"
        write_meta(p, m)
        assert read_meta(p) == m

    def test_missing_key(self, tmp_path):
        p = tmp_path / "meta"
        p.write_text("width=3\nheight=3\nframes=2\n")
        with pytest.raises(DataFormatError, match="missing meta key objects"):
            read_meta(p)

    @pytest.mark.parametrize("key, value", [
        ("width", "3x2"), ("height", ""), ("frames", "2.5"), ("objects", "two")])
    def test_non_integer_names_path_line_and_key(self, tmp_path, key, value):
        lines = ["# meta", "width=3", "height=3", "frames=2", "objects=1"]
        ln = next(i for i, s in enumerate(lines) if s.startswith(key + "="))
        lines[ln] = f"{key}={value}"
        p = tmp_path / "meta"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_meta(p)
        assert str(err.value).startswith(f"{p}:{ln + 1}: {key} ")


    @pytest.mark.parametrize("key, value", [
        ("width", "0"), ("height", "-3"), ("frames", "-2"), ("frames", "0"),
        ("objects", "-1")])
    def test_out_of_range_names_path_line_and_key(self, tmp_path, key, value):
        lines = ["width=3", "height=3", "frames=2", "objects=1"]
        ln = next(i for i, s in enumerate(lines) if s.startswith(key + "="))
        lines[ln] = f"{key}={value}"
        p = tmp_path / "meta"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            read_meta(p)
        assert str(err.value).startswith(f"{p}:{ln + 1}: {key} must be >= ")

    def test_unknown_keys_skipped(self, tmp_path):
        p = tmp_path / "meta"
        p.write_text("width=3\nheight=3\nframes=2\nobjects=2\n"
                     "category.1=twin\ncategory.x=solo\n")
        assert read_meta(p) == SequenceMeta(width=3, height=3, frames=2, objects=2)

    def test_zero_objects_accepted(self, tmp_path):
        p = tmp_path / "meta"
        p.write_text("width=3\nheight=3\nframes=2\nobjects=0\n")
        assert read_meta(p).objects == 0


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "report.txt"
        p.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(p) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert p.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]

    def test_completed_write_replaces_the_file(self, tmp_path):
        p = tmp_path / "report.txt"
        p.write_text("old\n")
        with atomic_write(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]


def translating_disk(frames=5, velocity=(2, 0)):
    return SynthScene(
        width=48, height=32, frames=frames, seed=7,
        shapes=[ShapeSpec("disk", (5,), (0.9, 0.4, 0.2), start=(12, 16),
                          velocity=velocity, textured=False)],
        background="flat")


class TestGenerator:
    def test_translating_disk_flow_exact(self, tmp_path):
        generate_synthetic(translating_disk(), tmp_path / "s")
        seq = load_sequence(tmp_path / "s")
        for t in range(1, 5):
            inside = seq.masks[t - 1] == 1
            assert inside.any()
            np.testing.assert_array_equal(seq.flows[t][0][inside], 2.0)
            np.testing.assert_array_equal(seq.flows[t][1][inside], 0.0)
            np.testing.assert_array_equal(seq.flows[t][:, ~inside], 0.0)
        # frame 0 carries the forward flow 0 -> 1
        inside0 = seq.masks[0] == 1
        np.testing.assert_array_equal(seq.flows[0][0][inside0], 2.0)

    def test_static_scene_zero_flow(self, tmp_path):
        generate_synthetic(translating_disk(velocity=(0, 0)), tmp_path / "s")
        seq = load_sequence(tmp_path / "s")
        for fl in seq.flows:
            np.testing.assert_array_equal(fl, 0.0)

    def test_crossing_twins_depth_order(self, tmp_path):
        scene = SynthScene(
            width=64, height=32, frames=9, seed=3,
            shapes=[
                ShapeSpec("rect", (10, 10), (0.8, 0.8, 0.8), start=(16, 16),
                          velocity=(3, 0), textured=False, bounce=False),
                ShapeSpec("rect", (10, 10), (0.8, 0.8, 0.8), start=(44, 16),
                          velocity=(-3, 0), textured=False, bounce=False),
            ],
            background="flat")
        generate_synthetic(scene, tmp_path / "cross")
        seq = load_sequence(tmp_path / "cross")
        overlapped = False
        for t in range(9):
            m = seq.masks[t]
            assert set(np.unique(m)) <= {0, 1, 2}
            cx1 = 16 + 3 * t
            cx2 = 44 - 3 * t
            if abs(cx1 - cx2) <= 10:   # rects overlap: front object (index 2) wins
                overlap_cols = (np.abs(np.arange(64) - cx1) <= 5) \
                    & (np.abs(np.arange(64) - cx2) <= 5)
                assert (m[16, overlap_cols] == 2).all()
                overlapped = True
        assert overlapped

    def test_generate_load_roundtrip_exact(self, tmp_path):
        scene = random_scene(48, 32, 6, 2, seed=11)
        root = generate_synthetic(scene, tmp_path / "s")
        seq = load_sequence(root)
        img0 = read_ppm(root / "frames" / "00000.ppm")
        np.testing.assert_array_equal(seq.images[0], img0.astype(DTYPE) / 255.0)

    def test_determinism_per_seed(self, tmp_path):
        scene = random_scene(40, 40, 5, 2, seed=99, distractors=True)
        a = generate_synthetic(scene, tmp_path / "a")
        b = generate_synthetic(scene, tmp_path / "b")
        for sub in ("frames/00003.ppm", "flows/00003.flo", "masks/00003.pgm"):
            assert (a / sub).read_bytes() == (b / sub).read_bytes()

    def test_distractor_twins_share_appearance(self, tmp_path):
        scene = random_scene(64, 64, 4, 2, seed=5, distractors=True)
        assert scene.shapes[0].color == scene.shapes[1].color
        assert scene.shapes[0].texture_seed == scene.shapes[1].texture_seed
        assert scene.shapes[0].velocity != scene.shapes[1].velocity

    def test_zero_objects_rejected(self, tmp_path):
        scene = SynthScene(width=8, height=8, frames=2, seed=0, shapes=[])
        with pytest.raises(ValueError, match="at least one object"):
            generate_synthetic(scene, tmp_path / "z")

    def test_more_objects_than_8_bit_labels_rejected_before_writing(self, tmp_path):
        # label k is k + 1 in an 8-bit image: 255 objects fit, 256 do not
        disk = translating_disk(frames=1).shapes[0]
        scene = dataclasses.replace(translating_disk(frames=1), shapes=[disk] * 255)
        assert read_pgm(generate_synthetic(scene, tmp_path / "fits") / "masks"
                        / "00000.pgm").max() == 255
        with pytest.raises(ValueError, match="256 objects; an 8-bit label image holds "
                                             "at most 255"):
            generate_synthetic(dataclasses.replace(scene, shapes=[disk] * 256),
                               tmp_path / "over")
        assert not (tmp_path / "over").exists()


def oracle_scene(rng, index):
    """A small scene of one to four shapes that may start anywhere from
    wholly off the canvas to inside it, move either way with or without
    bouncing, and be as small as a radius-1 disk or a 1-pixel rect side."""
    w, h = int(rng.integers(6, 48)), int(rng.integers(6, 40))
    shapes = []
    for _ in range(int(rng.integers(1, 5))):
        kind = ("disk", "rect")[int(rng.integers(0, 2))]
        size = ((int(rng.integers(1, 8)),) if kind == "disk"
                else (int(rng.integers(1, 14)), int(rng.integers(1, 14))))
        shapes.append(ShapeSpec(
            kind, size, tuple(rng.random(3)),
            start=(int(rng.integers(-16, w + 16)), int(rng.integers(-16, h + 16))),
            velocity=(int(rng.integers(-6, 7)), int(rng.integers(-6, 7))),
            textured=bool(rng.integers(0, 2)), texture_seed=int(rng.integers(0, 2 ** 31)),
            bounce=bool(rng.integers(0, 2))))
    return SynthScene(width=w, height=h, frames=int(rng.integers(1, 7)), seed=index,
                      shapes=shapes, background=("noise", "flat")[index % 2])


def test_box_renderer_matches_the_full_frame_oracle():
    rng = np.random.default_rng(23)
    seen = set()
    for index in range(50):
        scene = oracle_scene(rng, index)
        tracks = data_io._simulate_tracks(scene)
        sprites = [data_io._sprite(spec) for spec in scene.shapes]
        bg = data_io._BG_LEVEL * (0.6 + 0.4 * rng.random((3, scene.height, scene.width)))
        for t in range(scene.frames):
            img, labels = data_io._render_frame(sprites, [pos[t] for pos in tracks], bg)
            want_img, want_labels = render_frame_full(scene, tracks, t, bg)
            assert np.array_equal(img, want_img) and np.array_equal(labels, want_labels), \
                f"scene {index}, frame {t}"
            for (mask, _), pos in zip(sprites, tracks):
                win = data_io._window(mask.shape, pos[t], labels.shape)
                if win is None:
                    seen.add("off canvas")
                elif win[1] != (slice(0, mask.shape[0]), slice(0, mask.shape[1])):
                    seen.add("clipped")
        for spec in scene.shapes:
            if spec.kind == "disk" and spec.size == (1,):
                seen.add("radius 1")
            if spec.kind == "rect" and spec.size[0] % 2 and spec.size[1] % 2:
                seen.add("odd sides")
    assert seen == {"off canvas", "clipped", "radius 1", "odd sides"}


def written_digests(root) -> dict:
    """SHA-256 over the name and bytes of every file in each of frames/,
    flows/ and masks/, in name order, and of meta."""
    digests = {"meta": hashlib.sha256((root / "meta").read_bytes()).hexdigest()}
    for part in ("frames", "flows", "masks"):
        h = hashlib.sha256()
        for f in sorted((root / part).iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
        digests[part] = h.hexdigest()
    return digests


def edge_scene() -> SynthScene:
    """Textured shapes that overlap and run off the frame's edges, and a
    mover that does not bounce and leaves the canvas for good."""
    return SynthScene(
        width=48, height=40, frames=12, seed=5,
        shapes=[ShapeSpec("rect", (11, 8), (0.9, 0.6, 0.3), start=(4, 5),
                          velocity=(1, 1), textured=True, texture_seed=17),
                ShapeSpec("disk", (6,), (0.3, 0.8, 0.5), start=(10, 9),
                          velocity=(2, 1), textured=True, texture_seed=4),
                ShapeSpec("disk", (1,), (0.7, 0.7, 0.9), start=(47, 20),
                          velocity=(0, 2)),
                ShapeSpec("rect", (7, 9), (0.5, 0.4, 0.9), start=(40, 30),
                          velocity=(3, 2), bounce=False)])


PINNED_SCENES = {
    "wide-1": lambda: random_scene(120, 88, 24, 4, 1),
    "wide-2": lambda: random_scene(120, 88, 24, 4, 2),
    "twins-1": lambda: random_scene(64, 64, 32, 2, 1, distractors=True),
    "twins-2": lambda: random_scene(64, 64, 32, 2, 2, distractors=True),
    "edge": edge_scene,
}

# written_digests of each pinned scene as the generator wrote it while it
# still drew every shape over the whole frame
GOLDEN = {
    "edge": {
        "frames": "a9fd275ffc351f819553f32996deec6606e3532feca25a3253d7178ab28ca42a",
        "flows": "677b0747e3fa6e24a274e1a894c84a975f625d5dcb2667c0d70d1af929162928",
        "masks": "becd3973fbc0554c82a7f48f5476b823b62c57bca01f0449045d85fd82997a9d",
        "meta": "40fb9d6551e12743e65549564af1f7935478551968ffa3a8607f092938b09e94",
    },
    "twins-1": {
        "frames": "d9981d1b02aa4741948b86ed0f175ffa3e0144b68c95ad92785865c1b88a185c",
        "flows": "6a5922e2754d8f5abab25d24ca6eacacaa29bdaac5a3cc63fbfe4501123943ca",
        "masks": "cd8b4d3408d426a811e72ba9ccb64e202fb55dafb16c4df314808ac4a257450f",
        "meta": "ef51d8ccfb307386f41b9e34783ecdf6432c91e9843db2dfdee0ebfd037192ca",
    },
    "twins-2": {
        "frames": "54e13da5d2ddebb760cb95881205b22ac2dafd5abc9cf0c8e144338537902a00",
        "flows": "3ab857a3681b0be3fc54843d036d10c515d5e68aa768bfa04a442fb2300c71a5",
        "masks": "57b49e975cce9a8d67e10112c8b9814f0a2374b7ddf9e496a049bff172978f84",
        "meta": "ef51d8ccfb307386f41b9e34783ecdf6432c91e9843db2dfdee0ebfd037192ca",
    },
    "wide-1": {
        "frames": "a4725512daae18f9f7fda9f1b3afff2d00c2826a0f11058cdc6ebc3ff07f3aca",
        "flows": "c25a5af18e233293d901b7969d324df04a6c05aea8cd2dda4f3aa8112176393f",
        "masks": "a9ccb889686b22a0fa7c8fd87d990b35639e3e6a212c701624407abe4e492b51",
        "meta": "5cf1ec56d4652780465304cd03187369fe575b60e2c46eaea33fdbad1bf19a77",
    },
    "wide-2": {
        "frames": "9dc9e09e9e855cd02955b175f724a371794e99daada12cbb035d3af28234647a",
        "flows": "44a4ced1b037b22c5de844200d71efc1e86d6a8eab42ef09b8b492b1c4ed0a93",
        "masks": "cb01abf69d0f424a6765d2e2eeb4ef7480354ea8c9df9c03dc7aed3284e0e065",
        "meta": "5cf1ec56d4652780465304cd03187369fe575b60e2c46eaea33fdbad1bf19a77",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENES))
def test_generator_bytes_are_pinned(tmp_path, name):
    root = generate_synthetic(PINNED_SCENES[name](), tmp_path / name)
    assert written_digests(root) == GOLDEN[name]


class TestLoadSequence:
    def test_missing_flow_named(self, tmp_path):
        root = generate_synthetic(translating_disk(), tmp_path / "s")
        (root / "flows" / "00002.flo").unlink()
        with pytest.raises(DataFormatError, match="00002.flo.*frame index 2"):
            load_sequence(root)

    def test_meta_count_mismatch_rejected(self, tmp_path):
        root = generate_synthetic(translating_disk(), tmp_path / "s")
        meta = read_meta(root / "meta")
        meta.frames = 4
        write_meta(root / "meta", meta)
        with pytest.raises(DataFormatError, match="frame count 4"):
            load_sequence(root)

    def test_images_normalized(self, tmp_path):
        root = generate_synthetic(translating_disk(), tmp_path / "s")
        seq = load_sequence(root)
        assert seq.images[0].dtype == DTYPE
        assert 0.0 <= seq.images[0].min() and seq.images[0].max() <= 1.0


def test_generate_suite(tmp_path):
    paths = generate_suite(tmp_path, count=3, width=32, height=32, frames=4,
                           objects=2, seed=42, distractors=True)
    assert len(paths) == 3
    for p in paths:
        assert len(load_sequence(p)) == 4
        assert read_meta(p / "meta").objects == 2
