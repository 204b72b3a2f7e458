"""Sequence ingestion, binary image/flow formats, and synthetic sequences.

A sequence directory holds ``frames/%05d.ppm`` (binary P6), ``flows/%05d.flo``
(Middlebury layout; file t stores the flow from frame t-1 to frame t, and
``00000.flo`` stores the forward flow from frame 0 to frame 1),
``masks/%05d.pgm`` (binary P5 label image, 0 = background, k = object k) and
a line-oriented ``meta`` file.

The generator renders rigid shapes under integer per-frame translations, so
the written flow equals the scripted displacement exactly and object
appearance is bit-stable across frames.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import DTYPE

FLO_MAGIC = b"PIEH"                 # the float32 202021.25, little-endian
MAX_OBJECTS = 255                   # labels 1.. of an 8-bit label image; 0 is background

__all__ = [
    "DataFormatError",
    "atomic_write",
    "check_write_target",
    "key_value_lines",
    "read_exact",
    "read_flo",
    "write_flo",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "write_pgm",
    "SequenceMeta",
    "Sequence",
    "load_sequence",
    "ShapeSpec",
    "SynthScene",
    "random_scene",
    "generate_synthetic",
    "generate_suite",
]


class DataFormatError(Exception):
    """A file violates one of the documented on-disk formats."""


def check_write_target(*paths) -> None:
    """Raise ``OSError`` unless a file can be written at each of ``paths``:
    no path may be a directory, and each one's parent must be one."""
    for path in map(Path, paths):
        if path.is_dir():
            raise IsADirectoryError(f"{path}: is a directory, expected a file path")
        if not path.parent.is_dir():
            raise NotADirectoryError(f"{path}: {path.parent} is not a directory")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file next to ``path`` for writing, and rename it over
    ``path`` only once the block completes: a failed write leaves any
    previous file at ``path`` intact and no temp file behind."""
    check_write_target(path)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def key_value_lines(path, error):
    """(line number, key, value) for each ``key=value`` line of a UTF-8 text
    file, skipping blank lines and ``#`` comments.  Text that is not UTF-8
    and a line without ``=`` raise ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from None
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{ln}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        yield ln, key, val


def read_exact(fh, size: int, path, what: str, error=DataFormatError) -> bytes:
    """The ``size`` bytes of ``what`` at the position of ``fh`` in the binary
    file at ``path``.  The size is checked against the bytes left in the file
    first, so a short file, or absurd extents read from outside input, raise
    ``error`` naming the truncation instead of asking for a huge
    allocation."""
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if size > left:
        raise error(f"{path}: truncated {what} at byte offset {offset + left}, "
                    f"expected {offset + size} bytes total")
    return fh.read(size)


# ---------------------------------------------------------------------------
# Middlebury .flo


def write_flo(path, uv: np.ndarray) -> None:
    """Write a 2xHxW flow field, rounded to float32."""
    h, w = uv.shape[1:]
    interleaved = np.empty((h, w, 2), dtype="<f4")
    interleaved[:, :, 0] = uv[0]
    interleaved[:, :, 1] = uv[1]
    with open(path, "wb") as fh:
        fh.write(FLO_MAGIC)
        fh.write(struct.pack("<ii", w, h))
        fh.write(interleaved.tobytes())


def read_flo(path) -> np.ndarray:
    """The 2xHxW ``DTYPE`` flow field stored at ``path``."""
    with open(path, "rb") as fh:
        head = read_exact(fh, 12, path, "header")
        if head[:4] != FLO_MAGIC:
            raise DataFormatError(f"{path}: bad magic {head[:4]!r} at byte offset 0, "
                                  f"expected {FLO_MAGIC!r}")
        w, h = struct.unpack("<ii", head[4:12])
        if w < 1 or h < 1:
            raise DataFormatError(f"{path}: invalid extents {w}x{h} at byte offset 4")
        payload = read_exact(fh, 2 * 4 * w * h, path, "payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(h, w, 2)
    bad = ~np.isfinite(data)
    if bad.any():
        y, x, c = (int(i[0]) for i in np.nonzero(bad))
        raise DataFormatError(f"{path}: non-finite flow {'uv'[c]} component at "
                              f"pixel (x={x}, y={y})")
    return np.ascontiguousarray(data.transpose(2, 0, 1), dtype=DTYPE)


# ---------------------------------------------------------------------------
# PPM / PGM


def _read_pnm_header(fh, magic: bytes, path) -> tuple[int, int]:
    got = fh.read(2)
    if got != magic:
        raise DataFormatError(f"{path}: expected {magic.decode()} header, got {got!r}")

    fields = []
    while len(fields) < 3:
        tok = b""
        ch = fh.read(1)
        while ch.isspace():
            ch = fh.read(1)
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        start = fh.tell() - len(ch)
        while ch and not ch.isspace():
            tok += ch
            ch = fh.read(1)
        if not tok:
            raise DataFormatError(f"{path}: truncated header")
        try:
            value = int(tok)
        except ValueError:      # not a number, or too many digits to parse
            value = 0
        if value < 1:
            raise DataFormatError(
                f"{path}: header field {tok!r} at byte offset {start} is not a "
                "positive integer")
        fields.append(value)
    w, h, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    return w, h


def write_ppm(path, img: np.ndarray) -> None:
    """Write a 3xHxW uint8 (or [0,1] float) image as binary P6."""
    a = np.asarray(img)
    if a.ndim != 3 or a.shape[0] != 3:
        raise ValueError(f"ppm image must be 3xHxW, got shape {a.shape}")
    if a.dtype != np.uint8:
        a = np.clip(np.rint(a * 255.0), 0, 255).astype(np.uint8)
    h, w = a.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(a.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file as 3xHxW uint8."""
    with open(path, "rb") as fh:
        w, h = _read_pnm_header(fh, b"P6", path)
        payload = read_exact(fh, 3 * w * h, path, "payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)


def write_pgm(path, img: np.ndarray) -> None:
    """Write an HxW uint8 label/gray image as binary P5."""
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValueError(f"pgm image must be HxW, got shape {a.shape}")
    a = a.astype(np.uint8)
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(a.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        w, h = _read_pnm_header(fh, b"P5", path)
        payload = read_exact(fh, w * h, path, "payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------------------
# sequence directories


@dataclass
class SequenceMeta:
    width: int
    height: int
    frames: int
    objects: int


def write_meta(path, meta: SequenceMeta) -> None:
    with open(path, "w") as fh:
        fh.write("# flows/t.flo maps frame t-1 forward to frame t; 00000.flo is flow 0->1\n")
        fh.write(f"width={meta.width}\n")
        fh.write(f"height={meta.height}\n")
        fh.write(f"frames={meta.frames}\n")
        fh.write(f"objects={meta.objects}\n")


_META_INTS = {"width": 1, "height": 1, "frames": 1, "objects": 0}   # key -> minimum


def read_meta(path) -> SequenceMeta:
    vals: dict = {}
    for ln, key, val in key_value_lines(path, DataFormatError):
        if key in _META_INTS:
            try:
                vals[key] = int(val)
            except ValueError:
                raise DataFormatError(f"{path}:{ln}: {key} must be an "
                                      f"integer, got {val!r}") from None
            if vals[key] < _META_INTS[key]:
                raise DataFormatError(f"{path}:{ln}: {key} must be >= "
                                      f"{_META_INTS[key]}, got {vals[key]}")
    missing = [k for k in _META_INTS if k not in vals]
    if missing:
        raise DataFormatError(f"{path}: missing meta key {missing[0]}")
    return SequenceMeta(**vals)


@dataclass
class Sequence:
    """One loaded sequence: [0,1] images, flows, and label masks per frame."""

    name: str
    images: list        # of 3xHxW DTYPE (float32) in [0,1]
    flows: list         # of 2xHxW DTYPE (float32) flow fields
    masks: list         # of HxW uint8 label images

    def __len__(self):
        return len(self.images)


def load_sequence(path) -> Sequence:
    root = Path(path)
    meta_path = root / "meta"
    if not meta_path.exists():
        raise DataFormatError(f"{meta_path}: missing meta file")
    meta = read_meta(meta_path)
    images, flows, masks = [], [], []
    for t in range(meta.frames):
        fp = root / "frames" / f"{t:05d}.ppm"
        lp = root / "flows" / f"{t:05d}.flo"
        mp = root / "masks" / f"{t:05d}.pgm"
        for p in (fp, lp, mp):
            if not p.exists():
                raise DataFormatError(f"{p}: missing file for frame index {t}")
        img = read_ppm(fp)
        flow = read_flo(lp)
        mask = read_pgm(mp)
        if img.shape[1:] != (meta.height, meta.width):
            raise DataFormatError(
                f"{fp}: size {img.shape[2]}x{img.shape[1]} != meta "
                f"{meta.width}x{meta.height}")
        if flow.shape[1:] != (meta.height, meta.width):
            raise DataFormatError(f"{lp}: flow size mismatch with meta")
        if mask.shape != (meta.height, meta.width):
            raise DataFormatError(f"{mp}: mask size mismatch with meta")
        images.append(img.astype(DTYPE) / 255.0)
        flows.append(flow)
        masks.append(mask)
    extra = root / "frames" / f"{meta.frames:05d}.ppm"
    if extra.exists():
        raise DataFormatError(f"{meta_path}: frame count {meta.frames} but {extra} exists")
    return Sequence(name=root.name, images=images, flows=flows, masks=masks)


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class ShapeSpec:
    kind: str                      # "disk" | "rect"
    size: tuple                    # disk: (radius,), rect: (height, width), pixels
    color: tuple                   # rgb in [0,1]
    start: tuple                   # (cx, cy) integer pixels
    velocity: tuple                # (vx, vy) integer pixels per frame
    textured: bool = False
    texture_seed: int = 0
    bounce: bool = True


# intensity of a flat background; a noise background spans 0.6-1.0 of it
_BG_LEVEL = 0.15


@dataclass
class SynthScene:
    width: int
    height: int
    frames: int
    seed: int
    shapes: list                   # back to front; object k is shapes[k-1]
    background: str = "noise"      # "noise" | "flat"


def _margins(spec: ShapeSpec) -> tuple[float, float]:
    if spec.kind == "disk":
        return spec.size[0], spec.size[0]
    return spec.size[1] / 2.0, spec.size[0] / 2.0


def _simulate_tracks(scene: SynthScene) -> list:
    """Integer center positions per shape per frame, bouncing off the walls."""
    tracks = []
    for spec in scene.shapes:
        mx, my = _margins(spec)
        cx, cy = spec.start
        vx, vy = spec.velocity
        pos = [(cx, cy)]
        for _ in range(scene.frames - 1):
            nx, ny = cx + vx, cy + vy
            if spec.bounce:
                if nx - mx < 0 or nx + mx > scene.width - 1:
                    vx = -vx
                    nx = cx + vx
                if ny - my < 0 or ny + my > scene.height - 1:
                    vy = -vy
                    ny = cy + vy
            cx, cy = nx, ny
            pos.append((cx, cy))
        tracks.append(pos)
    return tracks


def _sprite(spec: ShapeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The shape's mask and 3-channel appearance on its bounding box, whose
    middle pixel is the shape's center.  Both are fixed relative to the
    center, so pasting them at each frame's integer center redraws the
    shape rigidly."""
    mx, my = _margins(spec)
    dy, dx = np.mgrid[-int(my):int(my) + 1, -int(mx):int(mx) + 1]
    if spec.kind == "disk":
        r = spec.size[0]
        mask = dx ** 2 + dy ** 2 <= r * r
    elif spec.kind == "rect":
        hh, ww = spec.size
        mask = (np.abs(dx) <= ww / 2.0) & (np.abs(dy) <= hh / 2.0)
    else:
        raise ValueError(f"unknown shape kind {spec.kind!r}")
    base = np.array(spec.color, dtype=np.float64)[:, None, None]
    tex = np.broadcast_to(base, (3,) + mask.shape).copy()
    if spec.textured:
        # a 16x16 tile anchored to the center
        tile_rng = np.random.default_rng(spec.texture_seed)
        tile = 0.6 + 0.4 * tile_rng.random((16, 16))
        tex = tex * tile[dy % 16, dx % 16][None]
    return mask, tex


def _window(box: tuple, center, frame: tuple):
    """The slices of an h x w ``frame`` and of a ``box``-shaped sprite
    centered at ``center`` that cover the part of the sprite on the frame,
    or None when no part is on it."""
    (bh, bw), (cx, cy), (h, w) = box, center, frame
    oy, ox = cy - bh // 2, cx - bw // 2          # the sprite's top-left pixel
    y0, y1 = max(oy, 0), min(oy + bh, h)
    x0, x1 = max(ox, 0), min(ox + bw, w)
    if y0 >= y1 or x0 >= x1:
        return None
    return ((slice(y0, y1), slice(x0, x1)),
            (slice(y0 - oy, y1 - oy), slice(x0 - ox, x1 - ox)))


def _render_frame(sprites: list, centers: list, bg: np.ndarray):
    """One frame's image and label map: ``bg`` with each shape's sprite
    pasted at its center, clipped to the frame, back to front.  Only the
    shapes' boxes are touched, so the cost beyond copying ``bg`` scales
    with the objects' area."""
    img = bg.copy()
    labels = np.zeros(bg.shape[1:], dtype=np.uint8)
    for k, ((mask, tex), center) in enumerate(zip(sprites, centers)):
        win = _window(mask.shape, center, labels.shape)
        if win is None:
            continue
        (fy, fx), (sy, sx) = win
        m = mask[sy, sx]
        img[:, fy, fx][:, m] = tex[:, sy, sx][:, m]   # later shapes are in front
        labels[fy, fx][m] = k + 1
    return img, labels


def generate_synthetic(scene: SynthScene, out_dir) -> Path:
    """Render a scene to a sequence directory with exact ground-truth flow.

    Each shape's mask and texture are drawn once per call, on its bounding
    box, and pasted into every frame; flow is filled over the same boxes.
    So beyond the background and the writers, the cost scales with the
    objects' area, not with the frame's.  Nothing outlives the call.
    """
    if scene.frames < 1:
        raise ValueError("scene needs at least one frame")
    if not scene.shapes:
        raise ValueError("scene needs at least one object")
    if len(scene.shapes) > MAX_OBJECTS:
        raise ValueError(f"scene has {len(scene.shapes)} objects; an 8-bit label "
                         f"image holds at most {MAX_OBJECTS}")
    root = Path(out_dir)
    for sub in ("frames", "flows", "masks"):
        os.makedirs(root / sub, exist_ok=True)

    rng = np.random.default_rng(scene.seed)
    h, w = scene.height, scene.width
    if scene.background == "noise":
        bg = _BG_LEVEL * (0.6 + 0.4 * rng.random((3, h, w)))
    else:
        bg = np.full((3, h, w), _BG_LEVEL)

    tracks = _simulate_tracks(scene)
    sprites = [_sprite(spec) for spec in scene.shapes]
    masks = []
    for t in range(scene.frames):
        img, labels = _render_frame(sprites, [pos[t] for pos in tracks], bg)
        write_ppm(root / "frames" / f"{t:05d}.ppm", img)
        write_pgm(root / "masks" / f"{t:05d}.pgm", labels)
        masks.append(labels)

    for t in range(scene.frames):
        # file t: displacement of frame t-1 pixels toward frame t (file 0: 0 -> 1)
        src = 0 if t == 0 else t - 1
        dst = min(src + 1, scene.frames - 1)
        uv = np.zeros((2, h, w))
        for k, (mask, _) in enumerate(sprites):
            win = _window(mask.shape, tracks[k][src], (h, w))
            if win is None:
                continue
            (fy, fx), _ = win
            sel = masks[src][fy, fx] == k + 1
            uv[0, fy, fx][sel] = tracks[k][dst][0] - tracks[k][src][0]
            uv[1, fy, fx][sel] = tracks[k][dst][1] - tracks[k][src][1]
        write_flo(root / "flows" / f"{t:05d}.flo", uv)

    write_meta(root / "meta", SequenceMeta(width=w, height=h, frames=scene.frames,
                                           objects=len(scene.shapes)))
    return root


def random_scene(width: int, height: int, frames: int, objects: int, seed: int,
                 distractors: bool = False) -> SynthScene:
    """Sample a scene; with ``distractors`` every object shares one appearance."""
    rng = np.random.default_rng(seed)
    shapes = []
    kind = rng.choice(["disk", "rect"])
    shared_color = tuple(0.55 + 0.45 * rng.random(3))
    shared_tex = int(rng.integers(0, 2 ** 31))

    def start_with_runway(margin: int, extent: int, travel: int) -> int:
        # start so the whole scripted trajectory stays in-canvas (no bounce,
        # so each object's flow signature is persistent over the sequence)
        lo = margin + 1 + max(0, -travel)
        hi = extent - margin - 2 - max(0, travel)
        if hi <= lo:
            return (extent - 1) // 2
        return int(rng.integers(lo, hi + 1))

    for k in range(objects):
        if distractors:
            skind, color, tex_seed = kind, shared_color, shared_tex
            size = (7,) if skind == "disk" else (13, 13)
            # identical twins separated by motion only; the speed contrast
            # keeps their flow signatures apart in every frame
            speed = 1 if k % 2 == 0 else 3
            vx = int(rng.choice([-1, 1])) * speed
            vy = int(rng.integers(-1, 2))
        else:
            skind = rng.choice(["disk", "rect"])
            color = tuple(0.4 + 0.6 * rng.random(3))
            tex_seed = int(rng.integers(0, 2 ** 31))
            size = ((int(rng.integers(5, 9)),) if skind == "disk"
                    else (int(rng.integers(9, 15)), int(rng.integers(9, 15))))
            speed = int(rng.integers(1, 4))
            vx = int(rng.choice([-1, 1])) * speed
            vy = int(rng.choice([-1, 1])) * int(rng.integers(0, speed + 1))
        mx, my = _margins(ShapeSpec(skind, size, color, (0, 0), (0, 0)))
        cx = start_with_runway(int(np.ceil(mx)), width, vx * (frames - 1))
        cy = start_with_runway(int(np.ceil(my)), height, vy * (frames - 1))
        shapes.append(ShapeSpec(kind=skind, size=size, color=color,
                                start=(cx, cy), velocity=(vx, vy),
                                textured=True, texture_seed=tex_seed))
    # a textured background would leak object position into the appearance
    # features and let an appearance-only model tell identical twins apart
    background = "flat" if distractors else "noise"
    return SynthScene(width=width, height=height, frames=frames, seed=seed,
                      shapes=shapes, background=background)


def generate_suite(out_dir, count: int, width: int, height: int, frames: int,
                   objects: int, seed: int, distractors: bool = False) -> list:
    """Generate ``count`` sequences seq_000.. under ``out_dir``; returns their paths."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(count)
    paths = []
    for i, child in enumerate(children):
        sub_seed = int(child.generate_state(1)[0] % (2 ** 31))
        scene = random_scene(width, height, frames, objects, sub_seed,
                             distractors=distractors)
        paths.append(generate_synthetic(scene, Path(out_dir) / f"seq_{i:03d}"))
    return paths
