"""Skeleton sequences, body graphs, stream derivation, synthetic data, file IO.

A sequence is a (T, C, V) float32 array over a tree-structured body
graph.  Three derived views ("streams") of the same sequence feed the
contrastive pipeline: raw joint coordinates, bone vectors (each joint
minus its parent in the graph), and motion (frame-to-frame displacement).

`stream_arrays` returns the joint array it is given as the joint view,
so a caller that must keep that array unchanged passes in a copy;
`derive_streams` does, because its input is a clip's own storage, and
`train.branch_views` augments a copy for the query branch.

`write_file`/`read_file` are the one binary codec (layout in `write_file`),
shared by checkpoints and the dataset file of `write_dataset`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    ConfigValueError,
    CorruptFile,
    HashMismatch,
    InvalidArgument,
    SeparabilityFailure,
    ShapeMismatch,
    TooShort,
    TruncatedFile,
    UnknownStream,
    UnreadableFile,
    UnwritableFile,
    VersionMismatch,
)
from .rng import RngStream

STREAM_IDS = ("joint", "bone", "motion")


@dataclass(frozen=True)
class SkeletonGraph:
    """Tree of body joints; edges point from torso toward extremities.

    The root is joint 0, the one joint no edge targets; a dataset file
    stores only the edges, so a graph rebuilt from it has the same root.
    `parents[j]` is the source of the edge that targets joint j, and the
    root is its own parent.  It is worked out from `edges` when the graph
    is built, so it is no constructor argument, takes no part in equality
    or hashing, and is not written to files.
    """

    num_joints: int
    edges: tuple[tuple[int, int], ...]
    parents: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = self.num_joints
        if len(self.edges) != v - 1:
            raise ShapeMismatch(f"tree on {v} joints needs {v - 1} edges")
        targets = [tgt for _, tgt in self.edges]
        if sorted(targets) != list(range(1, v)):
            raise ShapeMismatch("every joint but the root, joint 0, must be the target of "
                                "one edge")
        parents = [0] * v
        for src, tgt in self.edges:
            if not 0 <= src < v:
                raise ShapeMismatch(f"edge source {src} is not one of the {v} joints")
            parents[tgt] = src
        # 2 ** bit_length(v) > v hops up from every joint end at the root
        # only if every chain of parents reaches it
        hop = np.array(parents)
        for _ in range(v.bit_length()):
            hop = hop[hop]
        if hop.any():
            raise ShapeMismatch("edges do not span all joints from the root")
        object.__setattr__(self, "parents", tuple(parents))

    def normalized_adjacency(self, dtype=np.float32) -> np.ndarray:
        """Symmetric-normalized undirected adjacency with self loops."""
        joints = np.arange(self.num_joints)
        a = np.eye(self.num_joints, dtype=np.float64)
        a[joints, self.parents] = 1.0
        a[self.parents, joints] = 1.0
        d = a.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(d)
        return (a * inv_sqrt[:, None] * inv_sqrt[None, :]).astype(dtype)


COORDS = 3  # x, y, z: the channels of a joint in every clip


@dataclass
class SkeletonSequence:
    """One motion clip: (frames, COORDS, joints) array plus its graph."""

    data: np.ndarray
    graph: SkeletonGraph
    label: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ShapeMismatch("sequence data must be (T, C, V)")
        if self.data.shape[1] != COORDS:
            raise ShapeMismatch(f"sequence data needs C = {COORDS} coordinates per joint, "
                                f"got {self.data.shape[1]}")
        if self.frames < 2:
            raise TooShort("need at least 2 frames")
        if self.joints != self.graph.num_joints:
            raise ShapeMismatch("joint count does not match graph")
        if not np.all(np.isfinite(self.data)):
            raise ShapeMismatch("sequence contains NaN or Inf")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def joints(self) -> int:
        return self.data.shape[2]


def derive_bone(data: np.ndarray, graph: SkeletonGraph) -> np.ndarray:
    """Bone vectors of a (..., T, C, V) array: each joint minus its parent,
    so the root, its own parent, reads x - x = +0.0."""
    return data - data[..., graph.parents]


def derive_motion(data: np.ndarray) -> np.ndarray:
    """Adjacent-frame displacement of a (..., T, C, V) array; last frame zero-padded to keep T."""
    out = np.zeros_like(data)
    out[..., :-1, :, :] = data[..., 1:, :, :] - data[..., :-1, :, :]
    return out


def stream_arrays(data: np.ndarray, graph: SkeletonGraph, stream_ids) -> dict[str, np.ndarray]:
    """Stream id -> array derived from (..., T, C, V) joint coordinates on
    `graph`; the joint view is `data` itself."""
    stream_ids = tuple(stream_ids)
    if not stream_ids:
        raise UnknownStream("need at least one stream id")
    out: dict[str, np.ndarray] = {}
    for sid in stream_ids:
        if sid == "joint":
            out[sid] = data
        elif sid == "bone":
            out[sid] = derive_bone(data, graph)
        elif sid == "motion":
            out[sid] = derive_motion(data)
        else:
            raise UnknownStream(f"unknown stream id {sid!r}")
    return out


def derive_streams(seq: SkeletonSequence, stream_ids) -> dict[str, np.ndarray]:
    """Stream id -> (T, C, V) array derived from a copy of `seq.data`."""
    return stream_arrays(seq.data.copy(), seq.graph, stream_ids)


def shared_graph(sequences: list[SkeletonSequence]) -> SkeletonGraph:
    """The one skeleton graph every clip of `sequences` has; the clips must
    also share a frame count, so any subset of them stacks.  An empty list
    has no graph: it raises `InvalidArgument`."""
    if not sequences:
        raise InvalidArgument("no clips: need at least one to share a skeleton graph")
    graph, frames = sequences[0].graph, sequences[0].frames
    if any((s.graph is not graph and s.graph != graph) or s.frames != frames for s in sequences):
        raise ShapeMismatch("clips do not all share one skeleton graph and frame count")
    return graph


def clip_batch(sequences: list[SkeletonSequence]) -> tuple[SkeletonGraph, np.ndarray]:
    """`shared_graph(sequences)` and the clips stacked as one (N, T, C, V) joint array."""
    return shared_graph(sequences), np.stack([s.data for s in sequences])


# -- synthetic dataset ---------------------------------------------------------


def build_star_tree(num_joints: int) -> SkeletonGraph:
    """Root plus four limb chains, joints dealt round-robin to the limbs.

    Joint j hangs below joint j - 4 (the root for j <= 4), at depth
    (j - 1) // 4 + 1 of limb (j - 1) % 4; the edges list limb 0's chain
    first, then limb 1's, and so on.
    """
    if num_joints < 5:
        raise ConfigValueError("joints", f"need at least 5 joints, got {num_joints}")
    edges = tuple((max(j - 4, 0), j) for limb in range(1, 5) for j in range(limb, num_joints, 4))
    return SkeletonGraph(num_joints=num_joints, edges=edges)


def _unit_rows(rows: list[list[float]]) -> np.ndarray:
    return np.array([row / np.linalg.norm(row) for row in np.array(rows)])


# one unit direction and swing axis per limb of `build_star_tree`
_LIMB_DIRECTIONS = _unit_rows(
    [
        [0.8, 0.6, 0.0],  # right arm, up-ish
        [-0.8, 0.6, 0.0],  # left arm
        [0.4, -0.9, 0.2],  # right leg, down-ish
        [-0.4, -0.9, -0.2],  # left leg
    ]
)
_LIMB_SWING_AXES = _unit_rows(
    [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
    ]
)
# one shared multiset of limb frequencies; classes differ only in which
# limb carries which frequency, so global statistics match across classes
_LIMB_FREQUENCIES = np.array([1.0, 2.0, 3.5, 6.0])
_SEGMENT_LENGTH = 0.5
_SPEED_JITTER = 0.2  # half-width of the uniform per-sample playback-rate jitter
_SEPARABILITY_ATTEMPTS = 3
_SWING_AMPLITUDE = 0.6
_EXTEND_AMPLITUDE = 0.25


def _random_rotation(gen: np.random.Generator) -> np.ndarray:
    """Uniform rotation matrix from a normalized random quaternion."""
    q = gen.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _limb_assignments(num_classes: int, gen: np.random.Generator) -> list[tuple[int, ...]]:
    perms = list(permutations(range(4)))
    if num_classes > len(perms):
        raise ConfigValueError("num_classes", f"at most {len(perms)} distinguishable classes")
    order = gen.permutation(len(perms))
    return [perms[i] for i in order[:num_classes]]


def _sample_trajectory(
    num_joints: int,
    frames: int,
    freq_of_limb: np.ndarray,
    phase_of_limb: np.ndarray,
    rate: float,
    global_phase: float,
) -> np.ndarray:
    """Evaluate limb swing + extension sinusoids over `build_star_tree`'s
    layout of `num_joints` joints; returns (T, 3, V)."""
    t = np.arange(frames, dtype=np.float64) / frames
    data = np.zeros((frames, COORDS, num_joints))
    for joint in range(1, num_joints):
        limb, depth = (joint - 1) % 4, (joint - 1) // 4 + 1
        direction, axis = _LIMB_DIRECTIONS[limb], _LIMB_SWING_AXES[limb]
        phase = 2.0 * math.pi * freq_of_limb[limb] * rate * t
        phase = phase + phase_of_limb[limb] + global_phase
        theta = _SWING_AMPLITUDE * np.sin(phase)
        stretch = 1.0 + _EXTEND_AMPLITUDE * np.sin(phase + math.pi / 4.0)
        base = direction * depth * _SEGMENT_LENGTH
        base_t = base[None, :] * stretch[:, None]  # (T, 3)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        cross = np.cross(np.broadcast_to(axis, base_t.shape), base_t)
        along = (base_t @ axis)[:, None] * axis[None, :]
        rotated = cos_t[:, None] * base_t + sin_t[:, None] * cross + (1 - cos_t)[:, None] * along
        data[:, :, joint] = rotated
    return data


ORACLE_BINS = 8  # lowest nonzero frequencies of each oracle signal kept


def fourier_oracle_features(data: np.ndarray) -> np.ndarray:
    """Rotation/translation-invariant spectral features of one sequence:
    the magnitudes of the `ORACLE_BINS` lowest nonzero frequencies of
    each joint's two signals.

    Uses per-joint distance to the root (joint 0) and per-joint speed
    signals; both are preserved by global rotations, so they expose the
    class structure (which limb oscillates at which frequency) without
    leaking the sample's random pose.
    """
    rel = data - data[:, :, :1]
    radius = np.linalg.norm(rel, axis=1)  # (T, V)
    speed = np.linalg.norm(np.diff(data, axis=0), axis=1)  # (T-1, V)
    feats = []
    for signal in (radius, speed):
        centered = signal - signal.mean(axis=0, keepdims=True)
        mags = np.abs(np.fft.rfft(centered, axis=0))[1 : 1 + ORACLE_BINS]
        feats.append(mags.T.reshape(-1))
    return np.concatenate(feats)


def oracle_classifier_accuracy(sequences: list[SkeletonSequence]) -> float:
    """Nearest-centroid accuracy on hand-crafted Fourier features."""
    feats = np.stack([fourier_oracle_features(s.data.astype(np.float64)) for s in sequences])
    labels = np.array([s.label for s in sequences])
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0) + 1e-9
    feats = (feats - mu) / sd
    classes = np.unique(labels)
    centroids = np.stack([feats[labels == c].mean(axis=0) for c in classes])
    dists = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    predicted = classes[np.argmin(dists, axis=1)]
    return float((predicted == labels).mean())


def generate_synthetic_dataset(
    num_classes: int,
    per_class: int,
    frames: int = 32,
    joints: int = 9,
    seed: int = 0,
    noise_sigma: float = 0.02,
    check_separability: bool = True,
) -> list[SkeletonSequence]:
    """Labeled sinusoidal-motion sequences over a star-tree skeleton.

    Classes share one amplitude and one frequency multiset and differ
    only in the limb-to-frequency assignment plus per-limb phase
    offsets, so pooled coordinate statistics carry almost no label
    signal while spectral structure separates classes cleanly.  Each
    sample gets a random global rotation, a uniform speed jitter, a
    random global phase, and additive coordinate noise.

    Deterministic given the arguments.  If the built-in Fourier oracle
    scores below 95% the draw is retried with a new sub-seed, and
    `SeparabilityFailure` is raised after three failed attempts.
    """
    if num_classes < 2:
        raise ConfigValueError("num_classes", f"need at least 2 classes, got {num_classes}")
    if per_class < 1:
        raise ConfigValueError("per_class", f"need at least 1 clip per class, got {per_class}")
    if frames < 16:
        raise ConfigValueError("frames", f"need at least 16 frames, got {frames}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigValueError("noise_sigma", f"must be finite and nonnegative, got {noise_sigma}")

    graph = build_star_tree(joints)
    last_accuracy = 0.0
    for attempt in range(_SEPARABILITY_ATTEMPTS):
        root_stream = RngStream(seed).split(f"synthetic.attempt{attempt}")
        assignments = _limb_assignments(num_classes, root_stream.split("classes").generator())
        sequences: list[SkeletonSequence] = []
        for k in range(num_classes):
            class_stream = root_stream.split(f"class{k}")
            freq_of_limb = _LIMB_FREQUENCIES[list(assignments[k])]
            phases = class_stream.split("phases").generator()
            phase_of_limb = phases.uniform(0.0, 2.0 * math.pi, 4)
            for i in range(per_class):
                g = class_stream.split(f"sample{i}").generator()
                rate = 1.0 + g.uniform(-_SPEED_JITTER, _SPEED_JITTER)
                global_phase = g.uniform(0.0, 2.0 * math.pi)
                rotation = _random_rotation(g)
                data = _sample_trajectory(
                    joints, frames, freq_of_limb, phase_of_limb, rate, global_phase
                )
                data = np.einsum("ij,tjv->tiv", rotation, data)
                if noise_sigma > 0:
                    data = data + g.normal(0.0, noise_sigma, size=data.shape)
                sequences.append(
                    SkeletonSequence(data=data.astype(np.float32), graph=graph, label=k)
                )
        if not check_separability or per_class == 1:
            return sequences
        last_accuracy = oracle_classifier_accuracy(sequences)
        if last_accuracy >= 0.95:
            return sequences
    raise SeparabilityFailure(
        f"oracle accuracy {last_accuracy:.3f} < 0.95 after {_SEPARABILITY_ATTEMPTS} attempts"
    )


# -- on-disk format --------------------------------------------------------------

FORMAT_VERSION = 1
DATASET_MAGIC = b"SKDS"
DATASET_FILE = "dataset.bin"


def json_hash(doc_json: bytes) -> int:
    """First 8 bytes of the SHA-256 digest of JSON bytes, as an unsigned int."""
    return int.from_bytes(hashlib.sha256(doc_json).digest()[:8], "little")


@contextmanager
def output_errors(path):
    """Raise an `OSError` of the block as `UnwritableFile` naming `path`:
    the one report of an output that cannot be created or written."""
    try:
        yield
    except OSError as err:
        raise UnwritableFile(f"{path}: {err.strerror or err}") from None


def make_dir(directory) -> Path:
    """`directory` as a `Path`, created with its parents when missing;
    `UnwritableFile` names one that cannot be (say, an existing file)."""
    directory = Path(directory)
    with output_errors(directory):
        directory.mkdir(parents=True, exist_ok=True)
    return directory


@contextmanager
def atomic_writer(path):
    """A binary file, open for writing, whose contents replace `path` in one
    step when the block ends: it is a temp file in the same directory, then
    `os.replace`d over `path`.  An `OSError` in opening, writing or moving
    it raises `UnwritableFile` naming `path`.  A block that fails part way
    leaves the old file intact and removes the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with output_errors(path):
            with open(tmp, "wb") as fh:
                yield fh
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_file(path, magic: bytes, doc_json: bytes, tensors: dict[str, np.ndarray]) -> None:
    """Write a JSON document plus named f32 tensors, replacing `path` atomically.

    This is the package's one binary layout; checkpoints and datasets
    differ only in their 4-byte magic, their JSON and their tensors.
    Layout: magic, u32 `FORMAT_VERSION`, u64 `json_hash` of the JSON
    bytes, u32 JSON length, the JSON bytes, u32 tensor count, then per
    tensor (sorted by name): u32 name length, UTF-8 name, u32 rank, rank
    u32 dims, row-major little-endian f32 payload.  Each part goes to
    the file in turn, a tensor's payload straight from its array's
    buffer (copied only to make it contiguous little-endian f32).
    """
    with atomic_writer(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, json_hash(doc_json), len(doc_json)))
        fh.write(doc_json)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            encoded = name.encode()
            fh.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded,
                                 arr.ndim, *arr.shape))
            fh.write(arr)


def read_input(path) -> bytes:
    """The bytes of an input file; `UnreadableFile` names a missing or unreadable one."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise UnreadableFile(f"{path}: {err.strerror}") from None


def read_file(path, magic: bytes, kind: str) -> tuple[object, dict[str, np.ndarray]]:
    """The decoded JSON document and the tensors of a `write_file` file; a
    damaged one fails with a named `SkelclError`, and the stored hash is
    checked against the raw JSON bytes before they are decoded.

    The header is read from the open file and each tensor's payload
    straight into its own new array, so the file is never held whole and
    no payload is copied.  Every length read from the file is checked
    against the file's size before it sizes a read or an array.
    """
    try:
        with open(path, "rb") as fh:
            return _read_open_file(fh, path, magic, kind)
    except OSError as err:
        raise UnreadableFile(f"{path}: {err.strerror}") from None


def _read_open_file(fh, path, magic: bytes, kind: str) -> tuple[object, dict[str, np.ndarray]]:
    size = os.fstat(fh.fileno()).st_size
    if fh.read(4) != magic:
        raise BadMagic(f"{path}: not a {kind} file")
    offset = 4

    def pull(fmt: str):
        """Unpack the next struct.calcsize(fmt) bytes of the file."""
        nonlocal offset
        n = struct.calcsize(fmt)
        data = fh.read(n) if offset + n <= size else b""
        if len(data) != n:  # past the end, or the file shrank while it was read
            raise TruncatedFile(f"{path}: ended early at offset {offset}")
        offset += n
        return struct.unpack(fmt, data)

    version, stored_hash, json_len = pull("<IQI")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (doc_json,) = pull(f"<{json_len}s")
    if json_hash(doc_json) != stored_hash:
        raise HashMismatch(f"{path}: stored hash does not match the embedded JSON")
    try:
        doc = json.loads(doc_json)
    except ValueError:  # not UTF-8 or not JSON, under a hash that matches it
        raise CorruptFile(f"{path}: embedded document is not JSON") from None

    (count,) = pull("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = pull("<I")
        encoded, rank = pull(f"<{name_len}sI")
        try:
            name = encoded.decode()
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: tensor name before offset {offset} is not UTF-8") from None
        dims = pull(f"<{rank}I")
        n = math.prod(dims) * 4  # Python ints: no wraparound for huge dims
        if offset + n > size:
            raise TruncatedFile(f"{path}: payload of {name!r} truncated")
        try:
            arr = np.empty(dims, dtype="<f4")
        except ValueError:  # dims NumPy cannot hold: rank > 64, or huge beside a zero
            raise CorruptFile(f"{path}: tensor {name!r} has unusable dims {dims}") from None
        if fh.readinto(arr) != n:  # the file shrank while it was read
            raise TruncatedFile(f"{path}: payload of {name!r} truncated")
        offset += n
        tensors[name] = arr
    return doc, tensors


def stratified_pick(labels: np.ndarray, fraction: float, gen: np.random.Generator,
                    floor: int = 0) -> list[int]:
    """Sorted indices of max(`floor`, round(size * `fraction`)) clips of
    each class of `labels`: class by class in ascending order, one
    `gen.permutation` of the class's indices, whose first ones are picked."""
    picked: list[int] = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        take = max(floor, int(round(idx.size * fraction)))
        picked.extend(int(i) for i in idx[gen.permutation(idx.size)][:take])
    return sorted(picked)


def stratified_split(
    sequences: list[SkeletonSequence], val_fraction: float, rng: RngStream
) -> list[str]:
    """Assign 'train'/'val' per sequence, class-stratified.

    Each class sends round(size * val_fraction) of its clips to val; a
    fraction that leaves either split empty is a `ConfigValueError`.
    """
    if not 0 < val_fraction < 1:
        raise ConfigValueError("val_fraction", f"must lie in (0, 1), got {val_fraction}")
    labels = np.array([s.label if s.label is not None else -1 for s in sequences])
    val = set(stratified_pick(labels, val_fraction, rng.generator()))
    assignment = ["val" if i in val else "train" for i in range(len(sequences))]
    empty = {"train", "val"} - set(assignment)
    if empty:
        split = " and ".join(sorted(empty))
        raise ConfigValueError("val_fraction", f"{val_fraction} leaves the {split} split empty")
    return assignment


def write_dataset(directory, sequences: list[SkeletonSequence], splits: list[str]) -> None:
    """Write the clips and their splits as one file, `directory/dataset.bin`.

    Its JSON holds the graph's `edges`, one label per clip (null when a
    clip has none) and one split name per clip; its one tensor, `clips`,
    is (N, T, C, V), so there must be at least one clip, and every clip
    must share one graph and frame count.
    """
    graph, clips = clip_batch(sequences)
    doc = {"edges": graph.edges, "labels": [s.label for s in sequences], "splits": list(splits)}
    path = make_dir(directory) / DATASET_FILE
    write_file(path, DATASET_MAGIC, json.dumps(doc).encode(), {"clips": clips})


def load_dataset(directory) -> dict[str, list[SkeletonSequence]]:
    """Clips by split name, in file order; every clip shares one graph."""
    path = Path(directory) / DATASET_FILE
    doc, tensors = read_file(path, DATASET_MAGIC, "dataset")
    clips = tensors.get("clips")
    if clips is None or clips.ndim != 4:
        raise CorruptFile(f"{path}: needs one (N, T, C, V) tensor named 'clips'")
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("edges"), list)
        and all(isinstance(doc.get(key), list) and len(doc[key]) == len(clips)
                for key in ("labels", "splits"))
    ):
        raise CorruptFile(f"{path}: header needs edges, and a label and a split per clip")
    if not all(label is None or (type(label) is int and label >= 0) for label in doc["labels"]):
        raise CorruptFile(f"{path}: labels must be nonnegative integers or null")
    if not all(isinstance(split, str) for split in doc["splits"]):
        raise CorruptFile(f"{path}: split names must be strings")
    if not all(isinstance(e, list) and len(e) == 2 and all(type(j) is int for j in e)
               for e in doc["edges"]):
        raise CorruptFile(f"{path}: edges must be pairs of joint indices")
    out: dict[str, list[SkeletonSequence]] = {"train": [], "val": []}
    try:
        graph = SkeletonGraph(num_joints=clips.shape[3], edges=tuple(map(tuple, doc["edges"])))
        for data, label, split in zip(clips, doc["labels"], doc["splits"]):
            out.setdefault(split, []).append(SkeletonSequence(data, graph, label))
    except (ShapeMismatch, TooShort) as err:
        raise CorruptFile(f"{path}: {err}") from None
    return out
