"""Skeleton sequences, body graphs, stream derivation, synthetic data, file IO.

A sequence is a (T, C, V) float32 array over a tree-structured body
graph.  Three derived views ("streams") of the same sequence feed the
contrastive pipeline: raw joint coordinates, bone vectors (differences
along graph edges), and motion (frame-to-frame displacement).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    SeparabilityFailure,
    ShapeMismatch,
    TooShort,
    TruncatedFile,
    UnknownStream,
)
from .rng import RngStream

STREAM_IDS = ("joint", "bone", "motion")


@dataclass(frozen=True)
class SkeletonGraph:
    """Tree of body joints; edges point from torso toward extremities."""

    num_joints: int
    edges: tuple[tuple[int, int], ...]
    root: int = 0

    def __post_init__(self):
        v = self.num_joints
        if len(self.edges) != v - 1:
            raise ShapeMismatch(f"tree on {v} joints needs {v - 1} edges")
        targets = [tgt for _, tgt in self.edges]
        if sorted(targets) != sorted(set(range(v)) - {self.root}):
            raise ShapeMismatch("every non-root joint must be the target of one edge")
        # reachability from the root
        children: dict[int, list[int]] = {}
        for src, tgt in self.edges:
            children.setdefault(src, []).append(tgt)
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            j = frontier.pop()
            for c in children.get(j, ()):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        if len(seen) != v:
            raise ShapeMismatch("edges do not span all joints from the root")

    def normalized_adjacency(self, dtype=np.float32) -> np.ndarray:
        """Symmetric-normalized undirected adjacency with self loops."""
        v = self.num_joints
        a = np.eye(v, dtype=np.float64)
        for src, tgt in self.edges:
            a[src, tgt] = 1.0
            a[tgt, src] = 1.0
        d = a.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(d)
        return (a * inv_sqrt[:, None] * inv_sqrt[None, :]).astype(dtype)


@dataclass
class SkeletonSequence:
    """One motion clip: (frames, channels, joints) array plus its graph."""

    data: np.ndarray
    graph: SkeletonGraph
    label: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ShapeMismatch("sequence data must be (T, C, V)")
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
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def joints(self) -> int:
        return self.data.shape[2]


def derive_bone(seq: SkeletonSequence) -> np.ndarray:
    """Bone vectors stored at each edge's target joint; root stays zero."""
    out = np.zeros_like(seq.data)
    for src, tgt in seq.graph.edges:
        out[:, :, tgt] = seq.data[:, :, tgt] - seq.data[:, :, src]
    return out


def derive_motion(seq: SkeletonSequence) -> np.ndarray:
    """Adjacent-frame displacement; last frame zero-padded to keep T."""
    if seq.frames < 2:
        raise TooShort("motion needs at least 2 frames")
    out = np.zeros_like(seq.data)
    out[:-1] = seq.data[1:] - seq.data[:-1]
    return out


def derive_streams(seq: SkeletonSequence, stream_ids) -> dict[str, np.ndarray]:
    """Stream id -> (T, C, V) array derived from `seq`."""
    stream_ids = tuple(stream_ids)
    if not stream_ids:
        raise UnknownStream("need at least one stream id")
    out: dict[str, np.ndarray] = {}
    for sid in stream_ids:
        if sid == "joint":
            out[sid] = seq.data.copy()
        elif sid == "bone":
            out[sid] = derive_bone(seq)
        elif sid == "motion":
            out[sid] = derive_motion(seq)
        else:
            raise UnknownStream(f"unknown stream id {sid!r}")
    return out


def shared_graph(sequences: list[SkeletonSequence]) -> SkeletonGraph:
    """The one skeleton graph every clip of `sequences` is defined on."""
    graph = sequences[0].graph
    if any(s.graph is not graph and s.graph != graph for s in sequences):
        raise ShapeMismatch("clips do not all share one skeleton graph")
    return graph


# -- synthetic dataset ---------------------------------------------------------


def build_star_tree(num_joints: int) -> SkeletonGraph:
    """Root plus four limb chains, joints dealt round-robin to the limbs."""
    if num_joints < 5:
        raise ValueError("star tree needs at least 5 joints")
    limb_of: list[list[int]] = [[], [], [], []]
    for j in range(1, num_joints):
        limb_of[(j - 1) % 4].append(j)
    edges: list[tuple[int, int]] = []
    for chain in limb_of:
        prev = 0
        for j in chain:
            edges.append((prev, j))
            prev = j
    return SkeletonGraph(num_joints=num_joints, edges=tuple(edges), root=0)


_LIMB_DIRECTIONS = np.array(
    [
        [0.8, 0.6, 0.0],  # right arm, up-ish
        [-0.8, 0.6, 0.0],  # left arm
        [0.4, -0.9, 0.2],  # right leg, down-ish
        [-0.4, -0.9, -0.2],  # left leg
    ]
)
_LIMB_SWING_AXES = np.array(
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
        raise ValueError(f"at most {len(perms)} distinguishable classes supported")
    order = gen.permutation(len(perms))
    return [perms[i] for i in order[:num_classes]]


def _sample_trajectory(
    graph: SkeletonGraph,
    frames: int,
    freq_of_limb: np.ndarray,
    phase_of_limb: np.ndarray,
    rate: float,
    global_phase: float,
) -> np.ndarray:
    """Evaluate limb swing + extension sinusoids; returns (T, 3, V)."""
    v = graph.num_joints
    t = np.arange(frames, dtype=np.float64) / frames
    data = np.zeros((frames, 3, v))

    # limb and depth of every non-root joint, from the chain layout
    limb_of: dict[int, int] = {}
    depth_of: dict[int, int] = {}
    next_limb = 0
    for src, tgt in graph.edges:
        if src == graph.root:
            limb_of[tgt] = next_limb
            next_limb += 1
            depth_of[tgt] = 1
        else:
            limb_of[tgt] = limb_of[src]
            depth_of[tgt] = depth_of[src] + 1

    for joint, limb in limb_of.items():
        depth = depth_of[joint]
        direction = _LIMB_DIRECTIONS[limb % 4]
        direction = direction / np.linalg.norm(direction)
        axis = _LIMB_SWING_AXES[limb % 4]
        axis = axis / np.linalg.norm(axis)
        phase = 2.0 * math.pi * freq_of_limb[limb % 4] * rate * t
        phase = phase + phase_of_limb[limb % 4] + global_phase
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


def fourier_oracle_features(data: np.ndarray, root: int, num_bins: int = 8) -> np.ndarray:
    """Rotation/translation-invariant spectral features of one sequence.

    Uses per-joint root-relative distance and per-joint speed signals;
    both are preserved by global rotations, so they expose the class
    structure (which limb oscillates at which frequency) without
    leaking the sample's random pose.
    """
    rel = data - data[:, :, root : root + 1]
    radius = np.linalg.norm(rel, axis=1)  # (T, V)
    speed = np.linalg.norm(np.diff(data, axis=0), axis=1)  # (T-1, V)
    feats = []
    for signal in (radius, speed):
        centered = signal - signal.mean(axis=0, keepdims=True)
        mags = np.abs(np.fft.rfft(centered, axis=0))[1 : 1 + num_bins]
        feats.append(mags.T.reshape(-1))
    return np.concatenate(feats)


def oracle_classifier_accuracy(sequences: list[SkeletonSequence]) -> float:
    """Nearest-centroid accuracy on hand-crafted Fourier features."""
    feats = np.stack(
        [fourier_oracle_features(s.data.astype(np.float64), s.graph.root) for s in sequences]
    )
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
    speed_jitter: float = 0.2,
    rotate: bool = True,
    check_separability: bool = True,
    max_attempts: int = 3,
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
    `SeparabilityFailure` is raised once `max_attempts` is exhausted.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if joints < 5:
        raise ValueError("need at least 5 joints")
    if frames < 16:
        raise ValueError("need at least 16 frames")

    graph = build_star_tree(joints)
    last_accuracy = 0.0
    for attempt in range(max_attempts):
        root_stream = RngStream(seed).split(f"synthetic.attempt{attempt}")
        assignments = _limb_assignments(num_classes, root_stream.split("classes").generator())
        sequences: list[SkeletonSequence] = []
        for k in range(num_classes):
            class_stream = root_stream.split(f"class{k}")
            freq_of_limb = _LIMB_FREQUENCIES[list(assignments[k])]
            phase_of_limb = class_stream.split("phases").uniform(0.0, 2.0 * math.pi, 4)
            for i in range(per_class):
                g = class_stream.split(f"sample{i}").generator()
                rate = 1.0 + g.uniform(-speed_jitter, speed_jitter)
                global_phase = g.uniform(0.0, 2.0 * math.pi)
                rotation = _random_rotation(g)
                data = _sample_trajectory(
                    graph, frames, freq_of_limb, phase_of_limb, rate, global_phase
                )
                if rotate:
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
        f"oracle accuracy {last_accuracy:.3f} < 0.95 after {max_attempts} attempts"
    )


# -- on-disk format --------------------------------------------------------------

_MAGIC = b"SKL1"


def write_sequence(path, seq: SkeletonSequence) -> None:
    """Binary layout: magic, T, C, V, E, edges, label flag+value, f32 data."""
    t, c, v = seq.data.shape
    parts = [_MAGIC, struct.pack("<IIII", t, c, v, len(seq.graph.edges))]
    for src, tgt in seq.graph.edges:
        parts.append(struct.pack("<II", src, tgt))
    if seq.label is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<BI", 1, seq.label))
    parts.append(seq.data.astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_sequence(path) -> SkeletonSequence:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise BadMagic(f"{path}: expected {_MAGIC!r} header")
    offset = 4

    def pull(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(raw):
            raise TruncatedFile(f"{path}: ended inside header")
        values = struct.unpack_from(fmt, raw, offset)
        offset += size
        return values

    t, c, v, e = pull("<IIII")
    edges = tuple(pull("<II") for _ in range(e))
    (has_label,) = pull("<B")
    label = pull("<I")[0] if has_label else None
    payload = t * c * v * 4
    if offset + payload > len(raw):
        raise TruncatedFile(f"{path}: header claims {t * c * v} floats, payload short")
    data = np.frombuffer(raw, dtype="<f4", count=t * c * v, offset=offset).reshape(t, c, v)
    try:
        graph = SkeletonGraph(num_joints=v, edges=edges)
    except ShapeMismatch:
        raise
    return SkeletonSequence(data=data.copy(), graph=graph, label=label)


def stratified_split(
    sequences: list[SkeletonSequence], val_fraction: float, rng: RngStream
) -> list[str]:
    """Assign 'train'/'val' per sequence, class-stratified."""
    labels = np.array([s.label if s.label is not None else -1 for s in sequences])
    assignment = ["train"] * len(sequences)
    gen = rng.generator()
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[gen.permutation(len(idx))]
        n_val = int(round(len(idx) * val_fraction))
        for i in idx[:n_val]:
            assignment[int(i)] = "val"
    return assignment


def write_dataset(directory, sequences: list[SkeletonSequence], splits: list[str]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (seq, split) in enumerate(zip(sequences, splits)):
        name = f"seq_{i:05d}.skl"
        write_sequence(directory / name, seq)
        entries.append({"name": name, "split": split})
    manifest = {"files": entries}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_dataset(directory) -> dict[str, list[SkeletonSequence]]:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    out: dict[str, list[SkeletonSequence]] = {"train": [], "val": []}
    for entry in manifest["files"]:
        out.setdefault(entry["split"], []).append(read_sequence(directory / entry["name"]))
    return out
