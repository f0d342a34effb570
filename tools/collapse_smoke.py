"""Report whether a tiny pretraining run collapses its embeddings.

    python3 tools/collapse_smoke.py

Pretrains one stream ("joint") of 16 synthetic clips, 4 classes of 4
(`generate_synthetic_dataset(4, 4, frames=16, joints=9, seed=3)`), at
batch 16, queue 32, 200 basic-stage epochs with no learning-rate drop,
key momentum 0.9 and the default normal augmentation, once for each
model seed in `SEEDS`.  Per seed it prints the final step's loss, ln 33
(the loss of a collapsed query: its key is one of 33 equally similar
candidates) and the mean pairwise cosine of the 16 clips' eval-mode z
(`train.eval_features(..., projected=True)`): about 1 when every clip
maps to one direction.  It reports and gates nothing: no bound is set
until the projection head stops collapsing.  One seed takes 1-3 s on
one core.  NumPy and the package only; run it with `src` on
`PYTHONPATH`.
"""

from __future__ import annotations

import math

import numpy as np

from skelcl.config import RunConfig
from skelcl.skeleton import clip_batch, generate_synthetic_dataset, stream_arrays
from skelcl.train import eval_features, pretrain, z_spread

SEEDS = (7, 1, 2, 3, 4)
EPOCHS = 200
QUEUE = 32


def smoke(seed: int, epochs: int = EPOCHS) -> tuple[float, float]:
    """(final loss, mean pairwise cosine of eval-mode z) of one run."""
    data = generate_synthetic_dataset(4, 4, frames=16, joints=9, seed=3)
    config = RunConfig(seed=seed, streams=["joint"], batch_size=16, queue_size=QUEUE,
                       stage_epochs=[epochs, 0, 0], lr_drop_epoch=1000, key_momentum=0.9)
    state, records = pretrain(data, config)
    graph, joints = clip_batch(data)
    x = stream_arrays(joints, graph, ("joint",))["joint"]
    z = eval_features(x, graph.normalized_adjacency(np.float32), state.pairs["joint"].query,
                      projected=True)
    return records[-1]["loss_total"], z_spread(z)[0]


def report(seeds=SEEDS, epochs: int = EPOCHS) -> None:
    """Print one line per seed."""
    for seed in seeds:
        loss, cos = smoke(seed, epochs)
        print(f"seed {seed}: loss {loss:.4f} (ln {QUEUE + 1} = {math.log(QUEUE + 1):.4f}), "
              f"z cosine {cos:.4f}")


if __name__ == "__main__":
    report()
