"""The network plan: TFCN's wiring, described once.

Feature 0 is the input module's output and feature k + 1 is the output of
dilated block k, counted across repeated blocks. A block reads the
channel-concatenation of its source features and adds its primary feature
(always its last source) back as the residual. With ``dense_intra`` a block
also reads every earlier output of its repeated block; with ``dense_inter``
the first block of a repeated block reads the input module and every earlier
repeated block's output. Otherwise a block reads its predecessor alone.

Construction, pad planning, the batch forward and backward and streaming all
walk this one plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import ModelConfig


@dataclass(frozen=True)
class BlockNode:
    """Dilated block ``index`` of repeated block ``repeat``."""

    name: str
    repeat: int
    index: int
    dilation: tuple[int, int]       # (freq, time) of its dilated conv
    sources: tuple[int, ...]        # feature ids, concatenated in this order
    primary: int
    out: int
    last_reads: tuple[int, ...]     # features no later block reads


@dataclass(frozen=True)
class NetworkPlan:
    blocks: tuple[BlockNode, ...]

    @property
    def final(self) -> int:
        """The feature the output module reads."""
        return len(self.blocks)


@lru_cache(maxsize=8)
def network_plan(cfg: ModelConfig) -> NetworkPlan:
    wiring = []                     # (sources, primary) per block
    inter, primary = [0], 0         # input module and repeated-block outputs
    for _ in range(cfg.repeated_blocks):
        sources = list(inter) if cfg.dense_inter else [primary]
        for n in range(cfg.dilated_blocks_per_repeat):
            if n > 0:
                sources = sources + [primary] if cfg.dense_intra else [primary]
            wiring.append((tuple(sources), primary))
            primary = len(wiring)
        inter.append(primary)
    last_reader = {f: k for k, (sources, _) in enumerate(wiring) for f in sources}
    per_repeat = cfg.dilated_blocks_per_repeat
    nodes = []
    for k, (sources, primary) in enumerate(wiring):
        r, n = divmod(k, per_repeat)
        d = cfg.dilation_for(n)
        nodes.append(BlockNode(
            name=f"rb{r}.db{n}", repeat=r, index=n,
            dilation=(d if cfg.dilated_kernel[0] > 1 else 1, d),
            sources=sources, primary=primary, out=k + 1,
            last_reads=tuple(f for f in sources if last_reader[f] == k)))
    return NetworkPlan(tuple(nodes))
