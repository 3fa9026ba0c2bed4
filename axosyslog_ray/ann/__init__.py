"""Similarity search over embedding columns (list<float>).

Brute-force cosine top-k is the exact baseline; LSH, IVF and PQ are the
scale paths. All four run one candidate scan (ann/scan.py): each corpus
batch is scored against the broadcast queries by the method's own
scorer, keeps its k best per query by (sim desc, id asc), and the driver
merges the tiny candidate tables with the same order — a tie at the
k-th place keeps the smaller id, whatever the batch split. Also
embedding-cosine near-duplicate pairing.
"""

from .brute import CosineTopK, ann_topk, near_dup_pairs  # noqa: F401
from .lsh import lsh_ann_topk  # noqa: F401
from .ivf import ivf_ann_topk, train_centroids  # noqa: F401
from .pq import pq_ann_topk, train_pq, encode_pq  # noqa: F401
