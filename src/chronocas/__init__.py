"""chronocas: constant-time lazy snapshots for lock-free data structures.

Versioned compare-and-swap cells share a camera (a global timestamp
counter); taking a snapshot is two shared accesses, and any past state can
be read lazily through per-cell version lists.  On top of that the package
ships three snapshot-enabled structures with atomic multi-point queries
(Michael-Scott queue, Harris sorted list, leaf-oriented BST), epoch-based
reclamation of version history, sequential oracles, a brute-force
linearizability checker with a cooperative interleaving explorer, and a
benchmark/stress CLI (``chronocas-bench``).
"""

from .atomic import AtomicCell, PlainCell
from .bst import LeafBst
from .camera import INVALID_NEXTV, TBD, Camera
from .harris_list import HarrisList
from .msqueue import MsQueue
from .ordered import NEG_INF, POS_INF
from .reclaim import EpochManager, PoisonedReadError, ReclaimError
from .vcas import SnapshotPreconditionError, VersionedCas, VNode
from .vcas_direct import DirectVersionedCas, RecordedOnceError, Versionable

__all__ = [
    "AtomicCell", "PlainCell", "Camera", "TBD",
    "VersionedCas", "VNode", "SnapshotPreconditionError",
    "DirectVersionedCas", "Versionable", "INVALID_NEXTV", "RecordedOnceError",
    "EpochManager", "ReclaimError", "PoisonedReadError",
    "MsQueue", "HarrisList", "NEG_INF", "POS_INF", "LeafBst",
]

__version__ = "0.1.0"
