"""Ordered sets with atomic range queries: Harris list and leaf-BST.

Both structures answer the same multi-point queries (range, range_sum,
succ, findif, ith, multisearch) against a single snapshot cut; only the
tree answers the shape query height.  The demo races paired inserts against
range queries: a query either sees a whole pair or none of it unless it
lands inside the updater's two-step window.
"""

import threading
import time

from chronocas import HarrisList, LeafBst

l = HarrisList()
for k in (1, 5, 9):
    l.insert(k)
print("list range [2,9]:", l.range_query(2, 9))
print("list multisearch:", l.multisearch([5, 7]))
print("list 2nd smallest:", l.ith(2))
print("list succ(1, 2):", l.succ(1, 2))

t = LeafBst()
for k in (1, 5, 9):
    t.insert(k)
print("bst range [2,9]:", t.range_query(2, 9))
print("bst range_sum [2,9]:", t.range_sum(2, 9))
print("bst succ(1, 2):", t.succ(1, 2))
print("bst 2nd smallest:", t.ith(2))
print("bst findif k%4==1 in [0,10):", t.find_if(0, 10, lambda k: k % 4 == 1))
print("bst height:", t.height())

# The recorded-once build stores version data inside the tree nodes
# themselves (no version-record indirection); deletions publish a fresh
# copy of the surviving sibling.
td = LeafBst(mode="direct")
for k in (1, 5, 9):
    td.insert(k)
td.delete(5)
print("direct-build tree after copy-on-delete:", td.range_query(0, 10))

# Paired updates vs concurrent range queries.
tree = LeafBst()
stop = threading.Event()

def pair_updater():
    while not stop.is_set():
        tree.insert(40)
        tree.insert(41)
        tree.delete(40)
        tree.delete(41)

w = threading.Thread(target=pair_updater)
w.start()
seen = {"both": 0, "neither": 0, "mixed": 0}
deadline = time.time() + 1.0
while time.time() < deadline:
    got = tree.range_query(40, 41)
    seen[{0: "neither", 1: "mixed", 2: "both"}[len(got)]] += 1
stop.set()
w.join()
print("pair visibility under racing queries:", seen)
print("(mixed sightings can only come from cuts inside the updater's "
      "two-step window)")
