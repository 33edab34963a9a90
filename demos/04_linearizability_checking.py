"""Recording histories, checking linearizability, exploring interleavings.

The recorder stamps every invocation/response with a global sequence; the
checker searches for a witness ordering against a sequential spec.  The
cooperative explorer then enumerates *every* interleaving of a small
program at shared-memory-access granularity - and shows that the versioned
cell's helping step is load-bearing by knocking it out.
"""

import chronocas.vcas as vcas_mod
from chronocas import Camera, VersionedCas
from chronocas.lincheck import Recorder, check_linearizable, explore
from chronocas.oracle import SeqVcas

# -- a hand-built broken history is refused with a witness -------------------

from chronocas.lincheck import History, OpRecord

bad = History([
    OpRecord(0, 0, "snapshot", (), 0, 1, 2),
    OpRecord(1, 1, "vcas", ("A", "B"), True, 3, 4),
    OpRecord(2, 0, "readsnapshot", (0,), "B", 5, 6),   # sees the future
])
bad.validate()
verdict = check_linearizable(bad, SeqVcas.create("A"))
print("hand-built violation ->", verdict.status)
print(verdict.witness)
print()

# -- exhaustive exploration of a racing program --------------------------------

def racing_program():
    cam = Camera()
    cell = VersionedCas("A", cam)
    rec = Recorder()

    def writer():
        rec.run(1, "vcas", ("A", "B"), lambda: cell.cas("A", "B"))

    def reader():
        rec.run(2, "vread", (), cell.read)
        h = rec.run(2, "snapshot", (), cam.take_snapshot)
        rec.run(2, "readsnapshot", (h,), lambda: cell.read_snapshot(h))
    return [writer, reader], rec.history

spec = SeqVcas.create("A")
result = explore(racing_program)
rejected = sum(1 for h in result.histories
               if check_linearizable(h, spec).rejected)
print(f"correct build: {result.runs} interleavings, {rejected} rejected")

# -- knock out the read-side helping and watch it fail --------------------------

vcas_mod._mutations = frozenset(["no_read_help"])
try:
    result = explore(racing_program)
    broken = [h for h in result.histories
              if check_linearizable(h, spec).rejected]
    print(f"without read-helping: {result.runs} interleavings, "
          f"{len(broken)} rejected")
    print("one failing interleaving:")
    print(broken[0].describe())
finally:
    vcas_mod._mutations = frozenset()
