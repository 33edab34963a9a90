"""Versioned cells and cameras: reading the past in constant time.

A camera is a shared counter; taking a snapshot returns the counter value
(a handle) and nudges the counter forward.  Every versioned cell associated
with that camera can then answer "what did you hold at that handle?" by
walking its version list - no locking, no copying the structure.
"""

from chronocas import Camera, VersionedCas, instrument

# Instrumented cells log their versions and count their successful swaps;
# the count below shows how much history each write adds.
instrument.enable(True)

camera = Camera()
balance = VersionedCas(100, camera)

print("initial balance:", balance.read())

before_rent = camera.take_snapshot()
balance.cas(100, 40)                      # pay rent
payday = camera.take_snapshot()
balance.cas(40, 140)                      # salary lands

print("balance now:            ", balance.read())
print("balance before rent:    ", balance.read_snapshot(before_rent))
print("balance on payday cut:  ", balance.read_snapshot(payday))

# A failed compare-and-swap changes nothing, and equal-value writes do not
# even grow the history:
print("stale cas accepted?", balance.cas(40, 0))
versions = balance.succ_cas_count
balance.cas(140, 140)
print("history length unchanged by equal-value cas:",
      balance.succ_cas_count == versions)

# Handles are totally ordered: older handles always see prefix states.
h = [camera.take_snapshot()]
for value in (150, 160, 170):
    balance.cas(balance.read(), value)
    h.append(camera.take_snapshot())
print("history replay:", [balance.read_snapshot(x) for x in h])
