"""Atomic multi-point queries on the Michael-Scott queue.

scan / peek_endpoints / ith each take one snapshot and resolve every link at
that cut, so their answers are states the queue actually passed through,
even while other threads keep enqueueing and dequeueing.
"""

import threading

from chronocas import MsQueue

q = MsQueue()
q.enqueue(3)
q.enqueue(10)

print("scan:", q.scan())
print("endpoints:", q.peek_endpoints())
print("2nd element:", q.ith(2), "| 5th element:", q.ith(5))

# The classic worked scenario: hold a cut, mutate, then read the cut.  The
# handle lives only inside the query block, whose pin also covers the updates.
with q.epoch.query(q.camera) as cut:
    q.enqueue(10)
    q.dequeue()
    print("scan at the old cut:", q.scan(at=cut), "(the mutations came later)")
print("scan now:           ", q.scan())

# Under contention every scan is still some real intermediate state.
stop = threading.Event()

def churn():
    k = 100
    while not stop.is_set():
        q.enqueue(k)
        q.dequeue()
        k += 1

t = threading.Thread(target=churn)
t.start()
lengths = {len(q.scan()) for _ in range(2000)}
stop.set()
t.join()
# The churn thread holds the queue at 2 or 3 items; which lengths a run
# happens to see depends on the schedule, so only the bound is printed.
print("every scan while racing a churn thread saw 2 or 3 items:",
      lengths <= {2, 3})
