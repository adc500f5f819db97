"""Wave payloads: by value in the task spec, or one ``ray.put`` per wave.

A wave ships a few broadcast payloads to its tasks: the flips hashes of
the eligible filter, the robots rules payload and the strict-robots
recheck set, the scheduler payload, compaction's status arrays, the novel
filter's winners and the run's fetch-transport factory. The rule is one
helper, :func:`ship`:

- a payload below Ray's inline-argument limit (:data:`INLINE_LIMIT`,
  100 KiB) travels by value in the task spec: it costs no object-store
  write, no fetch in the task and no reference counting between the
  driver and the task that borrows it;
- a larger one is ``ray.put`` once, and its ref is shared by the round's
  tasks, so every node keeps one copy (SCALE.md §2: the flips cap and the
  scheduler payload at 10^10 urls).

Every consumer takes either form (:func:`resolve`). Worker-side caches
that outlive a wave key on content, not on refs: the robots rules index
on the payload's ``key`` (``state.hosts.HostsState.rules_payload``) and
the fetch transport on a per-run token (``stages.fetch._transport``).
"""

from __future__ import annotations

import numpy as np
import ray
from ray._private.ray_constants import DEFAULT_MAX_DIRECT_CALL_OBJECT_SIZE

# Ray inlines a task argument of at most this many serialized bytes in the
# task spec; a larger argument goes through the object store
INLINE_LIMIT = DEFAULT_MAX_DIRECT_CALL_OBJECT_SIZE


def nbytes(obj, limit: int | None = None) -> int:
    """An upper estimate of ``obj``'s serialized size: numpy buffers and
    strings by their bytes, containers by their items plus a few bytes of
    framing each, anything else by its pickle. A container stops counting
    once it passes ``limit``."""
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        return obj.nbytes + 64
    if isinstance(obj, str):
        return (len(obj) if obj.isascii() else 4 * len(obj)) + 8
    if isinstance(obj, bytes):
        return len(obj) + 8
    if isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    if isinstance(obj, (list, tuple)):
        n = 16
        for x in obj:
            n += 8 + nbytes(x, None if limit is None else limit - n)
            if limit is not None and n >= limit:
                break
        return n
    return len(ray.cloudpickle.dumps(obj))


def ship(obj):
    """``obj`` itself when it travels inline, else a ``ray.put`` ref of it."""
    return obj if nbytes(obj, INLINE_LIMIT) < INLINE_LIMIT else ray.put(obj)


def resolve(x):
    """The payload behind ``x``: ``ray.get`` of a ref, else ``x`` itself."""
    return ray.get(x) if isinstance(x, ray.ObjectRef) else x
