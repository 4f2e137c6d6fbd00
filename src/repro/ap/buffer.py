"""PS-mode frame buffering at the AP."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress


class BroadcastBuffer:
    """FIFO of group-addressed frames held until the next DTIM.

    The 802.11 rule: as long as any associated client is in PS mode, the
    AP buffers all broadcast/multicast frames and releases them right
    after a DTIM beacon, each carrying more-data = 1 except the last.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._frames: Deque[DataFrame] = deque()
        self._capacity = capacity
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def dropped(self) -> int:
        return self._dropped

    def enqueue(self, frame: DataFrame) -> bool:
        """Buffer a frame; drops (and counts) when full. Returns success."""
        if len(self._frames) >= self._capacity:
            self._dropped += 1
            return False
        self._frames.append(frame)
        return True

    def peek_all(self) -> Tuple[DataFrame, ...]:
        """The frames Algorithm 1 iterates over, in arrival order."""
        return tuple(self._frames)

    def drain(self) -> List[DataFrame]:
        """Remove all frames, tagging more-data on all but the last."""
        frames = list(self._frames)
        self._frames.clear()
        if not frames:
            return []
        tagged = [frame.with_more_data(True) for frame in frames[:-1]]
        tagged.append(frames[-1].with_more_data(False))
        return tagged


class UnicastBuffer:
    """Per-client FIFOs of unicast frames for PS clients."""

    def __init__(self, per_client_capacity: int = 256) -> None:
        if per_client_capacity <= 0:
            raise ValueError("capacity must be positive")
        self._queues: Dict[MacAddress, Deque[DataFrame]] = {}
        self._capacity = per_client_capacity
        self._dropped = 0

    @property
    def dropped(self) -> int:
        return self._dropped

    def enqueue(self, frame: DataFrame) -> bool:
        queue = self._queues.setdefault(frame.destination, deque())
        if len(queue) >= self._capacity:
            self._dropped += 1
            return False
        queue.append(frame)
        return True

    def clients_with_traffic(self) -> Tuple[MacAddress, ...]:
        return tuple(mac for mac, queue in self._queues.items() if queue)

    def pop_for(self, mac: MacAddress) -> Optional[DataFrame]:
        """Release one frame in response to a PS-Poll.

        The returned frame's more-data bit reflects whether more frames
        remain buffered for this client.
        """
        queue = self._queues.get(mac)
        if not queue:
            return None
        frame = queue.popleft()
        return frame.with_more_data(bool(queue))
