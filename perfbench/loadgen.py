"""Open-loop traffic for serve-mixed: a seeded schedule and its sender.

The whole schedule (due times, request kinds and bodies) is built from the
seed before the first request goes out: requests are due at a fixed
rate, their kinds follow a fixed cycle, and the seed picks the keys they
read and the seeds they write. Requests are sent from one process over
a fixed number of keep-alive connections, each owned by one thread.
Latency is timed from when a request was due, so a stall that delays
later sends is charged to them.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Dict, List, Optional

from repro.serve.client import ServeClient, ServeError

#: Ladder of percentiles a tail may be reported at.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_PATHS = {"pop_read": "/v1/population", "write": "/v1/population",
          "sim_read": "/v1/simulate"}


def blocks_in(spec: dict, seconds: float) -> int:
    """How many whole traffic blocks fit in ``seconds`` (at least one)."""
    return max(1, int(seconds // spec["block_seconds"]))


def build_schedule(seed: int, spec: dict, store: dict,
                   seconds: float) -> List[dict]:
    """Every request of one run, in due order (``due`` in seconds).

    Requests are due at a fixed interval, ``1 / offered_rps``, and their
    kinds follow ``cycle`` over and over, so the way requests queue behind
    each other is the same for every seed; the seed picks what each
    request asks for. The run is a train of equal blocks of
    ``block_seconds``, so each block does the same work and blocks can
    be compared with each other. Each block reads its own
    ``block_read_keys`` warm populations, each the same number of times,
    so every block finds the same share of its reads in the server's
    memory and the rest on disk.
    """
    rng = random.Random(f"serve-mixed-schedule-{seed}")
    block = spec["block_seconds"]
    interval = 1.0 / spec["offered_rps"]
    slots = round(block / interval)
    if slots % len(spec["cycle"]):
        raise ValueError("a block must hold whole cycles of request kinds")
    kinds = [spec["cycle"][slot % len(spec["cycle"])] for slot in range(slots)]
    dues = [slot * interval for slot in range(slots)]
    pop_reads = kinds.count("pop_read")
    blocks = blocks_in(spec, seconds)
    per_block = spec["block_read_keys"]
    # The last read key is the server's warm-up request.
    if blocks * per_block > len(store["reads"]) - 1:
        raise ValueError(f"{blocks} blocks need more than "
                         f"{len(store['reads'])} warm read keys")
    fresh = iter(store["fresh_seeds"])
    schedule = []
    for index in range(blocks):
        keys = store["reads"][index * per_block:(index + 1) * per_block]
        reads = (keys * -(-pop_reads // per_block))[:pop_reads]
        rng.shuffle(reads)
        reads = iter(reads)
        for due, kind in zip(dues, kinds):
            if kind == "pop_read":
                body = dict(next(reads))
            elif kind == "sim_read":
                body = dict(rng.choice(store["sims"]))
            else:
                body = {"seed": next(fresh), "chips": spec["write_chips"]}
            schedule.append({"kind": kind, "due": index * block + due,
                             "block": index, "body": body})
    return schedule


def _send(client: ServeClient, op: dict) -> Dict[str, object]:
    # The raw body, not the parsed one: warm reads are checked byte for byte.
    try:
        text = client._request("POST", _PATHS[op["kind"]], op["body"],
                               raw=True)
        return {"status": 200, "text": text}
    except ServeError as exc:
        return {"status": exc.status, "text": None}
    except (OSError, ValueError, http.client.HTTPException) as exc:
        return {"status": 0, "text": None, "error": repr(exc)}


def drive(host: str, port: int, schedule: List[dict], connections: int,
          start: float) -> List[dict]:
    """Send ``schedule`` open-loop from ``start``; one outcome per request.

    ``start`` is a ``time.perf_counter()`` reading. Outcome times are
    seconds relative to it: ``due``, ``sent`` (late by ``sent - due`` when
    every connection was busy) and ``done``.
    """
    outcomes: List[Optional[dict]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def worker() -> None:
        with ServeClient(host, port, timeout=30.0) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op = schedule[index]
                delay = start + op["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter() - start
                outcome = _send(client, op)
                outcome.update(kind=op["kind"], due=op["due"],
                               block=op["block"], sent=sent,
                               done=time.perf_counter() - start)
                outcomes[index] = outcome

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def check(schedule: List[dict], outcomes: List[dict]) -> None:
    """Mark each outcome ``ok``: 2xx, parses, and passes its output check.

    Warm reads must be byte-identical to the first answer for their key;
    cold writes must report base yields in [0, 1].
    """
    first: Dict[str, str] = {}
    for op, outcome in zip(schedule, outcomes):
        outcome["ok"] = False
        if outcome["status"] // 100 != 2 or outcome["text"] is None:
            outcome["why"] = f"status {outcome['status']} {outcome.get('error', '')}"
            continue
        try:
            payload = json.loads(outcome["text"])
        except ValueError:
            outcome["why"] = "reply does not parse"
            continue
        if op["kind"] == "write":
            outcome["ok"] = all(
                0.0 <= payload[arch]["base_yield"] <= 1.0
                for arch in ("regular", "horizontal"))
            outcome["why"] = "base yield outside [0, 1]"
            continue
        key = op["kind"] + json.dumps(op["body"], sort_keys=True)
        outcome["ok"] = first.setdefault(key, outcome["text"]) == outcome["text"]
        outcome["why"] = "differs from the first answer for its key"


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: List[float]):
    """(percentile, value): the highest ladder percentile with >= 10 beyond."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return None, max(values)
