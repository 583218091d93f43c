"""Ride hailing: matching drivers to passengers on a dynamic network.

The paper's Section 1 cites Uber/Lyft-style services running "millions of
real-time distance queries" to match drivers with passengers under
changing traffic. This example:

* scatters a fleet of drivers over a synthetic city;
* for each incoming request, finds the k nearest available drivers by
  *road distance* (one-to-many queries over the DHL index);
* injects random congestion between batches of requests (DHL+ updates)
  and shows how the matching shifts.

Run with::

    python examples/ride_hailing.py
"""

from __future__ import annotations

import time

from repro import DHLConfig, DHLIndex, delaunay_network
from repro.utils.rng import make_rng

NETWORK_SIZE = 3_000
FLEET = 120
REQUEST_WAVES = 4
REQUESTS_PER_WAVE = 50
K = 3


def main() -> None:
    rng = make_rng(23)
    graph = delaunay_network(NETWORK_SIZE, seed=23, style="city")
    index = DHLIndex.build(graph, DHLConfig(seed=0))
    print(
        f"city with {graph.num_vertices} intersections; "
        f"fleet of {FLEET} drivers; k={K}"
    )

    drivers = [int(v) for v in rng.choice(NETWORK_SIZE, size=FLEET, replace=False)]
    edges = list(index.graph.edges())

    for wave in range(REQUEST_WAVES):
        # Traffic between waves: 3% of roads slow down, earlier jams clear.
        jams = rng.choice(len(edges), size=len(edges) // 33, replace=False)
        index.update(
            [(edges[j][0], edges[j][1], 3 * edges[j][2]) for j in jams]
        )

        pickups = rng.choice(NETWORK_SIZE, size=REQUESTS_PER_WAVE, replace=False)
        start = time.perf_counter()
        total_eta = 0.0
        sample = None
        for pickup in pickups:
            matches = index.k_nearest(int(pickup), drivers, K)
            total_eta += matches[0][1]
            if sample is None:
                sample = (int(pickup), matches)
        elapsed = time.perf_counter() - start
        per_request = elapsed / REQUESTS_PER_WAVE * 1e3

        pickup, matches = sample
        formatted = ", ".join(f"driver {d} @ {eta:.0f}" for d, eta in matches)
        print(
            f"wave {wave}: {REQUESTS_PER_WAVE} requests x {FLEET} drivers in "
            f"{elapsed * 1e3:.0f}ms ({per_request:.2f}ms/request); "
            f"mean best ETA {total_eta / REQUESTS_PER_WAVE:.0f}"
        )
        print(f"        e.g. pickup {pickup}: {formatted}")

        # Clear this wave's jams before the next one.
        index.update([(edges[j][0], edges[j][1], edges[j][2]) for j in jams])

    print("\ndone — matching stayed exact throughout (hub labelling is exact)")


if __name__ == "__main__":
    main()
