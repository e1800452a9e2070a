#!/usr/bin/env python3
"""Serving under load: the multi-tenant front door end to end.

``examples/slo_tuning.py`` answers *"what efSearch do I need?"* for one
batch at a time.  This example answers the production question that
follows: *"what happens when requests arrive one by one, from several
tenants, faster than I can serve them?"*

1. Calibrate two operating points — the normal beam width for the SLO's
   recall target, and a degraded one for overload — with the same
   auto-tuner.
2. Serve steady Poisson traffic through the front door: waves form
   under a 2 ms batching budget, tenants share via weighted DRR, and
   every request's queue delay is split from its time in the wave.
3. Slam the door with a burst: watch admission shed the flooding
   tenant, the door degrade beam widths, and the report account
   for every downgrade honestly.

Run:  python examples/frontdoor_slo.py
"""

from __future__ import annotations

import numpy as np

from repro import Deployment, DHnswConfig
from repro.core.tuning import tune_ef_search
from repro.datasets import sift_like
from repro.frontdoor import (FrontDoor, FrontDoorConfig, TenantPolicy,
                             bursty_arrivals, make_requests,
                             poisson_arrivals)
from repro.telemetry import DeploymentTelemetry, render_report


def main() -> None:
    # Wider clusters (cluster_std) make recall genuinely beam-dependent;
    # this corpus tops out near recall 0.86 at nprobe=4, so the targets
    # below sit just under the ceiling and the knee of the ef curve.
    dataset = sift_like(num_vectors=5000, num_queries=150,
                        num_clusters=60, seed=11, cluster_std=0.25)
    validation = dataset.queries[:50]
    validation_truth = dataset.ground_truth[:50]

    print("building the deployment...")
    deployment = Deployment(dataset.vectors, DHnswConfig(nprobe=4, seed=11),
                            simulate_link_contention=False)
    scheme = deployment.client().scheme

    print("\n== 1. calibrating the two operating points ==")
    tuner_client = deployment.make_client(scheme, name="tuner")
    normal = tune_ef_search(tuner_client, validation, validation_truth,
                            k=10, target_recall=0.86, ef_max=128)
    degraded_ef = tune_ef_search(tuner_client, validation,
                                 validation_truth, k=10,
                                 target_recall=0.85, ef_max=128).ef_search
    print(f"normal efSearch    : {normal.ef_search} "
          f"(recall {normal.recall:.3f})")
    print(f"degraded efSearch  : {degraded_ef} (recall floor 0.85 "
          f"under overload)")

    config = FrontDoorConfig(max_batch=32, degraded_ef=degraded_ef)
    tenants = {
        "gold": TenantPolicy(weight=4.0),
        "free": TenantPolicy(rate_qps=2000.0),
    }

    print("\n== 2. steady traffic: 1500 qps across two tenants ==")
    door = FrontDoor(deployment.make_client(scheme, name="steady"),
                     config, tenants)
    rng = np.random.default_rng(11)
    steady = door.run(make_requests(
        poisson_arrivals(1500.0, 600, rng), dataset.queries, k=10,
        slo_us=door.tenant_slo_us("gold"), rng=rng,
        tenants=("gold", "free"),
        tenant_weights=(1.0, 1.0), ef_search=normal.ef_search))
    queue = steady.queue_delay_percentiles()
    print(f"served             : {steady.served}/{steady.offered} across "
          f"{len(steady.waves)} waves "
          f"(mean occupancy {steady.mean_occupancy:.1f})")
    print(f"queue delay        : p50 {queue['p50']:.0f} us, "
          f"p99 {queue['p99']:.0f} us (budget "
          f"{config.max_wait_us:.0f} us)")

    print("\n== 3. overload: a 20x burst from the free tier ==")
    burst_door = FrontDoor(deployment.make_client(scheme, name="burst"),
                           config, tenants)
    rng = np.random.default_rng(13)
    burst = burst_door.run(make_requests(
        bursty_arrivals(30_000.0, 500.0, burst_us=20_000.0,
                        idle_us=30_000.0, count=900, rng=rng),
        dataset.queries, k=10, slo_us=burst_door.tenant_slo_us("gold"),
        rng=rng, tenants=("gold", "free"), tenant_weights=(5.0, 5.0),
        ef_search=normal.ef_search))
    print(f"served             : {burst.served}/{burst.offered} "
          f"({burst.degraded} degraded to ef={degraded_ef}, "
          f"{burst.shed_admission} shed at admission, "
          f"{burst.shed_deadline} shed past deadline)")
    for tenant in burst.tenants():
        print(f"  {tenant.tenant:<5}: {tenant.served}/{tenant.offered} "
              f"served, p99 queue delay "
              f"{tenant.p99_queue_delay_us:.0f} us")

    print("\n== 4. the operator report ==")
    print(render_report(DeploymentTelemetry.from_deployment(deployment),
                        frontdoor=burst))


if __name__ == "__main__":
    main()
