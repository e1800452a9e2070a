"""The beam rule: a row's probe at rank ``r`` of its routed list searches
``max(k, ceil(ef / (r + 1)))``, and a cluster's rows share one search
call whatever their ranks."""

from __future__ import annotations

import pytest

from repro.serving.executor import probe_ef


@pytest.mark.parametrize("ef, k, beams", [
    (32, 10, [32, 16, 11, 10, 10]),
    (33, 10, [33, 17, 11, 10]),
    (12, 10, [12, 10, 10]),
    (10, 10, [10, 10]),
    (48, 1, [48, 24, 16, 12, 10]),
])
def test_probe_ef_values(ef, k, beams):
    assert [probe_ef(ef, k, rank) for rank in range(len(beams))] == beams


def test_each_search_gets_its_rows_beams(built_deployment, small_dataset,
                                         monkeypatch):
    """One search per planned cluster, each of its rows at the beam of
    that cluster's place in the row's routes."""
    client = built_deployment.make_client(built_deployment.client().scheme,
                                          name="beams")
    routes: list[list[list[int]]] = []
    route_batch = client.meta.route_batch

    def routing(*args, **kwargs):
        routes.append(route_batch(*args, **kwargs))
        return routes[-1]

    searches = []
    run_wave_compute = client.engine.executor.run_wave_compute

    def searching(cid, entry, rows, queries, k, beams, *args):
        searches.append((cid, list(rows), list(beams)))
        return run_wave_compute(cid, entry, rows, queries, k, beams, *args)

    monkeypatch.setattr(client.meta, "route_batch", routing)
    monkeypatch.setattr(client.engine.executor, "run_wave_compute",
                        searching)
    client.search_batch(small_dataset.queries, 10, ef_search=32)
    required, = routes
    assert len(searches) == len({cid for cid, _, _ in searches})
    assert sorted((row, cid) for cid, rows, _ in searches for row in rows) \
        == sorted((row, cid) for row, cids in enumerate(required)
                  for cid in cids)
    for cid, rows, beams in searches:
        assert beams == [probe_ef(32, 10, required[row].index(cid))
                         for row in rows]
    # Rows of different ranks share a call.
    assert any(len(set(beams)) > 1 for _, _, beams in searches)
