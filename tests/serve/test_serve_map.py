"""GET /v1/map: the precomputed-map lookup endpoint.

The daemon mounts a :class:`repro.grid.MapService` when configured
with ``map_path``; the endpoint answers from the file without ever
running a search, 503s honestly when the queried region is unbuilt,
and reports the map's coverage in ``/healthz``.
"""

import json
import os
import time
import urllib.error
import urllib.request

import jsonschema
import pytest

from repro.availability import get_engine
from repro.contracts import MAP_STATUS_SCHEMA
from repro.core import DesignEvaluator
from repro.core.frontier import build_requirement_map
from repro.core.serialize import requirement_map_to_json
from repro.serve.loadgen import tiny_specs
from repro.spec import parse_infrastructure, parse_service

MAP_LOADS = (100.0, 200.0, 300.0)


def get(daemon, path):
    try:
        with urllib.request.urlopen(daemon.url + path,
                                    timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def map_evaluator():
    infrastructure_text, service_text = tiny_specs()
    return DesignEvaluator(parse_infrastructure(infrastructure_text),
                           parse_service(service_text),
                           get_engine("markov"))


@pytest.fixture
def map_file(map_evaluator, tmp_path):
    space_map = build_requirement_map(map_evaluator, "web", MAP_LOADS)
    path = tmp_path / "map.json"
    path.write_text(requirement_map_to_json(space_map))
    return str(path)


class TestMapEndpoint:
    def test_ok_lookup_answers_without_search(self, make_daemon,
                                              map_file):
        daemon = make_daemon(map_path=map_file)
        status, body = get(daemon,
                           "/v1/map?load=150&downtime_minutes=5000")
        assert status == 200
        assert body["answer"] == "ok"
        assert body["grid_load"] == 200.0
        assert body["coverage"] == 1.0
        assert body["design"]["downtime_minutes"] <= 5000
        # No design job ran: the lookup path never searches.
        assert daemon.service.store.counts() == {}

    def test_infeasible_is_a_definitive_200(self, make_daemon,
                                            map_file):
        daemon = make_daemon(map_path=map_file)
        status, body = get(
            daemon, "/v1/map?load=150&downtime_minutes=1e-15")
        assert status == 200
        assert body["answer"] == "infeasible"

    def test_unbuilt_region_is_503_with_coverage(self, make_daemon,
                                                 map_file):
        daemon = make_daemon(map_path=map_file)
        status, body = get(daemon,
                           "/v1/map?load=9999&downtime_minutes=100")
        assert status == 503
        assert body["answer"] == "unbuilt"
        assert body["coverage"] == 1.0
        assert "beyond the grid" in body["detail"]

    def test_missing_map_file_is_503_not_500(self, make_daemon,
                                             tmp_path):
        daemon = make_daemon(
            map_path=str(tmp_path / "never-built.json"))
        status, body = get(daemon,
                           "/v1/map?load=100&downtime_minutes=100")
        assert status == 503
        assert body["answer"] == "unbuilt"

    # A NaN load would bisect to the smallest grid cell and answer
    # "ok" for a load nobody asked about.
    @pytest.mark.parametrize("query", [
        "", "load=100", "downtime_minutes=5",
        "load=abc&downtime_minutes=5",
        "load=-3&downtime_minutes=5",
        "load=100&downtime_minutes=0",
        "load=nan&downtime_minutes=5000",
        "load=inf&downtime_minutes=5000",
        "load=-inf&downtime_minutes=5000",
        "load=150&downtime_minutes=nan",
        "load=150&downtime_minutes=inf",
        "load=150&downtime_minutes=-inf",
    ])
    def test_bad_parameters_are_400(self, make_daemon, map_file,
                                    query):
        daemon = make_daemon(map_path=map_file)
        status, body = get(daemon, "/v1/map?" + query)
        assert status == 400
        assert "error" in body

    def test_no_map_configured_is_404(self, make_daemon):
        daemon = make_daemon()
        status, body = get(daemon,
                           "/v1/map?load=100&downtime_minutes=5")
        assert status == 404

    def test_rebuilt_map_is_served_without_restart(
            self, make_daemon, map_evaluator, map_file):
        daemon = make_daemon(map_path=map_file)
        status, _ = get(daemon,
                        "/v1/map?load=500&downtime_minutes=5000")
        assert status == 503
        bigger = build_requirement_map(map_evaluator, "web",
                                       MAP_LOADS + (500.0,))
        with open(map_file, "w") as handle:
            handle.write(requirement_map_to_json(bigger))
        os.utime(map_file, (time.time() + 5, time.time() + 5))
        status, body = get(daemon,
                           "/v1/map?load=500&downtime_minutes=5000")
        assert status == 200
        assert body["answer"] == "ok"


class TestHealthz:
    def test_healthz_reports_map_state(self, make_daemon, map_file):
        daemon = make_daemon(map_path=map_file)
        status, body = get(daemon, "/healthz")
        assert status == 200
        jsonschema.validate(body["map"], MAP_STATUS_SCHEMA)
        assert body["map"]["state"] == "complete"
        assert body["map"]["coverage"] == 1.0

    def test_healthz_map_is_null_when_unconfigured(self, make_daemon):
        daemon = make_daemon()
        _, body = get(daemon, "/healthz")
        assert body["map"] is None

    def test_corrupt_map_degrades_health_not_the_daemon(
            self, make_daemon, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("{}")   # parses, but wrong version
        daemon = make_daemon(map_path=str(path))
        status, body = get(daemon, "/healthz")
        assert status == 200
        jsonschema.validate(body["map"], MAP_STATUS_SCHEMA)
        assert body["map"]["state"] == "missing"
        assert "error" in body["map"]
        status, _ = get(daemon,
                        "/v1/map?load=100&downtime_minutes=5")
        assert status == 503
