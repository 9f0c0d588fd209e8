"""The three workloads: their requests, their order, and answer checks.

Every request comes from the fixed tables below.  The seed only fixes
the order in which a run visits them, and the program under test sees
nothing but the resulting CLI argument lists and HTTP payloads.  None
of them passes a flag or an environment variable outside the default
surface (see ``FORBIDDEN_FLAGS``), so later changes to defaults are
measured by the same, unedited requests.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("design", "job", "serve")

#: The paper's e-commerce service (Fig. 4) at 12 feasible points; every
#: downtime of 30m or less is infeasible at these loads.
DESIGN_LOADS = (400, 1000, 1600, 2200)
DESIGN_DOWNTIMES = ("50m", "100m", "1000m")

#: The Fig. 7 job-time sweep on the paper's scientific job (Fig. 5).
JOB_TIMES = ("2h", "5h", "10h", "20h", "50h", "100h", "200h", "500h",
             "1000h")
JOB_OPTIONS = ("--max-redundancy", "12",
               "--fix", "maintenanceA.level=bronze",
               "--fix", "maintenanceB.level=bronze")

#: The Fig. 6 app tier, posted to ``repro serve`` at these loads.
SERVE_LOADS = (400, 700, 1000, 1300, 1600, 1900, 2200)
SERVE_DOWNTIME_MINUTES = 100.0

#: Flags and variables that planned changes may alter or delete; no
#: request may depend on them.
FORBIDDEN_FLAGS = ("--batch", "--no-batch", "--no-prune",
                   "--prune-dominated", "--engine", "--no-fsync",
                   "--allow-test-faults")
FORBIDDEN_PREFIXES = ("--test-",)
FORBIDDEN_ENV_PREFIX = "REPRO_"

#: Committed golden fixtures that answer the same request.
GOLDEN = {
    "load=1000,downtime=100m": "design_ecommerce_load1000_100m.json",
    "load=1000": "design_app_tier_load1000_100m.json",
    "warmup:load=1000": "design_app_tier_load1000_100m.json",
    "warmup:app-tier,load=1000,downtime=100m":
        "design_app_tier_load1000_100m.json",
    "job_time=20h": "design_scientific_job20h.json",
}

#: Downtime must match this closely.  Solver round-off is ~1e-12
#: relative; a changed design moves downtime by far more than 1e-6.
DOWNTIME_RTOL = 1e-6


def design_argv(load: int, downtime: str,
                app_tier: bool = False) -> List[str]:
    argv = ["design", "--paper-ecommerce"]
    if app_tier:
        argv.append("--app-tier-only")
    return argv + ["--load", str(load), "--downtime", downtime, "--json"]


def job_argv(job_time: str) -> List[str]:
    return (["design", "--paper-scientific", "--job-time", job_time]
            + list(JOB_OPTIONS) + ["--json"])


def cycle_keys(workload: str) -> List[str]:
    """The keys of one request cycle, in table order."""
    if workload == "design":
        return ["load=%d,downtime=%s" % (load, downtime)
                for load in DESIGN_LOADS for downtime in DESIGN_DOWNTIMES]
    if workload == "job":
        return ["job_time=%s" % job_time for job_time in JOB_TIMES]
    if workload == "serve":
        return ["load=%d" % load for load in SERVE_LOADS]
    raise ValueError("unknown workload %r" % workload)


def warmup_key(workload: str) -> str:
    """The small fixed request that ends every set-up."""
    return {"design": "warmup:app-tier,load=1000,downtime=100m",
            "job": "warmup:job_time=1000h",
            "serve": "warmup:load=1000"}[workload]


def cli_argv(key: str) -> List[str]:
    """The ``repro`` argument list of a ``design``/``job`` request."""
    if key == warmup_key("design"):
        return design_argv(1000, "100m", app_tier=True)
    if key == warmup_key("job"):
        return job_argv("1000h")
    fields = dict(item.split("=", 1) for item in key.split(","))
    if "job_time" in fields:
        return job_argv(fields["job_time"])
    return design_argv(int(fields["load"]), fields["downtime"])


def serve_load(key: str) -> float:
    return float(key.rsplit("load=", 1)[1])


def app_tier_specs() -> Tuple[str, str]:
    """Spec text of the paper's app tier (Fig. 6), as a user posts it."""
    from repro.model import ServiceModel
    from repro.spec import write_infrastructure, write_service
    from repro.spec.paper import ecommerce_service, paper_infrastructure
    service = ServiceModel("app-tier",
                           [ecommerce_service().tier("application")])
    return (write_infrastructure(paper_infrastructure()),
            write_service(service))


def serve_payload(key: str, specs: Tuple[str, str]) -> Dict:
    infrastructure, service = specs
    return {"infrastructure": infrastructure, "service": service,
            "requirements": {
                "kind": "service", "throughput": serve_load(key),
                "max_annual_downtime_minutes": SERVE_DOWNTIME_MINUTES}}


def schedule(workload: str, seed: int) -> Iterator[Tuple[int, str]]:
    """``(cycle, key)`` forever: each cycle a seeded shuffle of the table."""
    rng = random.Random("%s:%d" % (workload, seed))
    keys = cycle_keys(workload)
    cycle = 0
    while True:
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            yield cycle, key
        cycle += 1


def forbidden(argv: List[str]) -> List[str]:
    """The arguments of ``argv`` outside the default surface."""
    return [arg for arg in argv
            if arg.split("=", 1)[0] in FORBIDDEN_FLAGS
            or arg.startswith(FORBIDDEN_PREFIXES)]


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def summarize(evaluation: Dict) -> Dict:
    """The part of a design answer that the checks compare."""
    return {"design": evaluation.get("design"),
            "annual_cost": evaluation.get("annual_cost"),
            "downtime_minutes": evaluation.get("downtime_minutes")}


def check_answer(expected: Optional[Dict],
                 evaluation: Dict) -> Optional[str]:
    """None when ``evaluation`` answers as expected, else the reason.

    The design and the annual cost must match exactly, downtime within
    ``DOWNTIME_RTOL``.
    """
    if expected is None:
        return "no expected answer"
    if evaluation.get("design") != expected["design"]:
        return "design differs"
    if evaluation.get("annual_cost") != expected["annual_cost"]:
        return "annual cost %r, expected %r" % (
            evaluation.get("annual_cost"), expected["annual_cost"])
    downtime = evaluation.get("downtime_minutes")
    if not isinstance(downtime, (int, float)) or not math.isclose(
            downtime, expected["downtime_minutes"],
            rel_tol=DOWNTIME_RTOL, abs_tol=0.0):
        return "downtime %r min/yr, expected %r" % (
            downtime, expected["downtime_minutes"])
    return None


def check_cli_answer(expected: Optional[Dict], code: int,
                     output: str) -> Optional[str]:
    """Check one ``repro design --json`` run: exit code, then answer."""
    if code != 0:
        first = output.strip().splitlines()[:1]
        return "exit %d%s" % (code, (": " + first[0]) if first else "")
    try:
        evaluation = json.loads(output)
    except ValueError:
        return "output is not JSON"
    return check_answer(expected, evaluation)


def check_serve_answer(expected: Optional[Dict],
                       job: Dict) -> Optional[str]:
    """Check one terminal ``GET /v1/jobs/<id>`` body."""
    state = job.get("state")
    if state != "completed":
        error = job.get("error") or {}
        return "job %s: %s" % (state, error.get("kind", "")
                               or job.get("cancel_reason", ""))
    result = job.get("result") or {}
    if result.get("degraded"):
        return "degraded answer"
    return check_answer(expected, result.get("evaluation") or {})
