"""What a fresh process loads on the default paths.

A new interpreter imports ``repro.cli``, runs the CLI's e-commerce
design and Fig. 7 job, and then one app-tier job through an in-process
:class:`~repro.serve.DesignService`.  No step may load scipy: it costs
most of a cold start, and only the fit/watch confidence intervals and
the large-chain sparse solves call it.  The ``repro.*`` modules loaded
after each step are pinned in ``tests/golden/cold_start_modules.json``
(``pytest --update-golden`` rewrites it), so a module that starts
loading on these paths shows up in review.  A last call to
``estimate_mtbf`` must load ``scipy.stats``: the import moved into the
code that needs it, it did not vanish.

``REPRO_*`` variables are removed from the child's environment, so the
suite's ``REPRO_JOBS``/``REPRO_CACHE`` runs pin the same modules.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

STEPS = ("import repro.cli", "cli designs", "service job")

CHILD = r"""
import io
import json
import sys
import tempfile


def loaded(package):
    return sorted(name for name in sys.modules
                  if name == package or name.startswith(package + "."))


report = {}


def step(name):
    report[name] = {"repro": loaded("repro"), "scipy": loaded("scipy")}


import repro.cli
step("import repro.cli")

for argv in (["design", "--paper-ecommerce", "--load", "1000",
              "--downtime", "100m", "--json"],
             ["design", "--paper-scientific", "--job-time", "20h",
              "--json"]):
    assert repro.cli.main(argv, out=io.StringIO()) == 0, argv
step("cli designs")

from repro.model import ServiceModel
from repro.serve import DesignService, ServeConfig
from repro.serve.jobstore import COMPLETED
from repro.spec import write_infrastructure, write_service
from repro.spec.paper import ecommerce_service, paper_infrastructure

with tempfile.TemporaryDirectory() as data_dir:
    service = DesignService(ServeConfig(data_dir=data_dir))
    service.start()
    app_tier = ServiceModel("app-tier",
                            [ecommerce_service().tier("application")])
    job, shed = service.submit({
        "infrastructure": write_infrastructure(paper_infrastructure()),
        "service": write_service(app_tier),
        "requirements": {"kind": "service", "throughput": 1000.0,
                         "max_annual_downtime_minutes": 100.0}})
    assert shed is None
    finished = service.wait(job.id, timeout=120.0)
    assert finished.state == COMPLETED, finished.state
    service.drain(grace=10.0)
step("service job")

from repro.availability import estimate_mtbf
estimate_mtbf("hard", 3, 1000.0)
step("estimate_mtbf")

print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", STEPS)
def test_no_scipy_on_the_default_paths(report, step):
    assert report[step]["scipy"] == []


def test_loaded_repro_modules_are_pinned(report, golden):
    golden.check("cold_start_modules",
                 {step: report[step]["repro"] for step in STEPS})


def test_estimate_mtbf_loads_scipy_stats(report):
    assert "scipy.stats" in report["estimate_mtbf"]["scipy"]
