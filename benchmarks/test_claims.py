"""The paper's claims, one test each (see :mod:`repro.validate.claims`).

Every experiment a claim names runs once per session; simulations come
from the shared disk cache when another run already produced them.
Claims at a threshold the model does not reach fail here on purpose:
they are the known paper gaps that EXPERIMENTS.md lists.
"""

import pytest

from repro.validate.claims import CLAIMS, evaluate, report, run_experiments


@pytest.fixture(scope="session")
def outputs():
    """Experiment outputs by registry id, each experiment run at most once."""
    done = {}

    def get(name):
        if name not in done:
            done.update(run_experiments([name]))
        return done

    return get


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim(claim, outputs):
    (check,) = evaluate([claim], outputs(claim.experiment))
    assert check.passed, report([check])
