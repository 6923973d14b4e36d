"""The paper's claims, one test each (see :mod:`repro.validate.claims`).

The experiments the collected claims name run as one batch per session,
so ``-k`` runs only what it selects; simulations come from the shared
disk cache when another run already produced them.  Claims at a threshold
the model does not reach fail here on purpose: they are the known paper
gaps that EXPERIMENTS.md lists.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_plans
from repro.validate.claims import CLAIMS, evaluate, report


@pytest.fixture(scope="session")
def outputs(request):
    """Outputs by registry id of every experiment a collected claim reads;
    an experiment that failed maps to its exception."""
    names = sorted({
        item.callspec.params["claim"].experiment
        for item in request.session.items
        if getattr(item, "function", None) is test_claim
    })
    return dict(zip(names, run_plans([EXPERIMENTS[name].plan() for name in names])))


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim(claim, outputs):
    output = outputs[claim.experiment]
    if isinstance(output, Exception):
        raise output
    (check,) = evaluate([claim], {claim.experiment: output})
    assert check.passed, report([check])
