"""Solver options must be finite.

``ADMMConfig`` and ``SolveOptions`` compared their fields with ``<=``,
which NaN passes (and ``rho=inf`` passed outright): a NaN ``eps_rel``
ended a solve in a "non-finite iterate" error whose residuals were
finite.  Each float field now raises a ``ValueError`` that names it, and
every command that builds an ``ADMMConfig`` from flags turns that into
its one-line exit message.
"""

import math

import pytest

from repro.cli import main
from repro.core import ADMMConfig
from repro.serve import OPFRequest

NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


@NON_FINITE
@pytest.mark.parametrize(
    "field", ["rho", "eps_rel", "relaxation", "balancing_mu", "balancing_tau", "qp_tol"]
)
def test_admm_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        ADMMConfig(**{field: value})


@NON_FINITE
@pytest.mark.parametrize("field", ["rho", "eps_rel", "deadline_s"])
def test_solve_options_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        OPFRequest.from_dict(
            {"request_id": "r", "feeder": "ieee13", "options": {field: value}}
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--feeder", "ieee13", "--rho", "nan"],
        ["solve", "--feeder", "ieee13", "--eps-rel", "nan"],
        ["solve", "--feeder", "ieee13", "--method", "qp", "--rho", "inf"],
        ["solve-stochastic", "--scenarios", "2", "--eps-rel", "nan"],
        ["schedule-der", "--periods", "2", "--rho=-inf"],
    ],
    ids=["solve-rho", "solve-eps", "method-rho", "stochastic-eps", "schedule-rho"],
)
def test_cli_exits_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    message = str(exc_info.value.code)
    assert "must be finite" in message and "\n" not in message
