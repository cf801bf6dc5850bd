"""``tools/answer_digest.py --compare`` on hand-written digest lines."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"
_spec = importlib.util.spec_from_file_location("answer_digest", _PATH)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)

_S2 = (
    "relay_busy x1e0 S2 (1, 1, 1): Case2LowerSolution(tau1=0.26675496591667386, "
    "tau2=0.1932450340833262, tau3=0.42, t1=0.0, t2=0.0, t3=0.41, tau_s=0.04, psi=nan, "
    "lam=nan, eta1=nan, eta2=nan, energy={energy!r}, cap_violations=())"
)
_S3 = (
    "relay_busy x1e1 S3 (1, 1, 1): Infeasible('scheme S3 infeasible for indices (1, 1, 1)', "
    "('scheme_ordering', 'bs_capacity', 'deadline'))"
)
_ENERGY = 9.907386903822112e-05


def _digest(energy=_ENERGY, s3=_S3):
    return [_S2.format(energy=energy), s3, "sha256 0123abcd over 2 results"]


def test_identical_lines_report_nothing():
    report, status = answer_digest.compare(_digest(), _digest())
    assert status == 0
    assert report[0] == "0 outcome changes over 2 paired results"
    assert report[1] == "0 results moved a float; largest relative change by field:"
    assert "  energy 0" in report and "  psi 0" in report


def test_a_drift_of_one_ulp_is_reported_and_forgiven():
    after = math.nextafter(_ENERGY, 1.0)
    report, status = answer_digest.compare(_digest(), _digest(energy=after))
    assert status == 0
    assert report[0] == "0 outcome changes over 2 paired results"
    assert report[1].startswith("1 results moved a float")
    (line,) = [line for line in report if line.startswith("  energy ")]
    change = float(line.split()[1])
    assert 0.0 < change <= 2.0**-52
    assert line.endswith("(relay_busy x1e0 S2 (1, 1, 1))")
    # every other field stays at zero
    assert "  tau1 0" in report and "  lam 0" in report


def test_an_energy_drift_above_the_bound_fails():
    report, status = answer_digest.compare(_digest(), _digest(energy=_ENERGY * (1.0 + 1e-11)))
    assert status == 1
    assert report[0] == "0 outcome changes over 2 paired results"


@pytest.mark.parametrize(
    "after",
    [
        # an infeasible pair becomes solvable
        _digest(s3=_S2.format(energy=_ENERGY).replace("x1e0 S2", "x1e1 S3")),
        # the scheme of a result changes
        [_S2.format(energy=_ENERGY).replace("Case2LowerSolution", "Case1LowerSolution"), _S3],
        # a result is lost
        _digest()[:1],
    ],
    ids=["solved", "changed", "lost"],
)
def test_an_outcome_change_fails(after):
    report, status = answer_digest.compare(_digest(), after)
    assert status == 1
    assert report[0].startswith("1 outcome changes over ")
    assert report[1].startswith("  relay_busy x1e")
