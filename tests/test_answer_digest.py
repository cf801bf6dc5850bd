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


_CASE1 = (
    "relay-idle rng 1: Case1Solution(split=SplitIndices(n1=1, n2=1), lower=Case1LowerSolution("
    "tau1=0.7444470178708594, tau2=0.3805990468523444, f_local=0.0, f_relay=0.0, "
    "lam=2.2854971164935544e-05, energy={energy!r}, slack={slack!r}), energy_breakdown="
    "{{'tx_md': 0.00039373113506284077, 'tx_relay': 0.000101553933256256, 'cpu_md': 0.0, "
    "'cpu_relay': 0.0}})"
)
_CASE1_ENERGY, _CASE1_SLACK = 0.0004952850683190967, 1.1288747714388592e-12


@pytest.mark.parametrize(
    "energy_change, slack_change, status",
    [
        # lam * 1e-9 s is 2.29e-14 J, 4.6e-11 of the energy
        (2e-14, 1e-9, 0),
        (3e-14, 1e-9, 1),
        # with the slack unchanged only ENERGY_DRIFT is forgiven
        (2e-14, 0.0, 1),
    ],
    ids=["inside", "beyond", "no-slack-change"],
)
def test_a_case1_energy_may_move_by_lam_times_its_slack_change(energy_change, slack_change, status):
    def digest(energy, slack):
        return [_CASE1.format(energy=energy, slack=slack), "sha256 0123abcd over 1 results"]

    before = digest(_CASE1_ENERGY, _CASE1_SLACK)
    after = digest(_CASE1_ENERGY + energy_change, _CASE1_SLACK + slack_change)
    report, got = answer_digest.compare(before, after)
    assert got == status
    assert report[0] == "0 outcome changes over 1 paired results"
    assert report[-1 - status] == f"{status} energies moved beyond their allowance"
    if status:
        assert report[-1] == "  relay-idle rng 1"


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
