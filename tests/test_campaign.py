"""The seed campaign: pinned output, --jobs identity, resume, CLI."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError
from repro.experiments.parallel import GridRunner
from repro.sim.campaign import (campaign_cell, campaign_grid, main,
                                run_campaign)

#: A small campaign whose six cells die at different write counts, with
#: reviver recovery and telemetry on, so the merged snapshot is covered.
PARAMS = dict(num_blocks=256, mean_endurance=600.0, batch_writes=1000,
              recovery="reviver", telemetry=True)


def digest(payload):
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def reference():
    return run_campaign(6, seed=3, **PARAMS)


class TestCampaignPins:
    def test_payload_is_pinned(self, reference):
        assert reference["lifetimes"] == [38000, 42000, 40000, 42000,
                                          39000, 39000]
        assert "snapshot" in reference
        assert digest(reference) == (
            "97bc43d88ab4b98353b8a1edd1a7663d"
            "9002c2ab62f2030ba9def1fb2d59c639")

    def test_pool_equals_serial_byte_for_byte(self, reference):
        pooled = run_campaign(6, seed=3, jobs=2, **PARAMS)
        assert json.dumps(pooled, sort_keys=True) \
            == json.dumps(reference, sort_keys=True)

    def test_batch_keyword_is_inert(self, reference):
        assert run_campaign(6, seed=3, batch=4, **PARAMS) == reference
        with pytest.raises(ConfigurationError):
            run_campaign(1, seed=3, batch=0, **PARAMS)


class TestCampaignResume:
    def test_resume_recomputes_cells_run_with_other_parameters(
            self, tmp_path):
        resume = tmp_path / "campaign.json"
        run_campaign(2, seed=0, num_blocks=256, mean_endurance=300.0,
                     resume=resume)
        # Campaign keys carry no parameters: the records cached for
        # mean 300 must not stand in for a mean-900 campaign.
        resumed = run_campaign(2, seed=0, num_blocks=256,
                               mean_endurance=900.0, resume=resume)
        fresh = run_campaign(2, seed=0, num_blocks=256,
                             mean_endurance=900.0)
        assert resumed == fresh
        again = run_campaign(2, seed=0, num_blocks=256,
                             mean_endurance=900.0, resume=resume)
        assert again == fresh

    def test_grown_campaign_reuses_cached_cells(self, tmp_path):
        resume = tmp_path / "campaign.json"
        params = dict(num_blocks=256, mean_endurance=300.0)
        run_campaign(4, seed=2, resume=resume, **params)
        cached = json.loads(resume.read_text())["cells"]
        assert len(cached) == 4
        grown = run_campaign(6, seed=2, resume=resume, **params)
        assert grown == run_campaign(6, seed=2, **params)


class TestCampaignCli:
    def test_cli_resume_file_replays_through_the_library(self, tmp_path):
        """``python -m`` runs the module as ``__main__``; its cells must
        still name ``repro.sim.campaign`` or no library run can reuse
        them."""
        resume = tmp_path / "campaign-resume.json"
        subprocess.run(
            [sys.executable, "-m", "repro.sim.campaign", "--seeds", "2",
             "--blocks", "256", "--mean", "300", "--resume", str(resume),
             "--quiet"], check=True)
        runner = GridRunner(resume=resume)
        runner.run(campaign_grid(2, num_blocks=256, mean_endurance=300.0))
        assert [outcome.cached for outcome in runner.outcomes] \
            == [True, True]

    def test_json_output_is_the_payload(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["--seeds", "3", "--blocks", "256", "--mean", "300",
                     "--json", str(out)])
        assert code == 0
        assert "3 seeds" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload == json.loads(json.dumps(run_campaign(
            3, num_blocks=256, mean_endurance=300.0)))

    def test_freep_is_refused_before_any_chip_is_built(self, capsys):
        # A cell's Start-Gap spans the whole chip, which FREE-p's
        # pre-reserve cannot share.
        with pytest.raises(ConfigurationError, match="freep"):
            campaign_cell(0, num_blocks=256, mean_endurance=100.0,
                          recovery="freep")
        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "1", "--recovery", "freep", "--blocks", "256",
                  "--mean", "100"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'freep'" in capsys.readouterr().err
