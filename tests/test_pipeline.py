import dataclasses

import pytest

from asid import config
from asid.firmware import AIR_LOG, GROUND_LOG, PHOTO_MANIFEST
from asid.pipeline import run_simulation, simulate


def _cfg(**mission_overrides):
    base = config.default_run_config()
    if mission_overrides:
        return dataclasses.replace(
            base, mission=dataclasses.replace(base.mission, **mission_overrides))
    return base


class TestRunSimulation:
    def test_default_counts_and_phase(self):
        result = run_simulation(_cfg())
        assert result.ground_rows == 6
        assert result.air_rows == 7
        assert result.server_started

    def test_low_mission_never_arms_server(self):
        result = run_simulation(_cfg(target_alt=4.0, start_alt=4.0))
        assert result.ground_rows == 6
        assert result.air_rows == 0
        assert not result.server_started
        assert not result.sd.exists(AIR_LOG)

    def test_photo_manifest_matches_camera_events(self):
        import json
        result = run_simulation(_cfg())
        manifest = json.loads(result.sd.read(PHOTO_MANIFEST))
        assert len(manifest) == len(result.trajectory.camera_events) == 16

    def test_ceiling_violation_raises(self):
        from asid.mission import MissionValidationError
        with pytest.raises(MissionValidationError):
            run_simulation(_cfg(target_alt=7000.0))

    def test_plan_is_validated_once(self, monkeypatch):
        from asid import airframe, flightsim, mission, pipeline
        calls = {"validate": 0, "ceiling": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mission, "validate", counted("validate", mission.validate))
        ceiling = counted("ceiling", airframe.service_ceiling)
        monkeypatch.setattr(flightsim, "service_ceiling", ceiling)
        monkeypatch.setattr(pipeline, "service_ceiling", ceiling)
        run_simulation(config.default_run_config())
        assert calls == {"validate": 1, "ceiling": 1}

    def test_air_rows_reflect_threshold_order(self):
        result = run_simulation(_cfg())
        rows = [line for line in result.sd.read(AIR_LOG).split(b"\r\n") if line]
        altitudes = [float(r.split(b",")[6]) for r in rows]
        assert altitudes == sorted(altitudes)
        assert altitudes[0] > 5.0
        assert altitudes[-1] > 35.0

    def test_identical_configs_identical_images(self):
        a = run_simulation(_cfg())
        b = run_simulation(_cfg())
        assert a.sd.files == b.sd.files

    def test_noise_changes_bytes_for_different_seeds(self):
        base = config.default_run_config()
        noisy = dataclasses.replace(
            base.environment,
            sensor_noise=dataclasses.replace(base.environment.sensor_noise,
                                             temperature=0.05, pressure=3.0))
        one = run_simulation(dataclasses.replace(
            base, environment=dataclasses.replace(noisy, rng_seed=1)))
        two = run_simulation(dataclasses.replace(
            base, environment=dataclasses.replace(noisy, rng_seed=2)))
        assert one.sd.read(AIR_LOG) != two.sd.read(AIR_LOG)
        assert one.air_rows == two.air_rows == 7


def test_simulate_writes_all_outputs(tmp_path):
    result = simulate(_cfg(), tmp_path)
    for name in (GROUND_LOG, AIR_LOG, PHOTO_MANIFEST, "trajectory.csv"):
        assert (tmp_path / name).is_file()
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,altitude,vertical_speed,heading"
    assert (tmp_path / GROUND_LOG).read_bytes() == result.sd.read(GROUND_LOG)


@pytest.mark.parametrize("document, card_sha256", [
    ({"firmware": {"server_threshold": 3.0}},
     "07a5b6b2c9b89d303197f74aa61126ce2dbf14d749147dbdd997f905c097f8fc"),
    ({"firmware": {"server_threshold": 3.0},
      "environment": {"rng_seed": 5, "sensor_noise": {"pressure": 300.0}}},
     "bb27b94ff5c6e813f5461ffd9a18a1d191889cc0b46e24ef92b8ff15e0451fbf"),
], ids=["plain", "pressure_noise"])
def test_threshold_below_the_first_interval_serves_after_the_ground_rows(document,
                                                                         card_sha256):
    # The 5 m first interval already passes a 3 m threshold, so the server
    # starts on the ground phase's last poll and no air poll ever runs.  An
    # air check made before that start would log a row (a noisy one here).
    import hashlib
    result = run_simulation(config.from_dict(document))
    assert (result.ground_rows, result.air_rows, result.server_started) == (6, 0, True)
    card = hashlib.sha256()
    for name in result.sd.names():
        card.update(name.encode("ascii") + b"\0" + result.sd.read(name) + b"\0")
    assert card.hexdigest() == card_sha256
