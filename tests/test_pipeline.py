import dataclasses
import random

import pytest

from asid import config
from asid.firmware import AIR_LOG, GROUND_LOG, INTERVAL_START_M, PHOTO_MANIFEST, \
    SimulationError
from asid.flightsim import BatteryExhaustedError
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


def test_simulate_peaks_flat_as_the_flight_grows(tmp_path):
    # The default plan (a 100 Ah pack) at a 3 s and a 50 s capture_dwell:
    # 11,232 and 86,444 samples.  The flight is handed over in blocks of at
    # most about CSV_CHUNK_ROWS samples, so the peaks differ by the largest
    # block only (1,185 samples against CSV_CHUNK_ROWS + 1), at ~190 B a
    # sample with its trajectory.csv rows; holding the flight, as a sample
    # list, costs ~80 B for each of the 75,212 samples more (+4.8 MB).
    import tracemalloc
    from asid import flightsim
    peaks = []
    for dwell in (3.0, 50.0):
        cfg = config.from_dict({"airframe": {"battery": {"capacity_mah": 100_000.0}},
                                "mission": {"capture_dwell": dwell}})
        tracemalloc.start()
        try:
            result = simulate(cfg, tmp_path / str(dwell))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        assert result.trajectory.duration == pytest.approx(
            {3.0: 112.30, 50.0: 864.42}[dwell], abs=0.01)
    assert peaks[1] - peaks[0] <= 200 * flightsim.CSV_CHUNK_ROWS


class _FullDisk:
    """A text stream whose every write fails, as on a full disk."""

    def write(self, text: str) -> int:
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("document, error", [
    ({}, OSError),
    ({"airframe": {"battery": {"capacity_mah": 150}}}, BatteryExhaustedError),
    ({"environment": {"sensor_noise": {"pressure": 1e7}}}, SimulationError),
], ids=["write", "flight", "logger"])
def test_a_failed_csv_write_is_raised_after_the_flight_and_the_logger(document, error):
    # trajectory.csv is written as the flight goes, yet its error comes last,
    # as when the file was written after the run
    with pytest.raises(Exception) as raised:
        run_simulation(config.from_dict(document), _FullDisk())
    assert type(raised.value) is error


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


def test_server_started_is_the_interval_past_the_threshold():
    # The card's side of the serving rule: the logger raises its interval by
    # one step per air row, as the device does, and serves once it passes
    # server_threshold.
    rng = random.Random(2021)
    outcomes = set()
    for case in range(12):
        threshold = round(rng.uniform(1.0, 60.0), 2)
        step = rng.choice((0.1, 1.0, 2.5, 5.0))
        document = {"firmware": {"server_threshold": threshold, "interval_step": step},
                    "mission": {"target_alt": round(rng.uniform(20.0, 70.0), 1)}}
        if case % 2:
            document["environment"] = {"rng_seed": case, "sensor_noise": {
                "temperature": 0.1, "humidity": 0.5, "pressure": 3.0}}
        result = run_simulation(config.from_dict(document))
        interval = INTERVAL_START_M
        for _ in range(result.air_rows):
            interval += step
        assert result.server_started == (interval > threshold), document
        outcomes.add(result.server_started)
    assert outcomes == {True, False}
