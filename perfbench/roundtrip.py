"""One sounding: the README's CLI round trip, run in process.

``asid simulate`` -> ``asid serve`` -> ``asid sync`` -> ``asid report``,
through the public functions each command calls.  The file server is a
``LogServer`` owned by the run; each sounding hands it a fresh card read
back from the simulated SD directory, and serving ground.csv deletes both
logs from that directory, as ``asid serve`` does.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from asid import config, firmware, groundstation, pipeline, synclink, wxindices

SD_DIR, SYNCED_DIR, REPORT_DIR = "sd", "synced", "report"


class FileServer:
    """A LogServer on its own thread, serving whichever card it was handed last."""

    def __init__(self) -> None:
        self.server = synclink.LogServer(firmware.SdCardImage())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self.server.serve_forever, args=(self._stop,),
                                        name="log-server", daemon=True)
        self._thread.start()

    def hand(self, sd_dir: Path) -> None:
        """Serve the card in ``sd_dir``; serving ground.csv deletes its logs."""
        def on_ground_served() -> None:
            for name in (firmware.AIR_LOG, firmware.GROUND_LOG):
                (sd_dir / name).unlink(missing_ok=True)

        self.server.sd = firmware.SdCardImage.from_dir(sd_dir)
        self.server.on_ground_served = on_ground_served

    def close(self) -> None:
        """Stop the accept loop (it notices within its 0.2 s accept poll) and wait for it."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.server.close()
        if self._thread.is_alive():
            raise RuntimeError("file server thread did not stop")


@dataclass
class Sounding:
    """What one round trip left behind: the card the simulation wrote and the work dir."""

    card: dict[str, bytes]
    work: Path


def run_sounding(document: dict, work: Path, server: FileServer) -> Sounding:
    """simulate -> serve -> sync -> report for one configuration document."""
    cfg = config.from_dict(document)
    sd_dir, synced_dir, report_dir = work / SD_DIR, work / SYNCED_DIR, work / REPORT_DIR
    result = pipeline.simulate(cfg, sd_dir)
    server.hand(sd_dir)
    synclink.sync(server.server.host, server.server.port, synced_dir)
    air_path, ground_path = synced_dir / firmware.AIR_LOG, synced_dir / firmware.GROUND_LOG
    profile = wxindices.build_profile(air_path.read_bytes(), ground_path.read_bytes())
    report = wxindices.build_report(profile)
    bundle = groundstation.build_bundle(report, profile,
                                        sources=(str(air_path), str(ground_path)),
                                        generated_at=report.collection_time)
    groundstation.write_bundle(bundle, report_dir)
    return Sounding(card=dict(result.sd.files), work=work)


def check(card: dict[str, bytes], work: Path) -> list[str]:
    """Problems with a finished sounding; an empty list means it passed."""
    problems = []
    for name in (firmware.AIR_LOG, firmware.GROUND_LOG):
        synced = work / SYNCED_DIR / name
        if not synced.is_file():
            problems.append(f"{name} was not synced")
        elif synced.read_bytes() != card.get(name):
            problems.append(f"synced {name} differs from the card the simulation wrote")
        if (work / SD_DIR / name).exists():
            problems.append(f"{name} was not deleted from the SD directory after ground")
    try:
        json.loads((work / REPORT_DIR / "report.json").read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        problems.append(f"report.json does not parse: {exc}")
    return problems


def outputs(work: Path) -> dict[str, bytes]:
    """Every file the round trip left, keyed by path relative to the work dir."""
    return {path.relative_to(work).as_posix(): path.read_bytes()
            for path in sorted(work.rglob("*")) if path.is_file()}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def golden_problems(golden: Path, work: Path) -> list[str]:
    """Files of the golden set that the default round trip did not reproduce byte for byte."""
    files = outputs(work)
    problems = []
    expected = [path for path in sorted(golden.rglob("*")) if path.is_file()]
    if not expected:
        problems.append(f"no golden files under {golden}")
    for path in expected:
        name = path.relative_to(golden).as_posix()
        produced = next((files[f"{where}/{name}"] for where in (SYNCED_DIR, REPORT_DIR, SD_DIR)
                         if f"{where}/{name}" in files), None)
        if produced is None:
            problems.append(f"golden {name} was not produced")
        elif produced != path.read_bytes():
            problems.append(f"golden {name} differs")
    return problems


def checker_self_test(sounding: Sounding) -> list[str]:
    """Feed the checker a corrupted card byte and a truncated sync; both must fail.

    Leaves the sounding's work dir truncated, so run it last.
    """
    problems = []
    if check(sounding.card, sounding.work):
        problems.append("self-test needs a sounding that passes its checks")
    corrupted = dict(sounding.card)
    air = bytearray(corrupted[firmware.AIR_LOG])
    air[len(air) // 2] ^= 0x01
    corrupted[firmware.AIR_LOG] = bytes(air)
    if not check(corrupted, sounding.work):
        problems.append("checker passed a card with one corrupted byte")
    ground = sounding.work / SYNCED_DIR / firmware.GROUND_LOG
    data = ground.read_bytes()
    cut = data.rindex(b"\r\n", 0, len(data) - 2) + 2  # drop the last row, as a cut connection would
    ground.write_bytes(data[:cut])
    if not check(sounding.card, sounding.work):
        problems.append("checker passed a sync truncated at a row boundary")
    return problems


def clear(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
