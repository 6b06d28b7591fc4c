"""
Log synchronisation over the wire
=================================

Runs the emulated on-board file server over TCP loopback and syncs the
logs the way the ground station does.  Shows the routing quirk (a plain
/air.csv request reaches the ground handler) and the destructive
semantics of serving ground.csv: afterwards the card is empty and a
second sync fails.
"""

import threading
from pathlib import Path

from asid.config import default_run_config
from asid.firmware import SdCardImage
from asid.pipeline import run_simulation
from asid.synclink import LogServer, ProtocolError, route, sync

OUT = Path(__file__).resolve().parent / "output" / "log_sync"

# Produce a fresh SD image to serve.
result = run_simulation(default_run_config())
sd = SdCardImage(dict(result.sd.files))

# The device routes on indexOf("air") > 5, so the path matters:
for line in ("GET /air.csv HTTP/1.1", "GET /download/air.csv HTTP/1.1"):
    print(f'{line!r:38} -> {route(line)}  (index {line.find("air")})')

server = LogServer(sd, port=0)
stop = threading.Event()
thread = threading.Thread(target=server.serve_forever, args=(stop,), daemon=True)
thread.start()
print(f"\nserving on {server.host}:{server.port}")

try:
    # Air must be fetched before ground: serving ground deletes both files.
    air, ground = sync(server.host, server.port, OUT)
    print(f"synced air.csv ({len(air)} bytes) and ground.csv ({len(ground)} bytes) into {OUT}")
    print(f"card after sync: {sorted(sd.files)}")

    try:
        sync(server.host, server.port, OUT)
    except ProtocolError as exc:
        print(f"second sync fails as designed: {exc}")
finally:
    stop.set()
    thread.join(timeout=2.0)
    server.close()
