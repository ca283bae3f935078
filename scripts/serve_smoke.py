"""End-to-end smoke of the real ``repro serve`` process (CI leg).

Unlike the in-process tests, this drives the service exactly as an
operator would: a real subprocess, the readiness line on stderr, plain
HTTP against the ephemeral port, SIGTERM, and an exit-code check.  It
asserts the service's headline promises:

1. ``POST /v1/solve`` on ``examples/spec_budget.json`` returns the
   same seed set and objective as ``repro solve`` in-process.
2. ``POST /v1/solve?stream=1`` streams the trace whose step nodes ARE
   that seed set, ending in an identical result document.
3. SIGTERM drains cleanly: exit code 0, the drain line on stderr.
4. Nothing is leaked into ``/dev/shm``.

Run:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(REPO, "examples", "spec_budget.json")


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # platform without POSIX shm mounts
        return set()


def main() -> int:
    spec = json.load(open(SPEC_PATH))
    shm_before = shm_segments()

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    # --build-workers is accepted and ignored: builds run in-process.
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--cache-bytes", "256m", "--build-workers", "2",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stderr.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        assert match, f"no readiness line, got {line!r}"
        url = match.group(1)
        print(f"server up at {url}")

        body = json.dumps(spec).encode()
        request = urllib.request.Request(
            url + "/v1/solve", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            served = json.loads(response.read())

        # Reference answer straight from the library, same interpreter.
        sys.path.insert(0, os.path.join(REPO, "src"))
        from repro.api import RunSpec, Session

        expected = Session().solve(RunSpec.from_dict(spec)).to_dict()
        assert served["seeds"] == expected["seeds"], (
            served["seeds"], expected["seeds"],
        )
        assert served["objective"] == expected["objective"]
        assert served["group_utilities"] == expected["group_utilities"]
        print(f"solve bit-identical: {len(served['seeds'])} seeds")

        request = urllib.request.Request(
            url + "/v1/solve?stream=1", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            events = [json.loads(l) for l in response.read().splitlines()]
        steps = [e["node"] for e in events if e["event"] == "step"]
        assert steps == expected["seeds"], (steps, expected["seeds"])
        assert events[-1]["event"] == "result"
        assert events[-1]["result"]["seeds"] == expected["seeds"]
        print(f"streamed trace bit-identical: {len(steps)} steps")

        with urllib.request.urlopen(url + "/v1/stats") as response:
            stats = json.loads(response.read())
        assert stats["cache"]["bytes"] > 0
        assert stats["counters"]["solve_requests"] == 2
        print(f"stats: cache bytes {stats['cache']['bytes']}")

        process.send_signal(signal.SIGTERM)
        remainder = process.communicate(timeout=60)[1]
        assert process.returncode == 0, (process.returncode, remainder)
        assert "drained" in remainder, remainder
        print("SIGTERM drain: clean exit 0")

        leaked = shm_segments() - shm_before
        assert not leaked, f"leaked shm segments: {sorted(leaked)}"
        print("no leaked /dev/shm segments")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10)


if __name__ == "__main__":
    sys.exit(main())
