"""Pass-through server for ``net.tcp_rtt_us``: the repository's default
``TCPServer`` (threads backend, dispatch pool, per-connection send lock)
behind a handler that does nothing — so a same-size request/response
round trip costs what the transport alone costs. Started as a child by
``ledger.py``; killed with its process group.
"""

import argparse
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net.tcp import TCPServer  # noqa: E402


class PassThrough:
    """Three-phase handler (so requests cross the dispatch pool like a
    real call) that answers every request with *reply_bytes* zero bytes."""

    def __init__(self, reply_bytes: int) -> None:
        self._reply = bytes(reply_bytes)

    def prepare(self, payload: bytes):
        return ("call", payload)

    def complete(self, request) -> bytes:
        return self._reply

    def seal(self, response: bytes) -> bytes:
        return response

    def close(self) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--reply-bytes", type=int, required=True)
    args = parser.parse_args()
    with TCPServer(lambda: PassThrough(args.reply_bytes), port=args.port):
        threading.Event().wait()


if __name__ == "__main__":
    main()
