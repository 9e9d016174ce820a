"""Fixture-replay chat server for the benchmark's HTTP workload.

    python3 perfbench/serve.py FIXTURES.jsonl

Binds a free local port, prints the base URL as one line, and serves until
its standard input closes (the benchmark closes it, or dies) or it receives
SIGTERM.
"""

from __future__ import annotations

import sys

from sessionpipe.backends import FixtureStore
from sessionpipe.fixture_server import FixtureChatServer


def main() -> None:
    store = FixtureStore.load_jsonl(sys.argv[1])
    with FixtureChatServer(store) as server:
        print(server.base_url, flush=True)
        sys.stdin.read()


if __name__ == "__main__":
    main()
