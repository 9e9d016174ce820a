#!/usr/bin/env python3
"""Host a fixture file behind the chat-completions stub server.

Lets the HTTP client path be exercised manually:

    python scripts/serve_fixtures.py path/to/fixtures.jsonl --port 8080
    sessionpipe run --endpoint http://127.0.0.1:8080 ...
"""

from __future__ import annotations

import argparse
import time

from sessionpipe.backends import FixtureStore
from sessionpipe.fixture_server import FixtureChatServer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fixtures", help="fixture JSONL file to replay")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    args = parser.parse_args()

    store = FixtureStore.load_jsonl(args.fixtures)
    server = FixtureChatServer(store, host=args.host, port=args.port)
    server.start()
    print(f"replaying {len(store)} fixtures at {server.base_url}/v1/chat/completions")
    print("Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()


if __name__ == "__main__":
    main()
