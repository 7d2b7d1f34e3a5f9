"""Tiny in-process chat-completion stub for offline wire-shape tests."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


class StubChatServer:
    """Captures request bodies and replays queued (status, payload) responses.

    A payload given as bytes is sent verbatim; anything else is sent as JSON.

    When the queue is empty, responds 200 with a fixed completion echoing
    the call count.
    """

    def __init__(self):
        self.bodies = []
        self.headers = []
        self.queued = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.bodies.append(json.loads(self.rfile.read(length)))
                outer.headers.append(dict(self.headers))
                if outer.queued:
                    status, payload = outer.queued.pop(0)
                else:
                    status = 200
                    payload = {
                        "choices": [
                            {
                                "message": {
                                    "role": "assistant",
                                    "content": f"reply {len(outer.bodies)}",
                                }
                            }
                        ]
                    }
                if isinstance(payload, bytes):
                    body = payload
                else:
                    body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        # `shutdown` waits for the serving loop's next poll, by default 0.5 s away.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        return False
