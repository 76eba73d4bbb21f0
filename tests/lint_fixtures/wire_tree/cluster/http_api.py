"""Route-table fixture (lint fixture; never imported).

Deliberate violations for the protocol-consistency rule: emitted paths
with no ROUTES row (here and in client.py / worker.py), routes no
client emits, and a route naming a handler function that does not
exist.
"""

ROUTES = (
    ("GET", "/fleet", "fleet"),
    ("GET", "/sweeps/{sweep_id}", "status"),
    ("POST", "/sweeps/{sweep_id}/cancel", "cancel"),
    ("GET", "/ghost", "ghost"),
    ("POST", "/worker/lease", "lease"),
    ("POST", "/worker/orphan", "orphan"),
    ("GET", "/artifacts/{stage}/{digest}", "download"),
)


class ControlPlane:
    def _route_fleet(self, params):
        return {"ok": True}

    def _route_status(self, params):
        return {"ok": True}

    def _route_cancel(self, params):
        return {"ok": True}

    def _route_lease(self, params):
        return {"ok": True}

    def _route_orphan(self, params):
        return {"ok": True}

    def _route_download(self, params):
        return {"ok": True}


class Client:
    def http_request(self, method, path, payload=None):
        return {"method": method, "path": path}

    def fleet(self):
        return self.http_request("GET", "/fleet")

    def status(self, sweep_id):
        return self.http_request("GET", f"/sweeps/{sweep_id}")

    def ghost(self):
        return self.http_request("GET", "/ghost")

    def pause(self, sweep_id):
        # No ROUTES row serves this path: guaranteed 404.
        return self.http_request("POST", f"/sweeps/{sweep_id}/pause")
