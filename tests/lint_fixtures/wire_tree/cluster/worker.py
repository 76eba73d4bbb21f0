"""Worker side of the wire (lint fixture; never imported)."""


def pull(peer, stage, digest):
    # The peer download is a ROUTES row like any other.
    return peer.http_request("GET", f"/artifacts/{stage}/{digest}")


def beat(client):
    # No ROUTES row serves this path: guaranteed 404.
    return client.http_request("POST", "/worker/hearbeat", {"worker": "w"})
