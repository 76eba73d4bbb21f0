"""Wire emitter side (lint fixture; never imported)."""


def lease(client):
    return client.http_request("POST", "/worker/lease", {"worker": "w"})


def typo(client):
    return client.http_request("POST", "/worker/leese", {"worker": "w"})
