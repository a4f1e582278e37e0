"""The exact reports pinned byte for byte.

Each case is a CLI argv with the sha256 of its stdout and its exit code.
These reports hold exact series, rational functions and integers only, no
floats, so the digests do not depend on the platform's libm.  A change to
the exact layers that alters a single byte of one of them fails here;
criterion 8 of the acceptance tests only compares two runs of one build.
"""

import hashlib
import json

import pytest

from elliptica.cli import main

# criterion 7's negative control: one flipped weight per point of cp3
FLIPPED_CP3 = {
    "name": "cp3_flipped",
    "half_dim": 3,
    "points": [
        {"weights": [-1, 2, 3]},
        {"weights": [-1, 1, 2]},
        {"weights": [-2, -1, 1]},
        {"weights": [-3, -2, -1]},
    ],
    "twists": {},
}

# (argv, sha256 of stdout, exit code); "FLIPPED" stands for the path of a
# file holding FLIPPED_CP3
CASES = [
    (('expand', '--phi', '1', '--q-order', '80'),
     "fa1aee765be4dd00bc16e74b5f9e20c223ef9fc85bd023327903c838ed350c17", 0),
    (('expand', '--phi', '2', '--q-order', '80'),
     "1d8f47e0461935795875f01c6cfdb71db58d05dad44ba9e1e111cf561152a123", 0),
    (('expand', '--phi', '3', '--q-order', '80'),
     "4f843f2261ef21e540fb89d2e86e2dcbaa25c4e579688d830688d789404defe3", 0),
    (('expand', '--phi', '4', '--q-order', '80'),
     "ec98729169886ba54100a1431f6f7e9ba13a7a097c3b0c3c5d971c5d225ab48f", 0),
    (('verify', '--suite', 'translations', '--q-order', '80'),
     "348f141fb043f9ce5437e21f1330b512b0a34df7aa7616c0ce99745488e6eb23", 0),
    (('rigidity', '--manifold', 's2', '--q-order', '8'),
     "b7806675829989455a855b0396e96f2ee77c0eb0a37e78ba5b53dbfa6f4fc9ab", 0),
    (('rigidity', '--manifold', 's2', '--q-order', '40'),
     "8f225fc0dd13df34d99cb1d0c71b9f8813ca9cc8aae33a55ec579d0e39ac1d44", 0),
    (('rigidity', '--manifold', 'cp3', '--q-order', '8'),
     "f39df2ec3687532c7e2b745fd00f4514f620305170a3c07de71fe87bd3ce2f60", 0),
    (('rigidity', '--manifold', 'cp3', '--q-order', '40'),
     "7f4b160bf87694e2bf92c5736aca3d7a32e68f80a322af75350e5c79b862aa87", 0),
    (('rigidity', '--manifold', 'cp3_alt', '--q-order', '8'),
     "5352e76921d99c90383cfcb1e4a24bce5e164ebd23895285fd39f41f8780ef91", 0),
    (('rigidity', '--manifold', 'cp3_alt', '--q-order', '40'),
     "452745143d7d2d73fd880c94aebd5ac2ed6bbf15dc229c612672a1e30003551c", 0),
    (('rigidity', '--manifold', 's2xs2xs2', '--q-order', '8'),
     "603860a8638071db61ecce892ff62e20fff35bf23f93d1d26be897520dfb810d", 0),
    (('rigidity', '--manifold', 's2xs2xs2', '--q-order', '40'),
     "2c6d91eea1f334000538b03b58e55c0a125f3c145b70d8b9c8749a122736a708", 0),
    (('rigidity', '--manifold', 'FLIPPED', '--q-order', '4'),
     "527ec0fd2bb598bbac72bdbabc4808dfea69ed8627aa7eea7f9f8d0658befc65", 1),
    (('index', '--manifold', 'cp3', '--twist', 'none'),
     "2d9055f1ebafe789ee419a154c93c7aeefe4d964ffec79b236eef91f6fcce6b0", 0),
    (('index', '--manifold', 'cp3', '--twist', 's2t'),
     "de27176f90a46387da32dd217754c314eafc8ec660ecffc2aae9098152f4a73d", 0),
    (('index', '--manifold', 'cp3', '--twist', 'lambda3t'),
     "d9993254e7c0c79465d06812b83cdcb39067bc96a09fd1eaed09dae6710fcaf7", 0),
    (('index', '--manifold', 'cp3_alt', '--twist', 'none'),
     "04835aa6111357519a5c309c9bfe9255b87f53eebde98217ebcfb9d9cad31665", 0),
    (('index', '--manifold', 'cp3_alt', '--twist', 's2t'),
     "8fcdd945f07ad65f2e89533c53be00c9c563cc66e71ae5b9e2a5a70c0f2c742b", 0),
    (('index', '--manifold', 'cp3_alt', '--twist', 'lambda3t'),
     "4250caf0f8589d6f9480cd936c3cc29c3b47b994729487a11c40764d5bc715da", 0),
    (('index', '--manifold', 'cp3', '--twist', 'tangent_witten', '--q-order', '12'),
     "109da6cddcd27aa4b44cedc2e01a716d7dcbc6a25e0b9fff7acbfd3297fb8ca6", 0),
]


@pytest.mark.parametrize("argv, digest, code", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_report_bytes(argv, digest, code, tmp_path, capsys):
    path = tmp_path / "cp3_flipped.json"
    path.write_text(json.dumps(FLIPPED_CP3), encoding="utf-8")
    got = main([str(path) if a == "FLIPPED" else a for a in argv])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), got) == (digest, code)
