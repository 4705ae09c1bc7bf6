"""The benchmark's output digests, pinned: stream bytes, decoded pixels and search leaf tables stay bit-identical.

Each digest is a sha256 over every item's `Evaluation.digest` in item order, as `perfbench/run.py::check_outputs`
forms it, from one op per item computed in-process.
"""

import hashlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))  # the repo root holds perfbench
from perfbench.workloads import WORKLOADS, evaluate  # noqa: E402

PHOTO = {
    1: "37eb781baa7c02286d92542591657025141910b3698aa093a365fe508456425b",
    2: "39d05b30de5d2a24c0b224617ddb37f38be3b940a26a0a684f2857d753895c1e",
    3: "fc8b39545e8039c647de4476a115ef15db2ff998141c02002eb1f5d980247113",
}
DIGESTS = {
    "encode_photo": PHOTO,
    "decode_photo": PHOTO,  # the same streams, decoded
    "roundtrip_texture": {
        1: "1a4784ae85be60a01f810d8fa332d51e18fcdcecc4977799e1d93e72f92dc6c9",
        2: "714843bd070c947e978ee1c7a23e06853e08cde77ec1261d74fdbc54848b83c5",
        3: "f1a307a9a18b39a1045abc6ba984174eb4a0d3079022883cb9b7b9372fc50be3",
    },
    "search_baseline": {
        1: "ed13501c4890011b59c82ced0857111a0beaa4b90df66734f173dbaf7aa38c7f",
        2: "3911db26fe559426012de0b0bd686e248ceec47e4bbe62bfd0f62fd7ffe880d7",
        3: "ea8b7805772c014b2f4d37b9c92826821e4c25bdc7d4dd60b7f579ff9dcd1355",
    },
}


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", DIGESTS)
def test_workload_outputs_match_their_pinned_digest(name, seed):
    workload, digest = WORKLOADS[name], hashlib.sha256()
    for item in workload.setup(seed):
        item = workload.prepare(item) if workload.prepare else item
        ev = evaluate(item, workload.op(item))
        assert ev.failures == []
        digest.update(ev.digest)
    assert digest.hexdigest() == DIGESTS[name][seed]
