"""Byte guard for the rule inducers.

``rules``, ``export-kb`` and ``eval`` for every inducer, attribute kind and
pruning mode on a small synthetic population must write exactly the bytes
recorded here.  A speed-up of the split search or of the evaluation that
moves a threshold, a tie-break or a count fails this test, not only the
benchmark's reference check.
"""

from pathlib import Path

import pytest

from amlprofiler.cli import main
from amlprofiler.manifest import sha256_file

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "pipeline.example.json"

# sha256 of ruleset.json, knowledge_base.json and evaluation.json (10-fold
# cross-validation), keyed by (algorithm, attribute kind, reduced-error pruning
# with --min-instances 5; for ripper only --min-instances 5)
DIGESTS = {
    ("part", "nominal", False): (
        "a0537ec8d964e127cfcc849c4939eabcd9ff515cad0b97401a93b8bcc1331186",
        "ab7d112134fd309f035d42bb80184d167c4aa6e1be6c049b8fcbbb205e665ced",
        "dd0892ee6efc24dc7c863f236c63cb24b332e9c03c32b97727f4643adfa0068b",
    ),
    ("part", "nominal", True): (
        "a8fe581514620697b0ff861f38a27d9ff90f529e2828eeb9599aed425f4fb89f",
        "3671e48332e56cf4a92ee1725306e3dde5d3467bbc374ed139348b1847b4ae80",
        "3d97ec0228ef61e67db7625a39033395d678ac2d3278f9e88486e4bf5f10d93f",
    ),
    ("part", "numeric", False): (
        "238a416e14df8dcea884bd65659b875f4a146a3d23f881f98cf12f8d01fea60b",
        "7eac3e4cddd9dd6a08a63887fcfc868fdbf1b7931bf79098eed90fa12395717c",
        "9804b7503262b81803efcede686da2645b3eca871d1e6f7d9e62109fae7ac2b3",
    ),
    ("part", "numeric", True): (
        "7485da25ffc3c5e1a61935d088551bf599c58353cdb38ed74ef0589e2f154f91",
        "49c0636eb3013f9bf7e39b016c1e637973bc0f947a47907ddb16e8cd94a15d97",
        "d30076db967e8a4809c599fb4cc5df2ed2192ba2d7f7fe53e9be2fa1a6fa8e8c",
    ),
    ("ripper", "nominal", False): (
        "cd99b326459c60649729d1dda2155a0d2bc75bb9a8ec7bd99683251605a569e2",
        "52b0d40d1217f94be7188245f993aa28649616c4a2edffbb0dc17e591b66f436",
        "7ccfa1acd5e3938a6cdf1b51308952fc35d1b9c89f784b8055c48799993354dd",
    ),
    ("ripper", "nominal", True): (
        "e86078c5de8d36ded473208e9bda2941fdb0fd7d53933303759275b27a95037e",
        "90b6bdea4617506cee59f4cf7932c50b5f016c34603b50240860f5538c81bed1",
        "7ccfa1acd5e3938a6cdf1b51308952fc35d1b9c89f784b8055c48799993354dd",
    ),
    ("ripper", "numeric", False): (
        "db9800238113ecdefdbefdc4804a615361a673b7e8d6cd9b992f292e9a08bdfd",
        "42b6889e7eeed86d4f6e5b93f23611a78772b5f5d30603fdc0656359214a13de",
        "9a9293cc3ca20f5fc6c7d515735e763f1253bce62701fe235628808bce3f8467",
    ),
    ("ripper", "numeric", True): (
        "5e22b63a0a5dd95e0f40f7933cf85c3bd5a2e90b540eb36a1b7797072422e778",
        "c2c573156b9d88a437455af62652597361b6c415d3b128df408c731e365277d5",
        "9a9293cc3ca20f5fc6c7d515735e763f1253bce62701fe235628808bce3f8467",
    ),
    ("tree", "nominal", False): (
        "e2bafc14d655719f8865a82a979f59b9530a1155cd4d779a858a8689fd3ca6c9",
        "ef131b11a7a7d5d2a5bf4f714f5ecc8adb7c69ff6e2e8b1551aa89250b8e53ef",
        "677e593b11aaf79260f14e8cd47a65e3762004682a41ffdc24d6c98b5219b7ac",
    ),
    ("tree", "nominal", True): (
        "11ac7c0ca092786840ae729ee601fba91797bd51ffd03843279014cb932822e5",
        "e98da5709410fa05876b2da0463360c12508b07056d104822b91e3708f102787",
        "68f7799dde340b1b8f6961dc0e9583ed06e37df856eddfe0d67086e2af89dcc2",
    ),
    ("tree", "numeric", False): (
        "72fe24fc948412baac46d80ac01a8f258db427ebadf0c275bc6ea5ef84ef3910",
        "a4846bcbef3fba342c37374ad3086a5dcd13ec8813401fd378e2f223f2a3c87b",
        "9c5bf89cff4d2dcc79f1247538f327a805a7331e3c064a68088898368f445714",
    ),
    ("tree", "numeric", True): (
        "0ba6bf8ccc6679bb24065035eba65ae5e86c86b735868cc4597c21de5675df8a",
        "e7824d2ec85f755704a171e21a1a526e8cd8ac5160a88d4d7721d3da6ca61f87",
        "70859c371a54a06ef36d09edfe9efc615ce5cec2abf136e1057773855bd7a9d6",
    ),
}


@pytest.fixture(scope="module")
def labeled_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("inducer_bytes")
    args = ["--config", str(CONFIG), "--out-dir", str(out)]
    assert main([*args, "synth", "--n-customers", "300"]) == 0
    assert main([*args, "profile"]) == 0
    assert main([*args, "cluster"]) == 0
    return out, args


@pytest.mark.parametrize("algorithm,kind,rep", sorted(DIGESTS))
def test_artifacts_match_recorded_digests(labeled_dir, algorithm, kind, rep):
    out, args = labeled_dir
    induction = ["--algorithm", algorithm, "--attribute-kind", kind]
    if rep:
        # RIPPER prunes on its own pruning set and refuses the flag
        induction += ["--min-instances", "5"]
        if algorithm != "ripper":
            induction.append("--reduced-error-pruning")
    assert main([*args, "rules", *induction]) == 0
    assert main([*args, "export-kb"]) == 0
    assert main([*args, "eval", *induction, "--split-mode", "cross_validation"]) == 0
    names = ("ruleset.json", "knowledge_base.json", "evaluation.json")
    assert tuple(sha256_file(out / name) for name in names) == DIGESTS[algorithm, kind, rep]
