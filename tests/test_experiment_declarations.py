"""Pins of every paper artefact's declaration and output.

Each experiment id is declared once, and everything the repository
derives from that declaration is pinned here by digest:

* the campaign hash of every id at every scale, unsharded and under
  ``--shards auto`` (the unit grid, its parameters and its name);
* the smoke-scale rows and rendered text of every id but ``fig4``,
  which shares ``fig3``'s aggregator and formatter and costs more at
  smoke scale than the other nine together;
* the text of ``repro list`` and of every experiment and ``campaign``
  ``--help`` page (rendered at 80 columns).

A change that moves any digest changes what a command prints or what a
store caches, and must say so.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.experiments import campaign_for, run_experiment

SCALES = ("smoke", "quick", "full")

CAMPAIGN_HASHES = {
    "ablation-length/smoke/1": "e6e646e3c1fc4638",
    "ablation-length/smoke/auto": "b064ef5b31cd57d0",
    "ablation-length/quick/1": "37907f050081f2ab",
    "ablation-length/quick/auto": "a89967ef0e9b9453",
    "ablation-length/full/1": "052524b21bf3f04f",
    "ablation-length/full/auto": "acd2e1d51bf38fa4",
    "ablation-maxdest/smoke/1": "2dfa1c1f19f3a6dc",
    "ablation-maxdest/smoke/auto": "7d8085197030ea9a",
    "ablation-maxdest/quick/1": "7af19af9fdfcb3d1",
    "ablation-maxdest/quick/auto": "8bf27a718f90887e",
    "ablation-maxdest/full/1": "f79af09385dbcc0b",
    "ablation-maxdest/full/auto": "df945037afe4738a",
    "ablation-ports/smoke/1": "5e90189353dcbfdb",
    "ablation-ports/smoke/auto": "a72b278cb2552607",
    "ablation-ports/quick/1": "c8388eb6439b0772",
    "ablation-ports/quick/auto": "5354ddb8f64b281a",
    "ablation-ports/full/1": "91ea8e1437d2a646",
    "ablation-ports/full/auto": "4d6885bae632282a",
    "ablation-startup/smoke/1": "18a999d8e38358ab",
    "ablation-startup/smoke/auto": "266ed054a7749825",
    "ablation-startup/quick/1": "ff9a2f0d0489b9a5",
    "ablation-startup/quick/auto": "2fd9f4c83accc092",
    "ablation-startup/full/1": "33280c7d3c89b4e1",
    "ablation-startup/full/auto": "7d4550284649d3d4",
    "fig1/smoke/1": "897f8903c0a9f684",
    "fig1/smoke/auto": "de4dce2388144302",
    "fig1/quick/1": "0cc7d8e0ed10bdf5",
    "fig1/quick/auto": "dbda2411842a0240",
    "fig1/full/1": "3726aa519bb91cba",
    "fig1/full/auto": "797758a1ef91cff1",
    "fig2/smoke/1": "2ebfa34285afed27",
    "fig2/smoke/auto": "cfce79ec59e6c7c9",
    "fig2/quick/1": "54b341be16512a54",
    "fig2/quick/auto": "68682c8e9f2f7f41",
    "fig2/full/1": "2ec59a9ef4d42009",
    "fig2/full/auto": "78688be2f61b8354",
    "fig3/smoke/1": "b07badf016ed956e",
    "fig3/smoke/auto": "b07badf016ed956e",
    "fig3/quick/1": "36c7d8eb96b754f0",
    "fig3/quick/auto": "36c7d8eb96b754f0",
    "fig3/full/1": "3114081c1724bc1c",
    "fig3/full/auto": "3114081c1724bc1c",
    "fig4/smoke/1": "2c6f11cae206fc04",
    "fig4/smoke/auto": "2c6f11cae206fc04",
    "fig4/quick/1": "04393777e47d6711",
    "fig4/quick/auto": "04393777e47d6711",
    "fig4/full/1": "e931c20ffe37ec49",
    "fig4/full/auto": "e931c20ffe37ec49",
    "table1/smoke/1": "5db83b73452c8049",
    "table1/smoke/auto": "5b6218c8d1792025",
    "table1/quick/1": "115e46d2cee00ed6",
    "table1/quick/auto": "31457bdc55a31118",
    "table1/full/1": "0c0210aff02230e2",
    "table1/full/auto": "c3adaacf977de9b8",
    "table2/smoke/1": "02f0e645c4a7f7b3",
    "table2/smoke/auto": "ddb11cbddb2f5120",
    "table2/quick/1": "7a5456495ce28a87",
    "table2/quick/auto": "930fe009c56a6a7e",
    "table2/full/1": "9e7d1b0399b4d7a1",
    "table2/full/auto": "a371702eee1d6390",
}

SMOKE_ROWS_AND_TEXT = {
    "ablation-length": (
        "68f3679adcf1024e15ae03189dc8448a174c3110acaf1f020b64f995e307c024",
        "2b3674e3ae7fc87aeb8f7602a9d0a1a91d9e338677a856f607ac88ec30d9dd9b",
    ),
    "ablation-maxdest": (
        "9d8589697545e54bfe676afdccd819d476b68601e146e2f3e24150ee70048be6",
        "21f815df54fc3f832d890a4e662ef0f0c5e5eeeafe9a8356d66e7e796bf76072",
    ),
    "ablation-ports": (
        "d978d6cd67dc04a93607c2d0672de39dbbef1247642928175d789f04e6c1234a",
        "d555ef9c277e6f8769113a1c63728c4cb860e2f50b06017273a24ad9fa6683d0",
    ),
    "ablation-startup": (
        "87cd99f1d162ea154dbf94e8c87586d3cd62269296d318c0af4d59433b5c830f",
        "8d6adfde1158f5e871a3fb798c0051ec370c35157c02f5fb303857057046e3f5",
    ),
    "fig1": (
        "8a9cac6f3917d0652e9073257a95055b192741cd0f1a61fe9ce9dafd28c2dd42",
        "8b249686137d21db263068590821134f9d98f4d48a0ef736bc1b9fa76c27d766",
    ),
    "fig2": (
        "4189897148cfe4ad98508e0bb3cb2c7788e02eea4a9dc385a7f4e7e594d54ea3",
        "4dd046ecb15011a70fbb33a62adbd35e62705748d8aec20cb41a75ece2b24944",
    ),
    "fig3": (
        "717450e4ee291f6e0fa91638b13c3eb0cf49f5c06e53fb9e98d46d3dd9cd4d3b",
        "ae15ed258b673db48532b5635be89a552927dab8a7e6ea4f9b35534fcb4096d6",
    ),
    "table1": (
        "4d25e78cbfea77cd9a9715cf65d81b1fbc8e4d30c5a7843adec2ecea0939e6ae",
        "c348a12237bdd89b1d5110e6382d62001c75c13d67acb8d7e57c239cbd1da738",
    ),
    "table2": (
        "1eeb6a03861c43fad045faa94ca5ac8ed6dd3de51c0e69e470ae24ddc79ff1db",
        "6377d33577586e6bbd0a2fdadc0d31d52e4db09b2820892c4cad758b3a244b6d",
    ),
}

CLI_TEXT = {
    "list": (
        "12e35045f16d013f18e9ee77e01a8355d39e08e3f8a55a68dab0244514f5bb11"
    ),
    "--help": (
        "e395adb2b1153e0a43df73622b09f2eb53a9ecc538b3ec62257b60bcf3e2ba34"
    ),
    "campaign --help": (
        "e8ec4087cce27715d363193ba841d4d592a2713120d8e31876b13a534ee0bb27"
    ),
    "ablation-length --help": (
        "b1963837de6a22244ec47bc0d673414f886e1a30b0866376d4de6ee04fab85d1"
    ),
    "ablation-maxdest --help": (
        "933ece6f5a3af63453e1c09bc3a32cbfab287940e1cf2fdf7d7779e14f1710c2"
    ),
    "ablation-ports --help": (
        "1b50f208abd03f5762ca44988e4ab5d909af390534bda31212849042b5703882"
    ),
    "ablation-startup --help": (
        "e9e2c8f0b89479bef6010922e939375eefdc1406b6327f4893c86a2672dc0b39"
    ),
    "fig1 --help": (
        "7c109e00fabe7e10fa9c63f18ef2e6d6ec9f6a1546cafd61302573a391d8647d"
    ),
    "fig2 --help": (
        "a73f79a459e6dc8854dfdd3bf722d7fb88a01a07b003bfa30f592997e35c887c"
    ),
    "fig3 --help": (
        "c8e48d7b55a5112a74bad6c48b1e6e144032e2848654369c61d55e94c4008df4"
    ),
    "fig4 --help": (
        "eb08b4944a9a330cfd63282d507c1a3ef5f28b93f9e9137960704239584df987"
    ),
    "table1 --help": (
        "e489e9acaccf327736e3ee3db51678fa91f4e6eb0f8d7dfce732e577ce1675c6"
    ),
    "table2 --help": (
        "e8220fe50a95e2fc992ef9ef2760162353b3c3e3499a827bbc96007ea15f4fdb"
    ),
    "campaign run --help": (
        "564657b709f97e5214aebf32cb951c51f065580c3fb1441f8a08220a33e166f7"
    ),
    "campaign status --help": (
        "be0b0929ba0e70b7d74a52f3d4aa81604a05462ed0000848effaedc42133ada2"
    ),
    "campaign aggregate --help": (
        "4ef9cf4ba7d882c2cb071af0583a7aa8b0fb0c0c78e7ff61797dc543f215e875"
    ),
    "campaign trace --help": (
        "79b2419ce56ee2228236b4cff9e87d238739e431dcfb0f53f54168dada3ca311"
    ),
    "campaign retry-failed --help": (
        "0328137576df8b2fe8bde28c5a04cc828efc4f3ec7d16345987cf286e6a54e92"
    ),
    "campaign serve --help": (
        "e0540fe675b9afca002e44062823abb99f70885a96ec3403813eb5c4774a7838"
    ),
}

EXPERIMENT_IDS = sorted({key.split("/")[0] for key in CAMPAIGN_HASHES})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_campaign_hashes_are_pinned():
    assert len(EXPERIMENT_IDS) == 10
    got = {}
    for experiment in EXPERIMENT_IDS:
        for scale in SCALES:
            for shards in (1, "auto"):
                spec = campaign_for(experiment, scale, 0, shards)
                assert spec.name == f"{experiment}-{scale}-s0"
                got[f"{experiment}/{scale}/{shards}"] = spec.campaign_hash
    assert got == CAMPAIGN_HASHES


@pytest.mark.parametrize("experiment", sorted(SMOKE_ROWS_AND_TEXT))
def test_smoke_rows_and_text_are_pinned(experiment):
    rows, text = run_experiment(experiment, "smoke", 0)
    rows_digest = _sha256(
        "\n".join(json.dumps(asdict(row), sort_keys=True) for row in rows)
    )
    assert (rows_digest, _sha256(text)) == SMOKE_ROWS_AND_TEXT[experiment]


def _cli_output(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            main(argv)
        except SystemExit:  # --help exits 0 after printing
            pass
    return buffer.getvalue()


def test_list_and_help_text_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = {key: _sha256(_cli_output(key.split())) for key in CLI_TEXT}
    assert got == CLI_TEXT
