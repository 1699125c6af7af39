"""Golden digests of every bundled fixture's CLI output.

Pins the sha256 of each CSV and of the printed summary that ``contract``,
``match`` and ``verify`` produce on the six bundled scenarios, so any
change to the numbers, their formatting or their order fails here. A
deliberate change to the outputs must update these digests in the same
commit and say why.
"""

import hashlib

import pytest

from uavmarket.cli import EXIT_OK, main
from uavmarket.scenario import fixture_path

DIGESTS = {
    ("demo_grid.scn", "contract"): {
        "coverage.csv": "67478e1fb68fdbfdac67cc3786b6ce50774ad48b5888cc4c9f6f160ab8fba4f6",
        "ic_matrix.csv": "822920cd8cd7d58b242561bac74a0031216caaaec1bd65d3b310142fe3ae6e08",
        "profit.csv": "efa8616fd1afdb0dcdf7560dacad66251ea7a66b36df2bfb2dd5a632532eca35",
        "rewards.csv": "2652615b8b64bad6f00672a45e44fa3e10e9b6b490eacdc2922e70a7565cc0a7",
        "stdout": "0a6c8c5bb351d7f26958c7dfa4c89716083ce8ee298101f6191cca3b934aadf2",
    },
    ("demo_grid.scn", "match"): {
        "assignment.csv": "359584989e2e65cd275510b7e6ee7bc20929f68278784ec3abadaa791676ddb5",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "7d2f8d51080546a738350eeaee36c893c61fa6f7435f3792f84971ce96e76bcd",
    },
    ("demo_grid.scn", "verify"): {
        "stdout": "ba8d1bbf162100ac2106c34d812ae5608bc445b4a59b3fdd566609a45909ea48",
        "verify.csv": "78b29d56f02e694b9a473cb3d9e001e21e51b2c4863a2feec98bd48f3e643077",
    },
    ("fig6.scn", "contract"): {
        "coverage.csv": "5dd55c01f32d58b7f9587c42495791d4403b5d6ebe821170c79fa6ba4b42187d",
        "ic_matrix.csv": "ba34a65e5a9fc02e6578baec410ba491c7b2d306525eaa1a60976a77b99dbe37",
        "profit.csv": "35536eeb9f7ebd153dcef25d569617b1616c60cf7b6308468af0d716a87f671b",
        "rewards.csv": "4a4de8a1a92a5d41e779ea42307ba1fdd33624576528ac120b1c8c47431306a5",
        "stdout": "6e6efa2ccd99d1fab6400619fb9c8a3eab5ce3485cf3a74fe90965850d7cfe20",
    },
    ("fig6.scn", "match"): {
        "assignment.csv": "274a15508410a6afdbb5f8699ead8b2638f8d475170c157386096fd493b124ab",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "a9bc3001e00f13c20e8e90166b01a3e5bfedfefa95c90129f355e8264e3d3f67",
    },
    ("fig6.scn", "verify"): {
        "stdout": "8d0a825784b2c7c4253aa80d3454ed64f44273ba6ce08762843dbd95714b8f0f",
        "verify.csv": "bf2f3aa904d9c8146b691561245a0963ba0d7d879052ccb6c0795c233a5f0937",
    },
    ("fig7.scn", "contract"): {
        "coverage.csv": "1156c569a3d106ce0abf18d27c5c0e5edccbe0be04e10254933e901425d040d7",
        "ic_matrix.csv": "a29f47fe114ab3d246dc9e1aa6d9e6def760d7cb2c3c1b20b5e9608f2cefea8c",
        "profit.csv": "94d61aa147d1a20cf11ccacdbf7d47ac9093c88b119629628bc66f568c651e05",
        "rewards.csv": "cbdfc7c7d1591d12f52ce2eb4270e4c7594df8168848675a2f965e5d9f181977",
        "stdout": "6e6efa2ccd99d1fab6400619fb9c8a3eab5ce3485cf3a74fe90965850d7cfe20",
    },
    ("fig7.scn", "match"): {
        "assignment.csv": "274a15508410a6afdbb5f8699ead8b2638f8d475170c157386096fd493b124ab",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "e79efe020ed471f4c79df29443eff489a8287a2746d3743aaf62409a61a963d2",
    },
    ("fig7.scn", "verify"): {
        "stdout": "c7a7e131879ce02a95dd7930fc0e3251a9fa641aa3bf998c7eb8bd7b35e1422e",
        "verify.csv": "1bd50a3b81d5f5cc127a4209997e3370b04e1b82465090e3742e928d69700d4e",
    },
    ("fig8.scn", "contract"): {
        "coverage.csv": "49c22232db9ad80739ab21320844dafd9d25c3592ae6fdee3ea2833f15168cc5",
        "ic_matrix.csv": "9d3d7b4e4f72b6fb5e148ad51cc39cb7409e0d55a1c9fca7eca59a1e46226534",
        "profit.csv": "e0e7060ef304001f6285598aa204862e9f5e9f4a09e1dd000ac2a1371266e217",
        "rewards.csv": "0ff9437c9874f74fcda34599d8c6dac76cf964552472d51e9d2382c7f44899a1",
        "stdout": "cc0cb2a50a9fb607046a77b4c542682adae440665e65d09d11448c460ba3dd2e",
    },
    ("fig8.scn", "match"): {
        "assignment.csv": "95e1972b412101a80c1e783b5dead3eb2a99b7f70658e508efb59c1e9b8306f4",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "1b210318b3a0fe1243d090c5a0f5f69e00ecaa6a34417398ac79de1de3f5c43c",
    },
    ("fig8.scn", "verify"): {
        "stdout": "34dc0a960c7c9f203c40e4b9eee3de967a005e0cd4a24ae660503034263b54fd",
        "verify.csv": "9be64fa5f521d4b321923311340581433b041b20ca3e424a5ab43bb1428ea83a",
    },
    ("physical.scn", "contract"): {
        "coverage.csv": "e1e46ed12578ab5085c0c76c23c59c0da0188424283bc4c2752be61c22918462",
        "ic_matrix.csv": "8b6402508b8ac01b01dec59cd7f7047f9f4e6befb39e887d0b4f80e6e2cecb36",
        "profit.csv": "560df934870da1f21dc423f5b5fd3de876e4c125cc128eb20f14c64b88ac447d",
        "rewards.csv": "4bfc3269d6f401df6590e1a462f5513d5de95bccd638536d012864499f907d26",
        "stdout": "5817ffadac3e59739b945a1be4221f6091d2dc9e19997adbc2d8c56e15ad78e9",
    },
    ("physical.scn", "match"): {
        "assignment.csv": "3893bed51d86c414c9aee1d8bddb99958f93cda41dbe20472b05cc4b775d1428",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "85f61fb08b5d973867fddbec7a10112ed888aeb0a4eb9d470d1c46cfd1fec276",
    },
    ("physical.scn", "verify"): {
        "stdout": "0ace8c6f6671a8bd8e2ad8e34453880520d745506f7173c09dd05e96e1a5e112",
        "verify.csv": "47e19ab670c8414fd7366b6a2b66697937e85ec1e94671497a972e70f69ad10a",
    },
    ("table3.scn", "contract"): {
        "coverage.csv": "cb71af01bd80034637412b8b9162bc9210a5c9cfb332f6389b36ad5040c578e2",
        "ic_matrix.csv": "51a18f7c787fd15691ef2a7703b1967431365e78c96ddca5dfbb76c5e4a23c88",
        "profit.csv": "b8541302ec745cfe248cd43adb756e31e41eb60eddb9da12ede63c55add23d61",
        "rewards.csv": "ea1893991207be22097c5a298e10a5b9d81106b863bec7385db4b21b88a41d27",
        "stdout": "1b2ef25a99a59afec4abb94b579024dcc5d66dfbcb7e1c1ed9d8923f7ba7ade8",
    },
    ("table3.scn", "match"): {
        "assignment.csv": "1689d5a758decf82b4424fa35824d12fcf176aaf64d05dc21c7961311c6b4f9d",
        "calibration.csv": "1d8b630de7e7991470998d7b4470eb08d1e2401ed8f0b7bc79a876b19f591b1a",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stdout": "b2e37269c4b971977575c4e462439f117701d346317a3a5c021331b425d71192",
    },
    ("table3.scn", "verify"): {
        "stdout": "aa7e7d63c591cbe4c1785d2c2c76cddf9e4c32391e2fbb6ea299dbc26d3fac2e",
        "verify.csv": "876720205e735de72011f5665211b7c898093a216d1908008173156c987a4421",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fixture,command", sorted(DIGESTS))
def test_fixture_outputs_match_golden_digests(fixture, command, tmp_path, capsys):
    code = main([command, "--scenario", str(fixture_path(fixture)), "--out", str(tmp_path)])
    assert code == EXIT_OK
    produced = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    for path in tmp_path.iterdir():
        produced[path.name] = sha256(path.read_bytes())
    assert produced == DIGESTS[(fixture, command)]
