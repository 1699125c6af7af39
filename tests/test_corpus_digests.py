"""Golden digests of the CLI output on a corpus of generated scenarios.

The six bundled fixtures share one subregion order and barely calibrate,
so their digests cannot see a change to rejection chains, tie handling
or calibration. The 31 files under ``tests/corpus/`` can: seven families
at 20 UAVs x 20 subregions. Each case pins the exit code and
the sha256 of stdout, stderr and every CSV that ``contract``, ``match``
and ``verify`` write; the ``contract`` cases pin the menus themselves
(ladder order, coverage, rewards, misreport matrix). A deliberate change
to the outputs must update these digests in the same commit and say why.

The files were written once with the benchmark's seeded generator
(``benchmarks/gen.py``, which is not imported here) as
``gen.write(doc, path)`` with ``N = 20``, seeds 0-4 unless noted:

* ``direct-<seed>.scn``    ``gen.direct(N, N, seed)``
* ``ties-abs-<seed>.scn``  ``gen.ties(N, N, seed)``: exact twins,
  absolute calibration steps of 0.1
* ``ties-rel-<seed>.scn``  ``gen.ties(N, N, seed)`` with ``calibration``
  set to ``gen._RELATIVE_STEPS`` (relative steps of 1 %). Every one of
  them ends in an unresolved tie (exit 3), which is pinned as it is.
* ``physical-<seed>.scn``  ``gen.physical(N, N, seed)``:
  hardware profiles, about 5 % of pairs pass screening. Every UAV has a
  direct ``power`` and a 1e6 J battery, so only the deadline gate decides.
* ``physical-tight-<seed>.scn``  ``gen.physical(N, N, seed)``, seeds
  0-2, reshaped so that both screening gates bind. Drawing from
  ``random.Random(f"tight:{N}x{N}:{seed}")``: ``fl.rounds_override``
  is dropped (the rounds are derived, 60); every second UAV (odd file
  index) replaces ``power = p`` by ``power_coefficients =
  [p * s / v**3, p * (1 - s) * v]`` with ``s = U(0.3, 0.7)``, each
  rounded to 6 significant digits; then, with the deadlines and
  batteries removed, every pair is screened at ``theta_hat`` and each
  subregion's ``deadline`` becomes ``round(median total_time over the
  fleet * U(0.7, 1.3), 3)``, subregion by subregion, and each UAV's
  ``energy_capacity`` becomes ``round(median total_energy over the
  subregions * U(0.7, 1.3), 3)``, UAV by UAV. The deadline gate rejects
  49-60 % of the pairs, the battery gate 44-54 %, and 30-41 % pass both.
* ``hetero-<seed>.scn``    ``gen.direct(N, N, seed)``, then, drawing from
  ``random.Random(f"hetero:{N}x{N}:{seed}")`` UAV by UAV in file order,
  ``alpha`` becomes a per-subregion map ``round(alpha * U(0.5, 1.5), 3)``
  and each ``psi`` entry becomes ``round(psi * U(0, 2), 3)``, subregion
  by subregion. Each subregion then ranks the UAVs in its own order.
* ``values-<seed>.scn``    ``gen.direct(N, N, seed)``, seeds 0-2, then,
  drawing from ``random.Random(f"values:{N}x{N}:{seed}")``:
  ``reward_hat_policy`` becomes ``{"mode": "fixed", "values": ...}``
  with ``round(35 * U(0.5, 1.5), 3)`` per subregion, in subregion order;
  then every third UAV (file index 2, 5, 8, ...) drops ``psi`` and gets
  ``base = [round(1000 * U(0, 1), 3), round(1000 * U(0, 1), 3), 0.0]``,
  ``velocity = round(U(8, 12), 4)`` and ``power = round(U(10, 20), 4)``,
  so its traversal cost is derived per subregion. These are the only
  cases with a per-subregion fixed reward and a derived ``psi``.
"""

import hashlib
from pathlib import Path

import pytest

from uavmarket.cli import main

CORPUS = Path(__file__).parent / "corpus"

DIGESTS = {
    ("direct-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "adc1fcec8e5be6290e853f23a82fdca7b4efaecba8cb053aeb300daea1cf936c",
        "ic_matrix.csv": "983390623ae5036e9703d89ac62174c17c03e2140155998bba9b6f1cbb4570a6",
        "profit.csv": "3744830914bc038327414af74ce2c3534e3b74a4e13024aa16747313b55f5d18",
        "rewards.csv": "92be896efc84a24de36dc36c1a43f7b179f46b934b559d355d876aed5812e1a3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("direct-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "fdf842d23b6f9981082fdae2e016539b561aa4f5fccabbe7892a8a1119138701",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "358835c833b83cb19de318401c2792a2cc2613b360fbd843e7b86fa2c6ef0e97",
    },
    ("direct-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "86c0176d2e8e924d3412003041b12cfd5fa5a5dfa012b820d9455cfaf4f9b409",
        "verify.csv": "05415ebf038c946e057e69b52601bb8dcb6b0b26be6cb74cae23667e5c931861",
    },
    ("direct-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "1b94c8af07aef0f4eff19b3234847ae9b46ed48a904c45501311c94d7b20c314",
        "ic_matrix.csv": "70feaa17d24ca62fd014dae2510fa1f4124901f9c92a5a82e4990b6c0f612629",
        "profit.csv": "3efcad86f97db40827b3843431879fd05d165991a776ddb966f494751153e3b5",
        "rewards.csv": "d7177f956c67531ad48e3280869c7af0940dadae78168fbddacf4b27567b43e3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("direct-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "8ff0f3c3b43e6b2d90efed2f64521705cf313b55be024379469a98fa26c14136",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "eef2db3883dedeb279e312e4d397b42118e8d9ab49e1f6d61c38991c6f6e5b66",
    },
    ("direct-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "f49f73f83957bb8d0c9f8241c9a85f9d492d9db943b5047d3696c60db1de9e68",
        "verify.csv": "5ba853910c2ea023d299008d6de2a1b688daf36464d55f3518e7e6a2d3f46db7",
    },
    ("direct-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f18d6f5c7aeca8995941327effeab4193909b74ef88c41ad1eb0cd18c7904781",
        "ic_matrix.csv": "8a32e15c2325cc0b784fadd10847cd399605d50b81db6cd9dcc0dbe2320c496f",
        "profit.csv": "044a2bbcec274ec65df51a26e947eb6375ed2d956b13af6834f88d24e9fa51fb",
        "rewards.csv": "c1c271662896f2019a3ac8ba5f9de5078b154e651f8963ca7457e21d1c8e5e5a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("direct-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "72f39e4d444c748a6a7cbc1756abecf832058685e7bc97284f632c2093620897",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ea0352ae0a904a61c7ec1fd6cbb92b66472ef6b557b24acbd95ed158c31daad1",
    },
    ("direct-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "77c3acd830df33ed328cedc99cb0a5270942248800b5c0ac434ffb440bc38e2a",
        "verify.csv": "3b62c920a4d1fd806898c3aac499b181f7af8175aa8739d8212f58bcbfb4c03f",
    },
    ("direct-3.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "00baec867796552e2aaeadb82317513add66cd2c0d840f3b16143116eab925a0",
        "ic_matrix.csv": "58995dec6013729c3a038576fbe400ea50a6e292899c2b67ee71a40b58fa5400",
        "profit.csv": "33ee9cbe7652f015bc3db0ab91c2ba1732ade7833a858cda1f77190663005d13",
        "rewards.csv": "56fc178102ee00438efa1309bcabb485563de02dfd690d4ea7847e5f32301364",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("direct-3.scn", "match"): {
        "exit": 0,
        "assignment.csv": "800bbf082918323bd4877521f18258ffd34101c1676b29dbf54ed175fe50308b",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "def20c45ca43dd5e73ffc6dd95b0396684e8e502be82f568e44c50e57b0770cb",
    },
    ("direct-3.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "894943ce89a161b10debee820ad38856fa4ff33e0bc1506b76e85013f8a02a6f",
        "verify.csv": "86fce38cf3b5633702d6fb5ce2baadd2a96f97dc62b661f13430bfbdabff676c",
    },
    ("direct-4.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "e2592d82ada92899e150b824d282c4e3e0b631ae35938b229241c63d8b69b20f",
        "ic_matrix.csv": "41a3c8e41b3a50f785107902ed6645eeeb3c363d977cf8971d0c75cee36eac8b",
        "profit.csv": "d4dcb771210caf95af822aef49b9365eb326ca63a25a90fcaff30f7dfee9e93d",
        "rewards.csv": "df6e8d3e3428199a5402681530c8634cd204e51e4ce9a8719125a7cb13e2ffef",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("direct-4.scn", "match"): {
        "exit": 0,
        "assignment.csv": "6f2c373e1210fc9c4e86892af68161429eded3fc602a9418ee63230bcd360d49",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "d8b2970c1d5812ab1180160cc0b6ce916a16f9f6d7721c23c811b59d85e0b81b",
    },
    ("direct-4.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "7fac2d8a536848338f4c094deaed3cfa9c9c67b0724a53d95ada91c5ebae6c32",
        "verify.csv": "1f9c88c0f6181436c82a699c852d1231de50467bdbfdee8c46845bd29b24eba2",
    },
    ("hetero-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "792b984f01967177d97018ab1aa297f9d9deeac5c893fe098ed7de979df787c8",
        "ic_matrix.csv": "ee6002c77874b08f161524fe35ebc40f5be02873fd42084d05bdc2fff5f73b1c",
        "profit.csv": "af5f76316b4e207a883c25e159128414197e9a124e38affa96b34924bfff7a54",
        "rewards.csv": "fa99406579c911f2511765d472ae2b0f1f249688f550e684a788ff88047a7e34",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("hetero-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "10dc0615c4db977730a18c0f7140d0bc0aa4cc293855682670fe1564c77736a5",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "dab6005cdca0b3e723663b86cb24702907c6cc69965aee96375210f82ea2d3cb",
    },
    ("hetero-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "26622e01f121368041606955d9b4f30bd797c7cfc1d6c2413888192c114c4075",
        "verify.csv": "7b7263d152adcd92f8f1e5bc8223074209d60a185fd74f0afe4cbc191f5aaada",
    },
    ("hetero-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "a6cc0d31255812066a9495e29118daff299403bcaf99b1f6771988e2ff1759c2",
        "ic_matrix.csv": "0ab2adc7140ad54c998c21a531c3b34c4fe42fee26f0521d08b31029ca715309",
        "profit.csv": "7f6e043071a9214a2658037516e9a4f391d29af4df9c4b80fb6b08490f6e5fd2",
        "rewards.csv": "270fb0d77388fd9c32f682eaff2a0e6386e6822f2deed67b5dedd30ee1865150",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("hetero-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "08e9e4cd4ea7e96ba9d6b8ddc6add9b56913d79708b13a832f1c8ec90d8958a9",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "0f7b29fa1644f9c0fa348645e941755ab65fad96d9b8d87426165c9ebbfc6579",
    },
    ("hetero-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "08d2b8c0dd1cf2c7d4363dc6c1cb0106881a83dfb4b3bfaffa7cd334b0e29bba",
        "verify.csv": "5c787e79f7beeff913e9ee3906951037b32b7d4bfff52618575ed38dd132c37e",
    },
    ("hetero-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "9ab232d1236b198c586f5b609fe5ba72d76b96fb6e89d3e9562d0a26f5e15de3",
        "ic_matrix.csv": "2d4af560925819b5e20920cea61deb1556ede4ac0a96ba677eb718736247e425",
        "profit.csv": "49033a4931bbcce66c08c9921eecb948c2fd79cdb0c32e59af050b7672d47414",
        "rewards.csv": "fe9b6e40eea3380c93b069b38bb8461c2d4db3b4daa238ece4dc1667cccfba0a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("hetero-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "8396eb94d19221850f75ff6700f3d8545c300120e3810fb7715bcd9cb94aaeb0",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "bacff03a346253279f8924f2f7ba7bcff76264210173712097f8223d13c40de0",
    },
    ("hetero-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ebf895f96d01b807cf37ecee5a316047cae939e5cdabcc1e99c26e2d9445a2d4",
        "verify.csv": "b9f14943acda99adbcefabc6d3983bc1759a35ab17a8d76f8e9dc902c6b26eeb",
    },
    ("hetero-3.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "fa663079db69083ac594effa828c548122c7c5b088317a4c857c17248ee16177",
        "ic_matrix.csv": "23d984aca166257c3bd112941764c2a72ee6443aa1d52feaae8be005e471a2dd",
        "profit.csv": "bbb55e1c58cdbdce1f32a26a6a5d7b928bb5349777dab4386c11a41f666c2995",
        "rewards.csv": "e3cdc743f4f2f75905c8758b5e1e4de0a8ca30d8d5b62ce8ae3693d5600ba806",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("hetero-3.scn", "match"): {
        "exit": 0,
        "assignment.csv": "5417610a6c030519ab2bce9bcef559618db99aea64f1e6a0c561c755e07f0cc8",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "bb30cd78a3da1936fd2be60bcd4ac48391189f0d20a0f0b818d22031c03b507e",
    },
    ("hetero-3.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "45ae97ead2b117a33144c2829eb80d27826d5ca5494a67e0f76455e6be801148",
        "verify.csv": "979525925dcf5af32b4c1e3715f79e2aaee0f714b689ef0b721b14438e05a393",
    },
    ("hetero-4.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "698052cb7cc7481bf38b16cf641f1bc5ff07ef6d694b61fed27420cbcdd96f3b",
        "ic_matrix.csv": "42783b81647c07bcdeb8b1467293c87fb9a23639e4862f1015de32d250060049",
        "profit.csv": "8f91e205f786d45c9ccfd9c350ee85b79c0d169092ee71ed36bef03ccd632955",
        "rewards.csv": "d9db7d72dbb1ea3bd0c45fcf045b1f21574437bcef31b6d7b4e4a99a36f32bce",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("hetero-4.scn", "match"): {
        "exit": 0,
        "assignment.csv": "349da5424a847ff1621ba026eec4dcb643785e12d9b70e52e83e9e0ccd2aff9c",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ae6c26e721af447026969c25f7ec8ad57ad2950ac203c26bd4bf321959b6b958",
    },
    ("hetero-4.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "7e9fc3754d5da36f83aa84434e38cdc5b1b95971e2782be4cb66c24dcce30866",
        "verify.csv": "7feb3d593d378438e1dd0b68fe4dc6ebd79795b31f5b62807650047dfac9a0b6",
    },
    ("physical-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "bafad1ab6ce171fe6c8a76824cc4e5cb93d696736d41dea18efc0c7bb68e6e2c",
        "ic_matrix.csv": "527a5394db6dab563ea67fa8ba0eb053eb6f08cc3a3b6d6dc0dd2db69f0ab064",
        "profit.csv": "33cba9dcf7f77268f4a7ea32ba5d22e17f1e5b5c407079725c01528e0f037351",
        "rewards.csv": "31635713aa73f7f6f5b4cf24349e5f90b77814d7f39e5fa2b3716b22f619ca4e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "07ce110cfad6975cbd40ae2a2db13bfc214bbd5d30b396bff7140d44ccea0356",
    },
    ("physical-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "e52ad231c002eab11dbeb27f46be315835738113c7c10e86ed8e14ec06384ca7",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "957ec1165a2affaa4fee419ebfc421a5abc5229b0236c72ab6d7b754767f663c",
    },
    ("physical-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "42de4b6f1729621e33763717499ac5900570de68ebbbb3662de6fc3a660aa19b",
        "verify.csv": "368cee79e7b6cc5567be88195f720c9ea22e0d3a2e75b37ed807e370ea9b4f6c",
    },
    ("physical-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "c4ebe7847f08bace77ecbca3b61a1f3023677f9ecce79981a49a0ab189a86a2d",
        "ic_matrix.csv": "c9459220195074a8ef54fed51cb5638333676c6331ae8339795d211edab62c46",
        "profit.csv": "2822a53411774fcc6602aa88af093763032b06fb3628a846099360799d0c7a5b",
        "rewards.csv": "418c94f4d8e75a2b5a5573437e3367dee52eb3a25048d4a26e14a59f9b086064",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "3b80d99d460985717b1128bdaf50bbb03f5f4413c308aae7f0ae729b8bc4e319",
    },
    ("physical-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "04a56c7bca54f808e42afb6053491ffbb27d10297889557e6f888e5859ff6f2b",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "0459eadbcef0680ce99db329fd1aaff6af3d58081c23872f653499664a791d1b",
    },
    ("physical-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "63d86f9a53048117ecd47db1129d7a7c9e155922a4b390a1af575c7acf0d3c48",
        "verify.csv": "672d7632a60acf435824002a48bcf5f600d128c0b9385c1b437760919afddbb8",
    },
    ("physical-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b756c4db0b57e2359fccf445c54258ac47fe0cc1c20d3782fc782b83b76267cf",
        "ic_matrix.csv": "cd8623358c54e016e50c3071a306a3f7244bf9459fe87ea4b6f8b2e9d6790120",
        "profit.csv": "531e0c825ad528bfcf124d92a1dc5dee260541bacbe0691378860e5947318495",
        "rewards.csv": "cdb6264fee7389b8063a6ea1a23c44c217a6901fe520a1dd9c8345b0be8aee1d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "972d8e694931b518c3f4c6f079ccff8dee7a2715439de305c9288584a36f3830",
    },
    ("physical-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "ff917f8de7d75253e7484fdb74cc8e09e2e2e194c7ada2327f3434b0db82ee2a",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ade7539fae289118589b5ed7b7627cde0d126201dcb0af96b1c36fab8aa6a9b7",
    },
    ("physical-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "e9fc246653607bdd21bb531f0038d743dd1bf3f088950b6164ed740d18429514",
        "verify.csv": "e150140bb7040f02e307055f3e4dda01d7b56cb4d86650579a7106e33aebda9a",
    },
    ("physical-3.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "6c5a25a782c5117fc3fb68cd9aa79c28e60cd1f60416558d5abb5996e8655bb5",
        "ic_matrix.csv": "d639827eb2a9fdad02677664d51f871e67745a84f80b2267d2874d8f3a1506ee",
        "profit.csv": "653cde80128da374bd8af9ea305c0371e0b3f9230e7247a2032e0441d21353f2",
        "rewards.csv": "2787e55c2ad17b051fc33dee4a1bad76ca30c090c6d7c92c5df87b94cd0ec21d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "bd6f218362650a71238387bddf42299813bc50450b8510bcc61bb8af1a6699c6",
    },
    ("physical-3.scn", "match"): {
        "exit": 0,
        "assignment.csv": "9e897e45fd565803f6a681fb5d084dc8f432c8c38c5ef1dc263b59ac196a0f36",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4fb1e93bd965e88fc567a77555c85b9cd0aa056fe4fd7f726fe7adab5b4a99d4",
    },
    ("physical-3.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a5f5623f0739572b1ede26196dcaa56ed934c9863f5ee888adc1d4f1c83e832e",
        "verify.csv": "3b71bafe6d65029d4885732b98723e92733494d4ff54a0439d71831c5f52858a",
    },
    ("physical-4.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "d99284368b5012b6c1984394b8a7fc17103269bb0086bfffb2e3ae3fd59453bd",
        "ic_matrix.csv": "107fb1b258dbbd154407773320ffa2da60910cf640db33413a51432b4df2fccb",
        "profit.csv": "f184628f9f215960b4a62e70b9f5134861fa66ef1c6f3509b381fa14674460dc",
        "rewards.csv": "82be2910102d1a1ea63264fd576c636e3d9f666fdea0efcae91f10b50abca8ff",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "f5eb18a381e2a3912fc3188f77e7ebef0474e8414c416421330f3f14bc344136",
    },
    ("physical-4.scn", "match"): {
        "exit": 0,
        "assignment.csv": "1ed0675dff27beb8c378bb668c37cc66fbafc678e59cade9b01aa619370f9ce5",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "0ca9bf9726bebf7ac5a629ff04fb6bde769f8669032140070b3096611ef21b62",
    },
    ("physical-4.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "0e9b91a09e8d0df3667f9ef70310763f3e9e4e5afdb1ce4df93319faf4f9547c",
        "verify.csv": "cb5c7f43dc12d8e092a47cf7fd871d5a2f31c085244ad82c7b3e9c3731cbf840",
    },
    ("physical-tight-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b3c48e373bbc86efc6d510a67c8621afe6c85b0127167b2545337527e8584709",
        "ic_matrix.csv": "e41f93321563c88363f5a216ca3c570478a01dcdb4d6120fd5c790d9aa12502e",
        "profit.csv": "2f40ec298dbf51ee63173f8b7522a7cb34cda0dbe3f904738063d05711e068e6",
        "rewards.csv": "f2ab8267775abca32a4d4d90a65c61bd050d43996749ec792cd54a8e079dd9f2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "782037cb3dff0f4de10d8e848937bd0bb380e99a7056152ab040cd6ab2a299e8",
    },
    ("physical-tight-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "408cd06514b384b6e9a34fb0f809cad15a12921809c818df85e80ff11d7f9575",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "716a5dc1869bb11bf364de726f1adb876037f2325364c130c7e3fe75dd554d8b",
    },
    ("physical-tight-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "97af7745f24b7aedd87f6da6b9ae8dd6b5b41aa84b61f36565437170b90a19f2",
        "verify.csv": "148b97a3c006935818e6780a8a3d8ccf90c30b12193a3d0b8b7195ff08f36101",
    },
    ("physical-tight-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "dd770f2f6100acd43a551647ed634932a1cd12f4347151aa3e5198d97b39c874",
        "ic_matrix.csv": "68d4edba2267fc716cf1d16cb2ea692ec20ac9789cde5e1734afe02fcb7632ef",
        "profit.csv": "cfe3d192682474588acec4e0f70d9b47e156ee518a19d2851bc6e32f156b8f54",
        "rewards.csv": "51861eadf8e0e680583c2a4f2ddc2cea921cd5974e247216ab0fbef729fd5cc4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "8b84d2fc25d5f81bf1eaa43b902449be495c3b10e7eaa2816142df4619deba73",
    },
    ("physical-tight-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "04a56c7bca54f808e42afb6053491ffbb27d10297889557e6f888e5859ff6f2b",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c763d46affc53d162887016d020ae29007d5cc198094febf2309aef3ce46d5dc",
    },
    ("physical-tight-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "262089fcf0dad88a7076c1ddf3f18ccead6fa9375d015cbd1fbda68f1e9ad21d",
        "verify.csv": "f96582a98eb637cb4ec1b4392b2993bea3fbba38dc5ded0d21a9c06f43e88e16",
    },
    ("physical-tight-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "137c9ddcf4d18b5c4c57a632e52e5e08aeb2afd7c66705637870a4cf0040d351",
        "ic_matrix.csv": "872900fb503fcbcf914427d6d9a9d4ab2ac831df29cb69bd16fd15683193814a",
        "profit.csv": "3b42ddb267fba93926d1c0a41dfa609de43a90107680020b89545ea246507aa6",
        "rewards.csv": "64810a77db9f85b2086e43c44f4fab6883834eedb1b0108c437be294ca31fdfd",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "3a73ffe1cf36d4c7f1e72816fd43d213175978de47368f29a22ccaf12bdafc68",
    },
    ("physical-tight-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "d199ee17b5b35f89fd046e2770362f0361f3bb9d923bf3df0c415f8f1050c3b8",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "dc55a138abf9f60505f5ae173726fd9552b5a324d0ad8ea77287e634ff13e711",
    },
    ("physical-tight-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "65b998df945b7a8da26c7dda5a2cd21c27c759f1ee113e969052298891fa890f",
        "verify.csv": "717661f9e6b41cd1196d05d4dc9fc456f558d64059018351c70611e28e807184",
    },
    ("ties-abs-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f9ca520f1fbcf101a699816bdc388b4fd7b85b3902319728c5eb0f1ba362b08f",
        "ic_matrix.csv": "c66ad38f5f153ca940869eead8171e2aa2eccf8b8b61f9b0bfad270a3f6bfd95",
        "profit.csv": "be678511fefb500b06044d0ea7685386450d7c28515b0ee48e807fa9c20a5f2f",
        "rewards.csv": "fe2d93d131c05217dea2b478eb2ae2697dcdebc9e28043c6f79766032c431952",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-abs-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "189957dcd9c03886083e7e985b3eda079a0e055bd011e90b6137cd47a38acc98",
        "calibration.csv": "3ca8a8438334d12b24243752683713a9fa994e822887bbd6e298a79665703944",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "26cf32df940e68ef4f07af574726602981415999504497fb1a2bd014ab87efef",
    },
    ("ties-abs-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "513a00becd375994fa205ef7cc3d54ef306cbfdca9abb8b0a91358c1170f2921",
        "verify.csv": "5d24df8ea4940f24dded3562a868dfcdc786b7466b5153318139e266396bdb08",
    },
    ("ties-abs-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "8c0118d0eabd87619f50bec9796d38f55629f260c3293d469e0a8c7bd32eb8a1",
        "ic_matrix.csv": "7216650e1396ee63c33121a890647fadf7a1c6ed514faa9e90e1726f8ee14e86",
        "profit.csv": "7ff1acb7ee99431cebf970ebdac3c8ad2afcf29d6671bded6bf2c7f5df1e681c",
        "rewards.csv": "93656e710207c5b1b257c8c21a3bb78d399c8edc6e19e3449ce245cda2ef47b3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-abs-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "fab364b8457a91849c1a0b3e286ba899e48a68c088f6186a959cec69c8fc33fa",
        "calibration.csv": "edcd5ec01888522a21c96207bc585ee4cef8648c46e9b86cbd5c7e9126228cd2",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "af1bd7e98742d56a633207e2e4e82d659dd0f25b0dc719106a2c735929dbd577",
    },
    ("ties-abs-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "f19eca214ed4586e76cacb6adc963d2692c6cf60ec2521a2a359dc3cbea99739",
        "verify.csv": "57f1d7bd3579384569b3db58e39d23f9811291b10dfdca7efe08259c04f24753",
    },
    ("ties-abs-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b0c61710a77550e4246532b16e7ffc2307f22b5c92e58444a0fffde700bb0227",
        "ic_matrix.csv": "6eed94d97a8745ce713c4fea4de839738136442d5be88ea866e9254b783597bb",
        "profit.csv": "15faa22456915e8d53cbe40e756fcac590f60812a2874384055d93521a35f171",
        "rewards.csv": "7ad74972ef7a06d9ce634428d9434aa062037d736b170cf077549186588c5635",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-abs-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "aed7f4d957e33eb3256b31cb1891dd451fe24e04161867d46c586cccde41093e",
        "calibration.csv": "21ff274ba1128ff5bb920bb8a5350bf354ba502a01e987d39e97352b8b55cc95",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "14f997a52b12152b695e6413d4a0cfbfdfded6aa0b9a24154c2e66d28fa4b974",
    },
    ("ties-abs-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "c223a8b03b1977faae64a79e48cd5983f73f30c626a926ea1e5812fb36aa0d16",
        "verify.csv": "2fa09658fdbffa00e671e7e13c0a7c60e27f1c37ee6487a688557782087b95b5",
    },
    ("ties-abs-3.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b87a0c4f3a1da7245b5077f6e9ad849e31b73376a4a30259577aeabf03ddd85f",
        "ic_matrix.csv": "03411e4de930ece2d4bf74e4a1029d9b47402f9c73d4a5a1d11326442214403c",
        "profit.csv": "c4809e69f9da651a52e484f411bf2d1ff6a01e582f8739992d87a743cb29cc06",
        "rewards.csv": "baf0c503fed868cffc3f5a26ab1f20d90712e1d887f0097ef601bdf7e5c61025",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-abs-3.scn", "match"): {
        "exit": 0,
        "assignment.csv": "2fdb22fafd5dcbb4b23a1291a7bb6c3f0b67f4174ed9760a4149c654f4e4d83f",
        "calibration.csv": "153f095ae435d335b04d00bcce72b141c7ba57d5d40b06690212e2c74d029a62",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "ce56d56c725b83793293f4a1282864f24ff7cd727cbf03e8af246d5638d5ae7a",
    },
    ("ties-abs-3.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "538a711a63db3ffef19e4f825914320630d404c3f315f14352167e080fecb1b2",
        "verify.csv": "98eaa40123e86ae71cf3ac4ab409444b022afc2ac5c77313de1d62a381a9daeb",
    },
    ("ties-abs-4.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f506c480db1ef39206c6c688ec1c45e004a79e560052625a4261e3d31e97de8e",
        "ic_matrix.csv": "aa3d3cf2581a378d80a607809648b93c1a65513a6b7cc3813d8a846c236630a1",
        "profit.csv": "4282d70024416472a5fff10e212739c07a1b4b413091ebce4fbf26e9caaf3972",
        "rewards.csv": "333dc3157629f566cd67e812a944f8efad4c0bf55e0658b671455ffb9b1c287d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-abs-4.scn", "match"): {
        "exit": 0,
        "assignment.csv": "68703597bedacdc770b0fa21bdd7c2aeed59d2736f5e7991793208661ffb77b4",
        "calibration.csv": "85c44667c713f33638732e90b8da6b26c80c10ebd30e4e5e782011a4978c3374",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "930321ecc32a15bb53a566146d7d91ce77fd2d2daa4dbb063da4e6849e214a02",
    },
    ("ties-abs-4.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "3c214019f8a7e16d1cadde5b131cb23b8b312dcde8965047e575256a68659891",
        "verify.csv": "1bf0dbce374ec14544ec7da3171e543b7fa3cc8d75206086a44aed3490f66cac",
    },
    ("ties-rel-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f9ca520f1fbcf101a699816bdc388b4fd7b85b3902319728c5eb0f1ba362b08f",
        "ic_matrix.csv": "c66ad38f5f153ca940869eead8171e2aa2eccf8b8b61f9b0bfad270a3f6bfd95",
        "profit.csv": "be678511fefb500b06044d0ea7685386450d7c28515b0ee48e807fa9c20a5f2f",
        "rewards.csv": "fe2d93d131c05217dea2b478eb2ae2697dcdebc9e28043c6f79766032c431952",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-rel-0.scn", "match"): {
        "exit": 3,
        "stderr": "bcaae0ab7fc0aaa893f5eda063a8b5fa0bcca6fd96858373e31610157f48dce4",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-0.scn", "verify"): {
        "exit": 3,
        "stderr": "bcaae0ab7fc0aaa893f5eda063a8b5fa0bcca6fd96858373e31610157f48dce4",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "8c0118d0eabd87619f50bec9796d38f55629f260c3293d469e0a8c7bd32eb8a1",
        "ic_matrix.csv": "7216650e1396ee63c33121a890647fadf7a1c6ed514faa9e90e1726f8ee14e86",
        "profit.csv": "7ff1acb7ee99431cebf970ebdac3c8ad2afcf29d6671bded6bf2c7f5df1e681c",
        "rewards.csv": "93656e710207c5b1b257c8c21a3bb78d399c8edc6e19e3449ce245cda2ef47b3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-rel-1.scn", "match"): {
        "exit": 3,
        "stderr": "d75aa06a340145d1264bc443b6665aede20f0a5fb22c86f0f2219946ac543fe7",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-1.scn", "verify"): {
        "exit": 3,
        "stderr": "d75aa06a340145d1264bc443b6665aede20f0a5fb22c86f0f2219946ac543fe7",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b0c61710a77550e4246532b16e7ffc2307f22b5c92e58444a0fffde700bb0227",
        "ic_matrix.csv": "6eed94d97a8745ce713c4fea4de839738136442d5be88ea866e9254b783597bb",
        "profit.csv": "15faa22456915e8d53cbe40e756fcac590f60812a2874384055d93521a35f171",
        "rewards.csv": "7ad74972ef7a06d9ce634428d9434aa062037d736b170cf077549186588c5635",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-rel-2.scn", "match"): {
        "exit": 3,
        "stderr": "59ede650dee2b4ddf0145570edca2797531b672a8169e75bf34b0c35c229bab9",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-2.scn", "verify"): {
        "exit": 3,
        "stderr": "59ede650dee2b4ddf0145570edca2797531b672a8169e75bf34b0c35c229bab9",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-3.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "b87a0c4f3a1da7245b5077f6e9ad849e31b73376a4a30259577aeabf03ddd85f",
        "ic_matrix.csv": "03411e4de930ece2d4bf74e4a1029d9b47402f9c73d4a5a1d11326442214403c",
        "profit.csv": "c4809e69f9da651a52e484f411bf2d1ff6a01e582f8739992d87a743cb29cc06",
        "rewards.csv": "baf0c503fed868cffc3f5a26ab1f20d90712e1d887f0097ef601bdf7e5c61025",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-rel-3.scn", "match"): {
        "exit": 3,
        "stderr": "2cab25e8d36c780fc664c8ad2291ed6a56474e329548552491469e44f038de62",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-3.scn", "verify"): {
        "exit": 3,
        "stderr": "2cab25e8d36c780fc664c8ad2291ed6a56474e329548552491469e44f038de62",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-4.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f506c480db1ef39206c6c688ec1c45e004a79e560052625a4261e3d31e97de8e",
        "ic_matrix.csv": "aa3d3cf2581a378d80a607809648b93c1a65513a6b7cc3813d8a846c236630a1",
        "profit.csv": "4282d70024416472a5fff10e212739c07a1b4b413091ebce4fbf26e9caaf3972",
        "rewards.csv": "333dc3157629f566cd67e812a944f8efad4c0bf55e0658b671455ffb9b1c287d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("ties-rel-4.scn", "match"): {
        "exit": 3,
        "stderr": "0608f128cb2028f878258d614743002b815a2b2e10c0392362a65fc4ffa30407",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("ties-rel-4.scn", "verify"): {
        "exit": 3,
        "stderr": "0608f128cb2028f878258d614743002b815a2b2e10c0392362a65fc4ffa30407",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("values-0.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "adc1fcec8e5be6290e853f23a82fdca7b4efaecba8cb053aeb300daea1cf936c",
        "ic_matrix.csv": "983390623ae5036e9703d89ac62174c17c03e2140155998bba9b6f1cbb4570a6",
        "profit.csv": "4ae10524184a9ac217284bcbbd6987d2bac2e6da9f27b711a3f470159c3f2f10",
        "rewards.csv": "4d07ef7bb111682ccc8d7318d1665b62dd0d522136d5f5f4ccc6b84eb9f26fb2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("values-0.scn", "match"): {
        "exit": 0,
        "assignment.csv": "15667630105780912ccf754e8eb63852dbd8bba24770eb18976d125e57eca446",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "d60f9312bfc621e84e1c7a3bf482fb739f82a9a7678143f5ef4e09da59349fac",
    },
    ("values-0.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "86c0176d2e8e924d3412003041b12cfd5fa5a5dfa012b820d9455cfaf4f9b409",
        "verify.csv": "05415ebf038c946e057e69b52601bb8dcb6b0b26be6cb74cae23667e5c931861",
    },
    ("values-1.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "1b94c8af07aef0f4eff19b3234847ae9b46ed48a904c45501311c94d7b20c314",
        "ic_matrix.csv": "70feaa17d24ca62fd014dae2510fa1f4124901f9c92a5a82e4990b6c0f612629",
        "profit.csv": "3cebe839a2fcfcc639502ab5a0cf48c2141d5d2bd4912b4ff1cf1bf3a61b3b53",
        "rewards.csv": "4f973d3e4c4897e5d3be7a138e72553d3c8ae1f914b2a69b6ef72374af2df6d6",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("values-1.scn", "match"): {
        "exit": 0,
        "assignment.csv": "2cf5961fd2f6715d5d6f2e235320fd0cfeaedd08a026f0b65c9d95c0625a782e",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "2639bafa232161623bd8d180804cf059ac3df445b13785c76c6acb8f27e378fb",
    },
    ("values-1.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "f49f73f83957bb8d0c9f8241c9a85f9d492d9db943b5047d3696c60db1de9e68",
        "verify.csv": "5ba853910c2ea023d299008d6de2a1b688daf36464d55f3518e7e6a2d3f46db7",
    },
    ("values-2.scn", "contract"): {
        "exit": 0,
        "coverage.csv": "f18d6f5c7aeca8995941327effeab4193909b74ef88c41ad1eb0cd18c7904781",
        "ic_matrix.csv": "8a32e15c2325cc0b784fadd10847cd399605d50b81db6cd9dcc0dbe2320c496f",
        "profit.csv": "f7ad0c9a64bfceb54c9351811ab5515f03099d3ed4222a2ebf21663e12796a5b",
        "rewards.csv": "4d38a4c3601194b78a6d2a64f2cc199d95c0bbd1d607967620ba23d40e8ffeaf",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "887ea5bb925225b314a1b486e51ecd234b41216f98a8bf40844386d22fe32877",
    },
    ("values-2.scn", "match"): {
        "exit": 0,
        "assignment.csv": "503ea0bf3e3e48aded235fe046a6f168e5ac5aa759140d3610d00e258eb6e06e",
        "calibration.csv": "20975255c1aa5df86c73f025bae8f27ba506868262fbda105598a4676d219214",
        "stability.csv": "6a6d49e97798abb3c8914556cb17b50cbbff71035e77bff155f472e1af861198",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "8b14d98715f40100183b3695ecdad346ace3f3dd43a4a13b558623d20a4a0555",
    },
    ("values-2.scn", "verify"): {
        "exit": 0,
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "77c3acd830df33ed328cedc99cb0a5270942248800b5c0ac434ffb440bc38e2a",
        "verify.csv": "3b62c920a4d1fd806898c3aac499b181f7af8175aa8739d8212f58bcbfb4c03f",
    },
}


def sha256(text_or_bytes) -> str:
    if isinstance(text_or_bytes, str):
        text_or_bytes = text_or_bytes.encode("utf-8")
    return hashlib.sha256(text_or_bytes).hexdigest()


def test_corpus_holds_exactly_the_pinned_scenarios():
    assert sorted(p.name for p in CORPUS.glob("*.scn")) == sorted({s for s, _ in DIGESTS})


@pytest.mark.parametrize("scenario,command", sorted(DIGESTS))
def test_corpus_outputs_match_golden_digests(scenario, command, tmp_path, capsys):
    code = main([command, "--scenario", str(CORPUS / scenario), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    produced = {"exit": code, "stdout": sha256(captured.out), "stderr": sha256(captured.err)}
    for path in tmp_path.iterdir():
        produced[path.name] = sha256(path.read_bytes())
    assert produced == DIGESTS[(scenario, command)]
