"""Golden report digests: the canonical report bytes of fixed campaigns.

``scripts/report_digests.py`` prints the sha256 of the report bytes of eleven
campaigns and four single chunks.  Twelve of the lines have been identical since
the batched chunk draw.  ``violation_search_cap_crosses_chunks`` was added
later; its digest was taken before the serial campaign started capping each
chunk at the fixture room left.  ``replay_fixtures`` digests the replay of the
560 fixtures of the violation_search campaign and the four chunks; it was
taken before g^{-1} became a ``CheckStack`` field.  ``dense_directions_4x4``
(skyrme at 4x4, 256 directions per sample) was taken before the boosted
directions were assembled one component row at a time.  ``replay_verdicts``
digests the full verdict of each of those replays (both statuses, every
witness float as ``float.hex``, the causal classes, the tensor norm and
scale); it was taken before replay reused a view across fixtures and before
``DECWitness`` copied its arrays.  ``violation_search_blocks``
(linear_combination [1, -0.02, 0] at 3x3, 1,024 directions, 512 samples,
2,000 fixtures from samples 8 to 128) was taken before ``engine.run_chunk``
ran the direction checks in row blocks; its fixtures span about nine blocks.
A change that alters any report or replay byte fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = """\
96f21c41970d01098421d338a8efb97f6899beb97367435c81feece85a5a0f43  example_campaign
bcf479dc8d58e2b17c82f221be6d8d5aa42682ef9597b9dc1a5888965393bc6e  criterion_8
36df4df9acea42ef2d00f423577160e0c12f73a7b322be3f724690b06557f3e8  born_infeld_b0.5_range1.5
88f06e64b4565163c0b3dbbc9e006c53157b145c2195e2b96b015d57721917e2  minimal_surface_3x2
86dde31fa21bbefc4ee3790b3a38e5f5b657c5324c2cbf5816347f5e7ba1361a  rank_override_0
ef23e22fe2fecfdb23f2101b415647d06cbdb89f1bfe43f37c25f6d8615475ce  rank_override_2
bad43a0eab7af8333d1fc324e6bd51df4caf1009fff861b5ea862bc543276580  violation_search
7ef1a5d28ace8f14e4239aa59cf0a5263806bd86088d1e3cc702eddac90e430f  m_plus_1_is_1
0a531fe1f21322016d4cb0376cb4d5e5e205b16e0aed290d8d34bd7126e95331  violation_search_cap_crosses_chunks
573b8a228fb0296d772b5a09f018de2bb8fb1b4f652e11f0478ea965b2d04ea0  dense_directions_4x4
8f59957da10495d34b0f11df429c75598338b384f39b0239bcf5e99665b4d1a1  violation_search_blocks
751d04cf79e804d40e2167592b5e0af9351453ce44d68ec526e3dd29f5eef851  chunk_negative_tolerances
93953d1a0a786e35070be0ef6a099971d251c391f88c23589a2f239a8256d841  chunk_huge_dec_tolerance
fff8601be4fe57fb9bfd228e4080b8088c216302c6d2b183f9bb5c774b1381d5  chunk_zero_algebraic_tolerance
6c3ac0e63f81c6941785b2dbf1d7e9b7193d3cab53e68c53ef335777eb3f1437  chunk_sign_flipped
7ae3ad8f9942e3e13956bb72a2bd29c38b718f9113104722d98df12ab6ae7c7e  replay_fixtures
a90be89faae761ba47584ef8b2a4bebd5406d22b54b087a5809a498e948caa43  replay_verdicts
"""


def test_report_digests_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digests.py")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert result.stdout == GOLDEN
