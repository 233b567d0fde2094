"""Bit pins of the rate layer.

The values were recorded as ``float.hex`` with the rate bound as one
function per call, before it was split into per-state rows and a
per-threshold kernel.  The split keeps every element's operations in the
same order, so these must stay equal bit for bit; a reordered sum or a
changed guard shows here before it reaches the 12-digit goldens.

``STATES`` are physical states of ``perfbench/refs/analyze.json``: 14 within
1e-3 of the NPPT boundary, then 13 with a positive rate and 13 without.  Each
row is ``((lam, cx, cp), (best_x0, rate_lb, eps_ab, eve_overlap))``.

numpy picks its ``exp``, ``expm1`` and ``log2`` loops by CPU at run time.
The pins are the bits of its AVX-512 loops; on its AVX2 loops six states
round one ulp apart, and ``AVX2_PINS`` holds their bits there.
"""

import numpy as np
import pytest

from gausskey import security as sec
from gausskey.gaussian import SymmetricStateParams

# the targets numpy runs float64 exp, expm1 and log2 on; None where it cannot
# name them (opt_func_info came in numpy 2.0) or does not dispatch one of them
try:
    from numpy.lib.introspect import opt_func_info
    DISPATCH = tuple(opt_func_info(f"^{f}$", "float64")[f]["dd"]["current"] for f in ("exp", "expm1", "log2"))
except (ImportError, KeyError):
    DISPATCH = None

STATES = [
    (
        (1.1923271273536877, 0.3191073346145405, 0.046505782381381186),
        ('0x1.4f8b588e368f0p-18', '-0x1.36772e845b198p-32', '0x1.ffffffffe56a7p-2', '0x1.ffffffffcac30p-1'),
    ),
    (
        (2.8649914645796266, 2.0546187744864817, 1.6297657446143983),
        ('0x1.1f3bbe6d4f7d4p+2', '0x0.0p+0', '0x1.1180599ed7340p-60', '0x1.045366fae7f18p-60'),
    ),
    (
        (2.394330199182988, 1.5499640951340323, 1.2102832705261846),
        ('0x1.2e42cc41fbcf7p+2', '0x0.0p+0', '0x1.11805578e15f7p-60', '0x1.14dbbabc8494dp-60'),
    ),
    (
        (3.2075666777800946, 2.6832908271166676, 1.301928703793604),
        ('0x1.ba719b26328d2p+1', '0x0.0p+0', '0x1.11805a7bb50bfp-60', '0x1.1d36dd4796122p-60'),
    ),
    (
        (1.8402470996730154, 1.2924269010247615, 0.013474600643159987),
        ('0x1.db38cb3e54c59p+1', '0x0.0p+0', '0x1.11805d361b33fp-60', '0x1.07773aff61232p-60'),
    ),
    (
        (2.35718138307739, 1.7260039852410818, 0.7719803653715489),
        ('0x1.f7f0236a9d3c3p+1', '0x0.0p+0', '0x1.11806409fcb8ap-60', '0x1.0a4d99524149ep-60'),
    ),
    (
        (1.6383107095131646, 0.8373783122118936, 0.39069946067674277),
        ('0x1.3d4e439f07ca7p+2', '0x0.0p+0', '0x1.11805dca79c16p-60', '0x1.1e58ba6baf3bbp-60'),
    ),
    (
        (1.4835495921203146, 0.5238734343388727, 0.4417388022722559),
        ('0x1.4000000000000p+2', '-0x1.151d100000000p-33', '0x1.b407b019368fbp-40', '0x1.b8932c50f4a8fp-40'),
    ),
    (
        (1.7255180388526505, 1.1440634801571792, 0.005855107123071927),
        ('0x1.f20a6f2d0938dp+1', '0x0.0p+0', '0x1.11805d95c782dp-60', '0x1.12d87b1ce1446p-60'),
    ),
    (
        (2.070235970087573, 1.1052893351938693, 1.0334650381758022),
        ('0x1.3ffc260dfd15bp+2', '-0x1.a000000000000p-46', '0x1.f3eceae586dd3p-53', '0x1.e8f21a91f6939p-53'),
    ),
    (
        (2.2743997880235542, 1.5937519682495644, 0.8066689129901302),
        ('0x1.0907bc8554491p+2', '0x0.0p+0', '0x1.11804be80d4dap-60', '0x1.1f85c27b9e1d7p-60'),
    ),
    (
        (1.9159878299840363, 1.3382271396954075, 0.18688315835981076),
        ('0x1.e8d3a6d0e9c14p+1', '0x0.0p+0', '0x1.11804e8862abdp-60', '0x1.1f898a0482b06p-60'),
    ),
    (
        (2.6566856743571026, 1.8866307455177602, 1.3570537808044008),
        ('0x1.18ccba809006ap+2', '0x0.0p+0', '0x1.1180562d6f6b7p-60', '0x1.06efb03fc92e4p-60'),
    ),
    (
        (1.5403754340592961, 0.5954823891057468, 0.48206057550175474),
        ('0x1.3ffffeab31a97p+2', '-0x1.dad7000000000p-37', '0x1.593fbef5bcf16p-43', '0x1.595a2d98aa7d6p-43'),
    ),
    (
        (1.8670964301009847, 1.3790817291310806, 1.2420747027346433),
        ('0x1.5f5be41188d40p+0', '0x1.36b33ce498180p-5', '0x1.72d91780d50efp-10', '0x1.3639ddfa5804ap-2'),
    ),
    (
        (2.969336059900073, 2.593926211147019, 1.7915928337972358),
        ('0x1.1be3d0f764317p+1', '0x1.809ce80000000p-32', '0x1.aca893f772a4fp-36', '0x1.c8b773c77c20ap-15'),
    ),
    (
        (1.0164138087423416, 0.08820057018119114, 0.0702038615942733),
        ('0x1.20c8093308d10p+2', '0x1.677f06ca615c0p-7', '0x1.daf11fec7283ep-11', '0x1.8306883a5cffap-3'),
    ),
    (
        (2.117280491744399, 1.7202722826518875, 1.1395319530769006),
        ('0x1.9c339fad04b63p+0', '0x1.103cbd4e43000p-13', '0x1.13a09581c4498p-17', '0x1.8d92a2053532fp-6'),
    ),
    (
        (1.9571921334709903, 1.5328838740530422, 1.2668452935622647),
        ('0x1.451897250b12cp+0', '0x1.d5b2c3d0b1620p-6', '0x1.49b14c0385322p-10', '0x1.1663acd7b6c50p-2'),
    ),
    (
        (1.8470359667413832, 1.461663227617197, 1.3066840898285628),
        ('0x1.11a3979bf708ep+0', '0x1.7d534b9c4cbd8p-3', '0x1.59e227630d3dep-8', '0x1.2923876261c3dp-1'),
    ),
    (
        (1.6894585325449984, 1.0988487957895368, 0.9465061885228212),
        ('0x1.eebcdcfcc3539p+0', '0x1.ba1017f239800p-11', '0x1.8909bb85d2a62p-15', '0x1.d02a219d0ce55p-5'),
    ),
    (
        (2.566873824412231, 2.2705994843661115, 2.087870315864244),
        ('0x1.d85d856d1949bp-1', '0x1.e440a62ff3068p-3', '0x1.28756339b425ap-8', '0x1.4214e2c4d93d4p-1'),
    ),
    (
        (1.806774990127993, 1.1482103640780936, 0.9808288973136396),
        ('0x1.bb745598ba040p+1', '0x1.f3cc000000000p-38', '0x1.18957b3e879c6p-41', '0x1.1556329c79f65p-17'),
    ),
    (
        (2.1073919623808273, 1.459988007754839, 1.3791528190944036),
        ('0x1.3ad731e5a7370p+1', '0x1.d1346775c0000p-19', '0x1.e76fa66d0517dp-23', '0x1.2228ba4952fb7p-8'),
    ),
    (
        (1.1305379652983472, 0.439776578111482, 0.3823636525723242),
        ('0x1.c48f61d98a868p+0', '0x1.e72df1f2435d0p-4', '0x1.99e79fcf71a26p-8', '0x1.fe8685a487545p-2'),
    ),
    (
        (2.068968468306915, 1.743579117135488, 1.1480500267322842),
        ('0x1.1b15205bcfbacp+0', '0x1.97d06f51c1000p-7', '0x1.0ec77c80ade91p-10', '0x1.991506e35b03ap-3'),
    ),
    (
        (2.496837608767135, 2.1321929831838795, 2.128318055888068),
        ('0x1.0ddb92fbc7c14p+0', '0x1.5b7277282eadcp-2', '0x1.dbf127844ab37p-9', '0x1.6cd4450ea0cb8p-1'),
    ),
    (
        (2.0349878896102362, 1.3151901489280804, 0.8892279037632904),
        ('0x1.17e7e1677cd3ap+2', '0x1.0000000000000p-53', '0x1.bd3527ac78e71p-61', '0x1.2dffec2068f7ep-47'),
    ),
    (
        (3.4778092378894696, 0.38048718311251645, 0.1720880904940351),
        ('0x1.4f8b588e368f0p-18', '-0x1.8a10531d28ccfp-29', '0x1.fffffffffc7fdp-2', '0x1.fffffffeb1079p-1'),
    ),
    (
        (1.654503237238966, 0.10888660036435117, 0.014874449521256146),
        ('0x1.4f8b588e368f0p-18', '-0x1.0e9c4dbdaabb3p-30', '0x1.fffffffffb9b7p-2', '0x1.ffffffff8a12bp-1'),
    ),
    (
        (2.42384907156445, 0.9709304213998338, 0.8839266288086307),
        ('0x1.4f8b588e368f0p-18', '-0x1.e646743b6a7c5p-30', '0x1.ffffffffea5b3p-2', '0x1.ffffffff77127p-1'),
    ),
    (
        (2.560693857449347, 1.4186115951517029, 1.2376326762216618),
        ('0x1.3ffffeab31a97p+2', '-0x1.6b50000000000p-39', '0x1.f455636e59254p-46', '0x1.9ca7b265c657ap-78'),
    ),
    (
        (2.3616120908169225, 0.6913032905498145, 0.5909727845591031),
        ('0x1.4f8b588e368f0p-18', '-0x1.debcb97392ee5p-30', '0x1.fffffffff1181p-2', '0x1.ffffffff6154dp-1'),
    ),
    (
        (2.74576070424799, 1.3032826832017452, 1.0395285096722908),
        ('0x1.4f8b588e368f0p-18', '-0x1.1c76b63d5b78ep-29', '0x1.ffffffffe7773p-2', '0x1.ffffffff5f8d8p-1'),
    ),
    (
        (1.5620558872749404, 0.022478279652527165, 0.0016606267059966569),
        ('0x1.4f8b588e368f0p-18', '-0x1.de9a446d29149p-31', '0x1.fffffffffefcap-2', '0x1.ffffffff99d2bp-1'),
    ),
    (
        (2.199610925490938, 0.7590530804270371, 0.6782286988183863),
        ('0x1.4f8b588e368f0p-18', '-0x1.aa4623e6a89d7p-30', '0x1.ffffffffec6b2p-2', '0x1.ffffffff7de28p-1'),
    ),
    (
        (1.3136536107223906, 0.5376853531829147, 0.24624981320114586),
        ('0x1.3fd6c55e3c0c3p+2', '-0x1.c800000000000p-48', '0x1.0a4e36a480f76p-54', '0x1.00e00024f57fdp-38'),
    ),
    (
        (2.195496801241389, 1.0400344960253425, 0.5172968428901819),
        ('0x1.4000000000000p+2', '-0x1.2ef3a00000000p-34', '0x1.d25572a803649p-41', '0x1.2deb969f9c0d8p-99'),
    ),
    (
        (2.649422783511811, 0.9540479985513625, 0.26868830451887643),
        ('0x1.4f8b588e368f0p-18', '-0x1.15fa39f4070a2p-29', '0x1.ffffffffeed45p-2', '0x1.ffffffff18bf8p-1'),
    ),
    (
        (3.2867245949800106, 1.553624237266924, 0.4701385590324012),
        ('0x1.4f8b588e368f0p-18', '-0x1.674bcbf3e4457p-29', '0x1.ffffffffeba31p-2', '0x1.fffffffee1075p-1'),
    ),
]
AVX2_PINS = {
    0: ('0x1.4f8b588e368f0p-18', '-0x1.36772e845b198p-32', '0x1.ffffffffe56a7p-2', '0x1.ffffffffcac31p-1'),
    16: ('0x1.20c8093308d10p+2', '0x1.677f06ca615c0p-7', '0x1.daf11fec7283ep-11', '0x1.8306883a5cffbp-3'),
    25: ('0x1.1b15205bcfbacp+0', '0x1.97d06f51c1000p-7', '0x1.0ec77c80ade92p-10', '0x1.991506e35b03ap-3'),
    29: ('0x1.4f8b588e368f0p-18', '-0x1.0e9c4dbdaabb3p-30', '0x1.fffffffffb9b8p-2', '0x1.ffffffff8a12bp-1'),
    30: ('0x1.4f8b588e368f0p-18', '-0x1.e646743b6a7c6p-30', '0x1.ffffffffea5b3p-2', '0x1.ffffffff77127p-1'),
    34: ('0x1.4f8b588e368f0p-18', '-0x1.de9a446d2914ap-31', '0x1.fffffffffefcbp-2', '0x1.ffffffff99d2bp-1'),
}
# the pins that differ from STATES on the loops numpy dispatches to here, by
# index into STATES: AVX2_PINS where it runs exp on AVX2 and expm1, log2 on
# its baseline
PINS = AVX2_PINS if DISPATCH == ("X86_V3", "baseline(X86_V2)", "baseline(X86_V2)") else {}
EDGE = [
    (
        (1.0, 0.0, 0.0),
        5.0,
        ('0x1.4f8b588e368f0p-18', '0x0.0p+0', '0x1.0000000000000p-1', '0x1.0000000000000p+0'),
    ),
    (
        (1.7, 0.0, 0.0),
        1e+200,
        ('0x1.b297d81f71431p-16', '-0x1.a3e4debe4a45cp-26', '0x1.0000000000000p-1', '0x1.fffffff32f0ebp-1'),
    ),
    (
        (1.5, 1.0, 1.0),
        1e+200,
        ('0x1.4974a36f12026p+0', '0x1.5c318de230cfap-2', '0x1.458d3b439ce2fp-8', '0x1.6fa1eabf183e5p-1'),
    ),
]
ARRAY = [
    ['-0x1.24606964d3540p-3', '-0x1.de60628202583p-18', '-0x1.fbb8c9f8c86e6p-3'],
    ['0x1.afaeb3e77f1d0p-3', '0x1.12b8bf11f8000p-15', '0x0.0p+0'],
]


def _report_hex(p, x0_max=5.0):
    rep = sec.build_report(p, x0_max)
    assert sec.optimize_rate(p, x0_max) == (rep.best_x0, rep.rate_lb)
    return tuple(v.hex() for v in (rep.best_x0, rep.rate_lb, rep.eps_ab, rep.eve_overlap))


@pytest.mark.parametrize("state, want", STATES)
def test_report_bits_on_recorded_states(state, want):
    assert _report_hex(SymmetricStateParams(*state)) == PINS.get(STATES.index((state, want)), want)


@pytest.mark.parametrize("state, x0_max, want", EDGE)
def test_report_bits_on_edge_states(state, x0_max, want):
    # the vacuum, an uncorrelated state and the reference state, the last two
    # searched up to x0 = 1e200
    assert _report_hex(SymmetricStateParams(*state), x0_max) == want


def test_rate_array_bits():
    x0s = np.array([[-0.7, 1e-3, 0.5], [1.0, 5.0, 1e200]])
    rates = sec.rate_lower_bound(SymmetricStateParams(1.5, 1.0, 1.0), x0s)
    assert [[v.hex() for v in row] for row in rates.tolist()] == ARRAY
