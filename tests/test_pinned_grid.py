"""Behaviour oracle for refactors: pinned hashes of rows and traces.

Every summary row and every trace of a small grid (both schemes, M in
{0, 1, 5, 15, 40}, seed 1, 1 s) is pinned by sha256 in four configurations:
the defaults, a 3 us tone detection delay, a 34 us one (equal to the URLLC
AIFS, so a heard tone edge shares its microsecond with a fast-path launch),
and non-default EDCA parameters for both classes.  Each point also runs
untraced, and its row must match the same pin: tracing only observes a
run.  A refactor of the MAC, the medium, the engine or the observers must
leave every hash unchanged.

Re-pin only for a deliberate physics change, and say so where the change
is recorded: a hash that moves otherwise means the refactor changed
behaviour.
"""

import hashlib
from dataclasses import replace

import pytest

from btwifi.config import ScenarioConfig
from btwifi.simulation import run_single
from btwifi.sweep import summary_row

BASE = ScenarioConfig(sim_duration=1_000_000, warmup=100_000)
CONFIGS = {
    "defaults": BASE,
    "detection_delay_3": replace(BASE, detection_delay=3),
    "detection_delay_34": replace(BASE, detection_delay=34),
    "edca": replace(
        BASE,
        regular=replace(BASE.regular, cw_min=31, retry_limit=5),
        urllc=replace(BASE.urllc, aifsn=3, cw_min=7, cw_max=31, data_airtime=150)),
}
POINTS = [(scheme, m) for scheme in ("legacy", "proposed") for m in (0, 1, 5, 15, 40)]

# (config, scheme, M) -> (sha256 of the summary row, sha256 of the trace)
PINS = {
    ('defaults', 'legacy', 0): (
        '5e28ab299c854e60d331c7f9b6852d8b968501a034e6bf6a02017dafb88d66c9',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('defaults', 'legacy', 1): (
        'd782b3ce73307e1b3f532bdc3119d260cdf78eaf5780db9c5f9c2f928817f4d6',
        'abcb0f585ee179256f9130e02e731e7744af16487106142eb7b778bb117a894c'),
    ('defaults', 'legacy', 5): (
        '03919b6d43422184276de3ccad96b09e5ccb395bdb96f909f602c59e3f5175e8',
        'b28f2cc8c2090d2a6ff27dfcda3803df26ff484984d2ee1c127c683c95b7183a'),
    ('defaults', 'legacy', 15): (
        '811d8d0c6cd9e68914931f1bd0880ef200d83dc83c4f7a128de4479d18c10fe8',
        'da53245c17d490468ff49e0dc82218804ce79ee391e734c417370735e6d9dd93'),
    ('defaults', 'legacy', 40): (
        '97cf750db28fbe3ed646b36f2697020cd6a1db41cb249325538412a714da2106',
        'be7aa9a21c66a501345e58dda1c3f2ed7ac977061408c9ea8c1447718b03cbf8'),
    ('defaults', 'proposed', 0): (
        '8242bb7aec3d711452ce2f621b514e4761838571f21d1a11286fc18196db99a6',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('defaults', 'proposed', 1): (
        '7016d1a13bd4d5b55c43768f6ace977af633709eccea6991e53d49568921e662',
        '3210d8bef1a69da8db751b52ebd8ba5f24d74dc66fc31ed44e9b9bc1de7fb12d'),
    ('defaults', 'proposed', 5): (
        '5320f2a61354fb641b5035eabb4477a6da7607aca0cff49b97a4b84ecd01603c',
        '58aa9d1291af99238bfa297b46341ee109bcdab38b9c76a5f8180e90a37d38aa'),
    ('defaults', 'proposed', 15): (
        '90708024c00e6f9c072cb361f7308be04e2aa89eee3617bf577eccef0920e42a',
        'c8f02f1ee5db03189e625a3eae155640eb606f6118d2f36d20f5905e22a1343e'),
    ('defaults', 'proposed', 40): (
        'f00c3caf4b218372c1388973fc0d1ef94f42f85a5ce975a96ab205894a2906ed',
        'ef96779143b5e84c11f1283445f0efec12749a4db68cec2d041e374d3181dd1a'),
    ('detection_delay_3', 'legacy', 0): (
        '5e28ab299c854e60d331c7f9b6852d8b968501a034e6bf6a02017dafb88d66c9',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('detection_delay_3', 'legacy', 1): (
        'd782b3ce73307e1b3f532bdc3119d260cdf78eaf5780db9c5f9c2f928817f4d6',
        'abcb0f585ee179256f9130e02e731e7744af16487106142eb7b778bb117a894c'),
    ('detection_delay_3', 'legacy', 5): (
        '03919b6d43422184276de3ccad96b09e5ccb395bdb96f909f602c59e3f5175e8',
        'b28f2cc8c2090d2a6ff27dfcda3803df26ff484984d2ee1c127c683c95b7183a'),
    ('detection_delay_3', 'legacy', 15): (
        '811d8d0c6cd9e68914931f1bd0880ef200d83dc83c4f7a128de4479d18c10fe8',
        'da53245c17d490468ff49e0dc82218804ce79ee391e734c417370735e6d9dd93'),
    ('detection_delay_3', 'legacy', 40): (
        '97cf750db28fbe3ed646b36f2697020cd6a1db41cb249325538412a714da2106',
        'be7aa9a21c66a501345e58dda1c3f2ed7ac977061408c9ea8c1447718b03cbf8'),
    ('detection_delay_3', 'proposed', 0): (
        '8242bb7aec3d711452ce2f621b514e4761838571f21d1a11286fc18196db99a6',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('detection_delay_3', 'proposed', 1): (
        '7016d1a13bd4d5b55c43768f6ace977af633709eccea6991e53d49568921e662',
        'fdde53f2b4ac58d65556d374388c9bf61366b38b5548d9a261736658a67630ff'),
    ('detection_delay_3', 'proposed', 5): (
        '33a7cab31324d2fea207fc2446660623b50842d9f84d37b726c44bc19aa84343',
        'c23e5913ccf6d15fd839554298b676960d1549a386a71a35899e72fb5e63ffbc'),
    ('detection_delay_3', 'proposed', 15): (
        '43dbb6b6ccca5b2858fdf68d9ab2a9587f2baef16f01378df75ef0aa748be732',
        '0993d3f74b47088d2cbe145e9148543bd32543de98cabce98560c4e62901a0c7'),
    ('detection_delay_3', 'proposed', 40): (
        'f00c3caf4b218372c1388973fc0d1ef94f42f85a5ce975a96ab205894a2906ed',
        'e8dac194dad35b8a51e6b887b0e5b8fd15bd77e2d53e081ce7158df23563d335'),
    ('detection_delay_34', 'legacy', 0): (
        '5e28ab299c854e60d331c7f9b6852d8b968501a034e6bf6a02017dafb88d66c9',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('detection_delay_34', 'legacy', 1): (
        'd782b3ce73307e1b3f532bdc3119d260cdf78eaf5780db9c5f9c2f928817f4d6',
        'abcb0f585ee179256f9130e02e731e7744af16487106142eb7b778bb117a894c'),
    ('detection_delay_34', 'legacy', 5): (
        '03919b6d43422184276de3ccad96b09e5ccb395bdb96f909f602c59e3f5175e8',
        'b28f2cc8c2090d2a6ff27dfcda3803df26ff484984d2ee1c127c683c95b7183a'),
    ('detection_delay_34', 'legacy', 15): (
        '811d8d0c6cd9e68914931f1bd0880ef200d83dc83c4f7a128de4479d18c10fe8',
        'da53245c17d490468ff49e0dc82218804ce79ee391e734c417370735e6d9dd93'),
    ('detection_delay_34', 'legacy', 40): (
        '97cf750db28fbe3ed646b36f2697020cd6a1db41cb249325538412a714da2106',
        'be7aa9a21c66a501345e58dda1c3f2ed7ac977061408c9ea8c1447718b03cbf8'),
    ('detection_delay_34', 'proposed', 0): (
        '8242bb7aec3d711452ce2f621b514e4761838571f21d1a11286fc18196db99a6',
        'a3f2566b6aa3818726301cfecd2cd89673e2341fe5f5bfb206a4051a313d167c'),
    ('detection_delay_34', 'proposed', 1): (
        'acce9956425563e7b9fcb55c3cfed273c38d17662c715b25d717c216d71efeed',
        '73a18d0baead2a9be11527afcccdd7f14ed73e04e5e86cd70fc090c144d6d83f'),
    ('detection_delay_34', 'proposed', 5): (
        '9fc453436bf509c49f19501e94c7d484a4e9f4494e64c26d004fc44f5b2a30f8',
        '24636556d271a3bd1e73cc26dea8f219f63e3294df45208984929eb9fd9c72bf'),
    ('detection_delay_34', 'proposed', 15): (
        'e19404ee6f855f5fabb9c2a6b7a10a44c5ff331ebd4311eaa4855cbfc3ef9386',
        '567d8794a88d8803ea1f94c2ac752aa338a4aa1f13dc96a21913d0042183da12'),
    ('detection_delay_34', 'proposed', 40): (
        '514a36136cd275789385eb7b606a370c55255a4f5090c22a4da1ab2ad329a4bf',
        '8269a7c065325fff6320cfd43abb602b39b73a43615eaede819f40678b3a87f4'),
    ('edca', 'legacy', 0): (
        '1c8144848463e5818569f7673a130de5883cedaa8c60c00d8388e0e7d83ab7a2',
        '46f5510fc6ad4185bb5a4406de78e169b04736ed4a0dd72477c306e612fd48e7'),
    ('edca', 'legacy', 1): (
        '58d2f7a8130e3c0a12b591e33717d52205c5e893b24fe9eeaf56d31dd856d084',
        '70e68bc841dc9c5b630fc81a64cfd7d5a4a508f12b1ea761e81049db8edbe3de'),
    ('edca', 'legacy', 5): (
        'e67b1a582b1e8ab95f6271ee1c624b0f3701ac087422bf1c17b44e392f4bf05c',
        'c10c26c704bb750cdb04ea5a8de2edc552e13deb5cae097cfbdf33ef80668183'),
    ('edca', 'legacy', 15): (
        '9d5a76ebf22f63cfcb24da63da7b982d1b2634ff3a40e1857bb62bcdca797cc7',
        'd5a4e42fb9c103c262f338424c30af7b79cf936141824ac64b2db0b31b586abd'),
    ('edca', 'legacy', 40): (
        'a912182d145822964dc9a5606935c8fb4861f5bb9b1bb625ea7b1f18f1f4dc2a',
        'b0feb3dfdf815a7c2c84409ca127e96ac5d1f9fe38d23c14b8bb6e735f3a1f66'),
    ('edca', 'proposed', 0): (
        '40762eafc7a82114a9f6d91a0de32c4bc21cbc0d804dc9382d58bf6a6f876a8d',
        '46f5510fc6ad4185bb5a4406de78e169b04736ed4a0dd72477c306e612fd48e7'),
    ('edca', 'proposed', 1): (
        'a31e3a55b01d45bf2962edf7ec8d75810ea56067bebe9439fbec885e5e76ec55',
        '9885646e55daf5d870e15dc9e1c09b55ad1f59f06c0769f0b35f27b2452f88b0'),
    ('edca', 'proposed', 5): (
        'dd3b385c85a87f07883d14f0718de67cb8b4c8a529638ed23f50c10fcf87cc7e',
        '815e9d838f6ff83fa87738b8817db50d13ba0cbcc3cea948c14149d8b0804f6a'),
    ('edca', 'proposed', 15): (
        '2d7a3e487e82ba42401e55d6d59c94855c32972957137602dca9f5418c50d608',
        '951cd8faab0813e32180f0a7fcf3e35d8006eb33d548e66e2d5e2fbb601c5d50'),
    ('edca', 'proposed', 40): (
        '0e2e30d1d9531dd134a27c0e9022383e120046683e5fef719e622b34a5f1ffc4',
        '47b9690d54f281fc8e93cfac61e635aa79e4c4b106b381e161efb3e950bda6d2'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_point(config: str, scheme: str, m: int) -> tuple[str, str]:
    res = run_single(CONFIGS[config].run_config(scheme, m, 1, trace=True))
    return _sha(summary_row(res.summary)), _sha("\n".join(res.trace_lines))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_rows_and_traces_match_their_pins(config):
    got = {(config, scheme, m): run_point(config, scheme, m) for scheme, m in POINTS}
    want = {key: pin for key, pin in PINS.items() if key[0] == config}
    assert got == want


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_untraced_rows_match_their_pins(config):
    got = {(config, scheme, m): _sha(summary_row(run_single(
        CONFIGS[config].run_config(scheme, m, 1, trace=False)).summary))
        for scheme, m in POINTS}
    want = {key: pin[0] for key, pin in PINS.items() if key[0] == config}
    assert got == want
