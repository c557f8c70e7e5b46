"""``Scenario.supervise`` — the one reconnect supervisor every
robustness harness runs (sim/scenario.py) — on stub clients and SHBs."""

from types import SimpleNamespace

from repro.sim.scenario import Scenario


def _shb(name, down=False):
    return SimpleNamespace(name=name, node=SimpleNamespace(is_down=down))


class _Sub:
    def __init__(self, sub_id, refusal=None, machine_down=False):
        self.sub_id = sub_id
        self.connected = False
        self.node = SimpleNamespace(is_down=machine_down)
        self.last_refusal = refusal
        self.dialled = []

    def connect(self, shb):
        self.dialled.append(shb.name)


def _scenario(shbs, subs, home):
    scn = Scenario(sim=None, overlay=SimpleNamespace(shbs=shbs))
    scn.subscribers.extend(subs)
    scn.home.update({sub.sub_id: home for sub in subs})
    return scn


def test_refused_subscriber_follows_the_redirect():
    old, new = _shb("shb1"), _shb("shb2")
    sub = _Sub("s1", refusal=("migrated", "shb2"))
    scn = _scenario([old, new], [sub], home=old)
    scn.supervise()
    assert scn.home["s1"] is new
    assert sub.dialled == ["shb2"]
    assert sub.last_refusal is None


def test_refusal_without_a_redirect_redials_the_same_home():
    home = _shb("shb1")
    sub = _Sub("s1", refusal=("recovering", None))
    scn = _scenario([home], [sub], home=home)
    scn.supervise()
    assert sub.dialled == ["shb1"] and sub.last_refusal is None


def test_napping_subscriber_is_left_alone():
    home = _shb("shb1")
    sub = _Sub("s1", refusal=("migrated", "shb1"))
    scn = _scenario([home], [sub], home=home)
    scn.napping.add("s1")
    scn.supervise()
    assert sub.dialled == [] and sub.last_refusal is not None


def test_down_home_and_down_machine_are_not_dialled():
    up, down = _shb("shb1"), _shb("shb2", down=True)
    stranded = _Sub("s1")
    crashed = _Sub("s2", machine_down=True)
    scn = _scenario([up, down], [stranded], home=down)
    scn.subscribers.append(crashed)
    scn.home["s2"] = up
    scn.supervise()
    assert stranded.dialled == [] and crashed.dialled == []


def test_connected_subscriber_is_not_redialled():
    home = _shb("shb1")
    sub = _Sub("s1")
    sub.connected = True
    scn = _scenario([home], [sub], home=home)
    scn.supervise()
    assert sub.dialled == []
