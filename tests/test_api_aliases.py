"""Keyword normalization: one spelling each for cadence (``period_s``),
power ceiling (``cap_w``) and determinism (``seed``); the retired
spellings are unknown keywords."""

import warnings

import pytest

from repro.capping import NodePowerCapper
from repro.hardware import ComputeNode
from repro.monitoring import CappingAgent, GatewayArray, GatewayDaemon, MqttBroker
from repro.scheduler import PowerAwareScheduler
from repro.sim import Environment
from repro.timesync import LocalClock, NtpClient, PtpSlave


def _env_node_broker():
    env = Environment()
    broker = MqttBroker(clock=lambda: env.now)
    return env, ComputeNode(node_id=0), broker


class TestGatewayAliases:
    def test_canonical_spelling_is_silent(self):
        env, node, broker = _env_node_broker()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GatewayDaemon(env, node, broker, period_s=0.1, seed=3)
            GatewayArray(env, [node], broker, period_s=0.1)


class TestCappingAliases:
    def test_capper_requires_cap(self):
        with pytest.raises(TypeError, match="cap_w"):
            NodePowerCapper(ComputeNode(node_id=0))


class TestTimesyncAliases:
    def test_unknown_kwarg_still_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            NtpClient(LocalClock(), pol_interval_s=32.0)


def _explore_problem():
    from repro.explore import Continuous, DesignSpace, Objective
    from repro.scheduler import CampaignConfig

    space = DesignSpace({"cap_w": Continuous(8_000.0, 16_000.0)})
    objective = Objective.minimize("total_energy_j")
    config = CampaignConfig(n_nodes=4, n_jobs=8, root_seed=3,
                            load_factor=1.1)
    return space, objective, config


class TestExploreAliases:
    def test_unknown_kwarg_rejected(self):
        from repro import explore
        space, objective, config = _explore_problem()
        with pytest.raises(TypeError, match="unexpected keyword"):
            explore(space, objective, budgget=2, config=config,
                    base={"policy": "easy"})

    def test_canonical_spellings_are_silent(self):
        from repro import explore
        space, objective, config = _explore_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trace = explore(space, objective, searcher="random", budget=2,
                            seed=0, config=config, base={"policy": "easy"})
        assert len(trace.steps) == 2


def _build(owner):
    """A constructor for ``owner`` taking only the keyword under test."""
    from repro import explore

    env, node, broker = _env_node_broker()
    space, objective, config = _explore_problem()
    return {
        "GatewayDaemon": lambda **kw: GatewayDaemon(env, node, broker, **kw),
        "GatewayArray": lambda **kw: GatewayArray(env, [node], broker, **kw),
        "CappingAgent": lambda **kw: CappingAgent(env, node, broker,
                                                  cap_w=1_500.0, **kw),
        "NodePowerCapper": lambda **kw: NodePowerCapper(node, cap_w=1_200.0,
                                                        **kw),
        "PowerAwareScheduler": lambda **kw: PowerAwareScheduler(40_000.0,
                                                                **kw),
        "NtpClient": lambda **kw: NtpClient(LocalClock(), **kw),
        "PtpSlave": lambda **kw: PtpSlave(LocalClock(), **kw),
        "explore": lambda **kw: explore(space, objective, config=config,
                                        base={"policy": "easy"}, **kw),
    }[owner]


#: (constructor, retired keyword, a value the old spelling accepted).
_RETIRED = [
    ("GatewayDaemon", "interval_s", 0.25),
    ("GatewayDaemon", "rng_seed", 7),
    ("GatewayArray", "interval_s", 0.25),
    ("GatewayArray", "rng_seed", 7),
    ("CappingAgent", "setpoint_w", 1_500.0),
    ("NodePowerCapper", "setpoint_w", 1_200.0),
    ("NodePowerCapper", "control_period_s", 0.2),
    ("PowerAwareScheduler", "power_budget_w", 40_000.0),
    ("NtpClient", "poll_interval_s", 32.0),
    ("PtpSlave", "sync_interval_s", 2.0),
    ("explore", "n_steps", 3),
    ("explore", "rng_seed", 5),
]


class TestRetiredSpellings:
    """The pre-``period_s``/``cap_w``/``seed`` spellings are gone: each
    one is now an unknown keyword, and the alias properties are gone."""

    @pytest.mark.parametrize("owner,old,value", _RETIRED,
                             ids=[f"{o}-{k}" for o, k, _ in _RETIRED])
    def test_old_keyword_is_unknown(self, owner, old, value):
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{old}'"):
            _build(owner)(**{old: value})

    @pytest.mark.parametrize("cls,name", [
        (CappingAgent, "setpoint_w"),
        (NodePowerCapper, "setpoint_w"),
        (NodePowerCapper, "control_period_s"),
        (PowerAwareScheduler, "power_budget_w"),
        (NtpClient, "poll_interval_s"),
        (PtpSlave, "sync_interval_s"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_alias_property_is_gone(self, cls, name):
        assert not hasattr(cls, name)


class TestRejectUnknownKwargs:
    """One shared error path for leftover kwargs — and, since the
    config runtime routes file diagnostics through it, the message must
    name *every* unknown spelling (sorted), not one arbitrary pick."""

    def test_single_unknown_keeps_the_classic_message(self):
        from repro.compat import reject_unknown_kwargs
        with pytest.raises(TypeError,
                           match="got an unexpected keyword argument 'zap'"):
            reject_unknown_kwargs("Thing", {"zap": 1})

    def test_all_unknowns_reported_in_sorted_order(self):
        """Regression: only ``next(iter(kwargs))`` — one arbitrary
        name — used to be reported when several were left over."""
        from repro.compat import reject_unknown_kwargs
        with pytest.raises(
            TypeError,
            match=r"unexpected keyword arguments 'alpha', 'beta', 'zeta'",
        ):
            reject_unknown_kwargs("Thing", {"zeta": 1, "alpha": 2, "beta": 3})

    def test_known_fields_named_when_provided(self):
        from repro.compat import reject_unknown_kwargs
        with pytest.raises(TypeError, match=r"\(known: bar, foo\)"):
            reject_unknown_kwargs("Section", {"baz": 1}, known=("foo", "bar"))

    def test_empty_kwargs_pass_silently(self):
        from repro.compat import reject_unknown_kwargs
        reject_unknown_kwargs("Thing", {}, known=("a",))


class TestTopLevelExploreSurface:
    def test_explore_names_reexported(self):
        import repro
        for name in ("DesignSpace", "Objective", "ExplorationTrace",
                     "ExplorationEnv", "Continuous", "Integer",
                     "Categorical", "explore"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_top_level_explore_is_the_callable(self):
        # ``from repro import explore`` hands out the entry point, while
        # the package stays importable through sys.modules.
        import importlib

        import repro
        assert callable(repro.explore)
        module = importlib.import_module("repro.explore")
        assert module.explore is repro.explore
