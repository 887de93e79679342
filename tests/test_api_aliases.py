"""Keyword normalization: canonical ``period_s``/``cap_w``/``seed``
spellings, with the old names kept one release behind DeprecationWarning."""

import warnings

import numpy as np
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
    def test_daemon_interval_s_warns(self):
        env, node, broker = _env_node_broker()
        with pytest.warns(DeprecationWarning, match="interval_s.*deprecated.*period_s"):
            daemon = GatewayDaemon(env, node, broker, interval_s=0.25)
        assert daemon.period_s == 0.25

    def test_daemon_rng_seed_warns(self):
        env, node, broker = _env_node_broker()
        with pytest.warns(DeprecationWarning, match="rng_seed.*deprecated.*seed"):
            daemon = GatewayDaemon(env, node, broker, rng_seed=7)
        reference = np.random.default_rng(7)
        assert daemon.rng.normal() == reference.normal()

    def test_daemon_both_spellings_is_an_error(self):
        env, node, broker = _env_node_broker()
        with pytest.raises(TypeError, match="both"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                GatewayDaemon(env, node, broker, period_s=0.1, interval_s=0.2)

    def test_array_interval_s_warns(self):
        env, node, broker = _env_node_broker()
        with pytest.warns(DeprecationWarning, match="interval_s"):
            array = GatewayArray(env, [node], broker, interval_s=0.25)
        assert array.period_s == 0.25

    def test_canonical_spelling_is_silent(self):
        env, node, broker = _env_node_broker()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            GatewayDaemon(env, node, broker, period_s=0.1, seed=3)
            GatewayArray(env, [node], broker, period_s=0.1)


class TestCappingAliases:
    def test_agent_setpoint_w_warns(self):
        env, node, broker = _env_node_broker()
        with pytest.warns(DeprecationWarning, match="setpoint_w.*deprecated.*cap_w"):
            agent = CappingAgent(env, node, broker, setpoint_w=1_500.0)
        assert agent.cap_w == 1_500.0
        assert agent.setpoint_w == 1_500.0  # property read stays silent

    def test_capper_setpoint_and_control_period_warn(self):
        node = ComputeNode(node_id=0)
        with pytest.warns(DeprecationWarning, match="setpoint_w"):
            with pytest.warns(DeprecationWarning, match="control_period_s"):
                capper = NodePowerCapper(node, setpoint_w=1_200.0, control_period_s=0.2)
        assert capper.cap_w == 1_200.0 and capper.period_s == 0.2
        assert capper.setpoint_w == 1_200.0
        assert capper.control_period_s == 0.2

    def test_capper_requires_cap(self):
        with pytest.raises(TypeError, match="cap_w"):
            NodePowerCapper(ComputeNode(node_id=0))


class TestSchedulerAliases:
    def test_power_aware_power_budget_w_warns(self):
        with pytest.warns(DeprecationWarning, match="power_budget_w.*deprecated.*cap_w"):
            sched = PowerAwareScheduler(power_budget_w=40_000.0)
        assert sched.cap_w == 40_000.0
        assert sched.power_budget_w == 40_000.0

    def test_power_aware_budget_property_setter(self):
        sched = PowerAwareScheduler(cap_w=40_000.0)
        sched.power_budget_w = 35_000.0
        assert sched.cap_w == 35_000.0


class TestTimesyncAliases:
    def test_ntp_poll_interval_s_warns(self):
        with pytest.warns(DeprecationWarning, match="poll_interval_s.*deprecated.*period_s"):
            ntp = NtpClient(LocalClock(), poll_interval_s=32.0)
        assert ntp.period_s == 32.0
        assert ntp.poll_interval_s == 32.0

    def test_ptp_sync_interval_s_warns(self):
        with pytest.warns(DeprecationWarning, match="sync_interval_s.*deprecated.*period_s"):
            ptp = PtpSlave(LocalClock(), sync_interval_s=2.0)
        assert ptp.period_s == 2.0
        assert ptp.sync_interval_s == 2.0

    def test_unknown_kwarg_still_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            NtpClient(LocalClock(), pol_interval_s=32.0)


class TestExploreAliases:
    """``explore()`` keeps the legacy ``n_steps``/``rng_seed`` spellings
    one release behind a DeprecationWarning, like every other facade."""

    @staticmethod
    def _problem():
        from repro.explore import Continuous, DesignSpace, Objective
        from repro.scheduler import CampaignConfig

        space = DesignSpace({"cap_w": Continuous(8_000.0, 16_000.0)})
        objective = Objective.minimize("total_energy_j")
        config = CampaignConfig(n_nodes=4, n_jobs=8, root_seed=3,
                                load_factor=1.1)
        return space, objective, config

    def test_n_steps_warns_and_maps_to_budget(self):
        from repro import explore
        space, objective, config = self._problem()
        with pytest.warns(DeprecationWarning, match="n_steps.*deprecated.*budget"):
            trace = explore(space, objective, searcher="random",
                            n_steps=3, seed=1, config=config,
                            base={"policy": "easy"})
        assert trace.budget == 3 and len(trace.steps) == 3

    def test_rng_seed_warns_and_maps_to_seed(self):
        from repro import explore
        space, objective, config = self._problem()
        with pytest.warns(DeprecationWarning, match="rng_seed.*deprecated.*seed"):
            trace = explore(space, objective, searcher="random",
                            budget=2, rng_seed=5, config=config,
                            base={"policy": "easy"})
        assert trace.seed == 5

    def test_both_spellings_is_an_error(self):
        from repro import explore
        space, objective, config = self._problem()
        with pytest.raises(TypeError, match="both"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                explore(space, objective, budget=2, n_steps=3, config=config,
                        base={"policy": "easy"})

    def test_unknown_kwarg_rejected(self):
        from repro import explore
        space, objective, config = self._problem()
        with pytest.raises(TypeError, match="unexpected keyword"):
            explore(space, objective, budgget=2, config=config,
                    base={"policy": "easy"})

    def test_canonical_spellings_are_silent(self):
        from repro import explore
        space, objective, config = self._problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trace = explore(space, objective, searcher="random", budget=2,
                            seed=0, config=config, base={"policy": "easy"})
        assert len(trace.steps) == 2


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

    def test_explore_reports_every_unknown_kwarg(self):
        """The facades inherit the all-names behaviour for free."""
        from repro import explore
        space, objective, config = TestExploreAliases._problem()
        with pytest.raises(TypeError, match=r"'budgget', 'seeed'"):
            explore(space, objective, budgget=2, seeed=1, config=config,
                    base={"policy": "easy"})


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
