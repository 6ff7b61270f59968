"""Request/response records of the scenario-serving engine.

An :class:`OPFRequest` names a feeder and a set of *per-scenario
perturbations* — load multipliers, DER setpoints, generator limit
overrides — plus solve options.  Perturbations deliberately exclude
topology changes (line switching), so every request on the same feeder
shares one :meth:`~OPFRequest.topology_key`: the engine builds the
partition, row reduction and projection factorizations once per key and
serves all matching requests from that plan.

:class:`OPFResponse` is the per-request outcome with one of the statuses

* ``converged`` — ADMM met the relative criterion (16) within budget, or
  the active-set polish of its iterate was certified optimal
  (``certified``; docs/ALGORITHMS.md §11),
* ``iteration_limit`` — the per-request budget ran out first,
* ``rejected`` — the engine's bounded queue was full (backpressure) or the
  topology's circuit breaker is open,
* ``timeout`` — the request's ``deadline_s`` expired (in queue or mid-solve),
* ``error`` — the scenario could not be built or solved.

A response may additionally be ``degraded``: its batch solve diverged and
the engine fell back to the centralized reference LP (exact, unbatched)
after retries ran out — see docs/RESILIENCE.md.

Both records round-trip through plain dicts (``to_dict``/``from_dict``)
so scenario files are ordinary JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

#: Methods of the fidelity ladder (docs/METHODS.md).  Kept as a plain
#: tuple here so requests stay importable without :mod:`repro.methods`.
METHODS = ("linearized", "qp", "socp")

STATUS_CONVERGED = "converged"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_REJECTED = "rejected"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


def _require_finite(field_name: str, value) -> None:
    """Reject NaN and infinite perturbations where requests enter: a NaN
    load poisons the whole stacked batch, an infinite one the LP."""
    if not math.isfinite(value):
        raise ValueError(f"{field_name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SolveOptions:
    """Per-request ADMM settings (paper defaults, Section V-A).

    ``deadline_s`` is a submit-to-response latency budget: the engine
    times out the request (status ``timeout``) if it is still waiting or
    solving when the budget expires.  ``None`` (the default) disables it.

    ``polish`` lets a linearized request stop at the first certified
    active-set polish (tried at iterations 1, 2, 4, 8, ...) with the exact
    polished answer; ``False`` keeps the paper's stopping rule (16).  The
    qp and socp rungs ignore it.
    """

    rho: float = 100.0
    eps_rel: float = 1e-3
    max_iter: int = 20_000
    deadline_s: float | None = None
    polish: bool = True

    def __post_init__(self) -> None:
        _require_finite("rho", self.rho)
        _require_finite("eps_rel", self.eps_rel)
        if self.deadline_s is not None:
            _require_finite("deadline_s", self.deadline_s)
        if self.rho <= 0 or self.eps_rel <= 0:
            raise ValueError("rho and eps_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")

    def solve_signature(self) -> tuple:
        """The solve-relevant settings, for scenario cache identity.

        ``deadline_s`` is deliberately excluded: it is a latency budget
        on *this submission*, not a property of the mathematical
        scenario — two requests differing only in deadline must hit the
        same cache entry.  ``polish`` enters only when it is off, so every
        digest of a default request is unchanged.
        """
        signature = (self.rho, self.eps_rel, self.max_iter)
        return signature if self.polish else signature + ("no-polish",)


@dataclass
class OPFRequest:
    """One OPF scenario query.

    Parameters
    ----------
    request_id:
        Caller-chosen identifier, echoed on the response.
    feeder:
        Feeder reference (builtin name, ``.json`` file, or CSV directory) —
        resolved once per topology key by the engine.
    load_scale:
        Uniform multiplier on every load's reference consumption.
    load_multipliers:
        Per-load multipliers (load name -> factor), applied on top of
        ``load_scale``.
    der_setpoints:
        Generator name -> fixed active-power setpoint (pu, per phase): the
        generator's ``p`` bounds collapse to the setpoint (a dispatched DER).
    gen_limits:
        Generator name -> ``(p_min, p_max)`` overrides (pu, per phase);
        either entry may be ``None`` to keep the base value.
    options:
        ADMM solve options.
    method:
        Fidelity-ladder rung this request runs on (``linearized``, ``qp``
        or ``socp`` — see docs/METHODS.md).

    Every perturbation value must be finite; a NaN or infinite one raises
    a ``ValueError`` naming its field.  The method is part of the
        plan and warm-start cache identity: a linearized warm start must
        never seed a conic solve.
    """

    request_id: str  # repro-lint: non-keying=caller-chosen echo token, never affects the solve
    feeder: str = "ieee13"
    load_scale: float = 1.0
    load_multipliers: dict[str, float] = field(default_factory=dict)
    der_setpoints: dict[str, float] = field(default_factory=dict)
    gen_limits: dict[str, tuple[float | None, float | None]] = field(default_factory=dict)
    options: SolveOptions = field(default_factory=SolveOptions)
    method: str = "linearized"

    def __post_init__(self) -> None:
        _require_finite("load_scale", self.load_scale)
        for field_name in ("load_multipliers", "der_setpoints"):
            for name, value in getattr(self, field_name).items():
                _require_finite(f"{field_name}[{name!r}]", value)
        for name, limits in self.gen_limits.items():
            for value in limits:
                if value is not None:
                    _require_finite(f"gen_limits[{name!r}]", value)
        if self.load_scale < 0:
            raise ValueError("load_scale must be nonnegative")
        if any(m < 0 for m in self.load_multipliers.values()):
            raise ValueError("load multipliers must be nonnegative")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r} (choose from {METHODS})"
            )

    def topology_key(self) -> str:
        """Deterministic key of the (network, method) plan this runs on.

        Requests with equal keys share the plan's precomputed partition,
        row reduction and projection factorizations.  The feeder reference
        and the method enter the key — the scenario perturbations never
        change the constraint-graph topology, but each method builds a
        different decomposition of it.  The default ``linearized`` method
        is keyed exactly as before the ladder existed, so historical
        routing/cache digests (and the pinned golden fleet assignments)
        are unchanged.
        """
        tag = f"feeder:{self.feeder}"
        if self.method != "linearized":
            tag += f"|method:{self.method}"
        return hashlib.sha256(tag.encode()).hexdigest()[:16]

    def scenario_key(self) -> str:
        """Deterministic key of the *full* perturbation (cache identity)."""
        payload_dict = {
            "feeder": self.feeder,
            "load_scale": self.load_scale,
            "load_multipliers": sorted(self.load_multipliers.items()),
            "der_setpoints": sorted(self.der_setpoints.items()),
            "gen_limits": sorted(
                (k, tuple(v)) for k, v in self.gen_limits.items()
            ),
        }
        # Same back-compat rule as topology_key(): the default method
        # hashes identically to the pre-ladder payload.
        if self.method != "linearized":
            payload_dict["method"] = self.method
        # Non-default solve settings change what "the answer" is
        # (tolerance, penalty, budget), so they are cache identity too —
        # keyed only when they differ from the default, which keeps every
        # historical digest stable.
        if self.options.solve_signature() != SolveOptions().solve_signature():
            payload_dict["options"] = list(self.options.solve_signature())
        payload = json.dumps(payload_dict, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gen_limits"] = {k: list(v) for k, v in self.gen_limits.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "OPFRequest":
        d = dict(d)
        opts = d.pop("options", None) or {}
        if isinstance(opts, SolveOptions):
            options = opts
        else:
            options = SolveOptions(**opts)
        gen_limits = {
            k: (v[0], v[1]) for k, v in (d.pop("gen_limits", None) or {}).items()
        }
        return cls(options=options, gen_limits=gen_limits, **d)


@dataclass
class OPFResponse:
    """Per-request outcome of one served scenario.

    ``certified`` marks an answer whose optimality was proven by the
    active-set polish, with ``gap`` its relative certified gap;
    ``primal_violation`` (``||A x - b||_inf`` or the worst bound
    violation, whichever is larger) is reported for every answer that has
    an LP.
    """

    request_id: str
    status: str
    objective: float | None = None
    iterations: int = 0
    pres: float = float("inf")
    dres: float = float("inf")
    warm_started: bool = False
    warm_distance: float | None = None
    solve_seconds: float = 0.0
    latency_seconds: float = 0.0
    error: str | None = None
    degraded: bool = False
    attempts: int = 1
    certified: bool = False
    gap: float | None = None
    primal_violation: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_CONVERGED

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StochasticRequest:
    """One two-stage stochastic evaluation query.

    The request names a feeder, a seeded uncertainty model and a
    first-stage DER commitment (``der_setpoints``); the engine *expands*
    it into ``n_scenarios`` ordinary :class:`OPFRequest` children — one
    per scenario draw, all sharing the commitment — stacks them into one
    ADMM batch (the scenario batch *is* the ADMM batch) and aggregates
    the per-scenario recourse objectives into expected cost and
    CVaR-``alpha``.  Expansion is deterministic in ``seed``: the same
    request always produces bit-identical scenario perturbations (see
    :mod:`repro.stochastic.sampler`).

    First-stage *optimization* (choosing the setpoints) is the library /
    CLI path (:func:`repro.stochastic.solve_two_stage`); serving
    evaluates a given commitment under uncertainty at scale.
    """

    request_id: str  # repro-lint: non-keying=caller-chosen echo token, never affects the solve
    feeder: str = "ieee13-der"
    n_scenarios: int = 16
    seed: int = 0
    load_sigma: float = 0.10
    pv_sigma: float = 0.15
    alpha: float = 0.95
    antithetic: bool = True
    load_scale: float = 1.0
    der_setpoints: dict[str, float] = field(default_factory=dict)
    options: SolveOptions = field(default_factory=lambda: SolveOptions(rho=10.0))

    def __post_init__(self) -> None:
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.load_sigma < 0 or self.pv_sigma < 0:
            raise ValueError("sigmas must be nonnegative")
        if self.load_scale < 0:
            raise ValueError("load_scale must be nonnegative")

    def topology_key(self) -> str:
        """Same keying rule as :meth:`OPFRequest.topology_key`: scenario
        draws perturb parameters only, so the request (and every child it
        expands to) shares the feeder's cached plan."""
        digest = hashlib.sha256(f"feeder:{self.feeder}".encode()).hexdigest()
        return digest[:16]

    def scenario_key(self) -> str:
        payload_dict = {
            "feeder": self.feeder,
            "n_scenarios": self.n_scenarios,
            "seed": self.seed,
            "load_sigma": self.load_sigma,
            "pv_sigma": self.pv_sigma,
            "alpha": self.alpha,
            "antithetic": self.antithetic,
            "load_scale": self.load_scale,
            "der_setpoints": sorted(self.der_setpoints.items()),
        }
        # Keyed only when non-default (digest back-compat; see
        # OPFRequest.scenario_key).  This class's default rho is 10.0.
        default_sig = SolveOptions(rho=10.0).solve_signature()
        if self.options.solve_signature() != default_sig:
            payload_dict["options"] = list(self.options.solve_signature())
        payload = json.dumps(payload_dict, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def expand(self, net) -> list[OPFRequest]:
        """Draw the scenario set and materialize one child per scenario.

        ``net`` is the engine's resolved base network for this feeder
        (needed for the load/PV unit names and the PV base ratings the
        availability factors scale).  Children carry the scenario's load
        multipliers and PV ``p_max`` overrides; the first-stage
        ``der_setpoints`` are copied onto every child unchanged — the
        shared commitment is the non-anticipativity constraint.
        """
        # Lazy import: repro.stochastic must stay importable without the
        # serving stack (and vice versa).
        from repro.stochastic.sampler import ScenarioSampler, UncertaintyModel

        sampler = ScenarioSampler.from_network(
            net,
            model=UncertaintyModel(
                load_sigma=self.load_sigma, pv_sigma=self.pv_sigma
            ),
            seed=self.seed,
            antithetic=self.antithetic,
        )
        scn = sampler.sample(self.n_scenarios)
        children = []
        for k in range(scn.n_scenarios):
            gen_limits = {}
            for name, avail in scn.pv_availability_dict(k).items():
                base = float(net.generators[name].p_max[0])
                gen_limits[name] = (None, base * float(avail))
            children.append(
                OPFRequest(
                    request_id=f"{self.request_id}/s{k}",
                    feeder=self.feeder,
                    load_scale=self.load_scale,
                    load_multipliers=scn.load_multiplier_dict(k),
                    der_setpoints=dict(self.der_setpoints),
                    gen_limits=gen_limits,
                    options=self.options,
                )
            )
        return children

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StochasticRequest":
        d = dict(d)
        opts = d.pop("options", None) or {}
        options = opts if isinstance(opts, SolveOptions) else SolveOptions(**opts)
        return cls(options=options, **d)


@dataclass
class StochasticResponse(OPFResponse):
    """Aggregated outcome of one served stochastic request.

    ``objective`` carries the risk objective the caller asked for via
    ``alpha`` — both ``expected_cost`` and ``cvar_cost`` are always
    reported.  Statuses aggregate conservatively: ``converged`` only if
    every scenario child converged, otherwise the worst child status;
    ``certified`` only if every child is certified, with ``gap`` and
    ``primal_violation`` the children's maxima (``None`` if any child has
    none).
    """

    n_scenarios: int = 0
    alpha: float = 0.95
    scenario_objectives: list = field(default_factory=list)
    expected_cost: float | None = None
    cvar_cost: float | None = None

    _STATUS_RANK = (
        STATUS_CONVERGED,
        STATUS_ITERATION_LIMIT,
        STATUS_TIMEOUT,
        STATUS_REJECTED,
        STATUS_ERROR,
    )

    @classmethod
    def aggregate(
        cls,
        request: StochasticRequest,
        children: list[OPFResponse],
    ) -> "StochasticResponse":
        """Fold the per-scenario responses into one risk-aware response."""
        from repro.stochastic.model import sample_cvar  # lazy, see expand()

        rank = {s: i for i, s in enumerate(cls._STATUS_RANK)}
        status = max(
            (c.status for c in children), key=lambda s: rank.get(s, len(rank))
        )
        objectives = [c.objective for c in children]
        expected = cvar = None
        if all(o is not None for o in objectives) and objectives:
            weights = [1.0 / len(objectives)] * len(objectives)
            expected = float(
                sum(w * o for w, o in zip(weights, objectives))
            )
            cvar = float(sample_cvar(objectives, weights, request.alpha))
        errors = sorted({c.error for c in children if c.error})

        def worst(values):
            return None if None in values or not values else max(values)

        return cls(
            request_id=request.request_id,
            status=status,
            objective=cvar,
            iterations=max((c.iterations for c in children), default=0),
            pres=max((c.pres for c in children), default=float("inf")),
            dres=max((c.dres for c in children), default=float("inf")),
            warm_started=any(c.warm_started for c in children),
            solve_seconds=max((c.solve_seconds for c in children), default=0.0),
            latency_seconds=max(
                (c.latency_seconds for c in children), default=0.0
            ),
            error="; ".join(errors) or None,
            degraded=any(c.degraded for c in children),
            attempts=max((c.attempts for c in children), default=1),
            certified=bool(children) and all(c.certified for c in children),
            gap=worst([c.gap for c in children]),
            primal_violation=worst([c.primal_violation for c in children]),
            n_scenarios=len(children),
            alpha=request.alpha,
            scenario_objectives=objectives,
            expected_cost=expected,
            cvar_cost=cvar,
        )


@dataclass
class MultiPeriodRequest:
    """One rolling-horizon DER-scheduling query.

    Carries the load/price profiles and the storage fleet; the engine
    runs :func:`repro.multiperiod.rolling_horizon` over them with the
    request's ADMM options.  Storages are plain dicts of
    :class:`repro.multiperiod.Storage` fields so requests stay
    JSON-serializable.
    """

    request_id: str  # repro-lint: non-keying=caller-chosen echo token, never affects the solve
    feeder: str = "ieee13"
    load_profile: list = field(default_factory=list)
    price_profile: list | None = None
    storages: list = field(default_factory=list)
    window: int = 4
    dt_hours: float = 1.0
    options: SolveOptions = field(default_factory=lambda: SolveOptions(rho=10.0))

    def __post_init__(self) -> None:
        if not self.load_profile:
            raise ValueError("load_profile must be non-empty")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.dt_hours <= 0:
            raise ValueError("dt_hours must be positive")

    def topology_key(self) -> str:
        """Unlike plain OPF, the time-expanded constraint graph depends on
        the window width and the storage fleet, so they enter the key."""
        payload = json.dumps(
            {
                "feeder": self.feeder,
                "window": self.window,
                "storages": sorted(
                    (d.get("name", ""), d.get("bus", "")) for d in self.storages
                ),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def scenario_key(self) -> str:
        payload_dict = {
            "feeder": self.feeder,
            "load_profile": list(self.load_profile),
            "price_profile": (
                list(self.price_profile)
                if self.price_profile is not None
                else None
            ),
            "storages": sorted(
                json.dumps(d, sort_keys=True) for d in self.storages
            ),
            "window": self.window,
            "dt_hours": self.dt_hours,
        }
        # Keyed only when non-default (digest back-compat; see
        # OPFRequest.scenario_key).  This class's default rho is 10.0.
        default_sig = SolveOptions(rho=10.0).solve_signature()
        if self.options.solve_signature() != default_sig:
            payload_dict["options"] = list(self.options.solve_signature())
        payload = json.dumps(payload_dict, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def build_storages(self) -> list:
        from repro.multiperiod.model import Storage  # lazy, see expand()

        return [Storage(**d) for d in self.storages]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MultiPeriodRequest":
        d = dict(d)
        opts = d.pop("options", None) or {}
        options = opts if isinstance(opts, SolveOptions) else SolveOptions(**opts)
        return cls(options=options, **d)


@dataclass
class MultiPeriodResponse(OPFResponse):
    """Outcome of one rolling-horizon schedule: the committed cost plus
    the per-storage SoC trajectories (initial value included)."""

    n_periods: int = 0
    committed_cost: float | None = None
    soc_trajectories: dict = field(default_factory=dict)


def load_requests_json(path) -> list[OPFRequest]:
    """Read a scenario file: a JSON list of request dicts (or an object
    with a ``"scenarios"`` list)."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "scenarios" not in data:
            raise ValueError(
                f"scenario file {path!r} has no 'scenarios' list "
                f"(top-level keys: {sorted(data)})"
            )
        data = data["scenarios"]
    try:
        return [OPFRequest.from_dict(d) for d in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed scenario in {path!r}: {exc}") from exc


def save_requests_json(requests: list[OPFRequest], path) -> None:
    with open(path, "w") as fh:
        json.dump({"scenarios": [r.to_dict() for r in requests]}, fh, indent=1)
