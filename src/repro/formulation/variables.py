"""Global variable registry for the multi-phase OPF LP (7).

Every scalar decision variable is identified by a hashable *key*::

    ("pg", gen, phase)   ("qg", gen, phase)        generation (2a)
    ("w",  bus, phase)                             squared voltage (2b)
    ("pb", load, phase)  ("qb", load, phase)       bus withdrawals
    ("pd", load, phase)  ("qd", load, phase)       load consumption (4)
    ("pf", line, phase)  ("qf", line, phase)       from->to flow (2c)-(2d)
    ("pt", line, phase)  ("qt", line, phase)       to->from flow

For delta loads the ``phase`` of ``pd``/``qd`` keys is the *branch id* while
``pb``/``qb`` keys use bus phases, mirroring the paper's indexing.

:class:`VariableIndex` assigns consecutive column indices, carries bounds and
objective coefficients, and produces the paper's initial point rule: zero for
unbounded variables, the bound midpoint for bounded ones, and one for squared
voltage magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.policy import HOST_DTYPE

VarKey = tuple  # (kind, owner name, phase/branch id)

#: Variable kinds in the order of the global vector x in (7).  ``le`` is the
#: squared branch-current variable of the SOCP branch-flow extension;
#: ``sc``/``sd``/``se`` are the charge/discharge/state-of-charge variables of
#: the multi-period storage extension; ``ct``/``cu``/``cs`` are the CVaR
#: epigraph variables (VaR level, per-scenario excess, equality slack) of
#: the two-stage stochastic extension.
VAR_KINDS = (
    "pg", "qg", "w", "pb", "qb", "pd", "qd", "pf", "qf", "pt", "qt",
    "le", "sc", "sd", "se", "ct", "cu", "cs",
)


@dataclass
class VariableIndex:
    """Ordered registry of global LP variables with bounds and costs."""

    _index: dict[VarKey, int] = field(default_factory=dict)
    _keys: list[VarKey] = field(default_factory=list)
    _lb: list[float] = field(default_factory=list)
    _ub: list[float] = field(default_factory=list)
    _cost: list[float] = field(default_factory=list)
    _is_voltage: list[bool] = field(default_factory=list)
    _init: list[float | None] = field(default_factory=list)

    def add(
        self,
        key: VarKey,
        lb: float = -np.inf,
        ub: float = np.inf,
        cost: float = 0.0,
        is_voltage: bool = False,
        init: float | None = None,
    ) -> int:
        """Register ``key`` and return its column index.

        Raises
        ------
        ValueError
            If the key is already registered or the bounds are inverted.
        """
        if key in self._index:
            raise ValueError(f"duplicate variable {key}")
        if key[0] not in VAR_KINDS:
            raise ValueError(f"unknown variable kind {key[0]!r}")
        if lb > ub:
            raise ValueError(f"variable {key}: lb {lb} > ub {ub}")
        idx = len(self._keys)
        self._index[key] = idx
        self._keys.append(key)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._cost.append(float(cost))
        self._is_voltage.append(bool(is_voltage))
        self._init.append(None if init is None else float(init))
        return idx

    def index(self, key: VarKey) -> int:
        try:
            return self._index[key]
        except KeyError as exc:
            raise KeyError(f"unknown variable {key}") from exc

    def __contains__(self, key: VarKey) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def n(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> list[VarKey]:
        return list(self._keys)

    def key_of(self, idx: int) -> VarKey:
        return self._keys[idx]

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "VariableIndex":
        """A copy of this index with the bounds ``lb`` / ``ub``."""
        return VariableIndex(
            dict(self._index),
            list(self._keys),
            lb.tolist(),
            ub.tolist(),
            list(self._cost),
            list(self._is_voltage),
            list(self._init),
        )

    def lower_bounds(self) -> np.ndarray:
        return np.asarray(self._lb, dtype=HOST_DTYPE)

    def upper_bounds(self) -> np.ndarray:
        return np.asarray(self._ub, dtype=HOST_DTYPE)

    def costs(self) -> np.ndarray:
        return np.asarray(self._cost, dtype=HOST_DTYPE)

    def voltage_mask(self) -> np.ndarray:
        return np.asarray(self._is_voltage, dtype=bool)

    def initial_point(self) -> np.ndarray:
        """Paper's initialization (Section V-A): voltage -> 1, bounded ->
        bound midpoint, otherwise 0; per-variable ``init`` overrides win."""
        lb = self.lower_bounds()
        ub = self.upper_bounds()
        x0 = np.zeros(self.n)
        bounded = np.isfinite(lb) & np.isfinite(ub)
        x0[bounded] = 0.5 * (lb[bounded] + ub[bounded])
        x0[self.voltage_mask()] = 1.0
        for i, val in enumerate(self._init):
            if val is not None:
                x0[i] = val
        return x0

    def indices_of_kind(self, kind: str) -> np.ndarray:
        """Column indices of all variables of the given kind."""
        if kind not in VAR_KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        return np.array(
            [i for i, k in enumerate(self._keys) if k[0] == kind], dtype=int
        )
