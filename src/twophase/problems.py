"""Benchmark presets RP1-RP6 and the flat key=value problem format.

RP1-RP4 carry the published state tables verbatim as golden fixtures.
Their exact solutions are rebuilt from the contact-left seed and the
recovered wave speeds (tools/derive_fixtures.py documents every
derived number).  RP5/RP6 publish only initial data and the wave
pattern; their construction parameters were recovered by shooting and
are frozen below.

RP5/RP6 do not state an equation of state; the presets default to the
RP1/RP2 ideal-gas pair (gamma1 = 1.4, gamma2 = 2, unit scales), which
is printed in run headers and overridable through a problem file.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .eos import BarotropicEos, EosPair
from .errors import ConfigError, InadmissibleWaveError, StateDecodeError
from .exact import build_solution, raref, shock, shock_in_raref
from .state import PrimitiveState

IDEAL_PAIR = EosPair(BarotropicEos(1.0, 1.4), BarotropicEos(1.0, 2.0))
# RP3/RP4 liquid-like phase 2; B2 is taken literally from the published
# parameter block.  Its sign is unobservable in these problems: alpha1
# is uniform, so B2 cancels from every pressure difference and only
# shifts the momentum flux by a constant.
STIFF_PAIR = EosPair(
    BarotropicEos(1e5, 1.4, 1.0, 0.0),
    BarotropicEos(8.5e8, 2.8, 1e3, 8.4999e8),
)


@dataclass(frozen=True)
class ExactSpec:
    contact_left: PrimitiveState
    alpha1_right: float
    left_waves: tuple
    right_waves: tuple


@dataclass(frozen=True)
class Problem:
    name: str
    description: str
    eos_pair: EosPair
    x_min: float
    x_max: float
    x0: float
    t_end: float
    cfl: float
    paper_cells: int
    desk_cells: int
    default_scheme: str
    left: PrimitiveState = None   # None: derived from the construction
    right: PrimitiveState = None
    exact_spec: ExactSpec = None
    notes: str = ""

    def build_exact(self):
        if self.exact_spec is None:
            raise ConfigError(f"problem {self.name} has no exact construction")
        return _build_cached(self)

    def riemann_data(self):
        if self.left is not None:
            return self.left, self.right
        sol = self.build_exact()
        return sol.left_state, sol.right_state


@lru_cache(maxsize=32)
def _build_cached(problem):
    es = problem.exact_spec
    return build_solution(
        es.contact_left,
        es.alpha1_right,
        list(es.left_waves),
        list(es.right_waves),
        problem.eos_pair,
    )


# ---------------------------------------------------------------------------
# golden tables (rows: alpha1, rho1, rho2, u1, u2), printed values verbatim
# ---------------------------------------------------------------------------

TABLE_RP1 = {
    "columns": ["U_L", "U*_L", "U**_L", "U**_R", "Ubar", "U*_R", "U_R"],
    "alpha1": [0.7, 0.7, 0.7, 0.3, 0.3, 0.3, 0.3],
    "rho1": [1.2449, 0.47883, 0.47883, 0.30577, 0.40186, 0.41275, 0.60312],
    "rho2": [1.2969, 1.2969, 1.1064, 0.894, 0.894, 0.73436, 0.73436],
    "u1": [-1.2638, -0.18865, -0.18865, -0.24825, 0.01399, 0.040001, 0.43059],
    "u2": [-0.38947, -0.38947, -0.14351, -0.15416, -0.15416, -0.40507, -0.40507],
}

TABLE_RP2 = {
    "columns": ["U_L", "U*_L", "U**_L", "U**_R", "U*_R", "U_R"],
    "alpha1": [0.5] * 6,
    "rho1": [2.9194, 2.9194, 2.0, 2.0, 0.43057, 0.42256],
    "rho2": [1.5773, 1.0, 1.0, 1.0, 1.2486, 0.58056],
    "u1": [-0.53404, -0.53404, 0.0, 0.0, -1.8225, -1.876],
    "u2": [-0.72386, 0.0, 0.0, 0.0, 0.09954, -0.93653],
}

TABLE_RP3 = {
    "columns": ["U_L", "U*_L", "U**_L", "U**_R", "U*_R", "U_R"],
    "alpha1": [0.9] * 6,
    "rho1": [789.79932, 160.0, 160.0, 160.0, 160.0, 789.79932],
    "rho2": [1270.0579, 1270.0579, 200.0, 200.0, 1270.0579, 1270.0579],
    "u1": [-1942.0873, 0.0, 0.0, 0.0, 0.0, 1942.0873],
    "u2": [-1722.9353, -1722.9354, 0.0, 0.0, 1722.9354, 1722.9354],
}

TABLE_RP4 = {
    "columns": ["U_L", "U*_L", "U**_L", "U**_R", "U*_R", "U_R"],
    "alpha1": [0.9] * 6,
    "rho1": [131.01705, 142.98406, 1079.0, 1079.0, 142.98406, 131.01705],
    "rho2": [1040.1358, 2983.4101, 2706.0, 2706.0, 2983.4101, 1040.1358],
    "u1": [3075.6226, 2677.4348, 0.0, 0.0, -2677.4348, -3075.6226],
    "u2": [3033.3793, -38.030561, 0.0, 0.0, 38.030561, -3033.3793],
}

GOLDEN_TABLES = {"RP1": TABLE_RP1, "RP2": TABLE_RP2, "RP3": TABLE_RP3, "RP4": TABLE_RP4}


def table_states(name):
    """Golden table as a list of (column name, PrimitiveState)."""
    tab = GOLDEN_TABLES[name]
    out = []
    for j, col in enumerate(tab["columns"]):
        out.append(
            (
                col,
                PrimitiveState(
                    tab["alpha1"][j], tab["rho1"][j], tab["rho2"][j],
                    tab["u1"][j], tab["u2"][j],
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# RP3 fan far-edge speeds recovered from the tabulated edge densities via
# the rarefaction invariants (tools/derive_fixtures.py); they round to
# the exact values frozen here.
_RP3_T1, _RP3_T2 = -3363.0, -3636.0

# RP5 seed recovered by shooting on the four fan invariants; the far
# edge speeds are the characteristic speeds of the initial data.
_RP5_SEED = PrimitiveState(
    0.7,
    0.33912326227718786,
    0.4034839396737241,
    0.030323325171220276,
    0.03179930647391599,
)
_RP5_T1 = 3.359158222975549   # 2 + a1(2)
_RP5_T2 = 2.414213562373095   # 1 + a2(1)

# RP6 parameters recovered by shooting (interior phase-1 shock hosted by
# the right phase-2 fan). 2.0 is lambda_{2+} of the right data, exact.
_RP6_SEED = PrimitiveState(
    0.7,
    1.8389784565550564,
    1.6053180228084014,
    0.10884036387016395,
    -0.7544832997368769,
)
_RP6_T1M = -1.3744941122836316
_RP6_S2M = -2.000907941508513
_RP6_T2P = 2.0
_RP6_S1P = 1.5157292580814836

PRESETS = {}


def _register(problem):
    PRESETS[problem.name] = problem
    return problem


_register(
    Problem(
        name="RP1",
        description="overlapping left rarefactions; right fan hosting an interior shock",
        eos_pair=IDEAL_PAIR,
        x_min=-1.0, x_max=1.0, x0=0.0, t_end=0.25, cfl=0.25,
        paper_cells=40000, desk_cells=2000,
        default_scheme="muscl-rusanov",
        exact_spec=ExactSpec(
            PrimitiveState(0.7, 0.47883, 1.1064, -0.18865, -0.14351),
            0.3,
            (raref("2-", -2.0), raref("1-", -2.5)),
            (shock_in_raref("1+", 1.5, 1.0),),
        ),
    )
)

_register(
    Problem(
        name="RP2",
        description="overlapping left rarefactions, zero-strength contact, two isolated right shocks",
        eos_pair=IDEAL_PAIR,
        x_min=-1.0, x_max=1.0, x0=0.0, t_end=0.25, cfl=0.25,
        paper_cells=40000, desk_cells=2000,
        default_scheme="muscl-rusanov",
        exact_spec=ExactSpec(
            PrimitiveState(0.5, 2.0, 1.0, 0.0, 0.0),
            0.5,
            (raref("1-", -2.0), raref("2-", -2.5)),
            (shock("1+", 0.5), shock("2+", 1.0)),
        ),
    )
)

_register(
    Problem(
        name="RP3",
        description="symmetric double rarefaction, phase-1 fans inside phase-2 fans",
        eos_pair=STIFF_PAIR,
        x_min=0.0, x_max=0.01, x0=0.005, t_end=1.1e-6, cfl=0.25,
        paper_cells=5000, desk_cells=2000,
        default_scheme="force-godunov",
        exact_spec=ExactSpec(
            PrimitiveState(0.9, 160.0, 200.0, 0.0, 0.0),
            0.9,
            (raref("2-", _RP3_T2), raref("1-", _RP3_T1)),
            (raref("2+", -_RP3_T2), raref("1+", -_RP3_T1)),
        ),
    )
)

_register(
    Problem(
        name="RP4",
        description="symmetric double shock, four isolated shocks",
        eos_pair=STIFF_PAIR,
        x_min=0.0, x_max=0.01, x0=0.005, t_end=2.2e-6, cfl=0.25,
        paper_cells=10000, desk_cells=2000,
        default_scheme="force-godunov",
        exact_spec=ExactSpec(
            PrimitiveState(0.9, 1079.0, 2706.0, 0.0, 0.0),
            0.9,
            (shock("1-", -409.0), shock("2-", -1682.0)),
            (shock("1+", 409.0), shock("2+", 1682.0)),
        ),
    )
)

_register(
    Problem(
        name="RP5",
        description="double expansion in both phases with a volume fraction jump",
        eos_pair=IDEAL_PAIR,
        x_min=-1.0, x_max=1.0, x0=0.0, t_end=0.1, cfl=0.25,
        paper_cells=10000, desk_cells=2000,
        default_scheme="muscl-rusanov",
        left=PrimitiveState(0.7, 2.0, 1.0, -2.0, -1.0),
        right=PrimitiveState(0.3, 2.0, 1.0, 2.0, 1.0),
        exact_spec=ExactSpec(
            _RP5_SEED,
            0.3,
            (raref("1-", -_RP5_T1), raref("2-", -_RP5_T2)),
            (raref("1+", _RP5_T1), raref("2+", _RP5_T2)),
        ),
        notes="no EOS published; ideal-gas pair (gamma 1.4/2) assumed",
    )
)

_register(
    Problem(
        name="RP6",
        description="rarefaction and shock in each phase; phase-1 shock inside the phase-2 fan",
        eos_pair=IDEAL_PAIR,
        x_min=-1.0, x_max=1.0, x0=0.0, t_end=0.25, cfl=0.25,
        paper_cells=10000, desk_cells=2000,
        default_scheme="muscl-rusanov",
        left=PrimitiveState(0.7, 2.0, 1.0, 0.0, 0.0),
        right=PrimitiveState(0.3, 1.0, 2.0, 0.0, 0.0),
        exact_spec=ExactSpec(
            _RP6_SEED,
            0.3,
            (raref("1-", _RP6_T1M), shock("2-", _RP6_S2M)),
            (shock_in_raref("2+", _RP6_T2P, _RP6_S1P),),
        ),
        notes="no EOS published; ideal-gas pair (gamma 1.4/2) assumed",
    )
)


def get_problem(name_or_path):
    """Resolve a preset name (RP1..RP6) or a problem file path."""
    key = str(name_or_path).upper()
    if key in PRESETS:
        return PRESETS[key]
    path = Path(name_or_path)
    if path.exists():
        return load_problem_file(path)
    raise ConfigError(
        f"unknown problem {name_or_path!r}: not a preset ({', '.join(PRESETS)}) "
        f"and not a file"
    )


# ---------------------------------------------------------------------------
# problem files: flat key = value lines, sections via dotted keys
# ---------------------------------------------------------------------------

def _parse_kv(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read problem file: {exc}") from None
    entries = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"{path}:{ln}: {key} given twice")
        entries[key] = value
    return entries


_REQUIRED = object()
_STATE_FIELDS = ("alpha1", "rho1", "rho2", "u1", "u2")
# every key a problem file may set; relaxation times are run options
# (--theta1/--theta2), not part of a problem
_KNOWN_KEYS = frozenset(
    [f"{ph}.{k}" for ph in ("phase1", "phase2") for k in ("A", "gamma", "rho_ref", "B")]
    + [f"{sec}.{k}" for sec in ("left", "right", "waves.seed") for k in _STATE_FIELDS]
    + [f"grid.{k}" for k in ("x_min", "x_max", "x0", "t_end", "cfl", "paper_cells", "cells",
                             "scheme")]
    + ["waves.alpha1_right", "waves.left", "waves.right"]
)


def _get(entries, key, default=_REQUIRED, cast=float):
    """entries[key] through `cast`; ConfigError names the key when it is
    missing (and has no default), does not parse, or is a nan or inf."""
    raw = entries.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key}")
        return default
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not a valid {cast.__name__}") from None
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{key} = {raw!r} is not a finite number")
    return value


def _eos_from(entries, section):
    try:
        return BarotropicEos(
            A=_get(entries, f"{section}.A"),
            gamma=_get(entries, f"{section}.gamma"),
            rho_ref=_get(entries, f"{section}.rho_ref", 1.0),
            B=_get(entries, f"{section}.B", 0.0),
        )
    except ArithmeticError:  # overflow or underflow to zero
        raise ConfigError(f"{section}.rho_ref**{section}.gamma is out of float range") from None


def _state_from(entries, section):
    keys = [f"{section}.{k}" for k in _STATE_FIELDS]
    if not any(k in entries for k in keys):
        return None
    values = [_get(entries, k) for k in keys]
    try:
        return PrimitiveState(*values)
    except StateDecodeError as exc:
        given = ", ".join(f"{k} = {v:g}" for k, v in zip(keys, values))
        raise ConfigError(f"{given}: {exc}") from exc


def _parse_wave(token, key):
    parts = token.strip().split(":")
    kind = parts[0]
    # through the getter, so a bad number names the wave-list key
    speeds = [_get({key: raw}, key) for raw in parts[2:]]
    try:
        if kind == "raref" and len(parts) == 3:
            return raref(parts[1], *speeds)
        if kind == "shock" and len(parts) == 3:
            return shock(parts[1], *speeds)
        if kind == "sir" and len(parts) == 4:
            return shock_in_raref(parts[1], *speeds)
    except InadmissibleWaveError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(
        f"bad wave token {token!r}; use raref:FAM:tail, shock:FAM:S or sir:FAM:tail:S"
    )


def _waves_from(entries, key):
    raw = entries.get(key, "").strip()
    if not raw:
        return ()
    return tuple(_parse_wave(tok, key) for tok in raw.split(",") if tok.strip())


def load_problem_file(path):
    entries = _parse_kv(path)
    unknown = sorted(set(entries) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {', '.join(unknown)}")
    eos_pair = EosPair(_eos_from(entries, "phase1"), _eos_from(entries, "phase2"))
    left = _state_from(entries, "left")
    right = _state_from(entries, "right")

    scheme = entries.get("grid.scheme", "muscl-rusanov")
    if scheme not in ("muscl-rusanov", "force-godunov"):
        # the scheme of the shtc model; --model bn always runs muscl-pathcons-bn
        raise ConfigError(f"grid.scheme = {scheme!r}: choose muscl-rusanov or force-godunov")
    x_min = _get(entries, "grid.x_min")
    x_max = _get(entries, "grid.x_max")
    exact_spec = None
    seed = _state_from(entries, "waves.seed")
    if seed is not None:
        exact_spec = ExactSpec(
            seed,
            _get(entries, "waves.alpha1_right", seed.alpha1),
            _waves_from(entries, "waves.left"),
            _waves_from(entries, "waves.right"),
        )
    else:
        orphans = sorted(k for k in entries if k.startswith("waves."))
        if orphans:
            raise ConfigError(f"{path}: {', '.join(orphans)} given without a waves.seed state")
    if left is None and exact_spec is None:
        raise ConfigError(f"{path}: need left./right. states or a waves. construction")
    if (left is None) != (right is None):
        raise ConfigError(f"{path}: left. and right. states come as a pair")
    return Problem(
        name=Path(path).stem,
        description=f"problem file {path}",
        eos_pair=eos_pair,
        x_min=x_min,
        x_max=x_max,
        x0=_get(entries, "grid.x0", 0.5 * (x_min + x_max)),
        t_end=_get(entries, "grid.t_end"),
        cfl=_get(entries, "grid.cfl", 0.25),
        paper_cells=_get(entries, "grid.paper_cells", 10000, cast=int),
        desk_cells=_get(entries, "grid.cells", 2000, cast=int),
        default_scheme=scheme,
        left=left,
        right=right,
        exact_spec=exact_spec,
    )
