"""Contact-centered inverse construction of exact Riemann solutions.

A solution is declared by the state left of the contact, the volume
fraction right of it, and per side an inner-to-outer list of wave
specs.  The contact determines the right center state; each spec then
connects the next constant state outward.  Minus families live left of
the contact, plus families right.  Rarefactions of different phases
may overlap (the system decouples into two barotropic Euler systems at
constant alpha1, so each phase is sampled from its own fan); a shock
of one phase may sit inside the other phase's fan, where the host fan
characteristic coincides with the shock speed on the inner side, the
jump produces a plateau, and the fan resumes from the post state.

Sampling is per phase: every phase sees its own ordered, non
overlapping sequence of fans and jumps; alpha1 switches once, at the
contact.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, InadmissibleWaveError, TwoPhaseError
from .state import PrimitiveState, eigenvalues, mixture_props
from .waves import (
    WaveFamily,
    _fan_state,
    classify_discontinuity,
    contact_connect,
    contact_residuals,
    entropy_production,
    family_from_key,
    lax_check,
    rarefaction_connect,
    rarefaction_sample,
    rhc_residuals,
    shock_connect,
)

RAREFACTION = "rarefaction"
SHOCK = "shock"
SHOCK_IN_RAREFACTION = "shock-in-rarefaction"
CONTACT_KIND = "contact"
INTERIOR_SHOCK = "interior-shock"

SPEED_SEP_TOL = 1e-9
RESIDUAL_TOL = 1e-8
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class WaveSpec:
    """One prescribed wave, ordered outward from the contact.

    kind "rarefaction": `speed` is the far-edge (outer) characteristic
    speed.  kind "shock": `speed` is the shock speed.  kind
    "shock-in-rarefaction": `speed` is the host fan's far-edge speed
    and `shock_speed` the speed of the interior shock, which belongs
    to the other phase of the same direction.
    """

    family: WaveFamily
    kind: str
    speed: float
    shock_speed: float = None

    def label(self):
        if self.kind == SHOCK_IN_RAREFACTION:
            return f"{self.kind}({self.family}, tail={self.speed}, S={self.shock_speed})"
        return f"{self.kind}({self.family}, {self.speed})"


def raref(family_key, tail_speed):
    return WaveSpec(family_from_key(family_key), RAREFACTION, float(tail_speed))


def shock(family_key, speed):
    return WaveSpec(family_from_key(family_key), SHOCK, float(speed))


def shock_in_raref(host_family_key, tail_speed, interior_speed):
    return WaveSpec(
        family_from_key(host_family_key), SHOCK_IN_RAREFACTION, float(tail_speed),
        float(interior_speed),
    )


@dataclass(frozen=True)
class WaveElement:
    """One x-ordered piece of the solution: a fan segment, a shock, the
    contact, or an interior shock.  `left`/`right` bound the piece in x;
    a discontinuity has xi_head == xi_tail."""

    family: WaveFamily
    kind: str
    xi_head: float
    xi_tail: float
    left: PrimitiveState
    right: PrimitiveState

    @property
    def is_discontinuity(self):
        return self.kind in (SHOCK, CONTACT_KIND, INTERIOR_SHOCK)

    @property
    def speed(self):
        return self.xi_head

    def label(self):
        if self.is_discontinuity:
            return f"{self.kind}({self.family}, S={self.xi_head:.6g})"
        return f"{self.kind}({self.family}, [{self.xi_head:.6g}, {self.xi_tail:.6g}])"


@dataclass(frozen=True)
class _Fan:
    lo: float
    hi: float
    family: WaveFamily
    edge: tuple  # (rho, u) of this phase at either edge; carries the invariant


@dataclass(frozen=True)
class _Jump:
    xi: float
    right_value: tuple  # (rho, u) of this phase just right of the jump


class _PhaseTrack:
    """Ordered fans and jumps seen by one phase."""

    def __init__(self, phase):
        self.phase = phase
        self.events = []

    def _values(self, state):
        if self.phase == 1:
            return (state.rho1, state.u1)
        return (state.rho2, state.u2)

    def add_fan(self, lo, hi, family, anchor):
        self.events.append(_Fan(float(lo), float(hi), family, self._values(anchor)))

    def add_jump(self, xi, right_state):
        self.events.append(_Jump(float(xi), self._values(right_state)))

    def finalize(self, outer_left_state):
        self.events.sort(key=lambda e: (e.lo, e.hi) if isinstance(e, _Fan) else (e.xi, e.xi))
        self._left_value = self._values(outer_left_state)

    def sample(self, xi, eos_pair):
        """(rho, u) of this phase at every point of the array xi.

        Each event overwrites the points at or right of its start, so
        the last event started wins and every jump is right-continuous.
        A fan is evaluated at min(xi, hi): points past it take its far
        edge value.
        """
        rho = np.full(xi.shape, self._left_value[0])
        u = np.full(xi.shape, self._left_value[1])
        for ev in self.events:
            if isinstance(ev, _Fan):
                at = xi >= ev.lo
                rho[at], u[at] = _fan_state(
                    ev.family, ev.family.eos_of(eos_pair), *ev.edge, np.minimum(xi[at], ev.hi)
                )
            else:
                at = xi >= ev.xi
                rho[at], u[at] = ev.right_value
        return rho, u


@dataclass
class ExactSolution:
    """Self-similar solution assembled by the inverse construction.

    Immutable after construction; sampling is pure.  `elements` are
    x-ordered and include the contact.  The constant states between
    waves are reachable through element bounds; `left_state` and
    `right_state` are the Riemann data the construction implies.

    Sampling is right-continuous: at the speed of a discontinuity
    (shock, interior shock or contact) both phases and alpha1 take the
    state right of it, `el.right`.
    """

    eos_pair: object
    contact_speed: float
    contact_left: PrimitiveState
    contact_right: PrimitiveState
    elements: list
    left_state: PrimitiveState
    right_state: PrimitiveState
    _tracks: dict = field(repr=False, default=None)

    def sample(self, xi):
        return PrimitiveState.from_array(self.sample_many([xi])[0])

    def sample_many(self, xis):
        """Rows (alpha1, rho1, rho2, u1, u2), one per point of xis."""
        xi = np.asarray(xis, dtype=float)
        rho1, u1 = self._tracks[1].sample(xi, self.eos_pair)
        rho2, u2 = self._tracks[2].sample(xi, self.eos_pair)
        alpha1 = np.where(
            xi < self.contact_speed, self.contact_left.alpha1, self.contact_right.alpha1
        )
        return np.column_stack([alpha1, rho1, rho2, u1, u2])

    def wave_speeds(self):
        """All breakpoints (heads, tails, discontinuity speeds), sorted."""
        speeds = set()
        for el in self.elements:
            speeds.add(el.xi_head)
            speeds.add(el.xi_tail)
        return sorted(speeds)

    def eigen_curves(self, xis):
        """Five eigenvalues sampled along xi, columns 1-,2-,C,1+,2+."""
        alpha1, rho1, rho2, u1, u2 = self.sample_many(xis).T
        alpha2 = 1.0 - alpha1
        rho = alpha1 * rho1 + alpha2 * rho2
        u = alpha1 * rho1 / rho * u1 + alpha2 * rho2 / rho * u2  # as PrimitiveState.u
        a1 = self.eos_pair.phase1.sound_speed(rho1)
        a2 = self.eos_pair.phase2.sound_speed(rho2)
        return np.column_stack([u1 - a1, u2 - a2, u, u1 + a1, u2 + a2])

    def summary(self):
        waves = []
        for el in self.elements:
            waves.append(
                {
                    "kind": el.kind,
                    "family": str(el.family),
                    "head": el.xi_head,
                    "tail": el.xi_tail,
                    "left": list(el.left.as_array()),
                    "right": list(el.right.as_array()),
                }
            )
        return {
            "contact_speed": self.contact_speed,
            "alpha1_left": self.contact_left.alpha1,
            "alpha1_right": self.contact_right.alpha1,
            "waves": waves,
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _expansion_ok(family, head, target):
    if family.sign < 0:
        return target <= head + ZERO_TOL * max(1.0, abs(head))
    return target >= head - ZERO_TOL * max(1.0, abs(head))


def _walk_side(contact_state, specs, side, eos_pair, tracks, label_prefix):
    """Connect outward from the contact; returns (elements, outer_state).

    Elements come back ordered inner to outer; the caller re-sorts into
    x order.  Left waves must run entirely left of the contact speed
    and right waves entirely right of it (sorted fan).
    """
    sign = -1 if side == "left" else +1
    u_c = contact_state.u
    current = contact_state
    elements = []
    n_before = 0
    for idx, spec in enumerate(specs):
        label = f"{label_prefix}{idx + 1}:{spec.label()}"
        fam = spec.family
        if not fam.acoustic:
            raise ConstructionError(label, "only acoustic waves may be prescribed")
        if fam.sign != sign:
            raise ConstructionError(
                label, f"{side} waves must belong to {'minus' if sign < 0 else 'plus'} families"
            )
        n_before = len(elements)
        try:
            if spec.kind == RAREFACTION:
                head = fam.speed_of(current, eos_pair)
                if not _expansion_ok(fam, head, spec.speed):
                    raise InadmissibleWaveError(
                        f"fan would compress (head {head:.6g}, target {spec.speed:.6g})"
                    )
                outer = rarefaction_connect(current, fam, spec.speed, eos_pair)
                lo, hi = sorted((head, spec.speed))
                if side == "left":
                    elements.append(WaveElement(fam, RAREFACTION, lo, hi, outer, current))
                else:
                    elements.append(WaveElement(fam, RAREFACTION, lo, hi, current, outer))
                tracks[fam.phase].add_fan(lo, hi, fam, current)
                current = outer
            elif spec.kind == SHOCK:
                post, data = shock_connect(current, fam, spec.speed, eos_pair)
                if side == "left":
                    elements.append(WaveElement(fam, SHOCK, spec.speed, spec.speed, post, current))
                    tracks[1].add_jump(spec.speed, current)
                    tracks[2].add_jump(spec.speed, current)
                else:
                    elements.append(WaveElement(fam, SHOCK, spec.speed, spec.speed, current, post))
                    tracks[1].add_jump(spec.speed, post)
                    tracks[2].add_jump(spec.speed, post)
                current = post
            elif spec.kind == SHOCK_IN_RAREFACTION:
                current = _interior_shock(
                    current, fam, spec, side, eos_pair, tracks, elements, label
                )
            else:
                raise ConstructionError(label, f"unknown wave kind {spec.kind!r}")
        except ConstructionError:
            raise
        except TwoPhaseError as exc:
            raise ConstructionError(label, str(exc)) from exc
        pad = ZERO_TOL * max(1.0, abs(u_c))
        for el in elements[n_before:]:
            on_side = el.xi_tail <= u_c + pad if side == "left" else el.xi_head >= u_c - pad
            if not on_side:
                raise ConstructionError(
                    label, f"wave interval crosses the contact speed {u_c:.6g}"
                )
    return elements, current


def _interior_shock(current, host, spec, side, eos_pair, tracks, elements, label):
    """Host fan with an interior shock of the other phase at xi = S.

    The fan runs from its head to S, where the in-fan state is the
    pre-shock side and the host characteristic coincides with S by
    construction; the jump is followed by a plateau until the host
    characteristic of the post state, from which the fan resumes up to
    the prescribed tail.
    """
    S = spec.shock_speed
    tail = spec.speed
    if S is None:
        raise InadmissibleWaveError("interior shock speed missing")
    head = host.speed_of(current, eos_pair)
    if not _expansion_ok(host, head, tail):
        raise InadmissibleWaveError(
            f"host fan would compress (head {head:.6g}, target {tail:.6g})"
        )
    inside = (head < S < tail) if host.sign > 0 else (tail < S < head)
    if not inside:
        raise InadmissibleWaveError(
            f"interior shock speed {S:.6g} outside the host fan ({head:.6g}..{tail:.6g})"
        )
    pre = rarefaction_sample(current, host, S, eos_pair)
    interior_family = WaveFamily(host.other_phase, host.sign)
    post, data = shock_connect(pre, interior_family, S, eos_pair)
    resume = host.speed_of(post, eos_pair)
    # the fan can only resume outward of the shock
    if host.sign > 0 and not (S - ZERO_TOL <= resume <= tail + ZERO_TOL):
        raise InadmissibleWaveError(
            f"host fan cannot resume (resume speed {resume:.6g} not in [{S:.6g}, {tail:.6g}])"
        )
    if host.sign < 0 and not (tail - ZERO_TOL <= resume <= S + ZERO_TOL):
        raise InadmissibleWaveError(
            f"host fan cannot resume (resume speed {resume:.6g} not in [{tail:.6g}, {S:.6g}])"
        )
    outer = rarefaction_connect(post, host, tail, eos_pair)
    ph = host.phase
    if side == "right":
        elements.append(WaveElement(host, RAREFACTION, head, S, current, pre))
        elements.append(WaveElement(interior_family, INTERIOR_SHOCK, S, S, pre, post))
        elements.append(WaveElement(host, RAREFACTION, resume, tail, post, outer))
        tracks[ph].add_fan(head, S, host, current)
        tracks[1].add_jump(S, post)
        tracks[2].add_jump(S, post)
        tracks[ph].add_fan(resume, tail, host, post)
    else:
        elements.append(WaveElement(host, RAREFACTION, S, head, pre, current))
        elements.append(WaveElement(interior_family, INTERIOR_SHOCK, S, S, post, pre))
        elements.append(WaveElement(host, RAREFACTION, tail, resume, outer, post))
        tracks[ph].add_fan(S, head, host, current)
        tracks[1].add_jump(S, pre)
        tracks[2].add_jump(S, pre)
        tracks[ph].add_fan(tail, resume, host, post)
    return outer


def build_solution(contact_left, alpha1_right, left_waves, right_waves, eos_pair,
                   validate=True):
    """Assemble an exact solution from the contact outward.

    `left_waves` and `right_waves` are ordered moving away from the
    contact.  Every discontinuity is checked for jump residuals,
    evolutionarity and entropy production; the ensemble is checked for
    speed ordering (with the sanctioned overlaps), resonance and the
    single alpha jump.  Failures raise ConstructionError naming the
    wave unless `validate` is False.
    """
    tracks = {1: _PhaseTrack(1), 2: _PhaseTrack(2)}
    u_c = contact_left.u
    try:
        contact_right = contact_connect(contact_left, alpha1_right, eos_pair)
    except TwoPhaseError as exc:
        raise ConstructionError("contact", str(exc)) from exc
    tracks[1].add_jump(u_c, contact_right)
    tracks[2].add_jump(u_c, contact_right)
    contact_el = WaveElement(
        family_from_key("C"), CONTACT_KIND, u_c, u_c, contact_left, contact_right
    )

    left_els, left_state = _walk_side(
        contact_left, left_waves, "left", eos_pair, tracks, "left"
    )
    right_els, right_state = _walk_side(
        contact_right, right_waves, "right", eos_pair, tracks, "right"
    )

    elements = sorted(
        left_els + [contact_el] + right_els, key=lambda e: (e.xi_head, e.xi_tail)
    )
    tracks[1].finalize(left_state)
    tracks[2].finalize(left_state)
    sol = ExactSolution(
        eos_pair,
        u_c,
        contact_left,
        contact_right,
        elements,
        left_state,
        right_state,
        _tracks=tracks,
    )
    if validate:
        report = validate_solution(sol)
        if not report.passed:
            raise ConstructionError(report.first_failure, "; ".join(report.failures))
    return sol


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ElementReport:
    label: str
    kind: str
    family: str
    head: float
    tail: float
    max_jump_residual: float
    entropy_production: float
    census: object
    lax: str
    flags: list

    @property
    def passed(self):
        return not self.flags


@dataclass
class ValidationReport:
    elements: list
    ensemble_flags: list
    eigen_map: list

    @property
    def failures(self):
        out = list(self.ensemble_flags)
        for er in self.elements:
            out.extend(f"{er.label}: {f}" for f in er.flags)
        return out

    @property
    def passed(self):
        return not self.failures

    @property
    def first_failure(self):
        for er in self.elements:
            if er.flags:
                return er.label
        return "ensemble" if self.ensemble_flags else ""

    def as_dict(self):
        return {
            "passed": bool(self.passed),
            "ensemble_flags": list(self.ensemble_flags),
            "elements": [
                {
                    "label": er.label,
                    "kind": er.kind,
                    "family": er.family,
                    "head": er.head,
                    "tail": er.tail,
                    "max_jump_residual": er.max_jump_residual,
                    "entropy_production": er.entropy_production,
                    "evolutionary": bool(er.census.evolutionary) if er.census else None,
                    "census": {
                        "incoming": list(map(list, er.census.incoming)),
                        "outgoing": list(map(list, er.census.outgoing)),
                        "coinciding": list(map(list, er.census.coinciding)),
                    }
                    if er.census
                    else None,
                    "lax": er.lax,
                    "flags": list(er.flags),
                }
                for er in self.elements
            ],
            "eigenvalues_at_bounds": self.eigen_map,
        }


def _is_zero_strength(el):
    dl = el.left.as_array()
    dr = el.right.as_array()
    scale = np.maximum(np.abs(dl), np.abs(dr))
    return bool(np.all(np.abs(dr - dl) <= 1e-9 * np.maximum(scale, 1.0)))


def _check_interior_coincidence(el, sol, flags):
    """Interior shocks must carry the host-fan tangency on the inner
    side and a mass flux oriented into the fan continuation (the
    admissible shock-in-rarefaction shape); the mirrored tangency would
    be the entropy-violating shape."""
    host = WaveFamily(el.family.other_phase, el.family.sign)
    S = el.speed
    lam_l = host.speed_of(el.left, sol.eos_pair)
    lam_r = host.speed_of(el.right, sol.eos_pair)
    tol = 1e-7 * max(1.0, abs(S))
    Q = -el.left.rho * (el.left.u - S)
    if host.sign > 0:
        if abs(lam_l - S) > tol:
            flags.append(f"host characteristic not tangent on the inner side ({lam_l} vs {S})")
        if Q <= 0:
            flags.append("mixture mass flux has the wrong sign for a plus-family host")
    else:
        if abs(lam_r - S) > tol:
            flags.append(f"host characteristic not tangent on the inner side ({lam_r} vs {S})")
        if Q >= 0:
            flags.append("mixture mass flux has the wrong sign for a minus-family host")


def validate_solution(solution, residual_tol=RESIDUAL_TOL):
    """Re-derive every admissibility statement from the assembled pieces."""
    eos_pair = solution.eos_pair
    reports = []
    ensemble = []
    for el in solution.elements:
        flags = []
        census = None
        lax = ""
        resid = 0.0
        entropy = 0.0
        if el.kind == CONTACT_KIND:
            resid = float(np.max(contact_residuals(el.left, el.right, eos_pair)))
            if resid > residual_tol:
                flags.append(f"contact residual {resid:.3e} above {residual_tol:g}")
            entropy = entropy_production(el.left, el.right, el.speed, eos_pair, check=False)
            if not _is_zero_strength(el):
                census = classify_discontinuity(el.left, el.right, el.speed, eos_pair)
                if not census.evolutionary:
                    flags.append("contact census is not evolutionary")
        elif el.is_discontinuity:
            resid = float(np.max(rhc_residuals(el.left, el.right, el.speed, eos_pair)))
            if resid > residual_tol:
                flags.append(f"jump residual {resid:.3e} above {residual_tol:g}")
            entropy = entropy_production(el.left, el.right, el.speed, eos_pair, check=False)
            scale = abs(entropy)
            mp = mixture_props(el.left, eos_pair)
            ent_tol = 1e-9 * max(1.0, abs(mp.p_bar))
            if entropy > ent_tol:
                flags.append(f"entropy production {entropy:.3e} > 0 (expansion shock)")
            census = classify_discontinuity(el.left, el.right, el.speed, eos_pair)
            if not census.evolutionary:
                flags.append(
                    f"census not evolutionary (i={census.i}, o={census.o}, c={census.c}, "
                    f"undetermined={census.undetermined})"
                )
            if el.kind == SHOCK:
                lax = lax_check(el.left, el.right, el.speed, el.family, eos_pair)
                if lax != "compressive":
                    flags.append(f"isolated shock is not compressive ({lax})")
            else:
                _check_interior_coincidence(el, solution, flags)
        else:
            # fan: characteristic speed must grow with xi and match the bounds
            fam = el.family
            lam_l = fam.speed_of(el.left, eos_pair)
            lam_r = fam.speed_of(el.right, eos_pair)
            tol = 1e-7 * max(1.0, abs(el.xi_head), abs(el.xi_tail))
            if abs(lam_l - el.xi_head) > tol or abs(lam_r - el.xi_tail) > tol:
                flags.append("fan bounds do not match the characteristic speeds")
            if lam_r < lam_l - tol:
                flags.append("fan is not expanding")
        reports.append(
            ElementReport(
                el.label(), el.kind, str(el.family), el.xi_head, el.xi_tail,
                resid, float(entropy), census, lax, flags,
            )
        )

    _ensemble_checks(solution, ensemble)
    eigen_map = []
    for el in solution.elements:
        lam_l = eigenvalues(el.left, eos_pair)
        lam_r = eigenvalues(el.right, eos_pair)
        eigen_map.append(
            {
                "label": el.label(),
                "left": {k: float(v) for k, v in lam_l.items()},
                "right": {k: float(v) for k, v in lam_r.items()},
            }
        )
    return ValidationReport(reports, ensemble, eigen_map)


def _ensemble_checks(solution, ensemble):
    els = solution.elements
    u_c = solution.contact_speed
    # single alpha jump, located at the contact
    for el in els:
        if el.kind != CONTACT_KIND and abs(el.right.alpha1 - el.left.alpha1) > 0.0:
            ensemble.append(f"{el.label()}: alpha1 jumps away from the contact")
    # pairwise speed separation of discontinuities (shock resonance and
    # tangent contacts are excluded configurations)
    discs = [el for el in els if el.is_discontinuity and not _is_zero_strength(el)]
    for i, a in enumerate(discs):
        for b in discs[i + 1:]:
            sep = abs(a.speed - b.speed)
            if sep < SPEED_SEP_TOL * max(1.0, abs(a.speed), abs(b.speed)):
                ensemble.append(
                    f"coinciding discontinuities {a.label()} and {b.label()}"
                )
    # interval overlaps: only different-phase fans may overlap; interior
    # shocks sit inside their host by construction
    spans = [
        el for el in els if not el.is_discontinuity and el.xi_tail > el.xi_head
    ]
    for i, a in enumerate(spans):
        for b in spans[i + 1:]:
            lo = max(a.xi_head, b.xi_head)
            hi = min(a.xi_tail, b.xi_tail)
            if lo < hi - SPEED_SEP_TOL and a.family.phase == b.family.phase:
                ensemble.append(
                    f"same-phase fans overlap: {a.label()} and {b.label()}"
                )
    # no fan may contain the contact strictly (contact inside rarefaction)
    for el in spans:
        pad = SPEED_SEP_TOL * max(1.0, abs(u_c))
        if el.xi_head + pad < u_c < el.xi_tail - pad:
            ensemble.append(f"{el.label()}: contact lies inside the fan")
    # shocks tangent to or inside a fan of the other phase must be the
    # declared interior shocks
    for el in els:
        if el.kind != SHOCK:
            continue
        for sp in spans:
            pad = SPEED_SEP_TOL * max(1.0, abs(el.speed))
            if sp.xi_head - pad < el.speed < sp.xi_tail + pad:
                ensemble.append(
                    f"{el.label()}: undeclared shock touching fan {sp.label()}"
                )


def solution_table(solution, xis):
    """Sample the solution on a grid of similarity coordinates.

    Columns: xi, alpha1, rho1, rho2, u1, u2, rho, u, w, p, p_bar.
    """
    rows = []
    for x, v in zip(xis, solution.sample_many(xis)):
        mp = mixture_props(PrimitiveState.from_array(v), solution.eos_pair)
        rows.append([x, *v, mp.rho, mp.u, mp.w, mp.p, mp.p_bar])
    return np.array(rows)


SOLUTION_COLUMNS = ["xi", "alpha1", "rho1", "rho2", "u1", "u2", "rho", "u", "w", "p", "p_bar"]
