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

A built solution is its x-ordered element list.  Each phase is sampled
from it: every discontinuity moves both phases, a fan only its own
phase; alpha1 switches once, at the contact.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstructionError, InadmissibleWaveError, TwoPhaseError
from .state import PrimitiveState, check_resonance, eigenvalues, mixture_pressures, mixture_table
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


def _phase_values(state, phase):
    return (state.rho1, state.u1) if phase == 1 else (state.rho2, state.u2)


@dataclass(frozen=True)
class ExactSolution:
    """Self-similar solution assembled by the inverse construction.

    Frozen; sampling is pure.  `elements` are x-ordered and include the
    contact; they are all a solution holds.  The constant states between
    waves are reachable through element bounds; `left_state` and
    `right_state` are the Riemann data the construction implies.  Its
    validation report is derived on first use and kept outside the
    fields, so `dataclasses.replace` gives a solution without one.

    Sampling walks the elements from `left_state`.  It is
    right-continuous: at the speed of a discontinuity (shock, interior
    shock or contact) both phases and alpha1 take the state right of
    it, `el.right`.
    """

    eos_pair: object
    contact_speed: float
    contact_left: PrimitiveState
    contact_right: PrimitiveState
    elements: tuple
    left_state: PrimitiveState
    right_state: PrimitiveState

    @cached_property
    def _report(self):
        return _derive_report(self)

    def sample(self, xi):
        return PrimitiveState.from_array(self.sample_many([xi])[0])

    def sample_many(self, xis):
        """Rows (alpha1, rho1, rho2, u1, u2), one per point of xis."""
        xi = np.asarray(xis, dtype=float)
        rho1, u1 = self._sample_phase(1, xi)
        rho2, u2 = self._sample_phase(2, xi)
        alpha1 = np.where(
            xi < self.contact_speed, self.contact_left.alpha1, self.contact_right.alpha1
        )
        return np.column_stack([alpha1, rho1, rho2, u1, u2])

    def _sample_phase(self, phase, xi):
        """(rho, u) of one phase at every point of the array xi.

        Each discontinuity, and each fan of this phase, overwrites the
        points at or right of its head, so the last element started
        wins and every jump is right-continuous.  A fan is evaluated at
        min(xi, tail) from its contact-side edge: points right of it
        take its tail value.
        """
        rho, u = (np.full(xi.shape, v) for v in _phase_values(self.left_state, phase))
        for el in self.elements:
            if el.is_discontinuity:
                at = xi >= el.xi_head
                rho[at], u[at] = _phase_values(el.right, phase)
            elif el.family.phase == phase:
                at = xi >= el.xi_head
                edge = el.right if el.family.sign < 0 else el.left
                rho[at], u[at] = _fan_state(
                    el.family, el.family.eos_of(self.eos_pair), *_phase_values(edge, phase),
                    np.minimum(xi[at], el.xi_tail),
                )
        return rho, u

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

def _element(side, family, kind, inner, outer, xi_inner, xi_outer):
    """The x-ordered element of a piece running from `inner` (contact
    side) at xi_inner to `outer` at xi_outer on the given side."""
    if side == "left":
        return WaveElement(family, kind, xi_outer, xi_inner, outer, inner)
    return WaveElement(family, kind, xi_inner, xi_outer, inner, outer)


def _walk_side(contact_state, specs, side, eos_pair):
    """Connect outward from the contact; returns (elements, outer_state).

    Elements come back ordered inner to outer; the caller re-sorts into
    x order.  Left waves must run entirely left of the contact speed
    and right waves entirely right of it (sorted fan), and each piece
    outward of every piece walked before it, save fans of different
    phases, which overlap freely.
    """
    sign = -1 if side == "left" else +1
    u_c = contact_state.u
    current = contact_state
    elements = []
    for idx, spec in enumerate(specs):
        label = f"{side}{idx + 1}:{spec.label()}"
        fam = spec.family
        if not fam.acoustic:
            raise ConstructionError(label, "only acoustic waves may be prescribed")
        if fam.sign != sign:
            raise ConstructionError(
                label, f"{side} waves must belong to {'minus' if sign < 0 else 'plus'} families"
            )
        try:
            if spec.kind == RAREFACTION:
                head = fam.speed_of(current, eos_pair)
                outer = rarefaction_connect(current, fam, spec.speed, eos_pair)
                new = [_element(side, fam, RAREFACTION, current, outer, head, spec.speed)]
            elif spec.kind == SHOCK:
                outer = shock_connect(current, fam, spec.speed, eos_pair)
                new = [_element(side, fam, SHOCK, current, outer, spec.speed, spec.speed)]
            elif spec.kind == SHOCK_IN_RAREFACTION:
                new, outer = _interior_shock(current, fam, spec, side, eos_pair)
            else:
                raise ConstructionError(label, f"unknown wave kind {spec.kind!r}")
        except ConstructionError:
            raise
        except TwoPhaseError as exc:
            raise ConstructionError(label, str(exc)) from exc
        pad = ZERO_TOL * max(1.0, abs(u_c))
        for el in new:
            on_side = el.xi_tail <= u_c + pad if side == "left" else el.xi_head >= u_c - pad
            if not on_side:
                raise ConstructionError(
                    label, f"wave interval crosses the contact speed {u_c:.6g}"
                )
            for inner in elements:
                fans_apart = el.family.phase != inner.family.phase and not (
                    el.is_discontinuity or inner.is_discontinuity
                )
                past = el.xi_tail - inner.xi_head if side == "left" else inner.xi_tail - el.xi_head
                if past > pad and not fans_apart:
                    raise ConstructionError(
                        label, f"{el.label()} crosses {inner.label()}, nearer the contact"
                    )
            elements.append(el)
        current = outer
    return elements, current


def _interior_shock(current, host, spec, side, eos_pair):
    """Host fan with an interior shock of the other phase at xi = S:
    its three elements, inner to outer, and the state beyond them.

    The fan runs from its head to S, where the in-fan state is the
    pre-shock side and the host characteristic coincides with S by
    construction; the jump is followed by a plateau until the host
    characteristic of the post state, from which the fan resumes up to
    the prescribed tail.  A host fan that would compress has S outside
    it.
    """
    S = spec.shock_speed
    tail = spec.speed
    if S is None:
        raise InadmissibleWaveError("interior shock speed missing")
    head = host.speed_of(current, eos_pair)
    inside = (head < S < tail) if host.sign > 0 else (tail < S < head)
    if not inside:
        raise InadmissibleWaveError(
            f"interior shock speed {S:.6g} outside the host fan ({head:.6g}..{tail:.6g})"
        )
    pre = rarefaction_connect(current, host, S, eos_pair)
    interior_family = WaveFamily(host.other_phase, host.sign)
    post = shock_connect(pre, interior_family, S, eos_pair)
    resume = host.speed_of(post, eos_pair)
    # the fan can only resume outward of the shock
    lo, hi = sorted((S, tail))
    if not lo - ZERO_TOL <= resume <= hi + ZERO_TOL:
        raise InadmissibleWaveError(
            f"host fan cannot resume (resume speed {resume:.6g} not in [{lo:.6g}, {hi:.6g}])"
        )
    outer = rarefaction_connect(post, host, tail, eos_pair)
    return [
        _element(side, host, RAREFACTION, current, pre, head, S),
        _element(side, interior_family, INTERIOR_SHOCK, pre, post, S, S),
        _element(side, host, RAREFACTION, post, outer, resume, tail),
    ], outer


def build_solution(contact_left, alpha1_right, left_waves, right_waves, eos_pair,
                   validate=True):
    """Assemble an exact solution from the contact outward.

    `left_waves` and `right_waves` are ordered moving away from the
    contact.  Every discontinuity is checked for jump residuals,
    evolutionarity and entropy production, and the two states of every
    element for resonance (an acoustic speed equal to the contact
    speed u); the ensemble is checked for speed ordering (with the
    sanctioned overlaps) and the single alpha jump.  Failures raise
    ConstructionError naming the wave; the report of a solution that
    passes is kept for validate_solution.  `validate=False` skips it.
    """
    u_c = contact_left.u
    try:
        contact_right = contact_connect(contact_left, alpha1_right, eos_pair)
    except TwoPhaseError as exc:
        raise ConstructionError("contact", str(exc)) from exc
    contact_el = WaveElement(
        family_from_key("C"), CONTACT_KIND, u_c, u_c, contact_left, contact_right
    )

    left_els, left_state = _walk_side(contact_left, left_waves, "left", eos_pair)
    right_els, right_state = _walk_side(contact_right, right_waves, "right", eos_pair)

    elements = sorted(left_els + [contact_el] + right_els, key=lambda e: (e.xi_head, e.xi_tail))
    sol = ExactSolution(
        eos_pair, u_c, contact_left, contact_right, tuple(elements), left_state, right_state
    )
    if validate and not (report := validate_solution(sol)).passed:
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


def validate_solution(solution):
    """The admissibility report of a solution, derived at most once per
    solution (here or in build_solution); every call returns that one
    shared report, which callers read and do not change."""
    return solution._report


def _derive_report(solution):
    """Re-derive every admissibility statement from the assembled pieces."""
    eos_pair = solution.eos_pair
    reports = []
    ensemble = []
    eigen_map = []
    for el in solution.elements:
        flags = []
        census = None
        lax = ""
        resid = 0.0
        entropy = 0.0
        lam = (eigenvalues(el.left, eos_pair), eigenvalues(el.right, eos_pair))
        if el.kind == CONTACT_KIND:
            resid = float(np.max(contact_residuals(el.left, el.right, eos_pair)))
            if resid > RESIDUAL_TOL:
                flags.append(f"contact residual {resid:.3e} above {RESIDUAL_TOL:g}")
            entropy = entropy_production(el.left, el.right, el.speed, eos_pair, check=False)
            if not _is_zero_strength(el):
                census = classify_discontinuity(el.left, el.right, el.speed, eos_pair, lam)
                if not census.evolutionary:
                    flags.append("contact census is not evolutionary")
        elif el.is_discontinuity:
            resid = float(np.max(rhc_residuals(el.left, el.right, el.speed, eos_pair)))
            if resid > RESIDUAL_TOL:
                flags.append(f"jump residual {resid:.3e} above {RESIDUAL_TOL:g}")
            entropy = entropy_production(el.left, el.right, el.speed, eos_pair, check=False)
            _, p_bar = mixture_pressures(el.left, eos_pair)
            ent_tol = 1e-9 * max(1.0, abs(p_bar))
            if entropy > ent_tol:
                flags.append(f"entropy production {entropy:.3e} > 0 (expansion shock)")
            census = classify_discontinuity(el.left, el.right, el.speed, eos_pair, lam)
            if not census.evolutionary:
                flags.append(
                    f"census not evolutionary (i={census.i}, o={census.o}, c={census.c}, "
                    f"undetermined={census.undetermined})"
                )
            if el.kind == SHOCK:
                lax = lax_check(el.left, el.right, el.speed, el.family, eos_pair, lam)
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
        eig = {"label": el.label()}
        for side, state, speeds in zip(("left", "right"), (el.left, el.right), lam):
            eig[side] = {k: float(v) for k, v in speeds.items()}
            for k in check_resonance(state, eos_pair, speeds).coinciding:
                flags.append(f"resonant {side} state: lambda_{k} = u")
        eigen_map.append(eig)
        reports.append(
            ElementReport(
                el.label(), el.kind, str(el.family), el.xi_head, el.xi_tail,
                resid, float(entropy), census, lax, flags,
            )
        )

    _ensemble_checks(solution, ensemble)
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
    tab = mixture_table(xis, solution.sample_many(xis), solution.eos_pair)
    _, alpha1, rho1, rho2, _, _, rho, _, w, p = tab.T
    c1 = alpha1 * rho1 / rho
    c2 = (1.0 - alpha1) * rho2 / rho
    return np.column_stack([tab, rho * c1 * c2 * w**2 + p])


SOLUTION_COLUMNS = ["xi", "alpha1", "rho1", "rho2", "u1", "u2", "rho", "u", "w", "p", "p_bar"]
