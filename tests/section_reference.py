"""The section-point checks by compare, the reference that the cut-rule checks of
flow_oracle.Geodesic, flow_oracle.SectionPoint, dynamics.on_section and
dynamics.code_two_sided are tested against.

Each function raises the ValueError (or PrecisionExhausted) that the library
raises, with the same message, and otherwise returns what it decides.
"""

from cuspdyn.exact import EQUAL, INF, Approx, PrecisionExhausted, Rational, compare, emit_value


def geodesic_check(forward, backward) -> None:
    """Geodesic(forward, backward): its ends must be distinct."""
    if compare(forward, backward) == EQUAL:
        raise ValueError("geodesic endpoints must be distinct")


def section_point_check(forward, backward, line, direction) -> None:
    """SectionPoint(Geodesic(forward, backward), line, direction): y lies behind the
    line and x ahead of it in that direction."""
    geodesic_check(forward, backward)
    line = Rational(line.numerator, line.denominator)
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    if not compare(backward, line) == -direction == -compare(forward, line):
        raise ValueError("geodesic does not cross the line transversally in that direction")


def on_section_by_compare(rec, y) -> bool:
    """dynamics.on_section: y beyond rep_line opposite rep_dir, and not inf."""
    side = compare(y, Rational(rec.rep_line))
    if side == EQUAL and isinstance(y, Approx):
        raise PrecisionExhausted(f"backward endpoint {emit_value(y)} holds the line {rec.rep_line}")
    return side == -rec.rep_dir and y is not INF
