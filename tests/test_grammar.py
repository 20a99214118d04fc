import pytest

from tpcalc.algebra import RingError, make_ring, parse_class
from tpcalc.oracle import OracleError, parse_poly
from tpcalc.symbolic import parse_expr

_P2 = make_ring([("x", 1, 2)])


@pytest.mark.parametrize("text", ["", "x +", "x ++ y", "2*", "1/0"])
@pytest.mark.parametrize("parse, error", [
    (lambda text: parse_class(_P2, text), RingError),
    (parse_expr, ValueError),
    (lambda text: parse_poly(text, var="x"), OracleError),
], ids=["class", "expr", "poly"])
def test_malformed_text_raises_the_callers_error(parse, error, text):
    with pytest.raises(error):
        parse(text)
