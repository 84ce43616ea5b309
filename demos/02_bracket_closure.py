"""Walkthrough: when the twist breaks involution, and bracket closure.

Transposing a working twist matrix generally destroys the transfer of
involution relations to the prolonged fields: the brackets of the twisted
prolongations leave their span and the set only closes after adjoining extra
generators.  The pointwise and contracted transfer conditions on the twist
detect this directly from first prolongations.
"""

from jetsigma import gallery
from jetsigma.involution import (
    NotInvolutiveError,
    check_involution_transfer,
    close_under_bracket,
    structure_functions,
)
from jetsigma.prolong import sigma_prolong

for case in gallery.transpose_twist_cases():
    print("=" * 70)
    print("case:", case.name)
    Ys = sigma_prolong(case.fields, case.sigma, 1)
    for i, Y in enumerate(Ys):
        print(f"  Y{i + 1} =", Y)
    try:
        structure_functions(Ys)
        print("  in involution (unexpected here)")
    except NotInvolutiveError as err:
        print("  not in involution:", err.bracket)
    closed, report = close_under_bracket(Ys)
    print("  closure adds:")
    for k, f in enumerate(report.added, start=len(case.fields) + 1):
        print(f"    Y{k} =", f)
    sf = report.structure
    r = len(closed)
    print("  bracket table:")
    for i in range(r):
        for j in range(i + 1, r):
            coeffs = [sf[i, j, k] for k in range(r)]
            if any(c.sym != 0 for c in coeffs):
                terms = " + ".join(
                    f"{c}*Y{k + 1}" for k, c in enumerate(coeffs) if c.sym != 0
                )
                print(f"    [Y{i + 1},Y{j + 1}] = {terms}")
    transfer = check_involution_transfer(case.fields, case.sigma)
    print(
        "  transfer conditions: pointwise",
        transfer.pointwise.holds,
        "/ contracted",
        transfer.contracted.holds,
    )
    print("  Q[12] =", tuple(str(e) for e in transfer.Q[(0, 1)]))
