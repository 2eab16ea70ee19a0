"""Exact vanishing tests for Schubert intersection numbers.

The package decides, in polynomial time and exact arithmetic, sufficient
conditions for a Schubert intersection number of the complete flag variety
to vanish, and emits certificates a reader can check by hand.  One
max-flow on the filling network (``schubitope.filling_or_cut``) decides
every Schubitope verdict: it returns a filling, or the min cut as one
violated subset inequality.  An exact oracle, which works in the Schubert
basis, and three classical rival tests are included for cross-validation.

Names live in their modules (``permcore``, ``schubitope``, ``vanishing``,
``rivals``, ``schubpoly``, ``gpermutahedron``, ``cli``); import them from
there, as in ``from schubvanish.vanishing import symmetric_test``.
Importing the package itself loads nothing else.
"""

__version__ = "0.1.0"
