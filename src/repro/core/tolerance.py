"""The power tolerance shared by the profile and the validity checker.

Summing float task powers can overshoot a budget by an ulp, so a
schedule is only treated as violating a power constraint when it misses
by more than :data:`POWER_TOL` (the paper's instances are specified to
0.1 W).  :class:`~repro.core.profile.PowerProfile` also merges
neighbouring segments whose levels differ by no more than this.  The
checker in :mod:`repro.core.validation` reads it from here, so it needs
nothing of the profile.
"""

__all__ = ["POWER_TOL"]

#: Absolute tolerance for power comparisons, in watts.
POWER_TOL = 1e-9
