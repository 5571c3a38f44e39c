"""The lockstep kernel with chosen rows made degenerate, for the tests that
force the same trajectories degenerate in the kernel and, by raising in
the scalar engine, in the oracles."""

import numpy as np

from hardsphere.dynamics import PairEvents


def marking_kernel(real, forced):
    """The lockstep kernel ``real`` with the moving rows whose start
    ``forced(x)`` selects by the first coordinate made degenerate as it
    makes them: marked, back as they went in and without events."""

    def kernel(q, p, domain, dur, limit, record=False):
        mark = np.array([forced(x) for x in q[:, 0, 0]], dtype=bool) & (dur != 0.0)
        out = real(q, p, domain, dur, limit, record)
        out.q[mark], out.p[mark], out.n_pair[mark], out.n_wall[mark] = q[mark], p[mark], 0, 0
        if record:
            out.gap[mark] = np.inf
            out = out._replace(events=PairEvents(*(f[~mark[out.events.row]] for f in out.events)))
        return out._replace(degenerate=out.degenerate | mark)

    return kernel
