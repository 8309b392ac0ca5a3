#!/usr/bin/env python3
"""End-to-end tour on one concrete accelerated-frame map.

The map with alpha = (0.5, 0, 0, 0), beta = 1 sends (1,0,0,0) to (2,0,0,0)
with scale factor 4; this script walks through the scale factor, the image,
the interval law, the scalar-kernel invariance, the image of rest as
hyperbolic motion, and the 2D mirror verdicts.
"""

import numpy as np

import confvac as cv


def main():
    form = cv.AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    print("== accelerated-frame map, alpha = (0.5,0,0,0), beta = 1 ==")
    print("scale factor at (1,0,0,0):", form.factor(x))
    print("image of (1,0,0,0):      ", cv.apply_map(form, x))
    print("singular residual there: ", form.denominator(x))

    xp = np.array([0.2, -0.1, 0.0, 0.0])
    rep = cv.verify_interval_law(form, x, xp)
    print(f"interval law: lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} "
          f"residual={rep.residual:.1e}")

    si = cv.verify_scalar_invariance(form, x, xp, 1e-7)
    print(f"scalar kernel invariance residual: {si.residual:.1e}")

    print("\n== rest seen from the conformal frame ==")
    spatial = cv.AcceleratedFrameForm(np.array([0.0, 0.5, 0.0, 0.0]), 1.0)
    grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    image = cv.image_state(spatial, cv.rest_worldline().state(grid))
    sup_w = float(np.max(cv.abraham_vector(image).residual_norm))
    cls = cv.classify_motion(image)
    print(f"image of rest: sup |w| = {sup_w:.2e}, classified {cls.kind} "
          f"(a = {cls.accel:.4f})")

    print("\n== 2D mirror verdicts ==")
    cases = {
        "inertial": cv.RayMap2D(cv.Homography2D.identity(),
                                cv.Homography2D.identity()),
        "uniformly accelerated": cv.accelerated_frame_maps_2d(
            np.array([0.12, 0.27]), 1.4),
        "sinusoidal": cv.RayMap2D(
            cv.SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u),
                                         -2.5, 2.5, n=4001),
            cv.Homography2D.identity()),
    }
    for name, frame in cases.items():
        verdict = cv.vacuum_verdict(cv.mirror_scattering_map(frame))
        print(f"{name:22s} -> {verdict.verdict:9s} "
              f"(Schwarzian evidence {verdict.evidence:.2e})")


if __name__ == "__main__":
    main()
