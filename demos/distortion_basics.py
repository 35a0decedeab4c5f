"""What semantic distortion measures, on the smallest world that has one.

The demo world has a single concept and two hypotheses: h0 is always right
(loss 0) and h1 is always wrong (loss 1). A learner that posts the uniform
belief has expected true loss 1/2 no matter what it saw. Semantic distortion
compares the receiver's reproduced belief to the sender's on that true-loss
scale, and it is signed: a receiver that puts everything on h0 does better
than the sender it is imitating.
"""

import numpy as np

from beliefcomm import (
    LearningRule,
    d_sem_rows,
    effective_distortion_matrix,
    fit,
    random_instance,
    two_hypothesis_world,
)


def main():
    inst = two_hypothesis_world()
    uniform = np.array([0.5, 0.5])
    print("two-hypothesis world, sender belief = uniform")
    for name, row in [("all h0", [1.0, 0.0]), ("uniform", [0.5, 0.5]),
                      ("all h1", [0.0, 1.0])]:
        d = d_sem_rows(uniform, np.array(row), inst)
        print(f"  receiver {name:8s} d_sem = {d:+.3f}")
    print("negative means the receiver improved on the sender's own loss\n")

    # the same quantity on a learned sender over a random world
    rng = np.random.default_rng(24)
    inst = random_instance(rng, n_concepts=3, n_symbols=2, n_hypotheses=2,
                           m=1, concentration=0.2)
    q = fit(LearningRule.erm(), inst)
    dmat, baseline = effective_distortion_matrix(inst, q)
    print("random peaked world, erm sender")
    print("  p_s      =", np.round(inst.p_s, 3))
    print("  sender rows:")
    for s in range(inst.n_datasets):
        print("   ", np.round(q.rows[s], 3))
    print("  reduced distortion matrix D[s, h]:")
    print(np.round(dmat, 4))
    print(f"  baseline (sender's own loss level) = {baseline:.4f}")

    span = float((inst.p_s @ dmat).min()) - baseline
    print(f"  best constant reply scores {span:+.4f} above the sender")
    if span > 0:
        print("  a constant receiver cannot match this sender;"
              " communication buys something here")
    else:
        print("  some constant reply already matches the sender;"
              " zero rate suffices")


if __name__ == "__main__":
    main()
