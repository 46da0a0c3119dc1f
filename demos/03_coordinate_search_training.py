"""
Training digit heads with greedy coordinate search
==================================================

Fits a model to a complete 3-ary hierarchy of depth 4 using the
derivative-free optimizer: every parameter lives on the digit lattice
{0..p-1} and a sweep tries moving each one by +1 or -1 (mod p), keeping
a move only when the loss over the whole dataset strictly improves, so
the logged loss never rises from one sweep to the next.
"""

import io
import json

from hipan import (
    GistConfig,
    ModelConfig,
    accuracy_report,
    default_plan,
    encode_tree,
    gen_synthetic,
    new_model,
    parameter_count,
    train,
)

tree = gen_synthetic("complete", 3, 4, seed=0)
ds = encode_tree(tree)
print(f"{ds.codec.K}-digit codes over p={ds.codec.p}, {len(ds.records)} leaves")

model = new_model(ModelConfig(ds.codec), seed=0)
print("parameters on the lattice:", parameter_count(model.config))

# The default curriculum warms up the deeper digits first, then the two
# root-most ones, then fine-tunes everything together.
plan = default_plan(ds.codec.K)
print("phases:", [(ph.name, ph.epochs, ph.digits) for ph in plan.phases])

# Epoch records stream as JSON lines; collect them in memory here.
log = io.StringIO()
result = train(model, ds, GistConfig(seed=0), plan, tree=tree, log_stream=log)

epochs = [json.loads(line) for line in log.getvalue().splitlines()]
print(f"ran {len(epochs)} epochs, {result.evals} objective evaluations")
for e in epochs[:3] + epochs[-2:]:
    print(
        f"  phase={e['phase']:<12s} epoch={e['epoch']:>3d} "
        f"loss={e['loss']:.4f} leaf_acc={e['leaf_acc']:.3f} "
        f"accepted={e['accepted_moves']}"
    )

# Greedy +-1 search drives this small task to a perfect reconstruction.
rep = accuracy_report(model, ds, tree)
print("leaf accuracy:", rep.leaf_accuracy)
print("per-digit accuracy:", rep.digit_accuracy)

# The trained latents are still integers: the optimizer never leaves
# the lattice, so there is nothing to round at inference time.
print("head 0 latents, row 0:", model.heads[0].table[0])
