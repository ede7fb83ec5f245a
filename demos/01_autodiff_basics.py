#!/usr/bin/env python3
"""A tour of the tensor engine: graph building, backward, and AdamW.

Everything the extraction model computes runs through these few
primitives, so this is the best place to start reading.
"""

import numpy as np

from spantriplet import autodiff as ad
from spantriplet.autodiff import AdamW, Parameter, Tensor

# --- forward + backward on a tiny expression -------------------------------

x = Parameter([1.0, 2.0, 3.0], name="x")
w = Parameter(np.eye(3) * 0.5, name="w")
y = ad.tensor_sum(ad.tanh(ad.matmul(w, x)))
y.backward()
print("y          =", y.item())
print("dy/dx      =", x.grad)
print("dy/dw diag =", np.diag(w.grad))

# A central finite difference on one coordinate agrees with the engine:
h = 1e-6
x.data[0] += h
y_plus = ad.tensor_sum(ad.tanh(ad.matmul(w, x))).item()
x.data[0] -= 2 * h
y_minus = ad.tensor_sum(ad.tanh(ad.matmul(w, x))).item()
x.data[0] += h
print(f"numeric dy/dx[0] = {(y_plus - y_minus) / (2 * h):.8f}  "
      f"(engine said {x.grad[0]:.8f})")

# --- the classifier loss used everywhere ------------------------------------

logits = Parameter([2.0, -1.0, 0.5], name="logits")
loss = ad.softmax_nll(logits, 0)
loss.backward()
print("\nsoftmax NLL  =", round(loss.item(), 6))
print("gradient     =", np.round(logits.grad, 6), "(softmax minus one-hot)")

# --- fit a line with AdamW ---------------------------------------------------

rng = np.random.default_rng(0)
inputs = rng.normal(size=(64, 2))
targets = inputs @ np.array([3.0, -2.0]) + 0.5

weight = Parameter(np.zeros(2), name="weight")
bias = Parameter(np.zeros(1), name="bias")
optimizer = AdamW([weight, bias], lr=0.05)
for step in range(400):
    optimizer.zero_grad()
    pred = ad.add(ad.matmul(Tensor(inputs), weight), bias)
    err = ad.sub(pred, Tensor(targets))
    mse = ad.tensor_sum(ad.mul(err, err))
    mse.backward()
    optimizer.step()
    if step % 100 == 0:
        print(f"step {step:>3}: sse = {mse.item():.5f}")

print("fitted weight =", np.round(weight.data, 4), " bias =",
      round(bias.data[0], 4), " (true: [3, -2], 0.5)")
