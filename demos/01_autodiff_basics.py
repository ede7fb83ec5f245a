#!/usr/bin/env python3
"""A tour of the tensor engine: graph building, backward, and AdamW.

The extraction model's scorers are stacks of ``linear`` and ``relu``
nodes trained with ``softmax_nll``; this demo fits a small two-class
classifier from the same ops, so it is the best place to start reading.
"""

import numpy as np

from spantriplet import autodiff as ad
from spantriplet.autodiff import AdamW, Parameter, Tensor

# --- data: two classes split by a circle ------------------------------------

rng = np.random.default_rng(0)
points = rng.normal(size=(200, 2))
labels = (np.linalg.norm(points, axis=1) > 1.1).astype(int).tolist()
inputs = Tensor(points)

w0 = Parameter(rng.normal(0.0, 0.5, size=(2, 16)), name="w0")
b0 = Parameter(np.zeros(16), name="b0")
w1 = Parameter(rng.normal(0.0, 0.5, size=(16, 2)), name="w1")
b1 = Parameter(np.zeros(2), name="b1")
params = [w0, b0, w1, b1]


def logits() -> Tensor:
    return ad.linear(ad.relu(ad.linear(inputs, w0, b0)), w1, b1)


# --- forward + backward ------------------------------------------------------

loss = ad.softmax_nll(logits(), labels)
loss.backward()
print("summed NLL   =", round(loss.item(), 6))
print("dL/db1       =", np.round(b1.grad, 6), "(column sums of softmax minus one-hot)")

# A central finite difference on one coordinate agrees with the engine:
h = 1e-6
w0.data[0, 0] += h
loss_plus = ad.softmax_nll(logits(), labels).item()
w0.data[0, 0] -= 2 * h
loss_minus = ad.softmax_nll(logits(), labels).item()
w0.data[0, 0] += h
print(f"numeric dL/dw0[0,0] = {(loss_plus - loss_minus) / (2 * h):.8f}  "
      f"(engine said {w0.grad[0, 0]:.8f})")

# --- fit the classifier with AdamW -------------------------------------------

optimizer = AdamW(params, lr=0.02)
optimizer.zero_grad()
for step in range(301):
    loss = ad.softmax_nll(logits(), labels)
    loss.backward()
    optimizer.step()  # also zeroes the gradients for the next step
    if step % 100 == 0:
        print(f"step {step:>3}: mean NLL = {loss.item() / len(labels):.5f}")

accuracy = np.mean(logits().data.argmax(axis=1) == labels)
print(f"training accuracy = {accuracy:.3f}")
