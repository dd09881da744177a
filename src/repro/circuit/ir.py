"""The arithmetic-circuit IR: nodes, hash-consing builder, forward and
backward passes.

A circuit is a flat, topologically ordered array of nodes over exact
rationals:

* ``PARAM``  — a free probability parameter (an ind/mux edge probability
  or an exp subset weight of the compiled p-document);
* ``CONST``  — a fixed ``Fraction``;
* ``ADD`` / ``MUL`` — n-ary sums and products of earlier nodes.

Every output of the compilation (one per registered c-formula) is a
*multilinear polynomial* in the parameters: each parameter belongs to one
distributional node and the DP combines distinct subtrees purely by
sum-of-products, so no parameter is ever multiplied with itself.  Two
consequences the rest of the subsystem leans on:

* the **backward pass** (reverse-mode differentiation) computes exact
  ∂output/∂θ for *every* parameter in one sweep, and
* central finite differences are *exact* for multilinear functions, which
  is how the tests validate the backward pass against plain re-evaluation.

The builder hash-conses: structurally identical gates (same operation,
same operand multiset) are created once, and constants are folded eagerly
(x·0 → 0, x·1 → x, sums/products of constants collapse).  Evaluation cost
is therefore |circuit| scalar operations with none of the signature
bookkeeping of the DP — which is where the re-bind-and-sweep speedup over
a fresh evaluator run comes from (experiment E12).

The exact sweeps run on integers, not ``Fraction``s: every node value is
an unreduced (numerator, denominator) pair, so no gate pays a gcd and
each output is reduced once, as it leaves as a ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from ..numeric import FLOAT64, INTERVAL, NumericBackend, get_backend, guarded_values
from ..numeric.backends import Interval, _imul
from ..obs.spans import TRACER

PARAM = 0
CONST = 1
ADD = 2
MUL = 3

KIND_NAMES = ("param", "const", "add", "mul")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Builder:
    """Constructs a circuit bottom-up with hash-consing and constant
    folding.  Node ids are dense ints; operands always precede their
    gates, so the arrays are topologically ordered by construction."""

    def __init__(self):
        self.kinds: list[int] = []
        # args[i]: PARAM -> parameter index, CONST -> Fraction,
        #          ADD/MUL -> tuple of operand node ids.
        self.args: list = []
        self.param_nodes: list[int] = []
        self._const_memo: dict[Fraction, int] = {}
        self._gate_memo: dict[tuple, int] = {}
        self.zero = self.const(_ZERO)
        self.one = self.const(_ONE)
        self._minus_one = self.const(Fraction(-1))

    def _append(self, kind: int, arg) -> int:
        self.kinds.append(kind)
        self.args.append(arg)
        return len(self.kinds) - 1

    def const(self, value) -> int:
        value = Fraction(value)
        node = self._const_memo.get(value)
        if node is None:
            node = self._const_memo[value] = self._append(CONST, value)
        return node

    def param(self) -> int:
        """A fresh parameter node (never shared: distinct parameters are
        distinct even when their current values coincide)."""
        node = self._append(PARAM, len(self.param_nodes))
        self.param_nodes.append(node)
        return node

    def add(self, operands: Sequence[int]) -> int:
        """Σ operands (a multiset — duplicates mean 2x, kept as given)."""
        total = _ZERO
        rest: list[int] = []
        for node in operands:
            if self.kinds[node] == CONST:
                total += self.args[node]
            else:
                rest.append(node)
        if not rest:
            return self.const(total)
        if total != 0:
            rest.append(self.const(total))
        if len(rest) == 1:
            return rest[0]
        key = (ADD, tuple(sorted(rest)))
        node = self._gate_memo.get(key)
        if node is None:
            node = self._gate_memo[key] = self._append(ADD, key[1])
        return node

    def mul(self, operands: Sequence[int]) -> int:
        """Π operands (again a multiset; x·x is a degree-2 term)."""
        product = _ONE
        rest: list[int] = []
        for node in operands:
            if self.kinds[node] == CONST:
                product *= self.args[node]
            else:
                rest.append(node)
        if product == 0 or not rest:
            return self.const(product)
        if product != 1:
            rest.append(self.const(product))
        if len(rest) == 1:
            return rest[0]
        key = (MUL, tuple(sorted(rest)))
        node = self._gate_memo.get(key)
        if node is None:
            node = self._gate_memo[key] = self._append(MUL, key[1])
        return node

    def one_minus(self, node: int) -> int:
        """1 - x, expressed with the four node kinds only."""
        return self.add([self.one, self.mul([self._minus_one, node])])


def _compact(kinds, args, param_nodes, outputs):
    """Dead-code elimination: keep only nodes reachable from the outputs.

    The tracer materializes the *full* signature distribution at every
    document position, but the root analysis consumes only the satisfying
    signatures — typically ~90% of the traced gates never feed an output.
    Parameters are exempt (kept even when dead) so parameter positions
    keep lining up with :func:`repro.pdoc.parameters.parameter_slots`;
    their gradients are simply 0.
    """
    count = len(kinds)
    live = bytearray(count)
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if live[node]:
            continue
        live[node] = 1
        if kinds[node] >= ADD:
            stack.extend(args[node])
    for node in param_nodes:
        live[node] = 1
    remap = [0] * count
    new_kinds: list[int] = []
    new_args: list = []
    for node in range(count):
        if not live[node]:
            continue
        remap[node] = len(new_kinds)
        new_kinds.append(kinds[node])
        if kinds[node] >= ADD:
            new_args.append(tuple(remap[operand] for operand in args[node]))
        else:
            new_args.append(args[node])
    return (
        new_kinds,
        new_args,
        [remap[node] for node in param_nodes],
        [remap[node] for node in outputs],
    )


class _Lowered:
    """One arithmetic's view of a circuit: the constants lowered once
    (``template``; parameter and gate slots are ``None``), the parameter
    binding lowered once per re-bind (``params``) and the node values of
    the last forward sweep (``values``, which the reverse sweep reads).

    ``exact`` keeps its template and values as a (numerators,
    denominators) pair of int lists and lowers the binding inside each
    sweep (``params`` stays ``None``), so one sweep reads one binding."""

    __slots__ = ("template", "params", "values")

    def __init__(self, template: list):
        self.template = template
        self.params: list | None = None
        self.values: list | None = None


class Circuit:
    """An immutable compiled circuit plus its current parameter binding.

    ``forward()`` evaluates every gate once and returns the output
    values (exact ``Fraction``s by default); ``gradient(k)`` runs one
    reverse sweep and returns ∂output_k/∂θ for every parameter θ.
    ``set_param_values`` re-binds the parameters in O(1) per parameter —
    evaluation cost after a re-bind is one forward sweep, never a
    recompilation.
    """

    __slots__ = ("kinds", "args", "param_nodes", "param_values", "outputs",
                 "_gates", "_lowered")

    def __init__(
        self,
        kinds: Sequence[int],
        args: Sequence,
        param_nodes: Sequence[int],
        param_values: Sequence[Fraction],
        outputs: Sequence[int],
    ):
        kinds, args, param_nodes, outputs = _compact(
            kinds, args, param_nodes, outputs
        )
        self.kinds = tuple(kinds)
        self.args = tuple(args)
        self.param_nodes = tuple(param_nodes)
        self.param_values = [Fraction(v) for v in param_values]
        if len(self.param_values) != len(self.param_nodes):
            raise ValueError("one value per parameter required")
        self.outputs = tuple(outputs)
        # The gate program: only ADD/MUL slots need per-sweep work.
        self._gates = tuple(
            (kind == ADD, node, args[node])
            for node, kind in enumerate(kinds)
            if kind >= ADD
        )
        # Per-arithmetic lowered state, keyed by backend name and built on
        # first use: templates are compile-time constants, params and
        # values are dropped on every re-bind.  Pre-lowered floats and
        # integer pairs are what keep both point sweeps free of Fractions.
        self._lowered: dict[str, _Lowered] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def num_params(self) -> int:
        return len(self.param_nodes)

    # -- parameter re-binding -------------------------------------------------
    def set_param_values(self, values: Sequence[Fraction]) -> None:
        if len(values) != len(self.param_nodes):
            raise ValueError(
                f"expected {len(self.param_nodes)} parameter values, "
                f"got {len(values)}"
            )
        self.param_values = [Fraction(v) for v in values]
        for state in list(self._lowered.values()):
            state.params = state.values = None

    def _state(self, backend: NumericBackend) -> tuple[_Lowered, list]:
        """The float64 or interval lowered state and its parameter values
        at the current binding."""
        state = self._lowered.get(backend.name)
        if state is None:
            lift = backend.lift
            state = self._lowered[backend.name] = _Lowered([
                lift(arg) if kind == CONST else None
                for kind, arg in zip(self.kinds, self.args)
            ])
        params = state.params
        if params is None:
            params = state.params = [backend.lift(v) for v in self.param_values]
        return state, params

    def _exact_state(self) -> _Lowered:
        """The exact lowered state: constants as (numerators,
        denominators) int lists."""
        state = self._lowered.get("exact")
        if state is None:
            consts = [
                arg if kind == CONST else None
                for kind, arg in zip(self.kinds, self.args)
            ]
            state = self._lowered["exact"] = _Lowered((
                [None if c is None else c.numerator for c in consts],
                [None if c is None else c.denominator for c in consts],
            ))
        return state

    # -- forward pass ---------------------------------------------------------
    def forward(self, backend: str | None = None) -> list:
        """Evaluate every output at the current parameter binding.

        ``backend`` selects the arithmetic (``repro.numeric``): ``exact``
        (default) returns ``Fraction``s, ``float64`` doubles, ``interval``
        :class:`~repro.numeric.Interval` enclosures that always contain
        the exact outputs, and ``"auto"`` the guarded mix — exact
        ``Fraction``s for outputs whose sign the interval sweep cannot
        certify, midpoint floats for the rest.
        """
        name = "auto" if backend == "auto" else get_backend(backend).name
        if not TRACER.enabled:
            return self._forward_backend(name)
        with TRACER.span(
            "circuit.forward",
            gates=len(self._gates),
            nodes=len(self.kinds),
            params=len(self.param_nodes),
            outputs=len(self.outputs),
            backend=name,
        ):
            return self._forward_backend(name)

    def _forward_backend(self, name: str) -> list:
        if name == "auto":
            return self._forward_auto()
        if name == "exact":
            return self._exact_outputs(range(len(self.outputs)))
        if name == "interval":
            values = self._sweep_interval()
            return [Interval(*values[o]) for o in self.outputs]
        values = self._sweep_float64()
        return [values[o] for o in self.outputs]

    def _exact_outputs(self, indices) -> list[Fraction]:
        """The outputs at ``indices`` from one exact sweep, each reduced
        once into a ``Fraction``."""
        nums, dens = self._sweep_exact()
        outputs = self.outputs
        return [Fraction(nums[outputs[i]], dens[outputs[i]]) for i in indices]

    def _sweep_exact(self) -> tuple[list[int], list[int]]:
        """Every node's exact value as an unreduced (numerator,
        denominator) pair of ints.  A ``MUL`` multiplies both parts; an
        ``ADD`` sums the numerators when its operands' denominators are
        equal (as in most convolution sums) and brings them over their
        lcm otherwise.  Denominators stay positive and only multiply or
        take lcms of leaf denominators, the factors the reduced value
        mostly needs as well, so skipping the gcds costs little size
        (docs/CIRCUIT.md)."""
        state = self._exact_state()
        nums, dens = state.template
        nums = nums[:]
        dens = dens[:]
        for node, value in zip(self.param_nodes, self.param_values):
            nums[node] = value.numerator
            dens[node] = value.denominator
        num_of = nums.__getitem__
        den_of = dens.__getitem__
        for is_add, node, operands in self._gates:
            if is_add:
                terms = list(map(den_of, operands))
                den = terms[0]
                if terms.count(den) == len(terms):
                    nums[node] = sum(map(num_of, operands))
                else:
                    den = lcm(*terms)
                    nums[node] = sum([
                        nums[j] if d == den else nums[j] * (den // d)
                        for j, d in zip(operands, terms)
                    ])
                dens[node] = den
            elif len(operands) == 2:
                left, right = operands
                nums[node] = nums[left] * nums[right]
                dens[node] = dens[left] * dens[right]
            else:
                nums[node] = prod(map(num_of, operands))
                dens[node] = prod(map(den_of, operands))
        state.values = (nums, dens)
        return nums, dens

    def _sweep_float64(self) -> list[float]:
        """Every node's value: the float64 point forward sweep (one
        round-to-nearest double per operation), each gate one ``sum`` or
        ``prod`` over the lowered values."""
        state, params = self._state(FLOAT64)
        values = state.template[:]
        for node, value in zip(self.param_nodes, params):
            values[node] = value
        # CONST slots are pre-filled by the template; only gates compute.
        get = values.__getitem__
        for is_add, node, operands in self._gates:
            if is_add:
                values[node] = sum(map(get, operands), 0.0)
            else:
                values[node] = prod(map(get, operands))
        state.values = values
        return values

    def _sweep_interval(self) -> list[tuple[float, float]]:
        """Every node's enclosure: the interval kernel, with every
        operation outward-rounded by one ulp, so each raw (lo, hi) pair
        encloses the exact value."""
        state, params = self._state(INTERVAL)
        values = state.template[:]
        for node, value in zip(self.param_nodes, params):
            values[node] = value
        na = math.nextafter
        inf = math.inf
        for is_add, node, operands in self._gates:
            first = operands[0]
            acc = values[first]
            if is_add:
                lo, hi = acc
                for j in operands[1:]:
                    vlo, vhi = values[j]
                    # Adding an exact 0.0 endpoint is exact: exact zeros
                    # stay [0, 0] point intervals through the circuit.
                    s = lo + vlo
                    lo = s if lo == 0.0 or vlo == 0.0 else na(s, -inf)
                    s = hi + vhi
                    hi = s if hi == 0.0 or vhi == 0.0 else na(s, inf)
                values[node] = (lo, hi)
            else:
                # _imul handles the sign cases (the ``1 - x`` encoding
                # multiplies by the constant -1).
                for j in operands[1:]:
                    acc = _imul(acc, values[j])
                values[node] = acc
        state.values = values
        return values

    def _forward_auto(self) -> list:
        """The guarded forward (sign decisions only): the interval sweep,
        and one exact sweep when some output's enclosure straddles 0."""
        enclosures = self._sweep_interval()
        return guarded_values(
            [enclosures[o] for o in self.outputs], self._exact_outputs
        )

    # -- batched (vectorized) passes ------------------------------------------
    def forward_batch(self, bindings):
        """Evaluate every output at N parameter bindings in one sweep.

        ``bindings`` is a :class:`~repro.circuit.batch.BatchBinding` (or
        any iterable of per-binding parameter vectors); the result is the
        float64 array of shape ``(n_outputs, N)``.  Column ``i`` is
        bitwise identical to ``forward(backend="float64")`` after
        ``set_param_values(bindings[i])`` — the batch backend inherits
        the scalar fast path's certification (and sits inside the
        interval backend's enclosures) by construction.  Requires numpy.
        """
        from .batch import as_batch, run_forward_batch

        batch = as_batch(bindings, len(self.param_nodes))
        if not TRACER.enabled:
            return run_forward_batch(self, batch.values)
        with TRACER.span(
            "circuit.forward_batch",
            gates=len(self._gates),
            params=len(self.param_nodes),
            outputs=len(self.outputs),
            bindings=batch.n,
        ):
            return run_forward_batch(self, batch.values)

    def gradient_batch(self, bindings, output: int = 0):
        """[∂output/∂θ] at N bindings: a ``(num_params, N)`` float64 array.

        One vectorized reverse sweep with the same division-free
        prefix/suffix MUL adjoints as :meth:`gradient`; column ``i`` is
        bitwise identical to the scalar ``gradient(output,
        backend="float64")`` at binding ``i``.  Requires numpy.
        """
        from .batch import as_batch, run_gradient_batch

        batch = as_batch(bindings, len(self.param_nodes))
        if not TRACER.enabled:
            return run_gradient_batch(self, batch.values, output)
        with TRACER.span(
            "circuit.gradient_batch",
            gates=len(self._gates),
            params=len(self.param_nodes),
            bindings=batch.n,
        ):
            return run_gradient_batch(self, batch.values, output)

    # -- backward pass --------------------------------------------------------
    def gradient(self, output: int = 0, backend: str | None = None) -> list:
        """[∂output/∂θ for every parameter θ] in one reverse sweep.

        Products distribute their adjoint via prefix/suffix partial
        products, so zero-valued operands need no special casing (and no
        value is ever divided by).  ``backend`` selects the arithmetic:
        ``exact`` Fractions (default; swept on integer pairs like the
        forward) or ``float64`` doubles; ``auto`` is a decision policy and
        ``interval`` has no reverse sweep, so both raise ``ValueError``.
        """
        resolved = get_backend(backend)
        if resolved is INTERVAL:
            raise ValueError(
                "gradients are computed in 'exact' or 'float64' arithmetic; "
                "there is no interval reverse sweep"
            )
        reverse = self._gradient_exact if resolved.exact else self._gradient_float64
        if not TRACER.enabled:
            return reverse(output)
        with TRACER.span(
            "circuit.gradient", gates=len(self._gates),
            params=len(self.param_nodes), backend=resolved.name,
        ):
            return reverse(output)

    def _last_sweep(self, name: str):
        state = self._lowered.get(name)
        return None if state is None else state.values

    def _gradient_exact(self, output: int) -> list[Fraction]:
        """The exact reverse sweep on (numerator, denominator) pairs, by
        the forward sweep's rules, over the pairs of the last exact
        sweep at this binding."""
        nums, dens = self._last_sweep("exact") or self._sweep_exact()
        count = len(self.kinds)
        adjoint_num = [0] * count
        adjoint_den = [1] * count
        adjoint_num[self.outputs[output]] = 1

        def accumulate(node: int, num: int, den: int) -> None:
            current = adjoint_num[node]
            if not current:
                adjoint_num[node] = num
                adjoint_den[node] = den
                return
            old = adjoint_den[node]
            if old == den:
                adjoint_num[node] = current + num
            else:
                common = lcm(old, den)
                adjoint_num[node] = current * (common // old) + num * (common // den)
                adjoint_den[node] = common

        for is_add, node, operands in reversed(self._gates):
            seed_num = adjoint_num[node]
            if not seed_num:
                continue
            seed_den = adjoint_den[node]
            if is_add:
                for j in operands:
                    accumulate(j, seed_num, seed_den)
                continue
            # Prefix products left to right; the suffix product, seeded
            # with the gate's adjoint, grows right to left.
            prefix_num = [1]
            prefix_den = [1]
            for j in operands[:-1]:
                prefix_num.append(prefix_num[-1] * nums[j])
                prefix_den.append(prefix_den[-1] * dens[j])
            for k in range(len(operands) - 1, -1, -1):
                j = operands[k]
                accumulate(j, seed_num * prefix_num[k], seed_den * prefix_den[k])
                seed_num *= nums[j]
                seed_den *= dens[j]
        return [
            Fraction(adjoint_num[node], adjoint_den[node])
            for node in self.param_nodes
        ]

    def _gradient_float64(self, output: int) -> list[float]:
        """The float64 reverse sweep, over the node values of the last
        float64 forward sweep at this binding."""
        values = self._last_sweep("float64") or self._sweep_float64()
        one = 1.0
        adjoint = [0.0] * len(self.kinds)
        adjoint[self.outputs[output]] = one
        # Reverse sweep over the gate program; PARAM/CONST adjoints never
        # propagate further, so gates are the only nodes that do work.
        for is_add, node, operands in reversed(self._gates):
            seed = adjoint[node]
            if seed == 0:
                continue
            if is_add:
                for j in operands:
                    adjoint[j] += seed
            else:
                count = len(operands)
                prefix = [one] * (count + 1)
                for k in range(count):
                    prefix[k + 1] = prefix[k] * values[operands[k]]
                suffix = one
                for k in range(count - 1, -1, -1):
                    adjoint[operands[k]] += seed * prefix[k] * suffix
                    suffix *= values[operands[k]]
        return [adjoint[node] for node in self.param_nodes]

    # -- observability --------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Node counts by kind plus size/shape summary (CLI ``circuit
        stats`` and the service's /metrics surface this)."""
        by_kind = [0, 0, 0, 0]
        operands = 0
        for i, kind in enumerate(self.kinds):
            by_kind[kind] += 1
            if kind in (ADD, MUL):
                operands += len(self.args[i])
        return {
            "nodes": len(self.kinds),
            "params": by_kind[PARAM],
            "consts": by_kind[CONST],
            "adds": by_kind[ADD],
            "muls": by_kind[MUL],
            "edges": operands,
            "outputs": len(self.outputs),
        }
