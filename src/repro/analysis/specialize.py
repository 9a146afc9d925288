"""Per-policy engine specialization: one fast step loop per kind.

The paper's complexity story says the flat/OO analyses are polynomial
*because* their environment structure is degenerate — yet the generic
:class:`~repro.analysis.kernel.Kernel` pays the fully general price
(context tuples built per reference, free-variable copy reads, a
polymorphic eval/apply dispatch) for every policy, including 0CFA
where the context is always ``()``.  Given a machine whose policy
declares its axes (env rep shared/flat, tick arity, alloc shape — see
:mod:`repro.analysis.policies`), :func:`specialize_machine` is the one
place that picks the kind's fast loop:

* flat envs under a context-free allocator (0CFA; m-CFA and
  poly-k-CFA at depth 0) — :class:`ZeroFlatKernel`.  Every
  environment is the empty tuple, so addresses, successor
  configurations, closure bits and letrec joins fold to constants,
  and the free-variable copy reads vanish (the copy guard
  ``ρ̂'' ≠ ρ̂`` is statically false);
* flat envs at depth ≥ 1 — codegen ``flat``
  (:mod:`repro.analysis.codegen`), or the generic kernel when codegen
  declines a program too deep to fingerprint;
* shared envs (the k-CFA family) — :class:`CompiledSharedKernel`:
  pre-bound tick and address constructors, monomorphic eval/apply
  dispatch, the §3.4 apply rule inlined against the rep's extend memo;
* flat FJ under a receiver-insensitive context-free policy
  (``fj-poly`` at k = 0) — codegen ``zero-fj-flat``;
* anything else (pushdown, the naive drivers, receiver-sensitive
  flat FJ, the map-based FJ machine) — ``None``: the generic machine
  is the one loop.

**The contract is byte-identity, trajectory included.**  A compiled
step must produce the same successors with the same joins *in the
same order* as the generic machine, and intern abstract values in the
same global order — the engine's worklist is FIFO, so matching
trajectories keep even the ``steps`` counter of a run identical,
which is what lets CI diff whole bench reports across the two paths
(and the golden suite pin reports down to the byte).  That is why
compilation is *lazy*, per call node, at its first step: the generic
kernel interns a node's literal/closure bits at exactly that moment.
Within a primitive step, the continuation atom and the pair bit are
compiled lazily past the empty-argument bail-out for the same reason.

``tests/test_specialize.py`` holds every registered analysis to that
contract across both value domains; the ``--no-specialize`` escape
hatch on ``analyze``/``bench``/``serve`` selects the generic loop.
"""

from __future__ import annotations

from repro.analysis.domains import APair, BASIC, FClo, KClo, \
    abstract_literal
from repro.analysis.kernel import (
    FConfig, FlatEnv, KConfig, Kernel, SharedEnv,
)
from repro.cps.syntax import (
    AppCall, FixCall, HaltCall, IfCall, Lam, PrimCall, Ref,
)
from repro.scheme.primitives import lookup_primitive

_MISSING = object()

#: The constant flat environment of every context-free flat policy.
_EMPTY = ()


def specialize_machine(machine):
    """The specialization stage: the fast step loop for *machine*'s
    kind (see the module docstring), or ``None`` when the generic
    machine is the one loop for its kind."""
    from repro.analysis.codegen import codegen_machine
    if isinstance(machine, Kernel):
        rep = machine.rep
        if isinstance(rep, FlatEnv):
            if getattr(rep.alloc, "context_free", False):
                return ZeroFlatKernel(machine.program, rep)
            return codegen_machine(machine)
        if isinstance(rep, SharedEnv):
            return CompiledSharedKernel(machine.program, rep)
        # SummaryEnv (the pushdown rep) is deliberately not covered:
        # its step cost is already flat (entry keys are memoized and
        # the stack/heap split is static), and its entry environments
        # depend on run-time argument signatures, so there is nothing
        # to fold at compile time.  Its spec registers
        # ``specialized=False``; tests/test_pushdown.py asserts the
        # knob stays honest.
        return None
    return codegen_machine(machine)


class _CompiledKernel(Kernel):
    """A kernel whose step loop is compiled per call node, lazily.

    Subclasses provide ``_compile(call)``, which returns the node's
    step function; the dispatch below replaces the generic kernel's
    isinstance chain with one dict probe on the call label (labels
    are unique per program).
    """

    specialization = "compiled"

    def boot(self, store):
        config = super().boot(store)
        self._compiled: dict[int, object] = {}
        return config

    def step(self, config, store, reads, recorder):
        call = config.call
        fn = self._compiled.get(call.label)
        if fn is None:
            fn = self._compile(call)
            self._compiled[call.label] = fn
        return fn(config, store, reads, recorder)

    def _compile(self, call):
        raise NotImplementedError

    def _lit_bit(self, exp):
        """The generic kernel's literal memo, shared so a fallback to
        the generic ``evaluate`` stays consistent."""
        bit = self._lit_bits.get(id(exp))
        if bit is None:
            bit = self.table.bit_for(abstract_literal(exp.datum))
            self._lit_bits[id(exp)] = bit
        return bit


def _zero_atom_spec(exp):
    """Structural atom spec: ``(addr, None)`` for a reference,
    ``(None, exp)`` for a closure or literal whose bit is interned at
    bind time (no table access here)."""
    if type(exp) is Ref:
        return ((exp.name, _EMPTY), None)
    return (None, exp)


def _zero_read_addrs(exps) -> tuple:
    return tuple([(exp.name, _EMPTY) for exp in exps
                  if type(exp) is Ref])


def _zero_flat_plans(program):
    """The table-independent compilation of a whole program for the
    context-free flat kernel: per-call structural plans (constant
    addresses, successor configurations, read sets) plus a shared
    per-lambda entry-plan cache.  Pure program structure — safe to
    cache on the :class:`~repro.cps.program.Program` across runs and
    value domains (bind-time interning is what stays per-run)."""
    call_plans = {}
    for label, call in program.calls_by_label.items():
        kind = type(call)
        if kind is AppCall:
            call_plans[label] = (
                "app", label, _zero_atom_spec(call.fn),
                tuple([_zero_atom_spec(arg) for arg in call.args]),
                _zero_read_addrs((call.fn, *call.args)))
        elif kind is IfCall:
            call_plans[label] = (
                "if", _zero_atom_spec(call.test),
                (FConfig(call.then, _EMPTY), ()),
                (FConfig(call.orelse, _EMPTY), ()))
        elif kind is PrimCall:
            call_plans[label] = (
                "prim", label, lookup_primitive(call.op).kind,
                tuple([_zero_atom_spec(arg) for arg in call.args]),
                _zero_read_addrs(call.args),
                (f"car@{label}", _EMPTY), (f"cdr@{label}", _EMPTY),
                FConfig(call, _EMPTY), _zero_atom_spec(call.cont))
        elif kind is FixCall:
            call_plans[label] = (
                "fix",
                tuple([((name, _EMPTY), lam)
                       for name, lam in call.bindings]),
                FConfig(call.body, _EMPTY))
        elif kind is HaltCall:
            call_plans[label] = ("halt", _zero_atom_spec(call.arg))
        else:
            raise TypeError(f"cannot step call {call!r}")
    return call_plans, {}


class ZeroFlatKernel(_CompiledKernel):
    """Flat environments with a context-free allocator, fully folded.

    Every environment is ``()``: addresses ``(name, ())``, closures
    ``FClo(lam, ())`` and successor configurations are compile-time
    constants, parameter addresses are pre-zipped per lambda, and the
    free-variable copy loop is gone — ``ρ̂'' = ρ̂`` always, so the §5.2
    copy guard can never fire.

    Compilation is two-phase.  The **structural plan** (addresses,
    successor configurations, read sets — :func:`_zero_flat_plans`)
    touches no value table, so it is built at boot and cached on the
    program across runs.  The **bind** phase runs lazily at a node's
    first step and does only the table work — interning closure and
    literal bits in exactly the order the generic kernel would, which
    is what keeps the two paths' interning orders (and therefore
    their whole trajectories) identical.

    A second consequence of the constant environment: there is exactly
    **one reachable configuration per call node**, and (primitive
    pair projections aside) its read set is a compile-time constant.
    Each bound step therefore populates the engine's read set only on
    its first execution — reader registration is idempotent, so
    dirtying and re-enqueueing are unchanged — and re-visits skip
    straight to the mask reads.
    """

    specialization = "zero-flat"

    def boot(self, store):
        config = super().boot(store)
        program = self.program
        plans = getattr(program, "_zero_flat_plans", None)
        if plans is None:
            plans = _zero_flat_plans(program)
            program._zero_flat_plans = plans
        self._call_plans, self._lam_plans = plans
        return config

    def _compile(self, call):
        plan = self._call_plans[call.label]
        tag = plan[0]
        if tag == "app":
            return self._bind_app(plan)
        if tag == "prim":
            return self._bind_prim(plan)
        if tag == "if":
            return self._bind_if(plan)
        if tag == "fix":
            return self._bind_fix(plan)
        return self._bind_halt(plan)

    # -- bind: the per-run table work ----------------------------------

    def _const_bit(self, exp):
        if type(exp) is Lam:
            return self.table.bit_for(FClo(exp, _EMPTY))
        return self._lit_bit(exp)

    def _bind_atoms(self, specs):
        """Per-run ``(addr, mask)`` plans, interning constant atoms in
        evaluation order."""
        return tuple([
            (addr, None if exp is None else self._const_bit(exp))
            for addr, exp in specs])

    def _entry_maker(self, label, nargs):
        """The per-operator apply plan, against the shared per-lambda
        structure cache."""
        lam_plans = self._lam_plans

        def entry_for(operator, recorder):
            if type(operator) is not FClo:
                return None
            lam = operator.lam
            if len(lam.params) != nargs:
                return None
            # First sight of this operator at this site — exactly when
            # the generic kernel would first record the apply.
            recorder.record_apply(label, lam, _EMPTY)
            entry = lam_plans.get(lam.label)
            if entry is None:
                entry = (FConfig(lam.body, _EMPTY),
                         tuple([(param, _EMPTY)
                                for param in lam.params]))
                lam_plans[lam.label] = entry
            return entry
        return entry_for

    def _bind_app(self, plan):
        _tag, label, fn_spec, arg_specs, read_addrs = plan
        basic = self._basic
        entries: dict = {}
        # Bits intern in evaluation order (fn first) so they appear
        # exactly when the generic kernel's first step would intern
        # them.
        fn_addr, fn_exp = fn_spec
        fn_bit = None if fn_exp is None else self._const_bit(fn_exp)
        arg_plans = self._bind_atoms(arg_specs)
        entry_for = self._entry_maker(label, len(arg_plans))
        recorded: list = []

        if self.table.interned:
            # Interned masks are ints: iterate set bits directly with
            # an int-keyed entry memo — no decode generator, and the
            # operator *objects* are only touched on a bit's first
            # sight (bit order is interning order, which matches the
            # generic kernel's decode order by construction).
            values = self.table._values

            def step(config, store, reads, recorder):
                if not recorded:
                    recorded.append(True)
                    reads.update(read_addrs)
                get_mask = store.get_mask
                operators = get_mask(fn_addr) if fn_addr is not None \
                    else fn_bit
                if operators & basic:
                    recorder.unknown_operator.add(label)
                arg_masks = [get_mask(addr) if addr is not None else bit
                             for addr, bit in arg_plans]
                succs = []
                entry_of = entries.get
                mask = operators
                while mask:
                    low = mask & -mask
                    mask ^= low
                    entry = entry_of(low, _MISSING)
                    if entry is _MISSING:
                        entry = entry_for(
                            values[low.bit_length() - 1], recorder)
                        entries[low] = entry
                    if entry is None:
                        continue
                    succ, param_addrs = entry
                    succs.append(
                        (succ, list(zip(param_addrs, arg_masks))))
                return succs
            return step

        decode_iter = self.table.decode_iter

        def step(config, store, reads, recorder):
            if not recorded:
                recorded.append(True)
                reads.update(read_addrs)
            get_mask = store.get_mask
            operators = get_mask(fn_addr) if fn_addr is not None \
                else fn_bit
            if operators & basic:
                recorder.unknown_operator.add(label)
            arg_masks = [get_mask(addr) if addr is not None else bit
                         for addr, bit in arg_plans]
            succs = []
            entry_of = entries.get
            for operator in decode_iter(operators):
                key = id(operator)
                entry = entry_of(key, _MISSING)
                if entry is _MISSING:
                    entry = entry_for(operator, recorder)
                    entries[key] = entry
                if entry is None:
                    continue
                succ, param_addrs = entry
                succs.append(
                    (succ, list(zip(param_addrs, arg_masks))))
            return succs
        return step

    def _bind_if(self, plan):
        _tag, (test_addr, test_exp), then_succ, else_succ = plan
        test_bit = None if test_exp is None else self._const_bit(test_exp)
        any_truthy = self.table.any_truthy
        any_falsy = self.table.any_falsy
        recorded: list = []

        def step(config, store, reads, recorder):
            if test_addr is not None:
                if not recorded:
                    recorded.append(True)
                    reads.add(test_addr)
                test = store.get_mask(test_addr)
            else:
                test = test_bit
            succs = []
            if any_truthy(test):
                succs.append(then_succ)
            if any_falsy(test):
                succs.append(else_succ)
            return succs
        return step

    def _bind_fix(self, plan):
        _tag, binding_specs, succ = plan
        bit_for = self.table.bit_for
        joins = tuple([(addr, bit_for(FClo(lam, _EMPTY)))
                       for addr, lam in binding_specs])
        result = [(succ, joins)]
        return lambda config, store, reads, recorder: result

    def _bind_halt(self, plan):
        _tag, (arg_addr, arg_exp) = plan
        arg_bit = None if arg_exp is None else self._const_bit(arg_exp)
        decode = self.table.decode
        recorded: list = []

        def step(config, store, reads, recorder):
            if arg_addr is not None:
                if not recorded:
                    recorded.append(True)
                    reads.add(arg_addr)
                mask = store.get_mask(arg_addr)
            else:
                mask = arg_bit
            recorder.halt_values |= decode(mask)
            return []
        return step

    def _bind_prim(self, plan):
        (_tag, label, kind, arg_specs, arg_read_addrs, car_addr,
         cdr_addr, self_succ, cont_spec) = plan
        basic = self._basic
        table = self.table
        decode_iter = table.decode_iter
        arg_plans = self._bind_atoms(arg_specs)
        entry_for = self._entry_maker(label, 1)
        # The continuation bit and the pair bit intern lazily, past
        # the empty-argument bail-out: the generic kernel only reaches
        # them on a step where every argument already flows.
        cont_addr, cont_exp = cont_spec
        cont_cell: list = []
        pair_cell: list = []
        entries: dict = {}
        args_recorded: list = []
        cont_recorded: list = []

        def step(config, store, reads, recorder):
            if not args_recorded:
                args_recorded.append(True)
                reads.update(arg_read_addrs)
            get_mask = store.get_mask
            arg_masks = [get_mask(addr) if addr is not None else bit
                         for addr, bit in arg_plans]
            if kind == "error":
                return []
            for mask in arg_masks:
                if not mask:
                    return []
            extra_joins = ()
            if kind == "basic":
                result = basic
            elif kind == "cons":
                extra_joins = ((car_addr, arg_masks[0]),
                               (cdr_addr, arg_masks[1]))
                if not pair_cell:
                    pair_cell.append(
                        table.bit_for(APair(car_addr, cdr_addr)))
                result = pair_cell[0]
            else:  # car / cdr — the one dynamic read set: pair-field
                # addresses appear as values flow, so they are re-read
                # (and re-recorded) on every visit.
                gathered = table.empty
                want_car = kind == "car"
                for value in decode_iter(arg_masks[0]):
                    if type(value) is APair:
                        addr = value.car if want_car else value.cdr
                        reads.add(addr)
                        gathered |= get_mask(addr)
                    elif value is BASIC:
                        gathered |= basic
                if not gathered:
                    return []
                result = gathered
            if cont_addr is not None:
                # Recorded on the first *non-bailing* visit — the
                # generic kernel never reads the continuation on a
                # step that bailed on an unreachable argument.
                if not cont_recorded:
                    cont_recorded.append(True)
                    reads.add(cont_addr)
                conts = get_mask(cont_addr)
            else:
                if not cont_cell:
                    cont_cell.append(self._const_bit(cont_exp))
                conts = cont_cell[0]
            succs = []
            entry_of = entries.get
            for operator in decode_iter(conts):
                key = id(operator)
                entry = entry_of(key, _MISSING)
                if entry is _MISSING:
                    entry = entry_for(operator, recorder)
                    if entry is not None:
                        # Continuations are unary: pre-project the one
                        # parameter address out of the shared plan.
                        entry = (entry[0], entry[1][0])
                    entries[key] = entry
                if entry is None:
                    continue
                succ, param_addr = entry
                succs.append(
                    (succ, ((param_addr, result),) + extra_joins))
            if not succs and extra_joins:
                # Keep the pair fields even with no continuation yet.
                succs.append((self_succ, extra_joins))
            return succs
        return step


class CompiledSharedKernel(_CompiledKernel):
    """Shared environments (k-CFA): pre-bound tick and address
    constructors, the §3.4 apply rule inlined against the rep's
    extend memo."""

    specialization = "shared"

    def boot(self, store):
        config = super().boot(store)
        self._compilers = {
            AppCall: self._compile_app,
            IfCall: self._compile_if,
            PrimCall: self._compile_prim,
            FixCall: self._compile_fix,
            HaltCall: self._compile_halt,
        }
        return config

    def _compile(self, call):
        compiler = self._compilers.get(type(call))
        if compiler is None:
            raise TypeError(f"cannot step call {call!r}")
        return compiler(call)

    def _atom(self, exp):
        """``ev(config, store, reads) -> mask`` with the reference
        name / closure constructor pre-bound."""
        if type(exp) is Ref:
            name = exp.name

            def ev(config, store, reads, _name=name):
                addr = (_name, config.benv[_name])
                reads.add(addr)
                return store.get_mask(addr)
            return ev
        if type(exp) is Lam:
            close_bit = self.rep.close_bit

            def ev(config, store, reads, _exp=exp):
                return close_bit(config, _exp)
            return ev
        bit = self._lit_bit(exp)
        return lambda config, store, reads, _bit=bit: _bit

    def _compile_halt(self, call: HaltCall):
        arg_ev = self._atom(call.arg)
        decode = self.table.decode

        def step(config, store, reads, recorder):
            recorder.halt_values |= decode(arg_ev(config, store, reads))
            return []
        return step

    def _compile_app(self, call: AppCall):
        label = call.label
        fn_ev = self._atom(call.fn)
        arg_evs = tuple(self._atom(arg) for arg in call.args)
        nargs = len(arg_evs)
        basic = self._basic
        decode_iter = self.table.decode_iter
        tick = self.rep.tick
        extend_memo = self.rep._extend_memo
        arity: dict = {}

        def step(config, store, reads, recorder):
            operators = fn_ev(config, store, reads)
            if operators & basic:
                recorder.unknown_operator.add(label)
            arg_masks = [ev(config, store, reads) for ev in arg_evs]
            ctx = tick(label, config.time)
            succs = []
            lam_of = arity.get
            for operator in decode_iter(operators):
                key = id(operator)
                lam = lam_of(key, _MISSING)
                if lam is _MISSING:
                    lam = operator.lam \
                        if type(operator) is KClo \
                        and len(operator.lam.params) == nargs else None
                    arity[key] = lam
                if lam is None:
                    continue
                key = (operator.benv, lam.label, ctx)
                body_benv = extend_memo.get(key)
                if body_benv is None:
                    body_benv = operator.benv.extend(lam.params, ctx)
                    extend_memo[key] = body_benv
                joins = tuple(((param, ctx), mask)
                              for param, mask in zip(lam.params,
                                                     arg_masks))
                recorder.record_apply(label, lam, body_benv)
                succs.append((KConfig(lam.body, body_benv, ctx),
                              joins))
            return succs
        return step

    def _compile_if(self, call: IfCall):
        test_ev = self._atom(call.test)
        then_call, else_call = call.then, call.orelse
        any_truthy = self.table.any_truthy
        any_falsy = self.table.any_falsy

        def step(config, store, reads, recorder):
            test = test_ev(config, store, reads)
            succs = []
            if any_truthy(test):
                succs.append(
                    (KConfig(then_call, config.benv, config.time), ()))
            if any_falsy(test):
                succs.append(
                    (KConfig(else_call, config.benv, config.time), ()))
            return succs
        return step

    def _compile_fix(self, call: FixCall):
        rep_fix = self.rep.fix

        def step(config, store, reads, recorder, _call=call):
            return [rep_fix(config, _call)]
        return step

    def _compile_prim(self, call: PrimCall):
        label = call.label
        prim = lookup_primitive(call.op)
        kind = prim.kind
        arg_evs = tuple(self._atom(arg) for arg in call.args)
        basic = self._basic
        table = self.table
        decode_iter = table.decode_iter
        bit_for = table.bit_for
        tick = self.rep.tick
        extend_memo = self.rep._extend_memo
        car_name = f"car@{label}"
        cdr_name = f"cdr@{label}"
        cont_cell: list = []
        pair_memo: dict = {}
        arity: dict = {}

        def step(config, store, reads, recorder):
            arg_masks = [ev(config, store, reads) for ev in arg_evs]
            if kind == "error":
                return []
            for mask in arg_masks:
                if not mask:
                    return []
            ctx = tick(label, config.time)
            extra_joins = ()
            if kind == "basic":
                result = basic
            elif kind == "cons":
                pair = pair_memo.get(ctx)
                if pair is None:
                    car_addr = (car_name, ctx)
                    cdr_addr = (cdr_name, ctx)
                    pair = (car_addr, cdr_addr,
                            bit_for(APair(car_addr, cdr_addr)))
                    pair_memo[ctx] = pair
                car_addr, cdr_addr, result = pair
                extra_joins = ((car_addr, arg_masks[0]),
                               (cdr_addr, arg_masks[1]))
            else:  # car / cdr
                gathered = table.empty
                want_car = kind == "car"
                for value in decode_iter(arg_masks[0]):
                    if type(value) is APair:
                        addr = value.car if want_car else value.cdr
                        reads.add(addr)
                        gathered |= store.get_mask(addr)
                    elif value is BASIC:
                        gathered |= basic
                if not gathered:
                    return []
                result = gathered
            if not cont_cell:
                cont_cell.append(self._atom(call.cont))
            conts = cont_cell[0](config, store, reads)
            succs = []
            lam_of = arity.get
            for operator in decode_iter(conts):
                key = id(operator)
                lam = lam_of(key, _MISSING)
                if lam is _MISSING:
                    lam = operator.lam \
                        if type(operator) is KClo \
                        and len(operator.lam.params) == 1 else None
                    arity[key] = lam
                if lam is None:
                    continue
                key = (operator.benv, lam.label, ctx)
                body_benv = extend_memo.get(key)
                if body_benv is None:
                    body_benv = operator.benv.extend(lam.params, ctx)
                    extend_memo[key] = body_benv
                recorder.record_apply(label, lam, body_benv)
                succs.append(
                    (KConfig(lam.body, body_benv, ctx),
                     (((lam.params[0], ctx), result),) + extra_joins))
            if not succs and extra_joins:
                succs.append(
                    (KConfig(call, config.benv, config.time),
                     extra_joins))
            return succs
        return step
